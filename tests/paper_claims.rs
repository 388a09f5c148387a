//! The paper's verdicts that no other suite asserts: the compression table
//! of the practical-considerations section (E1), counting for component
//! parity (Theorem 3.4, E5), the single-region `FO_inv` translation
//! (Theorem 4.9, E7), and Figures 3–5, 9 and 10. EXPERIMENTS.md maps every
//! claim of the paper to the test that asserts it.

use topo_core::{
    top, InvariantStats, Point, PointFormula, Region, Schema, Semantics, SpatialInstance,
};
use topo_datagen::{
    ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover, Scale,
};
use topo_translate::{cycles_of, equivalent_lemma_4_7, SingleRegionTranslator};

/// Bytes per stored point in the paper's raw-size estimates: Sequoia 2000
/// stores 20-byte points, IGN 18-byte points.
const SEQUOIA_BYTES_PER_POINT: usize = 20;
const IGN_BYTES_PER_POINT: usize = 18;

fn single_region(region: Region) -> SpatialInstance {
    let mut instance = SpatialInstance::new(Schema::from_names(["P"]));
    instance.set_region(0, region);
    instance
}

/// Raw bytes over invariant bytes, and the invariant's statistics.
fn compression(instance: &SpatialInstance, bytes_per_point: usize) -> (f64, InvariantStats) {
    let stats = InvariantStats::compute(&top(instance));
    (instance.raw_bytes(bytes_per_point) as f64 / stats.bytes as f64, stats)
}

/// E1: disjoint hydrography compresses by more than an order of magnitude,
/// a shared landcover subdivision by about 2×, and the small city not at
/// all — the invariant's overhead pays off only at scale.
#[test]
fn e1_compression_follows_feature_sharing() {
    let (hydro, stats) = compression(&sequoia_hydro(Scale::large(), 2), SEQUOIA_BYTES_PER_POINT);
    assert!(hydro > 10.0, "hydro ratio {hydro}");
    assert_eq!(stats.max_degree, 1);
    let (landcover, stats) =
        compression(&sequoia_landcover(Scale::large(), 1), SEQUOIA_BYTES_PER_POINT);
    assert!((1.5..4.0).contains(&landcover), "landcover ratio {landcover}");
    assert!((stats.average_degree - 3.62).abs() < 0.01, "degree {}", stats.average_degree);
    let (city, _) = compression(&ign_city(Scale::medium(), 3), IGN_BYTES_PER_POINT);
    assert!(city < 1.0, "city ratio {city}");
}

/// E5, Theorem 3.4: a fixpoint+counting program computes the parity of the
/// number of closed curves.
#[test]
fn e5_counting_program_gives_component_parity() {
    for count in [3usize, 4, 7, 8, 12] {
        let instance = scattered_islands(count);
        let mut structure = top(&instance).to_structure();
        structure.add_numeric_relations();
        let program =
            topo_core::queries::programs::even_closed_curves_program(instance.schema(), 0);
        let out = program.run(&structure, Semantics::Stratified, usize::MAX).unwrap();
        let even = out.relation("Answer").is_some_and(|r| !r.is_empty());
        assert_eq!(even, count % 2 == 0, "{count} islands");
    }
}

/// E7, Theorem 4.9: the finite-universe translator over four star
/// candidates keeps one representative per ≈r class, and the translated
/// query answers "the region holds two distinct points" correctly.
#[test]
fn e7_single_region_translation_keeps_one_candidate_per_class() {
    let candidates: Vec<SpatialInstance> = (1..=4i64)
        .map(|arms| {
            let mut region = Region::new();
            for i in 0..arms {
                region.add_polyline(vec![
                    Point::origin(),
                    Point::from_ints(100 + 37 * i, 100 - 23 * i),
                ]);
            }
            single_region(region)
        })
        .collect();
    let two_points = PointFormula::Exists(
        0,
        Box::new(PointFormula::Exists(
            1,
            Box::new(PointFormula::And(vec![
                PointFormula::InRegion { region: 0, var: 0 },
                PointFormula::InRegion { region: 0, var: 1 },
                PointFormula::Not(Box::new(PointFormula::Eq(0, 1))),
            ])),
        )),
    );
    let test_invariant = top(&candidates[2]);
    for r in 1..=2 {
        let translator = SingleRegionTranslator::new(r, 0, candidates.clone());
        let (query, examined) = translator.translate(&two_points);
        assert_eq!((examined, query.class_count()), (4, 3), "r = {r}");
        assert!(query.evaluate(&test_invariant), "r = {r}");
    }
}

/// The lexicographically least rotation of a cyclic word.
fn least_rotation(word: &str) -> String {
    (0..word.len()).map(|i| format!("{}{}", &word[i..], &word[..i])).min().unwrap_or_default()
}

/// Figures 3–5: the coloured cycles around the four vertices of a square
/// with two dangling polylines (`#`/`o`: face in/outside P, `E`/`e`: edge
/// in/outside P).
#[test]
fn figure3_cones_and_coloured_cycles() {
    let mut region = Region::rectangle(0, 0, 100, 100);
    region.add_polyline(vec![
        Point::from_ints(100, 100),
        Point::from_ints(160, 100),
        Point::from_ints(160, 160),
    ]);
    region.add_polyline(vec![Point::from_ints(0, 100), Point::from_ints(-60, 160)]);
    let invariant = top(&single_region(region));
    assert_eq!(invariant.vertex_count(), 4);
    let mut words: Vec<String> = cycles_of(&invariant, 0)
        .iter()
        .map(|cycle| {
            let word: String = cycle
                .colors
                .iter()
                .map(|c| match (c.is_face, c.in_region) {
                    (true, true) => '#',
                    (true, false) => 'o',
                    (false, true) => 'E',
                    (false, false) => 'e',
                })
                .collect();
            least_rotation(&word)
        })
        .collect();
    words.sort();
    let mut expected: Vec<String> =
        ["EoE#Eo", "EoEoE#", "Eo", "Eo"].iter().map(|w| least_rotation(w)).collect();
    expected.sort();
    assert_eq!(words, expected);
}

/// A single-cone instance: `pattern[i]` triangular petals followed by one
/// line, all sharing the origin vertex.
fn fig9_instance(pattern: &[usize]) -> SpatialInstance {
    let slots = pattern.iter().sum::<usize>() * 6 + pattern.len() * 3;
    let coord = |k: usize, radius: f64| {
        let theta = (k as f64 / slots as f64) * std::f64::consts::TAU;
        Point::from_ints((radius * theta.cos()) as i64, (radius * theta.sin()) as i64)
    };
    let mut region = Region::new();
    let mut angle = 0;
    for &petals in pattern {
        for _ in 0..petals {
            region.add_ring(vec![Point::origin(), coord(angle, 400.0), coord(angle + 2, 400.0)]);
            angle += 6;
        }
        region.add_polyline(vec![Point::origin(), coord(angle, 500.0)]);
        angle += 3;
    }
    single_region(region)
}

/// Figure 9: petals and lines alternating vs grouped around one vertex are
/// topologically different, yet FO with one round tells them apart neither
/// over the full invariant nor over its successor-only Orientation.
#[test]
fn figure9_one_round_does_not_separate_the_cones() {
    let a = top(&fig9_instance(&[1, 2, 1, 2]));
    let b = top(&fig9_instance(&[1, 1, 2, 2]));
    assert!(!a.is_isomorphic_to(&b));
    assert!(topo_core::relational::fo_equivalent(&a.to_structure(), &b.to_structure(), 1));
    assert!(topo_core::relational::fo_equivalent(
        &a.to_structure_successor_only(),
        &b.to_structure_successor_only(),
        1
    ));
}

/// Figure 10, FO_inv is stronger than FO_top(R,<): two side-by-side nested
/// pairs vs four rings nested in one another have no vertices (equal cone
/// multisets) and ≈1-equivalent cycles, yet their invariants differ.
#[test]
fn figure10_invariant_separates_what_cones_cannot() {
    let i = top(&nested_rings(2, 2));
    let mut even = Region::new();
    let mut odd = Region::new();
    for level in 0..4i64 {
        let (lo, hi) = (level * 500, 20_000 - level * 500);
        let ring = vec![
            Point::from_ints(lo, lo),
            Point::from_ints(hi, lo),
            Point::from_ints(hi, hi),
            Point::from_ints(lo, hi),
        ];
        if level % 2 == 0 { &mut even } else { &mut odd }.add_ring(ring);
    }
    let j = top(&SpatialInstance::from_regions([("even", even), ("odd", odd)]));
    assert_eq!((i.vertex_count(), j.vertex_count()), (0, 0));
    assert!(equivalent_lemma_4_7(&i, &j, 0, 1));
    assert!(!i.is_isomorphic_to(&j));
}
