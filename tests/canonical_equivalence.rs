//! The overhauled canonicalisation (token-stream codes, memoised subtrees,
//! pruned Lemma 3.1 sweep, invariant-side cache) must induce exactly the same
//! partition into isomorphism classes as the frozen PR 2 reference
//! implementation (`canonical_code_naive`), and the cache on
//! [`TopologicalInvariant`] must never go stale.
//!
//! The codes themselves are different objects (compact `u32` tokens vs
//! strings), so equivalence is asserted at the partition level: two invariants
//! have equal token codes iff they have equal reference codes. The start
//! filter's colour refinement is held tighter: its colours must equal those
//! of its frozen oracle (`refine_colours_naive`) exactly, since the codes
//! themselves depend on them.

use proptest::prelude::*;
use topo_core::invariant::canonical::{naive::refine_colours_naive, start_filter_colours};
use topo_core::{canonical_code_naive, top, Region, SpatialInstance, TopologicalInvariant};
use topo_datagen::{
    figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover, Scale,
};
use topo_geometry::Point;

/// Asserts that the token codes and the reference codes partition the given
/// invariants identically.
fn assert_same_partition(invariants: &[TopologicalInvariant], label: &str) {
    let naive: Vec<String> = invariants.iter().map(canonical_code_naive).collect();
    for i in 0..invariants.len() {
        for j in i..invariants.len() {
            let fast_equal = invariants[i].canonical_code() == invariants[j].canonical_code();
            let naive_equal = naive[i] == naive[j];
            assert_eq!(
                fast_equal, naive_equal,
                "partition diverged between invariants {i} and {j} of {label}"
            );
            // `is_isomorphic_to` must agree with both (it answers through the
            // cached code and hash).
            assert_eq!(fast_equal, invariants[i].is_isomorphic_to(&invariants[j]));
            if fast_equal {
                assert_eq!(invariants[i].code_hash(), invariants[j].code_hash());
            }
        }
    }
}

#[test]
fn seeded_workloads_partition_identically() {
    let mut invariants = Vec::new();
    for seed in [1u64, 7, 42] {
        let scale = Scale::tiny();
        invariants.push(top(&sequoia_landcover(scale, seed)));
        invariants.push(top(&sequoia_hydro(scale, seed)));
        invariants.push(top(&ign_city(scale, seed)));
    }
    invariants.push(top(&figure1()));
    invariants.push(top(&nested_rings(3, 2)));
    invariants.push(top(&nested_rings(2, 3)));
    invariants.push(top(&scattered_islands(5)));
    assert_same_partition(&invariants, "seeded workloads");
}

#[test]
fn transformed_copies_stay_in_the_same_class() {
    use topo_core::spatial::transform::AffineMap;
    let base = figure1();
    let mut invariants = vec![top(&base)];
    for map in
        [AffineMap::translation(313, -77), AffineMap::rotation90(), AffineMap::reflection_x()]
    {
        invariants.push(top(&map.apply_instance(&base)));
    }
    // All transformed copies are topologically equivalent; both code paths
    // must put them into a single class.
    assert_same_partition(&invariants, "transformed figure1");
    let reference = &invariants[0];
    for other in &invariants[1..] {
        assert!(reference.is_isomorphic_to(other));
    }
}

#[test]
fn cached_code_never_goes_stale() {
    let invariant = top(&nested_rings(3, 2));
    // Request the code first, then exercise every other accessor family, then
    // request it again: the invariant is immutable, so the cached code (and
    // the allocation holding it) must be byte-identical.
    let before = invariant.canonical_code().clone();
    let before_ptr = invariant.canonical_code() as *const _;
    let _ = invariant.to_structure();
    let _ = invariant.to_structure_successor_only();
    for f in 0..invariant.face_count() {
        let _ = invariant.boundary_components(f);
        let _ = invariant.face_edges(f);
        let _ = invariant.face_vertices(f);
    }
    for v in 0..invariant.vertex_count() {
        let _ = invariant.cone(v);
    }
    for c in 0..invariant.components().len() {
        let _ = invariant.owned_faces(c);
    }
    assert_eq!(&before, invariant.canonical_code());
    // Pointer equality proves the second call was a cache hit, not a
    // recomputation that happened to produce the same value.
    assert!(std::ptr::eq(before_ptr, invariant.canonical_code()));
    assert_eq!(before.code_hash(), invariant.code_hash());

    // A fresh invariant of the same instance, asked in the opposite order
    // (other accessors first, code last), agrees.
    let fresh = top(&nested_rings(3, 2));
    let _ = fresh.to_structure();
    assert_eq!(fresh.canonical_code(), &before);

    // Cloning carries the cache; the clone answers without recomputation and
    // agrees with the original.
    let cloned = invariant.clone();
    assert_eq!(cloned.canonical_code(), invariant.canonical_code());
    assert_eq!(cloned.code_hash(), invariant.code_hash());
}

#[test]
fn canonical_cell_order_realises_the_code() {
    for instance in [figure1(), nested_rings(2, 2), scattered_islands(4)] {
        let invariant = top(&instance);
        let order = invariant.canonical_cell_order();
        assert_eq!(order.len(), invariant.cell_count());
        let distinct: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(distinct.len(), invariant.cell_count(), "canonical order is a permutation");
        assert_eq!(
            *order.last().unwrap(),
            (topo_core::invariant::CellKind::Face, invariant.exterior_face())
        );
    }
}

/// `ign_city`-style giant single-skeleton-component invariants at the
/// hundreds-of-cells scale: the lazy streamed Lemma 3.1 sweep and the frozen
/// PR 2 oracle must induce the same isomorphism-class partition, and
/// topologically equivalent copies must realise byte-identical winning codes
/// (rotation and reflection also swap the roles of the two orientations, so
/// this exercises the orientation minimum).
#[test]
fn large_single_component_partition_matches_naive() {
    use topo_core::spatial::transform::AffineMap;
    let base = ign_city(Scale { grid: 4 }, 7);
    let invariants = vec![
        top(&base),
        top(&ign_city(Scale { grid: 4 }, 13)),
        top(&ign_city(Scale { grid: 5 }, 7)),
        top(&AffineMap::rotation90().apply_instance(&base)),
        top(&AffineMap::reflection_x().apply_instance(&base)),
    ];
    let giant = topo_core::sweep_stats(&invariants[0]).giant_skeleton_cells;
    assert!(giant >= 150, "expected a giant component, got {giant} skeleton cells");
    assert_same_partition(&invariants, "large single-component cities");
    // The transformed copies are not merely in the same class: they realise
    // the same winning code, token for token.
    assert_eq!(invariants[0].canonical_code(), invariants[3].canonical_code());
    assert_eq!(invariants[0].canonical_code(), invariants[4].canonical_code());
}

/// At a scale where the reference oracle is intractable, the lazy sweep must
/// still put every transformed copy of a giant-component city into the same
/// class with an identical code (self-consistency of the streamed format and
/// the refined start filter across cell renumberings and orientation swaps).
#[test]
fn giant_component_transforms_realise_identical_codes() {
    use topo_core::spatial::transform::AffineMap;
    let base = ign_city(Scale { grid: 8 }, 7);
    let reference = top(&base);
    assert!(topo_core::sweep_stats(&reference).giant_skeleton_cells >= 500);
    for map in
        [AffineMap::translation(999, -41), AffineMap::rotation90(), AffineMap::reflection_x()]
    {
        let copy = top(&map.apply_instance(&base));
        assert!(reference.is_isomorphic_to(&copy));
        assert_eq!(reference.canonical_code(), copy.canonical_code());
        assert_eq!(reference.code_hash(), copy.code_hash());
    }
}

/// The start filter's live colour refinement returns exactly the colours of
/// its frozen oracle. Codes depend on which start choices survive the
/// filter, so this is what keeps them (and the persisted hashes) unchanged.
fn assert_colours_match_oracle(invariant: &TopologicalInvariant, label: &str) {
    assert_eq!(
        start_filter_colours(invariant),
        refine_colours_naive(invariant),
        "{label}: start-filter colours diverged from the frozen oracle"
    );
}

#[test]
fn refinement_matches_the_frozen_oracle_on_every_family() {
    for seed in [1u64, 7919] {
        for grid in 4..=28 {
            let scale = Scale { grid };
            for (family, instance) in [
                ("landcover", sequoia_landcover(scale, seed)),
                ("hydro", sequoia_hydro(scale, seed)),
                ("city", ign_city(scale, seed)),
            ] {
                assert_colours_match_oracle(
                    &top(&instance),
                    &format!("{family} grid {grid} seed {seed}"),
                );
            }
        }
    }
}

/// A city map whose giant component is still splitting after the last
/// refinement round, so both refinements stop at the round cap rather than
/// at a stable partition.
#[test]
fn refinement_matches_the_frozen_oracle_at_the_round_cap() {
    let invariant = top(&ign_city(Scale { grid: 16 }, 1));
    let (vertex_colour, edge_colour) = start_filter_colours(&invariant);
    let classes = |colour: &[u32]| colour.iter().collect::<std::collections::HashSet<_>>().len();
    // One more refinement round, written out here: it still splits a class.
    let keys: std::collections::HashSet<(u32, Vec<(u32, u32)>)> = (0..invariant.vertex_count())
        .map(|v| {
            let mut pairs: Vec<(u32, u32)> = invariant
                .vertex_slots(v)
                .iter()
                .map(|&(e, end)| {
                    let (a, b) = invariant.edge_endpoints(e).expect("slotted edges have ends");
                    (edge_colour[e], vertex_colour[if end == 0 { b } else { a }])
                })
                .collect();
            pairs.sort_unstable();
            (vertex_colour[v], pairs)
        })
        .collect();
    assert!(keys.len() > classes(&vertex_colour), "the colouring stabilised before the cap");
    assert!(classes(&vertex_colour) < invariant.vertex_count(), "the colouring is discrete");
    assert_colours_match_oracle(&invariant, "city grid 16 seed 1");
}

/// A random street-grid instance: `h` horizontal and `v` vertical full-width
/// streets (one region), an optional overlapping district rectangle (second
/// region) and a few antenna stubs — a single giant skeleton component in the
/// spirit of `ign_city`, at a scale where the reference oracle is still
/// tractable.
fn street_grid() -> impl Strategy<Value = SpatialInstance> {
    (3usize..6, 3usize..6, 0u8..255, 0usize..3).prop_map(|(h, v, antennas, district)| {
        let step = 100i64;
        let mut streets = Region::new();
        let width = (v as i64 - 1) * step;
        let height = (h as i64 - 1) * step;
        for i in 0..h as i64 {
            streets.add_polyline(vec![
                Point::from_ints(0, i * step),
                Point::from_ints(width.max(step), i * step),
            ]);
        }
        for j in 0..v as i64 {
            streets.add_polyline(vec![
                Point::from_ints(j * step, 0),
                Point::from_ints(j * step, height.max(step)),
            ]);
        }
        // Antenna stubs off the west border, one per set bit, at distinct
        // crossings: they create degree-3 boundary vertices that the colour
        // refinement must keep apart from the rest.
        for i in 0..h.min(8) {
            if antennas & (1 << i) != 0 {
                streets.add_polyline(vec![
                    Point::from_ints(0, i as i64 * step),
                    Point::from_ints(-60, i as i64 * step - 40),
                ]);
            }
        }
        let mut b = Region::new();
        if district > 0 {
            let d = district as i64;
            b.add_ring(vec![
                Point::from_ints(50, 50),
                Point::from_ints(50 + d * step, 50),
                Point::from_ints(50 + d * step, 50 + d * step),
                Point::from_ints(50, 50 + d * step),
            ]);
        }
        SpatialInstance::from_regions([("R", streets), ("B", b)])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random giant-single-component street grids: the lazy sweep and the
    /// reference oracle partition identically, and a translated copy realises
    /// the identical winning code.
    #[test]
    fn street_grids_partition_identically(
        first in street_grid(),
        second in street_grid(),
        dx in -400i64..400,
        dy in -400i64..400,
    ) {
        let moved = topo_core::spatial::transform::AffineMap::translation(dx, dy)
            .apply_instance(&first);
        let invariants = [top(&first), top(&second), top(&moved)];
        let naive: Vec<String> = invariants.iter().map(canonical_code_naive).collect();
        for i in 0..invariants.len() {
            for j in i..invariants.len() {
                prop_assert_eq!(
                    invariants[i].canonical_code() == invariants[j].canonical_code(),
                    naive[i] == naive[j],
                    "partition diverged between {} and {}", i, j
                );
            }
        }
        prop_assert!(invariants[0].is_isomorphic_to(&invariants[2]));
        prop_assert_eq!(invariants[0].canonical_code(), invariants[2].canonical_code());
    }

    /// On the same street grids, the live refinement returns exactly the
    /// frozen oracle's colours.
    #[test]
    fn street_grid_colours_match_the_frozen_oracle(instance in street_grid()) {
        let invariant = top(&instance);
        prop_assert_eq!(start_filter_colours(&invariant), refine_colours_naive(&invariant));
    }
}

/// A small random instance of rectangles and isolated points (same shape as
/// the structural property tests, including crossing and nested boundaries).
fn small_instance() -> impl Strategy<Value = SpatialInstance> {
    let rect = (0i64..6, 0i64..6, 1i64..4, 1i64..4)
        .prop_map(|(x, y, w, h)| (x * 100, y * 100, x * 100 + w * 60, y * 100 + h * 60));
    let rects = proptest::collection::vec(rect, 1..4);
    let points = proptest::collection::vec((0i64..40, 0i64..40), 0..3);
    (rects, points).prop_map(|(rects, points)| {
        let mut a = Region::new();
        let mut b = Region::new();
        for (i, (x0, y0, x1, y1)) in rects.into_iter().enumerate() {
            let ring = vec![
                Point::from_ints(x0, y0),
                Point::from_ints(x1, y0),
                Point::from_ints(x1, y1),
                Point::from_ints(x0, y1),
            ];
            if i % 2 == 0 {
                a.add_ring(ring);
            } else {
                b.add_ring(ring);
            }
        }
        for (x, y) in points {
            b.add_point(Point::from_ints(x, y));
        }
        SpatialInstance::from_regions([("A", a), ("B", b)])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random instance pairs, the memoised/pruned codes decide equality
    /// exactly as the frozen reference codes do.
    #[test]
    fn random_pairs_partition_identically(
        first in small_instance(),
        second in small_instance(),
        dx in -500i64..500,
        dy in -500i64..500,
    ) {
        let moved = topo_core::spatial::transform::AffineMap::translation(dx, dy)
            .apply_instance(&first);
        let invariants = [top(&first), top(&second), top(&moved)];
        let naive: Vec<String> = invariants.iter().map(canonical_code_naive).collect();
        for i in 0..invariants.len() {
            for j in i..invariants.len() {
                prop_assert_eq!(
                    invariants[i].canonical_code() == invariants[j].canonical_code(),
                    naive[i] == naive[j],
                    "partition diverged between {} and {}", i, j
                );
            }
        }
        // The translated copy is always equivalent to the original.
        prop_assert!(invariants[0].is_isomorphic_to(&invariants[2]));
    }
}
