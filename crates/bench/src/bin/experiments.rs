//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run -p topo-bench --bin experiments [--release] -- [ids...]`
//! where ids are `e1 … e8`, `fig1`, `fig3`, `fig9`, `fig10`, or `all`
//! (default). Each experiment prints the rows/series described in DESIGN.md's
//! experiment index and EXPERIMENTS.md records the expected shape.

use std::time::Duration;
use topo_bench::*;
use topo_core::{
    datalog_program, evaluate_direct, evaluate_on_invariant, invert, top, InvariantStats,
    PointFormula, Semantics,
};
use topo_datagen as datagen;
use topo_translate::{
    all_invariant_orderings, cycles_of, equivalent_lemma_4_7, orderings_agree,
    SingleRegionTranslator, TranslatedQuery,
};

const EXPERIMENTS: [(&str, fn()); 12] = [
    ("e1", e1_dataset_statistics),
    ("e2", e2_construction_scaling),
    ("e3", e3_inversion),
    ("e4", e4_orderings),
    ("e5", e5_counting),
    ("e6", e6_fixpoint_translation),
    ("e7", e7_fo_translation),
    ("e8", e8_strategies),
    ("fig1", fig1_component_tree),
    ("fig3", fig3_cones_and_cycles),
    ("fig9", fig9_successor_vs_cyclic),
    ("fig10", fig10_fo_inv_stronger),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        if arg != "all" && !EXPERIMENTS.iter().any(|(id, _)| id == arg) {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("warning: unknown experiment id '{arg}' (known: all, {})", known.join(", "));
        }
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let mut ran_any = false;
    for (id, run) in EXPERIMENTS {
        if run_all || args.iter().any(|a| a == id) {
            run();
            ran_any = true;
        }
    }
    if !ran_any {
        eprintln!("error: no experiment matched the given ids");
        std::process::exit(1);
    }
}

fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// E1 — the dataset-statistics table of the practical-considerations section.
fn e1_dataset_statistics() {
    header("E1  Dataset statistics: raw data vs topological invariant");
    let rows = vec![
        dataset_row(
            "sequoia-landcover",
            &datagen::sequoia_landcover(datagen::Scale::large(), 1),
            SEQUOIA_BYTES_PER_POINT,
        ),
        dataset_row(
            "sequoia-hydro",
            &datagen::sequoia_hydro(datagen::Scale::large(), 2),
            SEQUOIA_BYTES_PER_POINT,
        ),
        dataset_row(
            "ign-orange-city",
            &datagen::ign_city(datagen::Scale::medium(), 3),
            IGN_BYTES_PER_POINT,
        ),
    ];
    print_dataset_table(&rows);
    println!();
    println!(
        "Paper's published figures for the real data sets: landcover 1/90, hydro 1/300, IGN 1/72;"
    );
    println!("average lines per point 4.5, maxima 12 (Sequoia) and 8 (IGN).");
}

/// E2 — invariant construction scaling (Theorem 2.1's polynomial bound).
fn e2_construction_scaling() {
    header("E2  Invariant construction scaling (Theorem 2.1)");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "grid", "points", "cells", "ratio", "build time"
    );
    for grid in [4usize, 8, 16, 24, 32] {
        let instance = datagen::sequoia_landcover(datagen::Scale { grid }, 7);
        let (invariant, duration) = build_invariant(&instance);
        let stats = InvariantStats::compute(&invariant);
        println!(
            "{:<10} {:>10} {:>10} {:>9.1}x {:>12.1?}",
            grid,
            instance.point_count(),
            stats.cells,
            instance.raw_bytes(SEQUOIA_BYTES_PER_POINT) as f64 / stats.bytes.max(1) as f64,
            duration
        );
    }
}

/// E3 — inversion (Theorem 2.2): rebuild a linear instance and check the
/// round trip.
fn e3_inversion() {
    header("E3  Inversion of the invariant (Theorem 2.2)");
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>12} {:>8}",
        "instance", "cells", "invert", "re-top", "isomorphic", "size"
    );
    let workloads: Vec<(&str, topo_core::SpatialInstance)> = vec![
        ("hydro (tiny)", datagen::sequoia_hydro(datagen::Scale::tiny(), 5)),
        ("hydro (medium)", datagen::sequoia_hydro(datagen::Scale::medium(), 5)),
        ("nested rings (5 levels)", datagen::nested_rings(5, 2)),
        ("scattered islands (12)", datagen::scattered_islands(12)),
    ];
    for (name, instance) in workloads {
        let invariant = top(&instance);
        let (rebuilt, invert_time) = timed(|| invert(&invariant));
        match rebuilt {
            Ok(rebuilt) => {
                let (re_invariant, retop_time) = timed(|| top(&rebuilt));
                println!(
                    "{:<28} {:>8} {:>10.1?} {:>10.1?} {:>12} {:>8}",
                    name,
                    invariant.cell_count(),
                    invert_time,
                    retop_time,
                    re_invariant.is_isomorphic_to(&invariant),
                    rebuilt.point_count()
                );
            }
            Err(err) => println!("{name:<28} inversion unsupported: {err}"),
        }
    }
}

/// E4 — Lemma 3.1 / Theorem 3.2: all parameterised orderings agree on
/// order-invariant queries.
fn e4_orderings() {
    header("E4  Parameterised orderings (Lemma 3.1 / Theorem 3.2)");
    let instance = datagen::figure1();
    let invariant = top(&instance);
    let (orderings, duration) = timed(|| all_invariant_orderings(&invariant, 512));
    println!(
        "figure-1 instance: {} components, {} cells, {} orderings generated in {duration:.1?}",
        invariant.components().len(),
        invariant.cell_count(),
        orderings.len()
    );
    let (agree, value) = orderings_agree(&invariant, 512, |ordering| {
        // An order-invariant query evaluated relative to the order: the
        // number of edges contained in region 0.
        ordering
            .order
            .iter()
            .filter(|&&(kind, id)| {
                kind == topo_core::invariant::CellKind::Edge
                    && invariant.cell_in_region(kind, id, 0)
            })
            .count()
    });
    println!("order-invariant query agrees across all orderings: {agree} (value {value:?})");
}

/// E5 — Theorem 3.4: counting is needed and sufficient for component parity.
fn e5_counting() {
    header("E5  Fixpoint+counting on arbitrary invariants (Theorem 3.4)");
    println!("{:<10} {:>12} {:>14} {:>14}", "islands", "parity", "via counting", "runtime");
    for count in [3usize, 4, 7, 8, 12] {
        let instance = datagen::scattered_islands(count);
        let invariant = top(&instance);
        let mut structure = invariant.to_structure();
        structure.add_numeric_relations();
        let program =
            topo_core::queries::programs::even_closed_curves_program(instance.schema(), 0);
        let (result, duration) = timed(|| {
            let out = program.run(&structure, Semantics::Stratified, usize::MAX).unwrap();
            out.relation("Answer").map(|r| !r.is_empty()).unwrap_or(false)
        });
        println!("{:<10} {:>12} {:>14} {:>14.1?}", count, count % 2 == 0, result, duration);
    }
    println!("(fixpoint alone cannot express this query; fixpoint+counting captures PTIME on invariants)");
}

/// E6 — Theorem 4.1/4.2: linear-time translation into fixpoint(+counting).
fn e6_fixpoint_translation() {
    header("E6  Linear-time translation FO_top -> fixpoint+counting (Thm 4.1)");
    println!(
        "{:<14} {:>12} {:>16} {:>16} {:>10}",
        "quant. depth", "formula size", "translation time", "eval on inv", "answer"
    );
    let instance = datagen::nested_rings(3, 1);
    let invariant = top(&instance);
    for depth in 1..=4usize {
        let formula = nested_exists_formula(depth);
        let (translated, translate_time) = timed(|| TranslatedQuery::new(formula));
        let (answer, eval_time) = timed(|| translated.evaluate(&invariant).unwrap());
        println!(
            "{:<14} {:>12} {:>16.1?} {:>16.1?} {:>10}",
            depth,
            translated.size(),
            translate_time,
            eval_time,
            answer
        );
    }
    println!("(translation cost grows linearly with the formula; compare with E7)");
}

/// A sentence of the given quantifier depth: ∃p1 … ∃pk (region 0 contains all
/// of them and they are pairwise x-ordered).
fn nested_exists_formula(depth: usize) -> PointFormula {
    let mut conjuncts: Vec<PointFormula> =
        (0..depth as u32).map(|v| PointFormula::InRegion { region: 0, var: v }).collect();
    for v in 1..depth as u32 {
        conjuncts.push(PointFormula::LessX(v - 1, v));
    }
    let mut formula = PointFormula::And(conjuncts);
    for v in (0..depth as u32).rev() {
        formula = PointFormula::Exists(v, Box::new(formula));
    }
    formula
}

/// E7 — Theorem 4.9: translation into FO_inv for single-region schemas; the
/// cost explodes with the quantifier-depth parameter r.
fn e7_fo_translation() {
    header("E7  Translation into FO_inv for single-region schemas (Thm 4.9)");
    println!(
        "{:<6} {:>12} {:>14} {:>16} {:>10}",
        "r", "candidates", "classes kept", "translation time", "correct"
    );
    // Candidate cone instances: stars with 1..4 polyline arms from a common
    // centre — their cone types (coloured cycles) differ, so the translator
    // has genuinely distinct ≈r classes to examine.
    let candidates: Vec<topo_core::SpatialInstance> = (1..=4usize)
        .map(|arms| {
            let mut instance =
                topo_core::SpatialInstance::new(topo_core::Schema::from_names(["P"]));
            let mut region = topo_core::Region::new();
            for i in 0..arms {
                let dx = 100 + 37 * i as i64;
                let dy = 100 - 23 * i as i64;
                region.add_polyline(vec![
                    topo_core::Point::origin(),
                    topo_core::Point::from_ints(dx, dy),
                ]);
            }
            instance.set_region(0, region);
            instance
        })
        .collect();
    // Sentence (depth 2): the region contains two distinct points.
    let sentence = PointFormula::Exists(
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
    for r in 1..=2usize {
        let translator = SingleRegionTranslator::new(r, 0, candidates.clone());
        let ((query, examined), duration) = timed(|| translator.translate(&sentence));
        let test_invariant = top(&candidates[2]);
        let correct = query.evaluate(&test_invariant);
        println!(
            "{:<6} {:>12} {:>14} {:>16.1?} {:>10}",
            r,
            examined,
            query.class_count(),
            duration,
            correct
        );
    }
    println!("(the FO target pays a cost that grows rapidly with r; the fixpoint target of E6 stays linear)");
}

/// E8 — the four evaluation strategies of the practical-considerations
/// section.
fn e8_strategies() {
    header("E8  Evaluation strategies (i) direct, (ii/iii) on the invariant, (iv) on the rebuilt instance");
    let instance = datagen::sequoia_hydro(datagen::Scale { grid: 6 }, 11);
    let (invariant, build_time) = build_invariant(&instance);
    println!(
        "workload: hydrography, {} raw points -> {} invariant cells (construction {:?})",
        instance.point_count(),
        invariant.cell_count(),
        build_time
    );
    let rebuilt = invert(&invariant).ok();
    let structure = topo_core::program_structure(&invariant);
    println!(
        "{:<42} {:>12} {:>12} {:>12} {:>12}",
        "query", "(i) direct", "(iii) invariant", "(ii) datalog", "(iv) rebuilt"
    );
    for query in strategy_queries() {
        let (direct, t_direct) = timed(|| evaluate_direct(&query, &instance));
        let (on_inv, t_inv) = timed(|| evaluate_on_invariant(&query, &invariant));
        let datalog = datalog_program(&query, instance.schema())
            .map(|program| timed(|| program.run_goal_boolean(&structure, Semantics::Stratified)));
        let rebuilt_eval = rebuilt.as_ref().map(|r| timed(|| evaluate_direct(&query, r)));
        assert_eq!(direct, on_inv, "strategies disagree on {query:?}");
        let fmt = |value: bool, t: Duration| format!("{value} {t:.1?}");
        println!(
            "{:<42} {:>12} {:>12} {:>12} {:>12}",
            query.describe(instance.schema()),
            fmt(direct, t_direct),
            fmt(on_inv, t_inv),
            datalog.map(|(v, t)| fmt(v, t)).unwrap_or_else(|| "-".into()),
            rebuilt_eval.map(|(v, t)| fmt(v, t)).unwrap_or_else(|| "-".into()),
        );
    }
}

/// Figure 1 / Figure 2 — the running instance and its connected-component
/// tree.
fn fig1_component_tree() {
    header("Fig 1/2  Connected-component tree of the running example");
    let instance = datagen::figure1();
    let invariant = top(&instance);
    println!(
        "components: {}   cells: {}   faces: {}",
        invariant.components().len(),
        invariant.cell_count(),
        invariant.face_count()
    );
    for (c, component) in invariant.components().iter().enumerate() {
        println!(
            "  component c{}: depth {}, parent face {}, {} vertices, {} edges, owns faces {:?}",
            c + 1,
            component.depth,
            component.parent_face,
            component.vertices.len(),
            component.edges.len(),
            invariant.owned_faces(c)
        );
    }
}

/// Figures 3–5 — cones and coloured cycles of a single-region instance.
fn fig3_cones_and_cycles() {
    header("Fig 3-5  cones(I) and cycles(I) for a single-region instance");
    let mut region = topo_core::Region::rectangle(0, 0, 100, 100);
    region.add_polyline(vec![
        topo_core::Point::from_ints(100, 100),
        topo_core::Point::from_ints(160, 100),
        topo_core::Point::from_ints(160, 160),
    ]);
    region.add_polyline(vec![
        topo_core::Point::from_ints(0, 100),
        topo_core::Point::from_ints(-60, 160),
    ]);
    let mut instance = topo_core::SpatialInstance::new(topo_core::Schema::from_names(["P"]));
    instance.set_region(0, region);
    let invariant = top(&instance);
    let cycles = cycles_of(&invariant, 0);
    println!("{} vertices -> {} coloured cycles", invariant.vertex_count(), cycles.len());
    for (v, cycle) in cycles.iter().enumerate() {
        let rendered: String = cycle
            .colors
            .iter()
            .map(|c| match (c.is_face, c.in_region) {
                (true, true) => '#',
                (true, false) => 'o',
                (false, true) => 'E',
                (false, false) => 'e',
            })
            .collect();
        println!("  vertex {v}: [{rendered}]  (#: face in P, o: face outside, E/e: edge in/out)");
    }
}

/// Figure 9 — with only the successor form of Orientation, FO on the
/// invariant cannot distinguish instances that FO_top(R,<) distinguishes.
fn fig9_successor_vs_cyclic() {
    header("Fig 9  Cyclic order vs successor on the invariant");
    // Two one-cone instances with petals (faces) and lines around a single
    // vertex, arranged as face/lines/faces/lines vs faces/faces/lines/lines.
    let a = fig9_instance(&[1, 2, 1, 2]);
    let b = fig9_instance(&[1, 1, 2, 2]);
    let inv_a = top(&a);
    let inv_b = top(&b);
    println!(
        "  invariants isomorphic: {} (the instances are topologically different)",
        inv_a.is_isomorphic_to(&inv_b)
    );
    let full =
        topo_core::relational::fo_equivalent(&inv_a.to_structure(), &inv_b.to_structure(), 1);
    let succ = topo_core::relational::fo_equivalent(
        &inv_a.to_structure_successor_only(),
        &inv_b.to_structure_successor_only(),
        1,
    );
    println!("  FO_1 distinguishes them with the full cyclic Orientation: {}", !full);
    println!("  FO_1 distinguishes them with successor-only orientation:  {}", !succ);
    println!(
        "  (the paper's Remark (i) after Theorem 4.9: as the line bundles grow, no FO_inv sentence"
    );
    println!(
        "   over the successor-only invariant distinguishes the two families, so the full cyclic"
    );
    println!("   order is necessary for the first-order translation)");
}

/// A single-cone instance: `pattern[i]` faces (triangular petals) followed by
/// a bundle of lines, all sharing the origin vertex.
fn fig9_instance(pattern: &[usize]) -> topo_core::SpatialInstance {
    let mut region = topo_core::Region::new();
    let mut angle = 0usize;
    let slots = pattern.iter().sum::<usize>() * 6 + pattern.len() * 3;
    let coord = |k: usize, radius: i64| {
        let theta = (k as f64 / slots as f64) * std::f64::consts::TAU;
        topo_core::Point::from_ints(
            (radius as f64 * theta.cos()) as i64,
            (radius as f64 * theta.sin()) as i64,
        )
    };
    for &petals in pattern {
        for _ in 0..petals {
            let a = coord(angle, 400);
            let b = coord(angle + 2, 400);
            region.add_ring(vec![topo_core::Point::origin(), a, b]);
            angle += 6;
        }
        // A single line after each petal group (a stand-in for the paper's
        // large bundles, kept small so the EF-game check stays tractable).
        region.add_polyline(vec![topo_core::Point::origin(), coord(angle, 500)]);
        angle += 3;
    }
    let mut instance = topo_core::SpatialInstance::new(topo_core::Schema::from_names(["P"]));
    instance.set_region(0, region);
    instance
}

/// Figure 10 — FO_inv is strictly more expressive than FO_top(R,<): two
/// instances with the same cone types but different invariants.
fn fig10_fo_inv_stronger() {
    header("Fig 10  FO_inv distinguishes instances that FO_top(R,<) cannot");
    // Instance I: two disjoint disks; instance J: one disk containing another
    // disk in its interior hole... The paper's example: same cones, different
    // global arrangement. We use: two disjoint annuli vs nested annuli.
    let i = datagen::nested_rings(2, 2); // two side-by-side nested pairs
    let mut region_a = topo_core::Region::new();
    let mut region_b = topo_core::Region::new();
    // J: four rings all nested inside each other, alternating regions.
    for level in 0..4i64 {
        let inset = level * 500;
        let ring = vec![
            topo_core::Point::from_ints(inset, inset),
            topo_core::Point::from_ints(20_000 - inset, inset),
            topo_core::Point::from_ints(20_000 - inset, 20_000 - inset),
            topo_core::Point::from_ints(inset, 20_000 - inset),
        ];
        if level % 2 == 0 {
            region_a.add_ring(ring);
        } else {
            region_b.add_ring(ring);
        }
    }
    let j = topo_core::SpatialInstance::from_regions([("even", region_a), ("odd", region_b)]);
    let inv_i = top(&i);
    let inv_j = top(&j);
    println!(
        "  cone multisets equal (no vertices in either): {}",
        inv_i.vertex_count() == 0 && inv_j.vertex_count() == 0
    );
    println!("  cycles(I) ≈1 cycles(J): {}", equivalent_lemma_4_7(&inv_i, &inv_j, 0, 1));
    println!("  invariants isomorphic: {}", inv_i.is_isomorphic_to(&inv_j));
    println!("  (FO over the invariant can count nesting depth; FO_top(R,<) cannot by [KPV97])");
}
