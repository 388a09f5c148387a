//! The differential harness for incremental `top(I)` maintenance: after
//! **every** step of an edit sequence, the maintained invariant must be
//! bit-identical to a cold rebuild of the same instance — cell counts,
//! canonical code, `CodeHash` — and, at scales where the frozen
//! `naive-reference` oracle is tractable, identical to the pre-optimisation
//! pipeline and codes as well. Store answers obtained through
//! `update_instance` must track the edits query-for-query.
//!
//! Edit sequences come in three flavours: scripted split/merge scenarios
//! (regions bridging previously disjoint islands, nesting, shared
//! boundaries), drain-and-refill sweeps over every seeded workload in
//! adversarial orders, and random sequences from the reusable strategies in
//! `tests/common/edits.rs`. The whole harness runs under thread pools of 1
//! and 8, and CI additionally repeats it under `TOPO_THREADS=1/8` and the
//! `naive-reference` feature.

use std::sync::Arc;

use proptest::prelude::*;
use topo_core::parallel::set_global_threads;
use topo_core::{
    canonical_code_naive, evaluate_on_invariant, top, top_naive, InvariantStore,
    MaintainedInvariant, Region, TopologicalInvariant,
};
use topo_datagen::figure1;
use topo_geometry::Point;

mod common;
use common::edits::{edit_instance, edit_sequence, empty_edit_regions, Edit};
use common::PoolGuard;

/// The frozen reference canonicalisation is super-quadratic; cross-check
/// against it only while the complex is small.
const NAIVE_CELL_LIMIT: usize = 140;

/// The heart of the harness: every observable of the maintained invariant
/// equals a cold rebuild of the maintained instance, and — while small —
/// the frozen naive pipeline and frozen naive codes agree too.
fn assert_matches_cold(maintained: &MaintainedInvariant, label: &str) -> Arc<TopologicalInvariant> {
    let instance = maintained.instance();
    let cold = Arc::new(top(&instance));
    let repaired = maintained.invariant();
    assert_eq!(repaired.vertex_count(), cold.vertex_count(), "{label}: vertex count");
    assert_eq!(repaired.edge_count(), cold.edge_count(), "{label}: edge count");
    assert_eq!(repaired.face_count(), cold.face_count(), "{label}: face count");
    assert_eq!(
        repaired.canonical_code(),
        cold.canonical_code(),
        "{label}: canonical code diverged from the cold rebuild"
    );
    assert_eq!(repaired.code_hash(), cold.code_hash(), "{label}: code hash");
    if cold.cell_count() <= NAIVE_CELL_LIMIT {
        let naive = top_naive(&instance);
        assert_eq!(repaired.cell_count(), naive.cell_count(), "{label}: naive cell count");
        assert_eq!(
            canonical_code_naive(repaired),
            canonical_code_naive(&naive),
            "{label}: frozen reference codes diverged"
        );
    }
    cold
}

fn apply(maintained: &mut MaintainedInvariant, edit: &Edit) {
    match edit {
        Edit::Insert(id, region) => maintained.insert_region(*id, region.clone()),
        Edit::Remove(id) => maintained.remove_region(*id),
    }
}

fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Vec<Point> {
    vec![
        Point::from_ints(x0, y0),
        Point::from_ints(x1, y0),
        Point::from_ints(x1, y1),
        Point::from_ints(x0, y1),
    ]
}

/// Scripted component split/merge scenario: two far-apart islands start as
/// separate components, a bridge region merges them into one, and removing
/// the bridge splits them again — with nesting and a polyline thrown in so
/// the repair crosses every feature kind.
#[test]
fn bridge_edits_split_and_merge_hull_groups() {
    let mut m = MaintainedInvariant::from_instance(&edit_instance(&empty_edit_regions()));
    assert_matches_cold(&m, "empty start");

    // Island 0: a square with a nested inner ring (containment inside one
    // component). Island 1: a plain square 5 000 to the east.
    let mut a = Region::new();
    a.add_ring(rect(0, 0, 400, 400));
    a.add_ring(rect(100, 100, 300, 300));
    m.insert_region(0, a.clone());
    assert_matches_cold(&m, "island 0 with nesting");

    let mut b = Region::new();
    b.add_ring(rect(5_000, 0, 5_400, 400));
    m.insert_region(1, b.clone());
    assert_matches_cold(&m, "two disjoint islands");

    // The bridge overlaps both islands: one merged component.
    let mut bridge = Region::new();
    bridge.add_ring(rect(300, 150, 5_100, 250));
    bridge.add_polyline(vec![Point::from_ints(200, 380), Point::from_ints(5_200, 380)]);
    m.insert_region(2, bridge);
    assert_matches_cold(&m, "bridged into one component");
    let merged_builds = m.stats().group_builds;
    let reuses_before = m.stats().group_reuses;

    // Removing the bridge returns to the two-island state seen before, so
    // its cached invariant is reused, not rebuilt.
    m.remove_region(2);
    assert_matches_cold(&m, "split back apart");
    assert_eq!(
        m.stats().group_builds,
        merged_builds,
        "splitting back must rebuild nothing — the two-island state is cached"
    );
    assert_eq!(
        m.stats().group_reuses,
        reuses_before + 1,
        "the two-island state must come from the cache"
    );

    // Same topology as before the bridge ever existed.
    let mut reference = MaintainedInvariant::from_instance(&edit_instance(&{
        let mut regions = empty_edit_regions();
        regions[0] = a;
        regions[1] = b;
        regions
    }));
    assert_eq!(m.invariant().canonical_code(), reference.invariant().canonical_code());
    reference.remove_region(0);
    m.remove_region(0);
    assert_matches_cold(&m, "island 0 gone");
    m.remove_region(1);
    assert_matches_cold(&m, "drained");
    assert_eq!(m.invariant().cell_count(), 1, "empty instance is the lone exterior face");
}

/// Every seeded workload survives a drain-and-refill sweep: remove each
/// region and re-insert it (local repair on a live instance), then drain
/// all regions and refill in reverse — an adversarial order that forces
/// component splits, merges and empty-schema edge cases. Checked after every
/// single step.
#[test]
fn seeded_workloads_drain_and_refill_incrementally() {
    for (label, instance) in common::seeded_workloads() {
        let mut m = MaintainedInvariant::from_instance(&instance);
        assert_matches_cold(&m, &format!("{label}: initial build"));
        let regions: Vec<Region> =
            (0..instance.schema().len()).map(|r| m.region(r).clone()).collect();

        for (r, region) in regions.iter().enumerate() {
            m.remove_region(r);
            assert_matches_cold(&m, &format!("{label}: removed region {r}"));
            m.insert_region(r, region.clone());
            assert_matches_cold(&m, &format!("{label}: re-inserted region {r}"));
        }
        // A full round-trip lands on the initial invariant exactly.
        assert_eq!(m.invariant().canonical_code(), top(&instance).canonical_code(), "{label}");

        for r in 0..regions.len() {
            m.remove_region(r);
            assert_matches_cold(&m, &format!("{label}: drain {r}"));
        }
        for (r, region) in regions.iter().enumerate().rev() {
            m.insert_region(r, region.clone());
            assert_matches_cold(&m, &format!("{label}: refill {r}"));
        }
        assert_eq!(m.invariant().canonical_code(), top(&instance).canonical_code(), "{label}");
    }
}

/// The maintained pipeline is bit-identical across thread-pool sizes: the
/// per-step code/hash trace of a fixed edit script is the same under the
/// sequential fallback and a parallel pool, and each step matches the cold
/// rebuild under that same pool.
#[test]
fn maintained_pipeline_is_deterministic_across_thread_pools() {
    let _guard = PoolGuard::take();
    let script: Vec<Edit> = vec![
        Edit::Insert(0, {
            let mut r = Region::new();
            r.add_ring(rect(0, 0, 300, 300));
            r.add_ring(rect(3_050, 10, 3_350, 310));
            r
        }),
        Edit::Insert(1, {
            let mut r = Region::new();
            r.add_ring(rect(150, 150, 3_200, 450));
            r
        }),
        Edit::Insert(2, {
            let mut r = Region::new();
            r.add_polyline(vec![Point::from_ints(-100, 0), Point::from_ints(400, 500)]);
            r.add_point(Point::from_ints(7_000, 7_000));
            r
        }),
        Edit::Remove(1),
        Edit::Insert(1, {
            let mut r = Region::new();
            r.add_ring(rect(60, 60, 240, 240));
            r
        }),
        Edit::Remove(0),
        Edit::Remove(2),
    ];

    let mut traces = Vec::new();
    for threads in [1usize, 8] {
        set_global_threads(threads);
        let mut m = MaintainedInvariant::from_instance(&edit_instance(&empty_edit_regions()));
        let mut trace = Vec::new();
        for (step, edit) in script.iter().enumerate() {
            apply(&mut m, edit);
            let cold = assert_matches_cold(&m, &format!("threads {threads}, step {step}"));
            trace.push((format!("{:?}", cold.canonical_code()), cold.code_hash().as_u64()));
        }
        traces.push(trace);
    }
    assert_eq!(traces[0], traces[1], "the edit trace must not depend on the pool size");
}

/// Store answers track incremental updates: one instance is edited through
/// `MaintainedInvariant`, pushed with `update_instance` after every step,
/// and the store's answers (and those of a store recovered from the WAL)
/// equal the cold-rebuild oracle at each step.
#[test]
fn store_answers_track_incremental_updates() {
    let backend = topo_core::MemoryBackend::new();
    let store = InvariantStore::open(Default::default(), backend.clone()).expect("open");
    let mut m = MaintainedInvariant::from_instance(&figure1());
    let id = store.ingest_invariant(m.invariant().clone());

    let schema_len = m.schema().len();
    let mut script: Vec<Edit> = Vec::new();
    let originals: Vec<Region> = (0..schema_len).map(|r| m.region(r).clone()).collect();
    for (r, region) in originals.iter().enumerate() {
        script.push(Edit::Remove(r));
        script.push(Edit::Insert(r, region.clone()));
    }
    script.push(Edit::Insert(0, {
        let mut r = Region::new();
        r.add_ring(rect(-900, -900, -500, -500));
        r
    }));

    for (step, edit) in script.iter().enumerate() {
        apply(&mut m, edit);
        let cold = assert_matches_cold(&m, &format!("store step {step}"));
        let outcome = store.update_instance(id, m.invariant().clone());
        assert!(outcome.is_some(), "step {step}: the instance must stay live");
        for query in common::equivalence_query_mix() {
            assert_eq!(
                store.query(id, &query),
                Some(evaluate_on_invariant(&query, &cold)),
                "step {step}: store answer diverged on {query:?}"
            );
        }
    }

    // The whole edit history recovers from the WAL into the final state.
    let final_answers: Vec<Option<bool>> =
        common::equivalence_query_mix().iter().map(|q| store.query(id, q)).collect();
    drop(store);
    let recovered = InvariantStore::open(Default::default(), backend).expect("recover");
    for (query, expected) in common::equivalence_query_mix().iter().zip(final_answers) {
        assert_eq!(recovered.query(id, query), expected, "recovered answer on {query:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random edit sequences from the shared strategies: insertions,
    /// removals and re-insertions across three islands (plus bridges), with
    /// the maintained invariant checked against the cold rebuild — and the
    /// frozen oracle while small — after every single step.
    #[test]
    fn random_edit_sequences_match_cold_rebuild(edits in edit_sequence(1, 10)) {
        let mut m = MaintainedInvariant::from_instance(&edit_instance(&empty_edit_regions()));
        let mut mirror = empty_edit_regions();
        for (step, edit) in edits.iter().enumerate() {
            apply(&mut m, edit);
            edit.apply_to(&mut mirror);
            let cold = assert_matches_cold(&m, &format!("random step {step}"));
            // The mirror instance (independent bookkeeping) builds the very
            // same invariant — `instance()` hides no state.
            let from_mirror = top(&edit_instance(&mirror));
            prop_assert_eq!(
                cold.canonical_code(),
                from_mirror.canonical_code(),
                "step {}: maintained snapshot diverged from the mirror", step
            );
        }
    }
}
