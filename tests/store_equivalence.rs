//! The `InvariantStore` must be observationally equivalent to running the
//! one-shot pipeline per instance: every query answer bit-identical to
//! `evaluate_on_invariant` and `evaluate_on_classes`, and its class
//! partition equal to `isomorphism_classes` — on seeded workloads at
//! multiple datagen scales, including deliberately transformed duplicate
//! instances that must land in one class. The partition is additionally
//! cross-checked against the frozen `naive-reference` codes
//! (`canonical_code_naive`), the same oracle discipline as PRs 2–5.

use std::sync::Arc;
use topo_core::spatial::transform::AffineMap;
use topo_core::{
    canonical_code_naive, evaluate_on_classes, evaluate_on_invariant, isomorphism_classes, top,
    InvariantStore, MemoryBackend, StoreConfig, TopologicalInvariant, TopologicalQuery,
};
use topo_datagen::figure1;

mod common;
use common::{
    equivalence_query_mix as query_mix, mixed_invariant_workload as workload, try_ingest_one,
};

/// Ingests every invariant (single-threaded, so ids follow slice order) and
/// checks the full observable state against the oracles. The frozen
/// reference canonicalisation is super-quadratic, so `check_naive` is only
/// set at the small scale; the larger scales rely on the fast-path oracles,
/// which `tests/canonical_equivalence.rs` proves equivalent to the frozen
/// codes in their own right.
fn assert_store_matches_oracles(
    invariants: &[Arc<TopologicalInvariant>],
    label: &str,
    check_naive: bool,
) {
    let store = InvariantStore::default();
    for invariant in invariants {
        store.ingest_invariant(invariant.clone());
    }
    assert_eq!(store.instance_count(), invariants.len(), "{label}: lost ingest");

    // Class partition: identical to `isomorphism_classes`, called both on
    // the Arc slice (the new zero-copy shape) and on the legacy `&[&T]`
    // shape, which must agree with each other.
    let classes = store.classes();
    assert_eq!(classes, isomorphism_classes(invariants), "{label}: partition diverged");
    let refs: Vec<&TopologicalInvariant> = invariants.iter().map(|i| i.as_ref()).collect();
    assert_eq!(classes, isomorphism_classes(&refs), "{label}: Arc/ref shapes disagree");

    // The frozen reference codes induce the same partition.
    if check_naive {
        let naive: Vec<String> = invariants.iter().map(|i| canonical_code_naive(i)).collect();
        for i in 0..invariants.len() {
            for j in 0..invariants.len() {
                let same_class = classes.iter().any(|c| c.contains(&i) && c.contains(&j));
                assert_eq!(
                    same_class,
                    naive[i] == naive[j],
                    "{label}: store partition diverged from the reference codes at {i} / {j}"
                );
            }
        }
    }

    // Dedup accounting: every instance beyond one per class was a hit.
    let stats = store.stats();
    assert_eq!(stats.instances, invariants.len());
    assert_eq!(stats.classes, classes.len());
    assert_eq!(stats.dedup_hits as usize, invariants.len() - classes.len());
    assert_eq!(stats.hash_collisions, 0, "{label}: unexpected 64-bit digest collision");

    // Answers: per-instance store queries, the bulk `query_all`, the class
    // oracle and the per-instance oracle all bit-identical.
    for query in query_mix() {
        let expected: Vec<bool> =
            invariants.iter().map(|i| evaluate_on_invariant(&query, i)).collect();
        assert_eq!(
            evaluate_on_classes(&query, invariants),
            expected,
            "{label}: evaluate_on_classes diverged on {query:?}"
        );
        assert_eq!(store.query_all(&query), expected, "{label}: query_all diverged on {query:?}");
        for (i, &answer) in expected.iter().enumerate() {
            assert_eq!(store.query(i, &query), Some(answer), "{label}: instance {i} on {query:?}");
        }
        // Class-level queries agree with every member's answer.
        for (c, class) in classes.iter().enumerate() {
            for &member in class {
                assert_eq!(store.query_class(c, &query), Some(expected[member]));
            }
        }
    }
}

#[test]
fn store_matches_oracles_at_small_scale() {
    assert_store_matches_oracles(&workload(3), "grid 3", true);
}

#[test]
fn store_matches_oracles_at_medium_scale() {
    assert_store_matches_oracles(&workload(5), "grid 5", false);
}

#[test]
fn transformed_duplicates_land_in_one_class() {
    let base = figure1();
    let copies = [
        AffineMap::translation(313, -77).apply_instance(&base),
        AffineMap::rotation90().apply_instance(&base),
        AffineMap::reflection_x().apply_instance(&base),
    ];
    let store = InvariantStore::default();
    let first = try_ingest_one(&store, &base).id().unwrap();
    for copy in &copies {
        try_ingest_one(&store, copy);
    }
    assert_eq!(store.class_count(), 1, "homeomorphic images must share the class");
    assert_eq!(store.classes(), vec![vec![0, 1, 2, 3]]);

    // One evaluation serves the whole class: the first member misses, every
    // other member is a memo hit with the identical answer.
    let query = TopologicalQuery::HasHole(0);
    let expected = evaluate_on_invariant(&query, &top(&base));
    for id in 0..4 {
        assert_eq!(store.query(id, &query), Some(expected));
    }
    let stats = store.stats();
    assert_eq!(stats.memo_misses, 1);
    assert_eq!(stats.memo_hits, 3);
    assert_eq!(store.class_of(first), Some(0));
}

/// The durability layer must be invisible to the equivalence contract: a
/// store rebuilt from its snapshot + WAL (here one checkpoint mid-ingest,
/// so recovery exercises both the snapshot load and the replay path)
/// answers the whole oracle suite bit-identically to the live store.
#[test]
fn recovered_store_matches_oracles() {
    let invariants = workload(3);
    let backend = MemoryBackend::new();
    let store = InvariantStore::open(StoreConfig::default(), backend.clone()).expect("open");
    let half = invariants.len() / 2;
    for invariant in &invariants[..half] {
        store.ingest_invariant(invariant.clone());
    }
    store.checkpoint().expect("checkpoint");
    for invariant in &invariants[half..] {
        store.ingest_invariant(invariant.clone());
    }
    let partition = store.classes();
    drop(store);

    let recovered = InvariantStore::open(StoreConfig::default(), backend).expect("recover");
    assert_eq!(recovered.classes(), partition, "recovery changed the class partition");
    assert_eq!(recovered.classes(), isomorphism_classes(&invariants));
    let stats = recovered.stats();
    assert_eq!(stats.instances, invariants.len(), "recovery lost instances");
    assert_eq!(
        stats.replayed_records as usize,
        invariants.len() - half,
        "exactly the post-checkpoint ingests replay from the WAL"
    );
    for query in query_mix() {
        let expected: Vec<bool> =
            invariants.iter().map(|i| evaluate_on_invariant(&query, i)).collect();
        assert_eq!(recovered.query_all(&query), expected, "recovered query_all on {query:?}");
        for (i, &answer) in expected.iter().enumerate() {
            assert_eq!(recovered.query(i, &query), Some(answer), "instance {i} on {query:?}");
        }
    }
}

#[test]
fn store_never_deep_copies_an_invariant() {
    // Pointer-equality pin for the Arc-friendly path: the representative the
    // store hands back IS the ingested allocation, and a deduplicated
    // ingest drops its Arc instead of cloning the invariant.
    let disk = Arc::new(top(&topo_core::SpatialInstance::from_regions([(
        "a",
        topo_core::Region::rectangle(0, 0, 10, 10),
    )])));
    let twin = Arc::new(top(&AffineMap::translation(900, 0).apply_instance(
        &topo_core::SpatialInstance::from_regions([(
            "a",
            topo_core::Region::rectangle(0, 0, 10, 10),
        )]),
    )));
    let store = InvariantStore::default();
    let a = store.ingest_invariant(disk.clone());
    assert_eq!(Arc::strong_count(&disk), 2, "exactly the store's copy, no hidden clones");
    let b = store.ingest_invariant(twin.clone());
    assert_eq!(Arc::strong_count(&twin), 1, "a dedup hit must drop the duplicate Arc");
    let rep = store.class_representative(store.class_of(a).unwrap()).unwrap();
    assert!(Arc::ptr_eq(&rep, &disk), "the class representative is the ingested allocation");
    assert_eq!(store.class_of(a), store.class_of(b));
    drop(rep);

    // The genericised slice oracles accept the Arc slice directly — no
    // `Vec<&T>` rebuild, no clone: the strong counts are untouched.
    let arcs = vec![disk.clone(), twin.clone()];
    let classes = isomorphism_classes(&arcs);
    let answers = evaluate_on_classes(&TopologicalQuery::IsConnected(0), &arcs);
    assert_eq!(classes, vec![vec![0, 1]]);
    assert_eq!(answers, vec![true, true]);
    assert_eq!(Arc::strong_count(&disk), 3, "store + local + `arcs` entry, nothing more");
    assert_eq!(Arc::strong_count(&twin), 2, "local + `arcs` entry, nothing more");
}
