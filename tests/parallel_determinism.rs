//! `top(I)` must be **bit-identical** whatever the pool size — same cell
//! counts, same canonical code, same `CodeHash` at 1 (the
//! guaranteed-sequential fallback), small, large, and oversubscribed — and
//! the store's two fan-outs must match their sequential loops: batched
//! ingest (per instance) down to the WAL bytes, and WAL replay (decoded per
//! record across the pool, applied in log order) down to the tables, the
//! counters and the snapshot a checkpoint then writes.
//!
//! The pool size is process-global (`topo_parallel::set_global_threads`), so
//! every test that sweeps it serialises on one lock; the sweep itself is the
//! point, not an artefact. The frozen `naive-reference` pipeline
//! (`top_naive`) anchors the whole family: parallel output equals sequential
//! output equals the pre-optimisation oracle.

use std::sync::Arc;
use topo_core::parallel::set_global_threads;
use topo_core::{
    top, top_naive, IngestOutcome, InvariantStore, MemoryBackend, SpatialInstance, StoreConfig,
};

mod common;
use common::{
    assert_replay_windows_decode_on_the_pool, batch_query_mix as query_mix, fingerprint, run_ops,
    seeded_workloads as workloads, try_ingest_one, windowed_script, Op, PoolGuard,
};

/// The thread counts every sweep runs: sequential fallback, a small pool, the
/// acceptance-criteria pool, and heavy oversubscription of any host.
const SWEEP: [usize; 4] = [1, 2, 8, 64];

#[test]
fn seeded_workloads_bit_identical_across_thread_counts() {
    let _guard = PoolGuard::take();
    for (label, instance) in workloads() {
        set_global_threads(1);
        let sequential = fingerprint(&instance);
        for threads in SWEEP {
            set_global_threads(threads);
            assert_eq!(
                fingerprint(&instance),
                sequential,
                "parallel build diverged from sequential on {label} at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_build_matches_frozen_naive_reference() {
    let _guard = PoolGuard::take();
    set_global_threads(8);
    for (label, instance) in workloads() {
        let parallel = top(&instance);
        let oracle = top_naive(&instance);
        assert_eq!(
            parallel.canonical_code(),
            oracle.canonical_code(),
            "parallel canonical code diverged from the naive reference on {label}"
        );
        assert_eq!(parallel.cell_count(), oracle.cell_count(), "cell count diverged on {label}");
    }
}

/// A batch with guaranteed duplicates, so the dedup path is exercised.
fn batch_instances() -> Vec<SpatialInstance> {
    let mut batch = workloads().into_iter().map(|(_, i)| i).collect::<Vec<_>>();
    let dupes = workloads().into_iter().map(|(_, i)| i).collect::<Vec<_>>();
    batch.extend(dupes);
    batch
}

#[test]
fn ingest_batch_equivalent_to_sequential_ingest_loop() {
    let _guard = PoolGuard::take();
    set_global_threads(8);
    let batch = batch_instances();

    let sequential = InvariantStore::default();
    let loop_outcomes: Vec<IngestOutcome> =
        batch.iter().map(|i| try_ingest_one(&sequential, i)).collect();
    let batched = InvariantStore::default();
    let batch_outcomes = batched.try_ingest_batch(&batch);

    assert_eq!(batch_outcomes, loop_outcomes, "outcomes diverged from the sequential loop");
    assert_eq!(batched.classes(), sequential.classes(), "class partitions diverged");
    assert_eq!(batched.instance_count(), sequential.instance_count());
    assert_eq!(batched.class_count(), sequential.class_count());
    for query in query_mix() {
        for id in 0..batch.len() {
            assert_eq!(
                batched.query(id, &query),
                sequential.query(id, &query),
                "answer diverged on instance {id} for {query:?}"
            );
        }
    }
}

#[test]
fn ingest_batch_respects_the_admission_bound_like_the_loop() {
    let _guard = PoolGuard::take();
    set_global_threads(8);
    let batch = batch_instances();
    let config = StoreConfig { max_classes: 3, ..StoreConfig::default() };

    let sequential = InvariantStore::new(config);
    let loop_outcomes: Vec<IngestOutcome> =
        batch.iter().map(|i| try_ingest_one(&sequential, i)).collect();
    let batched = InvariantStore::new(config);
    let batch_outcomes = batched.try_ingest_batch(&batch);

    assert!(loop_outcomes.iter().any(|o| o.is_rejected()), "bound too loose to test rejection");
    assert_eq!(batch_outcomes, loop_outcomes, "admission decisions diverged");
    assert_eq!(batched.classes(), sequential.classes());
    assert_eq!(batched.stats().rejected, sequential.stats().rejected);
}

#[test]
fn batched_wal_recovers_like_per_record_appends() {
    let _guard = PoolGuard::take();
    set_global_threads(8);
    let batch = batch_instances();

    let per_record = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), per_record.clone()).unwrap();
        for instance in &batch {
            try_ingest_one(&store, instance);
        }
    }
    let grouped = MemoryBackend::new();
    let grouped_outcomes = {
        let store = InvariantStore::open(StoreConfig::default(), grouped.clone()).unwrap();
        store.ingest_batch(&batch)
    };
    assert_eq!(grouped_outcomes, (0..batch.len()).collect::<Vec<_>>());
    assert_eq!(per_record.wal_bytes(), grouped.wal_bytes(), "WAL bytes diverged");

    let a = InvariantStore::open(StoreConfig::default(), per_record).unwrap();
    let b = InvariantStore::open(StoreConfig::default(), grouped).unwrap();
    assert_eq!(a.classes(), b.classes(), "recovered partitions diverged");
    assert_eq!(a.instance_count(), b.instance_count());
    for query in query_mix() {
        for id in 0..batch.len() {
            assert_eq!(a.query(id, &query), b.query(id, &query));
        }
    }
}

#[test]
fn invariant_batch_ingest_reuses_the_given_arcs() {
    let _guard = PoolGuard::take();
    set_global_threads(2);
    let invariants: Vec<Arc<_>> = workloads().iter().map(|(_, i)| Arc::new(top(i))).collect();
    let store = InvariantStore::default();
    let outcomes = store.try_ingest_invariant_batch(&invariants);
    assert_eq!(outcomes.len(), invariants.len());
    for (outcome, invariant) in outcomes.iter().zip(&invariants) {
        let id = outcome.id().expect("unbounded store admits everything");
        let class = store.class_of(id).unwrap();
        if matches!(outcome, IngestOutcome::Admitted(_)) {
            let rep = store.class_representative(class).unwrap();
            assert!(
                Arc::ptr_eq(&rep, invariant),
                "an admitted class must keep the caller's Arc, not a copy"
            );
        }
    }
}

/// Everything a recovered store is observed by: its class and instance
/// tables, each live class's hash, the replay counters, and the snapshot a
/// checkpoint writes.
type Recovered = (Vec<Vec<usize>>, Vec<Option<usize>>, Vec<u64>, [u64; 5], Vec<u8>);

/// Recovers a copy of `wal` at the current pool size and checkpoints it.
fn recover(wal: &[u8], ids: usize) -> Recovered {
    let backend = MemoryBackend::new();
    backend.set_wal_bytes(wal.to_vec());
    let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    let classes = store.classes();
    let slots = (0..ids).map(|id| store.class_of(id)).collect();
    let hashes = classes
        .iter()
        .map(|members| {
            let class = store.class_of(members[0]).unwrap();
            store.class_representative(class).unwrap().code_hash().as_u64()
        })
        .collect();
    let s = store.stats();
    let counters = [s.replayed_records, s.wal_truncations, s.gc_classes, s.updates, s.removals];
    store.checkpoint().unwrap();
    (classes, slots, hashes, counters, backend.snapshot_bytes().unwrap())
}

#[test]
fn wal_replay_identical_across_thread_counts() {
    let _guard = PoolGuard::take();
    let ops = windowed_script();
    let written = MemoryBackend::new();
    let writer = InvariantStore::open(StoreConfig::default(), written.clone()).unwrap();
    run_ops(&writer, &ops);
    let wal = written.wal_bytes();
    assert_replay_windows_decode_on_the_pool(&wal);
    let ids = ops.iter().filter(|op| matches!(op, Op::Ingest(_))).count() + 4; // past the end too
    writer.checkpoint().unwrap();
    let live_snapshot = written.snapshot_bytes().unwrap();

    set_global_threads(1);
    let sequential = recover(&wal, ids);
    assert_eq!(sequential.4, live_snapshot, "replay diverged from the store that wrote the log");
    assert_eq!(sequential.3[0] as usize, ops.len());
    for threads in SWEEP {
        set_global_threads(threads);
        assert_eq!(recover(&wal, ids), sequential, "replay diverged at {threads} threads");
    }
}
