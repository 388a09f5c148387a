//! Recovery equivalence under deterministic fault injection.
//!
//! The durability contract of `InvariantStore` is: whatever survives on the
//! durable medium after *any* injected failure — a failed write, a crash at
//! a named site, a torn tail record, a short read — recovers into a store
//! whose class partition and query answers are bit-identical to a
//! never-crashed oracle store that executed the surviving operation prefix.
//! Because WAL records are appended inside the store's write-lock critical
//! sections, the surviving log is always a prefix of operation history
//! (ingest ids dense in WAL order), which is what makes the oracle
//! construction — replay the first `k` operations on a fresh in-memory
//! store — sound, including under concurrent writers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use topo_core::parallel::set_global_threads;
use topo_core::store::persist::{crc32, FORMAT_VERSION};
use topo_core::{
    FaultKind, FaultPlan, FaultSite, FaultyBackend, FileBackend, IngestOutcome, InvariantStore,
    MemoryBackend, PersistError, StorageBackend, StoreConfig, TopologicalInvariant,
};

mod common;
use common::{
    assert_replay_windows_decode_on_the_pool, recovery_pool as pool,
    recovery_query_mix as query_mix, run_ops, windowed_script, Op, PoolGuard,
};

/// The scripted workload every fault scenario runs: ingests with duplicates
/// interleaved with removals (including one that garbage-collects a class)
/// and in-place updates covering all three update shapes — no-op,
/// class-collecting dedup, and class-admitting.
fn script(pool: &[Arc<TopologicalInvariant>]) -> Vec<Op> {
    vec![
        Op::Ingest(pool[0].clone()),    // id 0, class 0
        Op::Ingest(pool[1].clone()),    // id 1, class 1
        Op::Ingest(pool[4].clone()),    // id 2, dup of class 0
        Op::Ingest(pool[2].clone()),    // id 3, class 2
        Op::Remove(1),                  // collects class 1
        Op::Ingest(pool[5].clone()),    // id 4, dup of class 1's shape → new class
        Op::Ingest(pool[3].clone()),    // id 5, class
        Op::Remove(0),                  // class 0 survives through id 2
        Op::Ingest(pool[6].clone()),    // id 6, dup of class 2
        Op::Ingest(pool[7].clone()),    // id 7, dup of id 5's class
        Op::Update(2, pool[1].clone()), // id 2 joins id 4's class; collects its old class
        Op::Update(6, pool[2].clone()), // no-op: id 6 already sits in that class
        Op::Update(5, pool[0].clone()), // id 5 re-admits the collected shape as a new class
        Op::Remove(7),                  // collects id 7's class
    ]
}

/// A never-crashed in-memory oracle that executed the given op prefix.
fn oracle_for(ops: &[Op]) -> InvariantStore {
    let oracle = InvariantStore::default();
    run_ops(&oracle, ops);
    oracle
}

/// The heart of the suite: the recovered store must be observationally
/// identical to the oracle — bit-identical class partition, identical live
/// counts, and identical answers (including `None` for dead ids) for every
/// query in the mix over the whole id space.
fn assert_equivalent(recovered: &InvariantStore, oracle: &InvariantStore, label: &str) {
    assert_eq!(recovered.classes(), oracle.classes(), "{label}: class partition diverged");
    assert_eq!(recovered.instance_count(), oracle.instance_count(), "{label}: live instances");
    assert_eq!(recovered.class_count(), oracle.class_count(), "{label}: live classes");
    // Every id the oracle ever issued, removed ones included, and past the
    // end too.
    let ids = oracle.stats().instances + oracle.stats().removals as usize + 4;
    for query in query_mix() {
        assert_eq!(
            recovered.query_all(&query),
            oracle.query_all(&query),
            "{label}: query_all diverged on {query:?}"
        );
        for id in 0..ids {
            assert_eq!(
                recovered.query(id, &query),
                oracle.query(id, &query),
                "{label}: instance {id} on {query:?}"
            );
        }
    }
}

#[test]
fn clean_recovery_roundtrips_through_wal_and_snapshot() {
    let pool = pool();
    let ops = script(&pool);
    let backend = MemoryBackend::new();

    // Phase 1: WAL only.
    {
        let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
        run_ops(&store, &ops[..6]);
        assert_eq!(store.stats().wal_appends, 6);
    }
    let recovered = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    assert_eq!(recovered.stats().replayed_records, 6);
    assert_equivalent(&recovered, &oracle_for(&ops[..6]), "wal-only recovery");

    // Phase 2: checkpoint folds the WAL into a snapshot, then more ops land
    // in a fresh WAL; recovery composes snapshot + replay.
    recovered.checkpoint().unwrap();
    assert_eq!(backend.wal_bytes().len(), 0, "checkpoint must reset the WAL");
    run_ops(&recovered, &ops[6..]);
    let recovered2 = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    assert_eq!(recovered2.stats().replayed_records as usize, ops.len() - 6);
    assert_equivalent(&recovered2, &oracle_for(&ops), "snapshot+wal recovery");

    // Phase 3: a second checkpoint, then recovery from snapshot alone.
    recovered2.checkpoint().unwrap();
    let recovered3 = InvariantStore::open(StoreConfig::default(), backend).unwrap();
    assert_eq!(recovered3.stats().replayed_records, 0);
    assert_equivalent(&recovered3, &oracle_for(&ops), "snapshot-only recovery");
}

#[test]
fn crash_at_every_wal_append_recovers_the_exact_prefix() {
    let pool = pool();
    let ops = script(&pool);
    for kind in [FaultKind::Crash, FaultKind::TornWrite] {
        for n in 0..ops.len() {
            let durable = MemoryBackend::new();
            let faulty = FaultyBackend::new(
                durable.clone(),
                FaultPlan::once(FaultSite::WalAppend, n as u64, kind),
            );
            let store = InvariantStore::open(StoreConfig::default(), faulty.clone()).unwrap();
            // The store itself never fails the in-memory operation: it keeps
            // serving and counts the lost records.
            run_ops(&store, &ops);
            assert!(faulty.is_dead(), "the fault must have fired");
            assert_eq!(store.stats().wal_appends as usize, n);
            assert_eq!(store.stats().wal_errors as usize, ops.len() - n);
            drop(store);

            let recovered = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
            let label = format!("{kind:?} at append {n}");
            assert_eq!(recovered.stats().replayed_records as usize, n, "{label}");
            if kind == FaultKind::TornWrite && n > 0 {
                // The half-written record must have been detected and cut.
                assert_eq!(recovered.stats().wal_truncations, 1, "{label}");
            }
            assert_equivalent(&recovered, &oracle_for(&ops[..n]), &label);
        }
    }
}

/// The one-record atomicity contract of `update_instance`: crash (or tear)
/// the log exactly around each update record and recovery must serve the
/// complete pre-update state or the complete post-update state — never a
/// torn middle where the old class was detached but the new one not
/// attached, or a collected class half-vanished.
#[test]
fn update_wal_records_are_atomic_under_crash() {
    let pool = pool();
    let ops = script(&pool);
    let update_indices: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Update(..)))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(update_indices.len(), 3, "the script must exercise all three update shapes");
    for kind in [FaultKind::Crash, FaultKind::TornWrite] {
        for &n in &update_indices {
            // `boundary == n`: the fault eats the update record — recovery is
            // the old state. `boundary == n + 1`: the record landed whole —
            // recovery is the new state. Nothing in between exists.
            for boundary in [n, n + 1] {
                let durable = MemoryBackend::new();
                let faulty = FaultyBackend::new(
                    durable.clone(),
                    FaultPlan::once(FaultSite::WalAppend, boundary as u64, kind),
                );
                let store = InvariantStore::open(StoreConfig::default(), faulty).unwrap();
                run_ops(&store, &ops);
                drop(store);
                let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
                let label = format!("{kind:?} around update at op {n}, boundary {boundary}");
                assert_eq!(recovered.stats().replayed_records as usize, boundary, "{label}");
                assert_equivalent(&recovered, &oracle_for(&ops[..boundary]), &label);
            }
        }
    }

    // And with no fault at all, every update record replays — including the
    // no-op one — onto the very state the live store ended with.
    let durable = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
        run_ops(&store, &ops);
    }
    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    assert_eq!(recovered.stats().updates as usize, update_indices.len());
    assert_equivalent(&recovered, &oracle_for(&ops), "clean update replay");
}

/// Live semantics of `update_instance`: outcome per path, id stability, the
/// admission bound counting the slot the update frees, and rejection
/// leaving the store bit-identical.
#[test]
fn update_instance_live_semantics() {
    let pool = pool();
    let config = StoreConfig { max_classes: 2, ..StoreConfig::default() };
    let store = InvariantStore::new(config);
    assert_eq!(store.ingest_invariant(pool[0].clone()), 0);
    assert_eq!(store.ingest_invariant(pool[4].clone()), 1); // dup of class 0
    assert_eq!(store.ingest_invariant(pool[1].clone()), 2); // class 1

    // Unknown id: untouched, no outcome.
    assert_eq!(store.update_instance(9, pool[2].clone()), None);

    // A new shape while the old class keeps other members frees no slot:
    // the bound holds and the store is left exactly as it was.
    let before = store.classes();
    assert_eq!(store.update_instance(0, pool[2].clone()), Some(IngestOutcome::Rejected));
    assert_eq!(store.classes(), before, "a rejected update must not move anything");
    assert_eq!(store.stats().updates, 0);
    assert_eq!(store.stats().rejected, 1);

    // Dedup into another live class; the old class survives through id 1.
    assert_eq!(store.update_instance(0, pool[5].clone()), Some(IngestOutcome::Deduplicated(0)));
    assert_eq!(store.class_of(0), store.class_of(2), "id 0 must share id 2's class");
    assert_eq!(store.class_count(), 2);

    // Now id 1 is its class's last member: updating it to a new shape frees
    // that slot, so the same bound admits a fresh class and collects the old.
    let gc_before = store.stats().gc_classes;
    assert_eq!(store.update_instance(1, pool[2].clone()), Some(IngestOutcome::Admitted(1)));
    assert_eq!(store.class_count(), 2);
    assert_eq!(store.stats().gc_classes, gc_before + 1, "the emptied class must collect");

    // A no-op update (already in that class) is observable only in stats.
    let partition = store.classes();
    assert_eq!(store.update_instance(2, pool[1].clone()), Some(IngestOutcome::Deduplicated(2)));
    assert_eq!(store.classes(), partition);
    assert_eq!(store.stats().updates, 3);

    // A removed id is dead to updates.
    assert!(store.remove_instance(0));
    assert_eq!(store.update_instance(0, pool[1].clone()), None);

    // Final answers equal the per-invariant oracle for the survivors.
    for query in query_mix() {
        assert_eq!(
            store.query(1, &query),
            Some(topo_core::evaluate_on_invariant(&query, &pool[2]))
        );
        assert_eq!(
            store.query(2, &query),
            Some(topo_core::evaluate_on_invariant(&query, &pool[1]))
        );
    }
}

#[test]
fn wal_write_error_freezes_the_log_but_not_the_store() {
    let pool = pool();
    let ops = script(&pool);
    let n = 4;
    let durable = MemoryBackend::new();
    let faulty = FaultyBackend::new(
        durable.clone(),
        FaultPlan::once(FaultSite::WalAppend, n as u64, FaultKind::Error),
    );
    let store = InvariantStore::open(StoreConfig::default(), faulty.clone()).unwrap();
    run_ops(&store, &ops);
    assert!(!faulty.is_dead(), "a plain write error must not kill the backend");

    // Live answers are unaffected — the store degraded durability, not
    // service.
    assert_equivalent(&store, &oracle_for(&ops), "live store after wal error");
    let stats = store.stats();
    assert_eq!(stats.wal_appends as usize, n);
    assert_eq!(
        stats.wal_errors as usize,
        ops.len() - n,
        "the log freezes after the first lost record: a gap would poison replay"
    );

    // What is durable is the exact prefix before the failed append.
    let recovered = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
    assert_equivalent(&recovered, &oracle_for(&ops[..n]), "recovery after wal error");

    // A successful checkpoint re-arms the log and captures everything.
    store.checkpoint().unwrap();
    let caught_up = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    assert_equivalent(&caught_up, &oracle_for(&ops), "recovery after re-arming checkpoint");
}

#[test]
fn crash_between_snapshot_and_wal_reset_never_double_applies() {
    let pool = pool();
    let ops = script(&pool);
    let durable = MemoryBackend::new();
    let faulty = FaultyBackend::new(
        durable.clone(),
        FaultPlan::once(FaultSite::WalReset, 0, FaultKind::Crash),
    );
    let store = InvariantStore::open(StoreConfig::default(), faulty).unwrap();
    run_ops(&store, &ops);
    // The snapshot lands, then the crash hits before the WAL reset: the
    // medium now holds the snapshot AND every pre-checkpoint record.
    assert!(matches!(store.checkpoint(), Err(PersistError::Io(_))));
    assert!(durable.snapshot_bytes().is_some());
    assert!(!durable.wal_bytes().is_empty());
    drop(store);

    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    // Every WAL record predates the snapshot's seq, so replay skips all of
    // them — the removal ops in the script would corrupt the state if they
    // were applied twice.
    assert_eq!(recovered.stats().replayed_records, 0, "stale records must be skipped");
    assert_equivalent(&recovered, &oracle_for(&ops), "snapshot + stale wal");
}

#[test]
fn crash_during_snapshot_write_leaves_the_old_state_recoverable() {
    let pool = pool();
    let ops = script(&pool);
    let durable = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
        run_ops(&store, &ops[..6]);
        store.checkpoint().unwrap();
        run_ops(&store, &ops[6..]);
        // A torn snapshot write: half the new snapshot bytes replace the old
        // snapshot on a backend with no atomic-replace guarantee. The WAL is
        // NOT reset (checkpoint failed before that).
        let faulty = FaultyBackend::new(
            durable.clone(),
            FaultPlan::once(FaultSite::SnapshotWrite, 0, FaultKind::TornWrite),
        );
        let reopened = InvariantStore::open(StoreConfig::default(), faulty).unwrap();
        assert!(matches!(reopened.checkpoint(), Err(PersistError::Io(_))));
    }
    // The torn snapshot is detected by its checksum; there is no older
    // snapshot to fall back to on this backend, so recovery reports
    // corruption loudly instead of serving wrong answers.
    let result = InvariantStore::open(StoreConfig::default(), durable);
    assert!(
        matches!(result, Err(PersistError::Corrupt(_))),
        "a torn snapshot must be a hard, explicit error"
    );
}

#[test]
fn short_reads_recover_a_consistent_prefix() {
    let pool = pool();
    let ops = script(&pool);
    let durable = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
        run_ops(&store, &ops);
    }
    let full = durable.wal_bytes().len();
    // Cut the WAL view at several arbitrary byte boundaries; every cut must
    // recover some exact op prefix (replayed_records tells us which).
    for limit in [0, 7, full / 3, full / 2, full - 5, full] {
        let faulty = FaultyBackend::new(
            durable.clone(),
            FaultPlan { faults: Vec::new(), short_read_wal: Some(limit) },
        );
        let recovered = InvariantStore::open(StoreConfig::default(), faulty).unwrap();
        let k = recovered.stats().replayed_records as usize;
        assert!(k <= ops.len());
        if limit < full {
            assert!(k < ops.len(), "a shortened WAL cannot contain every record");
        }
        assert_equivalent(&recovered, &oracle_for(&ops[..k]), &format!("short read at {limit}"));
    }
}

#[test]
fn hand_corrupted_wal_tails_are_truncated_not_trusted() {
    let pool = pool();
    let ops = script(&pool);
    let durable = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
        run_ops(&store, &ops);
    }
    let pristine = durable.wal_bytes();

    // Flip one bit near the end of the log: the checksum of the record
    // containing it must fail, and replay must stop there.
    let mut flipped = pristine.clone();
    let idx = flipped.len() - 10;
    flipped[idx] ^= 0x10;
    durable.set_wal_bytes(flipped);
    let recovered = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
    let k = recovered.stats().replayed_records as usize;
    assert!(k < ops.len(), "the corrupt record must not replay");
    assert_eq!(recovered.stats().wal_truncations, 1);
    assert_equivalent(&recovered, &oracle_for(&ops[..k]), "bit flip near tail");

    // Garbage appended after valid records is likewise cut at the boundary.
    let mut trailing = pristine.clone();
    trailing.extend_from_slice(&[0xAB; 11]);
    durable.set_wal_bytes(trailing);
    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    assert_eq!(recovered.stats().replayed_records as usize, ops.len());
    assert_eq!(recovered.stats().wal_truncations, 1);
    assert_equivalent(&recovered, &oracle_for(&ops), "trailing garbage");
}

#[test]
fn corrupt_snapshots_fail_loudly() {
    let pool = pool();
    let durable = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
        store.ingest_invariant(pool[0].clone());
        store.checkpoint().unwrap();
    }
    let pristine = durable.snapshot_bytes().unwrap();

    // Bad magic.
    let mut bad = pristine.clone();
    bad[0] = b'X';
    durable.set_snapshot_bytes(Some(bad));
    assert!(matches!(
        InvariantStore::open(StoreConfig::default(), durable.clone()),
        Err(PersistError::Corrupt(_))
    ));

    // Unsupported version.
    let mut bad = pristine.clone();
    bad[4] = 0xFF;
    durable.set_snapshot_bytes(Some(bad));
    assert!(matches!(
        InvariantStore::open(StoreConfig::default(), durable.clone()),
        Err(PersistError::UnsupportedVersion { found: 0xFF, expected: FORMAT_VERSION })
    ));

    // A flipped payload bit fails the body checksum.
    let mut bad = pristine.clone();
    let mid = pristine.len() / 2;
    bad[mid] ^= 0x01;
    durable.set_snapshot_bytes(Some(bad));
    assert!(matches!(
        InvariantStore::open(StoreConfig::default(), durable.clone()),
        Err(PersistError::Corrupt(_))
    ));

    // Bytes that pass the checksum but describe no store: the body is
    // mutated, then re-framed with a fresh CRC. The body of one class and
    // one instance is `seq, class_slots, instance_slots, 1, class entry, 1,
    // (0, 0)`, so the class entry is everything between the fixed 32-byte
    // head and the fixed 24-byte instance list.
    let body = frame_payloads(&pristine[8..]).remove(0);
    let (head, class_entry, tail) =
        (&body[..32], &body[32..body.len() - 24], &body[body.len() - 24..]);
    let class_twice = [&head[..24], &2u64.to_le_bytes(), class_entry, class_entry, tail].concat();
    let instance_twice =
        [&body[..body.len() - 24], &2u64.to_le_bytes(), &[0u8; 16], &[0u8; 16]].concat();
    let mut class_slots_max = body.clone();
    class_slots_max[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut instance_slots_max = body.clone();
    instance_slots_max[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut accepted = Vec::new();
    for (label, mutated) in [
        ("class listed twice", class_twice),
        ("instance listed twice", instance_twice),
        ("class slot count u64::MAX", class_slots_max),
        ("instance slot count u64::MAX", instance_slots_max),
    ] {
        durable.set_snapshot_bytes(Some([&pristine[..8], &framed(&mutated)].concat()));
        if let Err(outcome) = open_expecting_corrupt(&durable) {
            accepted.push(format!("{label}: {outcome}"));
        }
    }
    assert!(accepted.is_empty(), "checksum-valid hostile snapshots not refused: {accepted:?}");

    // The pristine bytes still recover (the corruption checks above did not
    // mutate shared state).
    durable.set_snapshot_bytes(Some(pristine));
    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    assert_eq!(recovered.instance_count(), 1);
}

/// Frames a payload as the persist format does: length, payload, CRC-32.
fn framed(payload: &[u8]) -> Vec<u8> {
    [&(payload.len() as u32).to_le_bytes()[..], payload, &crc32(payload).to_le_bytes()].concat()
}

/// The payloads of a stream of well-formed frames.
fn frame_payloads(mut stream: &[u8]) -> Vec<Vec<u8>> {
    let mut payloads = Vec::new();
    while !stream.is_empty() {
        let len = u32::from_le_bytes(stream[..4].try_into().unwrap()) as usize;
        payloads.push(stream[4..4 + len].to_vec());
        stream = &stream[len + 8..];
    }
    payloads
}

/// Opens a store over `durable`: the reason if that is refused as
/// `PersistError::Corrupt`, else what happened instead (an open store,
/// another error or a panic).
fn open_expecting_corrupt(durable: &Arc<MemoryBackend>) -> Result<String, String> {
    let opened = catch_unwind(AssertUnwindSafe(|| {
        InvariantStore::open(StoreConfig::default(), durable.clone())
    }));
    match opened {
        Ok(Err(PersistError::Corrupt(why))) => Ok(why),
        Ok(Err(other)) => Err(format!("failed with {other}")),
        Ok(Ok(store)) => {
            Err(format!("opened with {} classes over {:?}", store.class_count(), store.classes()))
        }
        Err(_) => Err("panicked".into()),
    }
}

/// WAL records that pass their checksum but break the rules every live
/// operation obeys are refused as corrupt, not replayed or panicked on.
#[test]
fn checksummed_hostile_wal_records_are_corrupt() {
    let pool = pool();
    let durable = MemoryBackend::new();
    {
        let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
        run_ops(&store, &[Op::Ingest(pool[0].clone()), Op::Ingest(pool[1].clone()), Op::Remove(0)]);
    }
    // Instance 1 sits alone in class 1; class 0 was collected; the next
    // ids are instance 2 and class 2, and the next seq is 3.
    let valid = durable.wal_bytes();
    let records = frame_payloads(&valid);
    assert_eq!(records.len(), 3);

    // An ingest or update payload is `tag, seq, id, class, code_hash,
    // new_class, [invariant]` (offsets 0, 1, 9, 17, 25, 33, 34); format 2
    // tags are 0x21 (ingest), 0x22 (remove) and 0x23 (update).
    let class_record = |from: &[u8], tag: u8, id: u64, class: u64, opens: bool| {
        let mut record = if opens { from.to_vec() } else { from[..34].to_vec() };
        record[0] = tag;
        record[1..9].copy_from_slice(&3u64.to_le_bytes());
        record[9..17].copy_from_slice(&id.to_le_bytes());
        record[17..25].copy_from_slice(&class.to_le_bytes());
        record[33] = opens as u8;
        record
    };
    let (ingest, update) = (0x21, 0x23);
    let mut accepted = Vec::new();
    for (label, hostile) in [
        ("ingest re-opens live class 1", class_record(&records[1], ingest, 2, 1, true)),
        ("ingest re-opens collected class 0", class_record(&records[0], ingest, 2, 0, true)),
        ("ingest opens class 5 past the next id 2", class_record(&records[1], ingest, 2, 5, true)),
        ("ingest takes id 7, not the next id 2", class_record(&records[1], ingest, 7, 1, false)),
        ("update opens instance 1's current class", class_record(&records[1], update, 1, 1, true)),
        (
            "remove with seq u64::MAX",
            [&[0x22][..], &u64::MAX.to_le_bytes(), &1u64.to_le_bytes()].concat(),
        ),
        (
            "remove with a trailing byte",
            [&[0x22][..], &3u64.to_le_bytes(), &1u64.to_le_bytes(), &[0]].concat(),
        ),
    ] {
        durable.set_wal_bytes([&valid[..], &framed(&hostile)].concat());
        if let Err(outcome) = open_expecting_corrupt(&durable) {
            accepted.push(format!("{label}: {outcome}"));
        }
    }
    assert!(accepted.is_empty(), "checksum-valid hostile WAL records not refused: {accepted:?}");

    durable.set_wal_bytes(valid);
    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    assert_eq!(recovered.stats().replayed_records, 3);
    assert_eq!(recovered.classes(), vec![vec![1]]);
}

/// Checksum-valid ingest records whose invariant body is hostile are
/// refused as corrupt, never opened or panicked on: the body cut at every
/// byte, overlong varints, an index past `u32`, a count past the bytes
/// left, and a region bit beyond the schema.
#[test]
fn checksummed_hostile_invariant_bodies_are_corrupt() {
    let pool = pool();
    let durable = MemoryBackend::new();
    let store = InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap();
    run_ops(&store, &[Op::Ingest(pool[0].clone())]);
    drop(store);
    let record = frame_payloads(&durable.wal_bytes()).remove(0);
    // The record opens its class, so the invariant body starts at offset
    // 34: `regions, (name_len, name)*, vertices, ...` up to `..., the last
    // face's region words, exterior_face`, every count and index a varint.
    const BODY: usize = 34;
    assert_eq!(record[33], 1, "the ingest opens a class");
    let regions = usize::from(record[BODY]);
    assert!(regions < 7, "the schema size and every region word take one byte");
    let mut vertex_count = BODY + 1;
    for _ in 0..regions {
        assert!(record[vertex_count] < 0x80, "a one-byte name length");
        vertex_count += 1 + usize::from(record[vertex_count]);
    }
    let vertex_count_len = record[vertex_count..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
    let (face_word, exterior) = (record.len() - 2, record.len() - 1);
    assert!(record[face_word] < 0x80, "a one-byte exterior face index");
    let splice =
        |at: usize, len: usize, with: &[u8]| [&record[..at], with, &record[at + len..]].concat();
    let mut hostile: Vec<(String, Vec<u8>, &str)> = (BODY..record.len())
        .map(|cut| (format!("body cut at byte {cut}"), record[..cut].to_vec(), ""))
        .collect();
    let zero_padded = [record[BODY] | 0x80, 0x00];
    let past_u64 = [&[record[BODY] | 0x80][..], &[0x80; 9], &[0x01]].concat();
    let mut bit_beyond = record.clone();
    bit_beyond[face_word] |= 1 << regions;
    hostile.extend([
        ("schema size padded with a zero byte".into(), splice(BODY, 1, &zero_padded), "varint"),
        ("schema size varint of eleven bytes".into(), splice(BODY, 1, &past_u64), "varint"),
        (
            "exterior face 2^32".into(),
            splice(exterior, 1, &[0x80, 0x80, 0x80, 0x80, 0x10]),
            "exceeds u32",
        ),
        (
            "vertex count u32::MAX".into(),
            splice(vertex_count, vertex_count_len, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            "bytes left",
        ),
        ("region bit beyond the schema".into(), bit_beyond, "region bit beyond"),
    ]);
    let mut accepted = Vec::new();
    for (label, payload, expected) in hostile {
        durable.set_wal_bytes(framed(&payload));
        match open_expecting_corrupt(&durable) {
            Ok(why) if why.contains(expected) => {}
            Ok(why) => accepted.push(format!("{label}: refused for another reason: {why}")),
            Err(outcome) => accepted.push(format!("{label}: {outcome}")),
        }
    }
    assert!(accepted.is_empty(), "checksum-valid hostile invariant bodies: {accepted:?}");

    durable.set_wal_bytes(framed(&record));
    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    assert_eq!(recovered.stats().replayed_records, 1);
}

/// The frames of [`windowed_script`]'s WAL, one per operation, written to
/// a fresh backend. The log replays in windows that decode across the pool:
/// at pool 8 a window is 128 frames, at pool 2 it is 32.
fn windowed_wal(ops: &[Op]) -> (Arc<MemoryBackend>, Vec<Vec<u8>>) {
    let durable = MemoryBackend::new();
    run_ops(&InvariantStore::open(StoreConfig::default(), durable.clone()).unwrap(), ops);
    let wal = durable.wal_bytes();
    assert_replay_windows_decode_on_the_pool(&wal);
    let frames: Vec<Vec<u8>> = frame_payloads(&wal).iter().map(|p| framed(p)).collect();
    assert_eq!(frames.len(), ops.len());
    (durable, frames)
}

/// A frame's record with one byte appended, re-checksummed: it passes
/// the CRC but does not decode.
fn with_trailing_byte(frame: &[u8]) -> Vec<u8> {
    framed(&[&frame[4..frame.len() - 4], &[0]].concat())
}

/// The pool sizes whose replays must agree: the sequential loop, and
/// windows decoded across eight workers.
const REPLAY_POOLS: [usize; 2] = [1, 8];

/// Opens a store over `durable` at each of [`REPLAY_POOLS`].
fn open_at_each_pool(
    durable: &Arc<MemoryBackend>,
) -> Vec<(usize, Result<InvariantStore, PersistError>)> {
    REPLAY_POOLS
        .iter()
        .map(|&threads| {
            set_global_threads(threads);
            (threads, InvariantStore::open(StoreConfig::default(), durable.clone()))
        })
        .collect()
}

/// A frame whose checksum fails, at the first, a middle and the last frame
/// of a window: replay keeps every earlier record, ignores every later one,
/// and counts one truncation, whatever the pool size.
#[test]
fn torn_frame_inside_a_replay_window_truncates_at_every_pool_size() {
    let _guard = PoolGuard::take();
    let ops = windowed_script();
    let (durable, frames) = windowed_wal(&ops);
    for torn in [128, 200, 255] {
        let mut bytes = frames.clone();
        bytes[torn][5] ^= 0x10; // a seq byte: the length field stays intact
        durable.set_wal_bytes(bytes.concat());
        let oracle = oracle_for(&ops[..torn]);
        for (threads, recovered) in open_at_each_pool(&durable) {
            let recovered = recovered.unwrap();
            let label = format!("frame {torn} torn, pool {threads}");
            assert_eq!(recovered.stats().replayed_records as usize, torn, "{label}");
            assert_eq!(recovered.stats().wal_truncations, 1, "{label}");
            assert_equivalent(&recovered, &oracle, &label);
        }
    }
}

/// Checksum-valid records that do not decode or apply, followed by valid
/// records in the same window: replay fails with the first error in log
/// order, and the same error at every pool size.
#[test]
fn corrupt_record_inside_a_replay_window_is_the_same_error_at_every_pool_size() {
    let _guard = PoolGuard::take();
    let ops = windowed_script();
    let (durable, frames) = windowed_wal(&ops);
    // Instance 0 was removed in the first round; a trailing byte does not
    // decode.
    let remove_removed =
        framed(&[&[0x22][..], &200u64.to_le_bytes(), &0u64.to_le_bytes()].concat());
    let trailing_byte = with_trailing_byte(&frames[210]);
    for (label, hostile, expected) in [
        ("undecodable record", vec![(210, &trailing_byte)], "trailing bytes inside wal record"),
        (
            "inapplicable record before an undecodable one",
            vec![(200, &remove_removed), (210, &trailing_byte)],
            "wal removes unknown or removed instance 0",
        ),
    ] {
        let mut bytes = frames.clone();
        for (at, record) in hostile {
            bytes[at] = record.clone();
        }
        durable.set_wal_bytes(bytes.concat());
        for (threads, opened) in open_at_each_pool(&durable) {
            match opened {
                Err(PersistError::Corrupt(why)) => {
                    assert!(why.contains(expected), "{label}, pool {threads}: {why}");
                }
                Err(other) => panic!("{label}, pool {threads}: failed with {other}"),
                Ok(_) => panic!("{label}, pool {threads}: opened"),
            }
        }
    }
}

/// A checksum-valid corrupt record after a torn frame of the same window
/// is never looked at: replay stops at the torn frame.
#[test]
fn corrupt_record_after_a_torn_frame_is_never_applied() {
    let _guard = PoolGuard::take();
    let ops = windowed_script();
    let (durable, mut frames) = windowed_wal(&ops);
    frames[200][5] ^= 0x10;
    frames[210] = with_trailing_byte(&frames[210]);
    durable.set_wal_bytes(frames.concat());
    let oracle = oracle_for(&ops[..200]);
    for (threads, recovered) in open_at_each_pool(&durable) {
        let recovered = recovered.unwrap();
        let label = format!("corrupt record after a torn one, pool {threads}");
        assert_eq!(recovered.stats().replayed_records, 200, "{label}");
        assert_eq!(recovered.stats().wal_truncations, 1, "{label}");
        assert_equivalent(&recovered, &oracle, &label);
    }
}

#[test]
fn concurrent_writers_crash_recovery_is_an_id_prefix() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 6;
    let pool = pool();
    let crash_at = 9; // mid-flight: some writers' ops land, some don't
    let durable = MemoryBackend::new();
    let faulty = FaultyBackend::new(
        durable.clone(),
        FaultPlan::once(FaultSite::WalAppend, crash_at, FaultKind::Crash),
    );
    let store = InvariantStore::open(StoreConfig::default(), faulty).unwrap();

    // Writers ingest concurrently, each recording the id it was assigned for
    // every invariant; readers hammer queries meanwhile to exercise the
    // locks. The union of the id logs reconstructs ingest order.
    let mut id_log: Vec<(usize, Arc<TopologicalInvariant>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let pool = &pool;
            let store = &store;
            handles.push(scope.spawn(move || {
                let mut log = Vec::new();
                for i in 0..PER_WRITER {
                    let invariant = pool[(w * 3 + i * 5) % pool.len()].clone();
                    let id = store.ingest_invariant(invariant.clone());
                    log.push((id, invariant));
                }
                log
            }));
        }
        let store = &store;
        let reader = scope.spawn(move || {
            let mix = query_mix();
            for i in 0..200 {
                let _ = store.query(i % (WRITERS * PER_WRITER), &mix[i % mix.len()]);
            }
        });
        for handle in handles {
            id_log.extend(handle.join().expect("writer panicked"));
        }
        reader.join().expect("reader panicked");
    });
    assert_eq!(store.instance_count(), WRITERS * PER_WRITER);
    drop(store);

    // Because appends happen inside the ingest critical section, the durable
    // WAL is the first `crash_at` ingests in id order. The oracle replays
    // exactly those on a fresh store.
    id_log.sort_by_key(|(id, _)| *id);
    assert!(id_log.iter().map(|(id, _)| *id).eq(0..WRITERS * PER_WRITER), "ids must be dense");
    let recovered = InvariantStore::open(StoreConfig::default(), durable).unwrap();
    let k = recovered.stats().replayed_records as usize;
    assert_eq!(k, crash_at as usize, "the WAL must hold exactly the pre-crash prefix");
    let ops: Vec<Op> = id_log[..k].iter().map(|(_, inv)| Op::Ingest(inv.clone())).collect();
    assert_equivalent(&recovered, &oracle_for(&ops), "concurrent crash recovery");
}

#[test]
fn file_backend_recovers_across_reopen() {
    let pool = pool();
    let ops = script(&pool);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("store_recovery_file");
    let _ = std::fs::remove_dir_all(&dir);

    {
        let backend = Arc::new(FileBackend::new(&dir).unwrap());
        let store = InvariantStore::open(StoreConfig::default(), backend).unwrap();
        run_ops(&store, &ops[..6]);
        store.checkpoint().unwrap();
        run_ops(&store, &ops[6..]);
    }
    {
        let backend = Arc::new(FileBackend::new(&dir).unwrap());
        let recovered = InvariantStore::open(StoreConfig::default(), backend).unwrap();
        assert_equivalent(&recovered, &oracle_for(&ops), "file backend reopen");

        // Torn tail on the real file: append garbage, reopen, truncate.
        let half_record = [0x55u8; 9];
        recovered.checkpoint().unwrap();
        run_ops(&recovered, &[ops[0].clone()]);
        StorageBackend::append_wal(&FileBackend::new(&dir).unwrap(), &half_record).unwrap();
    }
    {
        let backend = Arc::new(FileBackend::new(&dir).unwrap());
        let recovered = InvariantStore::open(StoreConfig::default(), backend).unwrap();
        assert_eq!(recovered.stats().wal_truncations, 1);
        let mut expected = ops.clone();
        expected.push(ops[0].clone());
        assert_equivalent(&recovered, &oracle_for(&expected), "file backend torn tail");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
