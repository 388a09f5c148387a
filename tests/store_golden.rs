//! Golden bytes for the store's on-disk format.
//!
//! `tests/fixtures/golden_store/` holds a snapshot and a WAL tail written by
//! a seeded script over grid-4 maps of every generator family: batch and
//! single ingests with duplicates, an in-place update, removals that collect
//! classes, and one checkpoint between them. The files were produced by the
//! encoder of format version 2 and are never rewritten by the suite. Two
//! checks hold them fixed:
//!
//! * recovering the stored bytes gives the oracle's class partition, the
//!   oracle's `CodeHash` per class, and the oracle's answers;
//! * running the same script again writes exactly the stored bytes.
//!
//! A change that alters a single byte of the snapshot or WAL encoding fails
//! here. Such a change must bump `FORMAT_VERSION` and regenerate the files on
//! purpose with `cargo test --test store_golden -- --ignored`.
//!
//! `tests/fixtures/golden_store_v1/` holds the same script's bytes in format
//! version 1. No build reads them any more; they must be refused with
//! `PersistError::UnsupportedVersion`, never misread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use topo_core::spatial::transform::AffineMap;
use topo_core::store::persist::FORMAT_VERSION;
use topo_core::{
    top, CodeHash, InvariantStore, MemoryBackend, PersistError, SpatialInstance, StorageBackend,
    StoreConfig,
};
use topo_datagen::{ign_city, sequoia_hydro, sequoia_landcover, Scale};

mod common;
use common::recovery_query_mix as query_mix;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_store")
}

fn v1_fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_store_v1")
}

fn grid4(family: usize, seed: u64) -> SpatialInstance {
    let scale = Scale { grid: 4 };
    match family {
        0 => sequoia_landcover(scale, seed),
        1 => sequoia_hydro(scale, seed),
        _ => ign_city(scale, seed),
    }
}

/// Runs the seeded script on `store`; the checkpoint is taken between the
/// snapshot half and the WAL-tail half.
fn run_script(store: &InvariantStore) {
    let quarter = AffineMap::rotation90();
    let shift = AffineMap::translation(25_000, -7_000);
    // Snapshot half: one batch (three families plus a rotated duplicate),
    // a single ingest, and a removal that collects the hydro class.
    store.ingest_batch(&[
        grid4(0, 1),
        grid4(1, 1),
        grid4(2, 1),
        quarter.apply_instance(&grid4(0, 1)),
    ]);
    store.ingest_invariant(Arc::new(top(&grid4(0, 2))));
    assert!(store.remove_instance(1));
    store.checkpoint().expect("memory backend checkpoint");
    // WAL tail: a single ingest that re-admits hydro, an update into a new
    // class, an update that deduplicates, a batch with a duplicate, and a
    // removal.
    store.ingest_invariant(Arc::new(top(&grid4(1, 2))));
    store.update_instance(0, Arc::new(top(&grid4(2, 2)))).expect("instance 0 is live");
    store.update_instance(3, Arc::new(top(&shift.apply_instance(&grid4(1, 2))))).expect("live");
    store.ingest_batch(&[shift.apply_instance(&grid4(2, 1)), grid4(1, 3)]);
    assert!(store.remove_instance(4));
}

/// The store the script leaves behind, in memory only.
fn oracle() -> InvariantStore {
    let store = InvariantStore::default();
    run_script(&store);
    store
}

fn class_hashes(store: &InvariantStore) -> Vec<(usize, CodeHash)> {
    store
        .classes()
        .iter()
        .map(|members| {
            let class = store.class_of(members[0]).expect("member of a live class");
            let rep = store.class_representative(class).expect("live class");
            (class, rep.code_hash())
        })
        .collect()
}

fn stored_fixture() -> (Vec<u8>, Vec<u8>) {
    read_fixture(fixture_dir())
}

fn read_fixture(dir: PathBuf) -> (Vec<u8>, Vec<u8>) {
    let read = |name: &str| {
        std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
    };
    (read("snapshot.bin"), read("wal.bin"))
}

#[test]
fn golden_bytes_recover_to_the_oracle() {
    let (snapshot, wal) = stored_fixture();
    let backend = MemoryBackend::new();
    backend.set_snapshot_bytes(Some(snapshot));
    backend.set_wal_bytes(wal);
    let recovered = InvariantStore::open(StoreConfig::default(), backend).expect("golden bytes");
    assert_eq!(recovered.stats().wal_truncations, 0, "the golden WAL has no torn tail");
    assert_eq!(recovered.stats().replayed_records, 6);

    let oracle = oracle();
    assert_eq!(recovered.classes(), oracle.classes(), "class partition");
    assert_eq!(recovered.class_count(), oracle.class_count());
    // Each recovered representative is decoded from bytes and hashed afresh,
    // so equal hashes pin the decoded invariants, not only the stored hashes.
    assert_eq!(class_hashes(&recovered), class_hashes(&oracle), "CodeHash per class");
    // Every id the script ever issued, removed ones included, and two past.
    let ids = oracle.stats().instances + oracle.stats().removals as usize + 2;
    for query in query_mix() {
        for id in 0..ids {
            assert_eq!(recovered.query(id, &query), oracle.query(id, &query), "{id} {query:?}");
        }
    }
}

#[test]
fn the_script_writes_the_golden_bytes() {
    let (snapshot, wal) = stored_fixture();
    let backend = MemoryBackend::new();
    run_script(&InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap());
    let written = backend.read_snapshot().unwrap().expect("the script checkpoints");
    assert_eq!(written.len(), snapshot.len(), "snapshot length");
    assert!(written == snapshot, "snapshot bytes differ from the golden file");
    let written_wal = backend.read_wal().unwrap();
    assert_eq!(written_wal.len(), wal.len(), "WAL length");
    assert!(written_wal == wal, "WAL bytes differ from the golden file");
}

/// Format 1 bytes are refused with the typed error, whether the snapshot
/// header or a WAL record tag is the first thing read, and never open a
/// store or panic.
#[test]
fn format_1_bytes_are_refused_as_unsupported() {
    let (snapshot, wal) = read_fixture(v1_fixture_dir());
    for (label, snapshot) in [("snapshot plus WAL", Some(snapshot)), ("WAL alone", None)] {
        let backend = MemoryBackend::new();
        backend.set_snapshot_bytes(snapshot);
        backend.set_wal_bytes(wal.clone());
        let opened = catch_unwind(AssertUnwindSafe(|| {
            InvariantStore::open(StoreConfig::default(), backend).map(|store| store.classes())
        }));
        match opened {
            Ok(Err(PersistError::UnsupportedVersion { found: 1, expected })) => {
                assert_eq!(expected, FORMAT_VERSION, "{label}");
            }
            Ok(Err(other)) => panic!("{label}: failed with {other}"),
            Ok(Ok(classes)) => panic!("{label}: opened with classes {classes:?}"),
            Err(_) => panic!("{label}: panicked"),
        }
    }
}

/// Rewrites the fixture from the current encoder. Run it only together with
/// a deliberate format change (and a `FORMAT_VERSION` bump).
#[test]
#[ignore = "rewrites tests/fixtures/golden_store"]
fn regenerate_golden_fixture() {
    let backend = MemoryBackend::new();
    run_script(&InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap());
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snapshot.bin"), backend.read_snapshot().unwrap().unwrap()).unwrap();
    std::fs::write(dir.join("wal.bin"), backend.read_wal().unwrap()).unwrap();
}
