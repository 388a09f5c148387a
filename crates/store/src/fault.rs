//! Deterministic fault injection for the persistence layer.
//!
//! A [`FaultyBackend`] wraps any [`StorageBackend`] and executes a
//! [`FaultPlan`]: fail the Nth operation at a named [`FaultSite`], *crash*
//! there (the fault fires before the bytes reach the durable inner backend,
//! and every subsequent operation fails — the process is "dead"), or tear a
//! write (the first half of the bytes land, then the crash). Reads can be
//! shortened to simulate a truncated medium. Everything is counted per
//! site, so a test can assert exactly which operation tripped.
//!
//! The crash model is the standard one for WAL testing: after a crash the
//! *inner* backend holds whatever had been durably written — possibly half
//! a record — and recovery runs against that medium via
//! [`InvariantStore::open`](crate::InvariantStore::open) with a fresh,
//! fault-free view ([`FaultyBackend::durable`]). Because plans are plain
//! data, every schedule is reproducible.
//!
//! Lock-poisoning is the one fault that does not involve storage;
//! [`poison_classes_lock`](crate::InvariantStore::poison_classes_lock) and
//! [`poison_memo_locks`](crate::InvariantStore::poison_memo_locks) inject
//! it by panicking (caught) while holding the write lock, so the
//! degradation suite can prove that a dead writer cannot wedge readers.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::persist::StorageBackend;
use crate::InvariantStore;

/// A named operation on the storage backend where a fault can fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A WAL append (one per ingest/remove record).
    WalAppend,
    /// A snapshot write (one per checkpoint).
    SnapshotWrite,
    /// The WAL reset that follows a snapshot write — crashing here leaves
    /// the snapshot *and* the pre-checkpoint WAL on the medium, the
    /// double-apply hazard the seq-skipping replay must neutralise.
    WalReset,
    /// A snapshot read (recovery).
    SnapshotRead,
    /// A WAL read (recovery).
    WalRead,
}

/// What happens when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation returns an I/O error; the backend stays alive.
    Error,
    /// The process "crashes": nothing of this operation reaches the durable
    /// medium, and every later operation on this wrapper fails.
    Crash,
    /// A torn write: the first half of the bytes reach the durable medium,
    /// then the crash. Only meaningful at write sites.
    TornWrite,
}

/// One scheduled fault: fire `kind` on the `nth` operation (0-based) at
/// `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    pub site: FaultSite,
    pub nth: u64,
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, plus optional read shortening.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
    /// If set, WAL reads return at most this many bytes (a short read —
    /// recovery sees a truncated log even though the medium has more).
    pub short_read_wal: Option<usize>,
}

impl FaultPlan {
    /// A plan with no faults (the wrapper becomes a transparent proxy).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Convenience: a single fault of `kind` on the `nth` operation at
    /// `site`.
    pub fn once(site: FaultSite, nth: u64, kind: FaultKind) -> Self {
        FaultPlan { faults: vec![Fault { site, nth, kind }], short_read_wal: None }
    }
}

/// Per-site operation counters (how many operations were *attempted*).
#[derive(Default)]
struct SiteCounters {
    wal_append: AtomicU64,
    snapshot_write: AtomicU64,
    wal_reset: AtomicU64,
    snapshot_read: AtomicU64,
    wal_read: AtomicU64,
}

impl SiteCounters {
    fn bump(&self, site: FaultSite) -> u64 {
        let counter = match site {
            FaultSite::WalAppend => &self.wal_append,
            FaultSite::SnapshotWrite => &self.snapshot_write,
            FaultSite::WalReset => &self.wal_reset,
            FaultSite::SnapshotRead => &self.snapshot_read,
            FaultSite::WalRead => &self.wal_read,
        };
        counter.fetch_add(1, Ordering::SeqCst)
    }
}

/// A [`StorageBackend`] wrapper that executes a [`FaultPlan`] against an
/// inner (durable) backend.
pub struct FaultyBackend {
    inner: Arc<dyn StorageBackend>,
    plan: FaultPlan,
    counters: SiteCounters,
    dead: AtomicBool,
}

impl FaultyBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultyBackend {
            inner,
            plan,
            counters: SiteCounters::default(),
            dead: AtomicBool::new(false),
        })
    }

    /// The durable medium underneath, untouched by the plan — what a
    /// post-crash recovery opens.
    pub fn durable(&self) -> Arc<dyn StorageBackend> {
        self.inner.clone()
    }

    /// True once a `Crash`/`TornWrite` fault fired (every operation fails
    /// from then on).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn dead_error() -> io::Error {
        io::Error::other("fault injection: backend crashed")
    }

    /// Runs the pre-operation fault check: counts the attempt, and if the
    /// plan schedules a fault for it, applies the kind. `Ok(true)` means a
    /// torn write should be performed by the caller.
    fn check(&self, site: FaultSite) -> io::Result<bool> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(Self::dead_error());
        }
        let n = self.counters.bump(site);
        for fault in &self.plan.faults {
            if fault.site == site && fault.nth == n {
                match fault.kind {
                    FaultKind::Error => {
                        return Err(io::Error::other(format!(
                            "fault injection: {site:?} #{n} failed"
                        )));
                    }
                    FaultKind::Crash => {
                        self.dead.store(true, Ordering::SeqCst);
                        return Err(Self::dead_error());
                    }
                    FaultKind::TornWrite => {
                        self.dead.store(true, Ordering::SeqCst);
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }
}

impl StorageBackend for FaultyBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        self.check(FaultSite::SnapshotRead)?;
        self.inner.read_snapshot()
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        if self.check(FaultSite::SnapshotWrite)? {
            // Torn snapshot write: half the bytes replace the snapshot.
            // (A real FileBackend's rename is atomic, but the trait does not
            // promise that; the format must survive either way.)
            self.inner.write_snapshot(&bytes[..bytes.len() / 2])?;
            return Err(Self::dead_error());
        }
        self.inner.write_snapshot(bytes)
    }

    fn read_wal(&self) -> io::Result<Vec<u8>> {
        self.check(FaultSite::WalRead)?;
        let mut bytes = self.inner.read_wal()?;
        if let Some(limit) = self.plan.short_read_wal {
            bytes.truncate(limit);
        }
        Ok(bytes)
    }

    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        if self.check(FaultSite::WalAppend)? {
            // Torn append: the first half of the record lands durably.
            self.inner.append_wal(&bytes[..bytes.len() / 2])?;
            return Err(Self::dead_error());
        }
        self.inner.append_wal(bytes)
    }

    fn reset_wal(&self) -> io::Result<()> {
        self.check(FaultSite::WalReset)?;
        self.inner.reset_wal()
    }
}

impl InvariantStore {
    /// Test hook: poisons the table lock by panicking while holding it (the
    /// panic is caught here). Subsequent accessors must
    /// recover — counted in
    /// [`lock_recoveries`](crate::StoreStats::lock_recoveries) — instead of
    /// propagating the poison.
    pub fn poison_classes_lock(&self) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _tables = self.tables.write();
            panic!("fault injection: poisoning the table lock");
        }));
        assert!(result.is_err(), "the poisoning closure must panic");
    }

    /// Test hook: poisons every memo shard lock (see
    /// [`poison_classes_lock`](Self::poison_classes_lock)).
    pub fn poison_memo_locks(&self) {
        for shard in &self.memo {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _shard = shard.write();
                panic!("fault injection: poisoning memo shard lock");
            }));
            assert!(result.is_err(), "the poisoning closure must panic");
        }
    }

    /// Test hook: runs `f` while every memo shard is write-locked, so
    /// memoised queries cannot make progress — the scenario the
    /// [`memo_lock_budget`](crate::StoreConfig::memo_lock_budget) fallback
    /// exists for.
    pub fn with_memo_frozen<R>(&self, f: impl FnOnce() -> R) -> R {
        let guards: Vec<_> =
            self.memo.iter().map(|s| crate::write_recover(s, &self.counters)).collect();
        let result = f();
        drop(guards);
        result
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::persist::MemoryBackend;

    #[test]
    fn faulty_backend_fires_on_schedule_and_dies_on_crash() {
        let durable = MemoryBackend::new();
        let faulty = FaultyBackend::new(
            durable.clone(),
            FaultPlan::once(FaultSite::WalAppend, 1, FaultKind::Crash),
        );
        assert!(faulty.append_wal(b"one").is_ok());
        assert!(faulty.append_wal(b"two").is_err(), "the 2nd append must crash");
        assert!(faulty.is_dead());
        assert!(faulty.append_wal(b"three").is_err(), "a dead backend stays dead");
        assert!(faulty.read_wal().is_err());
        assert_eq!(durable.wal_bytes(), b"one", "nothing after the crash reached the medium");
    }

    #[test]
    fn torn_write_lands_half_the_bytes() {
        let durable = MemoryBackend::new();
        let faulty = FaultyBackend::new(
            durable.clone(),
            FaultPlan::once(FaultSite::WalAppend, 0, FaultKind::TornWrite),
        );
        assert!(faulty.append_wal(b"abcdef").is_err());
        assert_eq!(durable.wal_bytes(), b"abc");
        assert!(faulty.is_dead());
    }

    #[test]
    fn error_fault_does_not_kill_the_backend() {
        let durable = MemoryBackend::new();
        let faulty = FaultyBackend::new(
            durable.clone(),
            FaultPlan::once(FaultSite::WalAppend, 0, FaultKind::Error),
        );
        assert!(faulty.append_wal(b"x").is_err());
        assert!(!faulty.is_dead());
        assert!(faulty.append_wal(b"y").is_ok());
        assert_eq!(durable.wal_bytes(), b"y");
    }

    #[test]
    fn short_reads_truncate_the_wal_view() {
        let durable = MemoryBackend::new();
        durable.append_wal(b"0123456789").unwrap();
        let faulty =
            FaultyBackend::new(durable, FaultPlan { faults: Vec::new(), short_read_wal: Some(4) });
        assert_eq!(faulty.read_wal().unwrap(), b"0123");
    }
}
