//! # topo-store — a concurrent, durable invariant store and query service
//!
//! The rest of the workspace answers one query on one instance: build
//! `top(I)`, evaluate. This crate turns that one-shot pipeline into a
//! long-lived, thread-safe service in the spirit of the paper's
//! practical-considerations section: many clients ingest many spatial
//! instances and ask many queries, and the store makes the whole mix cost
//! one canonicalisation per instance plus one evaluation per
//! *(isomorphism class, query)* pair.
//!
//! Three ideas carry the in-memory design:
//!
//! * **Content addressing by canonical code.** Every ingested instance is
//!   reduced to its topological invariant, and the invariant's cached
//!   [`CodeHash`] is used as a content address: equal hashes nominate a
//!   candidate class, and a full (cached, cheap) canonical-code comparison
//!   via [`TopologicalInvariant::is_isomorphic_to`] confirms or refutes it.
//!   By Theorem 2.1 members of one class answer every topological query
//!   identically, so the store keeps a single shared-immutable
//!   `Arc<TopologicalInvariant>` representative per class and never clones
//!   an invariant.
//! * **Per-(class, query) memoisation.** Query answers are memoised in a
//!   sharded `RwLock` map keyed by `(ClassId, TopologicalQuery)`. Reads are
//!   copy-free (a `bool` out of a read-locked shard); misses evaluate on the
//!   class representative *outside* any lock, so a slow evaluation never
//!   blocks readers of other keys — at worst two racing threads compute the
//!   same answer once each.
//! * **Bounded memory.** Both caches are capacity-bounded. The memo has an
//!   LRU-ish policy: every hit stamps the entry with a global tick, and a
//!   full shard evicts its least-recently-used entry; evicting is always
//!   safe — a re-miss just re-evaluates on the representative. The class
//!   table itself can be bounded too ([`StoreConfig::max_classes`]), with an
//!   explicit admission policy: an ingest that would open a class beyond the
//!   bound is [`IngestOutcome::Rejected`] instead of growing the table, so
//!   overload degrades predictably.
//!
//! On top of that sit the durability and failure layers this crate grew for
//! the "survive contact with production" story:
//!
//! * **Persistence and crash recovery** ([`persist`]): a versioned,
//!   checksummed binary snapshot + write-ahead-log format over a pluggable
//!   [`StorageBackend`]. [`InvariantStore::open`] recovers a store by
//!   loading the snapshot and replaying the WAL, truncating (never
//!   trusting) torn or corrupt tail records; [`InvariantStore::checkpoint`]
//!   folds the WAL into a fresh snapshot.
//! * **Removal and garbage collection** ([`gc`], re-exported as
//!   [`InvariantStore::remove_instance`]): instances can leave, a class
//!   whose last member left is collected — its representative dropped, its
//!   content address unregistered, its memo entries purged — and ids are
//!   never reused, so no stale answer can resurface.
//! * **Graceful degradation and lock hygiene**: every lock accessor recovers
//!   from poisoning (one panicking writer cannot wedge future readers), and
//!   an optional per-query lock budget ([`StoreConfig::memo_lock_budget`])
//!   makes queries fall back to an un-memoised evaluation on the class
//!   representative instead of blocking on a contended or frozen memo.
//! * **Deterministic fault injection** ([`fault`]): a [`FaultPlan`] fails
//!   the Nth backend write, crashes at a named site (mid-append, mid
//!   snapshot, between snapshot and WAL reset), tears writes and shortens
//!   reads — driving the recovery-equivalence suites that prove a recovered
//!   store answers exactly like a never-crashed one.
//!
//! The store's whole value claim is "same answers as running the pipeline
//! per instance, under concurrency and across failures";
//! `tests/store_equivalence.rs`, `tests/store_stress.rs` and
//! `tests/store_recovery.rs` at the workspace root prove every behaviour
//! against the `isomorphism_classes` / `evaluate_on_classes` and frozen
//! `naive-reference` oracles, including under multi-threaded load and
//! injected faults.
//!
//! ```
//! use topo_spatial::{Region, SpatialInstance};
//! use topo_store::InvariantStore;
//!
//! let store = InvariantStore::default();
//! let disk = SpatialInstance::from_regions([("a", Region::rectangle(0, 0, 10, 10))]);
//! let far = SpatialInstance::from_regions([("a", Region::rectangle(500, 0, 510, 10))]);
//! let a = store.ingest(&disk);
//! let b = store.ingest(&far); // topologically the same disk: deduplicated
//! assert_eq!(store.class_of(a), store.class_of(b));
//! let q = topo_queries::TopologicalQuery::IsConnected(0);
//! assert_eq!(store.query(a, &q), Some(true));
//! assert_eq!(store.query(b, &q), Some(true)); // memo hit: no re-evaluation
//! assert_eq!(store.stats().memo_hits, 1);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use topo_invariant::{top, CodeHash, TopologicalInvariant};
use topo_queries::{evaluate_goal_directed, evaluate_on_invariant, TopologicalQuery};
use topo_spatial::SpatialInstance;

pub mod fault;
pub mod gc;
pub mod persist;
pub mod update;

pub use fault::{Fault, FaultKind, FaultPlan, FaultSite, FaultyBackend};
pub use persist::{FileBackend, MemoryBackend, PersistError, StorageBackend};

/// Identifier of an ingested instance, assigned densely in ingest order and
/// never reused — a removed instance's id stays dead forever.
pub type InstanceId = usize;

/// Identifier of an isomorphism class, assigned densely in order of first
/// appearance and never reused — a garbage-collected class's id stays dead
/// forever (so no stale memo entry can ever be read through a recycled id).
pub type ClassId = usize;

/// Tuning knobs of an [`InvariantStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Total number of memoised `(class, query)` answers kept across all
    /// shards; `0` disables memoisation entirely (every query evaluates on
    /// the class representative — the baseline the benchmarks compare
    /// against).
    pub memo_capacity: usize,
    /// Number of independent `RwLock` shards the memo is split over; more
    /// shards mean less write contention under concurrent misses.
    /// Normalised at construction: `0` becomes `1`, and more shards than
    /// `memo_capacity` are clamped down so the per-shard capacity stays a
    /// genuine bound.
    pub memo_shards: usize,
    /// Capacity bound on the class table itself: an ingest that would open a
    /// class beyond this many *live* classes is [`IngestOutcome::Rejected`].
    /// `usize::MAX` (the default) means unbounded. Garbage-collecting a
    /// class frees its slot for admission.
    pub max_classes: usize,
    /// Query-side lock budget: `None` (the default) blocks on the memo
    /// shard locks as usual; `Some(n)` makes a query attempt each memo lock
    /// at most `n + 1` times without blocking and then *fall back* to an
    /// un-memoised evaluation on the class representative (counted in
    /// [`StoreStats::fallback_evals`]) — bounded degradation instead of
    /// unbounded waiting.
    pub memo_lock_budget: Option<u32>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memo_capacity: 4096,
            memo_shards: 16,
            max_classes: usize::MAX,
            memo_lock_budget: None,
        }
    }
}

/// A degenerate [`StoreConfig`] that construction refuses with a clear
/// message instead of letting it surface as arithmetic panics (or silent
/// unbounded rejection) deep in the ingest and query paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreConfigError {
    /// `max_classes == 0`: the store could never admit anything.
    ZeroClassCapacity,
}

impl fmt::Display for StoreConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreConfigError::ZeroClassCapacity => write!(
                f,
                "StoreConfig::max_classes must be at least 1 (use usize::MAX for unbounded)"
            ),
        }
    }
}

impl std::error::Error for StoreConfigError {}

impl StoreConfig {
    /// A configuration with memoisation disabled: every query evaluates on
    /// its class representative. Class-level deduplication still applies.
    pub fn without_memo() -> Self {
        StoreConfig { memo_capacity: 0, ..StoreConfig::default() }
    }

    /// Validates and normalises the configuration: recoverable degeneracies
    /// are fixed up (`memo_shards == 0` becomes `1`; more shards than
    /// `memo_capacity` are clamped so the total capacity bound holds),
    /// unrecoverable ones are a clear [`StoreConfigError`]. Construction
    /// applies this, so [`InvariantStore::config`] always reports the
    /// normalised knobs actually in effect.
    pub fn validated(mut self) -> Result<Self, StoreConfigError> {
        if self.max_classes == 0 {
            return Err(StoreConfigError::ZeroClassCapacity);
        }
        self.memo_shards = self.memo_shards.clamp(1, self.memo_capacity.max(1));
        Ok(self)
    }
}

/// The outcome of an admission-checked ingest
/// ([`InvariantStore::try_ingest`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The instance opened a new isomorphism class.
    Admitted(InstanceId),
    /// The instance joined an existing class (a dedup hit).
    Deduplicated(InstanceId),
    /// The instance would have opened a new class but the class table is at
    /// [`StoreConfig::max_classes`]: nothing was stored, no id was consumed,
    /// and [`StoreStats::rejected`] was incremented. Duplicates of resident
    /// classes are still admitted while the table is full.
    Rejected,
}

impl IngestOutcome {
    /// The id assigned to the instance, unless it was rejected.
    pub fn id(&self) -> Option<InstanceId> {
        match *self {
            IngestOutcome::Admitted(id) | IngestOutcome::Deduplicated(id) => Some(id),
            IngestOutcome::Rejected => None,
        }
    }

    /// True iff the ingest was rejected by the admission policy.
    pub fn is_rejected(&self) -> bool {
        matches!(self, IngestOutcome::Rejected)
    }
}

/// A point-in-time snapshot of the store's counters.
///
/// Two kinds of counter live here, and they age differently:
///
/// * **Current** counters describe the state right now and can go *down*:
///   [`instances`](Self::instances) and [`classes`](Self::classes) are live
///   counts (removal and GC decrease them), and
///   [`memo_entries`](Self::memo_entries) is the resident memo size
///   (eviction, [`clear_memo`](InvariantStore::clear_memo) and GC purges
///   decrease it).
/// * **Monotone** counters only ever grow over the lifetime of one store
///   value: every other field. They are process-local — a store recovered
///   with [`InvariantStore::open`] starts its monotone counters from the
///   recovery replay, not from the pre-crash process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live instances currently in the store (current, not monotone).
    pub instances: usize,
    /// Live isomorphism classes currently in the store (current).
    pub classes: usize,
    /// Memoised answers currently held, ≤ the configured capacity (current).
    /// Under a configured [`StoreConfig::memo_lock_budget`] this gauge skips
    /// shards frozen past the budget (counting them as 0) rather than block.
    pub memo_entries: usize,
    /// Queries answered from the memo (monotone).
    pub memo_hits: u64,
    /// Queries that had to evaluate on a class representative, including
    /// lock-budget fallbacks (monotone).
    pub memo_misses: u64,
    /// Memo entries evicted by the capacity bound (monotone). Entries
    /// dropped by `clear_memo` or a class GC count in
    /// [`memo_invalidated`](Self::memo_invalidated) instead.
    pub memo_evictions: u64,
    /// Memo entries dropped by [`InvariantStore::clear_memo`] or purged by a
    /// class garbage collection (monotone).
    pub memo_invalidated: u64,
    /// Ingests that landed in an existing class (monotone).
    pub dedup_hits: u64,
    /// Candidate classes nominated by an equal [`CodeHash`] but refuted by
    /// the full canonical-code comparison (genuine 64-bit digest
    /// collisions; expected to stay 0 in practice) (monotone).
    pub hash_collisions: u64,
    /// Instances removed via [`InvariantStore::remove_instance`], including
    /// removals replayed from the WAL during recovery (monotone).
    pub removals: u64,
    /// Instances re-pointed at a new class via
    /// [`InvariantStore::update_instance`] (including no-op updates and
    /// updates replayed from the WAL during recovery; rejected updates are
    /// counted in [`rejected`](Self::rejected) instead) (monotone).
    pub updates: u64,
    /// Classes garbage-collected after their last member left (monotone).
    pub gc_classes: u64,
    /// Ingests rejected by the [`StoreConfig::max_classes`] admission bound
    /// (monotone).
    pub rejected: u64,
    /// Queries answered by the un-memoised fallback because the
    /// [`StoreConfig::memo_lock_budget`] ran out (monotone; a subset of
    /// [`memo_misses`](Self::memo_misses)).
    pub fallback_evals: u64,
    /// Poisoned locks recovered by an accessor instead of propagating the
    /// panic (monotone).
    pub lock_recoveries: u64,
    /// WAL records durably appended (monotone; persistent stores only).
    pub wal_appends: u64,
    /// WAL appends that failed at the backend; the in-memory state kept
    /// serving (monotone).
    pub wal_errors: u64,
    /// Snapshots written by [`InvariantStore::checkpoint`] (monotone).
    pub snapshots: u64,
    /// WAL records applied during [`InvariantStore::open`] (monotone).
    pub replayed_records: u64,
    /// Torn or corrupt WAL tails detected and truncated during recovery
    /// (monotone; one per truncation event).
    pub wal_truncations: u64,
}

impl StoreStats {
    /// Fraction of queries answered from the memo, in `[0, 1]` (`0` when no
    /// query has been asked yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// One memoised answer; `last_used` is an atomic so a read-locked hit can
/// still refresh the LRU stamp.
struct MemoEntry {
    answer: bool,
    last_used: AtomicU64,
}

#[derive(Default)]
pub(crate) struct MemoShard {
    pub(crate) map: HashMap<(ClassId, TopologicalQuery), MemoEntry>,
}

/// The class table: content address → candidate classes, plus the shared
/// representative, content hash and member list of every class slot. Kept
/// behind one `RwLock` so a partition snapshot is always internally
/// consistent. Garbage-collected slots keep their index (`reps[c] == None`)
/// so class ids are never reused.
#[derive(Default)]
pub(crate) struct ClassTable {
    pub(crate) by_hash: HashMap<CodeHash, Vec<ClassId>>,
    pub(crate) reps: Vec<Option<Arc<TopologicalInvariant>>>,
    pub(crate) hashes: Vec<CodeHash>,
    pub(crate) members: Vec<Vec<InstanceId>>,
    /// Number of live (non-collected) classes; the admission bound compares
    /// against this, so GC frees admission capacity.
    pub(crate) live: usize,
}

/// The instance table: `InstanceId → ClassId`, with tombstones for removed
/// instances (ids are never reused).
#[derive(Default)]
pub(crate) struct InstanceTable {
    pub(crate) slots: Vec<Option<ClassId>>,
    pub(crate) live: usize,
}

/// The store's monotone counters, grouped so lock helpers can reach them.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) memo_hits: AtomicU64,
    pub(crate) memo_misses: AtomicU64,
    pub(crate) memo_evictions: AtomicU64,
    pub(crate) memo_invalidated: AtomicU64,
    pub(crate) dedup_hits: AtomicU64,
    pub(crate) hash_collisions: AtomicU64,
    pub(crate) removals: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) gc_classes: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) fallback_evals: AtomicU64,
    pub(crate) lock_recoveries: AtomicU64,
    pub(crate) wal_appends: AtomicU64,
    pub(crate) wal_errors: AtomicU64,
    pub(crate) snapshots: AtomicU64,
    pub(crate) replayed_records: AtomicU64,
    pub(crate) wal_truncations: AtomicU64,
}

/// Acquires a read lock, recovering from poisoning: the data under these
/// locks is kept consistent by construction (every writer restores the
/// structural invariants before any point that can panic), so a poisoned
/// lock means a *different* writer died, not that this data is torn.
pub(crate) fn read_recover<'a, T>(
    lock: &'a RwLock<T>,
    counters: &Counters,
) -> RwLockReadGuard<'a, T> {
    match lock.read() {
        Ok(guard) => guard,
        Err(poisoned) => {
            counters.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// Acquires a write lock, recovering from poisoning (see [`read_recover`]).
pub(crate) fn write_recover<'a, T>(
    lock: &'a RwLock<T>,
    counters: &Counters,
) -> RwLockWriteGuard<'a, T> {
    match lock.write() {
        Ok(guard) => guard,
        Err(poisoned) => {
            counters.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// A concurrent store of topological invariants, deduplicated into
/// isomorphism classes, memoising query answers per class, and optionally
/// durable through a snapshot + write-ahead-log [`persist`] layer.
///
/// All methods take `&self`; the store is `Sync` and is designed to be
/// shared across threads (e.g. by reference from `std::thread::scope`, or
/// behind an `Arc`). See the [crate docs](crate) for the locking story.
pub struct InvariantStore {
    config: StoreConfig,
    pub(crate) classes: RwLock<ClassTable>,
    pub(crate) instances: RwLock<InstanceTable>,
    pub(crate) memo: Vec<RwLock<MemoShard>>,
    clock: AtomicU64,
    pub(crate) counters: Counters,
    pub(crate) persistence: Option<persist::Persistence>,
}

impl Default for InvariantStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl InvariantStore {
    /// Creates an empty in-memory store with the given configuration
    /// (normalised via [`StoreConfig::validated`]).
    ///
    /// # Panics
    /// Panics with the [`StoreConfigError`] message on an unrecoverably
    /// degenerate configuration; use [`try_new`](Self::try_new) to handle it
    /// as a value.
    pub fn new(config: StoreConfig) -> Self {
        match Self::try_new(config) {
            Ok(store) => store,
            Err(error) => panic!("invalid StoreConfig: {error}"),
        }
    }

    /// Creates an empty in-memory store, returning the configuration error
    /// instead of panicking.
    pub fn try_new(config: StoreConfig) -> Result<Self, StoreConfigError> {
        let config = config.validated()?;
        Ok(InvariantStore {
            config,
            classes: RwLock::new(ClassTable::default()),
            instances: RwLock::new(InstanceTable::default()),
            memo: (0..config.memo_shards).map(|_| RwLock::new(MemoShard::default())).collect(),
            clock: AtomicU64::new(0),
            counters: Counters::default(),
            persistence: None,
        })
    }

    /// The configuration the store runs with, after normalisation.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    // ----- ingest ------------------------------------------------------------

    /// Ingests a spatial instance: builds its invariant (the expensive part,
    /// outside every lock) and content-addresses it into an isomorphism
    /// class. Returns the dense id assigned to the instance.
    ///
    /// # Panics
    /// Panics if the admission policy rejects the instance (only possible
    /// with a bounded [`StoreConfig::max_classes`]); bounded stores should
    /// use [`try_ingest`](Self::try_ingest).
    pub fn ingest(&self, instance: &SpatialInstance) -> InstanceId {
        self.ingest_invariant(Arc::new(top(instance)))
    }

    /// Ingests an already-built invariant without copying it: the `Arc` is
    /// stored as the class representative if it opens a new class, and
    /// dropped (the class keeps its first representative) if it joins an
    /// existing one.
    ///
    /// # Panics
    /// Panics if the admission policy rejects the invariant (only possible
    /// with a bounded [`StoreConfig::max_classes`]); bounded stores should
    /// use [`try_ingest_invariant`](Self::try_ingest_invariant).
    pub fn ingest_invariant(&self, invariant: Arc<TopologicalInvariant>) -> InstanceId {
        match self.try_ingest_invariant(invariant) {
            IngestOutcome::Admitted(id) | IngestOutcome::Deduplicated(id) => id,
            IngestOutcome::Rejected => panic!(
                "InvariantStore::ingest_invariant rejected: class table at max_classes ({}); \
                 use try_ingest_invariant to handle admission",
                self.config.max_classes
            ),
        }
    }

    /// Admission-checked ingest of a spatial instance; see
    /// [`try_ingest_invariant`](Self::try_ingest_invariant).
    pub fn try_ingest(&self, instance: &SpatialInstance) -> IngestOutcome {
        self.try_ingest_invariant(Arc::new(top(instance)))
    }

    /// Admission-checked ingest: deduplicates into an existing class
    /// ([`IngestOutcome::Deduplicated`]), opens a new class if the table has
    /// room ([`IngestOutcome::Admitted`]), or — when the invariant would
    /// open a class beyond [`StoreConfig::max_classes`] — stores nothing and
    /// returns [`IngestOutcome::Rejected`] so overload degrades into an
    /// explicit signal instead of unbounded growth.
    ///
    /// On a persistent store the admitted/deduplicated outcome is appended
    /// to the WAL before the locks release; a backend failure is counted in
    /// [`StoreStats::wal_errors`] and the in-memory ingest still completes
    /// (availability over durability — the caller can watch the counter).
    pub fn try_ingest_invariant(&self, invariant: Arc<TopologicalInvariant>) -> IngestOutcome {
        self.try_ingest_invariant_batch(std::slice::from_ref(&invariant))[0]
    }

    /// Batched [`ingest`](Self::ingest): builds and canonicalises every
    /// invariant across the global thread pool (outside any lock), then
    /// admits the whole batch in order under one critical section with a
    /// single amortised WAL append. Ids are assigned in batch order, so the
    /// result is exactly what a sequential `ingest` loop over the same
    /// slice would return.
    ///
    /// # Panics
    /// Panics if the admission policy rejects any instance (only possible
    /// with a bounded [`StoreConfig::max_classes`]); bounded stores should
    /// use [`try_ingest_batch`](Self::try_ingest_batch).
    pub fn ingest_batch(&self, instances: &[SpatialInstance]) -> Vec<InstanceId> {
        self.try_ingest_batch(instances)
            .into_iter()
            .map(|outcome| match outcome {
                IngestOutcome::Admitted(id) | IngestOutcome::Deduplicated(id) => id,
                IngestOutcome::Rejected => panic!(
                    "InvariantStore::ingest_batch rejected: class table at max_classes ({}); \
                     use try_ingest_batch to handle admission",
                    self.config.max_classes
                ),
            })
            .collect()
    }

    /// Admission-checked batched ingest; see
    /// [`ingest_batch`](Self::ingest_batch). Outcomes are reported per
    /// instance, in batch order, with the same admission semantics as a
    /// sequential
    /// [`try_ingest`](Self::try_ingest) loop: a rejected instance stores
    /// nothing and consumes no id, and later instances still proceed.
    pub fn try_ingest_batch(&self, instances: &[SpatialInstance]) -> Vec<IngestOutcome> {
        let pool = topo_parallel::Pool::global();
        // The expensive half — building and canonicalising the invariants —
        // runs across the pool with no store lock held.
        let invariants: Vec<Arc<TopologicalInvariant>> = pool.par_map_collect(instances, |inst| {
            let invariant = Arc::new(top(inst));
            invariant.code_hash();
            invariant.canonical_code();
            invariant
        });
        self.try_ingest_invariant_batch(&invariants)
    }

    /// Batched analogue of
    /// [`try_ingest_invariant`](Self::try_ingest_invariant): canonicalises
    /// every invariant across the thread pool first (cached on the
    /// invariants, so this is free for invariants that already carry their
    /// codes), then admits them in batch order under one critical section,
    /// appending all WAL records in a single backend write. Observationally
    /// equivalent to the sequential loop.
    pub fn try_ingest_invariant_batch(
        &self,
        invariants: &[Arc<TopologicalInvariant>],
    ) -> Vec<IngestOutcome> {
        let pool = topo_parallel::Pool::global();
        let hashes: Vec<CodeHash> = pool.par_map_collect(invariants, |invariant| {
            let hash = invariant.code_hash();
            invariant.canonical_code();
            hash
        });
        let mut records: Vec<(InstanceId, ClassId, bool)> = Vec::with_capacity(invariants.len());
        let mut outcomes = Vec::with_capacity(invariants.len());
        // Lock order everywhere both are held: `classes` before `instances`.
        let mut classes = write_recover(&self.classes, &self.counters);
        let mut instances = write_recover(&self.instances, &self.counters);
        for (invariant, &hash) in invariants.iter().zip(&hashes) {
            let (class, admitted) = match self.locate_class(&classes, hash, invariant) {
                Some(class) => {
                    self.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    (class, false)
                }
                None => {
                    if classes.live >= self.config.max_classes {
                        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        outcomes.push(IngestOutcome::Rejected);
                        continue;
                    }
                    let class = classes.reps.len();
                    classes.reps.push(Some(invariant.clone()));
                    classes.hashes.push(hash);
                    classes.members.push(Vec::new());
                    classes.by_hash.entry(hash).or_default().push(class);
                    classes.live += 1;
                    (class, true)
                }
            };
            let id = instances.slots.len();
            instances.slots.push(Some(class));
            instances.live += 1;
            classes.members[class].push(id);
            records.push((id, class, admitted));
            outcomes.push(if admitted {
                IngestOutcome::Admitted(id)
            } else {
                IngestOutcome::Deduplicated(id)
            });
        }
        if self.persistence.is_some() {
            // One group append while both locks are held, so the WAL order is
            // still exactly the id-assignment order: recovery always sees a
            // prefix of the operation history.
            self.wal_ingest_batch(&classes, &records);
        }
        outcomes
    }

    /// Finds the class an invariant belongs to, if any: hash nomination plus
    /// cached-code confirmation. Counts refuted nominations as collisions.
    fn locate_class(
        &self,
        classes: &ClassTable,
        hash: CodeHash,
        invariant: &TopologicalInvariant,
    ) -> Option<ClassId> {
        let candidates = classes.by_hash.get(&hash)?;
        for &candidate in candidates {
            let Some(rep) = classes.reps[candidate].as_ref() else { continue };
            if rep.is_isomorphic_to(invariant) {
                return Some(candidate);
            }
            self.counters.hash_collisions.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    // ----- query -------------------------------------------------------------

    /// Answers a query for an ingested instance, or `None` for an unknown or
    /// removed id. Members of one class share one memoised answer.
    pub fn query(&self, instance: InstanceId, query: &TopologicalQuery) -> Option<bool> {
        let class = (*read_recover(&self.instances, &self.counters).slots.get(instance)?)?;
        self.query_class_inner(class, query)
    }

    /// Answers a query for a whole class, or `None` for an unknown or
    /// garbage-collected class id.
    pub fn query_class(&self, class: ClassId, query: &TopologicalQuery) -> Option<bool> {
        self.query_class_inner(class, query)
    }

    /// Answers a query for every live instance, in instance-id order — the
    /// service-side analogue of `topo_queries::evaluate_on_classes` (each
    /// class evaluates at most once, then every member shares the answer).
    /// Removed instances are skipped, so on a store that never removed
    /// anything this is one answer per ingest in ingest order.
    pub fn query_all(&self, query: &TopologicalQuery) -> Vec<bool> {
        let assignment: Vec<ClassId> = read_recover(&self.instances, &self.counters)
            .slots
            .iter()
            .filter_map(|slot| *slot)
            .collect();
        let mut per_class: HashMap<ClassId, Option<bool>> = HashMap::new();
        assignment
            .into_iter()
            .filter_map(|class| {
                *per_class.entry(class).or_insert_with(|| self.query_class_inner(class, query))
            })
            .collect()
    }

    /// Attempts a memo-shard lock within the configured budget: blocking
    /// (with poison recovery) when no budget is set, else bounded tries.
    fn budget_read<'a>(
        &self,
        shard: &'a RwLock<MemoShard>,
    ) -> Option<RwLockReadGuard<'a, MemoShard>> {
        match self.config.memo_lock_budget {
            None => Some(read_recover(shard, &self.counters)),
            Some(budget) => {
                for _ in 0..=budget {
                    match shard.try_read() {
                        Ok(guard) => return Some(guard),
                        Err(TryLockError::Poisoned(poisoned)) => {
                            self.counters.lock_recoveries.fetch_add(1, Ordering::Relaxed);
                            return Some(poisoned.into_inner());
                        }
                        Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                    }
                }
                None
            }
        }
    }

    /// Write-lock analogue of [`budget_read`](Self::budget_read).
    fn budget_write<'a>(
        &self,
        shard: &'a RwLock<MemoShard>,
    ) -> Option<RwLockWriteGuard<'a, MemoShard>> {
        match self.config.memo_lock_budget {
            None => Some(write_recover(shard, &self.counters)),
            Some(budget) => {
                for _ in 0..=budget {
                    match shard.try_write() {
                        Ok(guard) => return Some(guard),
                        Err(TryLockError::Poisoned(poisoned)) => {
                            self.counters.lock_recoveries.fetch_add(1, Ordering::Relaxed);
                            return Some(poisoned.into_inner());
                        }
                        Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                    }
                }
                None
            }
        }
    }

    /// Evaluates a query directly on a class representative (the un-memoised
    /// path); `None` if the class died in the meantime. This is the cheap
    /// degradation route (memo disabled, lock budget exhausted): the direct
    /// combinatorial algorithms, no program machinery.
    fn eval_on_representative(&self, class: ClassId, query: &TopologicalQuery) -> Option<bool> {
        let rep = self.class_representative(class)?;
        Some(evaluate_on_invariant(query, &rep))
    }

    /// Evaluates a query on a class representative through the goal-directed
    /// Datalog path — the route memo *fills* take, so each per-(class, query)
    /// answer is computed once by the demand-driven evaluator and then served
    /// from the memo. Observationally identical to
    /// [`eval_on_representative`](Self::eval_on_representative) (the
    /// equivalence suites pin both paths against the one-shot oracle); memo
    /// keys and answers are unchanged.
    fn eval_goal_directed_on_representative(
        &self,
        class: ClassId,
        query: &TopologicalQuery,
    ) -> Option<bool> {
        let rep = self.class_representative(class)?;
        Some(evaluate_goal_directed(query, &rep))
    }

    fn query_class_inner(&self, class: ClassId, query: &TopologicalQuery) -> Option<bool> {
        if self.config.memo_capacity == 0 {
            self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);
            return self.eval_on_representative(class, query);
        }
        let shard = &self.memo[self.shard_of(class, query)];
        match self.budget_read(shard) {
            Some(guard) => {
                if let Some(entry) = guard.map.get(&(class, *query)) {
                    entry
                        .last_used
                        .store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                    self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(entry.answer);
                }
            }
            None => {
                // Lock budget exhausted: degrade to a direct evaluation on
                // the representative rather than blocking the caller.
                self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);
                self.counters.fallback_evals.fetch_add(1, Ordering::Relaxed);
                return self.eval_on_representative(class, query);
            }
        }
        self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);
        // Evaluate on the shared-immutable representative outside any lock:
        // racing threads at worst duplicate this evaluation, and both write
        // the same answer below.
        let answer = self.eval_goal_directed_on_representative(class, query)?;
        let Some(mut shard) = self.budget_write(shard) else {
            // Could not record the answer within the budget; the answer
            // itself is already computed, so serve it un-memoised.
            self.counters.fallback_evals.fetch_add(1, Ordering::Relaxed);
            return Some(answer);
        };
        let capacity = self.shard_capacity();
        if shard.map.len() >= capacity && !shard.map.contains_key(&(class, *query)) {
            // LRU-ish eviction: drop the shard's least-recently-stamped
            // entry. Shards are small (capacity / shards), so the scan is
            // cheap relative to the evaluation that preceded it.
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                shard.map.remove(&oldest);
                self.counters.memo_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            (class, *query),
            MemoEntry {
                answer,
                last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
            },
        );
        Some(answer)
    }

    pub(crate) fn shard_of(&self, class: ClassId, query: &TopologicalQuery) -> usize {
        let mut hasher = DefaultHasher::new();
        class.hash(&mut hasher);
        query.hash(&mut hasher);
        (hasher.finish() as usize) % self.memo.len()
    }

    fn shard_capacity(&self) -> usize {
        (self.config.memo_capacity / self.memo.len()).max(1)
    }

    // ----- inspection --------------------------------------------------------

    /// Number of live instances (removed instances no longer count).
    pub fn instance_count(&self) -> usize {
        read_recover(&self.instances, &self.counters).live
    }

    /// Number of live isomorphism classes (GC'd classes no longer count).
    pub fn class_count(&self) -> usize {
        read_recover(&self.classes, &self.counters).live
    }

    /// The class an instance was deduplicated into, or `None` for an unknown
    /// or removed id.
    pub fn class_of(&self, instance: InstanceId) -> Option<ClassId> {
        *read_recover(&self.instances, &self.counters).slots.get(instance)?
    }

    /// The shared representative invariant of a class, or `None` for an
    /// unknown or garbage-collected class id. The `Arc` is the very
    /// allocation ingested first into the class — the store never deep-copies
    /// an invariant.
    pub fn class_representative(&self, class: ClassId) -> Option<Arc<TopologicalInvariant>> {
        read_recover(&self.classes, &self.counters).reps.get(class)?.clone()
    }

    /// The live members of a class in ingest order, or `None` for an unknown
    /// or garbage-collected class id.
    pub fn class_members(&self, class: ClassId) -> Option<Vec<InstanceId>> {
        let classes = read_recover(&self.classes, &self.counters);
        classes.reps.get(class)?.as_ref()?;
        classes.members.get(class).cloned()
    }

    /// A consistent snapshot of the partition of all live instances into
    /// isomorphism classes, in order of first appearance — the same shape
    /// (and, for single-threaded ingest without removals, the same value) as
    /// `topo_queries::isomorphism_classes` on the ingested invariants.
    /// Garbage-collected classes are skipped.
    pub fn classes(&self) -> Vec<Vec<InstanceId>> {
        let classes = read_recover(&self.classes, &self.counters);
        classes
            .members
            .iter()
            .zip(classes.reps.iter())
            .filter(|(_, rep)| rep.is_some())
            .map(|(members, _)| members.clone())
            .collect()
    }

    /// Drops every memoised answer, counting them into
    /// [`StoreStats::memo_invalidated`] (hit/miss/eviction counters are
    /// kept). Queries re-evaluate and re-fill the memo afterwards; answers
    /// are unaffected.
    pub fn clear_memo(&self) {
        let mut cleared = 0u64;
        for shard in &self.memo {
            let mut shard = write_recover(shard, &self.counters);
            cleared += shard.map.len() as u64;
            shard.map.clear();
        }
        self.counters.memo_invalidated.fetch_add(cleared, Ordering::Relaxed);
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        // Respects the lock budget like every memo access: a shard frozen
        // past the budget contributes 0 to the gauge instead of blocking
        // the stats call behind it.
        let memo_entries =
            self.memo.iter().map(|s| self.budget_read(s).map_or(0, |g| g.map.len())).sum();
        let c = &self.counters;
        StoreStats {
            instances: self.instance_count(),
            classes: self.class_count(),
            memo_entries,
            memo_hits: c.memo_hits.load(Ordering::Relaxed),
            memo_misses: c.memo_misses.load(Ordering::Relaxed),
            memo_evictions: c.memo_evictions.load(Ordering::Relaxed),
            memo_invalidated: c.memo_invalidated.load(Ordering::Relaxed),
            dedup_hits: c.dedup_hits.load(Ordering::Relaxed),
            hash_collisions: c.hash_collisions.load(Ordering::Relaxed),
            removals: c.removals.load(Ordering::Relaxed),
            updates: c.updates.load(Ordering::Relaxed),
            gc_classes: c.gc_classes.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            fallback_evals: c.fallback_evals.load(Ordering::Relaxed),
            lock_recoveries: c.lock_recoveries.load(Ordering::Relaxed),
            wal_appends: c.wal_appends.load(Ordering::Relaxed),
            wal_errors: c.wal_errors.load(Ordering::Relaxed),
            snapshots: c.snapshots.load(Ordering::Relaxed),
            replayed_records: c.replayed_records.load(Ordering::Relaxed),
            wal_truncations: c.wal_truncations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests;
