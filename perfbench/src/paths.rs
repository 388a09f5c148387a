//! The request paths every workload drives, each in two forms.
//!
//! Untraced, a path is the public composite call a client would make
//! (`InvariantStore::try_ingest_batch`, `InvariantStore::query`,
//! `MaintainedInvariant::insert_region` + `InvariantStore::update_instance`).
//! Traced, the same work is done through the public sub-calls of each layer,
//! with a span around each, so the per-layer times come from the same op
//! sequence as the end-to-end numbers.

use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use topo_core::arrangement::{build_arrangement_from_splits, compute_split_points};
use topo_core::invariant::construct::classify_arrangement;
use topo_core::parallel::Pool;
use topo_core::{
    datalog_program, evaluate_on_invariant, program_structure, top, CanonicalCode, IngestOutcome,
    InstanceId, InvariantStore, MaintainedInvariant, MemoryBackend, Region, RegionId, Semantics,
    SpatialInstance, StorageBackend, StoreConfig, StoreStats, TopologicalInvariant,
    TopologicalQuery,
};

use crate::inputs::{homeomorphic_copy, query_library, Family, FAMILIES};
use crate::trace::{since, LocalSpan, Tracer};

/// A memory backend that also counts the WAL bytes appended through it, so
/// WAL volume is an exact count without copying the log.
pub struct CountingBackend {
    inner: Arc<MemoryBackend>,
    appended: AtomicU64,
}

impl CountingBackend {
    pub fn new() -> Arc<Self> {
        Arc::new(CountingBackend { inner: MemoryBackend::new(), appended: AtomicU64::new(0) })
    }

    /// WAL bytes appended since creation.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// A fresh backend holding the same snapshot and WAL bytes: what a
    /// restarted process would find on disk.
    pub fn copy(&self) -> Arc<Self> {
        let copy = Self::new();
        copy.inner.set_snapshot_bytes(self.inner.snapshot_bytes());
        copy.inner.set_wal_bytes(self.inner.wal_bytes());
        copy
    }
}

impl StorageBackend for CountingBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }
    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_snapshot(bytes)
    }
    fn read_wal(&self) -> io::Result<Vec<u8>> {
        self.inner.read_wal()
    }
    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        self.appended.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append_wal(bytes)
    }
    fn reset_wal(&self) -> io::Result<()> {
        self.inner.reset_wal()
    }
}

/// A persistent store (default configuration) over a counting backend.
pub struct Served {
    pub store: InvariantStore,
    pub backend: Arc<CountingBackend>,
}

impl Served {
    /// Opens (recovers) a store over `backend`.
    pub fn open(backend: Arc<CountingBackend>, t: Option<&Tracer>) -> Served {
        let dyn_backend: Arc<dyn StorageBackend> = backend.clone();
        let open = || InvariantStore::open(StoreConfig::default(), dyn_backend);
        let store = match t {
            None => open(),
            Some(t) => t.span("store.open", open),
        }
        .expect("a memory backend written by the store recovers");
        Served { store, backend }
    }

    /// A store over an empty backend (not traced: there is nothing to
    /// recover).
    pub fn fresh() -> Served {
        Self::open(CountingBackend::new(), None)
    }

    /// Wall time (ms) of one recovery of a copy of this store's current
    /// backend bytes, as a restarted process would find them.
    pub fn recover_ms(&self, t: Option<&Tracer>) -> f64 {
        let backend = self.backend.copy();
        let start = Instant::now();
        let reopened = Served::open(backend, t);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(reopened.store.instance_count());
        ms
    }
}

/// Runs one phase of the chain and records its span: the phases are timed
/// one by one, so time between them is left uncovered.
fn phase<R>(
    origin: Instant,
    phases: &mut Vec<LocalSpan>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let start_ns = since(origin);
    let result = f();
    phases.push(LocalSpan { name, start_ns, end_ns: since(origin), parent: Some(0) });
    result
}

/// `top(I)` plus its canonical code through the public sub-calls of each
/// layer, timing each on the calling (pool worker) thread, and then the
/// release of the intermediate structures, which `top` also pays. Returns
/// the invariant, its spans (the chain span first, the phases under it),
/// and the input segment and invariant cell counts. The chain span is timed
/// on its own, around all of this, so the check that its phases cover it
/// can fail.
fn chain(
    origin: Instant,
    instance: &SpatialInstance,
) -> (Arc<TopologicalInvariant>, Vec<LocalSpan>, usize, usize) {
    let start_ns = since(origin);
    let mut phases = Vec::with_capacity(8);
    let input = phase(origin, &mut phases, "spatial.lower", || instance.to_arrangement_input());
    let splits = phase(origin, &mut phases, "arrangement.splits", || compute_split_points(&input));
    let arrangement = phase(origin, &mut phases, "arrangement.build", || {
        build_arrangement_from_splits(&input, splits)
    });
    let mut complex = phase(origin, &mut phases, "invariant.classify", || {
        classify_arrangement(instance, &input, &arrangement)
    });
    phase(origin, &mut phases, "invariant.reduce", || complex.reduce());
    let invariant = phase(origin, &mut phases, "invariant.freeze", || {
        Arc::new(TopologicalInvariant::from_complex(&complex, instance.schema().clone()))
    });
    phase(origin, &mut phases, "invariant.canonical", || {
        invariant.code_hash();
        invariant.canonical_code();
    });
    let segments = input.segments.len();
    phase(origin, &mut phases, "chain.release", || drop((input, arrangement, complex)));
    let chain = LocalSpan { name: "chain", start_ns, end_ns: since(origin), parent: None };
    let cells = invariant.cell_count();
    let spans = std::iter::once(chain).chain(phases).collect();
    (invariant, spans, segments, cells)
}

/// One `ingest_batch`: the instances are built and canonicalised across the
/// global pool, then admitted under one critical section.
pub fn ingest_batch(
    served: &Served,
    batch: &[SpatialInstance],
    t: Option<&Tracer>,
) -> Vec<IngestOutcome> {
    let Some(t) = t else { return served.store.try_ingest_batch(batch) };
    t.next_request();
    let (dedup, wal) = (served.store.stats().dedup_hits, served.backend.appended());
    let outcomes = t.span("store.ingest_batch", || {
        let origin = t.origin();
        let invariants: Vec<Arc<TopologicalInvariant>> = t.span("parallel.par_map_collect", || {
            let built = Pool::global().par_map_collect(batch, |inst| chain(origin, inst));
            built
                .into_iter()
                .map(|(invariant, spans, segments, cells)| {
                    t.adopt(spans);
                    t.count("arrangement.segments", segments as f64);
                    t.count("invariant.cells", cells as f64);
                    invariant
                })
                .collect()
        });
        let outcomes = t.span("store.try_ingest_invariant_batch", || {
            served.store.try_ingest_invariant_batch(&invariants)
        });
        // Invariants the store did not keep (duplicates) are freed here, as
        // at the end of `try_ingest_batch`.
        t.span("batch.release", || drop(invariants));
        outcomes
    });
    t.count("store.ingested", batch.len() as f64);
    t.count("store.dedup_hits", (served.store.stats().dedup_hits - dedup) as f64);
    t.count("store.ingest_wal_bytes", (served.backend.appended() - wal) as f64);
    outcomes
}

/// One memo fill: `store.query` on a key the memo has not seen. Returns the
/// answer and the call's wall time in ms. Traced, the fill is followed by
/// two sibling spans that redo its evaluation from the benchmark: the
/// goal-directed Datalog route the store's fill takes (`datalog_program`,
/// `program_structure`, `Program::run_goal_boolean` on the class
/// representative) and the native `evaluate_on_invariant` reference.
pub fn fill(
    served: &Served,
    id: InstanceId,
    query: &TopologicalQuery,
    t: Option<&Tracer>,
) -> (Option<bool>, f64) {
    let timed = || {
        let start = Instant::now();
        let answer = served.store.query(id, query);
        (answer, start.elapsed().as_secs_f64() * 1e3)
    };
    let Some(t) = t else { return timed() };
    t.next_request();
    t.span("op.fill", || {
        let before = served.store.stats();
        let (answer, ms) = t.span("store.fill", timed);
        count_memo(t, &before, &served.store.stats());
        let rep = served
            .store
            .class_of(id)
            .and_then(|class| served.store.class_representative(class))
            .expect("a just-answered instance is live");
        let goal = t.span("queries.goal_eval", || {
            match t.span("queries.program", || datalog_program(query, rep.schema())) {
                Some(program) => {
                    let structure = t.span("queries.export", || program_structure(&rep));
                    t.span("relational.run_goal", || {
                        program.run_goal_boolean(&structure, Semantics::Stratified)
                    })
                }
                None => evaluate_on_invariant(query, &rep),
            }
        });
        let native = t.span("queries.native_eval", || evaluate_on_invariant(query, &rep));
        if answer != Some(goal) || goal != native {
            t.count("trace.sibling_mismatches", 1.0);
        }
        (answer, ms)
    })
}

/// A batch of memo hits, timed as one interval (single hits are far below
/// the timer's resolution). Appends the answers; returns the batch's wall
/// time in ms.
pub fn hit_batch(
    served: &Served,
    keys: &[(InstanceId, TopologicalQuery)],
    answers: &mut Vec<Option<bool>>,
    t: Option<&Tracer>,
) -> f64 {
    let mut timed = || {
        let start = Instant::now();
        for (id, query) in keys {
            answers.push(served.store.query(*id, query));
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    match t {
        None => timed(),
        Some(t) => {
            t.next_request();
            let before = served.store.stats();
            let ms = t.span("store.hit_batch", timed);
            count_memo(t, &before, &served.store.stats());
            t.count("store.hit_queries", keys.len() as f64);
            ms
        }
    }
}

/// Memo hits and misses between two `StoreStats` readings.
fn count_memo(t: &Tracer, before: &StoreStats, after: &StoreStats) {
    t.count("store.memo_hits", (after.memo_hits - before.memo_hits) as f64);
    t.count("store.memo_misses", (after.memo_misses - before.memo_misses) as f64);
}

/// One edit step's write half: repair the maintained invariant (`Some`
/// inserts or replaces the region, `None` removes it), then move the store
/// instance to the repaired invariant's class. Returns the update's outcome
/// and the wall time in ms.
pub fn edit(
    served: &Served,
    map: &mut MaintainedInvariant,
    id: InstanceId,
    region: RegionId,
    replacement: Option<Region>,
    t: Option<&Tracer>,
) -> (Option<IngestOutcome>, f64) {
    let start = Instant::now();
    let repair = |map: &mut MaintainedInvariant| match replacement {
        Some(new) => map.insert_region(region, new),
        None => map.remove_region(region),
    };
    let Some(t) = t else {
        repair(map);
        let outcome = served.store.update_instance(id, map.invariant().clone());
        return (outcome, start.elapsed().as_secs_f64() * 1e3);
    };
    t.next_request();
    let (maintain, store) = (map.stats(), served.store.stats());
    let outcome = t.span("op.edit", || {
        t.span("invariant.repair", || repair(map));
        t.span("store.update_instance", || {
            served.store.update_instance(id, map.invariant().clone())
        })
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let (maintain_after, store_after) = (map.stats(), served.store.stats());
    t.count("invariant.edits", 1.0);
    t.count("invariant.group_builds", (maintain_after.group_builds - maintain.group_builds) as f64);
    t.count("invariant.group_reuses", (maintain_after.group_reuses - maintain.group_reuses) as f64);
    t.count(
        "invariant.pair_computes",
        (maintain_after.pair_computes - maintain.pair_computes) as f64,
    );
    t.count("invariant.pair_reuses", (maintain_after.pair_reuses - maintain.pair_reuses) as f64);
    t.count("store.gc_classes", (store_after.gc_classes - store.gc_classes) as f64);
    t.count(
        "store.memo_invalidated",
        (store_after.memo_invalidated - store.memo_invalidated) as f64,
    );
    (outcome, ms)
}

/// Cold reference invariants (`top` from scratch), computed once per key.
pub struct Cold<K> {
    cache: HashMap<K, Arc<TopologicalInvariant>>,
}

impl<K: Hash + Eq + Clone> Cold<K> {
    pub fn new() -> Self {
        Cold { cache: HashMap::new() }
    }

    pub fn get(
        &mut self,
        key: &K,
        instance: impl FnOnce() -> SpatialInstance,
    ) -> Arc<TopologicalInvariant> {
        self.cache.entry(key.clone()).or_insert_with(|| Arc::new(top(&instance()))).clone()
    }
}

/// Instances the store's class partition puts on the wrong side of
/// canonical-code equality: members whose code differs from their class's
/// first member, plus classes whose code another class already has.
pub fn partition_errors(
    classes: &[Vec<InstanceId>],
    mut code: impl FnMut(InstanceId) -> CanonicalCode,
) -> u64 {
    let mut seen: HashMap<CanonicalCode, usize> = HashMap::new();
    let mut errors = 0;
    for (index, members) in classes.iter().enumerate() {
        let Some(&first) = members.first() else { continue };
        let class_code = code(first);
        errors += members[1..].iter().filter(|&&m| code(m) != class_code).count() as u64;
        if seen.insert(class_code, index).is_some() {
            errors += 1;
        }
    }
    errors
}

/// Touches every request path once on a throwaway store, so each layer's
/// lazy set-up and first allocations land in set-up time, and so a traced
/// run has spans for every layer in every workload: a batch ingest of small
/// instances (with one homeomorphic duplicate), a recovery, a fill and a hit
/// batch per library query, and a few edit steps with their updates.
/// Returns the number of wrong answers (checked against cold invariants).
pub fn warm_paths(seed: u64, t: Option<&Tracer>) -> u64 {
    let mut instances: Vec<SpatialInstance> =
        FAMILIES.iter().enumerate().map(|(i, f)| f.generate(5, seed + i as u64)).collect();
    instances.push(homeomorphic_copy(&instances[0], 1));
    let first = Served::fresh();
    let ids: Vec<InstanceId> =
        ingest_batch(&first, &instances, t).iter().filter_map(IngestOutcome::id).collect();
    let served = Served::open(first.backend.copy(), t);
    let library = query_library();
    let cold = top(&instances[0]);
    let mut wrong = 0;
    let check = |answer: Option<bool>, query: &TopologicalQuery, cold: &TopologicalInvariant| {
        (answer != Some(evaluate_on_invariant(query, cold))) as u64
    };
    for query in &library {
        let (answer, _) = fill(&served, ids[0], query, t);
        wrong += check(answer, query, &cold);
        let mut answers = Vec::new();
        hit_batch(&served, &[(ids[3], *query); 16], &mut answers, t);
        wrong += answers.into_iter().map(|answer| check(answer, query, &cold)).sum::<u64>();
    }
    let donor = Family::Landcover.generate(5, seed + 99);
    let mut map = MaintainedInvariant::from_instance(&instances[0]);
    let id = served.store.ingest_invariant(map.invariant().clone());
    for region in 0..2 {
        // The donor region opens a new class, so its first query is a fill.
        let (outcome, _) =
            edit(&served, &mut map, id, region, Some(donor.region(region).clone()), t);
        wrong += outcome.is_none_or(|o| o.is_rejected()) as u64;
        let (answer, _) = fill(&served, id, &library[6 + region], t);
        wrong += check(answer, &library[6 + region], &top(&map.instance()));
        // Restoring lands back in the original class, whose answers are
        // memoised.
        let original = instances[0].region(region).clone();
        let (outcome, _) = edit(&served, &mut map, id, region, Some(original), t);
        wrong += outcome.is_none_or(|o| o.is_rejected()) as u64;
        let mut answers = Vec::new();
        hit_batch(&served, &[(id, library[0]); 16], &mut answers, t);
        wrong += answers.into_iter().map(|answer| check(answer, &library[0], &cold)).sum::<u64>();
    }
    wrong
}
