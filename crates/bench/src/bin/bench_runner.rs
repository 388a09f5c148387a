//! Machine-readable perf baseline runner.
//!
//! Seven stages — `construction` (the `top(I)` stages and
//! canonicalisation), `datalog`, `demand`, `store`, `recovery`, `parallel`
//! and `incremental`; see each `measure_*` function — time the seeded
//! cartographic workloads, against the frozen pre-optimisation reference
//! paths where one exists (`topo_core::top_naive`,
//! `topo_core::canonical_code_naive`, `datalog::naive`). Every measurement
//! is one [`topo_bench::Row`] (`stage, workload, scale, metric, value,
//! unit, samples_used, pool_threads, host_threads`); the run writes the
//! rows to one JSON file and prints them as a table on stderr. Ratios such
//! as speedups are not stored: each is the quotient of two rows.
//! BENCHMARKS.md tabulates the committed `BENCH_N.json` records.
//!
//! ```text
//! bench_runner [--quick] [--stage NAME]... [--out PATH] [--compare PREV.json]
//! ```
//!
//! `--quick` drops the sample counts and skips the reference
//! canonicalisation where it is slow (CI smoke coverage). `--stage`
//! (repeatable) restricts the run to the named stages, and `stages_run` in
//! the JSON records which ran. The default output is `BENCH_full.json`
//! (`BENCH_quick.json` with `--quick`), never a committed record.
//! `--compare` reads a previous record first and, after the run, prints
//! every row's ratio to the previous row with the same (stage, workload,
//! scale, metric, pool_threads), flagging ratios outside
//! `1 ± COMPARE_NOISE_BAND`. Requires the `naive-reference` feature:
//!
//! ```text
//! cargo run --release -p topo-bench --features naive-reference \
//!     --bin bench_runner -- --quick --stage demand --out BENCH_ci.json
//! ```

use std::sync::Arc;
use std::time::Instant;
use topo_bench::{
    median_ns, median_ns_with, print_comparison, print_rows, read_record, rows_json, At, Rows,
};
use topo_core::relational::datalog::naive as datalog_naive;
use topo_core::relational::Term;
use topo_core::spatial::transform::AffineMap;
use topo_core::{
    datalog_program, program_structure, quadratic_connectivity_program, Goal, InvariantStore,
    MaintainedInvariant, MemoryBackend, Region, Semantics, SpatialInstance, StoreConfig,
    TopologicalInvariant, TopologicalQuery,
};
use topo_datagen::{
    figure1, ign_city, nested_rings, sequoia_hydro, sequoia_landcover, star, Scale,
};

const FULL_SAMPLES: usize = 15;
const QUICK_SAMPLES: usize = 5;
const GRIDS: [usize; 3] = [8, 16, 28];
/// Spoke counts of the high-degree `star` rows (construction only: one hub
/// vertex meets every spoke).
const STAR_SPOKES: [usize; 3] = [256, 1024, 2048];
/// Scales for the datalog and demand stages: the naive engine's
/// connectivity cost grows with `|region cells|² × |adjacency|`, so its
/// tractable range ends far below the construction scales.
const DATALOG_GRIDS: [usize; 3] = [3, 5, 8];
const SEED: u64 = 7;
/// The reference canonicalisation is super-quadratic; above this cell count a
/// single sample would take tens of minutes, so it is recorded as `null`.
const NAIVE_CANONICAL_CELL_LIMIT: usize = 3000;
/// Inner repetitions when timing the (sub-microsecond) cached paths.
const CACHED_REPS: u32 = 1024;
/// Once a workload's naive datalog median exceeds this budget, larger scales
/// of that workload record the reference engine as `null` instead of
/// spending minutes per sample on it.
const NAIVE_DATALOG_BUDGET_NS: u128 = 1_500_000_000;
const NAIVE_DATALOG_BUDGET_QUICK_NS: u128 = 400_000_000;
/// Store stage: ingest and query thread counts for the scoped-thread sweeps.
const STORE_INGEST_THREADS: usize = 8;
const STORE_QUERY_THREADS: usize = 8;
/// Homeomorphic copies per base topology in the duplicate-heavy store mix.
const STORE_COPIES: usize = 100;
const STORE_COPIES_QUICK: usize = 20;
/// Full passes over every (instance, query) pair each query thread makes.
const STORE_QUERY_ROUNDS: usize = 2;
const STORE_QUERY_ROUNDS_QUICK: usize = 1;
/// Pool sizes the parallel stage sweeps (1 is the sequential fallback).
const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Workload grid for the parallel stage's single-instance reference rows: the
/// largest construction scale, smaller in quick mode.
const PARALLEL_GRID: usize = 28;
const PARALLEL_GRID_QUICK: usize = 12;
/// The bulk round whose WAL the recovery and parallel stages replay:
/// `BULK_ROUND_DISTINCT` landcover, hydro and city maps round-robin at
/// grids 12 to 16, plus `BULK_ROUND_COPIES` homeomorphic copies of some of
/// them, ingested in batches of `BULK_ROUND_BATCH` (a few MB of log).
const BULK_ROUND_GRIDS: [usize; 5] = [12, 13, 14, 15, 16];
const BULK_ROUND_DISTINCT: usize = 48;
const BULK_ROUND_COPIES: usize = 16;
const BULK_ROUND_BATCH: usize = 16;
/// Scales for the incremental-maintenance stage: a small grid where full
/// rebuilds are cheap (the honest case for incremental repair) and a medium
/// grid where they are not.
const INCREMENTAL_GRIDS: [usize; 2] = [4, 16];

/// A seeded datagen workload at a given scale and seed.
type Workload = fn(Scale, u64) -> SpatialInstance;
/// A stage: measures and pushes its rows.
type Stage = fn(&mut Rows, &Ctx);

/// The seeded cartographic workloads, by name.
const WORKLOADS: [(&str, Workload); 3] = [
    ("sequoia_landcover", sequoia_landcover),
    ("sequoia_hydro", sequoia_hydro),
    ("ign_city", ign_city),
];

/// The stages accepted by `--stage`, in run order.
const STAGES: [(&str, Stage); 7] = [
    ("construction", measure_construction),
    ("datalog", measure_datalog),
    ("demand", measure_demand),
    ("store", measure_store),
    ("recovery", measure_persist),
    ("parallel", measure_parallel),
    ("incremental", measure_incremental),
];

/// Run-wide settings every stage reads.
struct Ctx {
    quick: bool,
    samples: usize,
}

impl Ctx {
    /// Times a frozen reference run at one scale unless an earlier scale
    /// already went over the budget. One probe run decides how many samples
    /// the reference can afford: a probe of at most 100 ms earns up to 3
    /// fresh samples, a slower one stands alone as a 1-sample median. A
    /// median over the budget latches `over_budget`, so the larger scales
    /// record the reference as skipped.
    fn naive_budgeted<T>(
        &self,
        over_budget: &mut bool,
        mut run: impl FnMut() -> T,
    ) -> Option<(u128, usize)> {
        if *over_budget {
            return None;
        }
        let probe = median_ns(1, &mut run);
        let (ns, used) = if probe <= 100_000_000 {
            let extra = self.samples.min(3);
            (median_ns(extra, &mut run), extra)
        } else {
            (probe, 1)
        };
        let budget =
            if self.quick { NAIVE_DATALOG_BUDGET_QUICK_NS } else { NAIVE_DATALOG_BUDGET_NS };
        *over_budget = ns > budget;
        Some((ns, used))
    }
}

/// Median cold `canonical_code()`: a fresh invariant per sample
/// (construction is untimed setup; the canonicalisation itself dominates).
fn cold_canonical_ns(instance: &SpatialInstance, samples: usize) -> u128 {
    median_ns_with(
        samples,
        || topo_core::top(instance),
        |invariant| {
            invariant.canonical_code();
            invariant
        },
    )
}

/// Measures the canonicalisation stage on already-built invariants: a cold
/// `canonical_code()`, the cached re-read and warmed isomorphism check (per
/// call), and the reference canonicalisation where it is tractable.
fn measure_canonical(at: &mut At, instance: &SpatialInstance, cells: usize, ctx: &Ctx) {
    let samples = ctx.samples;
    let canonical_samples = samples.min(5);
    at.ns("canonical_first", cold_canonical_ns(instance, canonical_samples), canonical_samples);
    // Cached paths: warm two invariants once, then time per-call medians over
    // batches (a single call is tens of nanoseconds).
    let warm_a = topo_core::top(instance);
    let warm_b = topo_core::top(instance);
    warm_a.canonical_code();
    warm_b.canonical_code();
    let cached_ns = median_ns(samples, || {
        for _ in 0..CACHED_REPS {
            std::hint::black_box(std::hint::black_box(&warm_a).canonical_code());
        }
    }) as f64
        / CACHED_REPS as f64;
    at.push("canonical_cached", Some(cached_ns), "ns", samples);
    let iso_ns = median_ns(samples, || {
        for _ in 0..CACHED_REPS {
            std::hint::black_box(std::hint::black_box(&warm_a).is_isomorphic_to(&warm_b));
        }
    }) as f64
        / CACHED_REPS as f64;
    at.push("iso_cached", Some(iso_ns), "ns", samples);
    // The frozen reference path: super-quadratic, so sample sparsely and skip
    // entirely where a single run would take tens of minutes (or in quick/CI
    // mode, anything beyond the small scales).
    let cell_limit = if ctx.quick { 1100 } else { NAIVE_CANONICAL_CELL_LIMIT };
    let naive_samples =
        (cells <= cell_limit).then(|| if cells <= 500 { samples.min(3) } else { 1 });
    at.reference(
        "naive_canonical",
        naive_samples.map(|n| (median_ns(n, || topo_core::canonical_code_naive(&warm_a)), n)),
    );
}

/// The construction and canonicalisation stage. Every construction stage is
/// timed in isolation (its inputs are prepared untimed), so the medians are
/// genuinely per-stage; `top` is the end-to-end total. `splits` is
/// arrangement phase 1 (`compute_split_points`) alone, a part of
/// `arrangement`. The `star` rows (scale = spoke count) time construction
/// alone.
fn measure_construction(rows: &mut Rows, ctx: &Ctx) {
    let samples = ctx.samples;
    for (name, gen) in WORKLOADS {
        for grid in GRIDS {
            let instance = gen(Scale { grid }, SEED);
            let mut at = rows.at(name, grid);
            let input = instance.to_arrangement_input();
            let splits_ns =
                median_ns(samples, || topo_core::arrangement::compute_split_points(&input));
            at.ns("splits", splits_ns, samples);
            let arrangement_ns =
                median_ns(samples, || topo_core::arrangement::build_arrangement(&input));
            at.ns("arrangement", arrangement_ns, samples);
            let arrangement = topo_core::arrangement::build_arrangement(&input);
            let classify = || {
                topo_core::invariant::construct::classify_arrangement(
                    &instance,
                    &input,
                    &arrangement,
                )
            };
            at.ns("classify", median_ns(samples, classify), samples);
            let reduce_ns = median_ns_with(samples, classify, |mut complex| {
                complex.reduce();
                complex
            });
            at.ns("reduce", reduce_ns, samples);
            let mut complex = topo_core::invariant::build_complex(&instance);
            complex.reduce();
            let freeze_ns = median_ns(samples, || {
                TopologicalInvariant::from_complex(&complex, instance.schema().clone())
            });
            at.ns("freeze", freeze_ns, samples);
            at.ns("top", median_ns(samples, || topo_core::top(&instance)), samples);
            let naive_arrangement_ns =
                median_ns(samples, || topo_core::arrangement::build_arrangement_naive(&input));
            at.ns("naive_arrangement", naive_arrangement_ns, samples);
            at.ns("naive_top", median_ns(samples, || topo_core::top_naive(&instance)), samples);
            // Cheap re-freeze of the already-reduced complex; avoids one more
            // full end-to-end run just to read the cell count and sweep
            // statistics: the largest skeleton component, its Lemma 3.1 start
            // choices, and the choices surviving the refined start filter.
            let frozen = TopologicalInvariant::from_complex(&complex, instance.schema().clone());
            let cells = frozen.cell_count();
            at.count("cells", cells as u64);
            let giant = topo_core::sweep_stats(&frozen);
            at.count("giant_skeleton_cells", giant.giant_skeleton_cells as u64);
            at.count("giant_choices", giant.giant_choices as u64);
            at.count("giant_surviving_choices", giant.giant_surviving_choices as u64);
            measure_canonical(&mut at, &instance, cells, ctx);
        }
    }
    // The high-degree worst case: every spoke of a star meets every other at
    // the hub. Construction only; the reference builders test every spoke
    // pair and its canonicalisation is not the subject here.
    for n in STAR_SPOKES {
        let instance = star(n);
        let mut at = rows.at("star", n);
        let input = instance.to_arrangement_input();
        let splits_ns = median_ns(samples, || topo_core::arrangement::compute_split_points(&input));
        at.ns("splits", splits_ns, samples);
        let arrangement_ns =
            median_ns(samples, || topo_core::arrangement::build_arrangement(&input));
        at.ns("arrangement", arrangement_ns, samples);
        at.ns("top", median_ns(samples, || topo_core::top(&instance)), samples);
        at.count("cells", topo_core::top(&instance).cell_count() as u64);
    }
}

/// Measures the `topo_queries::programs` fixpoint programs (stratified — the
/// mode the query library evaluates under) on the prepared invariant export
/// (`program_structure`, which adds the successor scaffolding the linear
/// connectivity program walks) of each scale: the delta-driven engine
/// against the frozen `datalog::naive` oracle, budget-capped per program.
fn measure_datalog(rows: &mut Rows, ctx: &Ctx) {
    let queries = [
        ("is_connected_semi", "is_connected_naive", TopologicalQuery::IsConnected(0)),
        ("has_hole_semi", "has_hole_naive", TopologicalQuery::HasHole(0)),
    ];
    for (name, gen) in WORKLOADS {
        let mut over_budget = [false; 2];
        for grid in DATALOG_GRIDS {
            let instance = gen(Scale { grid }, SEED);
            let invariant = topo_core::top(&instance);
            let structure = program_structure(&invariant);
            let mut at = rows.at(name, grid);
            at.count("cells", invariant.cell_count() as u64);
            for (p, (semi, naive, query)) in queries.iter().enumerate() {
                let program = datalog_program(query, instance.schema()).expect("program available");
                let semi_ns = median_ns(ctx.samples, || {
                    program.run(&structure, Semantics::Stratified, usize::MAX)
                });
                at.ns(semi, semi_ns, ctx.samples);
                let naive_ns = ctx.naive_budgeted(&mut over_budget[p], || {
                    datalog_naive::run(&program, &structure, Semantics::Stratified, usize::MAX)
                });
                at.reference(naive, naive_ns);
            }
        }
    }
}

/// Measures the goal-directed demand path on each scale's prepared export:
/// the library's linear connectivity program under `run_goal` (magic-set
/// rewrite, then the unchanged semi-naive engine) vs plain bottom-up `run`,
/// both against the quadratic connectivity program the query library used
/// before (semi-naive, and the frozen naive oracle under the usual budget).
/// The `reach_*` demo rewrites the quadratic program for the bound goal
/// `Reach(seed, y)` — single-source instead of all-pairs reachability —
/// where the rewrite's restriction is asymptotic rather than constant-factor.
fn measure_demand(rows: &mut Rows, ctx: &Ctx) {
    let samples = ctx.samples;
    for (name, gen) in WORKLOADS {
        let mut naive_over_budget = false;
        for grid in DATALOG_GRIDS {
            let instance = gen(Scale { grid }, SEED);
            let invariant = topo_core::top(&instance);
            let structure = program_structure(&invariant);
            let mut at = rows.at(name, grid);
            at.count("cells", invariant.cell_count() as u64);
            let linear = datalog_program(&TopologicalQuery::IsConnected(0), instance.schema())
                .expect("connectivity program available");
            let goal = linear.goal_atom();
            let goal_ns = median_ns(samples, || {
                linear.run_goal(&goal, &structure, Semantics::Stratified, usize::MAX)
            });
            at.ns("linear_goal", goal_ns, samples);
            let bottomup_ns =
                median_ns(samples, || linear.run(&structure, Semantics::Stratified, usize::MAX));
            at.ns("linear_bottomup", bottomup_ns, samples);
            let quadratic = quadratic_connectivity_program(instance.schema(), 0);
            let quadratic_ns =
                median_ns(samples, || quadratic.run(&structure, Semantics::Stratified, usize::MAX));
            at.ns("quadratic_semi", quadratic_ns, samples);
            let naive_ns = ctx.naive_budgeted(&mut naive_over_budget, || {
                datalog_naive::run(&quadratic, &structure, Semantics::Stratified, usize::MAX)
            });
            at.reference("quadratic_naive", naive_ns);
            // Bound-goal demo: seed from the first derived Reach tuple (any
            // cell of the region), then Reach(seed, y) goal-directed vs the
            // full bottom-up run + answer lookup. No Reach tuple, no demo.
            let full = quadratic
                .run(&structure, Semantics::Stratified, usize::MAX)
                .expect("quadratic program runs");
            let seed = full.relation("Reach").and_then(|r| r.sorted_tuples().first().map(|t| t[0]));
            if let Some(seed) = seed {
                let reach_goal = Goal::new("Reach", vec![Term::Const(seed), Term::Var(0)]);
                let answers = quadratic
                    .run_goal(&reach_goal, &structure, Semantics::Stratified, usize::MAX)
                    .expect("goal-directed run succeeds")
                    .len();
                at.count("reach_seed", u64::from(seed));
                at.count("reach_answers", answers as u64);
                let reach_goal_ns = median_ns(samples, || {
                    quadratic.run_goal(&reach_goal, &structure, Semantics::Stratified, usize::MAX)
                });
                at.ns("reach_goal", reach_goal_ns, samples);
                let reach_full_ns = median_ns(samples, || {
                    quadratic.run(&structure, Semantics::Stratified, usize::MAX).map(|r| {
                        topo_core::relational::datalog::magic::goal_answers(
                            &r,
                            "Reach",
                            &reach_goal,
                        )
                    })
                });
                at.ns("reach_full", reach_full_ns, samples);
            }
        }
    }
}

/// The store mix: the three cartographic generators over two seeds and three
/// small grids, plus the running examples, each repeated under `copies`
/// homeomorphic images (translation / rotation / reflection round-robin).
/// Copy-major order spreads the duplicates across the ingest stream, the way
/// a service would see them arrive.
fn store_workload(copies: usize) -> (usize, Vec<SpatialInstance>) {
    let mut bases: Vec<SpatialInstance> = Vec::new();
    for seed in [1u64, 7] {
        for grid in [3usize, 4, 5] {
            let scale = Scale { grid };
            bases.push(sequoia_landcover(scale, seed));
            bases.push(sequoia_hydro(scale, seed));
            bases.push(ign_city(scale, seed));
        }
    }
    bases.push(figure1());
    bases.push(nested_rings(3, 2));
    bases.push(nested_rings(2, 3));
    let mut out = Vec::with_capacity(bases.len() * copies);
    for k in 0..copies {
        let shift = AffineMap::translation(k as i64 * 130_001, -(k as i64) * 70_003);
        let map = match k % 4 {
            1 => AffineMap::rotation90().compose(&shift),
            2 => AffineMap::reflection_x().compose(&shift),
            3 => AffineMap::rotation90().compose(&AffineMap::reflection_x()).compose(&shift),
            _ => shift,
        };
        for base in &bases {
            out.push(map.apply_instance(base));
        }
    }
    (bases.len(), out)
}

/// Ingests `instances` into `store` from [`STORE_INGEST_THREADS`] scoped
/// threads, each taking one contiguous slice.
fn store_ingest(store: &InvariantStore, instances: &[SpatialInstance]) {
    let chunk = instances.len().div_ceil(STORE_INGEST_THREADS);
    std::thread::scope(|s| {
        for slice in instances.chunks(chunk) {
            s.spawn(move || {
                for instance in slice {
                    store.ingest_invariant(Arc::new(topo_core::top(instance)));
                }
            });
        }
    });
}

/// One timed sweep: every query thread walks every (instance, query) pair
/// `rounds` times, staggered so threads touch different keys at any moment.
fn store_query_sweep(
    store: &InvariantStore,
    instances: usize,
    queries: &[TopologicalQuery],
    rounds: usize,
) -> u128 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..STORE_QUERY_THREADS {
            s.spawn(move || {
                for _ in 0..rounds {
                    for step in 0..instances {
                        let id = (step + t * 101) % instances;
                        for query in queries {
                            std::hint::black_box(store.query(id, query));
                        }
                    }
                }
            });
        }
    });
    start.elapsed().as_nanos()
}

/// Measures the store stage: multi-threaded ingest (the full `top(I)` +
/// canonicalisation + content-addressing pipeline per instance), then the
/// same query sweep against a memoising store and the memo-disabled
/// baseline — their quotient is what class-level memoisation buys on a
/// duplicate-heavy mix. Each is one timed run.
fn measure_store(rows: &mut Rows, ctx: &Ctx) {
    let copies = if ctx.quick { STORE_COPIES_QUICK } else { STORE_COPIES };
    let (bases, instances) = store_workload(copies);
    let queries = topo_bench::strategy_queries();
    let rounds = if ctx.quick { STORE_QUERY_ROUNDS_QUICK } else { STORE_QUERY_ROUNDS };

    let store = InvariantStore::default();
    let start = Instant::now();
    store_ingest(&store, &instances);
    let ingest_ns = start.elapsed().as_nanos();
    let memo_ns = store_query_sweep(&store, instances.len(), &queries, rounds);
    let stats = store.stats();
    // The baseline store deduplicates identically but answers every query by
    // evaluating on the class representative (ingested untimed).
    let baseline = InvariantStore::new(StoreConfig::without_memo());
    store_ingest(&baseline, &instances);
    let nomemo_ns = store_query_sweep(&baseline, instances.len(), &queries, rounds);

    let mut at = rows.at("store_mix", copies);
    at.count("instances", instances.len() as u64);
    at.count("bases", bases as u64);
    at.count("classes", store.class_count() as u64);
    at.count("dedup_hits", stats.dedup_hits);
    at.count("ingest_threads", STORE_INGEST_THREADS as u64);
    at.count("query_threads", STORE_QUERY_THREADS as u64);
    at.ns("ingest", ingest_ns, 1);
    at.count(
        "queries_per_sweep",
        (STORE_QUERY_THREADS * rounds * instances.len() * queries.len()) as u64,
    );
    at.ns("memo_sweep", memo_ns, 1);
    at.push("memo_hit_rate", Some(stats.hit_rate()), "ratio", 1);
    at.ns("nomemo_sweep", nomemo_ns, 1);
}

/// A compact duplicate-heavy invariant pool for the durability stage: six
/// small bases, `copies` homeomorphic images each, pre-canonicalised so the
/// timed sections measure the persistence layer rather than `top(I)`.
fn persist_workload(copies: usize) -> Vec<Arc<TopologicalInvariant>> {
    let scale = Scale { grid: 3 };
    let bases = [
        sequoia_landcover(scale, 1),
        sequoia_hydro(scale, 1),
        ign_city(scale, 1),
        figure1(),
        nested_rings(2, 2),
        nested_rings(3, 2),
    ];
    let mut out = Vec::with_capacity(bases.len() * copies);
    for k in 0..copies {
        let shift = AffineMap::translation(k as i64 * 91_003, -(k as i64) * 47_057);
        let map = match k % 3 {
            1 => AffineMap::rotation90().compose(&shift),
            2 => AffineMap::reflection_x().compose(&shift),
            _ => shift,
        };
        for base in &bases {
            let invariant = Arc::new(topo_core::top(&map.apply_instance(base)));
            invariant.canonical_code();
            out.push(invariant);
        }
    }
    out
}

/// Measures the snapshot + WAL durability layer at three workload sizes:
/// WAL-logged ingest (append throughput), WAL-only recovery (replay
/// throughput), checkpoint (snapshot write), snapshot-only recovery
/// (snapshot load + decode) and a mixed snapshot + WAL recovery — all on
/// the in-memory backend, so the medium costs nothing and the format and
/// replay machinery are what is timed. These logs hold kilobytes and replay
/// on the sequential path; a last row replays a bulk round's MB-scale log,
/// whose records decode across the pool.
fn measure_persist(rows: &mut Rows, ctx: &Ctx) {
    let copies_list: [usize; 3] = if ctx.quick { [2, 4, 8] } else { [4, 10, 24] };
    let samples = if ctx.quick { 3 } else { 7 };
    for copies in copies_list {
        let invariants = persist_workload(copies);
        let mut at = rows.at("persist_mix", copies);

        // WAL-logged ingest (codes pre-warmed: locking + content addressing
        // + record encoding + append), plus a removal tail so the log holds
        // the full operation vocabulary.
        let backend = MemoryBackend::new();
        let store = InvariantStore::open(StoreConfig::default(), backend.clone())
            .expect("open empty store");
        let start = Instant::now();
        for invariant in &invariants {
            store.ingest_invariant(invariant.clone());
        }
        let ingest_log_ns = start.elapsed().as_nanos();
        let mut removed = 0u64;
        for id in (0..invariants.len()).step_by(10) {
            store.remove_instance(id);
            removed += 1;
        }
        at.ns("ingest_log", ingest_log_ns, 1);
        at.count("wal_records", invariants.len() as u64 + removed);
        at.push("wal_bytes", Some(backend.wal_bytes().len() as f64), "bytes", 1);

        // WAL-only recovery: replay every record from an empty base state.
        at.ns("wal_replay", recover_ns(&backend, samples), samples);

        // Checkpoint: encode + write the snapshot (the first call also
        // resets the WAL; later samples re-write the same state).
        let snapshot_write_ns = median_ns(samples, || store.checkpoint().expect("checkpoint"));
        at.ns("snapshot_write", snapshot_write_ns, samples);
        let snapshot_bytes = backend.snapshot_bytes().map_or(0, |b| b.len());
        at.push("snapshot_bytes", Some(snapshot_bytes as f64), "bytes", 1);

        // Snapshot-only recovery (the WAL is empty after the checkpoint).
        at.ns("snapshot_load", recover_ns(&backend, samples), samples);

        // Mixed recovery: a second generation of ingests (all dedup hits)
        // lands in the fresh WAL on top of the snapshot.
        for invariant in &invariants {
            store.ingest_invariant(invariant.clone());
        }
        at.ns("mixed_recover", recover_ns(&backend, samples), samples);
        at.count("instances", store.instance_count() as u64);
        at.count("classes", store.class_count() as u64);
    }

    // WAL-only recovery of an MB-scale log, large enough for replay to
    // decode its records across the pool.
    let (backend, instances) = bulk_round_backend();
    let mut at = rows.at("bulk_round", instances);
    at.push("wal_bytes", Some(backend.wal_bytes().len() as f64), "bytes", 1);
    at.ns("wal_replay", recover_ns(&backend, samples), samples);
}

/// A persistent store's backend after one bulk round (see
/// [`BULK_ROUND_DISTINCT`]): every record is in the WAL, none in a snapshot.
/// Returns the backend and the number of instances ingested.
fn bulk_round_backend() -> (Arc<MemoryBackend>, usize) {
    let mut round: Vec<SpatialInstance> = (0..BULK_ROUND_DISTINCT)
        .map(|i| {
            let grid = BULK_ROUND_GRIDS[(i / 3) % BULK_ROUND_GRIDS.len()];
            WORKLOADS[i % 3].1(Scale { grid }, SEED + i as u64)
        })
        .collect();
    for k in 0..BULK_ROUND_COPIES {
        let map = AffineMap::translation(k as i64 * 130_001, -(k as i64) * 70_003);
        let map = if k % 2 == 1 { AffineMap::rotation90().compose(&map) } else { map };
        round.push(map.apply_instance(&round[(k * 7) % BULK_ROUND_DISTINCT]));
    }
    let backend = MemoryBackend::new();
    let store =
        InvariantStore::open(StoreConfig::default(), backend.clone()).expect("open empty store");
    for batch in round.chunks(BULK_ROUND_BATCH) {
        store.ingest_batch(batch);
    }
    (backend, round.len())
}

/// Median time to recover a store from `backend`, at the current pool size.
fn recover_ns(backend: &Arc<MemoryBackend>, samples: usize) -> u128 {
    median_ns(samples, || {
        InvariantStore::open(StoreConfig::default(), backend.clone()).expect("recovery")
    })
}

/// Sweeps the in-tree thread pool over [`PARALLEL_THREADS`], measuring the
/// two paths that fan out at each pool size: the batched store ingest (per
/// instance) and the WAL replay of a bulk round (per record). The
/// end-to-end `top(I)` build and a cold canonicalisation of the hydro
/// workload are sequential at every pool size, so they are timed once, at
/// pool 1, as the single-instance reference. The pool size is set
/// via `topo_parallel::set_global_threads` — the same switch `TOPO_THREADS`
/// feeds — and restored afterwards, so each row's `pool_threads` is the size
/// it was measured at. On a host with fewer cores than the sweep asks for,
/// the curve goes flat instead of up.
fn measure_parallel(rows: &mut Rows, ctx: &Ctx) {
    let grid = if ctx.quick { PARALLEL_GRID_QUICK } else { PARALLEL_GRID };
    let samples = if ctx.quick { 3 } else { 5 };
    let instance = sequoia_hydro(Scale { grid }, SEED);
    let mut at = rows.at("sequoia_hydro", grid);
    at.count("cells", topo_core::top(&instance).cell_count() as u64);

    // The batch the store stage ingests at each pool size: homeomorphic
    // copies of three small bases, so canonicalisation dominates and the
    // dedup path is exercised.
    let small = Scale { grid: 4 };
    let bases = [sequoia_landcover(small, SEED), sequoia_hydro(small, SEED), ign_city(small, SEED)];
    let mut batch: Vec<SpatialInstance> = Vec::new();
    for k in 0..8usize {
        let map = AffineMap::translation(k as i64 * 130_001, -(k as i64) * 70_003);
        for base in &bases {
            batch.push(map.apply_instance(base));
        }
    }
    at.count("batch_size", batch.len() as u64);

    let previous = topo_core::parallel::global_threads();
    topo_core::parallel::set_global_threads(1);
    at.ns("top", median_ns(samples, || topo_core::top(&instance)), samples);
    at.ns("canonical", cold_canonical_ns(&instance, samples), samples);
    for threads in PARALLEL_THREADS {
        topo_core::parallel::set_global_threads(threads);
        let batch_ingest_ns = median_ns_with(samples, InvariantStore::default, |store| {
            store.try_ingest_batch(&batch);
            store
        });
        at.ns("batch_ingest", batch_ingest_ns, samples);
    }
    let (backend, instances) = bulk_round_backend();
    let mut at = rows.at("bulk_round", instances);
    for threads in PARALLEL_THREADS {
        topo_core::parallel::set_global_threads(threads);
        at.ns("wal_replay", recover_ns(&backend, samples), samples);
    }
    topo_core::parallel::set_global_threads(previous);
}

/// Measures the incremental stage: per workload and scale, a maintained
/// instance absorbs remove + re-insert round trips (rotating over the
/// regions) with the canonical hash read back after every edit, vs the two
/// cold rebuilds the same state sequence costs without maintenance. One
/// warm-up pass per region runs untimed and visits every state the timed
/// round trips revisit, so `edit_round_trip` times state-cache hits — the
/// regime maintenance exists for; the cold baseline has no corresponding
/// cache to warm. The cache counters of the timed section (`group_builds`,
/// `group_reuses`, counting whole instance states) record how much work
/// the repairs actually did.
///
/// Two rows price what the cache does not cover: `fresh_edit` replaces one
/// region by the same region of a donor map (same generator, another seed),
/// so every timed edit lands on a state never seen and costs one `top`;
/// `from_empty` adopts the whole instance into an empty maintainer. Both
/// include the `code_hash` read.
fn measure_incremental(rows: &mut Rows, ctx: &Ctx) {
    let samples = ctx.samples;
    for (name, gen) in WORKLOADS {
        for grid in INCREMENTAL_GRIDS {
            let instance = gen(Scale { grid }, SEED);
            let regions = instance.schema().len();
            let mut at = rows.at(name, grid);
            let mut maintained = MaintainedInvariant::from_instance(&instance);
            for r in 0..regions {
                let region = maintained.region(r).clone();
                maintained.remove_region(r);
                maintained.insert_region(r, region);
            }
            at.count("cells", maintained.invariant().cell_count() as u64);
            at.count("regions", regions as u64);
            let before = maintained.stats();

            let mut turn = 0usize;
            let incremental_ns = median_ns(samples, || {
                let r = turn % regions;
                turn += 1;
                let region = maintained.region(r).clone();
                maintained.remove_region(r);
                std::hint::black_box(maintained.invariant().code_hash());
                maintained.insert_region(r, region);
                std::hint::black_box(maintained.invariant().code_hash());
            });
            at.ns("edit_round_trip", incremental_ns, samples);
            let after = maintained.stats();
            at.count("edits", after.edits - before.edits);
            at.count("group_builds", after.group_builds - before.group_builds);
            at.count("group_reuses", after.group_reuses - before.group_reuses);

            // The cold baseline over the identical state sequence: the edited
            // instances are prepared untimed; the rebuilds (and their cold
            // canonicalisations) are what is timed.
            let without: Vec<SpatialInstance> = (0..regions)
                .map(|r| {
                    let mut w = instance.clone();
                    w.set_region(r, Region::new());
                    w
                })
                .collect();
            let mut turn = 0usize;
            let rebuild_ns = median_ns(samples, || {
                let r = turn % regions;
                turn += 1;
                std::hint::black_box(topo_core::top(&without[r]).code_hash());
                std::hint::black_box(topo_core::top(&instance).code_hash());
            });
            at.ns("rebuild_round_trip", rebuild_ns, samples);

            // One maintained copy per sample, with the region it edits and the
            // donor's version of that region, prepared untimed. Only regions
            // whose donor geometry differs are edited, so no edit can land on
            // a cached state.
            let donor = gen(Scale { grid }, SEED + 1);
            let fresh: Vec<usize> =
                (0..regions).filter(|&r| donor.region(r) != instance.region(r)).collect();
            let mut prepared: Vec<(MaintainedInvariant, usize, Region)> = (0..samples)
                .map(|k| {
                    let r = fresh[k % fresh.len()];
                    (MaintainedInvariant::from_instance(&instance), r, donor.region(r).clone())
                })
                .collect();
            let mut turn = 0usize;
            let fresh_ns = median_ns(samples, || {
                let (maintained, r, region) = &mut prepared[turn];
                turn += 1;
                maintained.insert_region(*r, std::mem::take(region));
                maintained.invariant().code_hash()
            });
            at.ns("fresh_edit", fresh_ns, samples);
            for (maintained, _, _) in &prepared {
                assert!(maintained.stats().group_builds > 0, "a fresh_edit hit the state cache");
            }
            let mut edited = instance.clone();
            edited.set_region(fresh[0], donor.region(fresh[0]).clone());
            assert_eq!(
                prepared[0].0.invariant().canonical_code(),
                topo_core::top(&edited).canonical_code(),
                "fresh edit diverged from cold rebuild"
            );

            let from_empty_ns = median_ns(samples, || {
                MaintainedInvariant::from_instance(&instance).invariant().code_hash()
            });
            at.ns("from_empty", from_empty_ns, samples);

            // Differential guard: the maintained invariant ends the
            // measurement bit-identical to a cold rebuild of the same state.
            assert_eq!(
                maintained.invariant().canonical_code(),
                topo_core::top(&instance).canonical_code(),
                "maintained invariant diverged from cold rebuild"
            );
        }
    }
}

fn main() {
    let names: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: bench_runner [--quick] [--stage NAME]... [--out PATH] [--compare PREV.json]"
        );
        eprintln!("stages: {}", names.join(", "));
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut selected: Vec<&str> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--stage" {
            match args.get(i + 1).map(String::as_str) {
                Some(name) if names.contains(&name) => selected.push(name),
                Some(name) => {
                    eprintln!("unknown stage {name:?}; stages: {}", names.join(", "));
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--stage needs a name; stages: {}", names.join(", "));
                    std::process::exit(2);
                }
            }
        }
    }
    let value_of = |flag: &str| args.iter().position(|a| a == flag).map(|i| args.get(i + 1));
    // Read the previous record before measuring, so a bad path fails fast.
    let previous = match value_of("--compare") {
        None => None,
        Some(path) => {
            let Some(path) = path else {
                eprintln!("--compare needs a path");
                std::process::exit(2);
            };
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|t| read_record(&t))
            {
                Ok(rows) => Some((path, rows)),
                Err(e) => {
                    eprintln!("cannot compare against {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    };
    let mode = if quick { "quick" } else { "full" };
    let out_path =
        value_of("--out").flatten().cloned().unwrap_or_else(|| format!("BENCH_{mode}.json"));
    let ctx = Ctx { quick, samples: if quick { QUICK_SAMPLES } else { FULL_SAMPLES } };

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rows = Rows { host_threads, ..Rows::default() };
    let mut stages_run = Vec::new();
    for (name, measure) in STAGES {
        if selected.is_empty() || selected.contains(&name) {
            eprintln!("== {name} ==");
            rows.stage = name;
            measure(&mut rows, &ctx);
            stages_run.push(name);
        }
    }
    std::fs::write(&out_path, rows_json(mode, SEED, &stages_run, &rows.rows))
        .expect("write benchmark record");
    eprintln!("wrote {out_path}");
    print_rows(&rows.rows);
    if let Some((path, previous)) = previous {
        print_comparison(path, &previous, &rows.rows);
    }
}
