//! Per-layer metrics of a traced run, computed from its spans and counters.
//! The layers are the library crates; each metric is named `<crate>.<what>`.

use crate::stats::{median, min, ratio, Report};
use crate::trace::Tracer;

/// Share of a batch or chain span its children may leave uncovered before
/// the trace counts as inconsistent. Both are timed on their own, and each
/// child is timed one after another, so what is left is the time between
/// children: well under a µs unless the thread is preempted there.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// The two spans whose children must cover them: each `ingest_batch` by its
/// `par_map_collect`, `try_ingest_invariant_batch` and the release of the
/// invariants the store did not keep; each instance's chain by its phases
/// and the release of its intermediate structures.
const COVERED: [&str; 2] = ["store.ingest_batch", "chain"];

/// Batch and chain spans that their children cover by less than
/// `1 - COVERAGE_TOLERANCE`; each is a failed check of the traced run.
pub fn coverage_errors(t: &Tracer) -> u64 {
    let shares = COVERED.iter().flat_map(|span| t.coverage(span));
    shares.filter(|&share| share < 1.0 - COVERAGE_TOLERANCE).count() as u64
}

/// Metrics that are the mean duration of one span: (metric, span, unit,
/// multiplier from ms).
const SPAN_MEANS: [(&str, &str, &str, f64); 13] = [
    ("spatial.lower_ms", "spatial.lower", "ms", 1.0),
    ("arrangement.splits_ms", "arrangement.splits", "ms", 1.0),
    ("arrangement.build_ms", "arrangement.build", "ms", 1.0),
    ("invariant.classify_ms", "invariant.classify", "ms", 1.0),
    ("invariant.reduce_ms", "invariant.reduce", "ms", 1.0),
    ("invariant.freeze_ms", "invariant.freeze", "ms", 1.0),
    ("invariant.canonical_ms", "invariant.canonical", "ms", 1.0),
    ("invariant.repair_ms", "invariant.repair", "ms", 1.0),
    ("queries.export_ms", "queries.export", "ms", 1.0),
    ("queries.native_eval_us", "queries.native_eval", "us", 1e3),
    ("relational.run_goal_ms", "relational.run_goal", "ms", 1.0),
    ("store.update_us", "store.update_instance", "us", 1e3),
    ("store.open_ms", "store.open", "ms", 1.0),
];

/// Metrics that are one counter over the sum of others: (metric,
/// numerator, base counters, unit). Each ingested instance is one chain.
const COUNTER_RATIOS: [(&str, &str, &[&str], &str); 9] = [
    ("arrangement.segments", "arrangement.segments", &["store.ingested"], "count"),
    ("invariant.cells", "invariant.cells", &["store.ingested"], "count"),
    (
        "invariant.group_reuse_ratio",
        "invariant.group_reuses",
        &["invariant.group_reuses", "invariant.group_builds"],
        "1",
    ),
    (
        "invariant.pair_reuse_ratio",
        "invariant.pair_reuses",
        &["invariant.pair_reuses", "invariant.pair_computes"],
        "1",
    ),
    ("store.memo_hit_ratio", "store.memo_hits", &["store.memo_hits", "store.memo_misses"], "1"),
    ("store.dedup_ratio", "store.dedup_hits", &["store.ingested"], "1"),
    ("store.wal_bytes_per_ingest", "store.ingest_wal_bytes", &["store.ingested"], "B"),
    ("store.gc_classes_per_edit", "store.gc_classes", &["invariant.edits"], "count"),
    ("store.memo_invalidated_per_edit", "store.memo_invalidated", &["invariant.edits"], "count"),
];

fn sum(t: &Tracer, name: &str) -> f64 {
    t.durations(name).iter().sum()
}

/// The per-layer metrics. `overhead_ratio` is the traced phase's
/// `ops_per_ref` over the untraced one's.
pub fn report(t: &Tracer, pool_threads: usize, overhead_ratio: f64) -> Report {
    let mut r = Report::default();
    let n = |name: &str| t.durations(name).len();
    for (metric, span, unit, scale) in SPAN_MEANS {
        r.add(metric, t.mean_ms(span) * scale, unit, n(span));
    }
    for (metric, part, base, unit) in COUNTER_RATIOS {
        let base: f64 = base.iter().map(|name| t.counter(name)).sum();
        r.add(metric, ratio(t.counter(part), base), unit, base as usize);
    }

    let program = sum(t, "queries.export") + sum(t, "relational.run_goal");
    r.add("queries.program_share", ratio(program, sum(t, "store.fill")), "1", n("store.fill"));
    let hit_batches = sum(t, "store.hit_batch");
    let hit_ns = ratio(hit_batches, t.counter("store.hit_queries"));
    r.add("store.hit_ns", hit_ns, "ns", n("store.hit_batch"));
    // Median over fills of (fill span - sibling Datalog span): a difference
    // of two timings of comparable size, so the median, not the mean.
    let fill_self = t.differences("store.fill", "queries.goal_eval");
    r.add("store.fill_self_us", median(&fill_self) / 1e3, "us", fill_self.len());
    let ingested = t.counter("store.ingested");
    let ingest_self = ratio(sum(t, "store.try_ingest_invariant_batch"), ingested) / 1e3;
    r.add("store.ingest_self_us", ingest_self, "us", ingested as usize);

    r.add("parallel.threads", pool_threads as f64, "count", 1);
    let speedup = ratio(sum(t, "chain"), sum(t, "parallel.par_map_collect"));
    r.add("parallel.batch_speedup", speedup, "1", n("parallel.par_map_collect"));

    r.add("trace.overhead_ratio", overhead_ratio, "1", 1);
    let batch_coverage = min(&t.coverage("store.ingest_batch"));
    r.add("trace.batch_coverage_min", batch_coverage, "1", n("store.ingest_batch"));
    r.add("trace.chain_coverage_min", min(&t.coverage("chain")), "1", n("chain"));
    r
}
