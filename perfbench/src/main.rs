//! perfbench: seeded closed-loop workloads over the served pipeline.
//!
//! ```text
//! perfbench --workload <query_serve|bulk_ingest|edit_serve> --seed <n>
//!           --seconds <n> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! One client thread drives one workload against the public API. With
//! `--trace 0` the run sets up three times (reporting the median set-up
//! time), runs the timed phase for `--seconds`, checks every answer, and
//! prints the end-to-end metrics. With `--trace 1` it runs the same op
//! sequence twice for half the time each, untraced and then traced, and
//! prints the per-layer metrics (spans are written to `--trace-dir`). The
//! last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod bulk_ingest;
mod edit_serve;
mod inputs;
mod layers;
mod paths;
mod query_serve;
mod reference;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, Report};
use trace::Tracer;

/// What one timed phase produced, before the run-level metrics are added.
pub struct PhaseOutcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops with a wrong answer, a rejected ingest or a failed update.
    pub failed: u64,
    /// Failed checks that are not tied to one op: class-partition errors,
    /// memo accounting, wrong answers during the warm-up.
    pub check_errors: u64,
    /// Host-normalised throughput, for the tracing overhead.
    pub ops_per_ref: f64,
    /// `VmHWM` read right after the timed loop, before the answer checks
    /// (whose cold invariants would otherwise set the high-water mark).
    pub peak_rss_mb: f64,
    pub report: Report,
}

/// The end-to-end metrics on the result line (the ones every workload
/// has); the rest of each workload's metrics are on the report line.
const END_TO_END: [&str; 4] = ["setup_s", "ops_per_ref", "recover_ref", "peak_rss_mb"];
const SETUPS: usize = 3;
/// Kernel runs on each side of a set-up.
const KERNEL_RUNS: usize = 5;
const USAGE: &str = "usage: perfbench --workload <query_serve|bulk_ingest|edit_serve> --seed <n> \
                     --seconds <n> --trace <0|1> [--trace-dir <dir>]";

#[derive(Clone, Copy)]
enum Workload {
    QueryServe,
    BulkIngest,
    EditServe,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "query_serve" => Some(Workload::QueryServe),
            "bulk_ingest" => Some(Workload::BulkIngest),
            "edit_serve" => Some(Workload::EditServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QueryServe => "query_serve",
            Workload::BulkIngest => "bulk_ingest",
            Workload::EditServe => "edit_serve",
        }
    }

    /// The pinned pool size: the latency workloads run the library
    /// sequentially; the bulk workload fans out over every host thread.
    fn pool(self, host_threads: usize) -> usize {
        match self {
            Workload::QueryServe | Workload::EditServe => 1,
            Workload::BulkIngest => host_threads,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_dir = PathBuf::from("perfbench-trace");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

type Setup<S> = fn(u64, Option<&Tracer>) -> S;
type Run<S> = fn(S, f64, Option<&Tracer>) -> PhaseOutcome;

/// The untraced run: median of three set-ups, then the timed phase.
/// `setup_s` is each set-up's wall time at the nominal host speed: scaled
/// by `NOMINAL_KERNEL_MS` over the reference kernel's time around it, as
/// the timed metrics are, so that the host's speed swings do not move it.
fn end_to_end<S>(setup: Setup<S>, run: Run<S>, args: &Args) -> (PhaseOutcome, Report) {
    let (mut setup_s, mut wall_s) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let before = reference::kernel_median_ms(KERNEL_RUNS);
        let start = Instant::now();
        state = Some(setup(args.seed, None));
        let wall = start.elapsed().as_secs_f64();
        let kernel_ms = (before + reference::kernel_median_ms(KERNEL_RUNS)) / 2.0;
        setup_s.push(wall * reference::NOMINAL_KERNEL_MS / kernel_ms);
        wall_s.push(wall);
    }
    let state = state.expect("at least one set-up");
    let outcome = run(state, args.seconds as f64, None);
    let mut report = Report::default();
    report.add("setup_s", median(&setup_s), "s", SETUPS);
    report.add("setup_wall_s", median(&wall_s), "s", SETUPS);
    (outcome, report)
}

/// The traced run: the same op sequence untraced and then traced, half the
/// time each.
fn per_layer<S>(setup: Setup<S>, run: Run<S>, args: &Args, pool: usize) -> (PhaseOutcome, Report) {
    let half = args.seconds as f64 / 2.0;
    let untraced = run(setup(args.seed, None), half, None);
    let tracer = Tracer::new();
    let traced = run(setup(args.seed, Some(&tracer)), half, Some(&tracer));
    let overhead = traced.ops_per_ref / untraced.ops_per_ref;
    let report = layers::report(&tracer, pool, overhead);
    let path = args.trace_dir.join(format!("{}.jsonl", args.workload.name()));
    if let Err(error) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write spans to {}: {error}", path.display());
    }
    // A traced run whose trace contradicts itself is not correct.
    let trace_errors =
        tracer.counter("trace.sibling_mismatches") as u64 + layers::coverage_errors(&tracer);
    let combined = PhaseOutcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        check_errors: untraced.check_errors + traced.check_errors + trace_errors,
        ops_per_ref: traced.ops_per_ref,
        peak_rss_mb: untraced.peak_rss_mb,
        // End-to-end metrics come from untraced runs only.
        report: Report::default(),
    };
    (combined, report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = args.workload.pool(host_threads);
    if pool > host_threads {
        eprintln!("perfbench: pool of {pool} threads refused on a host with {host_threads}");
        return ExitCode::from(2);
    }
    // Pinned before any pool is used, so TOPO_THREADS is never consulted.
    topo_core::parallel::set_global_threads(pool);

    // `front` holds set-up time (untraced) or the per-layer metrics (traced).
    let (outcome, front) = match (args.workload, args.trace) {
        (Workload::QueryServe, false) => end_to_end(query_serve::setup, query_serve::run, &args),
        (Workload::BulkIngest, false) => end_to_end(bulk_ingest::setup, bulk_ingest::run, &args),
        (Workload::EditServe, false) => end_to_end(edit_serve::setup, edit_serve::run, &args),
        (Workload::QueryServe, true) => {
            per_layer(query_serve::setup, query_serve::run, &args, pool)
        }
        (Workload::BulkIngest, true) => {
            per_layer(bulk_ingest::setup, bulk_ingest::run, &args, pool)
        }
        (Workload::EditServe, true) => per_layer(edit_serve::setup, edit_serve::run, &args, pool),
    };
    let PhaseOutcome { attempted, failed, check_errors, peak_rss_mb, report: phase, .. } = outcome;
    let correct = failed == 0 && check_errors == 0 && attempted > 0;
    let gated: Vec<&str> = if args.trace {
        front.metrics.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.to_vec()
    };

    let mut all = Report::default();
    all.add("peak_rss_mb", peak_rss_mb, "MB", 1);
    all.add("failed_op_ratio", failed as f64 / attempted.max(1) as f64, "1", attempted as usize);
    all.add("check_errors", check_errors as f64, "count", 1);
    all.add("host_threads", host_threads as f64, "count", 1);
    all.add("pool_threads", pool as f64, "count", 1);
    let all = Report {
        metrics: front.metrics.into_iter().chain(phase.metrics).chain(all.metrics).collect(),
    };

    println!(
        "perfbench {} seed {} seconds {} trace {} (host_threads {host_threads}, pool_threads {pool})",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    print!("{}", all.table());
    println!(
        "{{\"workload\": \"{}\", \"report\": {}}}",
        args.workload.name(),
        all.json(None, true)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        all.json(Some(&gated), false)
    );
    ExitCode::SUCCESS
}
