//! `bulk_ingest`: write-only batch ingest across the whole pool.
//!
//! Set-up generates one round of instances: distinct landcover, hydro and
//! city maps at grids 12 to 16, plus homeomorphic copies of some of them, so
//! both the admitting and the deduplicating WAL paths run. The timed phase
//! ingests the round into a fresh persistent store in fixed-size
//! `ingest_batch` calls, and repeats with a new store until the time is up.
//! There are no queries. An op is one instance ingested.

use std::time::Instant;

use topo_core::{top, CanonicalCode, IngestOutcome, SpatialInstance};

use crate::inputs::{homeomorphic_copy, Rng, FAMILIES};
use crate::paths::{ingest_batch, partition_errors, warm_paths, Served};
use crate::reference::Clock;
use crate::stats::Report;
use crate::trace::Tracer;
use crate::PhaseOutcome;

const GRIDS: [usize; 5] = [12, 13, 14, 15, 16];
const DISTINCT: usize = 48;
const DUPLICATES: usize = 16;
const BATCH: usize = 16;

pub struct State {
    round: Vec<SpatialInstance>,
    warm_wrong: u64,
}

/// Ingests the round into a fresh store; returns the store, the outcomes
/// and each batch's wall time in ms.
fn ingest_round(
    round: &[SpatialInstance],
    clock: &mut Clock,
    t: Option<&Tracer>,
) -> (Served, Vec<IngestOutcome>, Vec<f64>) {
    let served = Served::fresh();
    let mut outcomes = Vec::with_capacity(round.len());
    let mut batch_ms = Vec::new();
    for batch in round.chunks(BATCH) {
        let start = Instant::now();
        outcomes.extend(ingest_batch(&served, batch, t));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        clock.op(ms);
        batch_ms.push(ms);
    }
    (served, outcomes, batch_ms)
}

pub fn setup(seed: u64, t: Option<&Tracer>) -> State {
    let mut rng = Rng::new(seed);
    let mut round: Vec<SpatialInstance> = (0..DISTINCT)
        .map(|i| FAMILIES[i % 3].generate(GRIDS[(i / 3) % GRIDS.len()], rng.next_u64()))
        .collect();
    for k in 0..DUPLICATES {
        let original = rng.below(DISTINCT);
        round.push(homeomorphic_copy(&round[original], 1 + k % 2));
    }
    rng.shuffle(&mut round);
    // Warm-up: one untimed round on the timed path, then every other path.
    ingest_round(&round, &mut Clock::new(), t);
    let warm_wrong = warm_paths(seed, t);
    State { round, warm_wrong }
}

pub fn run(state: State, seconds: f64, t: Option<&Tracer>) -> PhaseOutcome {
    let State { round, warm_wrong } = state;
    let (mut batch_ms, mut outcomes, mut clock) = (Vec::new(), Vec::new(), Clock::new());
    let start = Instant::now();
    let last = loop {
        let (served, round_outcomes, times) = ingest_round(&round, &mut clock, t);
        // Between rounds, not timed as ops: a recovery of the round's bytes.
        clock.recovery(served.recover_ms(t));
        batch_ms.extend(times);
        outcomes.push(round_outcomes);
        if start.elapsed().as_secs_f64() >= seconds {
            break served;
        }
    };
    let peak_rss_mb = crate::stats::peak_rss_mb();

    // Expected outcomes from cold canonical codes: an instance opens a class
    // iff no earlier instance of the round has its code.
    let codes: Vec<CanonicalCode> = round.iter().map(|i| top(i).canonical_code().clone()).collect();
    let expected: Vec<bool> = (0..round.len()).map(|i| !codes[..i].contains(&codes[i])).collect();
    let failed = outcomes
        .iter()
        .flat_map(|round| round.iter().zip(&expected))
        .filter(|(outcome, &admitted)| match outcome {
            IngestOutcome::Admitted(_) => !admitted,
            IngestOutcome::Deduplicated(_) => admitted,
            IngestOutcome::Rejected => true,
        })
        .count() as u64;
    // A fresh store numbers the round's instances 0, 1, 2, ...
    let partition = partition_errors(&last.store.classes(), |id| codes[id].clone());

    let ops = (outcomes.len() * round.len()) as u64;
    let mut report = Report::default();
    clock.report(ops, &mut report);
    report.add_percentiles("batch_ms_p50", "batch_ms_p90", &batch_ms);
    report.add("wal_bytes_per_op", last.backend.appended() as f64 / round.len() as f64, "B", 1);
    report.add("instances_per_round", round.len() as f64, "count", 1);
    report.add("classes_per_round", expected.iter().filter(|&&a| a).count() as f64, "count", 1);
    report.add("rounds", outcomes.len() as f64, "count", 1);
    let ops_per_ref = clock.ops_per_ref(ops);
    PhaseOutcome {
        attempted: ops,
        failed,
        check_errors: partition + warm_wrong,
        ops_per_ref,
        peak_rss_mb,
        report,
    }
}
