//! `query_serve`: read-only serving from a preloaded store (pool 1).
//!
//! Set-up preloads landcover, hydro and city maps at grid 8, each with three
//! homeomorphic copies, so instances outnumber classes four to one, and
//! recovers the serving store from the preload's backend bytes. A round
//! walks every class in seeded order, interleaving the families: it asks
//! each library query once through a random member of the class (a memo
//! fill), and after each fill sends one batch of seeded repeat queries over
//! the keys answered so far, each through a random member of that key's
//! class (memo hits). Rounds repeat the same script; the memo is cleared
//! between rounds, outside the timing. An op is one query.

use std::time::Instant;

use topo_core::{
    evaluate_on_invariant, IngestOutcome, InstanceId, SpatialInstance, TopologicalQuery,
};

use crate::inputs::{homeomorphic_copy, query_library, Rng, FAMILIES};
use crate::paths::{fill, hit_batch, ingest_batch, partition_errors, warm_paths, Cold, Served};
use crate::reference::Clock;
use crate::stats::{median, Report};
use crate::trace::Tracer;
use crate::PhaseOutcome;

const GRID: usize = 8;
const BASES_PER_FAMILY: usize = 4;
/// Every base is ingested this many times: itself plus homeomorphic copies.
const COPIES: usize = 4;
const PRELOAD_BATCH: usize = 12;
/// Repeat queries per hit batch: about 13 µs of hits at ~100 ns each, far
/// above the timer's resolution.
const HIT_BATCH: usize = 128;

/// One op of the round script.
enum Op {
    Fill(InstanceId, TopologicalQuery),
    Hits(Vec<(InstanceId, TopologicalQuery)>),
}

pub struct State {
    instances: Vec<SpatialInstance>,
    served: Served,
    script: Vec<Op>,
    warm_wrong: u64,
}

/// The round script: every class in seeded order (each family shuffled,
/// then interleaved), every library query once per class, a hit batch after
/// each fill. Instance `i` is a copy of base `i % bases`, and the bases go
/// round-robin over the families.
fn script(classes: Vec<Vec<InstanceId>>, bases: usize, rng: &mut Rng) -> Vec<Op> {
    let mut per_family = vec![Vec::new(); FAMILIES.len()];
    for members in classes {
        per_family[(members[0] % bases) % FAMILIES.len()].push(members);
    }
    for family in &mut per_family {
        rng.shuffle(family);
    }
    let longest = per_family.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<Vec<InstanceId>> = (0..longest)
        .flat_map(|i| per_family.iter().filter_map(move |f| f.get(i).cloned()))
        .collect();
    let library = query_library();
    let mut answered: Vec<(usize, usize)> = Vec::new();
    let mut ops = Vec::new();
    for (c, members) in order.iter().enumerate() {
        for (q, query) in library.iter().enumerate() {
            ops.push(Op::Fill(members[rng.below(members.len())], *query));
            answered.push((c, q));
            let keys = (0..HIT_BATCH)
                .map(|_| {
                    let (c, q) = answered[rng.below(answered.len())];
                    (order[c][rng.below(order[c].len())], library[q])
                })
                .collect();
            ops.push(Op::Hits(keys));
        }
    }
    ops
}

/// Runs the script once; returns each op's wall time (ms) and the answers
/// in script order.
fn round(
    served: &Served,
    script: &[Op],
    clock: &mut Clock,
    t: Option<&Tracer>,
) -> (Vec<f64>, Vec<Option<bool>>) {
    let mut times = Vec::with_capacity(script.len());
    let mut answers = Vec::new();
    for op in script {
        match op {
            Op::Fill(id, query) => {
                let (answer, ms) = fill(served, *id, query, t);
                answers.push(answer);
                times.push(ms);
            }
            Op::Hits(keys) => times.push(hit_batch(served, keys, &mut answers, t)),
        }
        clock.op(*times.last().expect("an op was just timed"));
    }
    (times, answers)
}

pub fn setup(seed: u64, t: Option<&Tracer>) -> State {
    let mut rng = Rng::new(seed);
    let mut bases = Vec::new();
    for _ in 0..BASES_PER_FAMILY {
        for family in FAMILIES {
            bases.push(family.generate(GRID, rng.next_u64()));
        }
    }
    // Copy-major order spreads each class's members over the ingest stream.
    let instances: Vec<SpatialInstance> = (0..COPIES)
        .flat_map(|k| {
            bases.iter().map(move |b| if k == 0 { b.clone() } else { homeomorphic_copy(b, k) })
        })
        .collect();
    let preload = Served::fresh();
    for batch in instances.chunks(PRELOAD_BATCH) {
        let outcomes = ingest_batch(&preload, batch, t);
        assert!(!outcomes.iter().any(IngestOutcome::is_rejected), "unbounded store rejected");
    }
    let served = Served::open(preload.backend.copy(), t);
    let script = script(served.store.classes(), bases.len(), &mut rng);
    // Warm-up: one untimed round, then every other path.
    round(&served, &script, &mut Clock::new(), t);
    served.store.clear_memo();
    let warm_wrong = warm_paths(seed, t);
    State { instances, served, script, warm_wrong }
}

pub fn run(state: State, seconds: f64, t: Option<&Tracer>) -> PhaseOutcome {
    let State { instances, served, script, warm_wrong } = state;
    let stats_before = served.store.stats();
    let (mut rounds, mut answers, mut clock) = (Vec::new(), Vec::new(), Clock::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (times, round_answers) = round(&served, &script, &mut clock, t);
        // Between rounds, not timed as ops: a recovery of the store's bytes
        // and a fresh memo for the next round.
        clock.recovery(served.recover_ms(t));
        served.store.clear_memo();
        rounds.push(times);
        answers.push(round_answers);
    }
    let stats = served.store.stats();
    let peak_rss_mb = crate::stats::peak_rss_mb();

    // Check every answer against `evaluate_on_invariant` on a cold `top`
    // of its instance, and the class partition against code equality.
    let mut cold = Cold::new();
    let keys: Vec<(InstanceId, TopologicalQuery)> = script
        .iter()
        .flat_map(|op| match op {
            Op::Fill(id, query) => vec![(*id, *query)],
            Op::Hits(keys) => keys.clone(),
        })
        .collect();
    let expected: Vec<bool> = keys
        .iter()
        .map(|(id, query)| evaluate_on_invariant(query, &cold.get(id, || instances[*id].clone())))
        .collect();
    let failed: u64 = answers
        .iter()
        .map(|round| round.iter().zip(&expected).filter(|(a, e)| **a != Some(**e)).count() as u64)
        .sum();
    let partition = partition_errors(&served.store.classes(), |id| {
        cold.get(&id, || instances[id].clone()).canonical_code().clone()
    });
    // Every fill must have missed the memo and every repeat must have hit.
    let fills_per_round = script.iter().filter(|op| matches!(op, Op::Fill(..))).count();
    let fills = (fills_per_round * rounds.len()) as u64;
    let ops = (keys.len() * rounds.len()) as u64;
    let accounting = (stats.memo_misses - stats_before.memo_misses != fills) as u64
        + (stats.memo_hits - stats_before.memo_hits != ops - fills) as u64;

    let mut fills_ms = Vec::new();
    let mut batch_ns = Vec::new();
    for times in &rounds {
        for (op, ms) in script.iter().zip(times) {
            match op {
                Op::Fill(..) => fills_ms.push(*ms),
                Op::Hits(keys) => batch_ns.push(ms * 1e6 / keys.len() as f64),
            }
        }
    }
    let mut report = Report::default();
    clock.report(ops, &mut report);
    report.add_percentiles("first_answer_ms_p50", "first_answer_ms_p90", &fills_ms);
    report.add("repeat_answer_ns", median(&batch_ns), "ns", batch_ns.len());
    report.add("instances", instances.len() as f64, "count", 1);
    report.add("classes", served.store.class_count() as f64, "count", 1);
    report.add("rounds", rounds.len() as f64, "count", 1);
    PhaseOutcome {
        attempted: ops,
        failed,
        check_errors: partition + accounting + warm_wrong,
        ops_per_ref: clock.ops_per_ref(ops),
        peak_rss_mb,
        report,
    }
}
