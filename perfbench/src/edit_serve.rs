//! `edit_serve`: region edits beside reads (pool 1).
//!
//! Set-up registers maintained maps (landcover grid 12, hydro grid 12, city
//! grid 8; two of each) as store instances, next to a homeomorphic copy of
//! each original that keeps the original's class alive. A round edits every
//! region of every map twice: the region is replaced by the same region of a
//! donor map (another seed) and put back, then removed and put back.
//! Each repaired invariant goes to `update_instance`, so edited classes are
//! opened and then garbage-collected with their memo rows (churn), while
//! restores land back in the live original class (recurrence). Each step
//! then asks two library queries on the edited instance: fills on a class
//! that has not answered them, one batch of hits on a class that has. Rounds
//! repeat the same script. An op is one edit step.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use topo_core::{
    evaluate_on_invariant, top, CanonicalCode, CodeHash, IngestOutcome, InstanceId,
    MaintainedInvariant, Region, RegionId, SpatialInstance, TopologicalQuery,
};

use crate::inputs::{homeomorphic_copy, query_library, Family, Rng};
use crate::paths::{
    edit, fill, hit_batch, ingest_batch, partition_errors, warm_paths, Cold, Served,
};
use crate::reference::Clock;
use crate::stats::{median, Report};
use crate::trace::Tracer;
use crate::PhaseOutcome;

const MAPS: [(Family, usize); 3] =
    [(Family::Landcover, 12), (Family::Hydro, 12), (Family::City, 8)];
const MAPS_PER_FAMILY: usize = 4;
const QUERIES_PER_STEP: usize = 2;
const HIT_BATCH: usize = 64;

/// What a map's one edited region holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Variant {
    Donor,
    Removed,
}

/// A map's edited region, if any.
type Edited = Option<(RegionId, Variant)>;

/// A map in one state: the map's index and its edited region.
type StateKey = (usize, Edited);

struct Map {
    base: SpatialInstance,
    donor: SpatialInstance,
    maintained: MaintainedInvariant,
    id: InstanceId,
    edited: Edited,
}

impl Map {
    fn instance_of(&self, edited: Edited) -> SpatialInstance {
        let mut instance = self.base.clone();
        match edited {
            Some((r, Variant::Donor)) => instance.set_region(r, self.donor.region(r).clone()),
            Some((r, Variant::Removed)) => instance.set_region(r, Region::new()),
            None => {}
        }
        instance
    }
}

/// One step of the round script: map `map` goes to state `to` by editing
/// `region`, then asks `queries`.
struct Step {
    map: usize,
    region: RegionId,
    to: Edited,
    queries: [usize; QUERIES_PER_STEP],
}

pub struct State {
    served: Served,
    maps: Vec<Map>,
    /// The homeomorphic copies of the originals, by instance id.
    pinned: Vec<(InstanceId, SpatialInstance)>,
    script: Vec<Step>,
    /// `(class, query)` keys answered so far. Class ids are never reused, so
    /// keys of collected classes never match again.
    answered: HashSet<(usize, usize)>,
    warm_wrong: u64,
}

/// The round script: every region of every map is replaced by the donor's
/// region and restored, then removed and restored, with the maps
/// interleaved. A map's edit and its restore ask the same pair of library
/// queries; a map's successive edits walk through the library two queries
/// at a time. Only the maps' content depends on the seed, not the mix of
/// edits and queries.
fn script(maps: &[Map]) -> Vec<Step> {
    let library = query_library().len();
    let regions = maps.iter().map(|m| m.base.schema().len()).max().unwrap_or(0);
    let mut steps = Vec::new();
    for (k, variant) in
        (0..regions).flat_map(|r| [(r, Variant::Donor), (r, Variant::Removed)]).enumerate()
    {
        let (region, variant) = variant;
        let edited: Vec<usize> =
            (0..maps.len()).filter(|&m| region < maps[m].base.schema().len()).collect();
        let pair = |m: usize| {
            let first = QUERIES_PER_STEP * (m + k) % library;
            [first, (first + 1) % library]
        };
        for &m in &edited {
            steps.push(Step { map: m, region, to: Some((region, variant)), queries: pair(m) });
        }
        for &m in &edited {
            steps.push(Step { map: m, region, to: None, queries: pair(m) });
        }
    }
    steps
}

/// What one step did.
struct StepResult {
    /// The edit and update (ms).
    edit_ms: f64,
    /// The whole step: edit, update and queries (ms).
    ms: f64,
    update_failed: bool,
    fills_ms: Vec<f64>,
    /// The hit batch's mean time per hit (ns), if the step had one.
    hit_ns: Option<f64>,
    /// `(query, answer)` in the order asked.
    answers: Vec<(usize, Option<bool>)>,
}

/// A step's edit and update alone.
fn apply(
    served: &Served,
    maps: &mut [Map],
    step: &Step,
    t: Option<&Tracer>,
) -> (Option<IngestOutcome>, f64) {
    let map = &mut maps[step.map];
    let replacement = match step.to {
        None => Some(map.base.region(step.region).clone()),
        Some((_, Variant::Donor)) => Some(map.donor.region(step.region).clone()),
        Some((_, Variant::Removed)) => None,
    };
    map.edited = step.to;
    edit(served, &mut map.maintained, map.id, step.region, replacement, t)
}

/// Runs one step: the edit and update, then its queries (fills on keys the
/// class has not answered, one batch of hits over those it has).
fn step(
    served: &Served,
    maps: &mut [Map],
    step: &Step,
    answered: &mut HashSet<(usize, usize)>,
    t: Option<&Tracer>,
) -> StepResult {
    let library = query_library();
    let (outcome, edit_ms) = apply(served, maps, step, t);
    let map = &maps[step.map];
    let class = served.store.class_of(map.id).unwrap_or(usize::MAX);
    let (mut fills_ms, mut hits, mut answers) = (Vec::new(), Vec::new(), Vec::new());
    for &q in &step.queries {
        if answered.contains(&(class, q)) {
            hits.push(q);
            continue;
        }
        let (answer, ms) = fill(served, map.id, &library[q], t);
        fills_ms.push(ms);
        answered.insert((class, q));
        answers.push((q, answer));
    }
    let mut ms = edit_ms + fills_ms.iter().sum::<f64>();
    let mut hit_ns = None;
    if !hits.is_empty() {
        let picks: Vec<usize> = (0..HIT_BATCH).map(|i| hits[i % hits.len()]).collect();
        let keys: Vec<(InstanceId, TopologicalQuery)> =
            picks.iter().map(|&q| (map.id, library[q])).collect();
        let mut hit_answers = Vec::new();
        let batch_ms = hit_batch(served, &keys, &mut hit_answers, t);
        hit_ns = Some(batch_ms * 1e6 / HIT_BATCH as f64);
        ms += batch_ms;
        answers.extend(picks.into_iter().zip(hit_answers));
    }
    let update_failed = outcome.is_none_or(|o| o.is_rejected());
    StepResult { edit_ms, ms, update_failed, fills_ms, hit_ns, answers }
}

pub fn setup(seed: u64, t: Option<&Tracer>) -> State {
    let mut rng = Rng::new(seed);
    let served = Served::fresh();
    let mut maps = Vec::new();
    for _ in 0..MAPS_PER_FAMILY {
        for (family, grid) in MAPS {
            let base = family.generate(grid, rng.next_u64());
            let donor = family.generate(grid, rng.next_u64());
            let maintained = MaintainedInvariant::from_instance(&base);
            maps.push(Map { base, donor, maintained, id: 0, edited: None });
        }
    }
    let copies: Vec<SpatialInstance> = maps.iter().map(|m| homeomorphic_copy(&m.base, 1)).collect();
    let ids = ingest_batch(&served, &copies, t);
    let pinned = ids.iter().map(|o| o.id().expect("unbounded store admits")).zip(copies).collect();
    for map in &mut maps {
        map.id = served.store.ingest_invariant(map.maintained.invariant().clone());
    }
    let script = script(&maps);
    // Warm-up: the round's edits, untimed, fill the maintenance caches, and
    // the restores' queries fill the originals' memo rows (edited classes
    // are new in every round, so their fills are left to the timed phase).
    // Then every other path.
    let mut answered = HashSet::new();
    for s in &script {
        if s.to.is_some() {
            apply(&served, &mut maps, s, t);
        } else {
            step(&served, &mut maps, s, &mut answered, t);
        }
    }
    let warm_wrong = warm_paths(seed, t);
    State { served, maps, pinned, script, answered, warm_wrong }
}

pub fn run(state: State, seconds: f64, t: Option<&Tracer>) -> PhaseOutcome {
    let State { served, mut maps, pinned, script, mut answered, warm_wrong } = state;
    let (mut edit_ms, mut fills_ms, mut batch_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut step_ms = 0.0;
    let (mut clock, mut rounds) = (Clock::new(), 0);
    let mut failed_steps: HashSet<usize> = HashSet::new();
    let mut answers: Vec<(usize, StateKey, usize, Option<bool>)> = Vec::new();
    let mut hashes: Vec<(StateKey, CodeHash)> = Vec::new();
    let wal_before = served.backend.appended();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for s in &script {
            let n = hashes.len();
            let result = step(&served, &mut maps, s, &mut answered, t);
            clock.op(result.ms);
            step_ms += result.ms;
            edit_ms.push(result.edit_ms);
            fills_ms.extend(result.fills_ms);
            batch_ns.extend(result.hit_ns);
            if result.update_failed {
                failed_steps.insert(n);
            }
            let key: StateKey = (s.map, s.to);
            hashes.push((key, maps[s.map].maintained.invariant().code_hash()));
            answers.extend(result.answers.into_iter().map(|(q, a)| (n, key, q, a)));
        }
        rounds += 1;
        // Between rounds, not timed as ops: a checkpoint, so the bytes
        // replayed do not grow with the number of rounds, and a recovery.
        served.store.checkpoint().expect("memory backend checkpoint");
        clock.recovery(served.recover_ms(t));
    }
    let wal_bytes = served.backend.appended() - wal_before;
    let peak_rss_mb = crate::stats::peak_rss_mb();

    // Check every answer and every repaired code against a cold `top` of
    // the map as it stood, and the final partition against code equality.
    let library = query_library();
    let mut cold: Cold<StateKey> = Cold::new();
    let mut truth: HashMap<(StateKey, usize), bool> = HashMap::new();
    for &(n, key, q, answer) in &answers {
        let expected = *truth.entry((key, q)).or_insert_with(|| {
            evaluate_on_invariant(&library[q], &cold.get(&key, || maps[key.0].instance_of(key.1)))
        });
        if answer != Some(expected) {
            failed_steps.insert(n);
        }
    }
    for (n, &(key, hash)) in hashes.iter().enumerate() {
        if cold.get(&key, || maps[key.0].instance_of(key.1)).code_hash() != hash {
            failed_steps.insert(n);
        }
    }
    let mut codes: HashMap<InstanceId, CanonicalCode> = HashMap::new();
    for (m, map) in maps.iter().enumerate() {
        let key = (m, map.edited);
        codes.insert(map.id, cold.get(&key, || map.instance_of(key.1)).canonical_code().clone());
    }
    for (id, copy) in &pinned {
        codes.insert(*id, top(copy).canonical_code().clone());
    }
    let partition = partition_errors(&served.store.classes(), |id| codes[&id].clone());

    let ops = hashes.len() as u64;
    let mut report = Report::default();
    clock.report(ops, &mut report);
    report.add_percentiles("edit_ms_p50", "edit_ms_p90", &edit_ms);
    report.add_percentiles("first_answer_ms_p50", "first_answer_ms_p90", &fills_ms);
    report.add("repeat_answer_ns", median(&batch_ns), "ns", batch_ns.len());
    // Where a step's time goes: the edit and update, the fills, the hits.
    report.add("edit_share", edit_ms.iter().sum::<f64>() / step_ms, "1", edit_ms.len());
    report.add("fill_share", fills_ms.iter().sum::<f64>() / step_ms, "1", fills_ms.len());
    report.add("wal_bytes_per_op", wal_bytes as f64 / ops as f64, "B", 1);
    report.add("rounds", rounds as f64, "count", 1);
    PhaseOutcome {
        attempted: ops,
        failed: failed_steps.len() as u64,
        check_errors: partition + warm_wrong,
        ops_per_ref: clock.ops_per_ref(ops),
        peak_rss_mb,
        report,
    }
}
