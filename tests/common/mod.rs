//! Shared fixtures for the integration suites: the seeded workload
//! builders, the per-suite query mixes, and the process-global thread-pool
//! guard — previously duplicated across `tests/*.rs`, now defined once.
//!
//! Every test binary compiles this module independently (`mod common;`) and
//! uses only the subset it needs, hence the blanket `dead_code` allow.
#![allow(dead_code)]

pub mod edits;

use std::sync::{Arc, Mutex, MutexGuard};

use topo_core::parallel::{global_threads, set_global_threads};
use topo_core::spatial::transform::AffineMap;
use topo_core::{
    top, IngestOutcome, InvariantStore, SpatialInstance, TopologicalInvariant, TopologicalQuery,
};
use topo_datagen::{
    figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover, Scale,
};

/// Serialises every test that touches the process-global pool size
/// (`topo_parallel::set_global_threads`), and restores the
/// environment-derived default on drop so test order cannot leak one test's
/// sweep into another.
static POOL_LOCK: Mutex<()> = Mutex::new(());

pub struct PoolGuard {
    _lock: MutexGuard<'static, ()>,
    previous: usize,
}

impl PoolGuard {
    pub fn take() -> Self {
        let lock = POOL_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        PoolGuard { previous: global_threads(), _lock: lock }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        set_global_threads(self.previous);
    }
}

/// Ingests one instance as a batch of one, the store's single-instance path.
pub fn try_ingest_one(store: &InvariantStore, instance: &SpatialInstance) -> IngestOutcome {
    store.try_ingest_batch(std::slice::from_ref(instance))[0]
}

/// The full fingerprint a `top(I)` build must reproduce exactly.
pub fn fingerprint(instance: &SpatialInstance) -> (usize, usize, usize, String, u64) {
    let invariant = top(instance);
    (
        invariant.vertex_count(),
        invariant.edge_count(),
        invariant.face_count(),
        format!("{:?}", invariant.canonical_code()),
        invariant.code_hash().as_u64(),
    )
}

/// Labelled seeded instances covering the running examples and all three
/// cartographic generators at the tiny scale (two seeds each).
pub fn seeded_workloads() -> Vec<(String, SpatialInstance)> {
    let mut all = vec![
        ("figure1".to_string(), figure1()),
        ("nested_rings(4, 3)".to_string(), nested_rings(4, 3)),
        ("scattered_islands(8)".to_string(), scattered_islands(8)),
    ];
    for seed in [1u64, 42] {
        let scale = Scale::tiny();
        all.push((format!("sequoia_landcover(tiny, {seed})"), sequoia_landcover(scale, seed)));
        all.push((format!("sequoia_hydro(tiny, {seed})"), sequoia_hydro(scale, seed)));
        all.push((format!("ign_city(tiny, {seed})"), ign_city(scale, seed)));
    }
    all
}

/// A mixed seeded workload at one scale: the three cartographic generators
/// over two seeds, the running examples, and a transformed duplicate of
/// every base (translation / rotation / reflection round-robin) — so the
/// batch is duplicate-heavy by construction.
pub fn mixed_invariant_workload(grid: usize) -> Vec<Arc<TopologicalInvariant>> {
    let scale = Scale { grid };
    let mut bases = Vec::new();
    for seed in [1u64, 7] {
        bases.push(sequoia_landcover(scale, seed));
        bases.push(sequoia_hydro(scale, seed));
        bases.push(ign_city(scale, seed));
    }
    bases.push(figure1());
    bases.push(nested_rings(3, 2));
    bases.push(scattered_islands(4));
    bases.push(scattered_islands(5));
    let maps = [
        AffineMap::translation(50_000, -20_000),
        AffineMap::rotation90(),
        AffineMap::reflection_x(),
    ];
    let duplicates: Vec<_> =
        bases.iter().enumerate().map(|(i, b)| maps[i % maps.len()].apply_instance(b)).collect();
    bases.iter().chain(duplicates.iter()).map(|i| Arc::new(top(i))).collect()
}

/// A small duplicate-heavy invariant pool: four distinct shapes plus
/// transformed twins. Built once per test; ingests reuse the `Arc`s so the
/// (expensive) canonicalisation happens once per shape.
pub fn recovery_pool() -> Vec<Arc<TopologicalInvariant>> {
    twin_pool([
        figure1(),
        nested_rings(2, 2),
        scattered_islands(3),
        sequoia_landcover(Scale { grid: 3 }, 1),
    ])
}

/// Four distinct shapes, then a transformed twin of each: entry `i + 4` is
/// homeomorphic to entry `i`.
fn twin_pool(bases: [SpatialInstance; 4]) -> Vec<Arc<TopologicalInvariant>> {
    let maps = [AffineMap::translation(40_000, -9_000), AffineMap::rotation90()];
    let mut out: Vec<Arc<TopologicalInvariant>> = bases.iter().map(|b| Arc::new(top(b))).collect();
    out.extend(
        bases.iter().enumerate().map(|(i, b)| Arc::new(top(&maps[i % 2].apply_instance(b)))),
    );
    out
}

/// One mutating operation of a scripted store workload.
#[derive(Clone)]
pub enum Op {
    Ingest(Arc<TopologicalInvariant>),
    Remove(usize),
    Update(usize, Arc<TopologicalInvariant>),
}

/// Runs scripted operations on a store, one WAL record each (id assignment
/// follows the script because ingest ids are dense).
pub fn run_ops(store: &InvariantStore, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Ingest(invariant) => {
                store.ingest_invariant(invariant.clone());
            }
            Op::Remove(id) => {
                store.remove_instance(*id);
            }
            Op::Update(id, invariant) => {
                store.update_instance(*id, invariant.clone());
            }
        }
    }
}

/// Rounds of [`windowed_script`], seven WAL records each: enough records
/// for replay to run in several windows at pool sizes 2 and 8 (a window is
/// 16 frames per pool thread).
const WINDOWED_ROUNDS: usize = 96;

/// Frames per replay window at pool size 2, and the bytes from which a
/// window decodes across the pool (`REPLAY_FRAMES_PER_THREAD` and
/// `PARALLEL_REPLAY_MIN_BYTES` in `crates/store/src/persist.rs`).
const POOL_2_WINDOW_FRAMES: usize = 32;
const PARALLEL_WINDOW_BYTES: usize = 8 * 1024;

/// A long scripted workload for WAL replay across windows, over a
/// [`twin_pool`] of maps large enough (about 0.9 to 2.8 KB of log per
/// opened class) that every full replay window at pool 2 and above decodes
/// across the pool. Round `r` works on two fresh ids and leaves none of
/// them live: an ingest opens a class of shape `r % 4`, a twin ingest
/// dedups into it, an update opens a class of the next shape, the twin's
/// update joins it and collects the first class, a repeat of that update
/// is a no-op, and two removals collect the second class. A tail ingests
/// the whole pool, so four classes and eight instances are live at the end.
pub fn windowed_script() -> Vec<Op> {
    let pool = twin_pool([
        ign_city(Scale { grid: 4 }, 1),
        sequoia_landcover(Scale { grid: 6 }, 1),
        ign_city(Scale { grid: 5 }, 1),
        sequoia_landcover(Scale { grid: 5 }, 1),
    ]);
    let mut ops = Vec::with_capacity(7 * WINDOWED_ROUNDS + pool.len());
    for r in 0..WINDOWED_ROUNDS {
        let (id, shape, next) = (2 * r, r % 4, (r + 1) % 4);
        ops.extend([
            Op::Ingest(pool[shape].clone()),
            Op::Ingest(pool[shape + 4].clone()),
            Op::Update(id, pool[next].clone()),
            Op::Update(id + 1, pool[next + 4].clone()),
            Op::Update(id + 1, pool[next].clone()),
            Op::Remove(id),
            Op::Remove(id + 1),
        ]);
    }
    ops.extend(pool.iter().map(|invariant| Op::Ingest(invariant.clone())));
    ops
}

/// Asserts that every full replay window of `wal` at pool 2 holds enough
/// bytes to decode across the pool; a window at a larger pool holds several
/// of them.
pub fn assert_replay_windows_decode_on_the_pool(wal: &[u8]) {
    let mut frame_bytes = Vec::new();
    let mut rest = wal;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        frame_bytes.push(len + 4); // the payload and its checksum
        rest = &rest[len + 8..];
    }
    let windows: Vec<usize> =
        frame_bytes.chunks_exact(POOL_2_WINDOW_FRAMES).map(|w| w.iter().sum()).collect();
    assert!(windows.len() >= 8, "{} frames make too few replay windows", frame_bytes.len());
    let smallest = windows.iter().min().unwrap();
    assert!(*smallest >= PARALLEL_WINDOW_BYTES, "a {smallest} B window decodes sequentially");
}

/// A duplicate-heavy batch of pre-built invariants: a handful of distinct
/// tiny topologies, each repeated under several homeomorphic images, in
/// copy-major interleaving so duplicates of one topology arrive spread out
/// across the ingest stream (and across writer threads).
pub fn stress_batch() -> Vec<Arc<TopologicalInvariant>> {
    let scale = Scale { grid: 3 };
    let bases: Vec<SpatialInstance> = vec![
        sequoia_landcover(scale, 1),
        sequoia_hydro(scale, 1),
        sequoia_landcover(scale, 7),
        figure1(),
        nested_rings(3, 2),
        nested_rings(2, 3),
        scattered_islands(4),
        scattered_islands(5),
    ];
    let maps = [
        AffineMap::identity(),
        AffineMap::translation(90_000, -40_000),
        AffineMap::rotation90(),
        AffineMap::reflection_x(),
        AffineMap::rotation90().compose(&AffineMap::translation(7_777, 311)),
    ];
    maps.iter()
        .flat_map(|map| bases.iter().map(|base| Arc::new(top(&map.apply_instance(base)))))
        .collect()
}

/// The query mix of the equivalence suite: every library shape, over the
/// low region ids shared by all workload schemas (ids beyond a schema are
/// simply empty regions, on every evaluation route alike).
pub fn equivalence_query_mix() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Disjoint(0, 1),
        Q::Contains(0, 1),
        Q::Equal(0, 1),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::InteriorsOverlap(0, 1),
        Q::IsConnected(0),
        Q::IsConnected(1),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
        Q::HasHole(1),
    ]
}

/// The query mix of the recovery suite.
pub fn recovery_query_mix() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Contains(0, 1),
        Q::IsConnected(0),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
        Q::HasHole(1),
    ]
}

/// The query mix of the concurrency stress suite.
pub fn stress_query_mix() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Contains(0, 1),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::InteriorsOverlap(0, 1),
        Q::IsConnected(0),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
    ]
}

/// The query mix of the batch-ingest equivalence checks.
pub fn batch_query_mix() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Contains(0, 1),
        Q::IsConnected(0),
        Q::Equal(0, 1),
        Q::Disjoint(1, 2),
    ]
}
