//! In-tree scoped thread pool for per-instance fan-out.
//!
//! The build environment has no crates.io access, so this crate provides the
//! one rayon-style primitive the system needs, on [`std::thread::scope`]
//! alone and entirely in safe Rust: [`Pool::par_map_collect`], a per-item
//! map with the output in item order, bit-identical to
//! `items.iter().map(f).collect()` by construction. Its library callers are
//! in the store: batch ingest, which builds and canonicalises independent
//! instances, and WAL replay, which checks and decodes a window of records
//! before applying them in log order. Construction and canonicalisation of
//! a single instance are sequential.
//!
//! There is no work stealing and no persistent worker state: every call
//! spawns scoped threads that pull contiguous chunk indices from one atomic
//! counter and write results into per-index slots, so scheduling order can
//! never leak into the output. The calling thread participates as a worker.
//!
//! **Pool size.** [`Pool::global`] sizes itself from the `TOPO_THREADS`
//! environment variable (read once), falling back to
//! [`std::thread::available_parallelism`]; [`set_global_threads`] overrides
//! it at runtime (used by the determinism test sweeps and by services that
//! size the pool from their own config). At 1 thread the map is the plain
//! sequential loop on the calling thread — no spawns, guaranteed identical
//! to not using the pool at all.
//!
//! **Nesting.** A task running on the pool that calls back into the pool
//! runs sequentially (a thread-local in-pool flag). So a caller whose own
//! pool task calls the store's batch ingest, or opens a store, gets a
//! sequential map instead of spawning a second layer of threads and
//! oversubscribing the machine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on configurable pool sizes — far above any real machine, it
/// only guards against absurd `TOPO_THREADS` values spawning unbounded
/// threads.
const MAX_THREADS: usize = 1024;

/// Global pool size; `0` means "not yet initialised" (the first reader
/// resolves `TOPO_THREADS` / available parallelism).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is executing a pool task: nested pool calls
    /// fall back to sequential execution instead of spawning again.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn clamp_threads(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

/// Pool size from the environment: `TOPO_THREADS` if set and parseable,
/// otherwise the scheduler-reported available parallelism (1 if unknown).
fn threads_from_env() -> usize {
    let configured = std::env::var("TOPO_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    clamp_threads(
        configured.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
    )
}

/// Overrides the global pool size at runtime (clamped to `1..=1024`).
/// Takes effect for every subsequent [`Pool::global`] call; in-flight pool
/// operations are unaffected.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(clamp_threads(n), Ordering::SeqCst);
}

/// The global pool size ([`Pool::global`]`.threads()`).
pub fn global_threads() -> usize {
    Pool::global().threads()
}

/// A fixed-size scoped thread pool handle. Copyable and stateless: the only
/// state is the thread count, so handles can be passed by value and the
/// "pool" spins up scoped threads per call.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `n` threads (clamped to `1..=1024`). At `n == 1`
    /// every operation is the plain sequential loop.
    pub fn with_threads(n: usize) -> Self {
        Pool { threads: clamp_threads(n) }
    }

    /// The process-global pool: sized by [`set_global_threads`] if called,
    /// else `TOPO_THREADS`, else available parallelism.
    pub fn global() -> Self {
        let mut n = GLOBAL_THREADS.load(Ordering::SeqCst);
        if n == 0 {
            let resolved = threads_from_env();
            // Racing first readers resolve the same value; whoever stores
            // first wins and the rest agree.
            let _ =
                GLOBAL_THREADS.compare_exchange(0, resolved, Ordering::SeqCst, Ordering::SeqCst);
            n = GLOBAL_THREADS.load(Ordering::SeqCst);
        }
        Pool { threads: n }
    }

    /// This pool's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True if a call entered now would actually fan out (more than one
    /// thread and not already inside a pool task).
    fn is_parallel(&self) -> bool {
        self.threads > 1 && !IN_POOL.with(|f| f.get())
    }

    /// Runs `task(0..n_tasks)` across the pool, caller thread included,
    /// returning results indexed by task id. The scheduling order is
    /// arbitrary; the output order is not.
    fn run_indexed<R, F>(&self, n_tasks: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n_tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n_tasks);
        if workers <= 1 || !self.is_parallel() {
            return (0..n_tasks).map(task).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            let result = task(i);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(|| {
                    IN_POOL.with(|f| f.set(true));
                    work();
                    // Scoped worker threads die at scope exit; resetting the
                    // flag is just hygiene for clarity.
                    IN_POOL.with(|f| f.set(false));
                });
            }
            // The caller is worker 0; mark it in-pool so tasks it runs do
            // not recursively fan out, and restore the flag afterwards.
            IN_POOL.with(|f| f.set(true));
            work();
            IN_POOL.with(|f| f.set(false));
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every task index was executed")
            })
            .collect()
    }

    /// Number of chunks to split `n` items into: enough for load balance
    /// (4 per worker) but never below `min_chunk` items per chunk.
    fn chunk_size(&self, n: usize, min_chunk: usize) -> usize {
        let min_chunk = min_chunk.max(1);
        let target_chunks = (self.threads * 4).max(1);
        n.div_ceil(target_chunks).max(min_chunk)
    }

    /// Splits `items` into contiguous chunks of at least `min_chunk`
    /// elements and runs `f(chunk_start_offset, chunk)` per chunk on the
    /// pool. Results come back in chunk order, so concatenating them
    /// reproduces the sequential iteration order exactly.
    fn par_chunks<T, R, F>(&self, items: &[T], min_chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let size = self.chunk_size(items.len(), min_chunk);
        let n_chunks = items.len().div_ceil(size);
        self.run_indexed(n_chunks, |i| {
            let start = i * size;
            let end = (start + size).min(items.len());
            f(start, &items[start..end])
        })
    }

    /// Parallel map with the output in item order: bit-identical to
    /// `items.iter().map(f).collect()`.
    pub fn par_map_collect<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let per_chunk =
            self.par_chunks(items, 1, |_, chunk| chunk.iter().map(&f).collect::<Vec<R>>());
        let mut out = Vec::with_capacity(items.len());
        for chunk in per_chunk {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<Pool> {
        vec![
            Pool::with_threads(1),
            Pool::with_threads(2),
            Pool::with_threads(8),
            Pool::with_threads(64), // oversubscribed on any test machine
        ]
    }

    #[test]
    fn par_map_collect_matches_sequential_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for pool in pools() {
            assert_eq!(pool.par_map_collect(&items, |x| x * x + 1), expect);
        }
    }

    #[test]
    fn par_chunks_concatenation_is_boundary_independent() {
        let items: Vec<u32> = (0..5_000).collect();
        let expect: Vec<u32> = items.iter().map(|x| x ^ 0xdead).collect();
        for pool in pools() {
            let per_chunk =
                pool.par_chunks(&items, 7, |_, c| c.iter().map(|x| x ^ 0xdead).collect::<Vec<_>>());
            let flat: Vec<u32> = per_chunk.into_iter().flatten().collect();
            assert_eq!(flat, expect);
        }
    }

    #[test]
    fn par_chunks_offsets_address_the_original_slice() {
        let items: Vec<usize> = (0..999).collect();
        for pool in pools() {
            let ok = pool.par_chunks(&items, 10, |offset, chunk| {
                chunk.iter().enumerate().all(|(i, &v)| v == offset + i)
            });
            assert!(ok.into_iter().all(|b| b));
        }
    }

    #[test]
    fn nested_calls_run_sequentially_without_deadlock() {
        let pool = Pool::with_threads(4);
        let outer: Vec<usize> = (0..16).collect();
        let got = pool.par_map_collect(&outer, |&i| {
            // A nested call from inside a pool task must not fan out again;
            // it must still produce the right answer.
            let inner: Vec<usize> = (0..100).collect();
            let inner_sum: usize = pool.par_map_collect(&inner, |&x| x + i).iter().sum();
            inner_sum
        });
        let expect: Vec<usize> = (0..16).map(|i| (0..100).map(|x| x + i).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_inputs() {
        let pool = Pool::with_threads(8);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.par_map_collect(&empty, |x| *x).is_empty());
        assert!(pool.par_chunks(&empty, 4, |_, c| c.len()).is_empty());
    }

    #[test]
    fn thread_count_clamped() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(1_000_000).threads(), MAX_THREADS);
    }
}
