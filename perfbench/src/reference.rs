//! A host-speed reference: a fixed kernel, independent of the library, timed
//! between ops.
//!
//! On a shared host the CPU's speed follows other tenants' load. On the
//! 2-thread virtual machine this benchmark was tuned on, whole 30 s runs
//! went 1.8 times slower than others, and even the fastest repeat of an op
//! within such a run was slow. The kernel slows down with the workload, so
//! op time divided by the kernel time measured next to it is a cost in
//! host-independent units ("ref", one kernel run). The gated throughput and
//! recovery metrics are in those units, and set-up time is scaled to a
//! nominal kernel time; the raw ones are reported too.

use std::collections::HashMap;
use std::time::Instant;

use crate::inputs::Rng;
use crate::stats::{median, Report};

/// Op time between two kernel runs.
const CHUNK_MS: f64 = 50.0;

/// A fixed kernel time (about the median on the virtual machine the bounds
/// were set on) at which set-up time is reported: `setup_s` is the set-up's
/// wall time scaled by this over the kernel time measured around it.
pub const NOMINAL_KERNEL_MS: f64 = 2.8;

/// Counts seeded keys in a hash map and sorts seeded integers: the kind of
/// hashing, allocation and branchy work the library does. About 2 ms.
fn kernel() -> u64 {
    let mut rng = Rng::new(42);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..40_000 {
        *counts.entry(rng.next_u64() % 8_000).or_insert(0) += 1;
    }
    let mut values: Vec<u64> = (0..40_000).map(|_| rng.next_u64()).collect();
    values.sort_unstable();
    counts.len() as u64 + values[100]
}

fn kernel_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `runs` kernel times (ms): one run can read 1.5 times another a
/// moment later, so a reading outside the timed phase takes several.
pub fn kernel_median_ms(runs: usize) -> f64 {
    median(&(0..runs).map(|_| kernel_ms()).collect::<Vec<f64>>())
}

/// Op times of a timed phase, converted to reference units as they come:
/// the kernel runs between ops whenever `CHUNK_MS` of op time has passed
/// since its last run, and each chunk of op time is divided by the mean of
/// the kernel times at its two ends. The regime changes over tens to
/// hundreds of ms, so both ends see nearly the regime the chunk ran in.
pub struct Clock {
    last_kernel_ms: f64,
    chunk_ms: f64,
    op_ms: f64,
    refs: f64,
    kernel_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    recover_refs: Vec<f64>,
}

impl Clock {
    pub fn new() -> Self {
        let first = kernel_ms();
        Clock {
            last_kernel_ms: first,
            chunk_ms: 0.0,
            op_ms: 0.0,
            refs: 0.0,
            kernel_ms: vec![first],
            recover_ms: Vec::new(),
            recover_refs: Vec::new(),
        }
    }

    /// Runs the kernel now; returns the mean of this and the previous run.
    fn sample(&mut self) -> f64 {
        let now = kernel_ms();
        let mean = (self.last_kernel_ms + now) / 2.0;
        self.kernel_ms.push(now);
        self.last_kernel_ms = now;
        mean
    }

    /// Records one op's wall time (ms); called between ops.
    pub fn op(&mut self, ms: f64) {
        self.op_ms += ms;
        self.chunk_ms += ms;
        if self.chunk_ms >= CHUNK_MS {
            self.refs += self.chunk_ms / self.sample();
            self.chunk_ms = 0.0;
        }
    }

    /// Records one recovery's wall time (ms), right after it ran.
    pub fn recovery(&mut self, ms: f64) {
        let reference = self.sample();
        self.recover_ms.push(ms);
        self.recover_refs.push(ms / reference);
    }

    /// Ops per reference unit for a phase of `ops` ops.
    pub fn ops_per_ref(&self, ops: u64) -> f64 {
        // The open chunk counts at the last kernel time.
        ops as f64 / (self.refs + self.chunk_ms / self.last_kernel_ms)
    }

    /// Adds the timing metrics of a phase that completed `ops` ops: raw
    /// (`ops_per_s`, `recover_ms`) and in reference units (`ops_per_ref`,
    /// `recover_ref`), and the kernel's own time.
    pub fn report(&self, ops: u64, report: &mut Report) {
        report.add("ops_per_s", ops as f64 / (self.op_ms / 1e3), "1/s", ops as usize);
        report.add("ops_per_ref", self.ops_per_ref(ops), "1/ref", ops as usize);
        report.add("recover_ms", median(&self.recover_ms), "ms", self.recover_ms.len());
        report.add("recover_ref", median(&self.recover_refs), "ref", self.recover_refs.len());
        report.add("reference_ms", median(&self.kernel_ms), "ms", self.kernel_ms.len());
    }
}
