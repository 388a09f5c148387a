//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the library itself is not instrumented). Each
//! span has a name, start and end (ns since the tracer's origin), the index
//! of its parent span and the id of the request (one benchmark op) it
//! belongs to. Spans stay in memory and are written out once, when the run
//! ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorded on a pool worker, where the tracer itself is not
/// reachable: `parent` indexes the worker's own list, and the tracer
/// re-bases it when it adopts the list.
pub struct LocalSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: Cell<u64>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Starts a new request: spans opened at top level from now on carry
    /// its id.
    pub fn next_request(&self) {
        self.request.set(self.request.get() + 1);
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: since(self.origin),
                end_ns: 0,
                parent,
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = since(self.origin);
        result
    }

    /// Adds worker-recorded spans under the innermost open span.
    pub fn adopt(&self, local: Vec<LocalSpan>) {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        for span in local {
            spans.push(Span {
                name: span.name,
                start_ns: span.start_ns,
                end_ns: span.end_ns,
                parent: span.parent.map(|p| base + p).or(parent),
                request: self.request.get(),
            });
        }
    }

    /// Adds `value` to a named counter.
    pub fn count(&self, name: &'static str, value: f64) {
        *self.counters.borrow_mut().entry(name).or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// For every request with one span named `outer` and one named `inner`,
    /// the outer span's duration minus the inner one's (ns).
    pub fn differences(&self, outer: &str, inner: &str) -> Vec<f64> {
        let mut pairs: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            let pair = pairs.entry(s.request).or_default();
            if s.name == outer {
                pair.0 = Some(s.ns());
            } else if s.name == inner {
                pair.1 = Some(s.ns());
            }
        }
        pairs.values().filter_map(|&(o, i)| Some(o? as f64 - i? as f64)).collect()
    }

    /// Mean duration of the spans with this name, in ms (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        crate::stats::ratio(d.iter().sum::<f64>(), d.len() as f64) / 1e6
    }

    /// For every span named `parent`, the share of its duration covered by
    /// its direct children (children never overlap: the benchmark opens them
    /// one after another).
    pub fn coverage(&self, parent: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                covered[p] += span.ns();
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent && s.ns() > 0)
            .map(|(i, s)| covered[i] as f64 / s.ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
