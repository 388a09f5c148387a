//! Sample summaries, the metric table a run prints, and process memory.

use std::fmt::Write as _;

/// Median of a sample (mean of the middle pair for even sizes); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Smallest value; `NaN` when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric: its value, unit and the number of samples behind it
/// (1 for a whole-run quantity such as a count or a rate).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// Adds `<base>_p50` always and `<base>_p90` only when the sample holds at
    /// least 100 values (ten beyond the percentile).
    pub fn add_percentiles(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        self.add(p50, quantile(samples, 0.5), "ms", samples.len());
        if samples.len() >= 100 {
            self.add(p90, quantile(samples, 0.9), "ms", samples.len());
        }
    }

    /// `{"name": {"value": v, "unit": u, "samples": n}, ...}` for the named
    /// metrics (all of them when `names` is `None`); `samples` only when
    /// `with_samples`.
    pub fn json(&self, names: Option<&[&str]>, with_samples: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for m in &self.metrics {
            if names.is_some_and(|names| !names.contains(&m.name)) {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                num(m.value),
                m.unit
            );
            if with_samples {
                let _ = write!(out, ", \"samples\": {}", m.samples);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// One aligned line per metric, for people reading the output.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ =
                writeln!(out, "  {:<30} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        out
    }
}

/// A JSON number with all its digits (non-finite values, which JSON cannot
/// carry, become 0).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
