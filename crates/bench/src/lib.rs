//! Shared helpers of the `bench_runner` perf recorder, which records
//! per-stage medians against the frozen reference paths as one flat table of
//! [`Row`]s, and compares a run with a committed record (`--compare`). The
//! paper's verdicts are asserted by the test suites instead; EXPERIMENTS.md
//! maps each claim to its test.

use std::time::Instant;

/// The median of a sorted-or-not slice of nanosecond samples: the middle
/// element for odd counts, the mean of the two middle elements (rounded down)
/// for even counts, and 0 for an empty slice — callers must record the sample
/// count alongside the median so a zero-sample "median" is never mistaken for
/// a measurement.
pub fn median_of_ns(samples: &mut [u128]) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        // Mean of the two middle samples; u128 headroom makes the sum safe.
        (samples[mid - 1] + samples[mid]) / 2
    }
}

/// Median of `samples` timed runs of one closure, in nanoseconds.
///
/// Returns 0 when `samples == 0` (and runs nothing); see [`median_of_ns`] for
/// the even-count behaviour.
pub fn median_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u128 {
    median_ns_with(samples, || (), |()| f())
}

/// Like [`median_ns`], but re-running an untimed `setup` before every timed
/// sample, so mutating stages can be measured in isolation.
pub fn median_ns_with<S, T>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            std::hint::black_box(f(state));
            start.elapsed().as_nanos()
        })
        .collect();
    median_of_ns(&mut times)
}

/// A small suite of library queries over the first two regions of a
/// schema, swept by the store stage.
pub fn strategy_queries() -> Vec<topo_core::TopologicalQuery> {
    use topo_core::TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Disjoint(0, 1),
        Q::Contains(0, 1),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::InteriorsOverlap(0, 1),
        Q::IsConnected(0),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
    ]
}

/// One measurement of `bench_runner`. Every stage reports through this one
/// type, so a single writer ([`rows_json`]) and a single printer
/// ([`print_rows`]) cover the whole record.
#[derive(Debug)]
pub struct Row {
    /// The `--stage` that measured it.
    pub stage: &'static str,
    /// The workload it was measured on.
    pub workload: &'static str,
    /// The stage's size parameter: a datagen grid, or the homeomorphic
    /// copies per base of the store and recovery mixes.
    pub scale: usize,
    /// What was measured.
    pub metric: &'static str,
    /// The median or count; `None` for a skipped reference path.
    pub value: Option<f64>,
    /// `ns`, `count`, `bytes` or `ratio`.
    pub unit: &'static str,
    /// Samples behind `value`: 1 for a single run or a count, 0 if skipped.
    pub samples_used: usize,
    /// The global pool size (`topo_core::parallel::global_threads`) when the
    /// row was recorded.
    pub pool_threads: usize,
    /// The cores the process could use.
    pub host_threads: usize,
}

/// The rows of one run. Stages push through [`Rows::at`], which stamps
/// every row with the current `stage` and `host_threads`.
#[derive(Debug, Default)]
pub struct Rows {
    /// The stage currently recording.
    pub stage: &'static str,
    /// The cores the process could use.
    pub host_threads: usize,
    /// Every row so far, in recording order.
    pub rows: Vec<Row>,
}

impl Rows {
    /// A recorder for one (workload, scale) point of the current stage.
    pub fn at(&mut self, workload: &'static str, scale: usize) -> At<'_> {
        At { rows: self, workload, scale }
    }
}

/// Pushes rows for one (workload, scale) point; see [`Rows::at`].
pub struct At<'a> {
    rows: &'a mut Rows,
    workload: &'static str,
    scale: usize,
}

impl At<'_> {
    /// Records one row.
    pub fn push(
        &mut self,
        metric: &'static str,
        value: Option<f64>,
        unit: &'static str,
        samples_used: usize,
    ) {
        let rows = &mut *self.rows;
        rows.rows.push(Row {
            stage: rows.stage,
            workload: self.workload,
            scale: self.scale,
            metric,
            value,
            unit,
            samples_used,
            pool_threads: topo_core::parallel::global_threads(),
            host_threads: rows.host_threads,
        });
    }

    /// A median of `samples_used` timed runs, in nanoseconds.
    pub fn ns(&mut self, metric: &'static str, ns: u128, samples_used: usize) {
        self.push(metric, Some(ns as f64), "ns", samples_used);
    }

    /// A reference-path median, or a skipped one (`null`, 0 samples).
    pub fn reference(&mut self, metric: &'static str, measured: Option<(u128, usize)>) {
        match measured {
            Some((ns, samples_used)) => self.ns(metric, ns, samples_used),
            None => self.push(metric, None, "ns", 0),
        }
    }

    /// A count read once.
    pub fn count(&mut self, metric: &'static str, n: u64) {
        self.push(metric, Some(n as f64), "count", 1);
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn value_text(value: Option<f64>, missing: &str) -> String {
    match value {
        Some(v) if v.is_finite() => v.to_string(),
        _ => missing.to_string(),
    }
}

/// The JSON record of one run: a short header and one row per line.
pub fn rows_json(mode: &str, datagen_seed: u64, stages_run: &[&str], rows: &[Row]) -> String {
    let stages: Vec<String> = stages_run.iter().map(|s| json_str(s)).collect();
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"stage\": {}, \"workload\": {}, \"scale\": {}, \"metric\": {}, \"value\": {}, \
                 \"unit\": {}, \"samples_used\": {}, \"pool_threads\": {}, \"host_threads\": {}}}",
                json_str(r.stage),
                json_str(r.workload),
                r.scale,
                json_str(r.metric),
                value_text(r.value, "null"),
                json_str(r.unit),
                r.samples_used,
                r.pool_threads,
                r.host_threads,
            )
        })
        .collect();
    format!(
        "{{\n  \"mode\": {},\n  \"datagen_seed\": {datagen_seed},\n  \"stages_run\": [{}],\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_str(mode),
        stages.join(", "),
        lines.join(",\n")
    )
}

/// Prints the rows as an aligned table on stderr.
pub fn print_rows(rows: &[Row]) {
    eprintln!(
        "{:<12} {:<17} {:>5} {:<23} {:>18} {:<5} {:>7} {:>4} {:>4}",
        "stage", "workload", "scale", "metric", "value", "unit", "samples", "pool", "host"
    );
    for r in rows {
        eprintln!(
            "{:<12} {:<17} {:>5} {:<23} {:>18} {:<5} {:>7} {:>4} {:>4}",
            r.stage,
            r.workload,
            r.scale,
            r.metric,
            value_text(r.value, "skipped"),
            r.unit,
            r.samples_used,
            r.pool_threads,
            r.host_threads
        );
    }
}

/// `--compare` flags a row whose ratio to the previous record is outside
/// `1 ± COMPARE_NOISE_BAND`. 0.25 is the largest end-to-end bound of the
/// perfbench gate; per-stage medians on one host move less than that.
pub const COMPARE_NOISE_BAND: f64 = 0.25;

/// A row read back from a record written by [`rows_json`].
#[derive(Clone, Debug, PartialEq)]
pub struct RecordRow {
    /// Stage name.
    pub stage: String,
    /// Workload name.
    pub workload: String,
    /// Stage size parameter.
    pub scale: usize,
    /// Metric name.
    pub metric: String,
    /// Global pool size when recorded.
    pub pool_threads: usize,
    /// The median or count; `None` for a skipped reference path.
    pub value: Option<f64>,
    /// `ns`, `count`, `bytes` or `ratio`.
    pub unit: String,
}

impl RecordRow {
    /// The comparison key: (stage, workload, scale, metric, pool_threads).
    fn key(&self) -> (&str, &str, usize, &str, usize) {
        (&self.stage, &self.workload, self.scale, &self.metric, self.pool_threads)
    }
}

impl From<&Row> for RecordRow {
    fn from(r: &Row) -> Self {
        RecordRow {
            stage: r.stage.to_string(),
            workload: r.workload.to_string(),
            scale: r.scale,
            metric: r.metric.to_string(),
            pool_threads: r.pool_threads,
            value: r.value,
            unit: r.unit.to_string(),
        }
    }
}

/// The raw text of field `name` in one row line: a string's contents
/// (unescaped) or a bare number / `null`.
fn row_field(line: &str, name: &str) -> Option<String> {
    let rest = &line[line.find(&format!("\"{name}\": "))? + name.len() + 4..];
    match rest.strip_prefix('"') {
        Some(body) => {
            let mut out = String::new();
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                match c {
                    '"' => return Some(out),
                    '\\' => out.push(chars.next()?),
                    c => out.push(c),
                }
            }
            None
        }
        None => Some(rest[..rest.find([',', '}'])?].trim().to_string()),
    }
}

/// Reads the rows of a record written by [`rows_json`] (BENCH_14 onward:
/// one row object per line).
pub fn read_record(text: &str) -> Result<Vec<RecordRow>, String> {
    let rows: Vec<RecordRow> = text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"stage\""))
        .map(|line| {
            let text = |name| row_field(line, name).ok_or(format!("no {name:?} in {line}"));
            let int = |name| text(name)?.parse::<usize>().map_err(|e| format!("{name}: {e}"));
            let value = match text("value")?.as_str() {
                "null" => None,
                v => Some(v.parse::<f64>().map_err(|e| format!("value: {e}"))?),
            };
            Ok(RecordRow {
                stage: text("stage")?,
                workload: text("workload")?,
                scale: int("scale")?,
                metric: text("metric")?,
                pool_threads: int("pool_threads")?,
                value,
                unit: text("unit")?,
            })
        })
        .collect::<Result<_, String>>()?;
    if rows.is_empty() {
        return Err("no rows (not a BENCH_14-or-later record?)".to_string());
    }
    Ok(rows)
}

/// One row of a record compared with the same key in a previous record.
#[derive(Debug, PartialEq)]
pub struct Comparison<'a> {
    /// The current row.
    pub row: &'a RecordRow,
    /// The previous record's value for the same key.
    pub previous: Option<f64>,
    /// `current / previous` where both are measured and `previous > 0`.
    pub ratio: Option<f64>,
    /// `"slower"`/`"faster"` for an `ns` row outside the noise band,
    /// `"changed"` for any other unit; empty inside it.
    pub flag: &'static str,
}

/// Pairs every current row with the previous row of the same key. Returns
/// the comparisons (current rows with a previous counterpart, in current
/// order), then the keys only in `current` and those only in `previous`.
pub fn compare_records<'a>(
    previous: &'a [RecordRow],
    current: &'a [RecordRow],
    band: f64,
) -> (Vec<Comparison<'a>>, Vec<&'a RecordRow>, Vec<&'a RecordRow>) {
    use std::collections::HashMap;
    let prev_by_key: HashMap<_, &RecordRow> = previous.iter().map(|r| (r.key(), r)).collect();
    let cur_keys: std::collections::HashSet<_> = current.iter().map(RecordRow::key).collect();
    let mut compared = Vec::new();
    let mut added = Vec::new();
    for row in current {
        let Some(prev) = prev_by_key.get(&row.key()) else {
            added.push(row);
            continue;
        };
        let ratio = match (row.value, prev.value) {
            (Some(c), Some(p)) if p > 0.0 => Some(c / p),
            _ => None,
        };
        let flag = match ratio {
            Some(r) if (r - 1.0).abs() > band => match (row.unit.as_str(), r > 1.0) {
                ("ns", true) => "slower",
                ("ns", false) => "faster",
                _ => "changed",
            },
            _ => "",
        };
        compared.push(Comparison { row, previous: prev.value, ratio, flag });
    }
    let dropped = previous.iter().filter(|r| !cur_keys.contains(&r.key())).collect();
    (compared, added, dropped)
}

/// Prints [`compare_records`] of `current` against the record at
/// `previous_path` as a table on stderr, ending with a one-line summary.
pub fn print_comparison(previous_path: &str, previous: &[RecordRow], current: &[Row]) {
    let current: Vec<RecordRow> = current.iter().map(RecordRow::from).collect();
    let (compared, added, dropped) = compare_records(previous, &current, COMPARE_NOISE_BAND);
    eprintln!("comparison against {previous_path} (noise band ±{COMPARE_NOISE_BAND}):");
    eprintln!(
        "{:<12} {:<17} {:>5} {:<23} {:>4} {:>16} {:>16} {:>7} {:<7}",
        "stage", "workload", "scale", "metric", "pool", "previous", "current", "ratio", "flag"
    );
    for c in &compared {
        let r = c.row;
        eprintln!(
            "{:<12} {:<17} {:>5} {:<23} {:>4} {:>16} {:>16} {:>7} {:<7}",
            r.stage,
            r.workload,
            r.scale,
            r.metric,
            r.pool_threads,
            value_text(c.previous, "skipped"),
            value_text(r.value, "skipped"),
            c.ratio.map_or("-".to_string(), |x| format!("{x:.3}")),
            c.flag
        );
    }
    for r in &added {
        eprintln!(
            "new:     {} {} {} {} pool {}",
            r.stage, r.workload, r.scale, r.metric, r.pool_threads
        );
    }
    let flagged = compared.iter().filter(|c| !c.flag.is_empty()).count();
    let slower = compared.iter().filter(|c| c.flag == "slower").count();
    eprintln!(
        "compared {} rows: {flagged} outside the band ({slower} slower); {} new, {} not re-measured",
        compared.len(),
        added.len(),
        dropped.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_takes_middle() {
        assert_eq!(median_of_ns(&mut [5, 1, 9]), 5);
        assert_eq!(median_of_ns(&mut [7]), 7);
    }

    #[test]
    fn median_even_averages_the_middle_pair() {
        // The pre-fix index-based median returned 9 here.
        assert_eq!(median_of_ns(&mut [1, 3, 9, 11]), 6);
        assert_eq!(median_of_ns(&mut [2, 4]), 3);
    }

    #[test]
    fn median_zero_samples_is_zero_not_a_panic() {
        assert_eq!(median_of_ns(&mut []), 0);
        assert_eq!(median_ns(0, || ()), 0);
        let mut setups = 0;
        assert_eq!(median_ns_with(0, || setups += 1, |()| ()), 0);
        assert_eq!(setups, 0, "zero samples must not run the setup either");
    }

    #[test]
    fn median_ns_counts_samples() {
        let mut runs = 0u32;
        let _ = median_ns(4, || runs += 1);
        assert_eq!(runs, 4);
    }

    #[test]
    fn row_writer_emits_null_for_skipped_medians_and_escapes_names() {
        let mut rows = Rows { stage: "demand", host_threads: 2, rows: Vec::new() };
        let mut at = rows.at("a \"quoted\" mix", 5);
        at.reference("quadratic_naive", None);
        at.ns("linear_goal", 1250, 15);
        let json = rows_json("quick", 7, &["demand"], &rows.rows);
        assert!(json.contains("\"stages_run\": [\"demand\"]"), "{json}");
        assert!(json.contains("\"workload\": \"a \\\"quoted\\\" mix\""), "{json}");
        assert!(
            json.contains(
                "\"metric\": \"quadratic_naive\", \"value\": null, \"unit\": \"ns\", \
                           \"samples_used\": 0"
            ),
            "{json}"
        );
        assert!(json.contains("\"value\": 1250, \"unit\": \"ns\", \"samples_used\": 15"), "{json}");
        assert_eq!(json.lines().filter(|l| l.starts_with("    {\"stage\"")).count(), 2);
        assert!(rows.rows.iter().all(|r| r.host_threads == 2 && r.pool_threads >= 1));
    }

    fn record_row(metric: &str, value: Option<f64>, unit: &str, pool_threads: usize) -> RecordRow {
        RecordRow {
            stage: "construction".to_string(),
            workload: "ign_city".to_string(),
            scale: 8,
            metric: metric.to_string(),
            pool_threads,
            value,
            unit: unit.to_string(),
        }
    }

    #[test]
    fn records_read_back_what_the_writer_wrote() {
        let mut rows = Rows { stage: "demand", host_threads: 2, rows: Vec::new() };
        let mut at = rows.at("a \"quoted\", mix", 5);
        at.reference("quadratic_naive", None);
        at.ns("linear_goal", 1250, 15);
        at.push("iso_cached", Some(0.8125), "ns", 15);
        let json = rows_json("quick", 7, &["demand"], &rows.rows);
        let read = read_record(&json).unwrap();
        let expected: Vec<RecordRow> = rows.rows.iter().map(RecordRow::from).collect();
        assert_eq!(read, expected);
        assert!(read_record("{\"rows\": []}").is_err());
    }

    #[test]
    fn committed_record_parses() {
        let text = include_str!("../../../BENCH_14.json");
        let rows = read_record(text).unwrap();
        assert_eq!(rows.len(), text.matches("{\"stage\"").count());
        assert!(rows.iter().any(|r| r.metric == "naive_canonical" && r.value.is_none()));
    }

    #[test]
    fn comparison_pairs_by_key_and_flags_outside_the_band() {
        let previous = vec![
            record_row("top", Some(100.0), "ns", 1),
            record_row("top", Some(100.0), "ns", 2),
            record_row("classify", Some(100.0), "ns", 1),
            record_row("cells", Some(10.0), "count", 1),
            record_row("gone", Some(1.0), "ns", 1),
        ];
        let current = vec![
            record_row("top", Some(110.0), "ns", 1),
            record_row("top", Some(200.0), "ns", 2),
            record_row("classify", Some(50.0), "ns", 1),
            record_row("cells", Some(20.0), "count", 1),
            record_row("splits", Some(5.0), "ns", 1),
        ];
        let (compared, added, dropped) = compare_records(&previous, &current, 0.25);
        let flags: Vec<(&str, usize, &str)> =
            compared.iter().map(|c| (c.row.metric.as_str(), c.row.pool_threads, c.flag)).collect();
        assert_eq!(
            flags,
            vec![
                ("top", 1, ""),
                ("top", 2, "slower"),
                ("classify", 1, "faster"),
                ("cells", 1, "changed")
            ]
        );
        assert_eq!(compared[1].ratio, Some(2.0));
        assert_eq!(added.iter().map(|r| r.metric.as_str()).collect::<Vec<_>>(), vec!["splits"]);
        assert_eq!(dropped.iter().map(|r| r.metric.as_str()).collect::<Vec<_>>(), vec!["gone"]);
    }
}
