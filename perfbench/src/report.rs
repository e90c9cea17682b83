//! Statistics and the result line.

use std::fmt::Write;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency percentiles in milliseconds.
pub struct Latency {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub samples: usize,
}

pub fn latency_ms(mut ns: Vec<u64>) -> Latency {
    ns.sort_unstable();
    let ms = |q| percentile(&ns, q) as f64 / 1e6;
    Latency {
        p50: ms(0.50),
        p90: ms(0.90),
        p99: ms(0.99),
        samples: ns.len(),
    }
}

/// The share of host CPU time stolen by the hypervisor over a run, from
/// `/proc/stat`: a record of how noisy the box was, not a result.
pub struct Steal(Option<(u64, u64)>);

impl Steal {
    pub fn start() -> Steal {
        Steal(Steal::read())
    }

    /// Stolen share of all CPU time since `start`, in percent.
    pub fn finish(&self) -> f64 {
        match (self.0, Steal::read()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }

    /// (steal, total) jiffies of the aggregate `cpu` line.
    fn read() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some((*fields.get(7)?, fields.iter().sum()))
    }
}

/// The one-line JSON result the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {{"#,
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable table, one metric per line.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(out, "  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    out
}
