//! Output checks, metrics, order statistics and the result line.

use std::fmt::Write as _;

/// Output checks of one run. Every check is one attempted operation;
/// a failed check is counted, reported on stderr, and never dropped.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records every failure in `failures` as one check of `count`
    /// attempted ones.
    pub fn check_all(&mut self, count: u64, failures: Vec<String>) {
        self.attempted += count;
        self.failed += failures.len() as u64;
        for f in failures {
            eprintln!("check failed: {f}");
        }
    }

    /// Failed checks over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us` or `1/s`.
    pub unit: &'static str,
}

/// What one run prints: informational lines, then the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// `key = value` lines printed before the metrics (sample counts
    /// and the like).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The human-readable lines: notes, then every metric by name with
    /// its unit.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        out.push(format!(
            "ops_failed_frac = {} frac ({} of {} checks failed)",
            self.checks.failed_frac(),
            self.checks.failed,
            self.checks.attempted
        ));
        for m in &self.metrics {
            out.push(format!("{} = {} {}", m.name, m.value, m.unit));
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // `{:?}` keeps every digit and always writes a JSON number.
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples beyond nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - (q * n as f64).ceil() as usize
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.checks.check(true, String::new);
        r.metric("setup_s", 0.25, "s");
        r.metric("stores_per_s", 1e7, "1/s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"stores_per_s\": {\"value\": 10000000.0, \"unit\": \"1/s\"}}}"
        );
        r.checks.check(false, || "corrupted".into());
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
