//! What a run reports: named metrics with units, request counts, failed
//! checks, and free-form details for the result file.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Engine requests attempted.
    pub attempted: u64,
    /// Engine requests that failed or were shed.
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Extra figures for the result file (not part of the result line).
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a detail line for the result file.
    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Whether every check passed and every value is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics every workload reports, in declaration order
/// (`BENCHMARK.json` and `perfbench/README.md` define each per workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub query_p50_ms: f64,
    pub query_p99_ms: f64,
    pub throughput_qps: f64,
    pub matvec_cold_ms: f64,
    pub matvec_hot_ms: f64,
    pub solve_s: f64,
    pub gmres_iterations: f64,
    pub rel_error: f64,
    pub plan_mb: f64,
    pub served_frac: f64,
}

impl EndToEnd {
    /// Adds every end-to-end metric to `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", self.setup_s, "s");
        out.metric("query_p50_ms", self.query_p50_ms, "ms");
        out.metric("query_p99_ms", self.query_p99_ms, "ms");
        out.metric("throughput_qps", self.throughput_qps, "1/s");
        out.metric("matvec_cold_ms", self.matvec_cold_ms, "ms");
        out.metric("matvec_hot_ms", self.matvec_hot_ms, "ms");
        out.metric("solve_s", self.solve_s, "s");
        out.metric("gmres_iterations", self.gmres_iterations, "count");
        out.metric("rel_error", self.rel_error, "1");
        out.metric("plan_mb", self.plan_mb, "MB");
        out.metric("served_frac", self.served_frac, "1");
    }

    /// Records these figures as result-file details under `prefix`.
    pub fn detail(&self, out: &mut Outcome, prefix: &str) {
        let mut tmp = Outcome::default();
        self.report(&mut tmp);
        for m in tmp.metrics {
            out.detail(&format!("{prefix}{}", m.name), json_number(m.value));
        }
    }
}

/// `1 − failed / attempted`.
#[must_use]
pub fn served_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        1.0 - failed as f64 / attempted as f64
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never produced by a correct run) render as `null`.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms");
        o.metric("setup_s", 3.0, "s");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        o.fail("wrong");
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.metric("x", f64::NAN, "ms");
        assert!(!o.correct());
        assert!(o.result_line().contains("null"));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e-7), "1e-7");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
