//! What a run prints: context lines, then one JSON line with the op tally
//! and the metrics.

/// Ops attempted and failed. Any failed op fails the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The process exit code of a run with this tally.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Output-check failures, kept short: the first few are printed.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records a metric; a value that is not a finite number fails the run.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.mismatch(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts one failed check that is not tied to an op.
    pub fn mismatch(&mut self, message: String) {
        self.tally.op(false);
        self.note_mismatch(message);
    }

    /// Keeps the message of a failed op (the op itself is tallied by the
    /// caller).
    pub fn note_mismatch(&mut self, message: String) {
        if self.mismatches.len() < 10 {
            self.mismatches.push(message);
        }
    }

    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    /// Orders the metrics as `wanted` lists them, adding 0 for each one
    /// the workload does not exercise; a recorded metric outside `wanted`
    /// or a unit that disagrees fails the run.
    pub fn fill_missing(&mut self, wanted: &[(&'static str, &'static str)]) {
        let recorded = std::mem::take(&mut self.metrics);
        for &(name, unit) in wanted {
            match recorded.iter().find(|(n, ..)| *n == name) {
                Some(&(_, value, u)) if u == unit => self.metrics.push((name, value, unit)),
                Some(&(_, _, u)) => {
                    self.mismatch(format!("metric {name} recorded in {u}, listed in {unit}"));
                    self.metrics.push((name, 0.0, unit));
                }
                None => self.metrics.push((name, 0.0, unit)),
            }
        }
        for (name, ..) in recorded {
            if !wanted.iter().any(|&(n, _)| n == name) {
                self.mismatch(format!("metric {name} is not listed"));
            }
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each value with all its digits.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = Report::default();
        report.tally.op(true);
        report.metric("latency_p50_us", 101.25, "us");
        report.metric("setup_s", 2.0, "s");
        let value = lcs_obs::json::JsonValue::parse(&report.json()).expect("valid JSON");
        let lcs_obs::json::JsonValue::Object(members) = &value else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            report.json(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"latency_p50_us\":{\"value\":101.25,\"unit\":\"us\"},\"setup_s\":{\"value\":2.0,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_or_a_non_finite_metric_fails_the_run() {
        let mut tally = Tally::default();
        tally.op(true);
        assert_eq!(tally.exit_code(), 0);
        tally.op(false);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_ne!(tally.exit_code(), 0);

        let mut report = Report::default();
        report.tally.op(true);
        report.metric("throughput_qps", f64::NAN, "1/s");
        assert!(!report.tally.correct());
        assert!(report.json().contains("\"correct\":false"));
    }
}
