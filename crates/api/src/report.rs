//! The unified query report: one serializable record shape for every
//! session query, replacing the per-entry result structs callers previously
//! had to destructure (`DoublingResult` vs `FindShortcutResult` vs
//! `MstOutcome` vs `DistVerificationOutcome`).

use lcs_congest::SimStats;
use lcs_core::ShortcutQuality;
use lcs_obs::json::{escape, push_str_field};

/// One attempt of a doubling search: the parameter guesses, whether every
/// part verified good, and the rounds the attempt cost — the record the
/// Appendix A loop itself produces.
pub use lcs_core::construction::DoublingAttempt as Attempt;

/// The unified record of one session query.
///
/// Every query of a [`crate::Session`] — shortcut construction,
/// verification, MST, batch entries — fills the same shape: which operation
/// and strategy ran, the doubling attempts (if any), the iteration count of
/// the final driver run, the CONGEST rounds *charged* by the scheduled
/// accounting versus *executed* by real message passing, the raw simulator
/// statistics, the measured quality, operation-specific counters, and the
/// wall-clock the query took. Fields an operation has nothing to say about
/// stay empty (`None` / empty vec / 0) rather than changing shape;
/// [`Report::to_json`] serializes the whole record without external
/// dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The operation that produced this report (`"shortcut"`, `"verify"`,
    /// `"mst"`, `"core"`).
    pub operation: String,
    /// The strategy label, for operations that take one.
    pub strategy: Option<String>,
    /// Doubling attempts in order (a fixed-parameter construction records
    /// its one attempt); empty for queries that construct nothing.
    pub attempts: Vec<Attempt>,
    /// Core/verification iterations of the (final) `FindShortcut` run; 0
    /// when not applicable.
    pub iterations: usize,
    /// Whether every queried part ended good (construction) or verified
    /// good (verification). MST reports `true` on success.
    pub all_parts_good: bool,
    /// CONGEST rounds charged by the scheduled accounting.
    pub rounds_charged: u64,
    /// CONGEST rounds actually executed as message passing (`Simulated`
    /// execution only).
    pub rounds_executed: Option<u64>,
    /// Raw statistics of the executed simulation (`Simulated` only).
    pub sim: Option<SimStats>,
    /// Measured quality of the produced shortcut, when the query measures
    /// it (batch entries do; bare construction leaves it to the caller).
    pub quality: Option<ShortcutQuality>,
    /// Operation-specific counters (for example `phases` and `weight` for
    /// MST), as label/value pairs so the record stays one shape.
    pub metrics: Vec<(String, u64)>,
    /// Wall-clock milliseconds the query took.
    pub wall_millis: f64,
}

impl Report {
    /// A report skeleton for `operation`; the query fills in the rest.
    pub(crate) fn new(operation: &str) -> Self {
        Report {
            operation: operation.to_string(),
            strategy: None,
            attempts: Vec::new(),
            iterations: 0,
            all_parts_good: false,
            rounds_charged: 0,
            rounds_executed: None,
            sim: None,
            quality: None,
            metrics: Vec::new(),
            wall_millis: 0.0,
        }
    }

    /// The metric value recorded under `label`, if any.
    pub fn metric(&self, label: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as a single JSON object (via the shared
    /// [`lcs_obs::json`] writer: the build environment has no serde).
    /// Unset optional fields become `null`; `sim` and `quality` become
    /// nested objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        push_str_field(&mut out, "operation", &self.operation);
        out.push(',');
        match &self.strategy {
            Some(s) => {
                push_str_field(&mut out, "strategy", s);
            }
            None => out.push_str("\"strategy\":null"),
        }
        out.push(',');
        out.push_str("\"attempts\":[");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"congestion_guess\":{},\"block_guess\":{},\"succeeded\":{},\"rounds\":{}}}",
                a.congestion_guess, a.block_guess, a.succeeded, a.rounds
            ));
        }
        out.push_str("],");
        out.push_str(&format!("\"iterations\":{},", self.iterations));
        out.push_str(&format!("\"all_parts_good\":{},", self.all_parts_good));
        out.push_str(&format!("\"rounds_charged\":{},", self.rounds_charged));
        match self.rounds_executed {
            Some(r) => out.push_str(&format!("\"rounds_executed\":{r},")),
            None => out.push_str("\"rounds_executed\":null,"),
        }
        match &self.sim {
            Some(s) => out.push_str(&format!(
                "\"sim\":{{\"rounds\":{},\"messages\":{},\"total_bits\":{},\"max_message_bits\":{}}},",
                s.rounds, s.messages, s.total_bits, s.max_message_bits
            )),
            None => out.push_str("\"sim\":null,"),
        }
        match &self.quality {
            Some(q) => out.push_str(&format!(
                "\"quality\":{{\"congestion\":{},\"dilation\":{},\"block_parameter\":{}}},",
                q.congestion, q.dilation, q.block_parameter
            )),
            None => out.push_str("\"quality\":null,"),
        }
        out.push_str("\"metrics\":{");
        for (i, (label, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(label), value));
        }
        out.push_str("},");
        out.push_str(&format!("\"wall_millis\":{:.3}", self.wall_millis));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable_and_balanced() {
        let mut report = Report::new("shortcut");
        report.strategy = Some("doubling".to_string());
        report.attempts.push(Attempt {
            congestion_guess: 1,
            block_guess: 1,
            succeeded: true,
            rounds: 42,
        });
        report.iterations = 2;
        report.all_parts_good = true;
        report.rounds_charged = 42;
        report.metrics.push(("phases".to_string(), 3));
        report.wall_millis = 1.5;
        let json = report.to_json();
        assert!(json.starts_with("{\"operation\":\"shortcut\""));
        assert!(json.contains("\"strategy\":\"doubling\""));
        assert!(json.contains("\"attempts\":[{\"congestion_guess\":1"));
        assert!(json.contains("\"rounds_executed\":null"));
        assert!(json.contains("\"sim\":null"));
        assert!(json.contains("\"metrics\":{\"phases\":3}"));
        assert!(json.contains("\"wall_millis\":1.500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sim_and_quality_serialize_as_objects() {
        let mut report = Report::new("verify");
        report.sim = Some(SimStats {
            rounds: 10,
            messages: 20,
            total_bits: 300,
            max_message_bits: 17,
        });
        report.quality = Some(ShortcutQuality {
            congestion: 3,
            dilation: 9,
            block_parameter: 2,
            per_part_blocks: vec![2, 1],
        });
        report.rounds_executed = Some(10);
        let json = report.to_json();
        assert!(json.contains("\"sim\":{\"rounds\":10,\"messages\":20"));
        assert!(
            json.contains("\"quality\":{\"congestion\":3,\"dilation\":9,\"block_parameter\":2}")
        );
        assert!(json.contains("\"rounds_executed\":10"));
    }

    #[test]
    fn metric_lookup() {
        let mut report = Report::new("mst");
        report.metrics.push(("phases".to_string(), 7));
        assert_eq!(report.metric("phases"), Some(7));
        assert_eq!(report.metric("weight"), None);
    }
}
