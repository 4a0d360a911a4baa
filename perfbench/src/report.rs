//! What one run prints: metrics by name with their units, correctness
//! gates, and the final one-line JSON result.

use crate::stats::valid_metric_name;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Results of one workload run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Metrics printed for the reader but kept out of the JSON result
    /// (they exist on one workload only; see NOTES.md).
    extra: BTreeMap<String, (f64, &'static str)>,
    gates: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// A traced run's spans as JSON, written out when the run ends.
    pub spans_json: Option<String>,
}

impl Report {
    /// Records a metric of the JSON result.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a metric that is printed but not part of the JSON result.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Records a correctness gate; any failed gate fails the run.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push((name.to_string(), ok, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    /// Fails the run if a metric name breaks the grammar or a value is
    /// not a finite number (JSON has no NaN or infinity).
    pub fn check_metrics(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.extra)
            .filter(|(name, (value, _))| !valid_metric_name(name) || !value.is_finite())
            .map(|(name, (value, _))| format!("{name}={value}"))
            .collect();
        self.gate(
            "metrics are well-formed",
            bad.is_empty(),
            if bad.is_empty() {
                "every name matches [A-Za-z0-9_.-]+ and every value is finite".to_string()
            } else {
                format!("bad: {}", bad.join(", "))
            },
        );
    }

    /// The human-readable lines: gates, notes, then every metric.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, ok, detail) in &self.gates {
            let _ = writeln!(
                out,
                "gate {:<4} {name}: {detail}",
                if *ok { "ok" } else { "FAIL" }
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {value} {unit}");
        }
        for (name, (value, unit)) in &self.extra {
            let _ = writeln!(out, "metric {name} = {value} {unit} (printed only)");
        }
        out
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_result_has_the_four_keys_and_full_digits() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.123456789, "s");
        r.set("frames_per_s", 1000.0, "frames/s");
        r.gate("g", true, "fine");
        r.check_metrics();
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"frames_per_s\": {\"value\": 1000.0, \"unit\": \"frames/s\"}, \
             \"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_gate_or_bad_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.set("ok", 1.0, "s");
        r.check_metrics();
        assert!(r.correct());
        r.set("bad name", 1.0, "s");
        r.check_metrics();
        assert!(!r.correct());
        let mut r = Report::default();
        r.set("p99_ms", f64::INFINITY, "ms");
        r.check_metrics();
        assert!(!r.correct());
    }
}
