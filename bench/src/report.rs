//! What a run reports, and how it is printed.
//!
//! A run collects named values; the printer walks the metric table of the
//! mode it ran in ([`END_TO_END`](crate::defs::END_TO_END) untraced,
//! [`PER_LAYER`](crate::defs::PER_LAYER) traced) so the last line of output
//! always carries exactly the metrics `BENCHMARK.json` declares. A per-layer
//! metric the workload does not exercise reads 0.

use crate::defs::{Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Context lines printed above the metrics (sample counts, server
    /// counters, stream hash).
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is wrong beyond failed ops (a broken conservation
    /// law, a server that exited badly).
    violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let declared = END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
        assert!(declared, "metric {name} is not declared in defs.rs");
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The value of a declared metric; one the run never set reads 0.
    fn value(&self, metric: &Metric) -> f64 {
        self.values.get(metric.name).copied().unwrap_or(0.0)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Counts one checked op; `problem` says what was wrong with it.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("xsact-perf: failed op: {problem}");
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The driver's result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let table: &[Metric] = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(self.value(m)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything, human-readable first, the result line last.
    pub fn print(&self, workload: &str, traced: bool, fingerprint: &str) {
        println!("# workload {workload} ({})", if traced { "traced" } else { "untraced" });
        println!("# fingerprint {fingerprint}");
        for note in &self.notes {
            println!("# {note}");
        }
        let table: &[Metric] = if traced { PER_LAYER } else { END_TO_END };
        for m in table {
            println!("{:<44} {:>16} {}", m.name, json_number(self.value(m)), m.unit);
        }
        for violation in &self.violations {
            println!("# VIOLATION {violation}");
        }
        println!(
            "# failed_share {} ({} of {} checked ops)",
            json_number(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        println!("{}", self.result_line(traced));
    }
}

/// A number as measured, with all its digits; whole numbers print bare.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut report = Report::default();
        report.check(None);
        report.set("op_p50_ms", 1.25);
        report.set("core.dod_sum_greedy", 17.0);
        let line = report.result_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(!line.contains("core."));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = report.result_line(true);
        assert!(traced.contains("\"core.dod_sum_greedy\": {\"value\": 17, \"unit\": \"count\"}"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_op_or_a_violation_makes_the_run_incorrect() {
        let mut report = Report::default();
        assert!(!report.correct(), "nothing attempted is not correct");
        report.check(None);
        assert!(report.correct());
        report.check(Some("wrong bytes".into()));
        assert!(!report.correct());
        assert!(report
            .result_line(false)
            .contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));

        let mut report = Report::default();
        report.check(None);
        report.violation("queries_served 9 != 10 ops".into());
        assert!(!report.correct());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Report::default().set("no.such_metric", 1.0);
    }
}
