//! Collects metrics, checks and counts, and renders the result: one
//! human-readable line per metric and timing, then the JSON result as
//! the last line.

use crate::stats::Summary;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The run's result under construction.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    lines: Vec<String>,
    /// Operations attempted: submits in the measured phases plus checks.
    pub attempted: u64,
    /// Failed operations: rejected or unanswered submits plus failed
    /// checks.
    pub failed: u64,
    /// Failed output checks (a subset of `failed`).
    pub failed_checks: u64,
}

impl Report {
    /// Record a metric (also printed as a line).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push(format!("metric {name} = {value} {unit}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Print a timing's sample count, median and tail (seconds in,
    /// shown in `unit` after multiplying by `scale`).
    pub fn timing(&mut self, name: &str, samples: &[f64], scale: f64, unit: &str) {
        let s = Summary::of(samples);
        self.lines
            .push(format!("timing {name}: {}", s.render(scale, unit)));
    }

    /// Print a free-form line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record one output check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failed_checks += 1;
            self.lines.push(format!("CHECK FAILED {what}: {e}"));
        }
    }

    /// Every line, the JSON result last.
    #[must_use]
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("{:?}: {{\"value\": {v:?}, \"unit\": {:?}}}", m.name, m.unit)
            })
            .collect();
        let mut out = self.lines.join("\n");
        out.push_str(&format!(
            "\n{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed_checks == 0 && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_last_and_carries_every_metric() {
        let mut r = Report::default();
        r.metric("tasks_per_s", 1234.5, "1/s");
        r.metric("setup_s", 0.25, "s");
        r.ops(10, 0);
        r.check("ok", Ok(()));
        let out = r.render();
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": \
             {\"tasks_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_is_incorrect_and_counts_as_failed() {
        let mut r = Report::default();
        r.check("cost", Err("tampered".into()));
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r
            .render()
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
