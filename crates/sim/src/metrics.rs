//! Per-task and platform-level measurement collected by the simulator.

use dvfs_model::{CostBreakdown, CostParams, TaskClass, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// The per-task lifecycle record moved to `dvfs_model::record` so every
// executor (this simulator, the wall-clock service) shares one type;
// re-exported here for compatibility.
pub use dvfs_model::TaskRecord;

/// The full outcome of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Per-task records keyed by task id (ordered, so every aggregate
    /// below sums in deterministic order).
    pub tasks: BTreeMap<TaskId, TaskRecord>,
    /// Total active energy in joules (integral of busy power).
    pub active_energy_joules: f64,
    /// Total idle energy in joules over the simulated span
    /// (idle power × idle time, summed over cores).
    pub idle_energy_joules: f64,
    /// Time the last task completed (makespan measured from t = 0).
    pub makespan: f64,
    /// Platform power timeline: `(time, total active watts)` step
    /// function, one point per change. Feed this to `dvfs-power`'s meter
    /// to "measure" energy the way the paper does.
    pub power_timeline: Vec<(f64, f64)>,
    /// Per-core busy seconds.
    pub core_busy: Vec<f64>,
    /// `rate_residency[j][r]`: seconds core `j` spent *busy* at rate `r`.
    pub rate_residency: Vec<Vec<f64>>,
}

impl SimReport {
    /// Sum of turnaround times over completed tasks (the paper's temporal
    /// objective in the online mode, and completion-time sum in batch
    /// mode since batch arrivals are 0).
    #[must_use]
    pub fn total_turnaround(&self) -> f64 {
        self.tasks.values().filter_map(TaskRecord::turnaround).sum()
    }

    /// Number of completed tasks.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| t.completion.is_some())
            .count()
    }

    /// Monetary cost breakdown with the given parameters, using active
    /// (idle-subtracted) energy like the paper's methodology.
    #[must_use]
    pub fn cost(&self, params: CostParams) -> CostBreakdown {
        CostBreakdown::from_totals(params, self.active_energy_joules, self.total_turnaround())
    }

    /// Mean turnaround of tasks in `class`, or `None` when none finished.
    #[must_use]
    pub fn mean_turnaround(&self, class: TaskClass) -> Option<f64> {
        let (sum, n) = self
            .tasks
            .values()
            .filter(|t| t.class == class)
            .filter_map(TaskRecord::turnaround)
            .fold((0.0, 0usize), |(s, n), t| (s + t, n + 1));
        (n > 0).then(|| sum / n as f64)
    }

    /// Largest observed turnaround of tasks in `class`.
    #[must_use]
    pub fn max_turnaround(&self, class: TaskClass) -> Option<f64> {
        self.tasks
            .values()
            .filter(|t| t.class == class)
            .filter_map(TaskRecord::turnaround)
            .max_by(|a, b| a.partial_cmp(b).expect("turnarounds are finite"))
    }

    /// Number of tasks that finished after their deadline (or never
    /// finished while having one). `deadlines` maps task id → absolute
    /// deadline; tasks without deadlines never count as missed.
    #[must_use]
    pub fn deadline_misses<'a>(
        &self,
        deadlines: impl IntoIterator<Item = (&'a TaskId, &'a f64)>,
    ) -> usize {
        deadlines
            .into_iter()
            .filter(|(id, &d)| match self.tasks.get(id) {
                Some(rec) => rec.completion.is_none_or(|c| c > d),
                None => false,
            })
            .count()
    }

    /// Fraction of busy time core `j` spent at each rate, or `None` for
    /// an always-idle core.
    #[must_use]
    pub fn residency_fractions(&self, j: usize) -> Option<Vec<f64>> {
        let total: f64 = self.rate_residency[j].iter().sum();
        (total > 0.0).then(|| self.rate_residency[j].iter().map(|&t| t / total).collect())
    }

    /// Turnaround percentile (0–100, nearest-rank) of completed tasks in
    /// `class`, or `None` when none finished.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 100]`.
    #[must_use]
    pub fn turnaround_percentile(&self, class: TaskClass, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let mut ts: Vec<f64> = self
            .tasks
            .values()
            .filter(|t| t.class == class)
            .filter_map(TaskRecord::turnaround)
            .collect();
        if ts.is_empty() {
            return None;
        }
        ts.sort_by(|a, b| a.partial_cmp(b).expect("finite turnarounds"));
        let rank = ((p / 100.0) * ts.len() as f64).ceil() as usize;
        Some(ts[rank.clamp(1, ts.len()) - 1])
    }

    /// Total platform energy including idle draw: the raw quantity a
    /// wall power meter reports before the paper's idle subtraction.
    #[must_use]
    pub fn wall_energy_joules(&self) -> f64 {
        self.active_energy_joules + self.idle_energy_joules
    }

    /// Cost breakdown charging the *wall* energy (idle included) instead
    /// of the paper's idle-subtracted active energy — the "does WBG
    /// still win when stretching the makespan burns idle power?"
    /// accounting.
    #[must_use]
    pub fn wall_cost(&self, params: CostParams) -> CostBreakdown {
        CostBreakdown::from_totals(params, self.wall_energy_joules(), self.total_turnaround())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, class: TaskClass, arrival: f64, completion: Option<f64>) -> TaskRecord {
        TaskRecord {
            id: TaskId(id),
            class,
            cycles: 100,
            arrival,
            first_start: Some(arrival),
            completion,
            energy_joules: 1.0,
            preemptions: 0,
        }
    }

    fn report(records: Vec<TaskRecord>) -> SimReport {
        SimReport {
            policy: "test".into(),
            tasks: records.into_iter().map(|r| (r.id, r)).collect(),
            active_energy_joules: 10.0,
            idle_energy_joules: 2.0,
            makespan: 5.0,
            power_timeline: vec![],
            core_busy: vec![5.0],
            rate_residency: vec![vec![2.0, 3.0]],
        }
    }

    #[test]
    fn turnaround_and_totals() {
        let r = report(vec![
            record(1, TaskClass::Interactive, 1.0, Some(2.0)),
            record(2, TaskClass::NonInteractive, 0.0, Some(4.0)),
            record(3, TaskClass::NonInteractive, 2.0, None),
        ]);
        assert_eq!(r.completed(), 2);
        assert!((r.total_turnaround() - 5.0).abs() < 1e-12);
        assert_eq!(
            r.mean_turnaround(TaskClass::Interactive),
            Some(1.0),
            "only completed tasks count"
        );
        assert_eq!(r.mean_turnaround(TaskClass::NonInteractive), Some(4.0));
        assert_eq!(r.mean_turnaround(TaskClass::Batch), None);
        assert_eq!(r.max_turnaround(TaskClass::NonInteractive), Some(4.0));
    }

    #[test]
    fn cost_uses_active_energy_and_turnaround() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(3.0))]);
        let c = r.cost(CostParams::new(2.0, 10.0).unwrap());
        assert!((c.energy_cost - 20.0).abs() < 1e-12);
        assert!((c.time_cost - 30.0).abs() < 1e-12);
        assert!((c.total() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_misses_counts_late_and_unfinished() {
        let r = report(vec![
            record(1, TaskClass::Interactive, 0.0, Some(2.0)), // meets 3.0
            record(2, TaskClass::Interactive, 0.0, Some(5.0)), // misses 4.0
            record(3, TaskClass::Interactive, 0.0, None),      // unfinished, misses
        ]);
        let deadlines: std::collections::BTreeMap<TaskId, f64> = [
            (TaskId(1), 3.0),
            (TaskId(2), 4.0),
            (TaskId(3), 10.0),
            (TaskId(99), 1.0), // unknown task: ignored
        ]
        .into_iter()
        .collect();
        assert_eq!(r.deadline_misses(&deadlines), 2);
        let empty: std::collections::BTreeMap<TaskId, f64> = Default::default();
        assert_eq!(r.deadline_misses(&empty), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let r = report(
            (1..=10)
                .map(|i| record(i, TaskClass::Interactive, 0.0, Some(i as f64)))
                .collect(),
        );
        let p = |x| r.turnaround_percentile(TaskClass::Interactive, x).unwrap();
        assert_eq!(p(100.0), 10.0);
        assert_eq!(p(50.0), 5.0);
        assert_eq!(p(95.0), 10.0);
        assert_eq!(p(10.0), 1.0);
        assert_eq!(p(0.0), 1.0);
        assert_eq!(r.turnaround_percentile(TaskClass::Batch, 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(1.0))]);
        let _ = r.turnaround_percentile(TaskClass::Batch, 101.0);
    }

    #[test]
    fn wall_cost_includes_idle_energy() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(3.0))]);
        assert!((r.wall_energy_joules() - 12.0).abs() < 1e-12);
        let params = CostParams::new(1.0, 1.0).unwrap();
        assert!((r.wall_cost(params).energy_cost - 12.0).abs() < 1e-12);
        assert!((r.cost(params).energy_cost - 10.0).abs() < 1e-12);
    }

    #[test]
    fn residency_fractions_normalize() {
        let r = report(vec![record(1, TaskClass::Batch, 0.0, Some(1.0))]);
        let f = r.residency_fractions(0).unwrap();
        assert!((f[0] - 0.4).abs() < 1e-12);
        assert!((f[1] - 0.6).abs() < 1e-12);
        let mut idle = r.clone();
        idle.rate_residency = vec![vec![0.0, 0.0]];
        assert_eq!(idle.residency_fractions(0), None);
    }
}
