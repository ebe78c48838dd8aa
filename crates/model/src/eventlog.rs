//! Optional decision logging.
//!
//! When enabled (`SimConfig::with_event_log` in `dvfs_core::exec`), the
//! event engine records every scheduling-relevant transition — arrivals,
//! dispatches, preemptions, frequency changes, completions — with
//! timestamps. The log is the ground truth for debugging a policy ("why
//! did core 2 slow down at t = 14.2?") and for offline analysis;
//! `dvfs-cli` can dump it as JSON lines alongside the report.

use crate::platform::CoreId;
use crate::rates::RateIdx;
use crate::task::TaskId;
use serde::{Deserialize, Serialize};

/// One logged transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LogEvent {
    /// A task arrived in the system.
    Arrival {
        /// The task.
        task: TaskId,
    },
    /// A task started (or resumed) on a core at a rate.
    Dispatch {
        /// Target core.
        core: CoreId,
        /// The task.
        task: TaskId,
        /// Rate index the core runs at.
        rate: RateIdx,
    },
    /// A running task was preempted.
    Preempt {
        /// The core.
        core: CoreId,
        /// The preempted task.
        task: TaskId,
    },
    /// A core's frequency changed (policy or governor).
    RateChange {
        /// The core.
        core: CoreId,
        /// Previous rate index.
        from: RateIdx,
        /// New rate index.
        to: RateIdx,
    },
    /// A task completed.
    Completion {
        /// The core.
        core: CoreId,
        /// The task.
        task: TaskId,
    },
}

/// A timestamped log entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Simulation time in seconds.
    pub time: f64,
    /// What happened.
    pub event: LogEvent,
}

/// The collected log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventLog {
    /// Entries in chronological order.
    pub entries: Vec<LogEntry>,
}

impl EventLog {
    /// Record an event at a time.
    pub fn push(&mut self, time: f64, event: LogEvent) {
        self.entries.push(LogEntry { time, event });
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries touching a given core (arrivals have no core and
    /// are excluded).
    pub fn for_core(&self, core: CoreId) -> impl Iterator<Item = &LogEntry> + '_ {
        self.entries.iter().filter(move |e| match e.event {
            LogEvent::Arrival { .. } => false,
            LogEvent::Dispatch { core: c, .. }
            | LogEvent::Preempt { core: c, .. }
            | LogEvent::RateChange { core: c, .. }
            | LogEvent::Completion { core: c, .. } => c == core,
        })
    }

    /// Iterate entries touching a given task.
    pub fn for_task(&self, task: TaskId) -> impl Iterator<Item = &LogEntry> + '_ {
        self.entries.iter().filter(move |e| match e.event {
            LogEvent::Arrival { task: t }
            | LogEvent::Dispatch { task: t, .. }
            | LogEvent::Preempt { task: t, .. }
            | LogEvent::Completion { task: t, .. } => t == task,
            LogEvent::RateChange { .. } => false,
        })
    }

    /// Count frequency changes (policy + governor) across all cores —
    /// the quantity the switch-latency ablation stresses.
    #[must_use]
    pub fn rate_changes(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.event, LogEvent::RateChange { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventLog {
        let mut log = EventLog::default();
        log.push(0.0, LogEvent::Arrival { task: TaskId(1) });
        log.push(
            0.0,
            LogEvent::Dispatch {
                core: 0,
                task: TaskId(1),
                rate: 2,
            },
        );
        log.push(
            1.0,
            LogEvent::RateChange {
                core: 0,
                from: 2,
                to: 4,
            },
        );
        log.push(
            1.5,
            LogEvent::Preempt {
                core: 0,
                task: TaskId(1),
            },
        );
        log.push(
            2.0,
            LogEvent::Completion {
                core: 1,
                task: TaskId(2),
            },
        );
        log
    }

    #[test]
    fn filters_by_core_and_task() {
        let log = sample();
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        assert_eq!(log.for_core(0).count(), 3);
        assert_eq!(log.for_core(1).count(), 1);
        assert_eq!(log.for_task(TaskId(1)).count(), 3);
        assert_eq!(log.for_task(TaskId(2)).count(), 1);
        assert_eq!(log.rate_changes(), 1);
    }

    #[test]
    fn jsonl_roundtrip() {
        let log = sample();
        let lines: Vec<LogEntry> = log
            .entries
            .iter()
            .map(|e| serde_json::from_str(&serde_json::to_string(e).unwrap()).unwrap())
            .collect();
        assert_eq!(lines, log.entries);
    }
}
