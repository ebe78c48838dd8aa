//! Offline analysis of a recorded [`EventLog`].
//!
//! Reconstructs what actually happened on the platform from the decision
//! log alone: per-core Gantt segments (who ran where, when, at which
//! rate) and the waiting-queue depth over time. Both are the raw
//! material for plotting and for sanity cross-checks against the
//! engine's own accounting (the tests do exactly that).

use crate::{EventLog, LogEvent};
use dvfs_model::{CoreId, RateIdx, TaskId};
use serde::{Deserialize, Serialize};

/// One contiguous execution interval of a task on a core at a rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GanttSegment {
    /// Core index.
    pub core: CoreId,
    /// Task executing.
    pub task: TaskId,
    /// Segment start time.
    pub start: f64,
    /// Segment end time.
    pub end: f64,
    /// Rate index during the segment.
    pub rate: RateIdx,
}

impl GanttSegment {
    /// Segment length in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Reconstruct per-core Gantt segments from a decision log. A segment
/// closes on preemption, completion, or a rate change (the latter opens
/// a new segment for the same task at the new rate).
///
/// # Panics
/// Panics on a malformed log (e.g. completion on an idle core), which
/// cannot be produced by the engine.
#[must_use]
pub fn gantt(log: &EventLog) -> Vec<GanttSegment> {
    #[derive(Clone, Copy)]
    struct Open {
        task: TaskId,
        since: f64,
        rate: RateIdx,
    }
    let ncores = log
        .entries
        .iter()
        .filter_map(|e| match e.event {
            LogEvent::Dispatch { core, .. }
            | LogEvent::Preempt { core, .. }
            | LogEvent::RateChange { core, .. }
            | LogEvent::Completion { core, .. } => Some(core + 1),
            LogEvent::Arrival { .. } => None,
        })
        .max()
        .unwrap_or(0);
    let mut open: Vec<Option<Open>> = vec![None; ncores];
    let mut out = Vec::new();
    for e in &log.entries {
        match e.event {
            LogEvent::Arrival { .. } => {}
            LogEvent::Dispatch { core, task, rate } => {
                assert!(open[core].is_none(), "dispatch on a busy core in the log");
                open[core] = Some(Open {
                    task,
                    since: e.time,
                    rate,
                });
            }
            LogEvent::Preempt { core, task } | LogEvent::Completion { core, task } => {
                let o = open[core].take().expect("stop event on an idle core");
                debug_assert_eq!(o.task, task);
                if e.time > o.since {
                    out.push(GanttSegment {
                        core,
                        task: o.task,
                        start: o.since,
                        end: e.time,
                        rate: o.rate,
                    });
                }
            }
            LogEvent::RateChange { core, to, .. } => {
                // Only splits a segment when the core is busy; idle-core
                // rate changes just set the rate for the next dispatch
                // (the dispatch logs it).
                if let Some(o) = open[core].take() {
                    if e.time > o.since {
                        out.push(GanttSegment {
                            core,
                            task: o.task,
                            start: o.since,
                            end: e.time,
                            rate: o.rate,
                        });
                    }
                    open[core] = Some(Open {
                        task: o.task,
                        since: e.time,
                        rate: to,
                    });
                }
            }
        }
    }
    out
}

/// Waiting-queue depth over time: `(time, tasks arrived but neither
/// running nor finished)`. One point per change.
#[must_use]
pub fn queue_depth_series(log: &EventLog) -> Vec<(f64, usize)> {
    let mut depth: i64 = 0;
    let mut out: Vec<(f64, usize)> = Vec::new();
    for e in &log.entries {
        match e.event {
            LogEvent::Arrival { .. } | LogEvent::Preempt { .. } => depth += 1,
            LogEvent::Dispatch { .. } => depth -= 1,
            LogEvent::Completion { .. } | LogEvent::RateChange { .. } => continue,
        }
        debug_assert!(depth >= 0, "queue depth went negative");
        match out.last_mut() {
            Some(last) if last.0 == e.time => last.1 = depth as usize,
            _ => out.push((e.time, depth as usize)),
        }
    }
    out
}

/// Write Gantt segments as CSV (`core,task,start,end,rate`).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_gantt_csv<W: std::io::Write>(
    mut w: W,
    segments: &[GanttSegment],
) -> std::io::Result<()> {
    writeln!(w, "core,task,start,end,rate")?;
    for s in segments {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.core, s.task.0, s.start, s.end, s.rate
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use dvfs_core::sched::{ExecutorView, Scheduler as Policy};
    use dvfs_model::{CoreSpec, Platform, RateTable, Task};

    struct Fifo {
        rate: RateIdx,
        queue: std::collections::VecDeque<TaskId>,
    }
    impl Policy for Fifo {
        fn name(&self) -> String {
            "fifo".into()
        }
        fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
            self.queue.push_back(task.id);
            if sim.is_idle(0) {
                let t = self.queue.pop_front().expect("just pushed");
                sim.dispatch(0, t, Some(self.rate));
            }
        }
        fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {
            if let Some(t) = self.queue.pop_front() {
                sim.dispatch(0, t, Some(self.rate));
            }
        }
    }

    fn run_logged(tasks: &[Task]) -> crate::SimReport {
        let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
        let mut sim = Simulator::new(SimConfig::new(platform).with_event_log());
        sim.add_tasks(tasks);
        sim.run(&mut Fifo {
            rate: 0,
            queue: Default::default(),
        })
    }

    #[test]
    fn gantt_reconstructs_fifo_run() {
        let tasks = vec![
            Task::batch(1, 1_600_000_000).unwrap(), // 1 s
            Task::batch(2, 3_200_000_000).unwrap(), // 2 s
        ];
        let report = run_logged(&tasks);
        let segs = gantt(&report.event_log);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].task, TaskId(1));
        assert!((segs[0].start - 0.0).abs() < 1e-12);
        assert!((segs[0].end - 1.0).abs() < 1e-9);
        assert_eq!(segs[1].task, TaskId(2));
        assert!((segs[1].end - 3.0).abs() < 1e-9);
        // Per-core segments never overlap.
        assert!(segs[0].end <= segs[1].start + 1e-12);
    }

    #[test]
    fn gantt_durations_sum_to_core_busy() {
        let tasks: Vec<Task> = (0..7)
            .map(|i| Task::batch(i, (i + 1) * 300_000_000).unwrap())
            .collect();
        let report = run_logged(&tasks);
        let segs = gantt(&report.event_log);
        let gantt_busy: f64 = segs.iter().map(GanttSegment::duration).sum();
        assert!(
            (gantt_busy - report.core_busy[0]).abs() < 1e-6,
            "gantt {gantt_busy} vs engine {}",
            report.core_busy[0]
        );
    }

    #[test]
    fn queue_depth_tracks_backlog() {
        // Two tasks arrive together; one runs, one waits, then drains.
        let tasks = vec![
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ];
        let report = run_logged(&tasks);
        let series = queue_depth_series(&report.event_log);
        let max_depth = series.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(max_depth, 1, "one task waits while the first runs");
        assert_eq!(series.last().unwrap().1, 0, "backlog drains");
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let tasks = vec![Task::batch(1, 100_000).unwrap()];
        let report = run_logged(&tasks);
        let segs = gantt(&report.event_log);
        let mut buf = Vec::new();
        write_gantt_csv(&mut buf, &segs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("core,task,start,end,rate"));
        assert_eq!(lines.count(), segs.len());
    }

    #[test]
    fn empty_log_yields_empty_outputs() {
        let log = EventLog::default();
        assert!(gantt(&log).is_empty());
        assert!(queue_depth_series(&log).is_empty());
    }
}
