//! Offline analysis of a recorded lifecycle trace.
//!
//! Reconstructs what actually happened on the platform from one
//! engine's `dvfs-trace` stream — the events a simulator records
//! through `Engine::set_trace_sink`, or one shard of the service's
//! trace — plus the run's task records: per-core Gantt segments (who
//! ran where, when, at which rate) and the waiting-queue depth over
//! time. Both are the raw material for plotting and for sanity
//! cross-checks against the engine's own accounting (the tests do
//! exactly that).

use dvfs_model::{CoreId, RateIdx, TaskId, TaskRecord};
use dvfs_trace::{EventKind, TraceEvent};
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

/// Reconstruct per-core Gantt segments from one engine's trace. A
/// segment opens on `dispatch`, closes on `preempt` or `complete`, and
/// a `rate_change` on a busy core closes it and opens a new segment for
/// the same task at the new rate. Other events are ignored.
///
/// # Panics
/// Panics on a malformed trace (e.g. completion on an idle core), which
/// cannot be produced by the engine.
#[must_use]
pub fn gantt(trace: &[TraceEvent]) -> Vec<GanttSegment> {
    #[derive(Clone, Copy)]
    struct Open {
        task: TaskId,
        since: f64,
        rate: RateIdx,
    }
    let ncores = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Dispatch { core, .. }
            | EventKind::Preempt { core, .. }
            | EventKind::RateChange { core, .. }
            | EventKind::Complete { core, .. } => Some(core as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut open: Vec<Option<Open>> = vec![None; ncores];
    let mut out = Vec::new();
    for e in trace {
        match e.kind {
            EventKind::Dispatch {
                core, task, rate, ..
            } => {
                let core = core as usize;
                assert!(open[core].is_none(), "dispatch on a busy core in the trace");
                open[core] = Some(Open {
                    task: TaskId(task),
                    since: e.time,
                    rate: rate as usize,
                });
            }
            EventKind::Preempt { core, task } | EventKind::Complete { core, task, .. } => {
                let core = core as usize;
                let o = open[core].take().expect("stop event on an idle core");
                debug_assert_eq!(o.task, TaskId(task));
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
            EventKind::RateChange { core, to, .. } => {
                // Only splits a segment when the core is busy; idle-core
                // rate changes just set the rate for the next dispatch
                // (the dispatch carries it).
                let core = core as usize;
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
                        rate: to as usize,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Waiting-queue depth over time: `(time, tasks arrived but neither
/// running nor finished)`, one point per change. The trace has no
/// arrival event (the service traces `submit` at admission instead), so
/// arrivals come from the run's task records; at equal timestamps they
/// count ahead of the trace's `dispatch` and `preempt` events.
#[must_use]
pub fn queue_depth_series<'a>(
    trace: &[TraceEvent],
    records: impl IntoIterator<Item = &'a TaskRecord>,
) -> Vec<(f64, usize)> {
    fn step(out: &mut Vec<(f64, usize)>, depth: &mut i64, time: f64, delta: i64) {
        *depth += delta;
        debug_assert!(*depth >= 0, "queue depth went negative");
        let d = *depth as usize;
        match out.last_mut() {
            Some(last) if last.0 == time => last.1 = d,
            _ => out.push((time, d)),
        }
    }
    let mut arrivals: Vec<f64> = records.into_iter().map(|r| r.arrival).collect();
    arrivals.sort_by(f64::total_cmp);
    let mut arrivals = arrivals.into_iter().peekable();
    let mut depth: i64 = 0;
    let mut out: Vec<(f64, usize)> = Vec::new();
    for e in trace {
        let delta = match e.kind {
            EventKind::Preempt { .. } => 1,
            EventKind::Dispatch { .. } => -1,
            _ => continue,
        };
        while let Some(t) = arrivals.next_if(|&t| t <= e.time) {
            step(&mut out, &mut depth, t, 1);
        }
        step(&mut out, &mut depth, e.time, delta);
    }
    for t in arrivals {
        step(&mut out, &mut depth, t, 1);
    }
    out
}

/// Count frequency changes (policy and governor) across all cores —
/// the quantity the switch-latency ablation stresses. Dispatch-time rate
/// selection is part of the `dispatch` event and not counted.
#[must_use]
pub fn rate_changes(trace: &[TraceEvent]) -> usize {
    trace
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RateChange { .. }))
        .count()
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
    use crate::{SimConfig, SimReport, Simulator};
    use dvfs_core::sched::{ExecutorView, Scheduler as Policy};
    use dvfs_model::{CoreSpec, Platform, RateTable, Task};
    use dvfs_trace::SharedRing;

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

    fn run_traced(tasks: &[Task]) -> (SimReport, Vec<TraceEvent>) {
        let platform = Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap();
        let mut sim = Simulator::new(SimConfig::new(platform));
        let ring = SharedRing::new(0, usize::MAX);
        sim.set_trace_sink(Some(Box::new(ring.clone())));
        sim.add_tasks(tasks);
        let report = sim.run(&mut Fifo {
            rate: 0,
            queue: Default::default(),
        });
        assert_eq!(ring.dropped(), 0);
        (report, ring.drain())
    }

    #[test]
    fn gantt_reconstructs_fifo_run() {
        let tasks = vec![
            Task::batch(1, 1_600_000_000).unwrap(), // 1 s
            Task::batch(2, 3_200_000_000).unwrap(), // 2 s
        ];
        let (_, trace) = run_traced(&tasks);
        let segs = gantt(&trace);
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
        let (report, trace) = run_traced(&tasks);
        let segs = gantt(&trace);
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
        let (report, trace) = run_traced(&tasks);
        let series = queue_depth_series(&trace, report.tasks.values());
        let max_depth = series.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(max_depth, 1, "one task waits while the first runs");
        assert_eq!(series.last().unwrap().1, 0, "backlog drains");
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let tasks = vec![Task::batch(1, 100_000).unwrap()];
        let (_, trace) = run_traced(&tasks);
        let segs = gantt(&trace);
        let mut buf = Vec::new();
        write_gantt_csv(&mut buf, &segs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("core,task,start,end,rate"));
        assert_eq!(lines.count(), segs.len());
    }

    #[test]
    fn empty_trace_yields_empty_outputs() {
        assert!(gantt(&[]).is_empty());
        assert!(queue_depth_series(&[], &[] as &[TaskRecord]).is_empty());
    }
}
