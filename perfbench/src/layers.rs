//! Per-layer timing for the traced run.
//!
//! Every span here is recorded from the benchmark's own code, around
//! calls into a layer's public functions; nothing is traced inside the
//! program. LMC runs inside a benchmark-owned [`Scheduler`] that times
//! each hook, and sees the executor through a benchmark-owned
//! [`ExecutorView`] that forwards every call and counts the commands.

use crate::replay::Outcome;
use crate::workload::CORES;
use dvfs_core::{CostLedger, ExecutorView, LeastMarginalCost, Scheduler};
use dvfs_model::{CoreId, CostParams, RateIdx, RateTable, Task, TaskClass, TaskId};
use dvfs_net::{Frame, LineFramer, DEFAULT_MAX_LINE};
use dvfs_serve::protocol::parse_request;
use dvfs_serve::{service_platform, RealTimeExecutor, Response};
use dvfs_trace::TraceSink;
use std::hint::black_box;
use std::time::Instant;

/// Executor commands seen through the counting view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Commands {
    /// `dispatch` calls.
    pub dispatches: u64,
    /// `preempt` calls.
    pub preempts: u64,
    /// `set_rate` calls and rate-carrying dispatches that moved a core
    /// to a different rate.
    pub rate_changes: u64,
}

/// Forwards every call to the executor's view, counting the commands.
struct CountingView<'a> {
    inner: &'a mut dyn ExecutorView,
    counts: &'a mut Commands,
}

impl ExecutorView for CountingView<'_> {
    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }
    fn rate_table(&self, j: CoreId) -> &RateTable {
        self.inner.rate_table(j)
    }
    fn max_allowed_rate(&self, j: CoreId) -> RateIdx {
        self.inner.max_allowed_rate(j)
    }
    fn current_rate(&self, j: CoreId) -> RateIdx {
        self.inner.current_rate(j)
    }
    fn running_task(&self, j: CoreId) -> Option<TaskId> {
        self.inner.running_task(j)
    }
    fn is_idle(&self, j: CoreId) -> bool {
        self.inner.is_idle(j)
    }
    fn remaining_cycles(&self, t: TaskId) -> f64 {
        self.inner.remaining_cycles(t)
    }
    fn set_rate(&mut self, j: CoreId, rate: RateIdx) {
        self.counts.rate_changes += u64::from(self.inner.current_rate(j) != rate);
        self.inner.set_rate(j, rate);
    }
    fn dispatch(&mut self, j: CoreId, task: TaskId, rate: Option<RateIdx>) {
        self.counts.dispatches += 1;
        self.counts.rate_changes +=
            u64::from(rate.is_some_and(|r| self.inner.current_rate(j) != r));
        self.inner.dispatch(j, task, rate);
    }
    fn preempt(&mut self, j: CoreId) -> TaskId {
        self.counts.preempts += 1;
        self.inner.preempt(j)
    }
    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        self.inner.trace()
    }
}

/// Raw per-hook LMC samples, in seconds.
#[derive(Debug, Clone, Default)]
pub struct LmcSamples {
    /// `on_arrival` of interactive tasks.
    pub arrival_interactive_s: Vec<f64>,
    /// `on_arrival` of non-interactive tasks.
    pub arrival_noninteractive_s: Vec<f64>,
    /// `on_completion`.
    pub completion_s: Vec<f64>,
    /// Queued non-interactive tasks per core at each non-interactive
    /// arrival (`stealable_tasks() / cores`, before the arrival).
    pub queue_depth: Vec<f64>,
}

impl LmcSamples {
    /// Total time spent inside LMC, in seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        [
            &self.arrival_interactive_s,
            &self.arrival_noninteractive_s,
            &self.completion_s,
        ]
        .iter()
        .flat_map(|v| v.iter())
        .sum()
    }
}

/// LMC behind a hook timer.
struct TimedLmc {
    inner: LeastMarginalCost,
    samples: LmcSamples,
    commands: Commands,
}

impl Scheduler for TimedLmc {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_arrival(&mut self, x: &mut dyn ExecutorView, task: &Task) {
        let interactive = task.class == TaskClass::Interactive;
        if !interactive {
            let depth = self.inner.stealable_tasks() as f64 / CORES as f64;
            self.samples.queue_depth.push(depth);
        }
        let mut view = CountingView {
            inner: x,
            counts: &mut self.commands,
        };
        let t0 = Instant::now();
        self.inner.on_arrival(&mut view, task);
        let s = t0.elapsed().as_secs_f64();
        if interactive {
            self.samples.arrival_interactive_s.push(s);
        } else {
            self.samples.arrival_noninteractive_s.push(s);
        }
    }

    fn on_completion(&mut self, x: &mut dyn ExecutorView, core: CoreId, task: &Task) {
        let mut view = CountingView {
            inner: x,
            counts: &mut self.commands,
        };
        let t0 = Instant::now();
        self.inner.on_completion(&mut view, core, task);
        self.samples.completion_s.push(t0.elapsed().as_secs_f64());
    }
}

/// The bare executor layer on one trace.
#[derive(Debug, Clone)]
pub struct ExecutorLayer {
    /// `run_to_completion` wall time, in seconds.
    pub run_s: f64,
    /// Per-hook LMC samples.
    pub lmc: LmcSamples,
    /// Commands LMC issued.
    pub commands: Commands,
    /// The schedule's totals (for the conformance check).
    pub outcome: Outcome,
}

impl ExecutorLayer {
    /// Executor time outside LMC, in seconds.
    #[must_use]
    pub fn self_s(&self) -> f64 {
        self.run_s - self.lmc.total_s()
    }
}

/// Push the trace into a bare `RealTimeExecutor` and run it to
/// completion under the timed LMC.
#[must_use]
pub fn executor_round(trace: &[Task]) -> ExecutorLayer {
    let params = CostParams::online_paper();
    let platform = service_platform(CORES);
    let mut policy = TimedLmc {
        inner: LeastMarginalCost::new(&platform, params),
        samples: LmcSamples::default(),
        commands: Commands::default(),
    };
    let mut exec = RealTimeExecutor::new(platform);
    for t in trace {
        exec.push_task(t);
    }
    let t0 = Instant::now();
    exec.run_to_completion(&mut policy);
    let run_s = t0.elapsed().as_secs_f64();
    let report = exec.round_report();
    ExecutorLayer {
        run_s,
        lmc: policy.samples,
        commands: policy.commands,
        outcome: Outcome {
            completed: report.records.len() as u64,
            cost: report.total_cost(params),
            energy_j: report.active_energy_joules,
            turnaround_s: report.total_turnaround_s,
            makespan_s: report.makespan_s,
        },
    }
}

/// Ledger probe and insert+remove samples, in seconds, on one core's
/// `CostLedger` filled with `depth` of the trace's non-interactive
/// sizes, probing with `ops` sizes drawn in order from the same pool.
#[must_use]
pub fn ledger_round(trace: &[Task], depth: usize, ops: usize) -> (Vec<f64>, Vec<f64>) {
    let mut sizes: Vec<u64> = trace
        .iter()
        .filter(|t| t.class != TaskClass::Interactive)
        .map(|t| t.cycles)
        .collect();
    if sizes.is_empty() {
        sizes = trace.iter().map(|t| t.cycles).collect();
    }
    let platform = service_platform(CORES);
    let table = &platform.core(0).expect("core 0 exists").rates;
    let mut ledger = CostLedger::new(table, CostParams::online_paper());
    for k in 0..depth {
        ledger.insert(sizes[k % sizes.len()]);
    }
    let pick = |k: usize| sizes[(depth + k) % sizes.len()];
    let mut probe_s = Vec::with_capacity(ops);
    for k in 0..ops {
        let c = pick(k);
        let t0 = Instant::now();
        black_box(ledger.marginal_insert_cost(black_box(c)));
        probe_s.push(t0.elapsed().as_secs_f64());
    }
    let mut insert_remove_s = Vec::with_capacity(ops);
    for k in 0..ops {
        let c = pick(k);
        let t0 = Instant::now();
        let h = ledger.insert(black_box(c));
        black_box(ledger.remove(h));
        insert_remove_s.push(t0.elapsed().as_secs_f64());
    }
    (probe_s, insert_remove_s)
}

/// `parse_request` time per submit line, in seconds.
#[must_use]
pub fn parse_samples(lines: &[String]) -> Vec<f64> {
    lines
        .iter()
        .map(|l| {
            let t0 = Instant::now();
            black_box(parse_request(black_box(l)).is_ok());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// `Response::encode` time per decoded ack, in seconds.
#[must_use]
pub fn reply_encode_samples(acks: &[String]) -> Vec<f64> {
    acks.iter()
        .filter_map(|a| Response::decode(a).ok())
        .map(|r| {
            let t0 = Instant::now();
            black_box(black_box(&r).encode());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// `LineFramer::feed` over the lines' wire bytes in 4 KiB reads:
/// per-read times in seconds, and the number of lines framed.
#[must_use]
pub fn framer_samples(lines: &[String]) -> (Vec<f64>, usize) {
    let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        bytes.extend_from_slice(l.as_bytes());
        bytes.push(b'\n');
    }
    let mut framer = LineFramer::new(DEFAULT_MAX_LINE);
    let mut frames = Vec::new();
    let mut framed = 0;
    let samples = bytes
        .chunks(4096)
        .map(|chunk| {
            frames.clear();
            let t0 = Instant::now();
            framer.feed(black_box(chunk), &mut frames);
            let s = t0.elapsed().as_secs_f64();
            framed += frames
                .iter()
                .filter(|f| matches!(f, Frame::Line(_)))
                .count();
            s
        })
        .collect();
    (samples, framed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::sim_round;
    use crate::workload::Workload;
    use dvfs_serve::protocol::encode_submit;

    #[test]
    fn timed_executor_round_conforms_and_counts() {
        let mut trace = Workload::JudgeReplay.trace(2);
        trace.truncate(3_000);
        let (reference, _) = sim_round(&trace);
        let layer = executor_round(&trace);
        assert_eq!(layer.outcome.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(layer.outcome.completed, trace.len() as u64);
        let hooks =
            layer.lmc.arrival_interactive_s.len() + layer.lmc.arrival_noninteractive_s.len();
        assert_eq!(hooks, trace.len());
        assert_eq!(layer.lmc.completion_s.len(), trace.len());
        assert_eq!(
            layer.lmc.queue_depth.len(),
            layer.lmc.arrival_noninteractive_s.len()
        );
        // Every task is dispatched once, plus once more per preemption.
        assert_eq!(
            layer.commands.dispatches,
            trace.len() as u64 + layer.commands.preempts
        );
        assert!(layer.self_s() > 0.0);
    }

    #[test]
    fn ledger_round_fills_to_depth() {
        let trace = Workload::BacklogReplay.trace(1);
        let (probe, ins) = ledger_round(&trace, 100, 50);
        assert_eq!((probe.len(), ins.len()), (50, 50));
    }

    #[test]
    fn wire_layers_see_every_line() {
        let lines: Vec<String> = (0..500)
            .map(|k| encode_submit(None, 1_000 + k, TaskClass::Interactive, None))
            .collect();
        assert_eq!(parse_samples(&lines).len(), 500);
        let (reads, framed) = framer_samples(&lines);
        assert_eq!(framed, 500);
        assert!(!reads.is_empty());
        let acks = vec!["{\"ok\":true}".to_string(), "garbage".to_string()];
        assert_eq!(reply_encode_samples(&acks).len(), 1);
    }
}
