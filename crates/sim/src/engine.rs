//! The simulator: the shared event engine plus report finalisation.

use crate::metrics::SimReport;
use dvfs_core::exec::{Engine, SimConfig};
use dvfs_core::sched::Scheduler as Policy;
use std::ops::{Deref, DerefMut};

/// The simulation engine. Construct with [`Simulator::new`], add tasks,
/// then [`Simulator::run`] with a policy.
///
/// Everything but the report lives in the shared
/// [`dvfs_core::exec::Engine`], which the simulator dereferences to:
/// `add_tasks`, `push_task`, `step_until`, `take_completions` and the
/// rest are the engine's methods.
///
/// ```
/// use dvfs_core::PlanPolicy;
/// use dvfs_model::{BatchPlan, Platform, Task, TaskId};
/// use dvfs_sim::{SimConfig, Simulator};
///
/// let platform = Platform::i7_950_quad();
/// let task = Task::batch(0, 1_600_000_000).unwrap(); // 1 s at 1.6 GHz
/// let mut plan = BatchPlan::empty(4);
/// plan.per_core[0].push((TaskId(0), 0));
///
/// let mut sim = Simulator::new(SimConfig::new(platform));
/// sim.add_tasks(&[task]);
/// let report = sim.run(&mut PlanPolicy::new(plan));
/// assert_eq!(report.completed(), 1);
/// assert!((report.makespan - 1.0).abs() < 1e-9);
/// ```
pub struct Simulator {
    engine: Engine,
}

impl Simulator {
    /// Build a simulator from a configuration.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
            engine: Engine::new(cfg),
        }
    }

    /// Run the simulation to completion and report.
    ///
    /// In incremental mode (after `push_task` / `step_until`) this
    /// drains the remaining backlog — the natural "graceful shutdown"
    /// path for a service.
    ///
    /// # Panics
    /// Panics when the event queue drains while tasks remain unfinished
    /// (the policy failed to dispatch them), or when the event budget is
    /// exceeded.
    pub fn run(&mut self, policy: &mut dyn Policy) -> SimReport {
        self.engine.run_to_completion(policy);
        self.report(policy.name())
    }

    /// Snapshot a report of everything simulated so far without
    /// consuming the simulator (the power timeline moves out;
    /// incremental callers should treat this as final).
    pub fn report(&mut self, policy: String) -> SimReport {
        let e = &mut self.engine;
        let makespan = e.last_completion();
        let platform = &e.config().platform;
        let cores = 0..platform.num_cores();
        let idle_energy_joules = cores
            .clone()
            .map(|j| {
                let idle = (makespan - e.core_busy(j)).max(0.0);
                platform.core(j).expect("in range").idle_power_watts * idle
            })
            .sum();
        SimReport {
            policy,
            tasks: e.records().map(|r| (r.id, *r)).collect(),
            active_energy_joules: e.active_energy(),
            idle_energy_joules,
            makespan,
            core_busy: cores.clone().map(|j| e.core_busy(j)).collect(),
            rate_residency: cores.map(|j| e.rate_residency(j).to_vec()).collect(),
            power_timeline: e.take_power_timeline(),
        }
    }
}

impl Deref for Simulator {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl DerefMut for Simulator {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_core::exec::GovernorKind;
    use dvfs_core::sched::ExecutorView;
    use dvfs_model::{CoreId, CoreSpec, Platform, RateIdx, RateTable, Task, TaskClass, TaskId};

    /// Runs every batch task on core 0 at a fixed rate, FIFO.
    struct Fifo {
        rate: RateIdx,
        queue: std::collections::VecDeque<TaskId>,
    }

    impl Fifo {
        fn new(rate: RateIdx) -> Self {
            Fifo {
                rate,
                queue: Default::default(),
            }
        }
    }

    impl Policy for Fifo {
        fn name(&self) -> String {
            "fifo-test".into()
        }
        fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
            self.queue.push_back(task.id);
            if sim.is_idle(0) {
                let next = self.queue.pop_front().expect("just pushed");
                sim.dispatch(0, next, Some(self.rate));
            }
        }
        fn on_completion(&mut self, sim: &mut dyn ExecutorView, _core: CoreId, _task: &Task) {
            if let Some(next) = self.queue.pop_front() {
                sim.dispatch(0, next, Some(self.rate));
            }
        }
    }

    fn single_core_platform() -> Platform {
        Platform::homogeneous(1, CoreSpec::new(RateTable::i7_950_table2())).unwrap()
    }

    #[test]
    fn single_task_timing_and_energy_exact() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // 1.6e9 cycles at 1.6 GHz (rate 0): exactly 1 s, 5.4 J.
        sim.add_tasks(&[Task::batch(1, 1_600_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(0));
        let rec = report.tasks[&TaskId(1)];
        assert!((rec.completion.unwrap() - 1.0).abs() < 1e-9);
        assert!((rec.energy_joules - 5.4).abs() < 1e-6);
        assert!((report.active_energy_joules - 5.4).abs() < 1e-6);
        assert!((report.makespan - 1.0).abs() < 1e-9);
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn fifo_turnarounds_accumulate() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // Two 1-second tasks back to back: completions at 1 s and 2 s.
        sim.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        let report = sim.run(&mut Fifo::new(0));
        assert!((report.total_turnaround() - 3.0).abs() < 1e-9);
        assert!((report.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_rate_shortens_time_but_raises_energy() {
        let run_at = |rate: RateIdx| {
            let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
            sim.add_tasks(&[Task::batch(1, 3_000_000_000).unwrap()]);
            sim.run(&mut Fifo::new(rate))
        };
        let slow = run_at(0);
        let fast = run_at(4);
        assert!(fast.makespan < slow.makespan);
        assert!(fast.active_energy_joules > slow.active_energy_joules);
    }

    #[test]
    fn mid_task_rate_change_is_honored() {
        /// Dispatch at low rate, then raise to max at arrival of a
        /// sentinel second task.
        struct Switcher;
        impl Policy for Switcher {
            fn name(&self) -> String {
                "switcher".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(0));
                } else {
                    // Sentinel arrival: crank the frequency.
                    sim.set_rate(0, 4);
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, TaskId(2), None);
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // Task 1: 3.2e9 cycles. At 1.6 GHz alone it would take 2 s.
        // At t=1 s (1.6e9 cycles done) we switch to the top level, whose
        // per-cycle time is T=0.33 ns (Table II), so the remaining
        // 1.6e9 cycles take 1.6e9 * 0.33 ns = 0.528 s.
        let t1 = Task::batch(1, 3_200_000_000).unwrap();
        let t2 = Task::online(2, 1_000, 1.0, None, TaskClass::Batch).unwrap();
        sim.add_tasks(&[t1, t2]);
        let report = sim.run(&mut Switcher);
        let done1 = report.tasks[&TaskId(1)].completion.unwrap();
        assert!((done1 - (1.0 + 0.528)).abs() < 1e-6, "got {done1}");
        // Energy: 1 s at 1.6 GHz power + 0.528 s at top-level power.
        let p_slow = 3.375e-9 / 0.625e-9;
        let p_fast = 7.1e-9 / 0.33e-9;
        let expect = p_slow * 1.0 + p_fast * 0.528;
        let e1 = report.tasks[&TaskId(1)].energy_joules;
        assert!((e1 - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn preemption_preserves_progress() {
        /// Runs task 1; at task 2's arrival preempts and runs task 2,
        /// then resumes task 1.
        struct Preemptor {
            resumed: Option<TaskId>,
        }
        impl Policy for Preemptor {
            fn name(&self) -> String {
                "preemptor".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(0));
                } else {
                    let prev = sim.preempt(0);
                    self.resumed = Some(prev);
                    sim.dispatch(0, task.id, Some(4));
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(2) {
                    let prev = self.resumed.take().expect("preempted task saved");
                    sim.dispatch(0, prev, Some(0));
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        // Task 1: 3.2e9 cycles at 1.6 GHz = 2 s if uninterrupted.
        // Task 2 arrives at t=1 (task 1 half done), runs 3e9 cycles at
        // the top level (T=0.33 ns) = 0.99 s. Task 1 resumes at t=1.99,
        // finishes remaining 1.6e9 cycles at 1.6 GHz in 1 s → t=2.99.
        sim.add_tasks(&[
            Task::batch(1, 3_200_000_000).unwrap(),
            Task::online(2, 3_000_000_000, 1.0, None, TaskClass::Interactive).unwrap(),
        ]);
        let report = sim.run(&mut Preemptor { resumed: None });
        let r1 = report.tasks[&TaskId(1)];
        let r2 = report.tasks[&TaskId(2)];
        assert!((r2.completion.unwrap() - 1.99).abs() < 1e-9);
        assert!((r1.completion.unwrap() - 2.99).abs() < 1e-9);
        assert_eq!(r1.preemptions, 1);
        assert_eq!(r2.preemptions, 0);
    }

    #[test]
    fn contention_dilates_execution_and_energy() {
        /// Dispatches task k on core k at max rate.
        struct OnePerCore;
        impl Policy for OnePerCore {
            fn name(&self) -> String {
                "one-per-core".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let core = task.id.0 as usize;
                let max = sim.max_allowed_rate(core);
                sim.dispatch(core, task.id, Some(max));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let platform = Platform::i7_950_quad();
        let tasks: Vec<Task> = (0..4)
            .map(|i| Task::batch(i, 3_000_000_000).unwrap())
            .collect();

        let mut ideal = Simulator::new(SimConfig::new(platform.clone()));
        ideal.add_tasks(&tasks);
        let ideal_report = ideal.run(&mut OnePerCore);

        let mut contended =
            Simulator::new(SimConfig::new(platform).with_contention(Box::new(|busy| {
                if busy <= 1 {
                    1.0
                } else {
                    1.0 / (1.0 + 0.04 * (busy as f64 - 1.0))
                }
            })));
        contended.add_tasks(&tasks);
        let contended_report = contended.run(&mut OnePerCore);

        // 4 busy cores → factor 1/1.12: makespan stretches ~12%.
        let ideal_span = 3.0e9 * 0.33e-9; // T(p_max) = 0.33 ns
        assert!((ideal_report.makespan - ideal_span).abs() < 1e-9);
        let ratio = contended_report.makespan / ideal_report.makespan;
        assert!(ratio > 1.11 && ratio < 1.13, "got ratio {ratio}");
        assert!(contended_report.active_energy_joules > ideal_report.active_energy_joules * 1.11);
    }

    #[test]
    fn ondemand_governor_ramps_up_under_load() {
        /// Dispatches everything on core 0 FIFO *without* setting rates,
        /// leaving frequency to the governor.
        struct GovFifo {
            queue: std::collections::VecDeque<TaskId>,
        }
        impl Policy for GovFifo {
            fn name(&self) -> String {
                "gov-fifo".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                self.queue.push_back(task.id);
                if sim.is_idle(0) {
                    let next = self.queue.pop_front().expect("just pushed");
                    sim.dispatch(0, next, None);
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {
                if let Some(next) = self.queue.pop_front() {
                    sim.dispatch(0, next, None);
                }
            }
        }
        let platform = single_core_platform();
        let cfg = SimConfig::new(platform).with_governor(GovernorKind::ondemand_paper());
        let mut sim = Simulator::new(cfg);
        // 16e9 cycles: at 1.6 GHz would take 10 s; the governor ramps to
        // 3.0 GHz after the first 1 s tick, so the run must finish in
        // well under 10 s but more than the 3 GHz-only 5.33 s.
        sim.add_tasks(&[Task::batch(1, 16_000_000_000).unwrap()]);
        let report = sim.run(&mut GovFifo {
            queue: Default::default(),
        });
        let t = report.makespan;
        assert!(t > 5.3 && t < 6.5, "governor ramp produced makespan {t}");
    }

    #[test]
    fn power_saving_cap_limits_frequency() {
        struct MaxFifo;
        impl Policy for MaxFifo {
            fn name(&self) -> String {
                "max-fifo".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let cap = sim.max_allowed_rate(0);
                sim.dispatch(0, task.id, Some(cap));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let cfg = SimConfig::new(single_core_platform()).with_rate_cap(2);
        let mut sim = Simulator::new(cfg);
        // 2.4e9 cycles at the capped 2.4 GHz finish in exactly 1 s ×
        // T(2.4 GHz)=0.42ns/cycle → 1.008 s (Table II rounding).
        sim.add_tasks(&[Task::batch(1, 2_400_000_000).unwrap()]);
        let report = sim.run(&mut MaxFifo);
        assert!((report.makespan - 2.4e9 * 0.42e-9).abs() < 1e-9);
    }

    #[test]
    fn idle_energy_accounts_for_unused_cores() {
        struct CoreZeroOnly;
        impl Policy for CoreZeroOnly {
            fn name(&self) -> String {
                "core-zero".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                sim.dispatch(0, task.id, Some(0));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(Platform::i7_950_quad()));
        sim.add_tasks(&[Task::batch(1, 1_600_000_000).unwrap()]);
        let report = sim.run(&mut CoreZeroOnly);
        // 3 idle cores × 2 W × 1 s makespan.
        assert!((report.idle_energy_joules - 6.0).abs() < 1e-6);
        assert!((report.core_busy[0] - 1.0).abs() < 1e-9);
        assert_eq!(report.core_busy[1], 0.0);
    }

    #[test]
    fn power_timeline_records_step_changes() {
        let cfg = SimConfig::new(single_core_platform()).with_power_timeline();
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 1_600_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(0));
        assert!(!report.power_timeline.is_empty());
        // First point: dispatch at t=0 with 1.6 GHz power.
        let (t0, w0) = report.power_timeline[0];
        assert_eq!(t0, 0.0);
        assert!((w0 - 3.375 / 0.625).abs() < 1e-9);
        // Last point: completion back to 0 W.
        let (_, wlast) = *report.power_timeline.last().unwrap();
        assert_eq!(wlast, 0.0);
    }

    #[test]
    fn switch_latency_stalls_execution() {
        // Same Switcher scenario as mid_task_rate_change_is_honored, but
        // with a 10 ms transition latency: the completion shifts by
        // exactly that stall.
        struct Switcher;
        impl Policy for Switcher {
            fn name(&self) -> String {
                "switcher".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, task.id, Some(0));
                } else {
                    sim.set_rate(0, 4);
                }
            }
            fn on_completion(&mut self, sim: &mut dyn ExecutorView, _c: CoreId, task: &Task) {
                if task.id == TaskId(1) {
                    sim.dispatch(0, TaskId(2), None);
                }
            }
        }
        let cfg = SimConfig::new(single_core_platform()).with_switch_latency(0.010);
        let mut sim = Simulator::new(cfg);
        let t1 = Task::batch(1, 3_200_000_000).unwrap();
        let t2 = Task::online(2, 1_000, 1.0, None, TaskClass::Batch).unwrap();
        sim.add_tasks(&[t1, t2]);
        let report = sim.run(&mut Switcher);
        let done1 = report.tasks[&TaskId(1)].completion.unwrap();
        // Without latency: 1.0 + 0.528 (see the sibling test); the
        // 10 ms stall adds exactly on top.
        assert!((done1 - (1.0 + 0.010 + 0.528)).abs() < 1e-6, "got {done1}");
        // Energy includes the stall at the new rate's active power.
        let p_slow = 3.375e-9 / 0.625e-9;
        let p_fast = 7.1e-9 / 0.33e-9;
        let expect = p_slow * 1.0 + p_fast * (0.528 + 0.010);
        let e1 = report.tasks[&TaskId(1)].energy_joules;
        assert!(
            (e1 - expect).abs() / expect < 1e-6,
            "energy {e1} vs {expect}"
        );
    }

    #[test]
    fn zero_latency_dispatch_rate_change_costs_nothing() {
        let cfg = SimConfig::new(single_core_platform()).with_switch_latency(0.0);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 3_000_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(4)); // dispatch switches 0 → 4
        assert!((report.makespan - 3.0e9 * 0.33e-9).abs() < 1e-9);
    }

    #[test]
    fn dispatch_rate_change_also_stalls() {
        let cfg = SimConfig::new(single_core_platform()).with_switch_latency(0.025);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 3_000_000_000).unwrap()]);
        let report = sim.run(&mut Fifo::new(4));
        assert!(
            (report.makespan - (0.025 + 3.0e9 * 0.33e-9)).abs() < 1e-9,
            "got {}",
            report.makespan
        );
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let ring = dvfs_trace::SharedRing::new(0, usize::MAX);
        sim.set_trace_sink(Some(Box::new(ring.clone())));
        sim.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        let report = sim.run(&mut Fifo::new(2));
        let trace = ring.drain();
        assert!(!trace.is_empty());
        let count = |name: &str| trace.iter().filter(|e| e.kind.name() == name).count();
        // Arrivals are not traced; the run's records carry them.
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(count("dispatch"), 2);
        assert_eq!(count("complete"), 2);
        assert_eq!(
            count("rate_change"),
            0,
            "dispatch-time rate selection is traced as the dispatch itself"
        );
        // Per-task view has arrival -> dispatch -> completion in order.
        let mut t1 = vec![report.tasks[&TaskId(1)].arrival];
        t1.extend(trace.iter().filter_map(|e| match e.kind {
            dvfs_trace::EventKind::Dispatch { task: 1, .. }
            | dvfs_trace::EventKind::Complete { task: 1, .. } => Some(e.time),
            _ => None,
        }));
        assert_eq!(t1.len(), 3);
        assert!(t1.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn no_trace_sink_by_default() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[Task::batch(1, 100_000).unwrap()]);
        sim.run(&mut Fifo::new(0));
        assert!(sim.take_trace_sink().is_none());
    }

    #[test]
    #[should_panic(expected = "above allowed cap")]
    fn set_rate_above_cap_panics() {
        struct Overclocker;
        impl Policy for Overclocker {
            fn name(&self) -> String {
                "overclocker".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                sim.dispatch(0, task.id, Some(2));
                sim.set_rate(0, 4); // cap is 2
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let cfg = SimConfig::new(single_core_platform()).with_rate_cap(2);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[Task::batch(1, 1_000_000).unwrap()]);
        sim.run(&mut Overclocker);
    }

    #[test]
    #[should_panic(expected = "preempt on an idle core")]
    fn preempt_idle_core_panics() {
        struct BadPreemptor;
        impl Policy for BadPreemptor {
            fn name(&self) -> String {
                "bad".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let _ = sim.preempt(0);
                sim.dispatch(0, task.id, None);
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[Task::batch(1, 1_000_000).unwrap()]);
        sim.run(&mut BadPreemptor);
    }

    #[test]
    fn contention_and_switch_latency_compose() {
        // Both features on at once: a 2-core platform, two tasks, one
        // rate switch each; timings must include both effects without
        // the accounting drifting.
        struct PerCore;
        impl Policy for PerCore {
            fn name(&self) -> String {
                "per-core".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                let core = task.id.0 as usize;
                sim.dispatch(core, task.id, Some(4));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let platform =
            Platform::homogeneous(2, dvfs_model::CoreSpec::new(RateTable::i7_950_table2()))
                .unwrap();
        let cfg = SimConfig::new(platform)
            .with_contention(Box::new(|busy| if busy <= 1 { 1.0 } else { 0.5 }))
            .with_switch_latency(0.1);
        let mut sim = Simulator::new(cfg);
        sim.add_tasks(&[
            Task::batch(0, 3_000_000_000).unwrap(),
            Task::batch(1, 3_000_000_000).unwrap(),
        ]);
        let report = sim.run(&mut PerCore);
        assert_eq!(report.completed(), 2);
        // Each task: 0.1 s stall + 0.99 s of work at half speed while
        // both run. Both dispatched at t=0, both stalled to 0.1, then
        // run together at factor 0.5: 0.99/0.5 = 1.98 s → finish ~2.08.
        assert!(
            (report.makespan - 2.08).abs() < 1e-6,
            "makespan {}",
            report.makespan
        );
        // Energy conservation still holds.
        let task_energy: f64 = report.tasks.values().map(|t| t.energy_joules).sum();
        assert!((task_energy - report.active_energy_joules).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "failed to dispatch")]
    fn undelivered_tasks_panic() {
        struct Lazy;
        impl Policy for Lazy {
            fn name(&self) -> String {
                "lazy".into()
            }
            fn on_arrival(&mut self, _s: &mut dyn ExecutorView, _t: &Task) {}
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[Task::batch(1, 100).unwrap()]);
        sim.run(&mut Lazy);
    }

    #[test]
    fn incremental_stepping_matches_batch_run() {
        // Batch reference: both tasks known upfront.
        let mut batch = Simulator::new(SimConfig::new(single_core_platform()));
        batch.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        let want = batch.run(&mut Fifo::new(0));

        // Incremental: push the same tasks mid-run, step in small
        // slices, then drain.
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        sim.push_task(&Task::batch(1, 1_600_000_000).unwrap());
        sim.step_until(&mut policy, 0.5);
        assert_eq!(sim.pending_tasks(), 1);
        assert!(sim.take_completions().is_empty());
        sim.push_task(&Task::batch(2, 1_600_000_000).unwrap());
        sim.step_until(&mut policy, 1.5);
        let first = sim.take_completions();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, TaskId(1));
        assert!((first[0].completion.unwrap() - 1.0).abs() < 1e-9);
        let got = sim.run(&mut policy);
        assert!((got.makespan - want.makespan).abs() < 1e-9);
        assert!((got.active_energy_joules - want.active_energy_joules).abs() < 1e-9);
        for (id, rec) in &want.tasks {
            let g = got.tasks[id];
            assert!((g.completion.unwrap() - rec.completion.unwrap()).abs() < 1e-9);
            assert!((g.energy_joules - rec.energy_joules).abs() < 1e-9);
        }
    }

    #[test]
    fn step_until_advances_clock_when_idle() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        let mut policy = Fifo::new(0);
        sim.step_until(&mut policy, 2.5);
        assert!((sim.now() - 2.5).abs() < 1e-12);
        assert_eq!(sim.pending_tasks(), 0);
        // A task pushed after idle time arrives at the current clock.
        sim.push_task(&Task::batch(1, 1_600_000_000).unwrap());
        sim.step_until(&mut policy, 4.0);
        let done = sim.take_completions();
        assert_eq!(done.len(), 1);
        assert!((done[0].completion.unwrap() - 3.5).abs() < 1e-9);
        assert!((done[0].arrival - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn push_task_rejects_duplicate_ids() {
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.push_task(&Task::batch(1, 100).unwrap());
        sim.push_task(&Task::batch(1, 100).unwrap());
    }

    #[test]
    #[should_panic(expected = "dispatch onto busy core")]
    fn double_dispatch_panics() {
        struct Doubler;
        impl Policy for Doubler {
            fn name(&self) -> String {
                "doubler".into()
            }
            fn on_arrival(&mut self, sim: &mut dyn ExecutorView, task: &Task) {
                sim.dispatch(0, task.id, Some(0));
            }
            fn on_completion(&mut self, _s: &mut dyn ExecutorView, _c: CoreId, _t: &Task) {}
        }
        let mut sim = Simulator::new(SimConfig::new(single_core_platform()));
        sim.add_tasks(&[
            Task::batch(1, 1_600_000_000).unwrap(),
            Task::batch(2, 1_600_000_000).unwrap(),
        ]);
        sim.run(&mut Doubler);
    }
}
