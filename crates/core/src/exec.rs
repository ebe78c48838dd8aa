//! The event engine: one per-core DVFS executor for every caller.
//!
//! [`Engine`] implements [`ExecutorView`] for every executor in the
//! workspace. The virtual-time simulator (`dvfs_sim::Simulator`) wraps
//! it with report finalisation; the service's wall-clock executor
//! (`dvfs_serve::RealTimeExecutor`) wraps it with a sysfs actuator and
//! round reports. Policies see only the view, so they stay independent
//! of both wrappers.
//!
//! ## Execution semantics
//!
//! * Each core runs at one of its discrete rates `p ∈ P`, executing
//!   `1/T(p)` cycles per second (the model's Equation 2, not the nominal
//!   frequency) and drawing `E(p)/T(p)` watts while busy.
//! * Progress is tracked in continuous cycles: a core with contention
//!   factor `s ∈ (0, 1]` completes `s/T(p)` cycles of its task per
//!   second. Completion events carry a per-core *epoch*; any mutation
//!   (dispatch, preemption, rate change, contention change) bumps the
//!   epoch, so stale completions are discarded when popped.
//! * Events pop in `(time, class, FIFO seq)` order (see [`event`]), so a
//!   replay is fully deterministic.
//!
//! Simulation extras — frequency [`governor`]s, a contention model, DVFS
//! switch latency, the power timeline and the decision [`EventLog`] —
//! are off in [`SimConfig::new`] and cost the default configuration no
//! more than a flag test each.

pub mod event;
pub mod governor;

use crate::sched::{ExecutorView, Scheduler};
use dvfs_model::{CoreId, Platform, RateIdx, RateTable, Task, TaskId, TaskRecord};
use dvfs_trace::TraceSink;
use event::{Event, EventKind, EventQueue};
use std::collections::BTreeMap;

pub use dvfs_model::{EventLog, LogEntry, LogEvent};
pub use governor::GovernorKind;

/// Contention factor: given the number of simultaneously busy cores,
/// return the effective speed multiplier in `(0, 1]`. `None` models an
/// ideal (contention-free) machine. `Send + Sync` so an engine can move
/// to a service worker thread.
pub type ContentionFn = Box<dyn Fn(usize) -> f64 + Send + Sync>;

/// Where the engine lands per-core frequency decisions: every dispatch
/// and every rate change is applied at the moment the policy makes it.
pub trait RateActuator: Send {
    /// Apply `rate` to core `cpu`; `true` means applied and verified.
    fn apply(&mut self, cpu: usize, rate: RateIdx) -> bool;
}

/// Engine configuration.
pub struct SimConfig {
    /// The hardware platform.
    pub platform: Platform,
    /// Per-core governor (defaults to `Userspace` everywhere).
    pub governors: Vec<GovernorKind>,
    /// Per-core cap on the usable rate index (defaults to the table max;
    /// the Power Saving baseline lowers it).
    pub max_allowed_rate: Vec<RateIdx>,
    /// Optional shared-resource contention model.
    pub contention: Option<ContentionFn>,
    /// Record the `(time, watts)` platform power step function.
    pub record_power_timeline: bool,
    /// DVFS transition latency in seconds: after a frequency change the
    /// core stalls (draws active power, executes nothing) for this long.
    /// Real per-core DVFS transitions cost on the order of tens of
    /// microseconds; the default 0 models the paper's idealization.
    pub switch_latency_s: f64,
    /// Record a decision [`EventLog`] (arrivals, dispatches,
    /// preemptions, rate changes, completions).
    pub record_event_log: bool,
    /// Safety valve: abort after this many processed events.
    pub event_budget: u64,
}

impl SimConfig {
    /// Default configuration: userspace governors, no caps, no
    /// contention, timeline recording off.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        let n = platform.num_cores();
        let caps = (0..n)
            .map(|j| platform.core(j).expect("in range").rates.max_rate())
            .collect();
        SimConfig {
            platform,
            governors: vec![GovernorKind::Userspace; n],
            max_allowed_rate: caps,
            contention: None,
            record_power_timeline: false,
            switch_latency_s: 0.0,
            record_event_log: false,
            event_budget: 2_000_000_000,
        }
    }

    /// Use `governor` on every core.
    #[must_use]
    pub fn with_governor(mut self, governor: GovernorKind) -> Self {
        self.governors = vec![governor; self.platform.num_cores()];
        self
    }

    /// Cap every core's usable rates at `idx` (Power Saving).
    #[must_use]
    pub fn with_rate_cap(mut self, idx: RateIdx) -> Self {
        for (j, cap) in self.max_allowed_rate.iter_mut().enumerate() {
            let hw_max = self.platform.core(j).expect("in range").rates.max_rate();
            *cap = idx.min(hw_max);
        }
        self
    }

    /// Install a contention model.
    #[must_use]
    pub fn with_contention(mut self, f: ContentionFn) -> Self {
        self.contention = Some(f);
        self
    }

    /// Enable power-timeline recording.
    #[must_use]
    pub fn with_power_timeline(mut self) -> Self {
        self.record_power_timeline = true;
        self
    }

    /// Enable decision logging.
    #[must_use]
    pub fn with_event_log(mut self) -> Self {
        self.record_event_log = true;
        self
    }

    /// Set the DVFS transition latency.
    ///
    /// # Panics
    /// Panics when `latency` is negative or not finite.
    #[must_use]
    pub fn with_switch_latency(mut self, latency_s: f64) -> Self {
        assert!(
            latency_s.is_finite() && latency_s >= 0.0,
            "switch latency must be finite and non-negative"
        );
        self.switch_latency_s = latency_s;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    /// Known to the engine but not yet arrived.
    Future,
    /// Arrived; waiting for a policy dispatch (also after preemption).
    Ready,
    /// Executing on a core.
    Running,
    /// Finished.
    Done,
}

struct Job {
    task: Task,
    remaining: f64,
    phase: JobPhase,
    record: TaskRecord,
}

struct Core {
    rate: RateIdx,
    max_allowed: RateIdx,
    governor: GovernorKind,
    epoch: u64,
    running: Option<TaskId>,
    last_sync: f64,
    busy_time: f64,
    busy_at_last_tick: f64,
    /// Busy seconds per rate index.
    residency: Vec<f64>,
    /// The core stalls (no execution) until this time after a DVFS
    /// transition.
    stall_until: f64,
}

/// The event-driven engine. Register tasks ([`Engine::add_tasks`],
/// [`Engine::push_task`]), then drive a policy with
/// [`Engine::step_until`] or [`Engine::run_to_completion`]. Between
/// calls, all accounting rests synchronised to [`Engine::now`].
pub struct Engine {
    cfg: SimConfig,
    cores: Vec<Core>,
    jobs: BTreeMap<TaskId, Job>,
    queue: EventQueue,
    now: f64,
    done: usize,
    total: usize,
    active_energy: f64,
    power_timeline: Vec<(f64, f64)>,
    last_completion: f64,
    event_log: EventLog,
    /// Whether governor ticks have been primed (first run/step).
    started: bool,
    /// Incremental mode: tasks may keep arriving via [`Engine::push_task`],
    /// so periodic governors re-arm even when the current backlog drains.
    incremental: bool,
    /// Events processed so far (budget accounting across steps).
    processed: u64,
    /// Every completion, in order.
    completed: Vec<TaskId>,
    /// Prefix of `completed` already handed out by [`Engine::take_completions`].
    taken: usize,
    /// Optional lifecycle trace sink (see `dvfs-trace`). Events are
    /// timestamped with engine seconds only, so drained traces are
    /// bit-identical across runs.
    trace: Option<Box<dyn TraceSink + Send>>,
    actuator: Option<Box<dyn RateActuator>>,
    actuations: u64,
    actuation_errors: u64,
}

impl Engine {
    /// Build an engine from a configuration.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let cores = (0..cfg.platform.num_cores())
            .map(|j| {
                let gov = cfg.governors[j];
                let start_rate = match gov {
                    GovernorKind::Performance => cfg.max_allowed_rate[j],
                    // An idle machine settles at the lowest level under
                    // the demand-driven governors; start there.
                    GovernorKind::OnDemand { .. } | GovernorKind::Conservative { .. } => 0,
                    GovernorKind::Userspace => 0,
                };
                let nrates = cfg.platform.core(j).expect("in range").rates.len();
                Core {
                    rate: start_rate,
                    max_allowed: cfg.max_allowed_rate[j],
                    governor: gov,
                    epoch: 0,
                    running: None,
                    last_sync: 0.0,
                    busy_time: 0.0,
                    busy_at_last_tick: 0.0,
                    residency: vec![0.0; nrates],
                    stall_until: 0.0,
                }
            })
            .collect();
        Engine {
            cores,
            jobs: BTreeMap::new(),
            queue: EventQueue::new(),
            now: 0.0,
            done: 0,
            total: 0,
            active_energy: 0.0,
            power_timeline: Vec::new(),
            last_completion: 0.0,
            event_log: EventLog::default(),
            started: false,
            incremental: false,
            processed: 0,
            completed: Vec::new(),
            taken: 0,
            trace: None,
            actuator: None,
            actuations: 0,
            actuation_errors: 0,
            cfg,
        }
    }

    /// The configuration this engine was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn log(&mut self, event: LogEvent) {
        if self.cfg.record_event_log {
            self.event_log.push(self.now, event);
        }
    }

    /// Attach (or detach, with `None`) a lifecycle trace sink. The
    /// engine records dispatch / preempt / rate-change / complete
    /// events into it; policies reach the same sink through
    /// [`ExecutorView::trace`] to add decision provenance.
    pub fn set_trace_sink(&mut self, sink: Option<Box<dyn TraceSink + Send>>) {
        self.trace = sink;
    }

    /// Take the attached trace sink back out (e.g. to drain a ring).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink + Send>> {
        self.trace.take()
    }

    fn trace_record(&mut self, kind: dvfs_trace::EventKind) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(self.now, kind);
        }
    }

    /// Attach the actuator every dispatch and rate change is applied to.
    pub fn set_actuator(&mut self, actuator: Box<dyn RateActuator>) {
        self.actuator = Some(actuator);
    }

    /// Drain the actuation counters: `(applied, errored)` since the
    /// previous drain.
    pub fn take_actuations(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.actuations),
            std::mem::take(&mut self.actuation_errors),
        )
    }

    fn actuate(&mut self, j: CoreId, rate: RateIdx) {
        if let Some(actuator) = self.actuator.as_mut() {
            if actuator.apply(j, rate) {
                self.actuations += 1;
            } else {
                self.actuation_errors += 1;
            }
        }
    }

    fn insert_job(&mut self, task: &Task, record_arrival: f64, event_at: f64) {
        let prev = self.jobs.insert(
            task.id,
            Job {
                task: task.clone(),
                remaining: task.cycles as f64,
                phase: JobPhase::Future,
                record: TaskRecord {
                    id: task.id,
                    class: task.class,
                    cycles: task.cycles,
                    arrival: record_arrival,
                    first_start: None,
                    completion: None,
                    energy_joules: 0.0,
                    preemptions: 0,
                },
            },
        );
        assert!(prev.is_none(), "duplicate task id {}", task.id);
        self.queue
            .push(event_at, EventKind::Arrival { task: task.id });
        self.total += 1;
    }

    /// Register tasks; each arrives at its `Task::arrival` time.
    ///
    /// # Panics
    /// Panics on duplicate task ids.
    pub fn add_tasks(&mut self, tasks: &[Task]) {
        for t in tasks {
            self.insert_job(t, t.arrival, t.arrival);
        }
    }

    /// Register one task while the run is (possibly) underway: the
    /// arrival fires at `task.arrival` or now, whichever is later.
    /// Switches the engine into incremental mode.
    ///
    /// # Panics
    /// Panics on a duplicate task id.
    pub fn push_task(&mut self, task: &Task) {
        self.incremental = true;
        let arrival = task.arrival.max(self.now);
        self.insert_job(task, arrival, arrival);
    }

    /// Register a task migrated from another engine. The arrival *event*
    /// fires no earlier than this engine's clock, but the record keeps
    /// the task's original arrival stamp: the time it spent queued on
    /// the source stays in its turnaround, so migration cannot flatter
    /// the cost report by resetting the waiting clock.
    ///
    /// # Panics
    /// Panics on a duplicate task id.
    pub fn push_migrated(&mut self, task: &Task) {
        self.incremental = true;
        self.insert_job(task, task.arrival, task.arrival.max(self.now));
    }

    /// Remove a task that arrived but was never dispatched (the steal
    /// half of a migration), returning the original [`Task`] so it can
    /// be re-registered elsewhere. Returns `None` — removing nothing —
    /// for running, completed, unknown, or still-future tasks: a future
    /// task's pending arrival event would dangle, and a running task's
    /// progress would be lost. The caller must also drop the task from
    /// its policy's queue; the engine only forgets the job.
    pub fn remove_ready(&mut self, task: TaskId) -> Option<Task> {
        match self.jobs.get(&task) {
            Some(job) if job.phase == JobPhase::Ready => {}
            _ => return None,
        }
        let job = self.jobs.remove(&task).expect("phase checked above");
        self.total -= 1;
        Some(job.task)
    }

    fn busy_count(&self) -> usize {
        self.cores.iter().filter(|c| c.running.is_some()).count()
    }

    /// The contention model's speed factor for the current busy count;
    /// exactly `1.0`, with no busy count taken, when no model is set.
    fn contention_factor(&self) -> f64 {
        match &self.cfg.contention {
            Some(f) => {
                let v = f(self.busy_count());
                debug_assert!(v > 0.0 && v <= 1.0, "contention factor out of (0,1]");
                v
            }
            None => 1.0,
        }
    }

    fn table(&self, j: CoreId) -> &RateTable {
        &self.cfg.platform.core(j).expect("core in range").rates
    }

    /// Advance all cores' progress/energy accounting to `self.now`.
    fn sync_all(&mut self) {
        let factor = self.contention_factor();
        for j in 0..self.cores.len() {
            let dt = self.now - self.cores[j].last_sync;
            debug_assert!(dt >= -1e-9, "time went backwards on core {j}");
            if dt > 0.0 {
                if let Some(tid) = self.cores[j].running {
                    let rp = self.table(j).rate(self.cores[j].rate);
                    // Execution speed follows the model's T(p), which the
                    // paper publishes with rounding (Table II), rather
                    // than the nominal frequency: Equation 2 is the
                    // ground truth for t_k = L_k * T(p). A core stalled
                    // by a DVFS transition draws power but makes no
                    // progress until stall_until.
                    let exec_dt = (self.now
                        - self.cores[j].stall_until.max(self.cores[j].last_sync))
                    .clamp(0.0, dt);
                    let cycles_done = (1.0 / rp.time_per_cycle) * factor * exec_dt;
                    let energy = rp.active_power_watts() * dt;
                    let job = self.jobs.get_mut(&tid).expect("running job exists");
                    job.remaining -= cycles_done;
                    job.record.energy_joules += energy;
                    self.active_energy += energy;
                    self.cores[j].busy_time += dt;
                    let rate = self.cores[j].rate;
                    self.cores[j].residency[rate] += dt;
                }
            }
            self.cores[j].last_sync = self.now;
        }
    }

    fn record_power_point(&mut self) {
        if self.cfg.record_power_timeline {
            let w = (0..self.cores.len())
                .filter(|&j| self.cores[j].running.is_some())
                .map(|j| self.table(j).rate(self.cores[j].rate).active_power_watts())
                .sum();
            self.power_timeline.push((self.now, w));
        }
    }

    /// What core `j`'s running task still needs from now: the remaining
    /// DVFS stall and the execution seconds at the current rate and
    /// contention.
    fn time_to_finish(&self, j: CoreId, task: TaskId) -> (f64, f64) {
        let remaining = self.jobs[&task].remaining.max(0.0);
        let rp = self.table(j).rate(self.cores[j].rate);
        let eff = (1.0 / rp.time_per_cycle) * self.contention_factor();
        let stall = (self.cores[j].stall_until - self.now).max(0.0);
        (stall, remaining / eff)
    }

    /// Reschedule the completion event of core `j` (if busy) based on the
    /// current rate and contention.
    fn reschedule(&mut self, j: CoreId) {
        self.cores[j].epoch += 1;
        if let Some(tid) = self.cores[j].running {
            let (stall, run) = self.time_to_finish(j, tid);
            let t_fin = self.now + stall + run;
            self.queue.push(
                t_fin,
                EventKind::Completion {
                    core: j,
                    epoch: self.cores[j].epoch,
                },
            );
        }
    }

    /// Reschedule completions after a change that may alter effective
    /// speeds: the mutated core always, every busy core when contention
    /// is active (the busy count moved).
    fn reschedule_after_mutation(&mut self, mutated: CoreId) {
        if self.cfg.contention.is_some() {
            for j in 0..self.cores.len() {
                if j == mutated || self.cores[j].running.is_some() {
                    self.reschedule(j);
                }
            }
        } else {
            self.reschedule(mutated);
        }
        self.record_power_point();
    }

    /// Switch core `j` to `rate` (already checked against its cap) and
    /// log, trace and actuate the change.
    fn change_rate(&mut self, j: CoreId, rate: RateIdx) {
        let from = self.cores[j].rate;
        self.cores[j].rate = rate;
        if self.cfg.switch_latency_s > 0.0 {
            self.cores[j].stall_until = self.now + self.cfg.switch_latency_s;
        }
        self.actuate(j, rate);
        self.log(LogEvent::RateChange {
            core: j,
            from,
            to: rate,
        });
        self.trace_record(dvfs_trace::EventKind::RateChange {
            core: j as u32,
            from: from as u32,
            to: rate as u32,
        });
        self.reschedule_after_mutation(j);
    }

    /// Prime periodic governor ticks; idempotent across run/step calls.
    fn start_ticks(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for j in 0..self.cores.len() {
            if let Some(p) = self.cores[j].governor.period() {
                self.queue.push(p, EventKind::GovernorTick { core: j });
            }
        }
    }

    /// Process one event against the policy.
    fn process_event(&mut self, policy: &mut dyn Scheduler, ev: Event) {
        self.processed += 1;
        assert!(
            self.processed <= self.cfg.event_budget,
            "event budget exceeded: likely a policy/governor livelock"
        );
        debug_assert!(ev.time >= self.now - 1e-9, "event time precedes now");
        self.now = self.now.max(ev.time);
        match ev.kind {
            EventKind::Arrival { task } => {
                self.sync_all();
                let job = self.jobs.get_mut(&task).expect("arrival for known task");
                debug_assert_eq!(job.phase, JobPhase::Future);
                job.phase = JobPhase::Ready;
                let t = job.task.clone();
                self.log(LogEvent::Arrival { task: t.id });
                policy.on_arrival(self, &t);
            }
            EventKind::Completion { core, epoch } => {
                if self.cores[core].epoch != epoch {
                    return; // stale
                }
                self.sync_all();
                let tid = self.cores[core]
                    .running
                    .expect("valid completion implies a running task");
                {
                    let job = self.jobs.get_mut(&tid).expect("job exists");
                    debug_assert!(
                        job.remaining.abs() < 1.0,
                        "completion fired with {} cycles left",
                        job.remaining
                    );
                    job.remaining = 0.0;
                    job.phase = JobPhase::Done;
                    job.record.completion = Some(self.now);
                }
                self.cores[core].running = None;
                self.done += 1;
                self.last_completion = self.now;
                self.completed.push(tid);
                self.log(LogEvent::Completion { core, task: tid });
                if self.trace.is_some() {
                    let rec = self.jobs[&tid].record;
                    self.trace_record(dvfs_trace::EventKind::Complete {
                        task: tid.0,
                        core: core as u32,
                        energy_j: rec.energy_joules,
                        turnaround_s: self.now - rec.arrival,
                    });
                }
                self.reschedule_after_mutation(core);
                let t = self.jobs[&tid].task.clone();
                policy.on_completion(self, core, &t);
            }
            EventKind::GovernorTick { core } => {
                self.sync_all();
                let c = &self.cores[core];
                let period = c.governor.period().expect("tick implies periodic governor");
                let load = ((c.busy_time - c.busy_at_last_tick) / period).clamp(0.0, 1.0);
                let next = c.governor.next_rate(load, c.rate, c.max_allowed);
                self.cores[core].busy_at_last_tick = self.cores[core].busy_time;
                if next != self.cores[core].rate {
                    self.change_rate(core, next);
                }
                if self.done < self.total || self.incremental {
                    self.queue
                        .push(self.now + period, EventKind::GovernorTick { core });
                }
                policy.on_tick(self, core);
            }
        }
    }

    /// Run every registered task to completion as fast as events allow
    /// (the batch replay, drain and graceful-shutdown path).
    ///
    /// # Panics
    /// Panics when the event queue drains while tasks remain unfinished
    /// (the policy failed to dispatch them), or when the event budget is
    /// exceeded.
    pub fn run_to_completion(&mut self, policy: &mut dyn Scheduler) {
        self.start_ticks();
        while self.done < self.total {
            let ev = self.queue.pop().unwrap_or_else(|| {
                panic!(
                    "event queue drained with {} of {} tasks unfinished: the policy \
                     failed to dispatch them",
                    self.total - self.done,
                    self.total
                )
            });
            self.process_event(policy, ev);
        }
        self.sync_all();
    }

    /// Advance the clock to `t`, processing every event due at or before
    /// it. Time then rests exactly at `t` (cores idle or mid-task), ready
    /// for more [`Engine::push_task`] calls — how a long-running service
    /// runs in paced real time.
    ///
    /// # Panics
    /// Panics when `t` is not finite or precedes the current time by
    /// more than rounding error, or when the event budget is exceeded.
    pub fn step_until(&mut self, policy: &mut dyn Scheduler, t: f64) {
        assert!(t.is_finite(), "step_until: time must be finite");
        assert!(
            t >= self.now - 1e-9,
            "step_until: t={t} precedes now={}",
            self.now
        );
        self.incremental = true;
        self.start_ticks();
        while self.queue.peek().is_some_and(|ev| ev.time <= t) {
            let ev = self.queue.pop().expect("peeked");
            self.process_event(policy, ev);
        }
        self.now = self.now.max(t);
        self.sync_all();
    }

    /// Current engine time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Tasks registered but not yet completed.
    #[must_use]
    pub fn pending_tasks(&self) -> usize {
        self.total - self.done
    }

    /// Tasks registered but neither running nor completed — the
    /// engine-held backlog a service router folds into its load scores.
    #[must_use]
    pub fn queued_tasks(&self) -> usize {
        self.total - self.done - self.busy_count()
    }

    /// Drain the records of tasks completed since the previous drain
    /// (completion order).
    pub fn take_completions(&mut self) -> Vec<TaskRecord> {
        let fresh = self.completed[self.taken..]
            .iter()
            .map(|tid| self.jobs[tid].record)
            .collect();
        self.taken = self.completed.len();
        fresh
    }

    /// Records of every completed task, in completion order.
    pub fn completed_records(&self) -> impl Iterator<Item = TaskRecord> + '_ {
        self.completed.iter().map(|tid| self.jobs[tid].record)
    }

    /// Records of every registered task, in task-id order (the order
    /// every report sums in).
    pub fn records(&self) -> impl Iterator<Item = &TaskRecord> + '_ {
        self.jobs.values().map(|job| &job.record)
    }

    /// Total active energy in joules (integral of busy power).
    #[must_use]
    pub fn active_energy(&self) -> f64 {
        self.active_energy
    }

    /// Time of the latest completion.
    #[must_use]
    pub fn last_completion(&self) -> f64 {
        self.last_completion
    }

    /// Busy seconds of core `j`.
    #[must_use]
    pub fn core_busy(&self, j: CoreId) -> f64 {
        self.cores[j].busy_time
    }

    /// Busy seconds of core `j` per rate index.
    #[must_use]
    pub fn rate_residency(&self, j: CoreId) -> &[f64] {
        &self.cores[j].residency
    }

    /// The decision log accumulated so far (empty unless
    /// [`SimConfig::with_event_log`]).
    #[must_use]
    pub fn event_log(&self) -> &EventLog {
        &self.event_log
    }

    /// Move the decision log out, leaving it empty.
    pub fn take_event_log(&mut self) -> EventLog {
        std::mem::take(&mut self.event_log)
    }

    /// Move the power timeline out, leaving it empty (empty unless
    /// [`SimConfig::with_power_timeline`]).
    pub fn take_power_timeline(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.power_timeline)
    }
}

impl ExecutorView for Engine {
    fn now(&self) -> f64 {
        self.now
    }

    fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn rate_table(&self, j: CoreId) -> &RateTable {
        self.table(j)
    }

    fn max_allowed_rate(&self, j: CoreId) -> RateIdx {
        self.cores[j].max_allowed
    }

    fn current_rate(&self, j: CoreId) -> RateIdx {
        self.cores[j].rate
    }

    fn running_task(&self, j: CoreId) -> Option<TaskId> {
        self.cores[j].running
    }

    fn remaining_cycles(&self, t: TaskId) -> f64 {
        self.jobs[&t].remaining.max(0.0)
    }

    /// Takes effect immediately; an in-flight task simply proceeds at
    /// the new speed, as per-core DVFS allows in the online mode.
    fn set_rate(&mut self, j: CoreId, rate: RateIdx) {
        assert!(
            rate <= self.cores[j].max_allowed,
            "rate {rate} above allowed cap {} on core {j}",
            self.cores[j].max_allowed
        );
        if self.cores[j].rate == rate {
            return;
        }
        self.sync_all();
        self.change_rate(j, rate);
    }

    fn dispatch(&mut self, j: CoreId, task: TaskId, rate: Option<RateIdx>) {
        assert!(
            self.cores[j].running.is_none(),
            "dispatch onto busy core {j}"
        );
        self.sync_all();
        if let Some(r) = rate {
            assert!(
                r <= self.cores[j].max_allowed,
                "rate {r} above allowed cap on core {j}"
            );
            if r != self.cores[j].rate && self.cfg.switch_latency_s > 0.0 {
                self.cores[j].stall_until = self.now + self.cfg.switch_latency_s;
            }
            self.cores[j].rate = r;
        }
        let now = self.now;
        let job = self.jobs.get_mut(&task).expect("dispatch unknown task");
        assert_eq!(
            job.phase,
            JobPhase::Ready,
            "task {task} not ready for dispatch"
        );
        job.phase = JobPhase::Running;
        if job.record.first_start.is_none() {
            job.record.first_start = Some(now);
        }
        self.cores[j].running = Some(task);
        let rate_now = self.cores[j].rate;
        self.actuate(j, rate_now);
        self.log(LogEvent::Dispatch {
            core: j,
            task,
            rate: rate_now,
        });
        if self.trace.is_some() {
            // Same arithmetic as `reschedule`, so the predicted energy is
            // bit-comparable with the measured accrual when a dispatch
            // runs in one uninterrupted slice.
            let (stall, run) = self.time_to_finish(j, task);
            let predicted_time_s = stall + run;
            let predicted_energy_j =
                self.table(j).rate(rate_now).active_power_watts() * predicted_time_s;
            self.trace_record(dvfs_trace::EventKind::Dispatch {
                task: task.0,
                core: j as u32,
                rate: rate_now as u32,
                predicted_energy_j,
                predicted_time_s,
            });
        }
        self.reschedule_after_mutation(j);
    }

    fn preempt(&mut self, j: CoreId) -> TaskId {
        let tid = self.cores[j].running.expect("preempt on an idle core");
        self.sync_all();
        let job = self.jobs.get_mut(&tid).expect("job exists");
        job.phase = JobPhase::Ready;
        job.record.preemptions += 1;
        self.cores[j].running = None;
        self.log(LogEvent::Preempt { core: j, task: tid });
        self.trace_record(dvfs_trace::EventKind::Preempt {
            task: tid.0,
            core: j as u32,
        });
        self.reschedule_after_mutation(j);
        tid
    }

    fn trace(&mut self) -> Option<&mut dyn TraceSink> {
        self.trace
            .as_mut()
            .map(|s| s.as_mut() as &mut dyn TraceSink)
    }
}
