//! The scheduler service: wire requests in, LMC scheduling decisions
//! out.
//!
//! Two operating modes:
//!
//! * **Replay** — submissions buffer in the admission queues with their
//!   explicit arrival times; a `drain` command runs the whole workload
//!   through the wall-clock executors at once. Because the buffered
//!   tasks reach each engine in submission order with untouched
//!   arrivals, a drained round on a single shard is *bit-identical* to
//!   running `LeastMarginalCost` over the same trace on the simulator
//!   — the determinism contract the end-to-end tests pin.
//! * **Paced** — a ticker thread maps wall time onto the executor
//!   clocks (`engine_seconds = wall_seconds * speed`) and steps them
//!   incrementally; submissions arrive at the current engine time and
//!   completions stream into the latency/cost histograms as they
//!   happen. Each worker's paced anchor restarts together with its
//!   engine on every drain, so a fresh round always begins near engine
//!   time zero instead of inheriting the previous round's clock.
//!
//! ## Sharding
//!
//! The service runs `shards` independent engine instances, each owning
//! its own `RealTimeExecutor`, `LeastMarginalCost` policy state, and
//! bounded admission queue (the configured capacity is split across
//! shards). A router assigns each submission to a shard:
//!
//! * **Explicit ids** hash to `id % shards`, so replaying a recorded
//!   trace is reproducible — the same task always lands on the same
//!   shard.
//! * **Auto-assigned ids** route class-aware by load: each shard is
//!   scored by its *combined* load — admission depth plus the engine
//!   backlog its worker publishes through a shared atomic — and the
//!   shard with the most class headroom against that load wins, ties
//!   going to the lower combined load and then the rotating cursor.
//!   Admission depth alone is blind to tasks a tick already pulled
//!   into an engine, which let auto-ids pile onto a shard whose queue
//!   looked empty while its engine was deep.
//!
//! `tick`, `drain`, `stats`, and shutdown fan out across shards in
//! ascending index order and merge the per-shard results
//! deterministically. With `shards = 1` the service is exactly the
//! single-engine scheduler it replaces.
//!
//! ## Cross-shard rebalancing
//!
//! Routing is one-shot, so shards can still diverge after placement.
//! When [`RebalanceConfig::enabled`] is set, every `tick` ends with a
//! rebalance pass: the scheduler reads each worker's published load
//! gauge (engine backlog + the Eq. 32 queued-cost total of its
//! resident queue), and when the hottest shard's queued cost exceeds
//! the coldest's by more than the configured gap it moves a batch —
//! sized to close about half the cost gap, capped at `max_batch` — of
//! queued (never dispatched) tasks hot→cold through the worker command
//! protocol — `Steal` on the hot worker (Algorithm 6 ledger deletes,
//! longest-cycles first), `Inject` on the cold worker (normal
//! Algorithm 5 inserts via the arrival path), with `migrate` trace
//! events and `migrations{,_out,_in}` counters recording the decision.
//! The pass runs only from the tick path — never a free-running
//! thread — and the default is off, so replay drains (which never
//! tick) stay bit-identical to the simulator reference.
//!
//! ## Threading model
//!
//! Every shard's engine is owned outright by a dedicated **worker
//! thread** (see the crate's `worker` module); there is no engine
//! mutex anywhere. The submission path never touches a worker: it
//! reads an atomic shutdown flag, reserves the task id under a small
//! id-ledger mutex, and hands the task to one shard's admission queue
//! (which has its own lock and re-checks the shutdown flag inside it —
//! see `AdmissionQueue::try_submit_stamped`). `tick`, `drain`, and
//! `stats` broadcast a command to every worker and collect the
//! one-shot replies in ascending shard order (the one `ask_all`
//! fan-out), so a slow scheduling round never blocks admission, a slow
//! round on one shard never blocks the others — and with `shards = N`
//! on an N-core host the rounds genuinely run in parallel.
//!
//! A drain is still a global round barrier: a small `round_mx` mutex
//! serializes rounds, and the id ledger and paced clock reset inside
//! it, while per-shard reports are collected in ascending order. The
//! barrier is released *before* the reports are merged and encoded —
//! no cross-shard state is read during the merge, so nothing needs to
//! stay blocked across it.

use crate::admission::{AdmissionPolicy, AdmissionQueue, GateOutcome};
use crate::executor::RoundReport;
use crate::metrics::{shard_metric, Registry};
use crate::protocol::{field_f64, field_u64, ErrorKind, Response};
use crate::stage::{StageClock, StageHists, REQUEST_E2E, STAGE_CMD_DEQUEUE, TELESCOPE_STAGES};
use crate::worker::{self, Command, Heartbeat, ShardShared, WorkerHandle};
use dvfs_model::{CoreSpec, CostParams, Platform, RateTable, Task, TaskClass};
use dvfs_trace::{ClassTag, EventKind as TraceKind, SharedRing, TraceEvent};
use serde::Value;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How the service maps submissions onto engine time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Buffer submissions (explicit arrivals) and run on `drain`.
    Replay,
    /// Step the executors in real time, `speed` engine seconds per wall
    /// second.
    Paced {
        /// Engine-seconds advanced per wall-second (1.0 = real time).
        speed: f64,
    },
}

/// Cross-shard rebalancer knobs (`--rebalance on|off`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Master switch. Off by default: a disabled rebalancer touches no
    /// engine, so replay rounds stay bit-identical to the simulator.
    pub enabled: bool,
    /// Relative queued-cost gap the hot shard must hold over the cold
    /// one before tasks move (`hot > cold * (1 + min_cost_gap)`) — the
    /// guard that keeps near-balanced shards from thrashing work back
    /// and forth.
    pub min_cost_gap: f64,
    /// Most tasks migrated per rebalance pass.
    pub max_batch: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            min_cost_gap: 0.25,
            max_batch: 8,
        }
    }
}

impl RebalanceConfig {
    /// The default knobs with the master switch on.
    #[must_use]
    pub fn on() -> Self {
        RebalanceConfig {
            enabled: true,
            ..RebalanceConfig::default()
        }
    }
}

/// Scheduler construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Number of homogeneous i7-950 cores *per shard* to schedule onto.
    pub cores: usize,
    /// Cost weights for reporting and the LMC policy.
    pub params: CostParams,
    /// Replay or paced operation.
    pub mode: Mode,
    /// Total admission-queue bound, split evenly across shards (every
    /// shard keeps at least one slot).
    pub queue_capacity: usize,
    /// Number of independent engine instances (executor + policy +
    /// admission queue), each owned by its own worker thread. Clamped
    /// to at least 1.
    pub shards: usize,
    /// Per-shard lifecycle trace ring capacity (events). `0` disables
    /// tracing entirely: no rings are allocated and the executors'
    /// record paths stay dormant.
    pub trace_capacity: usize,
    /// Cross-shard rebalancer, driven from the tick path. Disabled by
    /// default so drains of an untouched service replay bit-identically.
    pub rebalance: RebalanceConfig,
    /// Per-request stage-attribution telemetry (the runtime health
    /// plane's per-task half). On by default; the health-overhead bench
    /// turns it off to pin the cost of the stage clock. Heartbeat slots
    /// are per-command and stay on regardless — only the per-task stage
    /// histogram records are gated. Metrics never feed back into
    /// scheduling, so the flag cannot affect the replayed schedule.
    pub telemetry: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            cores: 4,
            params: CostParams::online_paper(),
            mode: Mode::Replay,
            queue_capacity: 1024,
            shards: 1,
            trace_capacity: 0,
            rebalance: RebalanceConfig::default(),
            telemetry: true,
        }
    }
}

/// One submit request as batched off the wire: the fields of a
/// `{"cmd":"submit",...}` line, ready for [`Scheduler::submit_many`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitItem {
    /// Explicit task id, or `None` for auto-assignment.
    pub id: Option<u64>,
    /// Work, in cycles.
    pub cycles: u64,
    /// Scheduling class.
    pub class: TaskClass,
    /// Arrival on the engine clock; defaulted per [`Mode`].
    pub arrival: Option<f64>,
}

/// The platform a scheduler shard with `cores` cores runs on. Exposed
/// so out-of-process clients (tests, analysis) can reproduce server
/// runs exactly.
#[must_use]
pub fn service_platform(cores: usize) -> Platform {
    Platform::homogeneous(cores, CoreSpec::new(RateTable::i7_950_table2()))
        .expect("positive core count")
}

fn class_tag(class: TaskClass) -> ClassTag {
    match class {
        TaskClass::Batch => ClassTag::Batch,
        TaskClass::Interactive => ClassTag::Interactive,
        TaskClass::NonInteractive => ClassTag::NonInteractive,
    }
}

/// The task-id ledger for the current round (global across shards, so
/// duplicate-id rejection holds service-wide).
struct IdLedger {
    used: HashSet<u64>,
    next_auto: u64,
}

#[cfg(test)]
type RoundHook = Box<dyn FnOnce(&Scheduler) + Send>;

/// Trace events drained from the shard rings, plus the streaming
/// cursor: `forgotten` events were already handed out by
/// `trace_stream` (and, when a `--trace-out` file is configured,
/// appended to it first) and dropped from memory.
struct DrainedTrace {
    events: Vec<TraceEvent>,
    /// Events streamed-and-forgotten so far; `forgotten + events.len()`
    /// is the absolute index of the next event to arrive.
    forgotten: u64,
}

/// One `trace_stream` increment: every retained event serialized, about
/// to be forgotten server-side.
pub(crate) struct TraceChunk {
    /// JSONL lines of this chunk's events.
    pub lines: Vec<String>,
    /// Absolute index of `lines[0]` in the full trace stream — the
    /// append cursor a `--trace-out` file writer needs.
    pub forgotten_before: u64,
    /// Total events streamed including this chunk.
    pub streamed_total: u64,
    /// Ring-drop counter at snapshot time.
    pub dropped: u64,
}

/// The long-running scheduler: a router over N shards — each an
/// admission queue feeding an engine owned by a dedicated worker
/// thread — plus a global id ledger, the paced-clock anchor used for
/// arrival stamping, and metrics.
pub struct Scheduler {
    cfg: SchedulerConfig,
    shards: Vec<Arc<ShardShared>>,
    /// One worker per shard, same indexing as `shards`. Commands are
    /// broadcast in ascending order and replies collected in ascending
    /// order, which is what makes every fan-out deterministic.
    workers: Vec<WorkerHandle>,
    metrics: Arc<Registry>,
    shutting_down: AtomicBool,
    ids: Mutex<IdLedger>,
    /// Wall-clock anchor for stamping paced submissions with an engine
    /// arrival time. Reset on every drain so a fresh round starts near
    /// engine time zero. (Each worker keeps its *own* anchor for tick
    /// targets, reset inside its drain processing.)
    anchor: Mutex<Option<Instant>>,
    /// Serializes rounds: a drain broadcasts to every worker and
    /// collects every report under this lock, so two concurrent drains
    /// cannot interleave their rounds across shards.
    round_mx: Mutex<()>,
    /// Signals `wait_for_work` when any shard admits a task.
    work_mx: Mutex<()>,
    work_cv: Condvar,
    /// Rotating start offset for auto-id routing, so fully tied shards
    /// (e.g. a paced service whose ticker keeps every queue empty)
    /// round-robin instead of piling onto shard 0.
    router_cursor: AtomicUsize,
    /// Trace events drained from the shard rings so far, in drain
    /// order (ascending shard within each round). Grows until the
    /// server restarts — unless the client streams it: `trace_stream`
    /// hands out retained events incrementally and forgets them, so
    /// long paced runs can bound memory without losing history.
    drained_trace: Mutex<DrainedTrace>,
    /// Per-shard "currently in a stall episode" latches, so the
    /// supervisor counts each stall once instead of once per poll.
    stall_episodes: Mutex<Vec<bool>>,
    /// Test-only seam: runs once inside the next `tick`/`drain` after
    /// the queues were drained but before the depth gauges are
    /// published, standing in for a racing submitter.
    #[cfg(test)]
    round_hook: Mutex<Option<RoundHook>>,
}

impl Scheduler {
    /// Build a scheduler publishing into `metrics`, spawning one worker
    /// thread per shard.
    #[must_use]
    pub fn new(cfg: SchedulerConfig, metrics: Arc<Registry>) -> Self {
        let n = cfg.shards.max(1);
        let shards: Vec<Arc<ShardShared>> = (0..n)
            .map(|k| {
                // Split the total capacity evenly, remainder to the low
                // shards; every shard keeps at least one slot.
                let cap = (cfg.queue_capacity / n + usize::from(k < cfg.queue_capacity % n)).max(1);
                let ring =
                    (cfg.trace_capacity > 0).then(|| SharedRing::new(k as u32, cfg.trace_capacity));
                Arc::new(ShardShared {
                    index: k,
                    queue: AdmissionQueue::new(AdmissionPolicy::with_capacity(cap)),
                    ring,
                    depth_gauge: metrics.gauge(&shard_metric("queue_depth", k)),
                    pending_gauge: metrics.gauge(&shard_metric("pending_tasks", k)),
                    admitted: metrics.counter(&shard_metric("admitted", k)),
                    shed: metrics.counter(&shard_metric("shed", k)),
                    completed: metrics.counter(&shard_metric("completed", k)),
                    backlog: AtomicUsize::new(0),
                    queued_cost_bits: AtomicU64::new(0),
                    hb: Heartbeat::new(),
                    stages: StageHists::new(&metrics, k),
                })
            })
            .collect();
        // Health-plane metrics exist from the start, so `stats`,
        // `prometheus_text`, and `health` expose them even before the
        // first stall or failed send.
        let _ = metrics.counter("worker_stalled");
        let _ = metrics.counter("worker_send_failed");
        metrics.gauge("degraded").set(0);
        let lmc_hist = metrics.histogram("lmc_decision_us");
        let workers = shards
            .iter()
            .map(|sh| {
                worker::spawn(
                    Arc::clone(sh),
                    cfg,
                    Arc::clone(&metrics),
                    Arc::clone(&lmc_hist),
                )
            })
            .collect();
        Scheduler {
            shards,
            workers,
            metrics,
            shutting_down: AtomicBool::new(false),
            ids: Mutex::new(IdLedger {
                used: HashSet::new(),
                next_auto: 0,
            }),
            anchor: Mutex::new(None),
            round_mx: Mutex::new(()),
            work_mx: Mutex::new(()),
            work_cv: Condvar::new(),
            router_cursor: AtomicUsize::new(0),
            drained_trace: Mutex::new(DrainedTrace {
                events: Vec::new(),
                forgotten: 0,
            }),
            stall_episodes: Mutex::new(vec![false; n]),
            #[cfg(test)]
            round_hook: Mutex::new(None),
            cfg,
        }
    }

    fn lock_ids(&self) -> MutexGuard<'_, IdLedger> {
        self.ids.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Number of engine shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The metrics registry this scheduler publishes into.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Shard `k`'s admission queue (exposed for backpressure-aware
    /// callers and tests).
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    #[must_use]
    pub fn shard_queue(&self, k: usize) -> &AdmissionQueue {
        &self.shards[k].queue
    }

    /// Total queued depth across all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.depth()).sum()
    }

    /// Block until any shard's queue is non-empty or `timeout` passes;
    /// returns the total depth observed. Lets a paced ticker sleep
    /// between ticks without missing a burst on any shard.
    pub fn wait_for_work(&self, timeout: Duration) -> usize {
        let guard = self.work_mx.lock().unwrap_or_else(PoisonError::into_inner);
        let depth = self.queue_depth();
        if depth > 0 {
            return depth;
        }
        let _unused = self
            .work_cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.queue_depth()
    }

    /// Whether shutdown has begun.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Start the paced clock (no-op in replay mode). Called once when
    /// the server begins serving. Arms the submission-stamping anchor
    /// and broadcasts `StartClock` so every worker arms its own tick
    /// anchor.
    pub fn start_clock(&self) {
        {
            let mut anchor = self.anchor.lock().unwrap_or_else(PoisonError::into_inner);
            if anchor.is_none() {
                *anchor = Some(crate::clock::wall_now());
            }
        }
        for w in &self.workers {
            w.send(Command::StartClock);
        }
    }

    /// Restart the submission-stamping anchor for a fresh round (no-op
    /// until [`Scheduler::start_clock`] ran). Called by `drain`: the
    /// workers stand up fresh engines at time zero and restart their
    /// own tick anchors, so the arrival-stamping anchor must restart
    /// with them or every later arrival would be stamped far in the
    /// fresh engines' future.
    fn reset_clock(&self) {
        let mut anchor = self.anchor.lock().unwrap_or_else(PoisonError::into_inner);
        if anchor.is_some() {
            *anchor = Some(crate::clock::wall_now());
        }
    }

    /// Wall-mapped target engine time for paced mode (0 in replay).
    /// Reads only the anchor — used to stamp submission arrivals.
    fn target_time(&self) -> f64 {
        let anchor = *self.anchor.lock().unwrap_or_else(PoisonError::into_inner);
        match (self.cfg.mode, anchor) {
            (Mode::Paced { speed }, Some(t0)) => t0.elapsed().as_secs_f64() * speed,
            _ => 0.0,
        }
    }

    /// Route a submission to a shard. Explicit ids hash (`id % shards`)
    /// so replays are reproducible; auto-assigned ids go to the shard
    /// with the most class headroom against its *combined* load —
    /// admission depth plus the engine backlog the worker publishes —
    /// ties broken by lower combined load and then by a rotating cursor,
    /// so fully tied shards (the steady state of a fast-ticking paced
    /// service) round-robin instead of all landing on shard 0. Scoring
    /// admission depth alone would go blind the moment a tick drains
    /// the queues: a shard with hundreds of tasks queued inside its
    /// engine would keep winning ties and attract every auto id.
    fn route(&self, explicit: bool, id: u64, class: TaskClass) -> usize {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        if explicit {
            return (id % n as u64) as usize;
        }
        let start = self.router_cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut best = start;
        let mut best_headroom = 0usize;
        let mut best_load = usize::MAX;
        for i in 0..n {
            let k = (start + i) % n;
            let sh = &self.shards[k];
            let load = sh.queue.depth() + sh.backlog();
            let headroom = sh.queue.policy().effective_cap(class).saturating_sub(load);
            if headroom > best_headroom || (headroom == best_headroom && load < best_load) {
                best = k;
                best_headroom = headroom;
                best_load = load;
            }
        }
        best
    }

    /// Handle a submit request end to end: id assignment, validation,
    /// shard routing, admission, metrics. Touches the id ledger and one
    /// shard's admission queue, never a worker.
    pub fn submit(
        &self,
        id: Option<u64>,
        cycles: u64,
        class: TaskClass,
        arrival: Option<f64>,
    ) -> Response {
        self.submit_many(&[SubmitItem {
            id,
            cycles,
            class,
            arrival,
        }])
        .into_iter()
        .next()
        .unwrap_or_else(|| Response::err(ErrorKind::Internal, "empty submit batch"))
    }

    /// Handle one wire batch of submits — every complete submit line a
    /// front-end drained from a readable socket in one go. Semantics
    /// are exactly sequential [`Scheduler::submit`] calls (responses in
    /// order, same counters, same trace records), but the id ledger is
    /// locked once for the whole batch and the paced ticker is signaled
    /// once at the end instead of per task.
    pub fn submit_many(&self, items: &[SubmitItem]) -> Vec<Response> {
        // In-process submitters have no wire seams; both stamps close
        // now, so their frame stage records as (near) zero.
        self.submit_many_timed(items, StageClock::now())
    }

    /// [`Scheduler::submit_many`] with the batch's wire stage stamps.
    /// The front-ends call this with the instants the bytes were read
    /// and the batch finished parsing, closing the frame and admit
    /// seams of the stage clock.
    pub fn submit_many_timed(&self, items: &[SubmitItem], clock: StageClock) -> Vec<Response> {
        let mut out = Vec::with_capacity(items.len());
        if items.is_empty() {
            return out;
        }
        let mut admitted_any = false;
        {
            let mut ids = self.lock_ids();
            for item in items {
                out.push(self.submit_one(&mut ids, *item, clock, &mut admitted_any));
            }
        }
        if admitted_any {
            self.publish_queue_depth();
            // Wake a ticker sleeping in `wait_for_work`; the empty
            // critical section orders the wake after the admits.
            drop(self.work_mx.lock().unwrap_or_else(PoisonError::into_inner));
            self.work_cv.notify_all();
        }
        out
    }

    /// One submit under the already-held id-ledger lock. Ordering note:
    /// the ledger lock is held across the admission-queue touch; the
    /// only other multi-lock paths (drain, shutdown) release every
    /// queue lock before taking the ledger, so no cycle exists.
    fn submit_one(
        &self,
        ids: &mut IdLedger,
        item: SubmitItem,
        clock: StageClock,
        admitted_any: &mut bool,
    ) -> Response {
        let SubmitItem {
            id,
            cycles,
            class,
            arrival,
        } = item;
        self.metrics.counter("submitted").inc();
        if self.is_shutting_down() {
            return Response::err(ErrorKind::ShuttingDown, "server is draining");
        }
        // Reserve the id so concurrent submitters can't race to the
        // same one; released again if validation or admission fails.
        let explicit = id.is_some();
        let id = {
            let id = match id {
                Some(id) => {
                    if ids.used.contains(&id) {
                        self.metrics.counter("rejected_duplicate_id").inc();
                        return Response::err(
                            ErrorKind::BadRequest,
                            format!("task id {id} already used this round"),
                        );
                    }
                    id
                }
                None => {
                    while ids.used.contains(&ids.next_auto) {
                        ids.next_auto += 1;
                    }
                    ids.next_auto
                }
            };
            ids.used.insert(id);
            id
        };
        let arrival = match self.cfg.mode {
            Mode::Replay => arrival.unwrap_or(0.0),
            // Paced submissions arrive "now" on the engine clock; an
            // explicit arrival in the future is honored, the past is
            // clamped forward by the executor.
            Mode::Paced { .. } => {
                let now = self.target_time();
                arrival.unwrap_or(now).max(now)
            }
        };
        let task = match Task::online(id, cycles, arrival, None, class) {
            Ok(t) => t,
            Err(e) => {
                ids.used.remove(&id);
                self.metrics.counter("rejected_invalid").inc();
                return Response::err(ErrorKind::BadRequest, e.to_string());
            }
        };
        let shard = self.route(explicit, id, class);
        let sh = &self.shards[shard];
        // The gate re-checks the shutdown flag *inside* the queue lock:
        // shutdown's post-drain depth re-check takes the same lock, so
        // a submission either lands before that check (and is drained)
        // or observes the flag and is refused — never silently lost.
        match sh
            .queue
            .try_submit_stamped(task, clock.recv, || !self.is_shutting_down())
        {
            GateOutcome::Admitted(depth) => {
                *admitted_any = true;
                self.metrics.counter("admitted").inc();
                sh.admitted.inc();
                if self.cfg.telemetry {
                    // Close the wire-side seams for this shard: receive
                    // → parsed, parsed → admitted.
                    let admitted_at = crate::clock::wall_now();
                    let frame = clock.framed.duration_since(clock.recv);
                    let admit = admitted_at.duration_since(clock.framed);
                    sh.stages.frame.record(frame.as_secs_f64());
                    sh.stages.admit.record(admit.as_secs_f64());
                }
                if let Some(ring) = &sh.ring {
                    let tag = class_tag(class);
                    ring.record(
                        arrival,
                        TraceKind::Submit {
                            task: id,
                            class: tag,
                            cycles,
                        },
                    );
                    ring.record(
                        arrival,
                        TraceKind::Admit {
                            task: id,
                            depth: depth as u64,
                        },
                    );
                }
                Response::Ok(vec![
                    field_u64("id", id),
                    field_u64("depth", depth as u64),
                    field_u64("shard", shard as u64),
                ])
            }
            GateOutcome::Shed(shed) => {
                ids.used.remove(&id);
                let tag = class_tag(class);
                self.metrics.counter("shed").inc();
                self.metrics.counter(&format!("shed.{}", tag.name())).inc();
                sh.shed.inc();
                if let Some(ring) = &sh.ring {
                    ring.record(
                        arrival,
                        TraceKind::Submit {
                            task: id,
                            class: tag,
                            cycles,
                        },
                    );
                    ring.record(
                        arrival,
                        TraceKind::Shed {
                            task: id,
                            class: tag,
                        },
                    );
                }
                Response::err(ErrorKind::Overloaded, shed.to_string())
            }
            GateOutcome::Closed => {
                ids.used.remove(&id);
                Response::err(ErrorKind::ShuttingDown, "server is draining")
            }
        }
    }

    /// Recompute every depth gauge from the live queues at write time.
    /// Snapshotting the depth earlier (a submit's post-admit depth, or
    /// a constant zero after a drain) goes stale the moment a
    /// concurrent submit lands. The gauge counts waiting work wherever
    /// it sits — admission depth *plus* the engine backlog the worker
    /// publishes — so the metric agrees with what the router and the
    /// rebalancer see; counting the admission queue alone made the
    /// gauge drop to zero on every tick while hundreds of tasks still
    /// waited inside the engines.
    fn publish_queue_depth(&self) {
        let mut total = 0i64;
        for sh in &self.shards {
            let depth = (sh.queue.depth() + sh.backlog()) as i64;
            sh.depth_gauge.set(depth);
            total += depth;
        }
        self.metrics.gauge("queue_depth").set(total);
    }

    /// Run the test-only round hook, if one is armed (no-op otherwise
    /// and in non-test builds).
    fn fire_round_hook(&self) {
        #[cfg(test)]
        {
            let hook = self
                .round_hook
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(hook) = hook {
                hook(self);
            }
        }
    }

    /// Arm the round hook (test builds only): runs once inside the next
    /// `tick` or `drain`, after the queues were drained into the
    /// engines but before the depth gauges are published — the position
    /// of a submitter racing the round.
    #[cfg(test)]
    fn set_round_hook(&self, hook: impl FnOnce(&Scheduler) + Send + 'static) {
        *self
            .round_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Box::new(hook));
    }

    /// Send one command to shard `k`'s worker and wait for its reply.
    /// `cmd` builds the command around the one-shot reply sender.
    ///
    /// # Panics
    /// Panics, naming the shard and `what`, when the worker thread is
    /// gone before it replies.
    fn ask<T>(&self, k: usize, what: &str, cmd: impl FnOnce(Sender<T>) -> Command) -> T {
        let (tx, rx) = worker::reply_channel();
        self.workers[k].send(cmd(tx));
        rx.recv()
            .unwrap_or_else(|_| panic!("shard {k} worker exited during {what}"))
    }

    /// Broadcast a command to every worker before waiting on any, so
    /// the shards service it in parallel, then yield the replies in
    /// ascending shard order as each one is received.
    ///
    /// # Panics
    /// The returned iterator panics like [`Scheduler::ask`] when a
    /// worker is gone before it replies.
    fn ask_all<T>(
        &self,
        what: &'static str,
        cmd: impl Fn(Sender<T>) -> Command,
    ) -> impl Iterator<Item = T> {
        let replies: Vec<Receiver<T>> = self
            .workers
            .iter()
            .map(|w| {
                let (tx, rx) = worker::reply_channel();
                w.send(cmd(tx));
                rx
            })
            .collect();
        replies.into_iter().enumerate().map(move |(k, rx)| {
            rx.recv()
                .unwrap_or_else(|_| panic!("shard {k} worker exited during {what}"))
        })
    }

    /// One paced step: broadcast a tick to every worker — each pulls
    /// admitted work into its engine, advances the executor clock to
    /// its wall-mapped target, and streams completions into the
    /// histograms — then collect the replies in ascending shard order.
    /// With more shards than one, the per-shard steps run genuinely in
    /// parallel on the worker threads.
    pub fn tick(&self) {
        let pending_total: i64 = self
            .ask_all("tick", |reply| Command::Tick { reply })
            .map(|reply| reply.pending as i64)
            .sum();
        self.metrics.gauge("pending_tasks").set(pending_total);
        let t0 = crate::clock::wall_now();
        self.rebalance_once();
        if self.cfg.rebalance.enabled && self.shards.len() > 1 {
            let micros = crate::clock::wall_now().duration_since(t0).as_micros();
            self.metrics
                .gauge("rebalance_pass_us")
                .set(i64::try_from(micros).unwrap_or(i64::MAX));
        }
        self.fire_round_hook();
        self.publish_queue_depth();
    }

    /// One cross-shard rebalance pass, run at the end of every tick
    /// when [`RebalanceConfig::enabled`] is set. Reads the load gauges
    /// every worker just republished during its tick, picks the
    /// hottest and coldest shards by Eq. 32 queued cost, and — when the
    /// gap clears `min_cost_gap` and the hot shard has queued
    /// (not-yet-dispatched) work — moves up to `max_batch` tasks
    /// through the worker command protocol: `Steal` pulls them out of
    /// the hot engine's ledger, `Inject` re-enqueues them on the cold
    /// engine's arrival path (recording a `migrate` trace event per
    /// task). Runs only from the tick path, so a service that never
    /// ticks — the replay determinism contract — never migrates.
    fn rebalance_once(&self) {
        if !self.cfg.rebalance.enabled || self.shards.len() < 2 {
            return;
        }
        let (mut hot, mut cold) = (0usize, 0usize);
        let (mut hot_cost, mut cold_cost) = (f64::MIN, f64::MAX);
        for (k, sh) in self.shards.iter().enumerate() {
            let cost = sh.queued_cost();
            if cost > hot_cost {
                hot = k;
                hot_cost = cost;
            }
            if cost < cold_cost {
                cold = k;
                cold_cost = cost;
            }
        }
        let backlog = self.shards[hot].backlog();
        if hot == cold
            || backlog == 0
            || hot_cost <= cold_cost * (1.0 + self.cfg.rebalance.min_cost_gap)
        {
            return;
        }
        // Size the batch to close about half the cost gap, converting
        // cost to a task count via the hot shard's average queued cost.
        // Sizing off the backlog alone oscillates: once shards are
        // near-balanced it keeps swinging `max_batch` of the longest
        // tasks between them, flipping hot and cold every tick. The
        // next tick re-evaluates with fresh gauges rather than chasing
        // the remainder in one pass.
        let gap_share = (hot_cost - cold_cost) / (2.0 * hot_cost);
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "gap_share is in (0, 0.5], so the product is a small non-negative count"
        )]
        let batch = ((backlog as f64 * gap_share) as usize).clamp(1, self.cfg.rebalance.max_batch);
        let tasks = self.ask(hot, "steal", |reply| Command::Steal { max: batch, reply });
        if tasks.is_empty() {
            // Every backlogged job was already running or not yet
            // arrived; nothing safe to move this pass.
            return;
        }
        let moved = tasks.len() as u64;
        let injected = self.ask(cold, "inject", |reply| Command::Inject {
            from_shard: hot as u32,
            from_cost: hot_cost,
            to_cost: cold_cost,
            tasks,
            reply,
        });
        debug_assert_eq!(
            injected as u64, moved,
            "cold shard accepts every stolen task"
        );
        self.metrics.counter("migrations").add(moved);
        self.metrics
            .counter(&shard_metric("migrations_out", hot))
            .add(moved);
        self.metrics
            .counter(&shard_metric("migrations_in", cold))
            .add(moved);
    }

    /// Run everything buffered (and, in paced mode, everything still in
    /// flight) to completion on every shard; return the per-shard
    /// reports in shard order. Each worker runs its round concurrently,
    /// stands up a fresh engine, and restarts its paced anchor; the
    /// reports are collected in ascending shard order under the round
    /// barrier, and the id ledger and the arrival-stamping anchor reset
    /// inside it.
    ///
    /// The round barrier (`round_mx`) serializes whole rounds, so two
    /// concurrent drains cannot interleave across shards. It is
    /// released before the caller merges or encodes the reports —
    /// nothing cross-shard is read during a merge, so no worker or
    /// lock stays held across it.
    pub fn drain_shards(&self) -> Vec<RoundReport> {
        self.metrics.counter("drains").inc();
        let mut reports = Vec::with_capacity(self.workers.len());
        {
            let _round = self.round_mx.lock().unwrap_or_else(PoisonError::into_inner);
            // Hold the id ledger across the whole barrier: submissions
            // assign ids and enqueue under this lock, so every task
            // admitted before we take it is already in its shard's
            // queue (and gets pulled by the worker's drain below), and
            // none can slip in between a worker's queue pull and the
            // namespace reset — the window where an old-round task and
            // a post-reset id reuse would collide in the next round's
            // engine.
            let mut ids = self.lock_ids();
            for (k, report) in self
                .ask_all("drain", |reply| Command::Drain { reply })
                .enumerate()
            {
                // Capture the round's trace as each shard's report
                // lands (ascending shard order, because this loop is).
                self.drain_shard_trace(&self.shards[k]);
                reports.push(report);
            }
            // New round: the id space and the arrival-stamping clock
            // restart together with the engines, still inside the
            // round barrier.
            ids.used.clear();
            ids.next_auto = 0;
            drop(ids);
            self.reset_clock();
        }
        self.metrics.gauge("pending_tasks").set(0);
        self.fire_round_hook();
        self.publish_queue_depth();
        reports
    }

    /// Run the round on every shard and merge the reports in
    /// deterministic shard order. The programmatic form of the wire
    /// `drain` — end-to-end tests use it to compare served rounds
    /// against library runs task by task. The merge happens after the
    /// round barrier is released.
    pub fn drain_round(&self) -> RoundReport {
        RoundReport::merge(&self.drain_shards())
    }

    /// Whether lifecycle tracing is on (`trace_capacity > 0`).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.cfg.trace_capacity > 0
    }

    fn lock_drained(&self) -> MutexGuard<'_, DrainedTrace> {
        self.drained_trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Drain shard `sh`'s live ring into the accumulated trace and fold
    /// its `complete` events into the cost-attribution counters:
    /// per-shard, per-core energy cost (`Re · E`) and waiting cost
    /// (`Rt · turnaround`), both in integer micro-cost units.
    fn drain_shard_trace(&self, sh: &ShardShared) {
        let Some(ring) = &sh.ring else { return };
        let events = ring.drain();
        if events.is_empty() {
            return;
        }
        let params = self.cfg.params;
        for ev in &events {
            if let TraceKind::Complete {
                core,
                energy_j,
                turnaround_s,
                ..
            } = ev.kind
            {
                let energy_micros = (params.re * energy_j * 1e6).round() as u64;
                let wait_micros = (params.rt * turnaround_s * 1e6).round() as u64;
                self.metrics
                    .counter("energy_cost_micros")
                    .add(energy_micros);
                self.metrics.counter("wait_cost_micros").add(wait_micros);
                self.metrics
                    .counter(&shard_metric(
                        &format!("energy_cost_micros.core{core}"),
                        sh.index,
                    ))
                    .add(energy_micros);
                self.metrics
                    .counter(&shard_metric(
                        &format!("wait_cost_micros.core{core}"),
                        sh.index,
                    ))
                    .add(wait_micros);
            }
        }
        self.lock_drained().events.extend(events);
    }

    /// Move every shard's live ring residue (events recorded since the
    /// last round boundary) into the accumulated trace, ascending shard
    /// order.
    fn collect_trace_residue(&self) {
        for sh in &self.shards {
            self.drain_shard_trace(sh);
        }
    }

    /// The retained accumulated trace as JSONL lines (one event per
    /// line, no trailing newline per line). Live ring residue is folded
    /// in first, so the result covers everything recorded and not yet
    /// streamed away: on a server that never used `trace_stream`, that
    /// is the complete run. The same lines back a `--trace-out` file
    /// and the wire `trace` response, byte for byte.
    #[must_use]
    pub fn trace_lines(&self) -> Vec<String> {
        self.trace_lines_absolute().0
    }

    /// [`Scheduler::trace_lines`] plus the absolute index of the first
    /// retained line in the full trace stream — the offset an
    /// append-only file writer needs to skip lines it already wrote.
    pub(crate) fn trace_lines_absolute(&self) -> (Vec<String>, u64) {
        self.collect_trace_residue();
        let drained = self.lock_drained();
        let lines = drained
            .events
            .iter()
            .map(dvfs_trace::export::jsonl_line)
            .collect();
        (lines, drained.forgotten)
    }

    /// Take one `trace_stream` chunk: serialize every retained event,
    /// then forget it server-side. Repeated calls return disjoint,
    /// contiguous chunks whose concatenation is byte-identical to what
    /// a single one-shot `trace` would have returned.
    pub(crate) fn trace_stream_take(&self) -> TraceChunk {
        self.collect_trace_residue();
        let dropped = self.trace_dropped();
        let mut drained = self.lock_drained();
        let events = std::mem::take(&mut drained.events);
        let lines: Vec<String> = events.iter().map(dvfs_trace::export::jsonl_line).collect();
        let forgotten_before = drained.forgotten;
        drained.forgotten += lines.len() as u64;
        TraceChunk {
            forgotten_before,
            streamed_total: drained.forgotten,
            lines,
            dropped,
        }
    }

    /// Encode a [`TraceChunk`] as the `trace_stream` wire response.
    pub(crate) fn stream_response(chunk: TraceChunk) -> Response {
        Response::Ok(vec![
            field_u64("count", chunk.lines.len() as u64),
            field_u64("dropped", chunk.dropped),
            field_u64("streamed", chunk.streamed_total),
            (
                "events".to_string(),
                Value::Array(chunk.lines.into_iter().map(Value::String).collect()),
            ),
        ])
    }

    /// Wire handler for `trace_stream` (in-process form; the server
    /// front-end interleaves the file append between take and encode).
    pub fn trace_stream_run(&self) -> Response {
        if !self.trace_enabled() {
            return Response::err(
                ErrorKind::BadRequest,
                "tracing is disabled (start the server with --trace-cap)",
            );
        }
        Self::stream_response(self.trace_stream_take())
    }

    /// Events dropped by full (or zero-capacity) trace rings so far.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.ring.as_ref())
            .map(SharedRing::dropped)
            .sum()
    }

    /// Wire handler for `trace`: the accumulated trace as an array of
    /// JSONL strings plus the ring-drop counter.
    pub fn trace_run(&self) -> Response {
        if !self.trace_enabled() {
            return Response::err(
                ErrorKind::BadRequest,
                "tracing is disabled (start the server with --trace-cap)",
            );
        }
        let lines = self.trace_lines();
        Response::Ok(vec![
            field_u64("count", lines.len() as u64),
            field_u64("dropped", self.trace_dropped()),
            (
                "events".to_string(),
                Value::Array(lines.into_iter().map(Value::String).collect()),
            ),
        ])
    }

    /// Wire handler for `drain`: run the round and encode the merged
    /// report plus the per-shard reports (merging and encoding happen
    /// after the round barrier is released).
    pub fn drain_run(&self) -> Response {
        let params = self.cfg.params;
        let reports = self.drain_shards();
        let merged = RoundReport::merge(&reports);
        let shard_reports: Vec<Value> = reports
            .iter()
            .enumerate()
            .map(|(k, r)| {
                Value::Object(vec![
                    field_u64("shard", k as u64),
                    field_u64("completed", r.records.len() as u64),
                    field_f64("total_cost", r.total_cost(params)),
                    field_f64("active_energy_joules", r.active_energy_joules),
                    field_f64("total_turnaround_s", r.total_turnaround_s),
                    field_f64("makespan_s", r.makespan_s),
                ])
            })
            .collect();
        Response::Ok(vec![
            field_u64("completed", merged.records.len() as u64),
            field_f64("total_cost", merged.total_cost(params)),
            field_f64("active_energy_joules", merged.active_energy_joules),
            field_f64("total_turnaround_s", merged.total_turnaround_s),
            field_f64("makespan_s", merged.makespan_s),
            field_u64("shards", self.shards.len() as u64),
            ("shard_reports".to_string(), Value::Array(shard_reports)),
        ])
    }

    /// Sum of pending (registered but uncompleted) tasks across every
    /// worker, via a stats broadcast.
    fn pending_tasks_total(&self) -> usize {
        self.ask_all("stats", |reply| Command::Stats { reply })
            .map(|reply| reply.pending)
            .sum()
    }

    /// Handle a stats request: registry snapshot plus live per-shard
    /// depths and clocks (collected from the workers in ascending shard
    /// order).
    pub fn stats(&self) -> Response {
        let replies = self.ask_all("stats", |reply| Command::Stats { reply });
        let mut shard_stats = Vec::with_capacity(self.shards.len());
        let mut depth_total = 0u64;
        let mut pending_total = 0u64;
        let mut now_max = 0.0f64;
        for (sh, reply) in self.shards.iter().zip(replies) {
            // Waiting work wherever it sits: admission depth plus the
            // engine backlog — the same combined load the router and
            // the rebalancer score shards by.
            let depth = (sh.queue.depth() + sh.backlog()) as u64;
            let pending = reply.pending as u64;
            depth_total += depth;
            pending_total += pending;
            now_max = now_max.max(reply.now);
            let out = self
                .metrics
                .counter(&shard_metric("migrations_out", sh.index))
                .get();
            let inn = self
                .metrics
                .counter(&shard_metric("migrations_in", sh.index))
                .get();
            let admitted = sh.admitted.get();
            shard_stats.push(Value::Object(vec![
                field_u64("shard", sh.index as u64),
                field_u64("queue_depth", depth),
                field_u64("pending_tasks", pending),
                field_f64("sim_now_s", reply.now),
                field_u64("migrations_out", out),
                field_u64("migrations_in", inn),
                field_f64(
                    "migration_rate",
                    (out + inn) as f64 / admitted.max(1) as f64,
                ),
            ]));
        }
        let migrations = self.metrics.counter("migrations").get();
        let admitted_total = self.metrics.counter("admitted").get();
        Response::Ok(vec![
            ("metrics".to_string(), self.metrics.snapshot()),
            field_u64("queue_depth", depth_total),
            field_u64("pending_tasks", pending_total),
            field_f64("sim_now_s", now_max),
            field_u64("shards", self.shards.len() as u64),
            field_u64("migrations", migrations),
            field_f64(
                "migration_rate",
                migrations as f64 / admitted_total.max(1) as f64,
            ),
            field_u64(
                "worker_send_failed",
                self.metrics.counter("worker_send_failed").get(),
            ),
            field_u64(
                "worker_stalled",
                self.metrics.counter("worker_stalled").get(),
            ),
            ("shard_stats".to_string(), Value::Array(shard_stats)),
        ])
    }

    /// One supervisor pass over the worker heartbeats: a worker with
    /// commands outstanding and no progress for `stall_after` is
    /// stalled. Each stall episode increments `worker_stalled` (global
    /// and per shard) exactly once — the per-shard latch resets when
    /// the worker makes progress again — and the `degraded` gauge
    /// reflects whether any shard is currently stalled. Reads only the
    /// lock-free heartbeat slots; never touches a worker channel, so a
    /// wedged worker cannot wedge its own supervisor.
    pub fn check_stalls(&self, stall_after: Duration) -> bool {
        let mut episodes = self
            .stall_episodes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut any = false;
        for (latched, sh) in episodes.iter_mut().zip(&self.shards) {
            let snap = sh.hb.snapshot();
            let stalled =
                snap.cmd_depth > 0 && snap.last_progress_age_s > stall_after.as_secs_f64();
            if stalled && !*latched {
                self.metrics.counter("worker_stalled").inc();
                self.metrics
                    .counter(&shard_metric("worker_stalled", sh.index))
                    .inc();
            }
            *latched = stalled;
            any |= stalled;
        }
        self.metrics.gauge("degraded").set(i64::from(any));
        any
    }

    /// Wire handler for `health`: the runtime health plane as one JSON
    /// document — per-shard worker heartbeats, the stage-attribution
    /// histograms, reactor loop stats, and trace-ring drop counts.
    /// Deliberately computed from lock-free heartbeat slots and
    /// leaf-locked metrics only (no worker fan-out, no engine access),
    /// so the reactor can serve it inline on the fast path even while
    /// every worker is mid-round.
    pub fn health(&self) -> Response {
        let heartbeats: Vec<Value> = self
            .shards
            .iter()
            .map(|sh| {
                let snap = sh.hb.snapshot();
                Value::Object(vec![
                    field_u64("shard", sh.index as u64),
                    field_f64("last_progress_age_s", snap.last_progress_age_s),
                    field_u64("cmd_depth", snap.cmd_depth),
                    field_u64("dequeue_age_us", snap.dequeue_age_us),
                    field_u64("tick_us", snap.tick_us),
                    field_u64("drain_us", snap.drain_us),
                    field_u64("steal_us", snap.steal_us),
                    field_u64("inject_us", snap.inject_us),
                    field_u64("queue_depth", sh.queue.depth() as u64),
                    field_u64("backlog", sh.backlog() as u64),
                ])
            })
            .collect();
        let stages: Vec<(String, Value)> = TELESCOPE_STAGES
            .iter()
            .chain([&STAGE_CMD_DEQUEUE, &REQUEST_E2E])
            .map(|name| ((*name).to_string(), self.metrics.histogram(name).to_value()))
            .collect();
        let reactor = Value::Object(vec![
            field_u64("wakeups", self.metrics.counter("net_wakeups").get()),
            field_u64("wait_micros", self.metrics.counter("net_wait_micros").get()),
            field_u64("work_micros", self.metrics.counter("net_work_micros").get()),
            (
                "events_per_wakeup".to_string(),
                self.metrics.histogram("net_events_per_wakeup").to_value(),
            ),
            (
                "batch_lines".to_string(),
                self.metrics.histogram("net_batch_lines").to_value(),
            ),
            field_u64(
                "backpressure_stalls",
                self.metrics.counter("net_backpressure_stalls").get(),
            ),
            field_u64(
                "backpressure_stall_micros",
                self.metrics.counter("net_backpressure_stall_micros").get(),
            ),
        ]);
        let streamed = self.lock_drained().forgotten;
        Response::Ok(vec![
            field_u64(
                "degraded",
                u64::from(self.metrics.gauge("degraded").get() != 0),
            ),
            field_u64(
                "worker_stalled",
                self.metrics.counter("worker_stalled").get(),
            ),
            field_u64(
                "worker_send_failed",
                self.metrics.counter("worker_send_failed").get(),
            ),
            field_u64("shards", self.shards.len() as u64),
            field_u64("telemetry", u64::from(self.cfg.telemetry)),
            ("heartbeats".to_string(), Value::Array(heartbeats)),
            ("stages".to_string(), Value::Object(stages)),
            ("reactor".to_string(), reactor),
            field_u64("trace_dropped", self.trace_dropped()),
            field_u64("trace_streamed", streamed),
            field_u64(
                "rebalance_pass_us",
                u64::try_from(self.metrics.gauge("rebalance_pass_us").get()).unwrap_or(0),
            ),
        ])
    }

    /// Begin graceful shutdown: refuse new submissions, then drain the
    /// backlog until every queue and engine is observed empty, so
    /// nothing admitted is lost. A submitter that passed the shutdown
    /// check before the flag was stored can still be admitted
    /// concurrently with a drain; re-checking the depths after each
    /// drain (under the queue locks the admission gate also takes)
    /// catches it, and every later submit observes the flag inside the
    /// gate and is refused — so the loop terminates.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        loop {
            let queued = self.queue_depth();
            let pending = self.pending_tasks_total();
            if queued == 0 && pending == 0 {
                break;
            }
            self.drain_shards();
        }
    }
}

impl Drop for Scheduler {
    /// Stop and join every shard worker. Commands already queued are
    /// processed first (the stop request is FIFO like everything else),
    /// so no in-flight round is abandoned.
    fn drop(&mut self) {
        for w in &self.workers {
            w.begin_stop();
        }
        for w in &mut self.workers {
            w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{value_f64, value_u64};
    use dvfs_core::LeastMarginalCost;
    use dvfs_sim::{SimConfig, Simulator};

    fn scheduler(capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: capacity,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    fn sharded(shards: usize, capacity: usize) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: capacity,
                shards,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    fn paced(shards: usize, speed: f64) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                cores: 1,
                queue_capacity: 64,
                mode: Mode::Paced { speed },
                shards,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn replay_drain_matches_library_run() {
        let s = scheduler(64);
        let trace: Vec<Task> = (0..12)
            .map(|i| {
                let class = if i % 3 == 0 {
                    TaskClass::Interactive
                } else {
                    TaskClass::NonInteractive
                };
                Task::online(i, (i + 1) * 40_000_000, i as f64 * 0.01, None, class).unwrap()
            })
            .collect();
        for t in &trace {
            let r = s.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
            assert!(r.is_ok(), "submit failed: {r:?}");
        }
        let served = s.drain_run();
        assert!(served.is_ok());

        // Reference: the same trace through the simulator, in process.
        let platform = service_platform(2);
        let params = CostParams::online_paper();
        let mut policy = LeastMarginalCost::new(&platform, params);
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.add_tasks(&trace);
        let want = sim.run(&mut policy);

        let got_cost = crate::protocol::value_f64(served.field("total_cost").unwrap()).unwrap();
        assert!(
            (got_cost - want.cost(params).total()).abs() < 1e-12,
            "served cost {got_cost} != library cost {}",
            want.cost(params).total()
        );
        let got_makespan = crate::protocol::value_f64(served.field("makespan_s").unwrap()).unwrap();
        assert!((got_makespan - want.makespan).abs() < 1e-12);
        assert_eq!(value_u64(served.field("completed").unwrap()), Some(12));
        assert_eq!(value_u64(served.field("shards").unwrap()), Some(1));
    }

    #[test]
    fn duplicate_ids_rejected_within_a_round_and_allowed_across() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(1), 1_000, TaskClass::Interactive, None)
            .is_ok());
        let dup = s.submit(Some(1), 1_000, TaskClass::Interactive, None);
        assert!(!dup.is_ok());
        assert!(s.drain_run().is_ok());
        // New round, id space reset.
        assert!(s
            .submit(Some(1), 1_000, TaskClass::Interactive, None)
            .is_ok());
    }

    #[test]
    fn overflow_sheds_with_overloaded_kind_and_releases_the_id() {
        let s = scheduler(2);
        // capacity 2, reserve 1 → one non-interactive slot.
        let first = s.submit(None, 1_000, TaskClass::NonInteractive, None);
        assert!(first.is_ok());
        assert_eq!(value_u64(first.field("id").unwrap()), Some(0));
        let shed = s.submit(None, 1_000, TaskClass::NonInteractive, None);
        match shed {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::Overloaded),
            Response::Ok(_) => panic!("expected shed"),
        }
        assert_eq!(s.metrics().counter("shed").get(), 1);
        // The interactive reserve still admits, and the shed auto-id
        // was released for reuse.
        let third = s.submit(None, 1_000, TaskClass::Interactive, None);
        assert!(third.is_ok());
        assert_eq!(value_u64(third.field("id").unwrap()), Some(1));
    }

    #[test]
    fn shutdown_refuses_new_work_and_drains_backlog() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(5), 2_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        s.begin_shutdown();
        assert!(s.is_shutting_down());
        assert_eq!(s.metrics().counter("completed").get(), 1, "backlog drained");
        let r = s.submit(Some(6), 1_000, TaskClass::Interactive, None);
        match r {
            Response::Err { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
            Response::Ok(_) => panic!("submit must fail during shutdown"),
        }
    }

    #[test]
    fn paced_ticks_complete_tasks_and_actuate() {
        let s = paced(1, 10_000.0);
        s.start_clock();
        assert!(s
            .submit(None, 1_600_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        // Tick until the task completes (bounded wait).
        let mut done = false;
        for _ in 0..200 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            s.tick();
            if s.metrics().counter("completed").get() == 1 {
                done = true;
                break;
            }
        }
        assert!(done, "paced task never completed");
        assert!(s.metrics().counter("actuations").get() >= 1);
        assert_eq!(s.metrics().histogram("task_latency_s").count(), 1);
    }

    #[test]
    fn paced_drain_counts_streamed_completions_once() {
        let s = paced(1, 10_000.0);
        s.start_clock();
        assert!(s
            .submit(None, 1_600_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        for _ in 0..200 {
            std::thread::sleep(std::time::Duration::from_millis(1));
            s.tick();
            if s.metrics().counter("completed").get() == 1 {
                break;
            }
        }
        assert_eq!(s.metrics().counter("completed").get(), 1);
        // The drain reports the round's single task but must not feed
        // its already-streamed completion into the histograms again.
        let report = s.drain_round();
        assert_eq!(report.records.len(), 1);
        assert_eq!(s.metrics().counter("completed").get(), 1);
        assert_eq!(s.metrics().histogram("task_latency_s").count(), 1);
    }

    /// Regression (paced-clock time warp): a drain stands up fresh
    /// engines at time zero, so the paced anchors must restart with
    /// them. Pre-fix, the tick target kept growing from the original
    /// anchor and the first tick of the next round warped the fresh
    /// engine to the previous round's clock.
    #[test]
    fn paced_clock_restarts_with_the_round_on_drain() {
        let s = paced(1, 2_000.0);
        s.start_clock();
        assert!(s
            .submit(None, 1_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        // Let the wall-mapped target grow well past 200 engine seconds.
        std::thread::sleep(std::time::Duration::from_millis(120));
        s.tick();
        let round1 = s.drain_round();
        assert_eq!(round1.records.len(), 1);

        // Round two: the engine clock after one immediate tick must be
        // near zero again, not the previous round's ~240 s.
        assert!(s
            .submit(None, 1_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        s.tick();
        let stats = s.stats();
        let now = value_f64(stats.field("sim_now_s").unwrap()).unwrap();
        assert!(
            now < 100.0,
            "fresh round time-warped to {now} engine seconds: the paced \
             anchor was not reset on drain"
        );
        // And the round still completes normally.
        let round2 = s.drain_round();
        assert_eq!(round2.records.len(), 1);
    }

    /// Regression (shutdown/submit race): a task that enters the queue
    /// concurrently with shutdown's drain — the hook stands in for a
    /// submitter that passed the shutdown check before the flag was
    /// stored — must still be completed, not silently lost.
    #[test]
    fn shutdown_drains_tasks_admitted_during_its_own_drain() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(1), 1_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        // Fires inside the first shutdown drain, after the queue was
        // emptied into the engine: exactly the window the single-drain
        // shutdown lost tasks in.
        s.set_round_hook(|s| {
            let late = Task::online(99, 1_000_000, 0.0, None, TaskClass::NonInteractive).unwrap();
            s.shard_queue(0).try_submit(late).expect("late admit");
        });
        s.begin_shutdown();
        assert_eq!(
            s.metrics().counter("completed").get(),
            2,
            "the late-admitted task must be drained, not lost"
        );
        assert_eq!(s.queue_depth(), 0);
    }

    /// The same race, exercised with a real racing submitter thread:
    /// after shutdown returns, every acknowledged submission has been
    /// completed.
    #[test]
    fn shutdown_races_a_live_submitter_without_losing_admitted_tasks() {
        let s = Arc::new(scheduler(512));
        let submitter = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut admitted = 0u64;
                for _ in 0..100_000 {
                    match s.submit(None, 1_000_000, TaskClass::NonInteractive, None) {
                        Response::Ok(_) => admitted += 1,
                        Response::Err {
                            kind: ErrorKind::ShuttingDown,
                            ..
                        } => break,
                        Response::Err { .. } => {}
                    }
                }
                admitted
            })
        };
        // Give the submitter a head start, then shut down mid-stream.
        while s.metrics().counter("admitted").get() < 64 {
            std::thread::yield_now();
        }
        s.begin_shutdown();
        let admitted = submitter.join().expect("submitter thread");
        assert_eq!(
            s.metrics().counter("completed").get(),
            admitted,
            "every acknowledged submission must be completed"
        );
        assert_eq!(s.queue_depth(), 0);
    }

    /// Regression (stale queue-depth gauge): `tick` and `drain` used to
    /// write a constant zero after emptying the queues, clobbering the
    /// depth of any task admitted concurrently. The gauge must be
    /// recomputed from the live queues at write time.
    #[test]
    fn queue_depth_gauge_tracks_tasks_admitted_during_a_round() {
        let s = scheduler(8);
        assert!(s
            .submit(Some(1), 1_000_000, TaskClass::NonInteractive, None)
            .is_ok());
        // Fires inside the tick, after the queue was drained into the
        // engine — the position of a submitter racing the tick.
        s.set_round_hook(|s| {
            let racing = Task::online(2, 1_000_000, 0.0, None, TaskClass::NonInteractive).unwrap();
            s.shard_queue(0).try_submit(racing).expect("racing admit");
        });
        s.tick();
        assert_eq!(s.queue_depth(), 1, "racing task still queued");
        assert_eq!(
            s.metrics().gauge("queue_depth").get(),
            1,
            "gauge must reflect the live queue, not a stale zero"
        );

        // Same window during a drain.
        s.set_round_hook(|s| {
            let racing = Task::online(3, 1_000_000, 0.0, None, TaskClass::NonInteractive).unwrap();
            s.shard_queue(0).try_submit(racing).expect("racing admit");
        });
        let _ = s.drain_round();
        assert_eq!(s.queue_depth(), 1);
        assert_eq!(s.metrics().gauge("queue_depth").get(), 1);
    }

    #[test]
    fn explicit_ids_hash_to_shards_and_auto_ids_balance() {
        let s = sharded(4, 64);
        // Explicit ids land on id % shards.
        for id in 0..8u64 {
            let r = s.submit(Some(id), 1_000, TaskClass::NonInteractive, Some(0.0));
            assert!(r.is_ok());
            assert_eq!(
                value_u64(r.field("shard").unwrap()),
                Some(id % 4),
                "id {id} routed to the wrong shard"
            );
        }
        // Auto ids spread by load: with all shards at depth 2, four
        // more submissions land on four distinct shards.
        let mut seen = HashSet::new();
        for _ in 0..4 {
            let r = s.submit(None, 1_000, TaskClass::NonInteractive, Some(0.0));
            assert!(r.is_ok());
            seen.insert(value_u64(r.field("shard").unwrap()).unwrap());
        }
        assert_eq!(seen.len(), 4, "auto ids must balance across shards");
    }

    #[test]
    fn auto_ids_round_robin_when_every_shard_is_equally_idle() {
        // The paced steady state: the ticker keeps every queue empty,
        // so headroom and depth tie everywhere. The rotating cursor
        // must spread submissions instead of piling onto shard 0.
        let s = sharded(4, 64);
        let mut seen = HashSet::new();
        for _ in 0..4 {
            let r = s.submit(None, 1_000, TaskClass::Interactive, Some(0.0));
            assert!(r.is_ok());
            let shard = value_u64(r.field("shard").unwrap()).unwrap();
            seen.insert(shard);
            // Drain the queue back to empty so the next submission
            // sees the same all-tied state.
            s.shard_queue(shard as usize).drain();
        }
        assert_eq!(seen.len(), 4, "ties must round-robin across shards");
    }

    #[test]
    fn router_folds_engine_backlog_into_auto_routing() {
        let s = sharded(2, 64);
        // Skew shard 0: six explicit even ids, then a tick pulls them
        // into its engine — two dispatch (cores = 2), four stay queued
        // inside the engine while the admission queue reads empty.
        for i in 0..6u64 {
            assert!(s
                .submit(
                    Some(2 * i),
                    400_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        s.tick();
        assert_eq!(s.queue_depth(), 0, "admission queues drained by the tick");
        // The depth gauges must keep counting the engine-held tasks.
        assert_eq!(s.metrics().gauge("queue_depth").get(), 4);
        assert_eq!(
            s.metrics().gauge(&shard_metric("queue_depth", 0)).get(),
            4,
            "shard gauge must include the engine backlog"
        );
        // Pre-fix the router scored both shards as equally empty and
        // kept feeding the deep shard 0; the published backlog must now
        // push every auto id to shard 1 until the loads equalize.
        for _ in 0..4 {
            let r = s.submit(None, 1_000, TaskClass::NonInteractive, Some(0.0));
            assert!(r.is_ok());
            assert_eq!(
                value_u64(r.field("shard").unwrap()),
                Some(1),
                "auto id routed onto the backlogged shard"
            );
        }
    }

    #[test]
    fn a_submit_many_batch_routes_each_auto_id_against_fresh_depths() {
        let s = sharded(4, 64);
        let items = vec![
            SubmitItem {
                id: None,
                cycles: 1_000,
                class: TaskClass::NonInteractive,
                arrival: Some(0.0),
            };
            4
        ];
        let out = s.submit_many(&items);
        let mut seen = HashSet::new();
        for r in &out {
            assert!(r.is_ok());
            seen.insert(value_u64(r.field("shard").unwrap()).unwrap());
        }
        assert_eq!(
            seen.len(),
            4,
            "a batch of auto ids must route per item against fresh depths, not pile onto one shard"
        );
    }

    #[test]
    fn rebalancer_moves_queued_tasks_hot_to_cold_and_counts_migrations() {
        let s = Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: 64,
                shards: 2,
                trace_capacity: 256,
                rebalance: RebalanceConfig::on(),
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        // All-even explicit ids skew every task onto shard 0.
        for i in 0..8u64 {
            assert!(s
                .submit(
                    Some(2 * i),
                    400_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        // The tick pulls the skew into shard 0's engine (2 running, 6
        // queued) and ends with a rebalance pass: shard 1's queued cost
        // is zero, so the gap clears and half the backlog moves.
        s.tick();
        let moved = s.metrics().counter("migrations").get();
        assert_eq!(moved, 3, "half the backlog of 6, capped by max_batch");
        assert_eq!(
            s.metrics()
                .counter(&shard_metric("migrations_out", 0))
                .get(),
            moved
        );
        assert_eq!(
            s.metrics().counter(&shard_metric("migrations_in", 1)).get(),
            moved
        );
        let stats = s.stats();
        let rate = crate::protocol::value_f64(stats.field("migration_rate").unwrap()).unwrap();
        assert!(rate > 0.0, "stats must report a positive migration_rate");
        // Every task still completes exactly once, wherever it ran.
        let served = s.drain_run();
        assert!(served.is_ok());
        assert_eq!(value_u64(served.field("completed").unwrap()), Some(8));
        // The receiving shard recorded one migrate trace event per task.
        let migrates = s
            .trace_lines()
            .iter()
            .filter(|l| l.contains("\"ev\":\"migrate\""))
            .count();
        assert_eq!(migrates as u64, moved);
    }

    #[test]
    fn rebalancer_is_a_no_op_on_one_shard_and_when_disabled() {
        // One shard: nothing to balance against, even when enabled.
        let single = Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: 64,
                rebalance: RebalanceConfig::on(),
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        assert!(single
            .submit(Some(0), 400_000_000, TaskClass::NonInteractive, Some(0.0))
            .is_ok());
        single.tick();
        assert_eq!(single.metrics().counter("migrations").get(), 0);

        // Disabled (the default): a skewed sharded service never
        // migrates — the contract the conformance suite leans on.
        let s = sharded(2, 64);
        for i in 0..8u64 {
            assert!(s
                .submit(
                    Some(2 * i),
                    400_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        s.tick();
        assert_eq!(s.metrics().counter("migrations").get(), 0);
    }

    #[test]
    fn sharded_drain_merges_per_shard_reports() {
        let s = sharded(2, 64);
        // Disjoint work: even ids to shard 0, odd to shard 1.
        for id in 0..10u64 {
            assert!(s
                .submit(
                    Some(id),
                    (id + 1) * 40_000_000,
                    TaskClass::NonInteractive,
                    Some(0.0)
                )
                .is_ok());
        }
        let reports = s.drain_shards();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].records.len(), 5);
        assert_eq!(reports[1].records.len(), 5);
        let merged = RoundReport::merge(&reports);
        assert_eq!(merged.records.len(), 10);
        assert_eq!(
            merged.active_energy_joules,
            reports[0].active_energy_joules + reports[1].active_energy_joules
        );
        assert_eq!(
            merged.total_turnaround_s,
            reports[0].total_turnaround_s + reports[1].total_turnaround_s
        );
        assert_eq!(
            merged.makespan_s,
            reports[0].makespan_s.max(reports[1].makespan_s)
        );
        // Per-shard completed counters saw the split.
        assert_eq!(s.metrics().counter("completed").get(), 10);
        assert_eq!(s.metrics().counter(&shard_metric("completed", 0)).get(), 5);
        assert_eq!(s.metrics().counter(&shard_metric("completed", 1)).get(), 5);
    }

    #[test]
    fn single_shard_drain_is_identical_to_the_unsharded_path() {
        // shards = 1 must stay bit-identical to the simulator: the
        // merge of one report is the identity.
        let trace: Vec<Task> = (0..8)
            .map(|i| {
                Task::online(i, (i + 1) * 30_000_000, i as f64 * 0.02, None, {
                    if i % 2 == 0 {
                        TaskClass::Interactive
                    } else {
                        TaskClass::NonInteractive
                    }
                })
                .unwrap()
            })
            .collect();
        let s = sharded(1, 64);
        for t in &trace {
            assert!(s
                .submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival))
                .is_ok());
        }
        let got = s.drain_round();

        let platform = service_platform(2);
        let params = CostParams::online_paper();
        let mut policy = LeastMarginalCost::new(&platform, params);
        let mut sim = Simulator::new(SimConfig::new(platform));
        sim.add_tasks(&trace);
        let want = sim.run(&mut policy);
        assert_eq!(got.active_energy_joules, want.active_energy_joules);
        assert_eq!(got.total_turnaround_s, want.total_turnaround());
        assert_eq!(got.makespan_s, want.makespan);
    }

    #[test]
    fn stats_reports_per_shard_fields() {
        let s = sharded(2, 64);
        assert!(s
            .submit(Some(0), 1_000, TaskClass::NonInteractive, Some(0.0))
            .is_ok());
        let stats = s.stats();
        assert_eq!(value_u64(stats.field("shards").unwrap()), Some(2));
        assert_eq!(value_u64(stats.field("queue_depth").unwrap()), Some(1));
        let Some(Value::Array(shard_stats)) = stats.field("shard_stats") else {
            panic!("stats must carry a shard_stats array");
        };
        assert_eq!(shard_stats.len(), 2);
        let depth0 = shard_stats[0]
            .get("queue_depth")
            .and_then(value_u64)
            .unwrap();
        assert_eq!(depth0, 1, "task with id 0 sits on shard 0");
    }

    /// The health-plane counters exist from construction and are pinned
    /// to their exposition names: `stats` carries them as top-level
    /// fields and `prometheus_text` exports them under the `dvfs_`
    /// prefix, so dashboards can alert on them before the first
    /// failure ever happens.
    #[test]
    fn stall_counters_are_pinned_in_stats_and_prometheus_exposition() {
        let s = sharded(2, 64);
        let stats = s.stats();
        assert_eq!(
            value_u64(stats.field("worker_send_failed").unwrap()),
            Some(0)
        );
        assert_eq!(value_u64(stats.field("worker_stalled").unwrap()), Some(0));
        let text = crate::metrics::prometheus_text(s.metrics());
        assert!(
            text.contains("dvfs_worker_send_failed 0"),
            "exposition must pin dvfs_worker_send_failed: {text}"
        );
        assert!(
            text.contains("dvfs_worker_stalled 0"),
            "exposition must pin dvfs_worker_stalled: {text}"
        );
        assert!(
            text.contains("dvfs_degraded 0"),
            "exposition must pin dvfs_degraded: {text}"
        );
    }

    /// The stall supervisor counts episodes, not polls: a stalled shard
    /// increments `worker_stalled` once, stays latched while the stall
    /// persists, and re-arms after the worker makes progress again.
    #[test]
    fn check_stalls_latches_one_count_per_episode() {
        let s = sharded(2, 64);
        // Healthy workers: no stall, not degraded.
        assert!(!s.check_stalls(Duration::from_millis(0)));
        assert_eq!(s.metrics().counter("worker_stalled").get(), 0);

        // Simulate a wedged shard-0 worker: a command counted as sent
        // but never dequeued, with the progress stamp aging out.
        s.shards[0].hb.note_send();
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.check_stalls(Duration::from_millis(1)));
        assert_eq!(s.metrics().counter("worker_stalled").get(), 1);
        assert_eq!(
            s.metrics()
                .counter(&shard_metric("worker_stalled", 0))
                .get(),
            1
        );
        assert_eq!(s.metrics().gauge("degraded").get(), 1);
        // Still stalled: the latch holds the count at one.
        assert!(s.check_stalls(Duration::from_millis(1)));
        assert_eq!(s.metrics().counter("worker_stalled").get(), 1);

        // The worker recovers (dequeues the command, marks progress):
        // the flag clears and the latch re-arms.
        s.shards[0].hb.note_dequeue(crate::clock::wall_now());
        assert!(!s.check_stalls(Duration::from_millis(1)));
        assert_eq!(s.metrics().gauge("degraded").get(), 0);

        // A second episode counts again.
        s.shards[0].hb.note_send();
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.check_stalls(Duration::from_millis(1)));
        assert_eq!(s.metrics().counter("worker_stalled").get(), 2);
    }

    /// `trace_stream` chunks drain-and-forget: their concatenation is
    /// byte-identical to the one-shot `trace` of an identical run that
    /// never streamed, and the retained trace really is forgotten.
    #[test]
    fn trace_stream_chunks_concatenate_to_the_one_shot_trace() {
        let run = |streamed: bool| -> (Vec<String>, Option<Scheduler>) {
            let s = Scheduler::new(
                SchedulerConfig {
                    cores: 2,
                    queue_capacity: 64,
                    trace_capacity: 256,
                    ..SchedulerConfig::default()
                },
                Arc::new(Registry::new()),
            );
            let mut lines = Vec::new();
            for round in 0..2u64 {
                for i in 0..5u64 {
                    assert!(s
                        .submit(
                            Some(round * 10 + i),
                            (i + 1) * 20_000_000,
                            TaskClass::NonInteractive,
                            Some(i as f64 * 0.01),
                        )
                        .is_ok());
                }
                assert!(s.drain_run().is_ok());
                if streamed {
                    lines.extend(s.trace_stream_take().lines);
                }
            }
            if streamed {
                (lines, Some(s))
            } else {
                (s.trace_lines(), Some(s))
            }
        };
        let (streamed, s) = run(true);
        let (oneshot, _) = run(false);
        assert!(!oneshot.is_empty());
        assert_eq!(
            streamed.join("\n"),
            oneshot.join("\n"),
            "concatenated trace_stream chunks must be byte-identical to a one-shot trace"
        );
        // Streamed events are forgotten: the retained trace is empty
        // and the cursor accounts for every line handed out.
        let s = s.unwrap();
        let (retained, forgotten) = s.trace_lines_absolute();
        assert!(retained.is_empty(), "streamed events must be forgotten");
        assert_eq!(forgotten, streamed.len() as u64);
        let health = s.health();
        assert_eq!(
            value_u64(health.field("trace_streamed").unwrap()),
            Some(streamed.len() as u64)
        );
    }

    /// The tentpole invariant: in paced mode the per-stage histograms
    /// telescope — summed over all completed requests, the telescope
    /// stages account for the observed end-to-end latency within
    /// clock-seam tolerance (each seam overlap and the completion
    /// observation lag are bounded by one tick period per request).
    #[test]
    fn paced_stage_sums_telescope_to_e2e_latency() {
        let s = Scheduler::new(
            SchedulerConfig {
                cores: 1,
                queue_capacity: 64,
                mode: Mode::Paced { speed: 50.0 },
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        s.start_clock();
        let n = 4u64;
        for _ in 0..n {
            assert!(s
                .submit(None, 1_600_000_000, TaskClass::NonInteractive, None)
                .is_ok());
        }
        for _ in 0..2_000 {
            std::thread::sleep(Duration::from_millis(1));
            s.tick();
            if s.metrics().counter("completed").get() == n {
                break;
            }
        }
        assert_eq!(s.metrics().counter("completed").get(), n, "tasks completed");
        let m = s.metrics();
        for name in TELESCOPE_STAGES {
            assert_eq!(
                m.histogram(name).count(),
                n,
                "stage {name} must record one sample per request"
            );
        }
        let e2e = m.histogram(REQUEST_E2E);
        assert_eq!(e2e.count(), n);
        let stage_total: f64 = TELESCOPE_STAGES
            .iter()
            .map(|name| m.histogram(name).sum())
            .sum();
        let e2e_total = e2e.sum();
        assert!(e2e_total > 0.0);
        // Seam tolerance: 30% relative (each of the handful of seams is
        // bounded by one ~1 ms tick against ~10-20 ms of service time
        // per task) plus a small absolute floor for scheduler jitter.
        let tol = 0.30 * e2e_total + 0.02 * n as f64;
        assert!(
            (stage_total - e2e_total).abs() <= tol,
            "stage sum {stage_total:.4}s must telescope to e2e {e2e_total:.4}s (tol {tol:.4}s)"
        );
    }

    /// `health` is served from heartbeat slots and leaf metrics only;
    /// its document carries every advertised section with sane values
    /// on a live sharded service.
    #[test]
    fn health_reports_heartbeats_stages_and_reactor_sections() {
        let s = sharded(2, 64);
        for id in 0..4u64 {
            assert!(s
                .submit(Some(id), 20_000_000, TaskClass::NonInteractive, Some(0.0))
                .is_ok());
        }
        s.tick();
        let health = s.health();
        assert_eq!(value_u64(health.field("shards").unwrap()), Some(2));
        assert_eq!(value_u64(health.field("degraded").unwrap()), Some(0));
        assert_eq!(value_u64(health.field("telemetry").unwrap()), Some(1));
        let Some(Value::Array(beats)) = health.field("heartbeats") else {
            panic!("health must carry a heartbeats array");
        };
        assert_eq!(beats.len(), 2);
        for (k, beat) in beats.iter().enumerate() {
            assert_eq!(beat.get("shard").and_then(value_u64), Some(k as u64));
            assert_eq!(
                beat.get("cmd_depth").and_then(value_u64),
                Some(0),
                "an idle worker has no commands outstanding"
            );
            let age = beat
                .get("last_progress_age_s")
                .and_then(crate::protocol::value_f64)
                .unwrap();
            assert!(
                (0.0..60.0).contains(&age),
                "fresh progress stamp, got {age}"
            );
            assert!(beat.get("tick_us").and_then(value_u64).is_some());
        }
        let Some(Value::Object(stages)) = health.field("stages") else {
            panic!("health must carry a stages object");
        };
        let mut want: Vec<&str> = TELESCOPE_STAGES.to_vec();
        want.push(STAGE_CMD_DEQUEUE);
        want.push(REQUEST_E2E);
        for name in want {
            let stage = stages
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("health stages must include {name}"));
            assert!(stage.get("count").and_then(value_u64).is_some());
        }
        let Some(reactor) = health.field("reactor") else {
            panic!("health must carry a reactor section");
        };
        assert_eq!(reactor.get("wakeups").and_then(value_u64), Some(0));
        assert_eq!(value_u64(health.field("trace_dropped").unwrap()), Some(0));
    }

    /// `telemetry: false` silences the per-task stage records without
    /// touching the always-on health plane (heartbeats, health shape)
    /// or the scheduling outcome.
    #[test]
    fn telemetry_off_skips_stage_records_but_keeps_heartbeats() {
        let s = Scheduler::new(
            SchedulerConfig {
                cores: 2,
                queue_capacity: 64,
                telemetry: false,
                ..SchedulerConfig::default()
            },
            Arc::new(Registry::new()),
        );
        for id in 0..4u64 {
            assert!(s
                .submit(Some(id), 20_000_000, TaskClass::NonInteractive, Some(0.0))
                .is_ok());
        }
        assert!(s.drain_run().is_ok());
        assert_eq!(s.metrics().counter("completed").get(), 4);
        for name in TELESCOPE_STAGES {
            assert_eq!(
                s.metrics().histogram(name).count(),
                0,
                "stage {name} must stay silent with telemetry off"
            );
        }
        assert_eq!(s.metrics().histogram(REQUEST_E2E).count(), 0);
        let health = s.health();
        assert_eq!(value_u64(health.field("telemetry").unwrap()), Some(0));
        let Some(Value::Array(beats)) = health.field("heartbeats") else {
            panic!("heartbeats stay on with telemetry off");
        };
        assert_eq!(beats.len(), 1);
    }
}
