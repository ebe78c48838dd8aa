//! `dvfs-serve` — a long-running scheduler service around the paper's
//! Least-Marginal-Cost policy.
//!
//! The library crates schedule workloads that are handed over whole;
//! this crate turns them into a daemon that accepts task submissions
//! over a newline-delimited-JSON wire protocol (Unix-domain socket or
//! TCP), admits them through a bounded queue with class-aware shedding,
//! and runs the policy on its own **wall-clock executor** — the second
//! implementation of the engine-agnostic `dvfs_core::sched` interface
//! (the virtual-time simulator in `dvfs-sim` is the first). The
//! executor is paced against the wall clock or run as-fast-as-possible
//! on `drain`, applies every frequency decision to the `dvfs-sysfs`
//! actuator as it is made, and the service publishes counters, gauges,
//! and log-bucketed latency/cost histograms through a metrics registry
//! — queryable over the wire (`stats`) and flushed to JSONL snapshots.
//!
//! The service is **sharded and threaded**: [`SchedulerConfig::shards`]
//! engine instances run side by side, each owned outright by a
//! dedicated worker thread and fed through its own admission queue —
//! there is no engine mutex. A router assigns submissions to shards —
//! explicit ids hash (`id % shards`, reproducible for replays),
//! auto-assigned ids go to the least-loaded shard for the task's class
//! — and `tick`/`drain`/`stats`/`shutdown` broadcast commands to every
//! worker over bounded channels, collecting the one-shot replies and
//! merging the per-shard [`RoundReport`]s in deterministic ascending
//! shard order. With `shards = 1` the service is bit-identical to the
//! single-engine path (and to the simulator on replayed traces); with
//! `shards = N` on an N-core host the scheduling rounds genuinely run
//! in parallel.
//!
//! Module map:
//!
//! * [`protocol`] — wire request/response encoding.
//! * [`admission`] — the bounded queue and shed policy.
//! * [`clock`] — the wall-clock seam (the only raw `Instant::now`).
//! * [`metrics`] — counters, gauges, histograms, the registry.
//! * [`executor`] — the wall-clock `ExecutorView` implementation.
//! * [`stage`] — the per-request stage clock feeding stage-level
//!   latency attribution histograms (the runtime health plane).
//! * [`service`] — the scheduler proper (shard router, id ledger, the
//!   round barrier, and the command fan-out over the workers).
//! * `worker` (crate-private) — the per-shard worker thread that owns
//!   its engine (executor + policy + trace ring) and processes the
//!   command channel.
//! * [`server`] — listeners, the two wire front-ends (thread-per-
//!   connection and the `dvfs-net` epoll reactor behind the
//!   [`NetBackend`] seam), graceful shutdown.
//! * [`snapshot`] — periodic JSONL state snapshots.
//! * [`loadgen`] — the companion load generator (replay, open-loop
//!   Poisson, closed-loop clients, idle-connection holding).

pub mod admission;
pub mod clock;
pub mod executor;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod stage;
pub(crate) mod worker;

pub use admission::{AdmissionPolicy, AdmissionQueue, ShedReason};
pub use executor::{RealTimeExecutor, RoundReport, SimulatedActuator};
pub use loadgen::{class_idx, DrainSummary, IdleSummary, LoadMode, LoadReport, StageQuantiles};
pub use metrics::{prometheus_text, shard_metric, Counter, Gauge, Histogram, Registry};
pub use protocol::{ErrorKind, Request, Response};
pub use server::{
    serve, Endpoint, NetBackend, ServerConfig, ServerHandle, DEFAULT_MAX_CONNECTIONS,
    MAX_LINE_BYTES,
};
pub use service::{
    service_platform, Mode, RebalanceConfig, Scheduler, SchedulerConfig, SubmitItem,
};
pub use snapshot::SnapshotWriter;
pub use stage::{
    StageClock, REQUEST_E2E, STAGE_ADMIT, STAGE_CMD_DEQUEUE, STAGE_ENGINE, STAGE_FRAME,
    STAGE_QUEUE, STAGE_SERVICE, TELESCOPE_STAGES,
};
