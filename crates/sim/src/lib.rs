//! # dvfs-sim
//!
//! An event-driven multi-core simulator with **per-core DVFS**, built as
//! the experimental substrate for the ICPP 2014 scheduler reproduction.
//! The paper evaluates on a quad-core Intel i7-950 with individually
//! tunable core frequencies; this crate substitutes that testbed with a
//! simulator implementing the same execution model:
//!
//! * each core runs at one of its discrete rates `p ∈ P`, executing
//!   `p` cycles per second and drawing `E(p)/T(p)` watts while busy;
//! * a [`Policy`] — the engine-agnostic `dvfs_core::sched::Scheduler`
//!   trait — decides task placement, ordering, preemption, and per-core
//!   frequency through the abstract `ExecutorView`, which the shared
//!   event engine `dvfs_core::exec::Engine` implements (the same engine,
//!   and so the same policies, run the wall-clock executor in
//!   `dvfs-serve`);
//! * frequency *governors* (Linux `ondemand`-style) can own a core's
//!   frequency instead of the policy, for the baseline comparisons;
//! * an optional **contention model** dilates execution when several
//!   cores are busy, reproducing the sim-vs-experiment gap of Fig. 1;
//! * the engine records per-task metrics, active/idle energy, and a
//!   platform power timeline that `dvfs-power` can "measure" the way the
//!   paper's DW-6091 power meter does.
//!
//! The execution semantics (continuous cycle progress, completion
//! epochs, event order) are documented on `dvfs_core::exec`. This crate
//! adds the [`Simulator`] wrapper that finalises a run into a
//! [`SimReport`], and the offline [`analysis`] of a run's lifecycle
//! trace — the `dvfs-trace` stream a simulator records through
//! `Engine::set_trace_sink`, in the same schema the service emits.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod engine;
pub mod metrics;

pub use analysis::{gantt, queue_depth_series, rate_changes, GanttSegment};
pub use dvfs_core::exec::{GovernorKind, SimConfig};
pub use engine::Simulator;
pub use metrics::{SimReport, TaskRecord};

/// The engine-agnostic policy trait this executor drives. An alias for
/// [`dvfs_core::sched::Scheduler`]; the former `dvfs_sim::{plan,
/// policy}` re-export modules are gone — import `BatchPlan` from
/// `dvfs_model` and `PlanPolicy`/`ExecutorView` from `dvfs_core`.
pub use dvfs_core::sched::Scheduler as Policy;
