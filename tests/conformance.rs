//! The executor conformance harness: every [`ExecutorView`]
//! implementation in the workspace must replay the pinned
//! [`conformance::mixed_trace`] bit-identically to the virtual-time
//! simulator.
//!
//! The pins themselves (trace, normalized [`Outcome`], exact-equality
//! assertions) live in `dvfs_core::sched::conformance`, which knows no
//! executor. This harness supplies the adapters:
//!
//! * the **simulator** (`dvfs-sim`) — the reference schedule;
//! * the bare **wall-clock executor** (`dvfs-serve`'s
//!   [`RealTimeExecutor`]) driven directly;
//! * the **worker-backed service** ([`Scheduler`]) — per-shard worker
//!   threads behind the message-passing boundary — at shards 1, 2,
//!   and 4.
//!
//! The trace's ids are all multiples of 4, so every task hashes to
//! shard 0 at each swept shard count and the sharded schedules must
//! coincide exactly with the single-engine reference.
//!
//! Both front doors also emit one lifecycle schema: the simulator's
//! trace (a `dvfs-trace` ring attached to its engine) equals the
//! service's drained trace once the service-only `submit`/`admit`
//! admission events are set aside.
//!
//! [`ExecutorView`]: dvfs_suite::core::sched::ExecutorView
//! [`Outcome`]: conformance::Outcome

use dvfs_suite::core::sched::conformance::{self, Outcome};
use dvfs_suite::core::LeastMarginalCost;
use dvfs_suite::model::CostParams;
use dvfs_suite::serve::service::service_platform;
use dvfs_suite::serve::{RealTimeExecutor, Registry, Scheduler, SchedulerConfig};
use dvfs_suite::sim::{SimConfig, SimReport, Simulator};
use dvfs_suite::trace::export::parse_jsonl_line;
use dvfs_suite::trace::{EventKind, SharedRing, TraceEvent};
use std::sync::Arc;

const CORES: usize = 2;

/// The reference outcome: the pinned trace through the virtual-time
/// simulator under LMC.
fn simulator_outcome(params: CostParams) -> Outcome {
    let trace = conformance::mixed_trace();
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(&trace);
    let report = sim.run(&mut policy);
    Outcome::new(
        sim.take_completions(),
        report.active_energy_joules,
        report.total_turnaround(),
        report.makespan,
    )
}

/// The same trace through the wall-clock executor, driven directly
/// (no service, no workers, no sharding).
fn bare_executor_outcome(params: CostParams) -> Outcome {
    let trace = conformance::mixed_trace();
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut exec = RealTimeExecutor::new(platform);
    for t in &trace {
        exec.push_task(t);
    }
    exec.run_to_completion(&mut policy);
    let report = exec.round_report();
    Outcome::new(
        report.records,
        report.active_energy_joules,
        report.total_turnaround_s,
        report.makespan_s,
    )
}

/// The same trace through the full worker-backed service: submissions
/// cross the admission queues, shard workers own the engines, and the
/// drain barrier collects per-shard reports in ascending order.
fn service_outcome(params: CostParams, shards: usize) -> Outcome {
    let trace = conformance::mixed_trace();
    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: CORES,
            shards,
            params,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for t in &trace {
        let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        assert!(r.is_ok(), "submit failed: {r:?}");
    }
    let report = scheduler.drain_round();
    Outcome::new(
        report.records,
        report.active_energy_joules,
        report.total_turnaround_s,
        report.makespan_s,
    )
}

#[test]
fn bare_real_time_executor_conforms_to_the_simulator() {
    let params = CostParams::online_paper();
    let want = simulator_outcome(params);
    let got = bare_executor_outcome(params);
    conformance::assert_identical(&want, &got, params, "RealTimeExecutor");
}

#[test]
fn worker_backed_service_conforms_at_shards_1_2_4() {
    let params = CostParams::online_paper();
    let want = simulator_outcome(params);
    for shards in [1usize, 2, 4] {
        let got = service_outcome(params, shards);
        conformance::assert_identical(&want, &got, params, &format!("Scheduler[shards={shards}]"));
    }
}

#[test]
fn the_reference_itself_is_self_consistent() {
    // Two independent simulator runs of the pinned trace must agree —
    // a canary for nondeterminism sneaking into the reference side of
    // the suite (RNG seeding, map iteration order, and the like).
    let params = CostParams::online_paper();
    let a = simulator_outcome(params);
    let b = simulator_outcome(params);
    conformance::assert_identical(&a, &b, params, "Simulator(second run)");
}

/// The pinned trace through the simulator under LMC, optionally with a
/// never-overwriting trace ring attached; returns the report and the
/// recorded events.
fn simulator_run(params: CostParams, traced: bool) -> (SimReport, Vec<TraceEvent>) {
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    let ring = traced.then(|| SharedRing::new(0, usize::MAX));
    if let Some(ring) = &ring {
        sim.set_trace_sink(Some(Box::new(ring.clone())));
    }
    sim.add_tasks(&conformance::mixed_trace());
    let report = sim.run(&mut policy);
    let events = ring.map(|r| {
        assert_eq!(r.dropped(), 0);
        r.drain()
    });
    (report, events.unwrap_or_default())
}

/// `(time bits, kind)`: what both front doors must agree on (shard and
/// sequence numbers are per-ring bookkeeping).
fn timeline(events: &[TraceEvent]) -> Vec<(u64, EventKind)> {
    events
        .iter()
        .map(|e| (e.time.to_bits(), e.kind.clone()))
        .collect()
}

#[test]
fn simulator_and_service_emit_one_trace_schema() {
    let params = CostParams::online_paper();
    let (report, sim_events) = simulator_run(params, true);
    assert!(
        !sim_events.is_empty(),
        "the simulator trace records the run"
    );

    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: CORES,
            shards: 1,
            params,
            trace_capacity: 4096,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    for t in &conformance::mixed_trace() {
        let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        assert!(r.is_ok(), "submit failed: {r:?}");
    }
    scheduler.drain_round();
    assert_eq!(scheduler.trace_dropped(), 0, "ring must not overflow");
    let service_events: Vec<TraceEvent> = scheduler
        .trace_lines()
        .iter()
        .map(|line| parse_jsonl_line(line).expect("service trace line parses"))
        .filter(|e| !matches!(e.kind, EventKind::Submit { .. } | EventKind::Admit { .. }))
        .collect();
    assert_eq!(timeline(&sim_events), timeline(&service_events));

    // Attaching the ring observes the run without changing it.
    let (untraced, _) = simulator_run(params, false);
    let json = |r: &SimReport| serde_json::to_string(r).expect("report serializes");
    assert_eq!(json(&report), json(&untraced));
}
