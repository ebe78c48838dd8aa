//! The in-process path: a replay-mode service round and the simulator
//! reference on the same trace, with the conformance check between
//! them.

use crate::workload::CORES;
use dvfs_core::LeastMarginalCost;
use dvfs_model::{CostBreakdown, CostParams, Task};
use dvfs_serve::protocol::{value_f64, value_u64};
use dvfs_serve::{service_platform, Registry, Response, Scheduler, SchedulerConfig};
use dvfs_sim::{SimConfig, Simulator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// What a schedule of a whole trace produced (engine time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Tasks completed.
    pub completed: u64,
    /// The paper's monetary cost `Re·E + Rt·T`.
    pub cost: f64,
    /// Active energy in joules.
    pub energy_j: f64,
    /// Sum of turnaround times in seconds.
    pub turnaround_s: f64,
    /// Completion time of the last task.
    pub makespan_s: f64,
}

impl Outcome {
    /// Read a `drain` response's merged totals.
    ///
    /// # Errors
    /// Names the first missing or malformed field.
    pub fn from_drain(resp: &Response) -> Result<Self, String> {
        let f = |name: &str| {
            resp.field(name)
                .and_then(value_f64)
                .ok_or_else(|| format!("drain reply lacks `{name}`: {}", resp.encode()))
        };
        Ok(Outcome {
            completed: resp
                .field("completed")
                .and_then(value_u64)
                .ok_or_else(|| format!("drain reply lacks `completed`: {}", resp.encode()))?,
            cost: f("total_cost")?,
            energy_j: f("active_energy_joules")?,
            turnaround_s: f("total_turnaround_s")?,
            makespan_s: f("makespan_s")?,
        })
    }
}

/// The conformance contract at one shard: the service's drain must
/// equal the simulator's schedule bit for bit, and complete every task
/// of the trace.
///
/// # Errors
/// Describes the first mismatch.
pub fn check_outcome(
    reference: &Outcome,
    served: &Outcome,
    trace_len: usize,
) -> Result<(), String> {
    if served.completed != trace_len as u64 {
        return Err(format!(
            "service completed {} of {trace_len} tasks",
            served.completed
        ));
    }
    let fields = [
        ("cost", reference.cost, served.cost),
        ("energy", reference.energy_j, served.energy_j),
        ("turnaround", reference.turnaround_s, served.turnaround_s),
        ("makespan", reference.makespan_s, served.makespan_s),
    ];
    for (name, want, got) in fields {
        if want.to_bits() != got.to_bits() {
            return Err(format!("{name}: simulator {want:e} vs service {got:e}"));
        }
    }
    if reference.completed != served.completed {
        return Err(format!(
            "completed: simulator {} vs service {}",
            reference.completed, served.completed
        ));
    }
    Ok(())
}

/// Configuration of the replay service: one shard, four cores, and an
/// admission queue twice the trace length, so a buffered replay sheds
/// nothing (non-interactive tasks stop short of the queue's 10%
/// interactive reserve, and the 1024-slot default holds far less).
#[must_use]
pub fn service_config(trace_len: usize) -> SchedulerConfig {
    SchedulerConfig {
        cores: CORES,
        shards: 1,
        queue_capacity: 2 * trace_len.max(1),
        ..SchedulerConfig::default()
    }
}

/// One timed service round.
#[derive(Debug, Clone)]
pub struct ServiceRound {
    /// `Scheduler::new` returning, in seconds.
    pub setup_s: f64,
    /// Submit phase plus `drain_run`, in seconds.
    pub wall_s: f64,
    /// Submits that were not acknowledged `ok`.
    pub rejected: u64,
    /// The drain's totals (or why they could not be read).
    pub outcome: Result<Outcome, String>,
    /// Per-submit wall times in seconds (traced rounds only).
    pub submit_s: Vec<f64>,
    /// `drain_run` wall time in seconds.
    pub drain_s: f64,
}

/// Submit the whole trace with its explicit ids and arrivals, then
/// drain. A traced round also times every `submit` and the drain.
#[must_use]
pub fn service_round(trace: &[Task], traced: bool) -> ServiceRound {
    let t0 = Instant::now();
    let scheduler = Scheduler::new(service_config(trace.len()), Arc::new(Registry::new()));
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rejected = 0;
    let mut submit_s = Vec::with_capacity(if traced { trace.len() } else { 0 });
    let start = Instant::now();
    for t in trace {
        let s = traced.then(Instant::now);
        let r = scheduler.submit(Some(t.id.0), t.cycles, t.class, Some(t.arrival));
        if let Some(s) = s {
            submit_s.push(s.elapsed().as_secs_f64());
        }
        rejected += u64::from(!r.is_ok());
    }
    let d0 = Instant::now();
    let drained = scheduler.drain_run();
    let drain_s = d0.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    drop(scheduler);
    ServiceRound {
        setup_s,
        wall_s,
        rejected,
        outcome: Outcome::from_drain(&drained),
        submit_s,
        drain_s,
    }
}

/// The simulator under LMC on the same trace: the reference schedule,
/// and the `Simulator::run` wall time in seconds.
#[must_use]
pub fn sim_round(trace: &[Task]) -> (Outcome, f64) {
    let params = CostParams::online_paper();
    let platform = service_platform(CORES);
    let mut policy = LeastMarginalCost::new(&platform, params);
    let mut sim = Simulator::new(SimConfig::new(platform));
    sim.add_tasks(trace);
    let t0 = Instant::now();
    let report = black_box(sim.run(&mut policy));
    let run_s = t0.elapsed().as_secs_f64();
    let turnaround_s = report.total_turnaround();
    let outcome = Outcome {
        completed: report
            .tasks
            .values()
            .filter(|r| r.completion.is_some())
            .count() as u64,
        cost: CostBreakdown::from_totals(params, report.active_energy_joules, turnaround_s).total(),
        energy_j: report.active_energy_joules,
        turnaround_s,
        makespan_s: report.makespan,
    };
    (outcome, run_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn small_trace() -> Vec<Task> {
        let mut t = Workload::WireOpenLoop.trace(5);
        t.truncate(2_000);
        t
    }

    #[test]
    fn service_round_conforms_to_the_simulator() {
        let trace = small_trace();
        let (reference, _) = sim_round(&trace);
        let round = service_round(&trace, true);
        assert_eq!(round.rejected, 0);
        assert_eq!(round.submit_s.len(), trace.len());
        let served = round.outcome.expect("drain totals");
        check_outcome(&reference, &served, trace.len()).expect("bit-identical");
    }

    #[test]
    fn replay_check_fails_on_a_tampered_cost() {
        let trace = small_trace();
        let (reference, _) = sim_round(&trace);
        let served = service_round(&trace, false).outcome.expect("drain totals");
        let mut tampered = served;
        tampered.cost = f64::from_bits(served.cost.to_bits() + 1);
        let err = check_outcome(&reference, &tampered, trace.len()).unwrap_err();
        assert!(err.starts_with("cost"), "{err}");
        let mut short = served;
        short.completed -= 1;
        assert!(check_outcome(&reference, &short, trace.len()).is_err());
    }
}
