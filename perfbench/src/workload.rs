//! The three workloads: one seeded task trace each.
//!
//! Every workload is a trace shape, and every run offers its traces to
//! both front doors of the scheduler — the in-process service and the
//! wire (a replay-mode server in the end-to-end run; an open-loop paced
//! server, sizes and classes drawn from the trace, in the traced run) —
//! so every end-to-end metric is measured on every workload. What
//! differs is which layers the trace loads:
//!
//! * `judge_replay` — the paper's online trace shape
//!   (`JudgeTraceConfig::paper_heavy`, ~51k tasks, 98.5% interactive):
//!   LMC's interactive path (Eq. 27 scan, preemption) and the event
//!   loop, with shallow ledgers.
//! * `backlog_replay` — 100% non-interactive lognormal work offered at
//!   ~5× the quad-core's service rate: the ξ/Δ ledger at thousands of
//!   queued tasks per core does most of the work.
//! * `wire_open_loop` — a light Poisson mix (30% interactive,
//!   exponential sizes, 2 Mcycle mean) that keeps the engine under 25%
//!   busy even at the wire's capacity, so parse, admission, ticker and
//!   socket dominate.

use dvfs_model::{Task, TaskClass};
use dvfs_workloads::{JudgeTraceConfig, PoissonTrace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cores per service shard (the paper's quad-core i7-950).
pub const CORES: usize = 4;

/// Traces an end-to-end run replays (and averages its costs over).
pub const TRACES_PER_RUN: usize = 16;

/// Paced speed of the wire server for the light mix (engine seconds per
/// wall second). Heavier traces scale it by their mean task size so
/// every workload's wire engine carries the same light load.
const WIRE_SPEED: f64 = 50.0;
/// Mean task size of the light wire mix, in cycles.
const WIRE_MEAN_CYCLES: f64 = 2.0e6;
/// Engine-time arrival rate of the light mix's trace: the 5k/s wire
/// rate divided by the paced speed.
const WIRE_TRACE_RATE: f64 = 5_000.0 / WIRE_SPEED;
/// Engine seconds of the light mix's trace (~50k tasks, the judge
/// trace's length).
const WIRE_TRACE_SECONDS: f64 = 500.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 3 trace shape.
    JudgeReplay,
    /// A deep non-interactive backlog.
    BacklogReplay,
    /// The light mix the wire measurements are specified on.
    WireOpenLoop,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::JudgeReplay,
        Workload::BacklogReplay,
        Workload::WireOpenLoop,
    ];

    /// Parse a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::JudgeReplay => "judge_replay",
            Workload::BacklogReplay => "backlog_replay",
            Workload::WireOpenLoop => "wire_open_loop",
        }
    }

    /// The run's traces for `seed`: [`TRACES_PER_RUN`] independent
    /// draws of the workload's trace shape. Costs average over all of
    /// them, which keeps their seed-to-seed spread small (one judge
    /// trace's mean turnaround alone varies by ~23% across seeds).
    #[must_use]
    pub fn traces(self, seed: u64, count: usize) -> Vec<Vec<Task>> {
        (0..count as u64)
            .map(|i| self.trace(seed.wrapping_mul(TRACES_PER_RUN as u64).wrapping_add(i)))
            .collect()
    }

    /// One trace of the workload's shape: sorted by arrival, ids unique.
    #[must_use]
    pub fn trace(self, seed: u64) -> Vec<Task> {
        match self {
            Workload::JudgeReplay => JudgeTraceConfig::paper_heavy(seed).generate(),
            Workload::BacklogReplay => PoissonTrace {
                rate_per_s: 60.0,
                duration_s: 300.0,
                median_cycles: 1.0e9,
                sigma: 0.8,
                interactive_share: 0.0,
                interactive_median_cycles: 2.0e6,
                seed,
            }
            .generate(),
            Workload::WireOpenLoop => light_mix(seed),
        }
    }
}

/// One exponential draw with the given mean.
pub fn exp_draw(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() * mean
}

/// The light wire mix as an engine-time trace: Poisson arrivals, 30%
/// interactive, exponential sizes with a 2 Mcycle mean for both
/// classes.
fn light_mix(seed: u64) -> Vec<Task> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tasks = Vec::new();
    let mut t = 0.0;
    loop {
        t += exp_draw(&mut rng, 1.0 / WIRE_TRACE_RATE);
        if t >= WIRE_TRACE_SECONDS {
            return tasks;
        }
        let class = if rng.gen_bool(0.3) {
            TaskClass::Interactive
        } else {
            TaskClass::NonInteractive
        };
        let cycles = exp_draw(&mut rng, WIRE_MEAN_CYCLES).max(1.0) as u64;
        let id = tasks.len() as u64;
        tasks.push(Task::online(id, cycles, t, None, class).expect("valid light-mix task"));
    }
}

/// Paced speed for the wire server offered this trace's sizes: the
/// light mix's speed scaled by the trace's mean task size, so the
/// engine stays equally (lightly) loaded on every workload.
#[must_use]
pub fn wire_speed(trace: &[Task]) -> f64 {
    let mean = trace.iter().map(|t| t.cycles as f64).sum::<f64>() / trace.len().max(1) as f64;
    (WIRE_SPEED * mean / WIRE_MEAN_CYCLES)
        .max(WIRE_SPEED)
        .round()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn light_mix_is_seeded_and_light() {
        let a = light_mix(3);
        assert_eq!(a, light_mix(3));
        assert_ne!(a, light_mix(4));
        assert!((45_000..55_000).contains(&a.len()), "{}", a.len());
        let speed = wire_speed(&a);
        assert!((45.0..=55.0).contains(&speed), "{speed}");
    }
}
