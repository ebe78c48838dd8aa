//! Health-plane overhead smoke test (CI runs it with `-- --ignored`):
//! the same replay workload drained through the worker-backed service
//! with per-request stage telemetry off and on.
//!
//! The stage clock adds a handful of `Instant` reads and histogram
//! records per task on the submit and completion paths; the heartbeat
//! slots add a few relaxed atomic stores per worker command. Neither is
//! allowed to cost real throughput: the telemetry-on drain must stay
//! within 5% of the telemetry-off drain (best of several reps, so a
//! scheduler hiccup in one rep does not trip CI), and within a loose
//! factor of the committed ratio in `BENCH_health_overhead.json` — a
//! tripwire for accidentally moving work onto the hot path, not a
//! benchmark.
//!
//! This run's numbers land in `BENCH_health_overhead.json` under the
//! build's scratch directory (`CARGO_TARGET_TMPDIR`); the committed
//! file at the repository root is only read.

use dvfs_bench::committed_baseline;
use dvfs_model::TaskClass;
use dvfs_serve::{Registry, Scheduler, SchedulerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

// Long enough that one drain takes a few hundred milliseconds: at this
// length a millisecond-scale scheduler hiccup moves the ratio well
// under 1%, where a 4k-task drain (~25 ms) saw ±10% swings from the
// same hiccup.
const TASKS: u64 = 40_000;
const SHARDS: usize = 1;
const REPS: usize = 7;

/// Submit and drain the pinned workload once; returns tasks per second.
fn drain_throughput(telemetry: bool) -> f64 {
    let scheduler = Scheduler::new(
        SchedulerConfig {
            cores: 2,
            shards: SHARDS,
            queue_capacity: TASKS as usize * 2,
            telemetry,
            ..SchedulerConfig::default()
        },
        Arc::new(Registry::new()),
    );
    let t0 = Instant::now();
    for i in 0..TASKS {
        let cycles = 1_000_000 + (i % 17) * 250_000;
        let r = scheduler.submit(None, cycles, TaskClass::NonInteractive, Some(0.0));
        assert!(r.is_ok(), "submit shed: {r:?}");
    }
    let served = scheduler.drain_run();
    let elapsed = t0.elapsed().as_secs_f64();
    assert!(served.is_ok(), "drain failed: {served:?}");
    TASKS as f64 / elapsed.max(1e-9)
}

#[test]
#[ignore = "CI smoke: run with `cargo test -p dvfs-bench --test health_overhead -- --ignored`"]
fn stage_telemetry_stays_within_five_percent_of_off() {
    // Each rep runs the two configurations back-to-back so they see
    // correlated machine conditions, and the gate takes the best
    // per-rep ratio: a noisy-neighbor hiccup that lands on one rep's
    // telemetry-on drain (but not its off drain) costs that rep, not
    // the verdict. Taking each side's best across all reps instead was
    // measurably flakier — one lucky off rep pairs against an on side
    // that never got a quiet window.
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    let mut ratio = 0.0f64;
    for _ in 0..REPS {
        let off = drain_throughput(false);
        let on = drain_throughput(true);
        best_off = best_off.max(off);
        best_on = best_on.max(on);
        ratio = ratio.max(on / off);
    }
    println!(
        "health overhead: off {best_off:.0} tasks/s, on {best_on:.0} tasks/s, \
         best pairwise ratio {ratio:.4}"
    );

    // The acceptance gate: telemetry-on throughput within 5% of off.
    assert!(
        ratio >= 0.95,
        "stage telemetry costs more than 5% drain throughput: \
         on {best_on:.0} vs off {best_off:.0} tasks/s (ratio {ratio:.4})"
    );

    // And the committed baseline must not quietly erode: this run's
    // ratio may not fall more than 4% (twice the observed best-of-reps
    // noise band) below the committed ratio. Capped at 0.96 so a lucky
    // committed run can never ratchet the tripwire into the noise band
    // above the real gate.
    if let Some(base) = committed_baseline("BENCH_health_overhead.json", "throughput_ratio") {
        let bound = (base - 0.04).min(0.96);
        assert!(
            ratio >= bound,
            "overhead ratio regressed: {ratio:.4} vs committed {base:.4} (bound {bound:.4})"
        );
    }

    let json = format!(
        "{{\"tasks\":{TASKS},\"shards\":{SHARDS},\"reps\":{REPS},\"throughput_off_tps\":{best_off},\"throughput_on_tps\":{best_on},\"throughput_ratio\":{ratio}}}\n"
    );
    // The committed baseline moves only by a deliberate commit.
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_health_overhead.json");
    std::fs::write(out, json).expect("bench json writes");
}
