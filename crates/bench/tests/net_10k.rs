//! Reactor-at-scale smoke test (CI runs it with `-- --ignored`): a
//! single-threaded epoll reactor server holding ~10k mostly-idle
//! connections while a small active set submits work. Two regression
//! tripwires, gated against the committed run in `BENCH_net_10k.json`
//! at the repository root (read only; this run's numbers land in the
//! same-named file under `CARGO_TARGET_TMPDIR`):
//!
//! * **memory** — per-connection RSS growth must stay within a loose
//!   multiple of the committed baseline (a miss means a connection grew
//!   a buffer or the slab stopped recycling);
//! * **latency** — p99 submit round-trip must not explode while the
//!   herd is open (a miss means the event loop started scanning the
//!   herd per wakeup instead of only ready fds).
//!
//! The bounds are deliberately generous (8× latency, 4× memory): this
//! is a tripwire for complexity regressions, not a benchmark — the
//! numbers vary with machine load, and CI machines are noisy.
//!
//! The herd size scales down when `RLIMIT_NOFILE` cannot fit 10k
//! in-process pairs (each held connection costs two fds here: the
//! client end and the server end share the process); the JSON records
//! the count actually held so the baseline stays honest.

use dvfs_bench::committed_baseline;
use dvfs_serve::loadgen::{self, Connection, LoadMode};
use dvfs_serve::protocol::{encode_command, value_u64};
use dvfs_serve::{serve, Endpoint, NetBackend, SchedulerConfig, ServerConfig};
use std::path::Path;

#[test]
#[ignore = "CI smoke: run with `cargo test -p dvfs-bench --test net_10k -- --ignored`"]
fn reactor_holds_ten_thousand_idle_connections() {
    // Every held connection is two fds in this process. Try to raise
    // the soft fd limit toward 10k pairs; if the hard limit is lower,
    // scale the herd down and record what was actually held.
    let _ = dvfs_net::sys::raise_nofile_limit(65_536);
    let (soft, _hard) = dvfs_net::sys::nofile_limit().expect("rlimit is readable");
    let fd_budget = usize::try_from(soft.saturating_sub(512) / 2).unwrap_or(0);
    let connections = fd_budget.min(10_000);
    assert!(
        connections >= 1_000,
        "fd budget too small for a meaningful herd: soft limit {soft}"
    );

    let sock = std::env::temp_dir().join(format!("dvfs-net10k-{}.sock", std::process::id()));
    let cfg = ServerConfig {
        net: NetBackend::Reactor,
        max_connections: connections + 64,
        scheduler: SchedulerConfig {
            cores: 2,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::new(Endpoint::Unix(sock))
    };
    let handle = serve(cfg).expect("reactor server binds");

    let report = loadgen::run(
        handle.endpoint(),
        &LoadMode::Idle {
            connections,
            active_requests: 256,
            seed: 1,
            interactive_fraction: 0.3,
            mean_cycles: 2.0e8,
        },
    )
    .expect("idle loadgen run succeeds");

    let idle = report.idle.clone().expect("idle mode reports a summary");
    assert_eq!(idle.connections, connections, "whole herd held");
    assert_eq!(report.errors, 0, "no wire errors under the herd");
    assert_eq!(report.sent, 256, "active set submitted");

    // The reactor's own accounting must have seen the herd: peak open
    // connections is at least the herd (the active submitter rides on
    // top of it).
    let mut conn = Connection::open(handle.endpoint()).expect("stats connection");
    let stats = conn.round_trip(&encode_command("stats")).expect("stats");
    let peak = stats
        .field("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("net_connections_peak"))
        .and_then(value_u64)
        .unwrap_or(0);
    assert!(
        peak >= connections as u64,
        "reactor peak {peak} never covered the herd of {connections}"
    );
    drop(conn);
    handle.shutdown();
    handle.wait();

    let q = |p: f64| report.rtt.quantile(p).unwrap_or(0.0);
    let (p50, p95, p99) = (q(0.50), q(0.95), q(0.99));

    // Gate against the committed run, if any. Generous
    // bounds: noise is expected, complexity blowups are not.
    if let Some(base_p99) = committed_baseline("BENCH_net_10k.json", "p99_submit_s") {
        let bound = (base_p99 * 8.0).max(0.005);
        assert!(
            p99 <= bound,
            "p99 submit latency regressed: {p99:.6}s vs baseline {base_p99:.6}s (bound {bound:.6}s)"
        );
    }
    if let Some(base_rss) = committed_baseline("BENCH_net_10k.json", "rss_per_conn_bytes") {
        let bound = base_rss * 4.0 + 4096.0;
        assert!(
            (idle.rss_per_conn_bytes as f64) <= bound,
            "per-connection RSS regressed: {} B vs baseline {base_rss} B (bound {bound} B)",
            idle.rss_per_conn_bytes
        );
    }

    let json = format!(
        "{{\"connections\":{},\"peak_connections\":{},\"rss_per_conn_bytes\":{},\"p50_submit_s\":{p50},\"p95_submit_s\":{p95},\"p99_submit_s\":{p99},\"active_requests\":{},\"errors\":{}}}\n",
        idle.connections, peak, idle.rss_per_conn_bytes, report.sent, report.errors
    );
    // The committed baseline moves only by a deliberate commit.
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_net_10k.json");
    std::fs::write(out, json).expect("bench json writes");
    println!(
        "net_10k: {} connections held, ~{} B/conn, submit p50 {:.3} ms p99 {:.3} ms",
        idle.connections,
        idle.rss_per_conn_bytes,
        p50 * 1e3,
        p99 * 1e3
    );
}
