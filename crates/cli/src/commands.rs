//! Subcommand implementations.

use crate::args::{parse_cycles_list, Args};
use dvfs_baselines::{OlbOnline, OnDemandOnline};
use dvfs_core::{schedule_wbg, DominatingRanges, LeastMarginalCost, WbgReassign};
use dvfs_model::task::batch_workload;
use dvfs_model::{CostParams, Platform, RateTable};
use dvfs_sim::{GovernorKind, Policy, SimConfig, SimReport, Simulator};
use dvfs_trace::SharedRing;
use dvfs_workloads::judge::TraceStats;
use dvfs_workloads::JudgeTraceConfig;

/// CLI usage text.
pub const USAGE: &str = "\
dvfs-sched — energy-efficient per-core-DVFS task scheduling (ICPP 2014)

USAGE:
  dvfs-sched generate-trace --out FILE [--kind judge|poisson|diurnal]
             [--seed N] [--scale N] [--heavy]
  dvfs-sched schedule-batch --cycles L1,L2,... [--cores N] [--re X] [--rt Y]
  dvfs-sched simulate --trace FILE --policy lmc|wbg|olb|ondemand
             [--cores N] [--re X] [--rt Y] [--report FILE] [--log FILE]
  dvfs-sched analyze --report FILE [--log FILE] [--gantt FILE.csv]
             [--queue FILE.csv]
  dvfs-sched ranges [--re X] [--rt Y]
  dvfs-sched serve (--socket PATH | --tcp ADDR) [--mode replay|paced]
             [--speed X] [--cores N] [--shards N] [--re X] [--rt Y]
             [--queue-cap N] [--snapshot FILE] [--snapshot-period-s S]
             [--trace-out FILE] [--trace-cap N] [--net threads|reactor]
             [--max-connections N]
             [--rebalance on|off] [--telemetry on|off]
  dvfs-sched loadgen (--socket PATH | --tcp ADDR) --mode replay|poisson|closed
             [--trace FILE] [--rate HZ] [--duration-s S] [--clients N]
             [--requests N] [--interactive-frac F] [--mean-cycles C]
             [--seed N] [--max-shed F] [--skew F] [--shutdown]
  dvfs-sched loadgen (--socket PATH | --tcp ADDR) --idle [--connections N]
             [--requests N] [--seed N] [--interactive-frac F]
             [--mean-cycles C] [--shutdown]
  dvfs-sched trace-export --in FILE.jsonl --out FILE.json

Cost parameters default to the paper's: batch Re=0.1 Rt=0.4 for
schedule-batch/ranges, online Re=0.4 Rt=0.1 for simulate/serve.
`serve --trace-cap N` enables per-shard lifecycle tracing (ring of N
events per shard); `--trace-out` mirrors the drained trace to a JSONL
file; `simulate --log` writes the simulated run's trace in the same
JSONL, which `analyze --log` reads for Gantt and queue-depth CSVs.
`trace-export` converts that JSONL into Chrome trace_event JSON
loadable in Perfetto (ui.perfetto.dev). `loadgen --max-shed F` exits
nonzero when the shed ratio exceeds F. `serve --net reactor` swaps
the thread-per-connection front-end for the single-threaded epoll
reactor (same wire protocol, same replay semantics); `--max-connections`
caps concurrent connections on either front-end, shedding on accept.
`loadgen --idle` holds `--connections` mostly-idle sockets while one
active connection submits `--requests` tasks, reporting submit latency
percentiles and per-connection RSS growth. `serve --rebalance on`
enables the Eq. 27 cross-shard rebalancer (tick-driven task migration
hot->cold); `loadgen --mode closed --skew F` pins fraction F of
submissions to shard 0 via explicit ids to provoke it. `serve
--telemetry off` silences per-request stage-attribution histograms
(the `health` command's worker heartbeats and loop counters stay on).";

fn cost_params(args: &Args, default: CostParams) -> Result<CostParams, String> {
    let re = args.num("re", default.re)?;
    let rt = args.num("rt", default.rt)?;
    CostParams::new(re, rt).map_err(|e| e.to_string())
}

fn platform(args: &Args) -> Result<Platform, String> {
    let cores: usize = args.num("cores", 4)?;
    if cores == 0 {
        return Err("`--cores` must be positive".into());
    }
    Platform::homogeneous(
        cores,
        dvfs_model::CoreSpec::new(RateTable::i7_950_table2()).with_idle_power(2.0),
    )
    .map_err(|e| e.to_string())
}

/// Dispatch argv to a subcommand.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no subcommand given".into());
    };
    match cmd.as_str() {
        "generate-trace" => generate_trace(rest),
        "schedule-batch" => schedule_batch(rest),
        "simulate" => simulate(rest),
        "analyze" => analyze(rest),
        "ranges" => ranges(rest),
        "serve" => serve_cmd(rest),
        "loadgen" => loadgen_cmd(rest),
        "trace-export" => trace_export(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn generate_trace(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["heavy"])?;
    let out = args.require("out")?;
    let seed: u64 = args.num("seed", 1)?;
    let scale: usize = args.num("scale", 1)?;
    if scale == 0 {
        return Err("`--scale` must be positive".into());
    }
    let kind = args.get("kind").unwrap_or("judge");
    let trace = match kind {
        "judge" => {
            let mut cfg = if args.switch("heavy") {
                JudgeTraceConfig::paper_heavy(seed)
            } else {
                JudgeTraceConfig::paper(seed)
            };
            cfg.non_interactive = (cfg.non_interactive / scale).max(1);
            cfg.interactive = (cfg.interactive / scale).max(1);
            cfg.generate()
        }
        "poisson" => {
            let mut cfg = dvfs_workloads::PoissonTrace::default_config(seed);
            cfg.duration_s /= scale as f64;
            cfg.generate()
        }
        "diurnal" => {
            let mut cfg = dvfs_workloads::DiurnalTrace::default_config(seed);
            cfg.duration_s /= scale as f64;
            cfg.period_s /= scale as f64;
            cfg.generate()
        }
        other => {
            return Err(format!(
                "unknown trace kind `{other}` (judge|poisson|diurnal)"
            ))
        }
    };
    dvfs_workloads::io::save_trace(std::path::Path::new(out), &trace).map_err(|e| e.to_string())?;
    let stats = TraceStats::of(&trace);
    println!(
        "wrote {} tasks ({} interactive, {} non-interactive, span {:.0} s) to {out}",
        trace.len(),
        stats.interactive,
        stats.non_interactive,
        stats.span_s
    );
    Ok(())
}

fn schedule_batch(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let cycles = parse_cycles_list(args.require("cycles")?)?;
    if cycles.contains(&0) {
        return Err("cycle counts must be positive".into());
    }
    let params = cost_params(&args, CostParams::batch_paper())?;
    let platform = platform(&args)?;
    let tasks = batch_workload(&cycles);
    let plan = schedule_wbg(&tasks, &platform, params);
    let table = RateTable::i7_950_table2();
    println!(
        "WBG plan ({} cores, Re={}, Rt={}):",
        platform.num_cores(),
        params.re,
        params.rt
    );
    for (j, seq) in plan.per_core.iter().enumerate() {
        println!("  core {j}:");
        for &(tid, rate) in seq {
            let t = tasks
                .iter()
                .find(|t| t.id == tid)
                .ok_or_else(|| format!("plan references unknown task {tid}"))?;
            println!(
                "    {} {:>12.3} Gcycles @ {:.1} GHz",
                tid,
                t.cycles as f64 / 1e9,
                table.rate(rate).freq_hz / 1e9
            );
        }
    }
    let cost = dvfs_core::batch::predict_plan_cost(&plan, &tasks, &platform, params);
    println!("predicted total cost: {cost:.4}");
    Ok(())
}

fn simulate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let trace_path = args.require("trace")?;
    let policy_name = args.require("policy")?.to_string();
    let params = cost_params(&args, CostParams::online_paper())?;
    let platform = platform(&args)?;
    let trace = dvfs_workloads::io::load_trace(std::path::Path::new(trace_path))
        .map_err(|e| e.to_string())?;
    if trace.is_empty() {
        return Err("trace is empty".into());
    }

    let mut cfg = SimConfig::new(platform.clone());
    let mut policy: Box<dyn Policy> = match policy_name.as_str() {
        "lmc" => Box::new(LeastMarginalCost::new(&platform, params)),
        "wbg" => Box::new(WbgReassign::new(&platform, params)),
        "olb" => Box::new(OlbOnline::new(platform.num_cores())),
        "ondemand" => {
            cfg = cfg.with_governor(GovernorKind::ondemand_paper());
            Box::new(OnDemandOnline::new(platform.num_cores()))
        }
        other => return Err(format!("unknown policy `{other}` (lmc|wbg|olb|ondemand)")),
    };
    let mut sim = Simulator::new(cfg);
    // `--log` records the run's lifecycle trace into a ring that never
    // overwrites: the same events, in the same JSONL, that `serve
    // --trace-out` writes.
    let log = args
        .get("log")
        .map(|path| (path, SharedRing::new(0, usize::MAX)));
    if let Some((_, ring)) = &log {
        sim.set_trace_sink(Some(Box::new(ring.clone())));
    }
    sim.add_tasks(&trace);
    let report = sim.run(policy.as_mut());

    let cost = report.cost(params);
    println!("policy          : {}", report.policy);
    println!("tasks completed : {}", report.completed());
    println!("makespan        : {:.2} s", report.makespan);
    println!("active energy   : {:.1} J", cost.energy_joules);
    println!("total waiting   : {:.1} s", cost.waiting_seconds);
    println!(
        "cost            : {:.4} (energy {:.4} + time {:.4})",
        cost.total(),
        cost.energy_cost,
        cost.time_cost
    );
    if let Some(path) = args.get("report") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("full report written to {path}");
    }
    if let Some((path, ring)) = log {
        if ring.dropped() != 0 {
            return Err(format!("trace ring dropped {} events", ring.dropped()));
        }
        let events = ring.drain();
        std::fs::write(path, dvfs_trace::export::to_jsonl(&events)).map_err(|e| e.to_string())?;
        println!(
            "lifecycle trace ({} events, {} rate changes) written to {path}",
            events.len(),
            dvfs_sim::rate_changes(&events)
        );
    }
    Ok(())
}

fn analyze(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let report_path = args.require("report")?;
    let json = std::fs::read_to_string(report_path).map_err(|e| e.to_string())?;
    let report: SimReport = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    println!("policy   : {}", report.policy);
    println!("tasks    : {} completed", report.completed());
    println!("makespan : {:.2} s", report.makespan);
    for (j, busy) in report.core_busy.iter().enumerate() {
        let residency = report
            .residency_fractions(j)
            .map(|f| {
                f.iter()
                    .enumerate()
                    .map(|(r, x)| format!("r{r}:{:.0}%", x * 100.0))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_else(|| "idle".to_string());
        println!("core {j}  : busy {busy:.1} s  [{residency}]");
    }
    let Some(log_path) = args.get("log") else {
        if args.get("gantt").is_some() || args.get("queue").is_some() {
            return Err("`--gantt` and `--queue` need the run's `--log FILE`".into());
        }
        println!("no trace given — pass the `--log FILE` that `simulate --log` wrote");
        return Ok(());
    };
    let text = std::fs::read_to_string(log_path).map_err(|e| e.to_string())?;
    let events = dvfs_trace::export::parse_jsonl(&text).map_err(|e| e.to_string())?;
    let segments = dvfs_sim::gantt(&events);
    let depth = dvfs_sim::queue_depth_series(&events, report.tasks.values());
    let max_depth = depth.iter().map(|&(_, d)| d).max().unwrap_or(0);
    println!(
        "log      : {} events, {} gantt segments, {} rate changes, peak queue depth {}",
        events.len(),
        segments.len(),
        dvfs_sim::rate_changes(&events),
        max_depth
    );
    if let Some(path) = args.get("gantt") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        dvfs_sim::analysis::write_gantt_csv(std::io::BufWriter::new(f), &segments)
            .map_err(|e| e.to_string())?;
        println!("gantt csv written to {path}");
    }
    if let Some(path) = args.get("queue") {
        let mut out = String::from("time,depth\n");
        for (t, d) in &depth {
            out.push_str(&format!("{t},{d}\n"));
        }
        std::fs::write(path, out).map_err(|e| e.to_string())?;
        println!("queue-depth csv written to {path}");
    }
    Ok(())
}

fn endpoint(args: &Args) -> Result<dvfs_serve::Endpoint, String> {
    match (args.get("socket"), args.get("tcp")) {
        (Some(path), None) => Ok(dvfs_serve::Endpoint::Unix(path.into())),
        (None, Some(addr)) => Ok(dvfs_serve::Endpoint::Tcp(addr.to_string())),
        (Some(_), Some(_)) => Err("give either `--socket` or `--tcp`, not both".into()),
        (None, None) => Err("an endpoint is required: `--socket PATH` or `--tcp ADDR`".into()),
    }
}

fn serve_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let endpoint = endpoint(&args)?;
    let params = cost_params(&args, CostParams::online_paper())?;
    let cores: usize = args.num("cores", 4)?;
    if cores == 0 {
        return Err("`--cores` must be positive".into());
    }
    let queue_capacity: usize = args.num("queue-cap", 1024)?;
    if queue_capacity == 0 {
        return Err("`--queue-cap` must be positive".into());
    }
    let shards: usize = args.num("shards", 1)?;
    if shards == 0 {
        return Err("`--shards` must be positive".into());
    }
    let mode = match args.get("mode").unwrap_or("replay") {
        "replay" => dvfs_serve::Mode::Replay,
        "paced" => {
            let speed: f64 = args.num("speed", 1.0)?;
            if !(speed.is_finite() && speed > 0.0) {
                return Err("`--speed` must be a positive number".into());
            }
            dvfs_serve::Mode::Paced { speed }
        }
        other => return Err(format!("unknown serve mode `{other}` (replay|paced)")),
    };
    let trace_capacity: usize = args.num("trace-cap", 0)?;
    let trace_out = args.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() && trace_capacity == 0 {
        return Err("`--trace-out` requires `--trace-cap N` to enable tracing".into());
    }
    // `--net` overrides the DVFS_SERVE_NET env default picked up by
    // `ServerConfig::new`; absent, the env selection stands.
    let net = match args.get("net") {
        None => None,
        Some("threads") => Some(dvfs_serve::NetBackend::Threads),
        Some("reactor") => Some(dvfs_serve::NetBackend::Reactor),
        Some(other) => return Err(format!("unknown net backend `{other}` (threads|reactor)")),
    };
    let max_connections: usize =
        args.num("max-connections", dvfs_serve::DEFAULT_MAX_CONNECTIONS)?;
    if max_connections == 0 {
        return Err("`--max-connections` must be positive".into());
    }
    let rebalance = match args.get("rebalance").unwrap_or("off") {
        "on" => dvfs_serve::RebalanceConfig::on(),
        "off" => dvfs_serve::RebalanceConfig::default(),
        other => return Err(format!("unknown rebalance setting `{other}` (on|off)")),
    };
    let telemetry = match args.get("telemetry").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown telemetry setting `{other}` (on|off)")),
    };
    let mut cfg = dvfs_serve::ServerConfig::new(endpoint);
    cfg.scheduler = dvfs_serve::SchedulerConfig {
        cores,
        params,
        mode,
        queue_capacity,
        shards,
        trace_capacity,
        rebalance,
        telemetry,
    };
    if let Some(net) = net {
        cfg.net = net;
    }
    cfg.max_connections = max_connections;
    cfg.snapshot_path = args.get("snapshot").map(Into::into);
    cfg.trace_out = trace_out;
    let period: f64 = args.num("snapshot-period-s", 1.0)?;
    if !(period.is_finite() && period > 0.0) {
        return Err("`--snapshot-period-s` must be a positive number".into());
    }
    cfg.snapshot_period = std::time::Duration::from_secs_f64(period);
    let handle = dvfs_serve::serve(cfg).map_err(|e| e.to_string())?;
    match handle.endpoint() {
        dvfs_serve::Endpoint::Unix(path) => {
            println!("dvfs-serve listening on unix socket {}", path.display());
        }
        dvfs_serve::Endpoint::Tcp(addr) => println!("dvfs-serve listening on tcp {addr}"),
    }
    println!("send {{\"cmd\":\"shutdown\"}} to stop");
    handle.wait();
    println!("dvfs-serve stopped");
    Ok(())
}

fn loadgen_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["shutdown", "idle"])?;
    let endpoint = endpoint(&args)?;
    let seed: u64 = args.num("seed", 1)?;
    let interactive_fraction: f64 = args.num("interactive-frac", 0.3)?;
    let mean_cycles: f64 = args.num("mean-cycles", 2.0e8)?;
    let mode = if args.switch("idle") {
        if args.get("mode").is_some() {
            return Err("`--idle` and `--mode` are mutually exclusive".into());
        }
        let connections: usize = args.num("connections", 1000)?;
        if connections == 0 {
            return Err("`--connections` must be positive".into());
        }
        dvfs_serve::LoadMode::Idle {
            connections,
            active_requests: args.num("requests", 100)?,
            seed,
            interactive_fraction,
            mean_cycles,
        }
    } else {
        loadgen_mode(&args, seed, interactive_fraction, mean_cycles)?
    };
    let report = dvfs_serve::loadgen::run(&endpoint, &mode).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if args.switch("shutdown") {
        let mut conn =
            dvfs_serve::loadgen::Connection::open(&endpoint).map_err(|e| e.to_string())?;
        conn.round_trip("{\"cmd\":\"shutdown\"}")
            .map_err(|e| e.to_string())?;
        println!("server shutdown requested");
    }
    if let Some(max_shed) = args.get("max-shed") {
        let max: f64 = max_shed
            .parse()
            .map_err(|_| format!("`--max-shed` is not a number: `{max_shed}`"))?;
        if !(0.0..=1.0).contains(&max) {
            return Err("`--max-shed` must be between 0 and 1".into());
        }
        let ratio = report.shed_ratio();
        if ratio > max {
            return Err(format!(
                "shed ratio {ratio:.4} exceeds --max-shed {max} ({} of {} submissions shed)",
                report.shed, report.sent
            ));
        }
    }
    Ok(())
}

fn loadgen_mode(
    args: &Args,
    seed: u64,
    interactive_fraction: f64,
    mean_cycles: f64,
) -> Result<dvfs_serve::LoadMode, String> {
    match args.require("mode")? {
        "replay" => {
            let trace_path = args.require("trace")?;
            let trace = dvfs_workloads::io::load_trace(std::path::Path::new(trace_path))
                .map_err(|e| e.to_string())?;
            if trace.is_empty() {
                return Err("trace is empty".into());
            }
            Ok(dvfs_serve::LoadMode::Replay { trace })
        }
        "poisson" => Ok(dvfs_serve::LoadMode::Poisson {
            rate_hz: args.num("rate", 50.0)?,
            duration: std::time::Duration::from_secs_f64(args.num("duration-s", 5.0)?),
            seed,
            interactive_fraction,
            mean_cycles,
        }),
        "closed" => {
            let skew: f64 = args.num("skew", 0.0)?;
            if !(0.0..=1.0).contains(&skew) {
                return Err("`--skew` must be between 0 and 1".into());
            }
            Ok(dvfs_serve::LoadMode::Closed {
                clients: args.num("clients", 4)?,
                requests_per_client: args.num("requests", 100)?,
                seed,
                interactive_fraction,
                mean_cycles,
                skew,
            })
        }
        other => Err(format!(
            "unknown loadgen mode `{other}` (replay|poisson|closed)"
        )),
    }
}

fn trace_export(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let input = args.require("in")?;
    let output = args.require("out")?;
    let text = std::fs::read_to_string(input).map_err(|e| e.to_string())?;
    let events = dvfs_trace::export::parse_jsonl(&text).map_err(|e| e.to_string())?;
    let json = dvfs_trace::export::chrome_trace(&events);
    std::fs::write(output, json).map_err(|e| e.to_string())?;
    println!(
        "wrote {} events as Chrome trace JSON to {output} (open in ui.perfetto.dev)",
        events.len()
    );
    Ok(())
}

fn ranges(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let params = cost_params(&args, CostParams::batch_paper())?;
    let table = RateTable::i7_950_table2();
    let dr = DominatingRanges::compute(&table, params);
    println!(
        "Dominating position ranges (Re={}, Rt={}):",
        params.re, params.rt
    );
    for e in dr.entries() {
        let ghz = table.rate(e.rate).freq_hz / 1e9;
        match e.ub {
            Some(ub) => println!("  [{:>6}, {:>6})  {ghz:.1} GHz", e.lb, ub),
            None => println!("  [{:>6},    inf)  {ghz:.1} GHz", e.lb),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&sv(&["help"])).is_ok());
    }

    #[test]
    fn ranges_runs_with_custom_params() {
        assert!(dispatch(&sv(&["ranges", "--re", "1.0", "--rt", "2.0"])).is_ok());
        assert!(dispatch(&sv(&["ranges", "--re", "-1"])).is_err());
    }

    #[test]
    fn schedule_batch_validates_input() {
        assert!(dispatch(&sv(&["schedule-batch"])).is_err());
        assert!(dispatch(&sv(&["schedule-batch", "--cycles", "abc"])).is_err());
        assert!(dispatch(&sv(&[
            "schedule-batch",
            "--cycles",
            "1e9,2e9",
            "--cores",
            "2"
        ]))
        .is_ok());
        assert!(dispatch(&sv(&["schedule-batch", "--cycles", "1e9", "--cores", "0"])).is_err());
    }

    #[test]
    fn trace_roundtrip_through_cli() {
        let dir = std::env::temp_dir().join("dvfs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let path_s = path.to_str().unwrap();
        dispatch(&sv(&[
            "generate-trace",
            "--out",
            path_s,
            "--seed",
            "3",
            "--scale",
            "500",
        ]))
        .unwrap();
        for policy in ["lmc", "wbg", "olb", "ondemand"] {
            dispatch(&sv(&["simulate", "--trace", path_s, "--policy", policy])).unwrap();
        }
        let report = dir.join("r.json");
        let log = dir.join("log.jsonl");
        dispatch(&sv(&[
            "simulate",
            "--trace",
            path_s,
            "--policy",
            "lmc",
            "--report",
            report.to_str().unwrap(),
            "--log",
            log.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("active_energy_joules"));
        let log_text = std::fs::read_to_string(&log).unwrap();
        assert!(log_text.contains("\"ev\":\"dispatch\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_kinds_generate() {
        let dir = std::env::temp_dir().join("dvfs-cli-kinds");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in ["judge", "poisson", "diurnal"] {
            let path = dir.join(format!("{kind}.jsonl"));
            dispatch(&sv(&[
                "generate-trace",
                "--out",
                path.to_str().unwrap(),
                "--kind",
                kind,
                "--scale",
                "500",
            ]))
            .unwrap();
            assert!(path.exists());
        }
        assert!(dispatch(&sv(&[
            "generate-trace",
            "--out",
            "/tmp/x.jsonl",
            "--kind",
            "flat"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_log_feeds_analyze_and_trace_export() {
        let dir = std::env::temp_dir().join("dvfs-cli-analyze");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (trace, report, log) = (path("t.jsonl"), path("r.json"), path("l.jsonl"));
        let (gantt, queue, chrome) = (path("g.csv"), path("q.csv"), path("c.json"));
        dispatch(&sv(&["generate-trace", "--out", &trace, "--scale", "500"])).unwrap();
        dispatch(&sv(&[
            "simulate", "--trace", &trace, "--policy", "ondemand", "--report", &report, "--log",
            &log,
        ]))
        .unwrap();
        dispatch(&sv(&[
            "analyze", "--report", &report, "--log", &log, "--gantt", &gantt, "--queue", &queue,
        ]))
        .unwrap();
        dispatch(&sv(&["trace-export", "--in", &log, "--out", &chrome])).unwrap();
        let g = std::fs::read_to_string(&gantt).unwrap();
        let mut rows = g.lines();
        assert_eq!(rows.next(), Some("core,task,start,end,rate"));
        assert!(rows.count() > 0, "gantt csv has rows");
        let q = std::fs::read_to_string(&queue).unwrap();
        let mut rows = q.lines();
        assert_eq!(rows.next(), Some("time,depth"));
        assert!(rows.count() > 0, "queue csv has rows");
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        assert!(json.get("traceEvents").is_some());
        // The CSVs need the trace; the report alone is not enough.
        assert!(dispatch(&sv(&["analyze", "--report", &report, "--gantt", &gantt])).is_err());
        assert!(dispatch(&sv(&["analyze", "--report", "/nope.json"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_zero_shards() {
        assert!(dispatch(&sv(&["serve", "--tcp", "127.0.0.1:0", "--shards", "0"])).is_err());
    }

    #[test]
    fn serve_rejects_unknown_rebalance_setting() {
        assert!(dispatch(&sv(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--rebalance",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn serve_rejects_unknown_telemetry_setting() {
        assert!(dispatch(&sv(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--telemetry",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn loadgen_rejects_out_of_range_skew() {
        assert!(dispatch(&sv(&[
            "loadgen",
            "--tcp",
            "127.0.0.1:1",
            "--mode",
            "closed",
            "--skew",
            "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_rejects_bad_policy_and_missing_trace() {
        assert!(dispatch(&sv(&[
            "simulate",
            "--trace",
            "/nonexistent/x.jsonl",
            "--policy",
            "lmc"
        ]))
        .is_err());
        let dir = std::env::temp_dir().join("dvfs-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let path_s = path.to_str().unwrap();
        dispatch(&sv(&["generate-trace", "--out", path_s, "--scale", "2000"])).unwrap();
        assert!(dispatch(&sv(&["simulate", "--trace", path_s, "--policy", "turbo"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
