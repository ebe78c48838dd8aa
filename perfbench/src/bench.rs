//! The two runs: end-to-end (untraced) and per-layer (traced).
//!
//! Both offer the workload's traces to the in-process service and to
//! the wire, checking results against the simulator. The end-to-end run
//! interleaves in-process replays with pipelined wire replays throughout
//! its budget; the per-layer run times each layer in turn, drives the
//! wire open-loop at fixed rates, then searches for the capacity knee.

use crate::layers;
use crate::replay::{self, Outcome};
use crate::report::Report;
use crate::stats::{mean, median, quantile};
use crate::wire::{self, Item, Phase, StageTotals, WireServer};
use crate::workload::{wire_speed, CORES, TRACES_PER_RUN};
use crate::{host, Args};
use dvfs_model::{Task, TaskClass};
use dvfs_serve::protocol::value_u64;
use dvfs_serve::{Mode, NetBackend, SchedulerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The two fixed open-loop rates, in submits per second.
const RATES: [(f64, &str); 2] = [(5_000.0, "r5k"), (20_000.0, "r20k")];
/// Relative resolution of the capacity search.
const KNEE_RESOLUTION: f64 = 0.03;
/// Submits per ledger timing loop.
const LEDGER_OPS: usize = 20_000;
/// Head of each trace replayed over the wire per pass: long enough to
/// amortize the server's set-up and drain, short enough to leave every
/// pass mostly in-process time.
const WIRE_REPLAY_TASKS: usize = 16_384;

/// Run the workload as `args` asks and collect its report.
///
/// # Errors
/// Failures to set up or talk to the wire server.
pub fn run(args: &Args) -> Result<Report, String> {
    // The traced run times layers on the first of the end-to-end run's
    // traces only.
    let count = if args.traced { 1 } else { TRACES_PER_RUN };
    let traces = args.workload.traces(args.seed, count);
    let mut r = Report::default();
    let speed = wire_speed(&traces[0]);
    r.note(format!(
        "host: cores={} commit={} | workload={} seed={} seconds={} trace={} traces={count} \
         tasks={} | service: mode=replay shards=1 cores={CORES} | wire: backend={} shards=1 \
         cores={CORES}, replay of {WIRE_REPLAY_TASKS}-task heads (untraced run), paced \
         speed={speed} queue=1024 tick=10ms open loop (traced run)",
        host::cores(),
        host::git_commit(Path::new(".")),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        traces.iter().map(Vec::len).sum::<usize>(),
        NetBackend::from_env().name(),
    ));
    let wire = WireRun {
        path: args
            .sock_dir
            .join(format!("perfbench-{}.sock", std::process::id())),
        speed,
        parts: traces[0].iter().map(|t| (t.cycles, t.class)).collect(),
        seed: args.seed,
    };
    if args.traced {
        per_layer(args, &traces[0], &wire, &mut r)?;
    } else {
        end_to_end(args, &traces, &wire, &mut r)?;
    }
    Ok(r)
}

/// Check a service drain against the simulator's reference.
fn check_round(
    r: &mut Report,
    what: &str,
    reference: &Outcome,
    served: &Result<Outcome, String>,
    n: usize,
) {
    let res = served
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|o| replay::check_outcome(reference, o, n));
    r.check(what, res);
}

fn end_to_end(
    args: &Args,
    traces: &[Vec<Task>],
    wire: &WireRun,
    r: &mut Report,
) -> Result<(), String> {
    // Every thread of the run, the service's and the wire server's
    // included, shares the core the host-speed probe runs on.
    match host::pin_to_current_core() {
        Some(cpu) => r.note(format!("pinned: every thread on core {cpu}")),
        None => r.note("pinned: no (sched_setaffinity refused)".into()),
    }
    let start = Instant::now();
    // Interleaved passes, so every metric samples the whole run rather
    // than one stretch of it: on a shared host the machine's speed drifts
    // over seconds. Each pass replays one trace in process and the head
    // of the same trace over the wire, each checked bit for bit against
    // a simulator run. Passes cycle through every trace at least once,
    // so the costs cover them all. The host-speed probe runs before and
    // after each of the three timed stages, and each throughput is
    // scaled by the mean of the two probes around it. (The probe between
    // the service round and the wire replay runs once the wire server is
    // up: run before it, it leaves the second core idle and slows the
    // server's start tenfold.)
    let mut setup = Vec::new();
    let mut wire_setup = Vec::new();
    let mut raw = [Vec::new(), Vec::new(), Vec::new()];
    let mut scaled = [Vec::new(), Vec::new(), Vec::new()];
    let mut speeds = Vec::new();
    let mut reference: Vec<Option<Outcome>> = vec![None; traces.len()];
    let mut head_reference: Vec<Option<Outcome>> = vec![None; traces.len()];
    let mut served = vec![false; traces.len()];
    let mut peak_rss_mb = 0.0;
    let mut pass = 0;
    let mut pass_s: f64 = 0.0;
    while pass < traces.len() || start.elapsed().as_secs_f64() + pass_s <= args.seconds {
        let t0 = Instant::now();
        let j = pass % traces.len();
        let (trace, n) = (&traces[j], traces[j].len());
        let head = &trace[..n.min(WIRE_REPLAY_TASKS)];
        let head_ref = *head_reference[j].get_or_insert_with(|| replay::sim_round(head).0);
        let mut probes = [host::speed(), 0.0, 0.0, 0.0];
        let (sim_outcome, sim_s) = replay::sim_round(trace);
        probes[1] = host::speed();
        let round = replay::service_round(trace, false);
        if pass == 0 {
            // Memory to hold the traces and replay one of them. Read
            // before the first wire server starts: later threads'
            // allocator arenas make the high-water mark drift from run
            // to run.
            peak_rss_mb = host::peak_rss_mb();
        }
        let (wire_setup_s, wire_s) =
            wire.replay(r, head, &head_ref, || probes[2] = host::speed())?;
        probes[3] = host::speed();

        r.ops(n as u64, round.rejected);
        check_round(
            r,
            "service drain vs simulator",
            &sim_outcome,
            &round.outcome,
            n,
        );
        if let Some(first) = &reference[j] {
            r.check(
                "simulator repeats bit for bit",
                replay::check_outcome(first, &sim_outcome, n),
            );
        }
        reference[j].get_or_insert(sim_outcome);
        served[j] |= round.outcome.is_ok();
        setup.push(round.setup_s);
        wire_setup.push(wire_setup_s);
        let rates = [
            n as f64 / sim_s,
            n as f64 / round.wall_s,
            head.len() as f64 / wire_s,
        ];
        for (k, rate) in rates.into_iter().enumerate() {
            let speed = 0.5 * (probes[k] + probes[k + 1]);
            raw[k].push(rate);
            scaled[k].push(rate * host::REFERENCE_SPEED / speed);
        }
        speeds.extend_from_slice(&probes);
        pass_s = pass_s.max(t0.elapsed().as_secs_f64());
        pass += 1;
    }
    let done = reference
        .iter()
        .flatten()
        .map(|o| o.completed)
        .sum::<u64>()
        .max(1) as f64;
    let total = |f: fn(&Outcome) -> f64| reference.iter().flatten().map(f).sum::<f64>();
    r.check(
        "every trace served",
        if served.iter().all(|&s| s) {
            Ok(())
        } else {
            Err("a trace's drain failed".into())
        },
    );

    r.note(format!("passes={pass}"));
    let [sim_tps, service_tps, wire_tps] = &scaled;
    r.timing("host.speed", &speeds, 1.0, "/s");
    r.timing("sim.tasks_per_s.raw", &raw[0], 1.0, "/s");
    r.timing("service.tasks_per_s.raw", &raw[1], 1.0, "/s");
    r.timing("wire.tasks_per_s.raw", &raw[2], 1.0, "/s");
    r.timing("sim.tasks_per_s.scaled", sim_tps, 1.0, "/s");
    r.timing("service.tasks_per_s.scaled", service_tps, 1.0, "/s");
    r.timing("wire.tasks_per_s.scaled", wire_tps, 1.0, "/s");
    r.timing("setup.service", &setup, 1e3, "ms");
    r.timing("setup.wire", &wire_setup, 1e3, "ms");

    r.metric("setup_s", median(&setup) + median(&wire_setup), "s");
    r.metric("tasks_per_s", median(service_tps), "1/s");
    r.metric("sim_tasks_per_s", median(sim_tps), "1/s");
    r.metric("wire_tasks_per_s", median(wire_tps), "1/s");
    r.metric("cost_per_task", total(|o| o.cost) / done, "cost");
    r.metric("energy_per_task_j", total(|o| o.energy_j) / done, "J");
    r.metric("turnaround_mean_s", total(|o| o.turnaround_s) / done, "s");
    r.metric("peak_rss_mb", peak_rss_mb, "MiB");
    r.note(format!(
        "failed_frac = {} ({} of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    Ok(())
}

fn per_layer(args: &Args, trace: &[Task], wire: &WireRun, r: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let n = trace.len();
    let deadline = start + Duration::from_secs_f64(0.3 * args.seconds);

    // In-process layers, one untraced and one traced service round per
    // pass, so their ratio is the tracing overhead.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut submit_s = Vec::new();
    let mut drain_s = Vec::new();
    let mut exec_run_s = Vec::new();
    let mut exec_self_s = Vec::new();
    let mut sim_s = Vec::new();
    let mut exec = None;
    while sim_s.len() < 2 || Instant::now() < deadline {
        let (reference, s) = replay::sim_round(trace);
        sim_s.push(s);
        let plain = replay::service_round(trace, false);
        let traced = replay::service_round(trace, true);
        let layer = layers::executor_round(trace);
        for round in [&plain, &traced] {
            r.ops(n as u64, round.rejected);
            check_round(
                r,
                "service drain vs simulator",
                &reference,
                &round.outcome,
                n,
            );
        }
        check_round(
            r,
            "bare executor vs simulator",
            &reference,
            &Ok(layer.outcome),
            n,
        );
        plain_s.push(plain.wall_s);
        traced_s.push(traced.wall_s);
        submit_s.extend(traced.submit_s);
        drain_s.push(traced.drain_s);
        exec_run_s.push(layer.run_s);
        exec_self_s.push(layer.self_s());
        exec = Some(layer);
    }
    let exec = exec.expect("at least one round");
    let lmc = &exec.lmc;
    let depth = median(&lmc.queue_depth);
    let (probe_s, insert_remove_s) =
        layers::ledger_round(trace, depth.round() as usize, LEDGER_OPS);

    r.timing("service.submit", &submit_s, 1e6, "us");
    r.timing("service.drain", &drain_s, 1.0, "s");
    r.timing("executor.run", &exec_run_s, 1.0, "s");
    r.timing("sim.run", &sim_s, 1.0, "s");
    r.timing(
        "lmc.arrival_interactive",
        &lmc.arrival_interactive_s,
        1e6,
        "us",
    );
    r.timing(
        "lmc.arrival_noninteractive",
        &lmc.arrival_noninteractive_s,
        1e6,
        "us",
    );
    r.timing("lmc.completion", &lmc.completion_s, 1e6, "us");
    r.timing("ledger.probe", &probe_s, 1e6, "us");
    r.timing("ledger.insert_remove", &insert_remove_s, 1e6, "us");

    r.metric("service.submit_us", mean(&submit_s) * 1e6, "us");
    r.metric("service.drain_s", median(&drain_s), "s");
    r.metric(
        "worker.overhead_s",
        median(&drain_s) - median(&exec_run_s),
        "s",
    );
    r.metric("executor.run_s", median(&exec_run_s), "s");
    r.metric("executor.self_s", median(&exec_self_s), "s");
    r.metric(
        "executor.dispatches",
        exec.commands.dispatches as f64,
        "count",
    );
    r.metric("executor.preempts", exec.commands.preempts as f64, "count");
    r.metric(
        "executor.rate_changes",
        exec.commands.rate_changes as f64,
        "count",
    );
    r.metric("sim.run_s", median(&sim_s), "s");
    r.metric(
        "lmc.arrival_interactive_us",
        mean(&lmc.arrival_interactive_s) * 1e6,
        "us",
    );
    r.metric(
        "lmc.arrival_noninteractive_us",
        mean(&lmc.arrival_noninteractive_s) * 1e6,
        "us",
    );
    r.metric("lmc.completion_us", mean(&lmc.completion_s) * 1e6, "us");
    r.metric(
        "lmc.arrivals_interactive",
        lmc.arrival_interactive_s.len() as f64,
        "count",
    );
    r.metric(
        "lmc.arrivals_noninteractive",
        lmc.arrival_noninteractive_s.len() as f64,
        "count",
    );
    r.metric("lmc.completions", lmc.completion_s.len() as f64, "count");
    r.metric("lmc.queue_depth_p50", depth, "tasks");
    r.metric("ledger.probe_us", mean(&probe_s) * 1e6, "us");
    r.metric(
        "ledger.insert_remove_us",
        mean(&insert_remove_s) * 1e6,
        "us",
    );
    let probes_s = mean(&probe_s) * lmc.arrival_noninteractive_s.len() as f64 * CORES as f64;
    r.note(format!(
        "attribution: ledger.probe_us x non-interactive arrivals x {CORES} cores = {probes_s:.4} s \
         = {:.1}% of executor.run_s",
        100.0 * probes_s / median(&exec_run_s)
    ));
    r.metric(
        "overhead.tasks_per_s",
        median(&plain_s) / median(&traced_s),
        "ratio",
    );

    // Wire layers: per rate, an untraced phase and a traced one.
    let mut lines = Vec::new();
    let mut acks = Vec::new();
    let mut encode_s = Vec::new();
    let mut late_s = Vec::new();
    let mut residual_r5k = 0.0;
    let mut known_high = (0.0, false);
    let phase_s = (0.06 * args.seconds).max(1.0);
    for (k, &(rate, tag)) in RATES.iter().enumerate() {
        let plain = wire.phase(r, rate, 2 * k, phase_s, false)?;
        let mut traced = wire.phase(r, rate, 2 * k + 1, phase_s, true)?;
        known_high = (rate, plain.phase.passes());
        for run in [&plain, &traced] {
            r.ops(run.phase.sent, run.phase.failures());
        }
        // Client-side figures from the untraced phase; the server's stage
        // means and the residual from the traced one, which read health.
        let acked = &plain.phase.ack_s;
        let (before, after) = traced.stages.take().expect("traced phases read health");
        let stage = |name: &str| after.mean_since(&before, name) * 1e6;
        let (frame, admit) = (stage("stage_frame_s"), stage("stage_admit_s"));
        let residual = mean(&traced.phase.ack_s) * 1e6 - frame - admit;
        if k == 0 {
            residual_r5k = residual;
        }
        r.timing(&format!("ack_ms.{tag}"), acked, 1e3, "ms");
        r.metric(&format!("server.frame_us.{tag}"), frame, "us");
        r.metric(&format!("server.admit_us.{tag}"), admit, "us");
        r.metric(
            &format!("server.queue_us.{tag}"),
            stage("stage_queue_s"),
            "us",
        );
        r.metric(
            &format!("server.e2e_us.{tag}"),
            stage("request_e2e_s"),
            "us",
        );
        r.metric(&format!("wire.residual_us.{tag}"), residual, "us");
        let mut sorted = acked.clone();
        sorted.sort_by(f64::total_cmp);
        r.metric(
            &format!("loadgen.ack_p50_ms.{tag}"),
            median(acked) * 1e3,
            "ms",
        );
        r.metric(
            &format!("loadgen.ack_p99_ms.{tag}"),
            quantile(&sorted, 0.99).unwrap_or(0.0) * 1e3,
            "ms",
        );
        r.metric(
            &format!("loadgen.ack_samples.{tag}"),
            acked.len() as f64,
            "count",
        );
        r.metric(
            &format!("overhead.ack_p50_ms.{tag}"),
            median(&traced.phase.ack_s) / median(acked),
            "ratio",
        );
        if let Some(note) = traced.reactor.take() {
            r.note(format!("reactor {tag}: {note}"));
        }
        late_s.extend_from_slice(&plain.phase.late_s);
        encode_s.extend_from_slice(&traced.phase.encode_s);
        lines.extend(traced.phase.lines);
        acks.extend(traced.phase.acks);
    }
    // The capacity knee, from the higher fixed rate's result up (or down).
    let probe_s = (0.05 * args.seconds).max(1.0);
    let left = args.seconds - start.elapsed().as_secs_f64();
    let max_probes = ((left / (probe_s + 0.3)) as usize).max(3);
    let mut probe_err = None;
    let mut k = 2 * RATES.len();
    let knee = wire::find_knee(known_high, KNEE_RESOLUTION, max_probes, |rate| {
        k += 1;
        wire.phase(r, rate, k, probe_s, false)
            .map(|run| run.phase.passes())
            .unwrap_or_else(|e| {
                probe_err.get_or_insert(e);
                false
            })
    });
    if let Some(e) = probe_err {
        return Err(e);
    }
    r.note(format!("capacity probes (rate, passed): {:?}", knee.probes));
    r.metric("loadgen.max_rate_rps", knee.rate, "1/s");

    let parse_s = layers::parse_samples(&lines);
    let reply_s = layers::reply_encode_samples(&acks);
    let (reads_s, framed) = layers::framer_samples(&lines);
    r.timing("protocol.parse", &parse_s, 1e6, "us");
    r.timing("protocol.reply_encode", &reply_s, 1e6, "us");
    r.timing("protocol.encode_submit", &encode_s, 1e6, "us");
    r.timing("net.framer_read_4k", &reads_s, 1e6, "us");
    r.timing("loadgen.late", &late_s, 1e3, "ms");
    let (parse, reply, encode) = (
        mean(&parse_s) * 1e6,
        mean(&reply_s) * 1e6,
        mean(&encode_s) * 1e6,
    );
    r.metric("protocol.parse_us", parse, "us");
    r.metric("protocol.reply_encode_us", reply, "us");
    r.metric("protocol.encode_submit_us", encode, "us");
    r.metric(
        "net.framer_us",
        reads_s.iter().sum::<f64>() / framed.max(1) as f64 * 1e6,
        "us",
    );
    let mut late_sorted = late_s;
    late_sorted.sort_by(f64::total_cmp);
    r.metric(
        "loadgen.late_p99_ms",
        quantile(&late_sorted, 0.99).unwrap_or(0.0) * 1e3,
        "ms",
    );
    r.note(format!(
        "attribution r5k: protocol (parse+reply+encode) {:.2} us + wire.residual {residual_r5k:.2} us",
        parse + reply + encode
    ));
    Ok(())
}

/// The wire half of a run: where the server listens, how fast it
/// paces, and what it is offered.
struct WireRun {
    path: PathBuf,
    speed: f64,
    parts: Vec<(u64, TaskClass)>,
    seed: u64,
}

/// One phase on a fresh server.
struct PhaseRun {
    phase: Phase,
    /// Stage totals before and after the phase (traced phases).
    stages: Option<(StageTotals, StageTotals)>,
    /// Reactor loop summary (traced phases on the reactor backend).
    reactor: Option<String>,
}

impl WireRun {
    /// Drive `rate` for `seconds` on a fresh server. Checks that every
    /// reply decoded and was accounted for, and that the closing drain
    /// completed every admitted task.
    fn phase(
        &self,
        r: &mut Report,
        rate: f64,
        k: usize,
        seconds: f64,
        traced: bool,
    ) -> Result<PhaseRun, String> {
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64) << 32 ^ rate as u64;
        let items: Vec<Item> = wire::schedule(seed, rate, seconds, &self.parts);
        let tail = (seconds / 2.0).min(1.0);
        let io = |e: std::io::Error| format!("wire phase at {rate}/s: {e}");
        let paced = SchedulerConfig {
            mode: Mode::Paced { speed: self.speed },
            ..SchedulerConfig::default()
        };
        let (mut server, _) = WireServer::start(&self.path, paced).map_err(io)?;
        let before = if traced {
            Some(server.stage_totals().map_err(io)?)
        } else {
            None
        };
        let phase = wire::drive(server.stream(), &items, tail, traced).map_err(io)?;
        let stages = match before {
            Some(b) => Some((b, server.stage_totals().map_err(io)?)),
            None => None,
        };
        let reactor = if traced && NetBackend::from_env() == NetBackend::Reactor {
            Some(server.reactor_summary().map_err(io)?)
        } else {
            None
        };
        let drained = server.drain().map_err(io)?;
        server.finish();
        check_replies(r, &phase);
        r.check(
            "closing drain completes every admitted task",
            match drained.field("completed").and_then(value_u64) {
                Some(c) if c == phase.ok => Ok(()),
                _ => Err(format!(
                    "{rate}/s: admitted {}, drain replied {}",
                    phase.ok,
                    drained.encode()
                )),
            },
        );
        Ok(PhaseRun {
            phase,
            stages,
            reactor,
        })
    }

    /// Replay `head` over the wire: a fresh replay-mode server (1 shard,
    /// 4 cores, queue sized to hold the trace) gets every submit with
    /// its id and arrival in one pipelined burst on one connection, then
    /// `drain`. Checks the drain bit for bit against `reference`.
    /// `ready` runs once the server is up, before the timed replay.
    /// Returns the set-up time and the wall time from the first submit
    /// to the drain's reply, in seconds.
    fn replay(
        &self,
        r: &mut Report,
        head: &[Task],
        reference: &Outcome,
        ready: impl FnOnce(),
    ) -> Result<(f64, f64), String> {
        let io = |e: std::io::Error| format!("wire replay: {e}");
        let items = wire::burst(head);
        let cfg = replay::service_config(head.len());
        let (mut server, setup_s) = WireServer::start(&self.path, cfg).map_err(io)?;
        ready();
        let t0 = Instant::now();
        let phase = wire::drive(server.stream(), &items, 0.0, false).map_err(io)?;
        let drained = server.drain().map_err(io)?;
        let wall_s = t0.elapsed().as_secs_f64();
        server.finish();
        r.ops(phase.sent, phase.failures());
        check_replies(r, &phase);
        check_round(
            r,
            "wire replay drain vs simulator",
            reference,
            &Outcome::from_drain(&drained),
            head.len(),
        );
        Ok((setup_s, wall_s))
    }
}

/// Every reply decoded, and every submit got one.
fn check_replies(r: &mut Report, phase: &Phase) {
    r.check(
        "every reply decodes and is accounted for",
        if phase.undecodable == 0 && phase.unanswered == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} undecodable, {} unanswered of {}",
                phase.undecodable, phase.unanswered, phase.sent
            ))
        },
    );
}
