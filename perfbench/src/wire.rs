//! The wire path: an open-loop generator on one connection to an
//! in-process paced server.
//!
//! A writer thread sends each submit when it falls due — batching every
//! line already due into one write, never waiting for replies — and a
//! reader thread matches the in-order acks back to their submits. Each
//! ack's latency runs from when its submit was *due*, not when it was
//! sent, so a stalled writer or server shows up as latency on every
//! later request instead of quietly lowering the offered load.

use dvfs_model::{Task, TaskClass};
use dvfs_serve::protocol::{encode_command, encode_submit, value_f64, value_u64};
use dvfs_serve::{
    serve, Endpoint, ErrorKind, Response, SchedulerConfig, ServerConfig, ServerHandle,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Latency limit on an ack, from its due time: one paced tick.
pub const LIMIT_S: f64 = 0.010;
/// Share of submits that must meet the limit (and share of the offered
/// rate the tail window's ack rate must reach) for a rate to pass.
pub const PASS_SHARE: f64 = 0.99;
/// Give up on outstanding acks after this long without a reply.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Lines the writer packs into one write at most.
const MAX_BATCH_BYTES: usize = 32 * 1024;

/// One scheduled submit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Seconds after the phase start at which the submit is due.
    pub due_s: f64,
    /// Explicit task id (replays), or `None` for auto-assignment.
    pub id: Option<u64>,
    /// Work in cycles.
    pub cycles: u64,
    /// Scheduling class.
    pub class: TaskClass,
    /// Explicit engine arrival (replays), or `None` to stamp on receipt.
    pub arrival: Option<f64>,
}

/// A trace as one pipelined burst: every submit due at once, with the
/// trace's ids and arrivals, for a replay-mode server.
#[must_use]
pub fn burst(trace: &[Task]) -> Vec<Item> {
    trace
        .iter()
        .map(|t| Item {
            due_s: 0.0,
            id: Some(t.id.0),
            cycles: t.cycles,
            class: t.class,
            arrival: Some(t.arrival),
        })
        .collect()
}

/// A Poisson schedule at `rate` per second for `seconds`, with sizes
/// and classes taken in order (cyclically) from `parts`.
#[must_use]
pub fn schedule(seed: u64, rate: f64, seconds: f64, parts: &[(u64, TaskClass)]) -> Vec<Item> {
    assert!(rate > 0.0 && !parts.is_empty());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = 0.0;
    loop {
        t += crate::workload::exp_draw(&mut rng, 1.0 / rate);
        if t >= seconds {
            return out;
        }
        let (cycles, class) = parts[out.len() % parts.len()];
        out.push(Item {
            due_s: t,
            id: None,
            cycles,
            class,
            arrival: None,
        });
    }
}

/// What driving one schedule produced.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Submits sent (the schedule's length).
    pub sent: u64,
    /// Acks `ok`.
    pub ok: u64,
    /// Acks `overloaded` (shed).
    pub overloaded: u64,
    /// Acks with any other error kind.
    pub other_err: u64,
    /// Replies that did not decode.
    pub undecodable: u64,
    /// Submits never answered.
    pub unanswered: u64,
    /// Due-to-ack latency of every `ok` ack, in seconds.
    pub ack_s: Vec<f64>,
    /// Send-minus-due lateness of every submit, in seconds.
    pub late_s: Vec<f64>,
    /// Submits due in the tail window.
    pub tail_offered: u64,
    /// `ok` acks received in the tail window.
    pub tail_acked: u64,
    /// Per-call `encode_submit` time in seconds (traced runs only).
    pub encode_s: Vec<f64>,
    /// The submit lines sent (traced runs only).
    pub lines: Vec<String>,
    /// The raw ack lines received (traced runs only).
    pub acks: Vec<String>,
}

impl Phase {
    /// Submits that failed: shed, errored, undecodable or unanswered.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.overloaded + self.other_err + self.undecodable + self.unanswered
    }

    /// `ok` acks within [`LIMIT_S`] of their due time.
    #[must_use]
    pub fn ok_within_limit(&self) -> u64 {
        self.ack_s.iter().filter(|&&s| s <= LIMIT_S).count() as u64
    }

    /// Whether the offered rate was served: at least [`PASS_SHARE`] of
    /// submits acked `ok` within the limit, and the tail window's ack
    /// rate at least [`PASS_SHARE`] of its offered rate (no growing
    /// backlog).
    #[must_use]
    pub fn passes(&self) -> bool {
        let share = |num: u64, den: u64| den == 0 || num as f64 >= PASS_SHARE * den as f64;
        share(self.ok_within_limit(), self.sent) && share(self.tail_acked, self.tail_offered)
    }
}

/// Shrink the calling thread's timer slack to 1 ns. Linux lets a sleep
/// overrun by the thread's slack, 50 µs by default: the generator's own
/// oversleep would otherwise be about half of the due-time ack latency
/// measured at 5k/s. Failure only leaves the default slack in place.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
    }
    const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // touches no memory of ours; it only sets this thread's slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
    }
}

/// Sleep until `at` (never spins: the generator shares the host's
/// cores with the server, and its lateness is measured, not hidden).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Drive `items` open-loop over `stream` and collect every ack. Acks
/// arriving in the last `tail_window_s` of the schedule count toward
/// the tail ack rate. `traced` also times every `encode_submit` call and
/// keeps the lines and acks for offline layer timing.
///
/// # Errors
/// Socket set-up and write failures. A reply that never comes is
/// counted as unanswered, not an error.
pub fn drive(
    stream: &UnixStream,
    items: &[Item],
    tail_window_s: f64,
    traced: bool,
) -> io::Result<Phase> {
    let mut write_half = stream.try_clone()?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(READ_TIMEOUT))?;
    let end_s = items.last().map_or(0.0, |i| i.due_s);
    let tail_from = end_s - tail_window_s;
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: &Item| start + Duration::from_secs_f64(i.due_s);

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<(Vec<f64>, Vec<f64>, Vec<String>)> {
            tighten_timer_slack();
            let mut late_s = Vec::with_capacity(items.len());
            let mut encode_s = Vec::new();
            let mut lines = Vec::new();
            let mut buf = Vec::with_capacity(MAX_BATCH_BYTES + 256);
            let mut next = 0;
            while next < items.len() {
                sleep_until(due(&items[next]));
                let now = Instant::now();
                let first = next;
                while next < items.len() && due(&items[next]) <= now && buf.len() < MAX_BATCH_BYTES
                {
                    let it = &items[next];
                    let e0 = traced.then(Instant::now);
                    let line = encode_submit(it.id, it.cycles, it.class, it.arrival);
                    if let Some(e0) = e0 {
                        encode_s.push(e0.elapsed().as_secs_f64());
                    }
                    buf.extend_from_slice(line.as_bytes());
                    buf.push(b'\n');
                    if traced {
                        lines.push(line);
                    }
                    next += 1;
                }
                write_half.write_all(&buf)?;
                buf.clear();
                let sent = Instant::now();
                late_s.extend(
                    items[first..next]
                        .iter()
                        .map(|it| sent.saturating_duration_since(due(it)).as_secs_f64()),
                );
            }
            Ok((late_s, encode_s, lines))
        });

        let mut phase = Phase {
            sent: items.len() as u64,
            ack_s: Vec::with_capacity(items.len()),
            tail_offered: items.iter().filter(|i| i.due_s >= tail_from).count() as u64,
            ..Phase::default()
        };
        let mut reader = BufReader::new(read_half);
        let mut line = String::new();
        for it in items {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            let recv = Instant::now();
            let reply = line.trim_end();
            match Response::decode(reply) {
                Ok(Response::Ok(_)) => {
                    phase.ok += 1;
                    phase
                        .ack_s
                        .push(recv.saturating_duration_since(due(it)).as_secs_f64());
                    let recv_s = recv.saturating_duration_since(start).as_secs_f64();
                    phase.tail_acked += u64::from(recv_s >= tail_from && recv_s <= end_s);
                }
                Ok(Response::Err {
                    kind: ErrorKind::Overloaded,
                    ..
                }) => phase.overloaded += 1,
                Ok(Response::Err { .. }) => phase.other_err += 1,
                Err(_) => phase.undecodable += 1,
            }
            if traced {
                phase.acks.push(reply.to_string());
            }
        }
        let answered = phase.ok + phase.overloaded + phase.other_err + phase.undecodable;
        phase.unanswered = phase.sent - answered;
        let (late_s, encode_s, lines) = writer.join().expect("writer thread panicked")?;
        phase.late_s = late_s;
        phase.encode_s = encode_s;
        phase.lines = lines;
        Ok(phase)
    })
}

/// Highest passing rate found by [`find_knee`], with every probe made.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// Highest rate that passed (0 when none did).
    pub rate: f64,
    /// `(rate, passed)` for each probe, in order.
    pub probes: Vec<(f64, bool)>,
}

/// Search for the highest rate at which `passes` holds, assuming it
/// holds below some knee and fails above it. Starting from a known
/// `(rate, passed)` result, double (or halve) until the knee is
/// bracketed, then bisect geometrically until the bracket's ratio is
/// within `1 + resolution` or `max_probes` probes are spent.
pub fn find_knee(
    known: (f64, bool),
    resolution: f64,
    max_probes: usize,
    mut passes: impl FnMut(f64) -> bool,
) -> Knee {
    let (mut lo, mut hi) = if known.1 {
        (Some(known.0), None)
    } else {
        (None, Some(known.0))
    };
    let mut probes = Vec::new();
    while probes.len() < max_probes {
        let rate = match (lo, hi) {
            (Some(l), None) => l * 2.0,
            (None, Some(h)) => h / 2.0,
            (Some(l), Some(h)) if h / l > 1.0 + resolution => (l * h).sqrt(),
            _ => break,
        };
        let ok = passes(rate);
        probes.push((rate, ok));
        if ok {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
    }
    Knee {
        rate: lo.unwrap_or(0.0),
        probes,
    }
}

/// An in-process paced server and the benchmark's one connection to it.
pub struct WireServer {
    handle: ServerHandle,
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl WireServer {
    /// Start a server with `scheduler` on a Unix socket at `path` and
    /// the default `ServerConfig` otherwise, connect, and ping. Returns
    /// the server and the set-up time in seconds (`serve` returning plus
    /// the first ping round trip).
    ///
    /// # Errors
    /// Bind, connect and ping failures.
    pub fn start(path: &Path, scheduler: SchedulerConfig) -> io::Result<(Self, f64)> {
        let t0 = Instant::now();
        let mut cfg = ServerConfig::new(Endpoint::Unix(path.to_path_buf()));
        cfg.scheduler = scheduler;
        let handle = serve(cfg)?;
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut server = WireServer {
            handle,
            stream,
            reader,
        };
        let pong = server.round_trip(&encode_command("ping"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        if !pong.is_ok() {
            return Err(io::Error::other(format!("ping failed: {}", pong.encode())));
        }
        Ok((server, setup_s))
    }

    /// The connection, for [`drive`].
    #[must_use]
    pub fn stream(&self) -> &UnixStream {
        &self.stream
    }

    /// One request line, one reply.
    ///
    /// # Errors
    /// Socket failures and undecodable replies.
    pub fn round_trip(&mut self, line: &str) -> io::Result<Response> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Response::decode(reply.trim_end()).map_err(io::Error::other)
    }

    /// Cumulative `(count, sum)` of each stage histogram, from `health`.
    ///
    /// # Errors
    /// Socket failures, or a `health` reply without the stage section.
    pub fn stage_totals(&mut self) -> io::Result<StageTotals> {
        let resp = self.round_trip(&encode_command("health"))?;
        StageTotals::from_health(&resp).ok_or_else(|| io::Error::other("health lacks `stages`"))
    }

    /// `net.batch_lines_mean` and `net.work_frac` from `health`'s
    /// reactor section (zeros unless the reactor backend serves).
    ///
    /// # Errors
    /// Socket failures.
    pub fn reactor_summary(&mut self) -> io::Result<String> {
        let resp = self.round_trip(&encode_command("health"))?;
        let reactor = resp.field("reactor");
        let get = |k: &str| reactor.and_then(|r| r.get(k));
        let wait = get("wait_micros").and_then(value_u64).unwrap_or(0) as f64;
        let work = get("work_micros").and_then(value_u64).unwrap_or(0) as f64;
        let batch = get("batch_lines");
        let count = batch
            .and_then(|b| b.get("count"))
            .and_then(value_u64)
            .unwrap_or(0);
        let sum = batch
            .and_then(|b| b.get("sum"))
            .and_then(value_f64)
            .unwrap_or(0.0);
        Ok(format!(
            "net.batch_lines_mean={} net.work_frac={}",
            sum / count.max(1) as f64,
            work / (wait + work).max(1.0)
        ))
    }

    /// Run the round to completion: the `drain` reply.
    ///
    /// # Errors
    /// Socket failures and undecodable replies.
    pub fn drain(&mut self) -> io::Result<Response> {
        self.round_trip(&encode_command("drain"))
    }

    /// Shut the server down and wait for it.
    pub fn finish(mut self) {
        let _ = self.round_trip(&encode_command("shutdown"));
        let WireServer {
            handle,
            stream,
            reader,
        } = self;
        drop(reader);
        drop(stream);
        handle.wait();
    }
}

/// Cumulative stage-histogram totals read from a `health` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTotals(pub Vec<(String, u64, f64)>);

impl StageTotals {
    fn from_health(resp: &Response) -> Option<Self> {
        let stages = resp.field("stages")?.as_object()?;
        Some(StageTotals(
            stages
                .iter()
                .map(|(name, h)| {
                    let count = h.get("count").and_then(value_u64).unwrap_or(0);
                    let sum = h.get("sum").and_then(value_f64).unwrap_or(0.0);
                    (name.clone(), count, sum)
                })
                .collect(),
        ))
    }

    /// Mean of stage `name` between `before` and `self`, in seconds (0
    /// when nothing was recorded).
    #[must_use]
    pub fn mean_since(&self, before: &StageTotals, name: &str) -> f64 {
        let find = |t: &StageTotals| {
            t.0.iter()
                .find(|(n, _, _)| n == name)
                .map_or((0, 0.0), |&(_, c, s)| (c, s))
        };
        let (c1, s1) = find(self);
        let (c0, s0) = find(before);
        let n = c1.saturating_sub(c0);
        if n == 0 {
            0.0
        } else {
            (s1 - s0) / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARTS: [(u64, TaskClass); 2] = [
        (2_000_000, TaskClass::Interactive),
        (3_000_000, TaskClass::NonInteractive),
    ];

    #[test]
    fn schedule_is_seed_deterministic() {
        let a = schedule(7, 1_000.0, 2.0, &PARTS);
        assert_eq!(a, schedule(7, 1_000.0, 2.0, &PARTS));
        assert_ne!(a, schedule(8, 1_000.0, 2.0, &PARTS));
        // Poisson at 1000/s for 2 s: 2000 ± a few sigma.
        assert!((1_850..2_150).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.last().unwrap().due_s < 2.0);
        assert_eq!(a[0].class, TaskClass::Interactive);
        assert_eq!(a[1].class, TaskClass::NonInteractive);
    }

    /// A fake server on the other end of a socket pair: acks every line
    /// `ok`, but stops reading for `stall` after line `stall_after`.
    fn fake_server(
        peer: UnixStream,
        stall_after: usize,
        stall: Duration,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut out = peer.try_clone().expect("clone");
            let reader = BufReader::new(peer);
            for (k, line) in reader.lines().enumerate() {
                if line.is_err() {
                    return;
                }
                if k == stall_after {
                    std::thread::sleep(stall);
                }
                if out.write_all(b"{\"ok\":true}\n").is_err() {
                    return;
                }
            }
        })
    }

    #[test]
    fn a_stalled_reader_shows_up_as_due_time_latency_on_later_acks() {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let stall = Duration::from_millis(150);
        let items = schedule(1, 2_000.0, 0.5, &PARTS);
        let stall_after = items.len() / 4;
        let server = fake_server(theirs, stall_after, stall);
        let phase = drive(&ours, &items, 0.1, false).expect("drive");
        drop(ours);
        server.join().expect("fake server");

        assert_eq!(phase.ok, phase.sent);
        assert_eq!(phase.failures(), 0);
        // The submit right after the stall point waited out the stall...
        let stalled = phase.ack_s[stall_after];
        assert!(stalled >= 0.9 * stall.as_secs_f64(), "{stalled}");
        // ...and so did every submit that fell due during the stall,
        // even though the generator sent each of them on time: their
        // latency is the time left in the stall when they fell due.
        let stall_start = items[stall_after].due_s;
        for (it, &lat) in items.iter().zip(&phase.ack_s).skip(stall_after) {
            let left = stall_start + stall.as_secs_f64() - it.due_s;
            if left > 0.02 {
                assert!(
                    lat >= left - 0.02,
                    "due {} waited {lat}, stall left {left}",
                    it.due_s
                );
            }
        }
        // Before the stall the fake server answers promptly.
        assert!(phase.ack_s[..stall_after / 2].iter().all(|&s| s < 0.1));
        assert!(!phase.passes(), "a 150 ms stall must fail the 10 ms limit");
    }

    #[test]
    fn knee_search_finds_the_synthetic_knee() {
        for knee in [12_345.0, 67_300.0, 70_000.0, 150_000.0] {
            for start in [(40_000.0, knee >= 40_000.0), (5_000.0, true)] {
                let res = find_knee(start, 0.03, 20, |r| r <= knee);
                assert!(res.rate <= knee, "{knee}: found {}", res.rate);
                assert!(
                    res.rate * 1.03 >= knee,
                    "{knee}: found {} too low",
                    res.rate
                );
                // Every probe answered truthfully.
                assert!(res.probes.iter().all(|&(r, ok)| ok == (r <= knee)));
            }
        }
        // Nothing passes: rate 0 after the probe budget.
        let none = find_knee((1_000.0, false), 0.03, 6, |_| false);
        assert_eq!(none.rate, 0.0);
        assert_eq!(none.probes.len(), 6);
    }

    #[test]
    fn stage_means_are_deltas() {
        let before = StageTotals(vec![("stage_admit_s".into(), 10, 0.5)]);
        let after = StageTotals(vec![("stage_admit_s".into(), 30, 1.5)]);
        assert!((after.mean_since(&before, "stage_admit_s") - 0.05).abs() < 1e-12);
        assert_eq!(after.mean_since(&before, "missing"), 0.0);
    }
}
