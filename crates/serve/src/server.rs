//! The connection-handling daemon.
//!
//! Two interchangeable wire front-ends behind one `Listener`-level
//! seam, selected by [`ServerConfig::net`]:
//!
//! - **`threads`** (default): one accept loop (Unix-domain socket or
//!   TCP), one thread per connection.
//! - **`reactor`**: the `dvfs-net` single-threaded epoll mini-reactor,
//!   multiplexing tens of thousands of connections on one thread.
//!
//! Both feed the same [`Scheduler`] through the same line pipeline:
//! `dvfs-net`'s incremental [`LineFramer`] splits the byte stream,
//! every complete line of a read is parsed once and handled as one
//! batch (`handle_requests`, which folds consecutive submits into a
//! single `Scheduler::submit_many` admission call), and both shed connections
//! over [`ServerConfig::max_connections`] at accept time with the
//! explicit `overloaded` wire response. A malformed line produces a
//! `bad_request` response and the connection continues — client input
//! can never crash the server. Shutdown (wire `shutdown` command or
//! [`ServerHandle::shutdown`]) drains the scheduler backlog, flushes a
//! final metrics snapshot, and joins every thread before
//! [`ServerHandle::wait`] returns.
//!
//! The reactor exports its own registry series: `net_connections_open`
//! / `net_connections_peak` gauges, `net_accepts` / `net_accepts_shed`
//! / `net_wakeups` / `net_wait_micros` / `net_work_micros` /
//! `net_backpressure_stalls` / `net_backpressure_stall_micros`
//! counters, and `net_batch_lines` / `net_events_per_wakeup`
//! histograms. A supervisor thread samples the shard workers'
//! heartbeats every `STALL_POLL` and flags workers that sit on an
//! outstanding command past `STALL_AFTER` (`worker_stalled`
//! episodes, the `degraded` gauge) — all snapshotted by the `health`
//! wire command, which is served inline on the reactor fast path.
//! Reactor lifecycle deliberately records **no** trace events: the
//! lifecycle trace schema is pinned by the byte-identical replay
//! contract, and connection-level visibility belongs to metrics (and
//! the Perfetto counter tracks built from them at export time).

use crate::metrics::Registry;
use crate::protocol::{parse_request, ErrorKind, Request, Response};
use crate::service::{Mode, Scheduler, SchedulerConfig, SubmitItem};
use crate::snapshot::SnapshotWriter;
use crate::stage::StageClock;
use dvfs_net::framing::{Frame, LineFramer};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request-line byte budget, shared by both wire front-ends.
pub const MAX_LINE_BYTES: usize = dvfs_net::DEFAULT_MAX_LINE;

/// Default open-connection budget (per server, either backend).
pub const DEFAULT_MAX_CONNECTIONS: usize = 10_240;

/// Which wire front-end accepts and serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetBackend {
    /// One blocking thread per connection (the default).
    #[default]
    Threads,
    /// The `dvfs-net` epoll mini-reactor: every connection on one
    /// thread.
    Reactor,
}

impl NetBackend {
    /// Resolve the backend from `DVFS_SERVE_NET` (`reactor` or
    /// `threads`); anything else — including unset — is `Threads`.
    /// This is the seam the CI sweep drives `tests/serve_e2e.rs`
    /// through unmodified against both backends.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("DVFS_SERVE_NET").as_deref() {
            Ok("reactor") => NetBackend::Reactor,
            _ => NetBackend::Threads,
        }
    }

    /// The CLI/config spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetBackend::Threads => "threads",
            NetBackend::Reactor => "reactor",
        }
    }
}

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (removed on bind and on
    /// shutdown).
    Unix(PathBuf),
    /// A TCP bind address, e.g. `127.0.0.1:7077`.
    Tcp(String),
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Scheduler parameters (cores, cost weights, mode, queue bound).
    pub scheduler: SchedulerConfig,
    /// Paced-mode tick interval.
    pub tick: Duration,
    /// Snapshot file (JSONL); `None` disables snapshots.
    pub snapshot_path: Option<PathBuf>,
    /// How often to append a metrics snapshot line.
    pub snapshot_period: Duration,
    /// Lifecycle-trace file (JSONL); append-only behind a written-lines
    /// cursor, caught up on every drain, trace fetch, `trace_stream`
    /// chunk, and shutdown — so the file holds the full stream even
    /// when `trace_stream` has already forgotten early chunks
    /// server-side. Requires `scheduler.trace_capacity > 0` to record
    /// anything.
    pub trace_out: Option<PathBuf>,
    /// Wire front-end ([`NetBackend::from_env`] by default).
    pub net: NetBackend,
    /// Open-connection budget; accepts beyond it are shed with the
    /// explicit `overloaded` wire response and closed.
    pub max_connections: usize,
}

impl ServerConfig {
    /// Defaults around an endpoint: 4 cores, replay mode, 1024-slot
    /// queue, 10 ms ticks, 1 s snapshots (disabled without a path),
    /// wire front-end from `DVFS_SERVE_NET` (threads unless set to
    /// `reactor`).
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            scheduler: SchedulerConfig::default(),
            tick: Duration::from_millis(10),
            snapshot_path: None,
            snapshot_period: Duration::from_secs(1),
            trace_out: None,
            net: NetBackend::from_env(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

struct Shared {
    scheduler: Scheduler,
    metrics: Arc<Registry>,
    snapshot: Option<SnapshotWriter>,
    trace_out: Option<PathBuf>,
    /// Lines already appended to the trace file — the append cursor.
    /// Its mutex also serializes every trace-file write, and a
    /// `trace_stream` holds it across take-and-append so the file gains
    /// a chunk's lines *before* the scheduler forgets them: the file
    /// cursor never falls behind the stream cursor, whatever the
    /// interleaving. (Lock order is always file cursor → drained
    /// trace.)
    trace_written: Mutex<u64>,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    fn write_snapshot(&self) {
        if let Some(snap) = &self.snapshot {
            let uptime = self.started.elapsed().as_secs_f64();
            let sim_now = match self.scheduler.stats() {
                Response::Ok(ref fields) => fields
                    .iter()
                    .find(|(k, _)| k == "sim_now_s")
                    .and_then(|(_, v)| crate::protocol::value_f64(v))
                    .unwrap_or(0.0),
                Response::Err { .. } => 0.0,
            };
            if snap.write_metrics(uptime, sim_now, &self.metrics).is_err() {
                self.metrics.counter("snapshot_errors").inc();
            }
        }
    }

    /// Catch the trace file up to everything recorded so far. The file
    /// is append-only behind the `trace_written` cursor: the first
    /// flush truncates any stale file from a previous run, and every
    /// flush appends exactly the lines past the cursor, so the file
    /// always holds the full stream — streamed-and-forgotten chunks
    /// first, then what a wire `trace` response still carries — byte
    /// for byte.
    fn flush_trace(&self) {
        if self.trace_out.is_none() || !self.scheduler.trace_enabled() {
            return;
        }
        let mut written = self
            .trace_written
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (lines, first_abs) = self.scheduler.trace_lines_absolute();
        self.append_trace_lines(&mut written, first_abs, &lines);
    }

    /// Handle a `trace_stream` request: take one chunk, append it to
    /// the trace file (cursor lock held across both, so the chunk is
    /// durable before the scheduler forgets it), and encode the wire
    /// response.
    fn trace_stream(&self) -> Response {
        if !self.scheduler.trace_enabled() {
            return self.scheduler.trace_stream_run();
        }
        let mut written = self
            .trace_written
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let chunk = self.scheduler.trace_stream_take();
        self.append_trace_lines(&mut written, chunk.forgotten_before, &chunk.lines);
        Scheduler::stream_response(chunk)
    }

    /// Append every line whose absolute stream index is at or past the
    /// cursor (`first_abs` is `lines[0]`'s index), advancing the cursor
    /// on success. Called with the cursor lock held. A failed write
    /// leaves the cursor untouched and bumps `trace_write_errors`; the
    /// next flush retries the same span if it is still retained.
    fn append_trace_lines(&self, written: &mut u64, first_abs: u64, lines: &[String]) {
        let Some(path) = &self.trace_out else { return };
        let skip = usize::try_from(written.saturating_sub(first_abs)).unwrap_or(usize::MAX);
        let fresh = lines.get(skip..).unwrap_or(&[]);
        let file = if *written == 0 {
            std::fs::File::create(path)
        } else if fresh.is_empty() {
            return; // nothing new and the file already exists
        } else {
            std::fs::OpenOptions::new().append(true).open(path)
        };
        let mut body = String::with_capacity(fresh.iter().map(|l| l.len() + 1).sum());
        for l in fresh {
            body.push_str(l);
            body.push('\n');
        }
        let ok = match file {
            Ok(mut f) => f.write_all(body.as_bytes()).is_ok(),
            Err(_) => false,
        };
        if ok {
            *written += fresh.len() as u64;
        } else {
            self.metrics.counter("trace_write_errors").inc();
        }
    }
}

/// How often the supervisor thread samples the worker heartbeats.
const STALL_POLL: Duration = Duration::from_millis(200);
/// How long a worker may sit on an outstanding command without
/// progress before it is declared stalled.
const STALL_AFTER: Duration = Duration::from_secs(5);

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept_thread: Option<JoinHandle<()>>,
    ticker_thread: Option<JoinHandle<()>>,
    supervisor_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint the server is bound to (for TCP with port 0, the
    /// resolved address).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Request shutdown programmatically (same path as the wire
    /// command).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Block until the server has fully shut down (all threads joined,
    /// final snapshot flushed).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.ticker_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.supervisor_thread.take() {
            let _ = t.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn begin_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.scheduler.begin_shutdown();
    shared.write_snapshot();
    shared.flush_trace();
}

/// Bind and serve. Returns once the listener is accepting, leaving the
/// accept loop, connection handlers, and (in paced mode) the ticker on
/// background threads.
///
/// # Errors
/// Propagates bind and snapshot-file failures.
pub fn serve(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let metrics = Arc::new(Registry::new());
    let scheduler = Scheduler::new(cfg.scheduler, Arc::clone(&metrics));
    let snapshot = match &cfg.snapshot_path {
        Some(path) => {
            let writer = SnapshotWriter::create(path)?;
            // Lead the file with the configuration in force, so a
            // snapshot is interpretable without the launch command.
            writer.write_config(
                scheduler.shard_count(),
                cfg.scheduler.cores,
                cfg.scheduler.queue_capacity,
                match cfg.scheduler.mode {
                    Mode::Replay => "replay",
                    Mode::Paced { .. } => "paced",
                },
            )?;
            Some(writer)
        }
        None => None,
    };

    let (listener, endpoint) = match &cfg.endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a crashed run would fail the
            // bind; remove it first.
            let _ = std::fs::remove_file(path);
            (
                Listener::Unix(UnixListener::bind(path)?),
                Endpoint::Unix(path.clone()),
            )
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            let resolved = l.local_addr()?.to_string();
            (Listener::Tcp(l), Endpoint::Tcp(resolved))
        }
    };

    let shared = Arc::new(Shared {
        scheduler,
        metrics,
        snapshot,
        trace_out: cfg.trace_out.clone(),
        trace_written: Mutex::new(0),
        shutdown: AtomicBool::new(false),
        started: crate::clock::wall_now(),
    });
    shared.scheduler.start_clock();

    let ticker_thread = match cfg.scheduler.mode {
        Mode::Paced { .. } => {
            let shared = Arc::clone(&shared);
            let tick = cfg.tick;
            let period = cfg.snapshot_period;
            Some(std::thread::spawn(move || {
                let mut last_snapshot = crate::clock::wall_now();
                while !shared.shutdown.load(Ordering::SeqCst) {
                    shared.scheduler.wait_for_work(tick);
                    shared.scheduler.tick();
                    if last_snapshot.elapsed() >= period {
                        shared.write_snapshot();
                        last_snapshot = crate::clock::wall_now();
                    }
                }
            }))
        }
        Mode::Replay => None,
    };

    // The stall supervisor: turns stale worker heartbeats into
    // `worker_stalled` episodes and the `degraded` flag. Reads only
    // lock-free heartbeat slots, so a wedged worker cannot wedge it.
    let supervisor_thread = {
        let shared = Arc::clone(&shared);
        Some(std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                shared.scheduler.check_stalls(STALL_AFTER);
                std::thread::sleep(STALL_POLL);
            }
        }))
    };

    let accept_thread = {
        let shared = Arc::clone(&shared);
        let net = cfg.net;
        let max_connections = cfg.max_connections.max(1);
        Some(std::thread::spawn(move || match net {
            NetBackend::Threads => accept_loop(&listener, &shared, max_connections),
            NetBackend::Reactor => reactor_loop(&listener, &shared, max_connections),
        }))
    };

    Ok(ServerHandle {
        shared,
        endpoint,
        accept_thread,
        ticker_thread,
        supervisor_thread,
    })
}

/// Decrements the open-connection count when a handler thread exits,
/// however it exits.
struct ConnGuard {
    open: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }
}

fn set_listener_nonblocking(listener: &Listener, shared: &Shared) -> bool {
    let nonblocking = match listener {
        Listener::Unix(l) => l.set_nonblocking(true),
        Listener::Tcp(l) => l.set_nonblocking(true),
    };
    if let Err(e) = nonblocking {
        // Both front-ends poll the shutdown flag between accepts, which
        // needs nonblocking accepts; a blocking listener would wedge
        // shutdown forever, so refuse to serve instead of panicking.
        shared.metrics.counter("accept_errors").inc();
        eprintln!("dvfs-serve: cannot set listener nonblocking ({e}); refusing connections");
        return false;
    }
    true
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>, max_connections: usize) {
    if !set_listener_nonblocking(listener, shared) {
        return;
    }
    let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    let open = Arc::new(AtomicUsize::new(0));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let accepted = match listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match accepted {
            Ok(mut stream) => {
                if open.load(Ordering::SeqCst) >= max_connections {
                    // Shed at the door with the explicit wire response,
                    // mirroring the reactor's budget.
                    shared.metrics.counter("net_accepts_shed").inc();
                    let _ = writeln!(stream, "{}", shed_response(max_connections));
                    continue; // stream drops: connection closed
                }
                open.fetch_add(1, Ordering::SeqCst);
                shared.metrics.counter("connections").inc();
                let guard = ConnGuard {
                    open: Arc::clone(&open),
                };
                let shared = Arc::clone(shared);
                let h = std::thread::spawn(move || handle_connection(stream, &shared, guard));
                handlers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(h);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    for h in handlers
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        let _ = h.join();
    }
}

/// Run the `dvfs-net` mini-reactor over the bound listener: the other
/// side of the front-end seam. Occupies the same accept-thread slot as
/// [`accept_loop`]; protocol logic is shared via [`handle_requests`].
fn reactor_loop(listener: &Listener, shared: &Arc<Shared>, max_connections: usize) {
    if !set_listener_nonblocking(listener, shared) {
        return;
    }
    let fd = match listener {
        Listener::Unix(l) => l.as_raw_fd(),
        Listener::Tcp(l) => l.as_raw_fd(),
    };
    let cfg = dvfs_net::ReactorConfig {
        max_connections,
        max_line_bytes: MAX_LINE_BYTES,
        // The stop-flag polling cadence, matching the thread backend's
        // read-timeout granularity.
        poll_timeout_ms: 100,
    };
    // The slow-lane mailbox: at most one slow command is in flight per
    // connection, so the queue is bounded by the connection cap even
    // though the channel itself is unbounded.
    // dvfs-lint: allow(channel-protocol) slow lane bounded by the connection cap
    let (slow_tx, slow_rx) = std::sync::mpsc::channel();
    let mut handler = WireHandler {
        shared: Arc::clone(shared),
        max_connections,
        slow_tx,
        slow_rx: Some(slow_rx),
        slow_join: None,
    };
    let mut observer = MetricsObserver {
        metrics: Arc::clone(&shared.metrics),
        peak: 0,
    };
    if let Err(e) = dvfs_net::reactor::run(fd, &cfg, &mut handler, &mut observer) {
        shared.metrics.counter("accept_errors").inc();
        eprintln!("dvfs-serve: reactor front-end failed ({e})");
    }
    // Hang up the slow lane and wait for in-flight work (a shutdown
    // drain, a final snapshot) to finish before the accept-thread slot
    // is considered done.
    let WireHandler {
        slow_tx, slow_join, ..
    } = handler;
    // An explicit drop: `..` keeps unbound fields alive to the end of
    // scope, which would leave the channel open across the join below
    // and deadlock against the slow thread's `recv` loop.
    drop(slow_tx);
    if let Some(join) = slow_join {
        let _ = join.join();
    }
}

/// `dvfs-net` handler: the wire protocol over the shared scheduler.
///
/// Batches of pure wire-speed lines (submits, pings, malformed input)
/// are answered inline on the event loop — admission is a bounded
/// queue push, never a scheduling round. Anything that waits on the
/// shard workers (`drain`, `stats`, `trace`, `shutdown`) is deferred
/// whole to the slow-path thread, which injects the replies back into
/// the reactor through its [`dvfs_net::ReplyInjector`]; the event loop
/// keeps accepting and admitting while a round runs. While a
/// connection has a deferred batch outstanding, every later batch of
/// that connection takes the same FIFO lane so responses stay in
/// request order.
struct WireHandler {
    shared: Arc<Shared>,
    max_connections: usize,
    slow_tx: std::sync::mpsc::Sender<(u64, Instant, Vec<Parsed>)>,
    /// Receiver parked here until [`dvfs_net::Handler::on_start`]
    /// hands over the injector and the slow-path thread spawns.
    slow_rx: Option<std::sync::mpsc::Receiver<(u64, Instant, Vec<Parsed>)>>,
    slow_join: Option<JoinHandle<()>>,
}

/// One parsed request line: the request, or the parse error its
/// `bad_request` response carries.
type Parsed = Result<Request, String>;

/// Whether every request of the batch is answerable without waiting on
/// the shard workers: submits, pings, and `health` — which reads only
/// heartbeat slots and leaf-locked metrics — plus malformed lines,
/// which cost one error response. `drain`/`stats`/`trace`/
/// `trace_stream`/`shutdown` wait on worker replies or file writes —
/// those batches belong on the slow lane.
fn batch_is_fast(requests: &[Parsed]) -> bool {
    requests.iter().all(|req| {
        matches!(
            req,
            Ok(Request::Submit { .. } | Request::Ping | Request::Health) | Err(_)
        )
    })
}

impl dvfs_net::Handler for WireHandler {
    fn on_start(&mut self, injector: dvfs_net::ReplyInjector) {
        let Some(rx) = self.slow_rx.take() else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        self.slow_join = Some(std::thread::spawn(move || {
            while let Ok((token, recv, requests)) = rx.recv() {
                let (responses, shutdown) = handle_requests(requests, &shared, recv);
                // Inject before acting on a shutdown request: the ack
                // must be in the reactor's mailbox before the stop
                // flag is raised, so the final flush carries it out.
                injector.inject(token, responses);
                if shutdown {
                    begin_shutdown(&shared);
                }
            }
        }));
    }

    fn on_batch(
        &mut self,
        token: u64,
        pending: usize,
        lines: &[String],
        respond: &mut dyn FnMut(&str),
    ) -> usize {
        // The reactor calls straight out of its read loop, so "now" is
        // the wire-receive stamp for every line of the batch.
        let recv = crate::clock::wall_now();
        // Each line is parsed once; the parsed batch picks the lane and
        // is what either lane answers.
        let requests: Vec<Parsed> = lines.iter().map(|line| parse_request(line)).collect();
        if pending == 0 && batch_is_fast(&requests) {
            let (responses, _shutdown) = handle_requests(requests, &self.shared, recv);
            for r in &responses {
                respond(r);
            }
            return 0;
        }
        let requests = match self.slow_tx.send((token, recv, requests)) {
            Ok(()) => return 1,
            Err(std::sync::mpsc::SendError((_, _, requests))) => requests,
        };
        // Slow lane gone (only possible mid-teardown): answer inline
        // rather than drop the batch.
        let (responses, shutdown) = handle_requests(requests, &self.shared, recv);
        for r in &responses {
            respond(r);
        }
        if shutdown {
            begin_shutdown(&self.shared);
        }
        0
    }

    fn oversized_line(&mut self, len: usize) -> String {
        oversized_response(len, &self.shared)
    }

    fn shed_line(&mut self) -> String {
        shed_response(self.max_connections)
    }

    fn should_stop(&mut self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// `dvfs-net` observer: reactor telemetry into the shared registry.
struct MetricsObserver {
    metrics: Arc<Registry>,
    peak: usize,
}

impl dvfs_net::Observer for MetricsObserver {
    fn on_open(&mut self, open: usize) {
        self.metrics.counter("connections").inc();
        self.metrics.counter("net_accepts").inc();
        self.metrics
            .gauge("net_connections_open")
            .set(i64::try_from(open).unwrap_or(i64::MAX));
        if open > self.peak {
            self.peak = open;
            self.metrics
                .gauge("net_connections_peak")
                .set(i64::try_from(open).unwrap_or(i64::MAX));
        }
    }

    fn on_close(&mut self, open: usize) {
        self.metrics
            .gauge("net_connections_open")
            .set(i64::try_from(open).unwrap_or(i64::MAX));
    }

    fn on_accept_shed(&mut self) {
        self.metrics.counter("net_accepts_shed").inc();
    }

    fn on_batch_size(&mut self, lines: usize) {
        #[allow(clippy::cast_precision_loss)]
        self.metrics
            .histogram("net_batch_lines")
            .record(lines as f64);
    }

    fn on_wakeup(&mut self, events: usize) {
        self.metrics.counter("net_wakeups").inc();
        #[allow(clippy::cast_precision_loss)]
        self.metrics
            .histogram("net_events_per_wakeup")
            .record(events as f64);
    }

    fn on_loop_times(&mut self, wait_s: f64, work_s: f64) {
        self.metrics.counter("net_wait_micros").add(micros(wait_s));
        self.metrics.counter("net_work_micros").add(micros(work_s));
    }

    fn on_backpressure_stall(&mut self, stall_s: f64) {
        self.metrics.counter("net_backpressure_stalls").inc();
        self.metrics
            .counter("net_backpressure_stall_micros")
            .add(micros(stall_s));
    }

    fn on_oversized(&mut self) {
        // Counted where the response line is built (both backends).
    }
}

/// Non-negative seconds to whole microseconds for counter arithmetic.
fn micros(seconds: f64) -> u64 {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "observer durations are non-negative and far below u64 micros range"
    )]
    {
        (seconds.max(0.0) * 1e6).round() as u64
    }
}

fn dispatch(req: Request, shared: &Shared) -> (Response, bool) {
    match req {
        Request::Submit {
            id,
            cycles,
            class,
            arrival,
        } => (shared.scheduler.submit(id, cycles, class, arrival), false),
        Request::Stats => (shared.scheduler.stats(), false),
        Request::Drain => {
            let resp = shared.scheduler.drain_run();
            shared.write_snapshot();
            shared.flush_trace();
            (resp, false)
        }
        Request::Trace => {
            let resp = shared.scheduler.trace_run();
            shared.flush_trace();
            (resp, false)
        }
        Request::TraceStream => (shared.trace_stream(), false),
        Request::Health => (shared.scheduler.health(), false),
        Request::Ping => (Response::ok(), false),
        Request::Shutdown => (Response::ok(), true),
    }
}

/// The explicit shed response written to a connection refused by the
/// budget — the same `overloaded` error kind the admission queue uses.
fn shed_response(max_connections: usize) -> String {
    Response::err(
        ErrorKind::Overloaded,
        format!("connection budget exhausted ({max_connections} open connections)"),
    )
    .encode()
}

/// The response for a request line that blew the byte budget.
fn oversized_response(len: usize, shared: &Shared) -> String {
    shared.metrics.counter("oversized_lines").inc();
    Response::err(
        ErrorKind::BadRequest,
        format!("request line exceeds {MAX_LINE_BYTES} bytes ({len} read)"),
    )
    .encode()
}

/// Push the responses for a run of consecutive submit lines — one
/// `Scheduler::submit_many` admission call for the whole run. The
/// stage clock closes the frame seam here: the bytes were read at
/// `recv`, and parsing the run finished just before this call.
fn flush_submits(
    pending: &mut Vec<SubmitItem>,
    out: &mut Vec<String>,
    shared: &Shared,
    recv: Instant,
) {
    if pending.is_empty() {
        return;
    }
    for resp in shared
        .scheduler
        .submit_many_timed(pending, StageClock::framed_now(recv))
    {
        out.push(resp.encode());
    }
    pending.clear();
}

/// The request pipeline both front-ends share: one batch of parsed
/// request lines in, one response line per request line out, in order.
/// Consecutive submits are folded into a single admission call stamped
/// with `recv` (when the batch's bytes came off the wire); the `bool`
/// reports a shutdown request (remaining lines in the batch are not
/// processed, matching the thread backend's historical
/// respond-then-close behavior). The thread backend passes a lazy
/// parse of its lines, the reactor the batch it already parsed to pick
/// a lane — either way each line is parsed exactly once.
fn handle_requests(
    requests: impl IntoIterator<Item = Parsed>,
    shared: &Shared,
    recv: Instant,
) -> (Vec<String>, bool) {
    let requests = requests.into_iter();
    let mut out = Vec::with_capacity(requests.size_hint().0);
    let mut pending: Vec<SubmitItem> = Vec::new();
    let mut shutdown = false;
    for request in requests {
        match request {
            Ok(Request::Submit {
                id,
                cycles,
                class,
                arrival,
            }) => pending.push(SubmitItem {
                id,
                cycles,
                class,
                arrival,
            }),
            Ok(req) => {
                flush_submits(&mut pending, &mut out, shared, recv);
                let (resp, sd) = dispatch(req, shared);
                out.push(resp.encode());
                if sd {
                    shutdown = true;
                    break;
                }
            }
            Err(msg) => {
                flush_submits(&mut pending, &mut out, shared, recv);
                shared.metrics.counter("malformed_requests").inc();
                out.push(Response::err(ErrorKind::BadRequest, msg).encode());
            }
        }
    }
    flush_submits(&mut pending, &mut out, shared, recv);
    (out, shutdown)
}

/// Thread-backend line batch: parse each line as the pipeline reaches
/// it, so lines after a shutdown request are never parsed.
fn handle_lines(lines: &[String], shared: &Shared, recv: Instant) -> (Vec<String>, bool) {
    handle_requests(lines.iter().map(|line| parse_request(line)), shared, recv)
}

/// Thread-backend frame dispatch: split a read's frames into line
/// batches (through [`handle_lines`]) and oversized rejections,
/// preserving wire order. The reactor does the equivalent split inside
/// `dvfs-net` and funnels into the same two helpers.
fn frames_to_responses(
    frames: &mut Vec<Frame>,
    shared: &Shared,
    recv: Instant,
) -> (Vec<String>, bool) {
    let mut responses = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut shutdown = false;
    for frame in frames.drain(..) {
        match frame {
            Frame::Line(l) => lines.push(l),
            Frame::Oversized { len } => {
                let (mut rs, sd) = handle_lines(&lines, shared, recv);
                lines.clear();
                responses.append(&mut rs);
                if sd {
                    shutdown = true;
                    break;
                }
                responses.push(oversized_response(len, shared));
            }
        }
    }
    if !shutdown {
        let (mut rs, sd) = handle_lines(&lines, shared, recv);
        responses.append(&mut rs);
        shutdown = sd;
    }
    (responses, shutdown)
}

fn handle_connection(stream: Stream, shared: &Arc<Shared>, guard: ConnGuard) {
    let _guard = guard;
    // Poll the shutdown flag between reads so idle connections don't
    // pin the server open.
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(writer);
    let mut stream = stream;
    // The same incremental framer the reactor runs, so framing edge
    // cases (partial lines, oversized rejection, CRLF) behave
    // identically across backends.
    let mut framer = LineFramer::new(MAX_LINE_BYTES);
    let mut frames: Vec<Frame> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let recv = match stream.read(&mut buf) {
            Ok(0) => break, // client closed; a mid-line fragment owes no response
            Ok(n) => {
                // Stamp wire receive *after* the (possibly long) block
                // in `read`, so the frame stage measures framing and
                // parsing, not idle socket time.
                let recv = crate::clock::wall_now();
                framer.feed(buf.get(..n).unwrap_or(&[]), &mut frames);
                recv
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Timeout may fire mid-line; the framer keeps the
                // partial and we re-check the shutdown flag.
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if frames.is_empty() {
            continue;
        }
        let (responses, shutdown) = frames_to_responses(&mut frames, shared, recv);
        let mut ok = true;
        for r in &responses {
            if writeln!(writer, "{r}").is_err() {
                ok = false;
                break;
            }
        }
        if !ok || writer.flush().is_err() {
            break;
        }
        if shutdown {
            begin_shutdown(shared);
            break;
        }
    }
}
