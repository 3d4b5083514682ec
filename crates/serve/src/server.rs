//! The daemon: worker pool, connection handling, admission control, and
//! graceful-drain lifecycle.
//!
//! # Threading model
//!
//! One fixed worker pool (size = `--jobs`) consumes a single bounded
//! queue. Each connection gets a *reader* (the thread that calls
//! [`ServerHandle::attach`]) and a spawned *writer*. The reader assigns
//! every request line a per-connection sequence number and sends cheap
//! replies (schema errors, pings, stats, backpressure) itself; analysis
//! jobs carry their sequence number through the queue and the worker
//! sends the reply. The writer holds a reorder buffer and emits strictly
//! by sequence number, so **replies leave a connection in request order**
//! no matter how the pool interleaves the work.
//!
//! # Fault fences
//!
//! Every job runs under `catch_unwind`. A poisoned netlist that panics
//! the analysis stack produces one `status: "error"` reply
//! (`code: "panic"`) and a fresh `SimWorkspace` for that worker; the
//! pool, the queue, and every other connection are untouched.
//!
//! # Drain
//!
//! Shutdown (SIGTERM, EOF, or [`ServerHandle::request_shutdown`]) stops
//! admission, then waits until the queue is empty, no job is running,
//! and every accepted request's reply has been handed to its connection
//! — only then do the workers exit. A client that disconnected early
//! cannot wedge the drain: undeliverable replies are counted as
//! delivered and dropped.

use crate::engine::{self, RequestTrace};
use crate::events::{EventLog, DEFAULT_EVENT_CAPACITY};
use crate::proto::{self, Request, RequestId};
use crate::queue::{Bounded, PushError};
use crate::signal;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread;
use std::time::{Duration, Instant};
use xtalk_exec::Jobs;
use xtalk_obs::WindowRing;
use xtalk_sim::SimWorkspace;

/// How often blocking socket reads wake up to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// How often the telemetry thread closes a window interval.
const TELEMETRY_INTERVAL: Duration = Duration::from_secs(1);

/// Closed intervals retained by the window ring (2 minutes of history).
const WINDOW_CAPACITY: usize = 120;

/// Intervals a `stats` reply aggregates over (~60 s plus the live
/// partial interval).
const STATS_WINDOW_INTERVALS: usize = 60;

/// Server tuning knobs, all with serviceable defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size.
    pub jobs: Jobs,
    /// Bounded queue capacity; beyond it requests are shed with
    /// `status: "overloaded"` backpressure replies.
    pub queue_capacity: usize,
    /// Maximum request line size in bytes; longer lines are discarded
    /// and answered with a `request_too_large` error.
    pub max_request_bytes: usize,
    /// Default per-request deadline budget (ms) applied when a request
    /// does not carry its own `deadline_ms`.
    pub default_deadline_ms: Option<f64>,
    /// Honor `{"type": "boom"}` requests that deliberately panic a
    /// worker — the fault-isolation test hook. Off in production.
    pub allow_test_faults: bool,
    /// Capacity of the in-memory request-event ring (JSONL lines);
    /// oldest lines are evicted and counted once it fills.
    pub event_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: Jobs::Auto,
            queue_capacity: 64,
            max_request_bytes: 4 << 20,
            default_deadline_ms: None,
            allow_test_faults: false,
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }
}

/// End-of-life accounting, reported by [`Server::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered by the worker pool (analysis + test faults).
    pub served: u64,
    /// Worker panics caught and converted into error replies.
    pub panics_caught: u64,
    /// Requests shed with backpressure replies.
    pub shed: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} request(s), caught {} worker panic(s), shed {} under load",
            self.served, self.panics_caught, self.shed
        )
    }
}

/// Per-connection accounting for ordered delivery and drain tracking.
struct ConnState {
    /// Lines admitted for reply (sequence numbers handed out).
    submitted: AtomicU64,
    /// Replies handed to the connection (written, or dropped because the
    /// client vanished — either way no longer pending).
    delivered: AtomicU64,
}

enum JobKind {
    Analyze(Box<proto::AnalyzeRequest>),
    /// Deliberate panic inside the worker (test-faults mode only).
    Boom,
}

struct Job {
    seq: u64,
    /// Server-global request number; ties the event-log trail and the
    /// Chrome-trace `args.req` stamps to this job.
    req: u64,
    id: RequestId,
    kind: JobKind,
    /// Reply channel; also pins the connection's writer (and thus its
    /// `ConnState` drain accounting) alive until the job answers.
    reply_tx: mpsc::Sender<(u64, String)>,
    accepted: Instant,
}

struct Shared {
    config: ServeConfig,
    queue: Bounded<Job>,
    /// Admission stops the moment this is set; workers drain what is
    /// already in.
    shutdown: AtomicBool,
    /// Stops the telemetry ticker; set by [`Server::finish`] only, so
    /// `stats` stays answerable during the drain.
    stop_telemetry: AtomicBool,
    /// Jobs admitted to the queue whose reply has not yet been *sent*
    /// toward a writer.
    inflight: AtomicUsize,
    conns: Mutex<Vec<Weak<ConnState>>>,
    served: AtomicU64,
    panics: AtomicU64,
    shed: AtomicU64,
    /// Next server-global request number (first handed out is 1).
    next_req: AtomicU64,
    /// Request-lifecycle JSONL event ring.
    events: EventLog,
    /// Per-interval metric deltas feeding windowed `stats` figures.
    window: Mutex<WindowRing>,
    /// When the server was created (uptime reference).
    started: Instant,
}

impl Shared {
    fn drained(&self) -> bool {
        if self.inflight.load(Ordering::SeqCst) != 0 || !self.queue.is_empty() {
            return false;
        }
        let conns = self.conns.lock().expect("conns lock poisoned");
        conns.iter().filter_map(Weak::upgrade).all(|c| {
            c.submitted.load(Ordering::SeqCst) == c.delivered.load(Ordering::SeqCst)
        })
    }
}

/// A cloneable handle for controlling and observing a running [`Server`]
/// from other threads (connection acceptors, tests, signal loops).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

/// The daemon: owns the worker pool. Create with [`Server::new`], feed it
/// connections via [`ServerHandle::attach`] or [`Server::serve_tcp`]-style
/// helpers, stop it with [`ServerHandle::request_shutdown`] +
/// [`Server::finish`].
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    telemetry: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool and the telemetry ticker (no I/O yet).
    pub fn new(config: ServeConfig) -> Self {
        let workers_n = config.jobs.resolve().max(1);
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            events: EventLog::new(config.event_capacity),
            config,
            shutdown: AtomicBool::new(false),
            stop_telemetry: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            next_req: AtomicU64::new(0),
            window: Mutex::new(WindowRing::new(WINDOW_CAPACITY)),
            started: Instant::now(),
        });
        let workers = (0..workers_n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let telemetry = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || telemetry_loop(&shared))
        };
        Server {
            shared,
            workers,
            telemetry: Some(telemetry),
        }
    }

    /// A handle for other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until shutdown has been requested (via SIGTERM/SIGINT, a
    /// handle, or a finished stdio connection) *and* all admitted work
    /// has been answered and delivered.
    pub fn run_until_drained(&self) {
        loop {
            if signal::termination_requested() {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) && self.shared.drained() {
                return;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the pool: closes the queue (remaining items still drain),
    /// joins every worker and the telemetry ticker. Call after
    /// [`Server::run_until_drained`].
    pub fn finish(mut self) -> ServeSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.stop_telemetry.store(true, Ordering::SeqCst);
        if let Some(t) = self.telemetry.take() {
            let _ = t.join();
        }
        ServeSummary {
            served: self.shared.served.load(Ordering::SeqCst),
            panics_caught: self.shared.panics.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
        }
    }

    /// Accept loop over a TCP listener until shutdown. Each connection
    /// runs on its own thread; the listener polls so SIGTERM is honored
    /// within ~[`READ_POLL`].
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; per-connection errors
    /// only end that connection.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let handle = self.handle();
        loop {
            if signal::termination_requested() {
                handle.request_shutdown();
            }
            if handle.shutdown_requested() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(READ_POLL))?;
                    // Replies are one small write each; without TCP_NODELAY
                    // Nagle + delayed ACK adds ~40ms to every round trip.
                    stream.set_nodelay(true)?;
                    let writer = stream.try_clone()?;
                    let conn_handle = self.handle();
                    thread::spawn(move || conn_handle.attach(&stream, writer));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(READ_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Accept loop over a Unix socket listener until shutdown; see
    /// [`Server::serve_tcp`].
    ///
    /// # Errors
    ///
    /// As [`Server::serve_tcp`].
    #[cfg(unix)]
    pub fn serve_unix(&self, listener: &std::os::unix::net::UnixListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let handle = self.handle();
        loop {
            if signal::termination_requested() {
                handle.request_shutdown();
            }
            if handle.shutdown_requested() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(READ_POLL))?;
                    let writer = stream.try_clone()?;
                    let conn_handle = self.handle();
                    thread::spawn(move || conn_handle.attach(&stream, writer));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(READ_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl ServerHandle {
    /// Stops admitting new requests. Already-admitted work still drains.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// `true` when every admitted request has been answered *and* its
    /// reply handed to (or dropped with) its connection.
    pub fn drained(&self) -> bool {
        self.shared.drained()
    }

    /// Serves one connection on the calling thread until EOF, client
    /// error, or shutdown. Replies go to `writer` strictly in request
    /// order. For pollable transports (sockets), configure a read
    /// timeout so shutdown is noticed; plain pipes/stdin block until
    /// the peer writes or closes.
    pub fn attach<R: Read, W: Write + Send + 'static>(&self, mut reader: R, writer: W) {
        let shared = &self.shared;
        let conn = Arc::new(ConnState {
            submitted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        });
        {
            let mut conns = shared.conns.lock().expect("conns lock poisoned");
            conns.retain(|w| w.upgrade().is_some());
            conns.push(Arc::downgrade(&conn));
        }
        let (tx, rx) = mpsc::channel::<(u64, String)>();
        let writer_conn = Arc::clone(&conn);
        let writer_thread = thread::spawn(move || writer_loop(&rx, writer, &writer_conn));

        let mut line: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut next_seq: u64 = 1;
        let mut skipping = false; // discarding an oversized line
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    if skipping {
                        self.reject_oversized(&conn, &tx, &mut next_seq);
                    } else if !line.iter().all(u8::is_ascii_whitespace) {
                        self.handle_line(&line, &conn, &tx, &mut next_seq);
                    }
                    break;
                }
                Ok(n) => {
                    for &b in &chunk[..n] {
                        if skipping {
                            if b == b'\n' {
                                skipping = false;
                                self.reject_oversized(&conn, &tx, &mut next_seq);
                            }
                            continue;
                        }
                        if b == b'\n' {
                            if !line.iter().all(u8::is_ascii_whitespace) {
                                self.handle_line(&line, &conn, &tx, &mut next_seq);
                            }
                            line.clear();
                        } else {
                            line.push(b);
                            if line.len() > shared.config.max_request_bytes {
                                // Stop buffering; the reply goes out once
                                // the line (or stream) ends so ordering
                                // relative to any tail bytes' parse is moot.
                                skipping = true;
                                line.clear();
                            }
                        }
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    continue;
                }
                Err(_) => break, // client gone
            }
        }
        drop(tx);
        // Join the writer: it exits once every in-flight job for this
        // connection has sent its reply, i.e. the connection closes only
        // after its admitted work is answered.
        let _ = writer_thread.join();
    }

    fn send(
        &self,
        conn: &Arc<ConnState>,
        tx: &mpsc::Sender<(u64, String)>,
        next_seq: &mut u64,
        reply: String,
    ) {
        let seq = *next_seq;
        *next_seq += 1;
        conn.submitted.fetch_add(1, Ordering::SeqCst);
        let _ = tx.send((seq, reply));
    }

    fn reject_oversized(
        &self,
        conn: &Arc<ConnState>,
        tx: &mpsc::Sender<(u64, String)>,
        next_seq: &mut u64,
    ) {
        xtalk_obs::counter!("serve.requests.oversized").add(1);
        let reply = proto::error_reply(
            &RequestId::null(),
            "request_too_large",
            &format!(
                "request line exceeds {} bytes",
                self.shared.config.max_request_bytes
            ),
            None,
        );
        self.send(conn, tx, next_seq, reply);
    }

    fn handle_line(
        &self,
        line: &[u8],
        conn: &Arc<ConnState>,
        tx: &mpsc::Sender<(u64, String)>,
        next_seq: &mut u64,
    ) {
        let shared = &self.shared;
        let Ok(text) = std::str::from_utf8(line) else {
            self.send(
                conn,
                tx,
                next_seq,
                proto::error_reply(
                    &RequestId::null(),
                    "bad_utf8",
                    "request line is not valid UTF-8",
                    None,
                ),
            );
            return;
        };
        let (id, parsed) = proto::parse_request(text);
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                xtalk_obs::counter!("serve.requests.rejected").add(1);
                self.send(conn, tx, next_seq, proto::error_reply(&id, e.code, &e.detail, None));
                return;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            self.send(conn, tx, next_seq, proto::shutting_down_reply(&id));
            return;
        }
        let kind = match request {
            Request::Ping => {
                self.send(conn, tx, next_seq, proto::pong_reply(&id));
                return;
            }
            Request::Stats => {
                // Handled inline (no queue trip) but sequenced through
                // the writer, so it cannot overtake earlier replies.
                let reply = self.stats_reply(&id);
                self.send(conn, tx, next_seq, reply);
                return;
            }
            Request::Boom if !shared.config.allow_test_faults => {
                self.send(
                    conn,
                    tx,
                    next_seq,
                    proto::error_reply(
                        &id,
                        "schema",
                        "unknown request type \"boom\" (test faults are disabled)",
                        None,
                    ),
                );
                return;
            }
            Request::Boom => JobKind::Boom,
            Request::Analyze(mut req) => {
                if req.deadline_ms.is_none() {
                    req.deadline_ms = shared.config.default_deadline_ms;
                }
                JobKind::Analyze(req)
            }
        };
        let seq = *next_seq;
        *next_seq += 1;
        conn.submitted.fetch_add(1, Ordering::SeqCst);
        let req = shared.next_req.fetch_add(1, Ordering::SeqCst) + 1;
        // Count the job before it becomes poppable, so `inflight == 0 &&
        // queue empty` can never miss a job a worker is about to claim.
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let id_copy = id.clone();
        let job = Job {
            seq,
            req,
            id,
            kind,
            reply_tx: tx.clone(),
            accepted: Instant::now(),
        };
        // The admitted event is emitted *before* the push: once the job
        // is poppable a worker can start (and even complete) it before
        // this thread runs again, which would timestamp `admitted`
        // after `completed`. A request the queue then refuses follows
        // its admitted line with a `shed` retraction.
        shared.events.emit(
            "admitted",
            req,
            &id_copy,
            &format!(",\"queue_depth\":{}", shared.queue.len()),
        );
        match shared.queue.try_push(job) {
            Ok(()) => {}
            Err((why, job)) => {
                shared.inflight.fetch_sub(1, Ordering::SeqCst);
                let reply = match why {
                    PushError::Full => {
                        shared.shed.fetch_add(1, Ordering::SeqCst);
                        // Scheduling-dependent, so performance class: a
                        // fast client on a slow box sheds more.
                        xtalk_obs::counter!(perf: "serve.shed").add(1);
                        let depth = shared.queue.len();
                        shared.events.emit(
                            "shed",
                            job.req,
                            &job.id,
                            &format!(",\"queue_depth\":{depth}"),
                        );
                        proto::overloaded_reply(
                            &job.id,
                            retry_after_ms(depth),
                            depth,
                            shared.queue.capacity(),
                        )
                    }
                    PushError::Closed => proto::shutting_down_reply(&job.id),
                };
                let _ = job.reply_tx.send((job.seq, reply));
            }
        }
    }

    fn stats_reply(&self, id: &RequestId) -> String {
        let shared = &self.shared;
        let mut out = proto::open_reply(id, "ok");
        out.push_str(&format!(
            ",\"type\":\"stats\",\"queue\":{{\"depth\":{},\"capacity\":{},\"inflight\":{}}}",
            shared.queue.len(),
            shared.queue.capacity(),
            shared.inflight.load(Ordering::SeqCst),
        ));
        out.push_str(&format!(
            ",\"served\":{},\"panics_caught\":{},\"shed\":{},\"shutting_down\":{}",
            shared.served.load(Ordering::SeqCst),
            shared.panics.load(Ordering::SeqCst),
            shared.shed.load(Ordering::SeqCst),
            shared.shutdown.load(Ordering::SeqCst),
        ));
        out.push_str(",\"workers\":");
        out.push_str(&shared.config.jobs.resolve().max(1).to_string());
        // The live registry: deterministic counters only (rung counts,
        // solver paths, panic totals) — the same set `--metrics-out`
        // serializes, so a client can scrape without a file.
        out.push_str(",\"metrics\":{");
        if xtalk_obs::metrics_enabled() {
            let snap = xtalk_obs::snapshot();
            let mut first = true;
            for c in snap
                .counters
                .iter()
                .filter(|c| c.class == xtalk_obs::Class::Det)
            {
                if !first {
                    out.push(',');
                }
                first = false;
                crate::json::write_escaped(&mut out, &c.name);
                out.push(':');
                out.push_str(&c.value.to_string());
            }
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"uptime_s\":{:.3}",
            shared.started.elapsed().as_secs_f64()
        );
        self.push_window_json(&mut out);
        let _ = write!(
            out,
            ",\"events\":{{\"buffered\":{},\"dropped\":{}}}",
            shared.events.buffered(),
            shared.events.dropped()
        );
        let trace_dropped = xtalk_obs::snapshot()
            .counter("trace.events.dropped")
            .unwrap_or(0);
        let _ = write!(
            out,
            ",\"trace\":{{\"buffered\":{},\"dropped\":{trace_dropped}}}",
            xtalk_obs::trace_event_count()
        );
        out.push('}');
        out
    }

    /// Renders the `"window"` member of a `stats` reply: rates and
    /// per-stage latency quantiles over roughly the last minute (merged
    /// closed intervals plus the live partial one).
    fn push_window_json(&self, out: &mut String) {
        let view = self
            .shared
            .window
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .windowed(STATS_WINDOW_INTERVALS);
        let _ = write!(
            out,
            ",\"window\":{{\"seconds\":{:.3},\"intervals\":{}",
            view.elapsed.as_secs_f64(),
            view.intervals
        );
        let _ = write!(out, ",\"req_per_s\":{:.3}", view.rate("serve.requests.analyze"));
        let counter = |name: &str| view.delta.counter(name).unwrap_or(0);
        let _ = write!(
            out,
            ",\"replies\":{{\"ok\":{},\"degraded\":{},\"error\":{}}}",
            counter("serve.replies.ok"),
            counter("serve.replies.degraded"),
            counter("serve.replies.error"),
        );
        out.push_str(",\"stages\":{");
        for (i, (key, hist)) in [
            ("request", "span.serve.request.ns"),
            ("parse", "span.serve.parse.ns"),
            ("chain", "span.serve.chain.ns"),
            ("golden", "span.serve.golden.ns"),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":{{");
            match view.delta.histogram(hist) {
                Some(h) => {
                    let us =
                        |q: f64| h.quantile_upper_bound(q).map_or(0.0, |ns| ns as f64 / 1e3);
                    let _ = write!(
                        out,
                        "\"count\":{},\"mean_us\":{:.1},\"p50_us\":{:.1},\"p99_us\":{:.1}",
                        h.count,
                        h.mean() / 1e3,
                        us(0.50),
                        us(0.99),
                    );
                }
                None => out.push_str("\"count\":0"),
            }
            out.push('}');
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"fallback_rungs\":{{\"metric2\":{},\"metric1_m1\":{},\"bounds\":{},\"lumped\":{}}}",
            counter("resilience.rung.metric2"),
            counter("resilience.rung.metric1_m1"),
            counter("resilience.rung.bounds"),
            counter("resilience.rung.lumped"),
        );
        let _ = write!(
            out,
            ",\"fast_tier\":{{\"hits\":{},\"fallbacks\":{}}}",
            counter("sim.fast_tier.hits"),
            counter("sim.fast_tier.fallback"),
        );
        let _ = write!(
            out,
            ",\"incr\":{{\"hits\":{},\"misses\":{},\"invalidated\":{}}}}}",
            counter("incr.query.hit"),
            counter("incr.query.miss"),
            counter("incr.query.invalidated"),
        );
    }

    /// Takes every buffered request-lifecycle event line (JSONL, oldest
    /// first), leaving the ring empty. The CLI flushes these to
    /// `--events-out` after the drain.
    #[must_use]
    pub fn drain_events(&self) -> Vec<String> {
        self.shared.events.drain()
    }
}

/// Backpressure hint: roughly how long until `depth` queued cases clear.
/// Closed-form cases are sub-millisecond but golden escalations are
/// milliseconds, so budget ~5 ms per queued item, floored at 10 ms.
fn retry_after_ms(depth: usize) -> u64 {
    (depth as u64 * 5).max(10)
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut ws = SimWorkspace::new();
    while let Some(job) = shared.queue.pop() {
        // Pin the request number on this thread: every span recorded
        // below — engine stages, eval, sim internals — carries it as
        // `args.req` in the Chrome trace.
        let _ctx = xtalk_obs::push_request_ctx(job.req);
        let _span = xtalk_obs::span!("serve.request");
        shared.events.emit(
            "started",
            job.req,
            &job.id,
            &format!(
                ",\"queue_wait_ms\":{:.3}",
                job.accepted.elapsed().as_secs_f64() * 1e3
            ),
        );
        let mut trace = RequestTrace::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| match &job.kind {
            JobKind::Analyze(req) => {
                engine::run_analyze(&job.id, req, job.accepted, &mut ws, &mut trace)
            }
            JobKind::Boom => panic!("deliberate test fault (boom request)"),
        }));
        let reply = match outcome {
            Ok(reply) => {
                if trace.degraded_rows > 0 {
                    shared.events.emit(
                        "rung_degraded",
                        job.req,
                        &job.id,
                        &format!(",\"degraded_rows\":{}", trace.degraded_rows),
                    );
                }
                if trace.deadline_expired || trace.golden_skips > 0 || trace.analytic_rescues > 0 {
                    shared.events.emit(
                        "deadline",
                        job.req,
                        &job.id,
                        &format!(
                            ",\"expired\":{},\"golden_skips\":{},\"analytic_rescues\":{}",
                            trace.deadline_expired, trace.golden_skips, trace.analytic_rescues
                        ),
                    );
                }
                shared.events.emit(
                    "completed",
                    job.req,
                    &job.id,
                    &format!(
                        ",\"status\":\"{}\",\"total_ms\":{:.3},\"parse_ms\":{:.3},\
                         \"chain_ms\":{:.3},\"golden_ms\":{:.3}",
                        trace.status,
                        job.accepted.elapsed().as_secs_f64() * 1e3,
                        trace.parse_ns as f64 / 1e6,
                        trace.chain_ns as f64 / 1e6,
                        trace.golden_ns as f64 / 1e6,
                    ),
                );
                reply
            }
            Err(payload) => {
                shared.panics.fetch_add(1, Ordering::SeqCst);
                xtalk_obs::counter!("serve.panics_caught").add(1);
                shared.events.emit("panicked", job.req, &job.id, "");
                // The workspace may have been mid-run when the panic
                // unwound through it; drop it rather than trust it.
                ws = SimWorkspace::new();
                proto::error_reply(
                    &job.id,
                    "panic",
                    &format!(
                        "worker panicked while serving this request: {}",
                        xtalk_exec::panic_message(payload.as_ref())
                    ),
                    None,
                )
            }
        };
        shared.served.fetch_add(1, Ordering::SeqCst);
        let _ = job.reply_tx.send((job.seq, reply));
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Closes one window interval per [`TELEMETRY_INTERVAL`] until
/// [`Server::finish`] stops it. Runs on its own thread so `stats`
/// replies only ever *read* merged deltas; recording threads never see
/// the ring.
fn telemetry_loop(shared: &Arc<Shared>) {
    let mut last_tick = Instant::now();
    while !shared.stop_telemetry.load(Ordering::SeqCst) {
        thread::sleep(READ_POLL);
        if last_tick.elapsed() >= TELEMETRY_INTERVAL {
            shared
                .window
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .tick();
            last_tick = Instant::now();
        }
    }
}

fn writer_loop<W: Write>(
    rx: &mpsc::Receiver<(u64, String)>,
    mut writer: W,
    conn: &Arc<ConnState>,
) {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next: u64 = 1;
    // Once a write fails the client is gone; keep draining and counting
    // so the server-side drain never wedges on a dead connection. Each
    // reply leaves with its newline in one write: the stream is
    // unbuffered (and TCP runs with TCP_NODELAY), so a separate newline
    // write would send every reply as two segments.
    let mut sink = false;
    let mut deliver = |mut reply: String, sink: &mut bool| {
        if !*sink {
            reply.push('\n');
            let ok = writer
                .write_all(reply.as_bytes())
                .and_then(|()| writer.flush())
                .is_ok();
            if !ok {
                *sink = true;
            }
        }
        conn.delivered.fetch_add(1, Ordering::SeqCst);
    };
    while let Ok((seq, reply)) = rx.recv() {
        pending.insert(seq, reply);
        while let Some(reply) = pending.remove(&next) {
            deliver(reply, &mut sink);
            next += 1;
        }
    }
    // Channel closed: every sender (reader + in-flight jobs) is done, so
    // anything left here is deliverable now. Gaps cannot happen — every
    // assigned sequence number sends exactly one reply — but iterate in
    // order regardless rather than trust that invariant with a wedge.
    for (_, reply) in pending {
        deliver(reply, &mut sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::io::{BufRead, BufReader};

    fn sample_deck() -> String {
        use xtalk_circuit::{NetRole, NetworkBuilder};
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 60.0).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 25e-15).unwrap();
        xtalk_circuit::spice::write_deck(&b.build().unwrap())
    }

    fn analyze_line(id: u64, deck: &str) -> String {
        let mut line = format!("{{\"id\":{id},\"type\":\"analyze\",\"deck\":");
        crate::json::write_escaped(&mut line, deck);
        line.push('}');
        line
    }

    /// Runs a batch of request lines through a full in-process server
    /// over a TCP socket pair and returns the reply lines in order.
    fn round_trip(config: ServeConfig, lines: &[String]) -> Vec<Value> {
        let server = Server::new(config);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = server.handle();
        let accept = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .expect("timeout");
            let writer = stream.try_clone().expect("clone");
            handle.attach(&stream, writer);
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        for line in lines {
            client.write_all(line.as_bytes()).expect("write");
            client.write_all(b"\n").expect("write");
        }
        client.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let reader = BufReader::new(client.try_clone().expect("clone"));
        let replies: Vec<Value> = reader
            .lines()
            .map(|l| json::parse(&l.expect("read")).expect("reply parses"))
            .collect();
        accept.join().expect("conn thread");
        server.handle().request_shutdown();
        server.run_until_drained();
        server.finish();
        replies
    }

    #[test]
    fn mixed_batch_replies_in_request_order() {
        let deck = sample_deck();
        let lines = vec![
            analyze_line(1, &deck),
            "{\"id\":2,\"type\":\"ping\"}".to_string(),
            "garbage".to_string(),
            analyze_line(4, &deck),
            "{\"id\":5,\"type\":\"stats\"}".to_string(),
        ];
        let replies = round_trip(
            ServeConfig {
                jobs: Jobs::Count(2),
                ..ServeConfig::default()
            },
            &lines,
        );
        assert_eq!(replies.len(), 5);
        let ids: Vec<Option<f64>> = replies
            .iter()
            .map(|r| r.get("id").and_then(Value::as_f64))
            .collect();
        assert_eq!(ids, vec![Some(1.0), Some(2.0), None, Some(4.0), Some(5.0)]);
        assert_eq!(replies[0].get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(replies[1].get("type").and_then(Value::as_str), Some("pong"));
        assert_eq!(
            replies[2].get("code").and_then(Value::as_str),
            Some("bad_json")
        );
        assert_eq!(
            replies[4].get("type").and_then(Value::as_str),
            Some("stats")
        );
    }

    /// A writer that keeps the bytes of every `write` call it receives.
    struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_loop_writes_each_reply_line_in_one_call() {
        let (tx, rx) = mpsc::channel();
        let calls = Arc::new(Mutex::new(Vec::new()));
        let conn = Arc::new(ConnState {
            submitted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        });
        // Out of order, and with a gap that only the final drain
        // delivers: both delivery paths must write whole lines.
        for (seq, reply) in [(2, "{\"id\":2}"), (1, "{\"id\":1}"), (4, "{\"id\":4}")] {
            tx.send((seq, reply.to_string())).unwrap();
        }
        drop(tx);
        writer_loop(&rx, WriteLog(Arc::clone(&calls)), &conn);
        let calls = calls.lock().unwrap();
        let calls: Vec<&[u8]> = calls.iter().map(Vec::as_slice).collect();
        assert_eq!(
            calls,
            [&b"{\"id\":1}\n"[..], b"{\"id\":2}\n", b"{\"id\":4}\n"]
        );
        assert_eq!(conn.delivered.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn boom_panics_are_fenced_and_the_pool_survives() {
        let deck = sample_deck();
        let lines = vec![
            "{\"id\":1,\"type\":\"boom\"}".to_string(),
            analyze_line(2, &deck),
        ];
        let replies = round_trip(
            ServeConfig {
                jobs: Jobs::Count(1),
                allow_test_faults: true,
                ..ServeConfig::default()
            },
            &lines,
        );
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0].get("code").and_then(Value::as_str),
            Some("panic")
        );
        assert!(replies[0]
            .get("detail")
            .and_then(Value::as_str)
            .unwrap()
            .contains("deliberate test fault"));
        // The very same worker (jobs = 1) then serves a healthy request.
        assert_eq!(replies[1].get("status").and_then(Value::as_str), Some("ok"));
    }

    #[test]
    fn boom_is_rejected_when_test_faults_are_disabled() {
        let replies = round_trip(
            ServeConfig::default(),
            &["{\"id\":1,\"type\":\"boom\"}".to_string()],
        );
        assert_eq!(
            replies[0].get("code").and_then(Value::as_str),
            Some("schema")
        );
    }

    #[test]
    fn oversized_lines_are_shed_with_a_structured_error() {
        let deck = sample_deck();
        let huge = format!(
            "{{\"id\":1,\"type\":\"analyze\",\"deck\":\"{}\"}}",
            "x".repeat(3000)
        );
        let lines = vec![huge, analyze_line(2, &deck)];
        let replies = round_trip(
            ServeConfig {
                max_request_bytes: 2048,
                ..ServeConfig::default()
            },
            &lines,
        );
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0].get("code").and_then(Value::as_str),
            Some("request_too_large")
        );
        // The connection survives and the next request is served.
        assert_eq!(replies[1].get("status").and_then(Value::as_str), Some("ok"));
    }

    #[test]
    fn drain_finishes_with_nothing_outstanding() {
        let deck = sample_deck();
        let lines: Vec<String> = (0..16).map(|i| analyze_line(i, &deck)).collect();
        let server = Server::new(ServeConfig {
            jobs: Jobs::Count(2),
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = server.handle();
        let accept = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .expect("timeout");
            let writer = stream.try_clone().expect("clone");
            handle.attach(&stream, writer);
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        for line in &lines {
            client.write_all(line.as_bytes()).expect("write");
            client.write_all(b"\n").expect("write");
        }
        client.shutdown(std::net::Shutdown::Write).expect("eof");
        let reader = BufReader::new(client);
        assert_eq!(reader.lines().count(), 16);
        accept.join().expect("conn");
        let h = server.handle();
        h.request_shutdown();
        server.run_until_drained();
        assert!(h.drained());
        let summary = server.finish();
        assert_eq!(summary.served, 16);
        assert_eq!(summary.panics_caught, 0);
    }

    #[test]
    fn disconnected_client_does_not_wedge_the_drain() {
        let deck = sample_deck();
        let server = Server::new(ServeConfig {
            jobs: Jobs::Count(1),
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = server.handle();
        let accept = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .expect("timeout");
            let writer = stream.try_clone().expect("clone");
            handle.attach(&stream, writer);
        });
        {
            let mut client = std::net::TcpStream::connect(addr).expect("connect");
            for i in 0..8 {
                client
                    .write_all(analyze_line(i, &deck).as_bytes())
                    .expect("write");
                client.write_all(b"\n").expect("write");
            }
            // Vanish without reading a single reply.
        }
        accept.join().expect("conn");
        let h = server.handle();
        h.request_shutdown();
        server.run_until_drained(); // must not hang
        let summary = server.finish();
        assert_eq!(summary.served, 8);
    }

    #[test]
    fn stats_reply_carries_windowed_schema() {
        // Windowed figures need live metrics; sticky and harmless for
        // the sibling tests (none assert that metrics are off).
        xtalk_obs::enable_metrics();
        let deck = sample_deck();
        let server = Server::new(ServeConfig {
            jobs: Jobs::Count(2),
            ..ServeConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = server.handle();
        let accept = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .expect("timeout");
            let writer = stream.try_clone().expect("clone");
            handle.attach(&stream, writer);
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        // Analyze first and *read the replies* before asking for stats,
        // so the windowed counters have provably moved.
        let mut reply = String::new();
        for i in 0..4 {
            client
                .write_all(analyze_line(i, &deck).as_bytes())
                .expect("write");
            client.write_all(b"\n").expect("write");
            reply.clear();
            reader.read_line(&mut reply).expect("reply");
        }
        client
            .write_all(b"{\"id\":99,\"type\":\"stats\"}\n")
            .expect("write");
        reply.clear();
        reader.read_line(&mut reply).expect("stats reply");
        let v = json::parse(&reply).expect("stats reply parses");

        assert!(v.get("uptime_s").and_then(Value::as_f64).unwrap() >= 0.0);
        let window = v.get("window").expect("window object");
        assert!(window.get("seconds").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(
            window.get("req_per_s").and_then(Value::as_f64).unwrap() > 0.0,
            "4 analyzed requests must show up as a windowed rate: {reply}"
        );
        let replies = window.get("replies").expect("replies object");
        assert!(replies.get("ok").and_then(Value::as_f64).unwrap() >= 4.0);
        let stages = window.get("stages").expect("stages object");
        for stage in ["request", "parse", "chain"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("stage {stage}"));
            assert!(
                s.get("count").and_then(Value::as_f64).unwrap() >= 4.0,
                "stage {stage} must have recorded: {reply}"
            );
            assert!(s.get("p50_us").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(s.get("p99_us").and_then(Value::as_f64).unwrap() > 0.0);
        }
        assert!(stages.get("golden").is_some(), "golden stage always present");
        assert!(window.get("fallback_rungs").is_some());
        assert!(window.get("fast_tier").is_some());
        let incr = window.get("incr").expect("incr object");
        for key in ["hits", "misses", "invalidated"] {
            assert!(
                incr.get(key).and_then(Value::as_f64).unwrap() >= 0.0,
                "incr.{key} must be a number: {reply}"
            );
        }
        let events = v.get("events").expect("events object");
        assert!(
            events.get("buffered").and_then(Value::as_f64).unwrap() > 0.0,
            "admitted/started/completed events must be buffered: {reply}"
        );
        assert_eq!(events.get("dropped").and_then(Value::as_f64), Some(0.0));
        assert!(v.get("trace").expect("trace object").get("dropped").is_some());

        client.shutdown(std::net::Shutdown::Write).expect("eof");
        assert_eq!(reader.lines().count(), 0);
        accept.join().expect("conn");
        let h = server.handle();
        h.request_shutdown();
        server.run_until_drained();
        // The event trail for one request is reconstructable from the
        // drained JSONL: admitted → started → completed, same req.
        let lines = h.drain_events();
        assert!(lines.len() >= 12, "4 requests × ≥3 events: {lines:?}");
        let admitted: Vec<&String> =
            lines.iter().filter(|l| l.contains("\"event\":\"admitted\"")).collect();
        assert_eq!(admitted.len(), 4);
        assert!(admitted[0].contains("\"req\":1"));
        for event in ["started", "completed"] {
            assert_eq!(
                lines
                    .iter()
                    .filter(|l| l.contains(&format!("\"event\":\"{event}\"")))
                    .count(),
                4,
                "every request leaves one {event} event"
            );
        }
        assert!(
            lines.iter().all(|l| json::parse(l).is_ok()),
            "every event line is standalone JSON"
        );
        server.finish();
    }

    #[test]
    fn backpressure_reply_when_the_queue_is_full() {
        // One worker wedged behind slow analyses + capacity 1: the tail
        // of a burst must see `overloaded` rather than unbounded growth.
        let deck = sample_deck();
        let lines: Vec<String> = (0..64).map(|i| analyze_line(i, &deck)).collect();
        let replies = round_trip(
            ServeConfig {
                jobs: Jobs::Count(1),
                queue_capacity: 1,
                ..ServeConfig::default()
            },
            &lines,
        );
        assert_eq!(replies.len(), 64, "every request gets exactly one reply");
        let overloaded: Vec<&Value> = replies
            .iter()
            .filter(|r| r.get("status").and_then(Value::as_str) == Some("overloaded"))
            .collect();
        // Timing-dependent how many, but a 64-burst into a capacity-1
        // queue must shed at least once, with a usable hint.
        assert!(!overloaded.is_empty(), "no backpressure observed");
        for r in &overloaded {
            let hint = r.get("retry_after_ms").and_then(Value::as_f64).unwrap();
            assert!(hint >= 10.0);
        }
    }
}
