//! The network front end: one transport, both framers, one reactor, serving
//! either backend — a catalog node ([`serve`]) or the multi-node router
//! ([`crate::router::serve_router`]).
//!
//! This module is transport only: it never looks inside a request.  Two wire
//! framings share every layer below the socket: the line-delimited JSON framing
//! (one request or response per `\n`-terminated line; normative spec:
//! `docs/PROTOCOL.md`) and the HTTP/1.1 binding of the same protocol
//! ([`crate::http`]; `POST /v1/<op>`, `GET /v1/info`, curl-able).  A server binds
//! either or both through [`ServerConfig::builder`].  The work splits across three
//! kinds of threads:
//!
//! * **Reactor (1 thread).**  A `poll(2)` readiness loop (the vendored [`polling`]
//!   shim; the workspace builds offline, with no async runtime) owns the
//!   listeners and every connection: it accepts, reads, frames requests (lines or
//!   HTTP messages), and writes responses.  It never parses JSON or touches the backend, so a slow
//!   request cannot stall accepts or other connections' I/O.
//! * **Workers (`workers` threads).**  Pull framed requests from a queue, decode
//!   them, hand the typed body to the backend, and pass encoded responses back to
//!   the reactor.  Requests from *one* connection run strictly in order (responses
//!   come back in request order — no client-side correlation needed); requests
//!   from different connections run in parallel.  Each worker owns the backend's
//!   per-worker state (the router's node-connection pool; nothing for a node).
//! * **Maintenance (1 thread).**  Calls the backend's maintenance hook on an
//!   interval and on demand: catalog compaction and session expiry on a node,
//!   health probes of demoted nodes and session expiry on a router.
//!
//! A node backend fans each query batch out on the work-claiming runner, so the
//! front end holds a [`runner`] thread reservation for its own threads and those
//! fan-outs leave headroom for the reactor instead of oversubscribing the machine.
//!
//! Overload is shed at two gates, both surfaced as the typed `overloaded` error
//! (HTTP `503`) and counted in [`ServerMetrics`]: past the connection cap a new
//! connection is answered and closed without ever reaching a worker; past the
//! queue-depth cap a framed request is refused but its connection stays usable, so
//! a client that backs off needs no reconnect.

use crate::http::{self, HttpRequest};
use crate::metrics::ServerMetrics;
use crate::protocol::{ErrorCode, Request, RequestBody, Response, ResponseBody, WireError};
use crate::wire::Json;
use ipsketch_core::runner::{self, ThreadReservation};
use parking_lot::Mutex;
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::node::serve;

/// Poller key of the line-delimited TCP listener.
const TCP_LISTENER_KEY: usize = 0;
/// Poller key of the HTTP/1.1 listener.
const HTTP_LISTENER_KEY: usize = 1;
/// First key handed to an accepted connection.
const FIRST_CONN_KEY: usize = 2;

/// Smallest accepted `max_line_bytes`: below this even an empty batch-query
/// cannot be expressed, so the bound would only manufacture `too_large` errors.
const MIN_LINE_BYTES: usize = 1024;

/// Validated tuning knobs for [`serve`]; built through [`ServerConfig::builder`].
///
/// The fields are private on purpose: every constructed `ServerConfig` has passed
/// [`ServerConfigBuilder::build`]'s validation, so the server never has to
/// re-check or silently "fix" a nonsensical value at bind time.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    tcp: Option<String>,
    http: Option<String>,
    workers: usize,
    max_line_bytes: usize,
    max_connections: usize,
    max_queue_depth: usize,
    maintenance_interval: Option<Duration>,
    session_ttl: Duration,
}

impl ServerConfig {
    /// Starts a builder with the defaults: 2 workers, 64 MiB request bound,
    /// 1024-connection and 1024-request caps, 30 s maintenance interval, 15 min
    /// session TTL — and *no* bind address, which [`ServerConfigBuilder::build`]
    /// rejects until [`tcp`](ServerConfigBuilder::tcp) and/or
    /// [`http`](ServerConfigBuilder::http) is set.
    #[must_use]
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            tcp: None,
            http: None,
            workers: 2,
            max_line_bytes: 64 << 20,
            max_connections: 1024,
            max_queue_depth: 1024,
            maintenance_interval: Some(Duration::from_secs(30)),
            session_ttl: Duration::from_secs(15 * 60),
        }
    }

    /// The line-delimited TCP bind address, if one is configured.
    #[must_use]
    pub fn tcp(&self) -> Option<&str> {
        self.tcp.as_deref()
    }

    /// The HTTP/1.1 bind address, if one is configured.
    #[must_use]
    pub fn http(&self) -> Option<&str> {
        self.http.as_deref()
    }

    /// Request-executing worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Hard bound on one request (a line on the TCP framer, a body on the HTTP
    /// framer).
    #[must_use]
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Open-connection cap across both framers.
    #[must_use]
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Cap on requests queued for workers before new ones are refused.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Idle interval between periodic maintenance passes (`None`: on demand only).
    #[must_use]
    pub fn maintenance_interval(&self) -> Option<Duration> {
        self.maintenance_interval
    }

    /// How long an ingest session may sit untouched before it is expired.
    #[must_use]
    pub fn session_ttl(&self) -> Duration {
        self.session_ttl
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`] for the defaults.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    tcp: Option<String>,
    http: Option<String>,
    workers: usize,
    max_line_bytes: usize,
    max_connections: usize,
    max_queue_depth: usize,
    maintenance_interval: Option<Duration>,
    session_ttl: Duration,
}

impl ServerConfigBuilder {
    /// Binds the line-delimited TCP framer on `addr` (port 0 for ephemeral).
    #[must_use]
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    /// Binds the HTTP/1.1 framer on `addr` (port 0 for ephemeral).
    #[must_use]
    pub fn http(mut self, addr: impl Into<String>) -> Self {
        self.http = Some(addr.into());
        self
    }

    /// Sets the worker-thread count.  Two by default: enough that a slow ingest
    /// does not block queries, while leaving the runner (which parallelizes each
    /// batch internally) most of the machine.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-request size bound.  Oversized TCP lines earn `too_large` and
    /// close the connection (line framing cannot resynchronize); oversized HTTP
    /// bodies earn `413` before the body is read.
    #[must_use]
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes;
        self
    }

    /// Sets the open-connection cap.  Connections past it are answered with the
    /// typed `overloaded` error and closed without reaching a worker.
    #[must_use]
    pub fn max_connections(mut self, connections: usize) -> Self {
        self.max_connections = connections;
        self
    }

    /// Sets the worker-queue depth cap.  Requests framed while the queue is full
    /// are answered `overloaded`; their connection stays open and usable.
    #[must_use]
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Sets how often the maintenance thread runs the backend's maintenance pass
    /// when idle (`None` disables periodic passes; ingest-triggered ones still run).
    #[must_use]
    pub fn maintenance_interval(mut self, interval: Option<Duration>) -> Self {
        self.maintenance_interval = interval;
        self
    }

    /// Sets how long an ingest session may sit untouched before a maintenance
    /// pass expires it.  Sessions hold folded partial sketches, so abandoned ones
    /// (client crashed before `ingest-finish`) would otherwise leak for the
    /// server's lifetime.
    #[must_use]
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = ttl;
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated rule: at least one
    /// bind address, at least one worker, nonzero connection and queue caps, and
    /// a request bound of at least 1 KiB.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        if self.tcp.is_none() && self.http.is_none() {
            return Err(ConfigError::NoBindAddress);
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.max_connections == 0 {
            return Err(ConfigError::ZeroConnectionCap);
        }
        if self.max_queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.max_line_bytes < MIN_LINE_BYTES {
            return Err(ConfigError::LineBoundTooSmall {
                got: self.max_line_bytes,
                min: MIN_LINE_BYTES,
            });
        }
        Ok(ServerConfig {
            tcp: self.tcp,
            http: self.http,
            workers: self.workers,
            max_line_bytes: self.max_line_bytes,
            max_connections: self.max_connections,
            max_queue_depth: self.max_queue_depth,
            maintenance_interval: self.maintenance_interval,
            session_ttl: self.session_ttl,
        })
    }
}

/// A [`ServerConfigBuilder::build`] rejection: which rule the configuration broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Neither a TCP nor an HTTP bind address was set.
    NoBindAddress,
    /// `workers` was 0; the server needs at least one request executor.
    ZeroWorkers,
    /// `max_connections` was 0; the server could never accept anything.
    ZeroConnectionCap,
    /// `max_queue_depth` was 0; the server could never execute anything.
    ZeroQueueDepth,
    /// `max_line_bytes` was below the smallest useful request bound.
    LineBoundTooSmall {
        /// The configured bound.
        got: usize,
        /// The smallest accepted bound.
        min: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoBindAddress => {
                write!(f, "no bind address: set a TCP and/or an HTTP address")
            }
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::ZeroConnectionCap => write!(f, "max connections must be at least 1"),
            ConfigError::ZeroQueueDepth => write!(f, "max queue depth must be at least 1"),
            ConfigError::LineBoundTooSmall { got, min } => {
                write!(
                    f,
                    "request bound of {got} bytes is below the {min}-byte minimum"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Running totals of the maintenance thread, exposed for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Completed maintenance passes: catalog compactions on a node, health-probe
    /// rounds on a router.
    pub passes: u64,
    /// Total unreferenced files removed across all passes.
    pub files_removed: u64,
    /// Passes that failed (I/O errors); the service keeps running.
    pub failures: u64,
    /// Ingest sessions expired for sitting idle past the configured TTL.
    pub sessions_expired: u64,
}

/// Handle to a running server: address introspection, observability, shutdown.
///
/// Dropping the handle shuts the server down and joins its threads.
pub struct ServerHandle {
    front: Arc<FrontEnd>,
    tcp_addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    /// Keeps runner headroom for the reactor + workers while the server lives
    /// (empty for backends that never fan out on the runner).
    _reservation: ThreadReservation,
}

impl ServerHandle {
    /// The bound line-delimited TCP address (useful with port 0), if configured.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound HTTP/1.1 address (useful with port 0), if configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The live observability state: per-op latency histograms, counters, gauges.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.front.metrics
    }

    /// Maintenance totals so far.
    #[must_use]
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        *self.front.maintenance_stats.lock()
    }

    /// Asks the maintenance thread for an immediate pass.
    pub fn request_maintenance(&self) {
        self.front.request_maintenance();
    }

    /// Stops accepting, drains nothing further, and joins every thread.  In-flight
    /// requests finish; queued-but-unstarted requests on other connections are
    /// dropped along with their connections.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Blocks until the server stops on its own — which only happens on a fatal
    /// reactor error (e.g. `poll(2)` failing) — and joins every thread.  This is
    /// what a serve-until-killed front end (the CLI) parks on: if it returns, the
    /// listeners are gone and the process should exit with an error instead of
    /// lingering as a live-looking corpse.
    pub fn wait(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.front.shutdown.store(true, Ordering::SeqCst);
        self.front.queue_cv.notify_all();
        self.front.maint_cv.notify_all();
        let _ = self.front.poller.notify();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// A request executor behind the transport: a catalog node or the router.
pub(crate) trait Backend: Send + Sync + 'static {
    /// State each worker thread owns for its lifetime (built on that thread).
    type Worker;
    /// Whether requests fan out on the sketch runner, so the front end's own
    /// threads must be reserved out of the runner's pool.
    const USES_RUNNER: bool;

    /// Builds one worker's private state.
    fn worker(&self) -> Self::Worker;

    /// Executes one decoded request.
    fn handle(
        &self,
        worker: &mut Self::Worker,
        body: &RequestBody,
        front: &FrontEnd,
    ) -> Result<ResponseBody, WireError>;

    /// One maintenance pass; returns what it did, which the front end adds to
    /// its [`MaintenanceStats`].
    fn maintain(&self) -> MaintenanceStats;
}

/// Starts the transport over `backend` with the validated `config` and returns
/// immediately with its handle.
pub(crate) fn serve_backend<B: Backend>(
    backend: Arc<B>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let poller = Poller::new()?;
    let bind = |addr: &str, key: usize| -> io::Result<(TcpListener, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        poller.add(&listener, Event::readable(key))?;
        Ok((listener, addr))
    };
    let tcp = config
        .tcp
        .as_deref()
        .map(|addr| bind(addr, TCP_LISTENER_KEY))
        .transpose()?;
    let http = config
        .http
        .as_deref()
        .map(|addr| bind(addr, HTTP_LISTENER_KEY))
        .transpose()?;
    let (tcp_listener, tcp_addr) = tcp.map_or((None, None), |(l, a)| (Some(l), Some(a)));
    let (http_listener, http_addr) = http.map_or((None, None), |(l, a)| (Some(l), Some(a)));

    let front = Arc::new(FrontEnd {
        queue: StdMutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        maint: StdMutex::new(false),
        maint_cv: Condvar::new(),
        maintenance_stats: Mutex::new(MaintenanceStats::default()),
        metrics: ServerMetrics::default(),
        outbox: Mutex::new(Vec::new()),
        poller,
        shutdown: AtomicBool::new(false),
        config: config.clone(),
    });

    // Reactor + workers occupy cores for as long as the server runs; reserving them
    // makes every runner-backed batch fan-out leave that headroom automatically.
    let reservation = runner::reserve_threads(if B::USES_RUNNER {
        1 + config.workers
    } else {
        0
    });

    let mut threads = Vec::with_capacity(config.workers + 2);
    let reactor_front = Arc::clone(&front);
    threads.push(
        std::thread::Builder::new()
            .name("ipsketch-reactor".to_string())
            .spawn(move || reactor_loop(&reactor_front, tcp_listener, http_listener))?,
    );
    for worker in 0..config.workers {
        let worker_front = Arc::clone(&front);
        let worker_backend = Arc::clone(&backend);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ipsketch-worker-{worker}"))
                .spawn(move || worker_loop(&worker_front, &*worker_backend))?,
        );
    }
    let maint_front = Arc::clone(&front);
    threads.push(
        std::thread::Builder::new()
            .name("ipsketch-maintenance".to_string())
            .spawn(move || maintenance_loop(&maint_front, &*backend))?,
    );

    Ok(ServerHandle {
        front,
        tcp_addr,
        http_addr,
        threads,
        _reservation: reservation,
    })
}

/// Which wire framing a connection speaks (fixed by the listener it arrived on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// One `\n`-terminated JSON line per request/response.
    Line,
    /// The HTTP/1.1 binding.
    Http,
}

/// A framed request waiting for a worker, in its framer's shape.
enum Payload {
    /// A raw request line (newline stripped).
    Line(Vec<u8>),
    /// A parsed HTTP message.
    Http(HttpRequest),
}

/// One framed request queued for the workers.
struct Job {
    conn: usize,
    payload: Payload,
}

/// An encoded response (complete wire bytes) waiting for the reactor.
struct Outgoing {
    conn: usize,
    bytes: Vec<u8>,
    /// Close the connection once these bytes flush (HTTP `Connection: close`).
    close_after: bool,
}

/// Transport state shared by the reactor, workers, and maintenance threads; the
/// backend reaches it while handling a request.
pub(crate) struct FrontEnd {
    queue: StdMutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// "A maintenance pass is requested" flag under its condvar's mutex.
    maint: StdMutex<bool>,
    maint_cv: Condvar,
    maintenance_stats: Mutex<MaintenanceStats>,
    metrics: ServerMetrics,
    outbox: Mutex<Vec<Outgoing>>,
    poller: Poller,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl FrontEnd {
    /// The live observability state (the `server` member of `info`).
    pub(crate) fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Wakes the maintenance thread for an immediate pass.
    pub(crate) fn request_maintenance(&self) {
        *self
            .maint
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.maint_cv.notify_all();
    }
}

/// Splits complete `\n`-terminated lines off the front of `buf`, tolerating `\r\n`
/// and skipping empty lines.  Leaves the trailing partial line in place.
fn drain_lines(buf: &mut Vec<u8>) -> Vec<Vec<u8>> {
    let mut lines = Vec::new();
    let mut start = 0;
    while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
        let mut end = start + nl;
        if end > start && buf[end - 1] == b'\r' {
            end -= 1;
        }
        if end > start {
            lines.push(buf[start..end].to_vec());
        }
        start += nl + 1;
    }
    buf.drain(..start);
    lines
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    framing: Framing,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Requests framed but not yet dispatched (per-connection requests run in order).
    pending: VecDeque<Payload>,
    /// Whether a request from this connection is currently queued or executing.
    in_flight: bool,
    /// Peer sent FIN (or an HTTP exchange asked to close): serve what is in
    /// flight, flush, then drop.
    peer_closed: bool,
    /// Fatal framing state (oversized line, malformed HTTP): stop reading, answer
    /// everything framed before the break, then emit the error and drop.
    poisoned: bool,
    /// The encoded framing-error response, emitted only after every request framed
    /// before the poisoning bytes has been answered — preserving the documented
    /// per-connection response order.
    poison_response: Option<Vec<u8>>,
    /// Whether an interim `100 Continue` has been sent for the HTTP request
    /// currently being framed.
    sent_continue: bool,
}

impl Conn {
    fn new(stream: TcpStream, framing: Framing) -> Self {
        Conn {
            stream,
            framing,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            pending: VecDeque::new(),
            in_flight: false,
            peer_closed: false,
            poisoned: false,
            poison_response: None,
            sent_continue: false,
        }
    }

    fn wants_close(&self) -> bool {
        (self.peer_closed || self.poisoned)
            && self.write_buf.is_empty()
            && !self.in_flight
            && self.pending.is_empty()
            && self.poison_response.is_none()
    }
}

/// The reactor: owns the listeners and all connection I/O.
fn reactor_loop(front: &FrontEnd, tcp: Option<TcpListener>, http: Option<TcpListener>) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = FIRST_CONN_KEY;
    let mut events: Vec<Event> = Vec::new();
    loop {
        events.clear();
        // A modest timeout backstops lost wakeups; all real work is notify-driven.
        if front
            .poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .is_err()
        {
            // A failing poll(2) is unrecoverable for the reactor; shut down rather
            // than spin.
            front.shutdown.store(true, Ordering::SeqCst);
            front.queue_cv.notify_all();
            front.maint_cv.notify_all();
            return;
        }
        if front.shutdown.load(Ordering::SeqCst) {
            for conn in conns.values() {
                let _ = front.poller.delete(&conn.stream);
            }
            return;
        }

        for event in &events {
            match event.key {
                TCP_LISTENER_KEY => {
                    if let Some(listener) = &tcp {
                        accept_ready(front, listener, Framing::Line, &mut conns, &mut next_key);
                    }
                }
                HTTP_LISTENER_KEY => {
                    if let Some(listener) = &http {
                        accept_ready(front, listener, Framing::Http, &mut conns, &mut next_key);
                    }
                }
                key => {
                    if let Some(conn) = conns.get_mut(&key) {
                        if event.readable {
                            read_ready(front, key, conn);
                        }
                        if event.writable {
                            flush(conn);
                        }
                    }
                }
            }
        }

        // Move completed responses from the workers into connection write buffers;
        // each response retires its connection's in-flight request.
        let outgoing = std::mem::take(&mut *front.outbox.lock());
        for out in outgoing {
            if let Some(conn) = conns.get_mut(&out.conn) {
                conn.write_buf.extend_from_slice(&out.bytes);
                conn.in_flight = false;
                if out.close_after {
                    conn.peer_closed = true;
                }
                dispatch_next(front, out.conn, conn);
                flush(conn);
            }
        }

        // Re-arm interests and reap finished connections.  Poisoned connections
        // drop read interest entirely: whatever the client keeps sending is
        // undecodable past a broken frame, so it is left in the kernel buffer and
        // the connection closes as soon as the error response flushes.
        conns.retain(|&key, conn| {
            if conn.wants_close() {
                let _ = front.poller.delete(&conn.stream);
                return false;
            }
            let interest = if conn.poisoned {
                Event::writable(key)
            } else if conn.write_buf.is_empty() {
                Event::readable(key)
            } else {
                Event::all(key)
            };
            let _ = front.poller.modify(&conn.stream, interest);
            true
        });
        front
            .metrics
            .connections_open
            .store(conns.len() as u64, Ordering::Relaxed);
    }
}

/// Accepts every pending connection on one listener; past the connection cap each
/// is answered `overloaded` in its framer's encoding and closed without ever
/// reaching a worker.
fn accept_ready(
    front: &FrontEnd,
    listener: &TcpListener,
    framing: Framing,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Each response goes out in one write; Nagle would only hold it
                // back waiting for the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let key = *next_key;
                *next_key += 1;
                let mut conn = Conn::new(stream, framing);
                if conns.len() >= front.config.max_connections {
                    // Reject: pre-fill the response, poison so reads never arm and
                    // the connection drops as soon as the bytes flush.
                    front
                        .metrics
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    let response = http::overloaded_response(&format!(
                        "connection cap of {} reached; retry after backoff",
                        front.config.max_connections
                    ));
                    conn.write_buf = encode_for(framing, &response, false);
                    conn.poisoned = true;
                }
                if front.poller.add(&conn.stream, Event::all(key)).is_ok() {
                    conns.insert(key, conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Per-connection failures (ECONNABORTED & co) and resource exhaustion
            // (EMFILE/ENFILE).  The latter leaves the backlogged connection pending,
            // so the level-triggered poller would re-report the listener instantly;
            // a brief backoff keeps the reactor from spinning at 100% while the
            // kernel backlog drains or descriptors free up.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                return;
            }
        }
    }
}

/// Encodes one protocol [`Response`] in a framing's wire shape.
fn encode_for(framing: Framing, response: &Response, keep_alive: bool) -> Vec<u8> {
    match framing {
        Framing::Line => {
            let mut bytes = response.encode().into_bytes();
            bytes.push(b'\n');
            bytes
        }
        Framing::Http => http::encode_protocol_response(response, keep_alive),
    }
}

/// How many socket reads one readable event may perform before yielding back to
/// the reactor loop: bounds one fast sender's monopoly on the reactor thread
/// (level-triggered polling re-reports whatever is left).
const READS_PER_EVENT: usize = 64;

/// Reads what is available (bounded per event), frames requests eagerly so the
/// size bound applies *per request* — a pipelined burst of individually legal
/// requests is never rejected on its aggregate size — and dispatches if idle.
fn read_ready(front: &FrontEnd, key: usize, conn: &mut Conn) {
    if conn.poisoned {
        // Nothing past a broken frame is decodable; stop consuming input so the
        // connection reaches its flush-then-close state instead of buffering an
        // unbounded stream.
        return;
    }
    let mut chunk = [0u8; 16 * 1024];
    for _ in 0..READS_PER_EVENT {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                match conn.framing {
                    Framing::Line => frame_lines(front, conn),
                    Framing::Http => frame_http(front, conn),
                }
                if conn.poisoned {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_closed = true;
                break;
            }
        }
    }
    dispatch_next(front, key, conn);
}

/// Frames complete lines off a line-framed connection's read buffer.
fn frame_lines(front: &FrontEnd, conn: &mut Conn) {
    for line in drain_lines(&mut conn.read_buf) {
        if line.len() > front.config.max_line_bytes {
            poison_too_large(front, conn);
            return;
        }
        conn.pending.push_back(Payload::Line(line));
    }
    // Only the *unframed tail* is held to the bound: a single line still growing
    // past it can never complete legally.
    if conn.read_buf.len() > front.config.max_line_bytes {
        poison_too_large(front, conn);
    }
}

/// Frames complete HTTP requests off an HTTP connection's read buffer.  A framing
/// violation poisons the connection with the typed closing response; `Expect:
/// 100-continue` earns one interim response per request.
fn frame_http(front: &FrontEnd, conn: &mut Conn) {
    loop {
        match http::try_frame(&mut conn.read_buf, front.config.max_line_bytes) {
            Ok(http::FrameStep::Request(request)) => {
                conn.sent_continue = false;
                conn.pending.push_back(Payload::Http(request));
            }
            Ok(http::FrameStep::Incomplete { needs_continue }) => {
                if needs_continue && !conn.sent_continue {
                    conn.sent_continue = true;
                    conn.write_buf.extend_from_slice(http::CONTINUE_RESPONSE);
                }
                return;
            }
            Err(e) => {
                front.metrics.record("invalid", Duration::ZERO, true);
                conn.poison_response = Some(http::encode_framing_error(&e));
                conn.read_buf.clear();
                conn.poisoned = true;
                return;
            }
        }
    }
}

/// Poisons a line-framed connection on an oversized line (framing cannot resync):
/// reading stops, requests framed *before* the break still get answered in order,
/// and the `too_large` error goes out last (see [`dispatch_next`]) before the
/// close.  Idempotent: a line crossing the bound more than once still earns one
/// response.
fn poison_too_large(front: &FrontEnd, conn: &mut Conn) {
    if conn.poisoned {
        return;
    }
    front.metrics.record("invalid", Duration::ZERO, true);
    let response = Response {
        id: Json::Null,
        result: Err(WireError {
            code: ErrorCode::TooLarge,
            message: format!(
                "request line exceeds the {}-byte bound",
                front.config.max_line_bytes
            ),
        }),
    };
    let mut bytes = response.encode().into_bytes();
    bytes.push(b'\n');
    conn.poison_response = Some(bytes);
    conn.read_buf.clear();
    conn.poisoned = true;
}

/// Hands the next pending request of `conn` to the workers, if it is idle.  Past
/// the queue-depth cap the request is answered `overloaded` right here and the
/// connection stays usable.  On a poisoned connection, the stored framing error is
/// emitted only once every earlier request has been answered, preserving response
/// order.
fn dispatch_next(front: &FrontEnd, key: usize, conn: &mut Conn) {
    if conn.in_flight {
        return;
    }
    while let Some(payload) = conn.pending.pop_front() {
        let mut queue = front
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if queue.len() >= front.config.max_queue_depth {
            drop(queue);
            front.metrics.queue_rejected.fetch_add(1, Ordering::Relaxed);
            let response = http::overloaded_response(&format!(
                "request queue is full ({} queued); retry after backoff",
                front.config.max_queue_depth
            ));
            let keep_alive = match &payload {
                Payload::Line(_) => true,
                Payload::Http(request) => request.keep_alive,
            };
            conn.write_buf
                .extend_from_slice(&encode_for(conn.framing, &response, keep_alive));
            if !keep_alive {
                conn.peer_closed = true;
            }
            continue;
        }
        queue.push_back(Job { conn: key, payload });
        front
            .metrics
            .queue_depth
            .store(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        conn.in_flight = true;
        front.queue_cv.notify_one();
        return;
    }
    if let Some(bytes) = conn.poison_response.take() {
        conn.write_buf.extend_from_slice(&bytes);
    }
}

/// Writes as much buffered output as the socket accepts.
fn flush(conn: &mut Conn) {
    while !conn.write_buf.is_empty() {
        match conn.stream.write(&conn.write_buf) {
            Ok(0) => {
                conn.peer_closed = true;
                return;
            }
            Ok(n) => {
                conn.write_buf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_closed = true;
                conn.write_buf.clear();
                return;
            }
        }
    }
}

/// A worker: hands framed requests to the backend, timing each one into the
/// metrics under its op label.
fn worker_loop<B: Backend>(front: &FrontEnd, backend: &B) {
    let mut state = backend.worker();
    let mut execute = |body: &RequestBody| backend.handle(&mut state, body, front);
    loop {
        let job = {
            let mut queue = front
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if front.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    front
                        .metrics
                        .queue_depth
                        .store(queue.len() as u64, Ordering::Relaxed);
                    break job;
                }
                queue = front
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let started = Instant::now();
        let (bytes, op, is_error, close_after) = match &job.payload {
            Payload::Line(line) => {
                let (response, op) = handle_line(line, &mut execute);
                let mut bytes = response.encode().into_bytes();
                bytes.push(b'\n');
                (bytes, op, response.result.is_err(), false)
            }
            Payload::Http(request) => handle_http(request, &mut execute),
        };
        front.metrics.record(op, started.elapsed(), is_error);
        front.outbox.lock().push(Outgoing {
            conn: job.conn,
            bytes,
            close_after,
        });
        let _ = front.poller.notify();
    }
}

/// The backend call a worker makes for one decoded request body.
type Execute<'a> = dyn FnMut(&RequestBody) -> Result<ResponseBody, WireError> + 'a;

/// Parses and executes one line-framed request; returns the response and the op
/// label to account it under (`"invalid"` when no op could be decoded).
fn handle_line(line: &[u8], execute: &mut Execute<'_>) -> (Response, &'static str) {
    let text = match std::str::from_utf8(line) {
        Ok(text) => text,
        Err(_) => {
            return (
                Response {
                    id: Json::Null,
                    result: Err(WireError::bad_request("request line is not valid UTF-8")),
                },
                "invalid",
            )
        }
    };
    let request = match Request::decode(text) {
        Ok(request) => request,
        Err(failure) => {
            return (
                Response {
                    id: failure.id,
                    result: Err(failure.error),
                },
                "invalid",
            )
        }
    };
    let op = request.body.op();
    (
        Response {
            result: execute(&request.body),
            id: request.id,
        },
        op,
    )
}

/// Routes, decodes, and executes one HTTP request; returns the complete response
/// bytes, the op label, whether the outcome was an error, and whether the
/// connection must close after the response flushes.
fn handle_http(
    request: &HttpRequest,
    execute: &mut Execute<'_>,
) -> (Vec<u8>, &'static str, bool, bool) {
    let keep_alive = request.keep_alive;
    let close_after = !keep_alive;
    let (path, query_string) = http::split_target(&request.target);
    let Some(op) = http::route_op(path) else {
        let response = Response {
            id: Json::Null,
            result: Err(WireError {
                code: ErrorCode::UnknownOp,
                message: format!("no route `{path}` (see docs/PROTOCOL.md for the route table)"),
            }),
        };
        return (
            http::encode_protocol_response(&response, keep_alive),
            "invalid",
            true,
            close_after,
        );
    };
    let typed = match request.method.as_str() {
        "POST" => http::decode_request(op, &request.body),
        "GET" if op == "info" => Ok(http::info_request(query_string)),
        method => {
            let response = Response {
                id: Json::Null,
                result: Err(WireError::bad_request(format!(
                    "method {method} not allowed on {path}; use POST (GET only on /v1/info)"
                ))),
            };
            let mut line = response.encode();
            line.push('\n');
            return (
                http::encode_response(405, line.as_bytes(), keep_alive),
                "invalid",
                true,
                close_after,
            );
        }
    };
    match typed {
        Ok(typed) => {
            let response = Response {
                result: execute(&typed.body),
                id: typed.id,
            };
            let is_error = response.result.is_err();
            (
                http::encode_protocol_response(&response, keep_alive),
                op,
                is_error,
                close_after,
            )
        }
        Err(failure) => {
            let response = Response {
                id: failure.id,
                result: Err(failure.error),
            };
            (
                http::encode_protocol_response(&response, keep_alive),
                "invalid",
                true,
                close_after,
            )
        }
    }
}

/// The maintenance thread: runs the backend's maintenance pass periodically and
/// on demand.
fn maintenance_loop<B: Backend>(front: &FrontEnd, backend: &B) {
    loop {
        {
            let mut pending = front
                .maint
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while !*pending && !front.shutdown.load(Ordering::SeqCst) {
                match front.config.maintenance_interval {
                    Some(interval) => {
                        let (guard, timeout) = front
                            .maint_cv
                            .wait_timeout(pending, interval)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        pending = guard;
                        if timeout.timed_out() {
                            break; // Periodic pass.
                        }
                    }
                    None => {
                        pending = front
                            .maint_cv
                            .wait(pending)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
            if front.shutdown.load(Ordering::SeqCst) {
                return;
            }
            *pending = false;
        }
        let pass = backend.maintain();
        let mut stats = front.maintenance_stats.lock();
        stats.passes += pass.passes;
        stats.files_removed += pass.files_removed;
        stats.failures += pass.failures;
        stats.sessions_expired += pass.sessions_expired;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_lines_frames_and_keeps_partials() {
        let mut buf = b"one\r\ntwo\n\n\r\npartial".to_vec();
        let lines = drain_lines(&mut buf);
        assert_eq!(lines, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(buf, b"partial");
        let lines = drain_lines(&mut buf);
        assert!(lines.is_empty());
        buf.extend_from_slice(b" more\n");
        assert_eq!(drain_lines(&mut buf), vec![b"partial more".to_vec()]);
        assert!(buf.is_empty());
    }

    #[test]
    fn builder_defaults_keep_worker_headroom_small() {
        let config = ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .build()
            .expect("valid");
        assert_eq!(config.workers(), 2);
        assert!(config.max_line_bytes() >= 1 << 20);
        assert!(config.maintenance_interval().is_some());
        assert!(config.max_connections() >= 1);
        assert!(config.max_queue_depth() >= 1);
        assert_eq!(config.tcp(), Some("127.0.0.1:0"));
        assert_eq!(config.http(), None);
    }

    #[test]
    fn builder_rejects_nonsense_with_typed_errors() {
        assert_eq!(
            ServerConfig::builder().build().expect_err("no address"),
            ConfigError::NoBindAddress
        );
        assert_eq!(
            ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .workers(0)
                .build()
                .expect_err("zero workers"),
            ConfigError::ZeroWorkers
        );
        assert_eq!(
            ServerConfig::builder()
                .http("127.0.0.1:0")
                .max_connections(0)
                .build()
                .expect_err("zero connections"),
            ConfigError::ZeroConnectionCap
        );
        assert_eq!(
            ServerConfig::builder()
                .http("127.0.0.1:0")
                .max_queue_depth(0)
                .build()
                .expect_err("zero queue"),
            ConfigError::ZeroQueueDepth
        );
        assert!(matches!(
            ServerConfig::builder()
                .tcp("127.0.0.1:0")
                .max_line_bytes(16)
                .build()
                .expect_err("tiny bound"),
            ConfigError::LineBoundTooSmall { got: 16, .. }
        ));
        // Every error renders a human-readable sentence.
        for err in [
            ConfigError::NoBindAddress,
            ConfigError::ZeroWorkers,
            ConfigError::ZeroConnectionCap,
            ConfigError::ZeroQueueDepth,
            ConfigError::LineBoundTooSmall { got: 1, min: 2 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn dual_binds_accept_both_framers() {
        let config = ServerConfig::builder()
            .tcp("127.0.0.1:0")
            .http("127.0.0.1:0")
            .build()
            .expect("valid");
        assert!(config.tcp().is_some() && config.http().is_some());
    }
}
