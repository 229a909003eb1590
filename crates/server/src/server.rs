//! The HTTP server proper: accept loop, routing, and handlers.
//!
//! One fixed worker pool serves persistent HTTP/1.1 connections: a
//! worker reads requests off a connection (pipelined requests drain in
//! order from one shared buffer), writes responses, and after a burst —
//! or a quiet gap — *parks* the connection by resubmitting it to the
//! pool, so a handful of workers round-robin fairly across many more
//! keep-alive connections. Each request is wrapped in a
//! `server.request` trace span and a `server.request_us` histogram
//! sample. The accept loop polls a nonblocking listener so it can
//! observe the shutdown flag (set programmatically or by
//! SIGINT/SIGTERM); on shutdown it stops accepting, closes parked
//! connections, and joins the pool, draining in-flight requests.
//!
//! Connections above `max_connections` are refused immediately with
//! `503` + `Retry-After` instead of queueing unboundedly — the router
//! retries those on an alternate worker.

use crate::error::ServerError;
use crate::http::{read_request, ParseError, Request, Response};
use crate::logs::LogArchive;
use crate::pool::{PoolHandle, ThreadPool};
use crate::ranks::CombineOutcome;
use crate::registry::{DatasetService, SystemRegistry};
use crate::sessions::SessionTable;
use crate::status::{Occupancy, StatusBoard};
use crate::traces::TraceArchive;
use orex_core::{ObjectRankSystem, QuerySession, SessionError, SessionSnapshot};
use orex_graph::NodeId;
use orex_ir::{Query, QueryVector};
use orex_telemetry::Level;
use serde_json::Value;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Between-request poll window on a kept-alive connection: how long a
/// worker waits for the next request before parking the connection back
/// on the queue. Short enough that workers rotate across connections,
/// long enough to catch back-to-back requests without a reschedule.
const KEEPALIVE_POLL: Duration = Duration::from_millis(25);
/// Requests served on one connection in a single scheduling pass before
/// the worker parks it — bounds how long one chatty connection can
/// monopolize a worker while others wait.
const KEEPALIVE_BURST: u64 = 32;

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7474`. Port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads.
    pub threads: usize,
    /// LRU result-cache capacity (distinct normalized queries), per
    /// dataset.
    pub cache_entries: usize,
    /// Session idle TTL.
    pub session_ttl: Duration,
    /// Max live sessions before LRU eviction.
    pub max_sessions: usize,
    /// Per-request body limit in bytes.
    pub max_body_bytes: usize,
    /// Socket read/write timeout for the first request of a connection
    /// and for mid-request reads.
    pub io_timeout: Duration,
    /// Traces retained for `GET /trace/<id>`.
    pub max_traces: usize,
    /// Log records retained for `GET /logs` (the server-side archive on
    /// top of the logger's own ring).
    pub max_logs: usize,
    /// Requests at least this slow additionally log a `server.slow`
    /// WARN record.
    pub slow_request: Duration,
    /// Precomputed rank-vector artifact (from `orex precompute`) to
    /// answer covered queries by linear combination. Validated against
    /// the served dataset at bind time. Single-dataset
    /// ([`Server::bind`]) path only.
    pub precompute_path: Option<PathBuf>,
    /// Build vectors for uncovered query terms in a background thread so
    /// later occurrences combine. Only meaningful with a precompute
    /// artifact loaded.
    pub backfill: bool,
    /// Continuous-profiler sampling rate in Hz; 0 leaves the sampler
    /// off (`GET /profile` then answers 503). The first component to
    /// touch the global profiler fixes its rate, and `OREX_PROFILE_HZ`
    /// overrides both.
    pub profile_hz: u64,
    /// Cadence of the background status collector that feeds
    /// `/debug/status` history and evaluates SLO burn rates.
    pub status_interval: Duration,
    /// Live-connection cap: connections accepted past this limit are
    /// answered `503` + `Retry-After` immediately instead of queueing.
    pub max_connections: usize,
    /// Max requests served on one keep-alive connection before the
    /// server closes it (bounds per-connection state lifetime).
    pub keepalive_requests: u64,
    /// How long a kept-alive connection may sit idle before the server
    /// closes it.
    pub keepalive_idle: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7474".to_string(),
            threads: 8,
            cache_entries: 256,
            session_ttl: Duration::from_secs(600),
            max_sessions: 1024,
            max_body_bytes: 64 * 1024,
            io_timeout: Duration::from_secs(5),
            max_traces: 256,
            max_logs: 4096,
            slow_request: Duration::from_millis(500),
            precompute_path: None,
            backfill: true,
            profile_hz: orex_telemetry::profile::DEFAULT_HZ,
            status_interval: Duration::from_secs(2),
            max_connections: 1024,
            keepalive_requests: 1000,
            keepalive_idle: Duration::from_secs(5),
        }
    }
}

/// Everything a handler needs, shared across workers.
struct ServerState {
    registry: SystemRegistry,
    sessions: SessionTable,
    traces: TraceArchive,
    logs: LogArchive,
    status: StatusBoard,
    max_body_bytes: usize,
    slow_request: Duration,
    io_timeout: Duration,
    keepalive_requests: u64,
    keepalive_idle: Duration,
    /// Live accepted connections (queued or being served); the accept
    /// loop refuses connections past `max_connections`.
    live_connections: AtomicUsize,
    max_connections: usize,
    /// Set when the accept loop exits: parked connections close instead
    /// of waiting for more requests, so the pool can drain.
    draining: AtomicBool,
}

/// Per-request serving-path outcomes surfaced in the access log and the
/// query response.
#[derive(Default)]
struct QueryFlags {
    /// `Some(true)` when the result cache satisfied the query.
    cache_hit: Option<bool>,
    /// `Some(true)` when precomputed vectors were combined; `Some(false)`
    /// when a precomputed store was consulted but a live iteration ran.
    precompute_hit: Option<bool>,
    /// Dataset the request addressed (even when unknown — the access
    /// log carries what the client asked for).
    dataset: Option<String>,
}

/// Signals a running [`Server`] to stop accepting and drain.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown; `Server::run` returns after draining.
    pub fn shutdown(&self) {
        // Release pairs with the accept loop's Acquire load: everything
        // the requester did before asking for shutdown is visible to the
        // drain path. SeqCst would buy nothing — there is no multi-flag
        // total order to preserve here.
        self.stop.store(true, Ordering::Release);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Set by the process signal handler; observed by every running server.
static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

/// True once a SIGINT/SIGTERM handler installed by
/// [`install_signal_handlers`] has fired. Non-server accept loops (the
/// router) poll this to join the same graceful-drain protocol.
pub fn signal_shutdown_requested() -> bool {
    // ORDERING: Acquire pairs with the handler's Release store; the
    // flag itself is the only communicated state.
    SIGNAL_STOP.load(Ordering::Acquire)
}

/// Installs SIGINT/SIGTERM handlers that request graceful shutdown of
/// every running server in the process. Safe to call more than once.
/// No-op on non-Unix platforms.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // Async-signal-safety: the handler only stores to an AtomicBool.
        extern "C" fn on_signal(_sig: i32) {
            // ORDERING: the flag is the only communication — nothing is
            // published under it, and a signal handler must not need a
            // full fence anyway; Release pairs with the accept loop's
            // Acquire for ordinary flag visibility.
            SIGNAL_STOP.store(true, Ordering::Release);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal(2)` is async-signal-safe to install at any
        // time; the handler is an `extern "C" fn` that only performs an
        // atomic store (itself async-signal-safe, no allocation, no
        // locks). Replacing a previously installed handler is the
        // documented idempotent behaviour this function promises.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// A bound, not-yet-running server; call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `config.addr` serving the single `system` as the dataset
    /// named `default`. When a precompute artifact is configured it is
    /// loaded and validated against the served dataset (graph hash,
    /// node count, damping, epsilon) — a mismatched artifact is a bind
    /// error, not a silent mis-ranking.
    pub fn bind(system: Arc<ObjectRankSystem>, config: ServerConfig) -> io::Result<Self> {
        let service = DatasetService::from_system(
            "default",
            orex_datagen::Preset::DblpTop,
            0.0,
            system,
            config.cache_entries,
            config.precompute_path.as_deref(),
        )
        .map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))?;
        let registry = SystemRegistry::single(service, config.backfill);
        Self::bind_registry(registry, config)
    }

    /// Binds `config.addr` serving every dataset in `registry`. The
    /// first registered dataset answers requests that don't name one.
    pub fn bind_registry(registry: SystemRegistry, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            registry,
            sessions: SessionTable::new(config.session_ttl, config.max_sessions),
            traces: TraceArchive::new(config.max_traces),
            logs: LogArchive::new(config.max_logs),
            status: StatusBoard::new(),
            max_body_bytes: config.max_body_bytes,
            slow_request: config.slow_request,
            io_timeout: config.io_timeout,
            keepalive_requests: config.keepalive_requests.max(1),
            keepalive_idle: config.keepalive_idle,
            live_connections: AtomicUsize::new(0),
            max_connections: config.max_connections,
            draining: AtomicBool::new(false),
        });
        Ok(Self {
            listener,
            state,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Builds every registered dataset now instead of lazily on first
    /// use. Surfaces build errors before the server starts serving.
    pub fn build_all_datasets(&self) -> io::Result<()> {
        self.state
            .registry
            .build_all()
            .map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Serves until shutdown is requested (via [`ShutdownHandle`] or an
    /// installed signal handler), then drains in-flight requests and
    /// returns.
    pub fn run(self) -> io::Result<()> {
        let mut pool = ThreadPool::new(self.config.threads)?;
        let telemetry = orex_telemetry::global();
        // Continuous profiling: sample every thread's span stack so
        // `GET /profile` always has recent history.
        if self.config.profile_hz > 0 {
            orex_telemetry::profiler_at(self.config.profile_hz).start();
        }
        // Background status collector: snapshots metrics into the status
        // board's history ring and keeps SLO burn rates (and the
        // `orex_slo_*` gauges on /metrics) current even when nobody polls
        // /debug/status. Paced by a condvar so shutdown can interrupt a
        // sleep (ORX005: no bare thread::sleep in this crate).
        let collector_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let collector_handle = {
            let state = Arc::clone(&self.state);
            let stop = Arc::clone(&collector_stop);
            let interval = self.config.status_interval;
            std::thread::Builder::new()
                .name("orex-status".into())
                .spawn(move || {
                    let (lock, cv) = &*stop;
                    loop {
                        state.status.collect();
                        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                        let (guard, _timeout) = cv
                            .wait_timeout(guard, interval)
                            .unwrap_or_else(PoisonError::into_inner);
                        if *guard {
                            return;
                        }
                    }
                })
                .ok()
        };
        let handle = pool.handle();
        // Acquire pairs with the Release stores in `shutdown()` and the
        // signal handler; SeqCst's total order across the two flags is
        // unnecessary (either one stopping is sufficient and they never
        // coordinate with each other).
        while !self.stop.load(Ordering::Acquire) && !SIGNAL_STOP.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    telemetry.counter("server.connections").incr();
                    // ORDERING: occupancy gate, not a synchronization
                    // point — Relaxed suffices; an off-by-a-few race at
                    // the cap only shifts which connection sees the 503.
                    let live = self.state.live_connections.load(Ordering::Relaxed);
                    if live >= self.state.max_connections {
                        refuse_overloaded(stream, &self.state, self.config.io_timeout);
                        continue;
                    }
                    // ORDERING: same occupancy gate as the load
                    // above; Relaxed suffices.
                    self.state.live_connections.fetch_add(1, Ordering::Relaxed);
                    let state = Arc::clone(&self.state);
                    let guard = ConnGuard {
                        state: Arc::clone(&self.state),
                    };
                    let io_timeout = self.config.io_timeout;
                    // A failed try_clone or a closed pool drops `conn`
                    // (and its guard, undoing the count) right here.
                    if let Ok(conn) = Conn::new(stream, io_timeout, guard) {
                        if let Some(h) = handle.clone() {
                            let h2 = h.clone();
                            let _ = h.submit(move || connection_pass(conn, state, h2));
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // orex::allow(ORX005): the listener is nonblocking so
                    // this accept loop must pace its own polling to keep
                    // observing the stop flags; 2ms bounds shutdown
                    // latency without burning a core.
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Stop accepting. Parked connections observe the drain flag and
        // close instead of resubmitting; drop our queue handle so the
        // pool's channel can actually close, then drain queued +
        // in-flight requests.
        self.state.draining.store(true, Ordering::Release);
        drop(handle);
        pool.join();
        // Close the backfill queues after the drain (drained requests
        // may still enqueue) and wait for the builders to finish.
        self.state.registry.shutdown();
        {
            let (lock, cv) = &*collector_stop;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cv.notify_all();
        }
        if let Some(handle) = collector_handle {
            let _ = handle.join();
        }
        telemetry.counter("server.clean_shutdowns").incr();
        Ok(())
    }
}

/// Decrements the live-connection count when a connection ends, on
/// every exit path (including handler panics unwinding the worker).
struct ConnGuard {
    state: Arc<ServerState>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // ORDERING: occupancy statistic, pairs with the accept loop's
        // Relaxed load; no data is published under this counter.
        self.state.live_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One live client connection with its buffered reader (which owns any
/// already-received pipelined requests) and serving statistics.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    served: u64,
    idle_since: Instant,
    /// Held for the connection's lifetime; dropping the `Conn` on any
    /// path releases its slot under the connection cap.
    _guard: ConnGuard,
}

impl Conn {
    fn new(stream: TcpStream, io_timeout: Duration, guard: ConnGuard) -> io::Result<Self> {
        let _ = stream.set_read_timeout(Some(io_timeout));
        let _ = stream.set_write_timeout(Some(io_timeout));
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            served: 0,
            idle_since: Instant::now(),
            _guard: guard,
        })
    }
}

/// Answers an over-cap connection with `503` + `Retry-After` without
/// occupying a worker. The write happens on the accept-loop thread but
/// is one small buffer under a write timeout.
fn refuse_overloaded(mut stream: TcpStream, state: &ServerState, io_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(io_timeout));
    orex_telemetry::global()
        .counter("server.overload_503")
        .incr();
    let response = Response::error(503, "server at connection capacity, retry shortly")
        .with_header("Retry-After", "1");
    access_log(
        state,
        None,
        &response,
        &QueryFlags::default(),
        Duration::ZERO,
    );
    let _ = response.write_to(&mut stream, false);
    // Unread request bytes at close time force an RST that can destroy
    // the 503 in flight; send our FIN, then drain what the client
    // already wrote (bounded, short timeout) so the close is graceful.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// One scheduling pass over a parked connection: serve the requests
/// that arrive promptly (pipelined requests drain back-to-back), then
/// either park the connection again (quiet gap, burst cap) or close it
/// (client close, protocol error, idle/lifetime limits, drain).
fn connection_pass(mut conn: Conn, state: Arc<ServerState>, handle: PoolHandle) {
    let telemetry = orex_telemetry::global();
    let mut served_this_pass = 0u64;
    loop {
        // Acquire pairs with the drain flag's Release store: parked
        // connections must stop resubmitting once the accept loop exits
        // or pool.join() would never observe an empty queue.
        if state.draining.load(Ordering::Acquire) {
            return; // drop closes the connection
        }
        let first = conn.served == 0;
        // The first request gets the full io timeout (a fresh client
        // may pause between connect and send, as before keep-alive);
        // later requests poll briefly so the worker can rotate to other
        // parked connections during quiet gaps.
        let _ = conn.writer.set_read_timeout(Some(if first {
            state.io_timeout
        } else {
            KEEPALIVE_POLL
        }));
        let start = Instant::now();
        let request = match read_request(&mut conn.reader, state.max_body_bytes) {
            Ok(request) => request,
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::Idle) if !first => {
                if conn.idle_since.elapsed() >= state.keepalive_idle {
                    telemetry.counter("server.keepalive_idle_closed").incr();
                    return;
                }
                // Park: some other worker (or this one, later) resumes
                // the connection; buffered bytes travel with the reader.
                let state2 = Arc::clone(&state);
                let handle2 = handle.clone();
                if !handle.submit(move || connection_pass(conn, state2, handle2)) {
                    // Pool shut down while parking; the moved conn's
                    // guard decrements on drop.
                }
                return;
            }
            Err(ParseError::Idle) | Err(ParseError::Io(_)) => {
                telemetry.counter("server.request_timeouts").incr();
                let response = Response::error(408, "timed out reading request");
                access_log(
                    &state,
                    None,
                    &response,
                    &QueryFlags::default(),
                    start.elapsed(),
                );
                finish_response(&mut conn, &response, false, start, None);
                return;
            }
            Err(ParseError::BodyTooLarge(_)) => {
                telemetry.counter("server.requests").incr();
                let response = Response::error(413, "request body exceeds limit");
                access_log(
                    &state,
                    None,
                    &response,
                    &QueryFlags::default(),
                    start.elapsed(),
                );
                finish_response(&mut conn, &response, false, start, None);
                return;
            }
            Err(ParseError::Malformed(why)) => {
                telemetry.counter("server.requests").incr();
                let response = Response::error(400, why);
                access_log(
                    &state,
                    None,
                    &response,
                    &QueryFlags::default(),
                    start.elapsed(),
                );
                finish_response(&mut conn, &response, false, start, None);
                return;
            }
        };

        telemetry.counter("server.requests").incr();
        if conn.served > 0 {
            // A second (or later) request on one connection is the
            // keep-alive win the transport layer exists for.
            telemetry.counter("server.keepalive_reuses").incr();
        }
        let keep_alive = request.keep_alive() && conn.served + 1 < state.keepalive_requests;
        let (response, sampled_trace) = handle_request(&request, &state, start);
        finish_response(&mut conn, &response, keep_alive, start, sampled_trace);
        conn.served += 1;
        conn.idle_since = Instant::now();
        if !keep_alive {
            return;
        }
        served_this_pass += 1;
        if served_this_pass >= KEEPALIVE_BURST {
            // Burst cap: park so other connections get a worker.
            let state2 = Arc::clone(&state);
            let handle2 = handle.clone();
            let _ = handle.submit(move || connection_pass(conn, state2, handle2));
            return;
        }
    }
}

/// Routes one parsed request and produces its response plus the sampled
/// trace id (for histogram exemplars), emitting the access log inside
/// the request span.
///
/// A request carrying `X-Orex-Trace` joins the caller's trace instead
/// of minting one: the request span becomes a remote-parent root and
/// the propagated flags byte overrides the local sampling draw — the
/// ingress edge of the fleet decides, every hop behind it obeys.
fn handle_request(
    request: &Request,
    state: &Arc<ServerState>,
    start: Instant,
) -> (Response, Option<u64>) {
    let tracer = orex_telemetry::tracer();
    let context = request
        .header(orex_telemetry::TraceContext::HEADER)
        .and_then(orex_telemetry::TraceContext::parse);
    // Root span of this request's trace; handler spans nest under it.
    // Dropped before the ring is drained below so the archive sees the
    // complete trace.
    let (response, sampled_trace) = {
        let mut span = tracer.span_with_context("server.request", context);
        if span.is_recording() {
            span.attr_str("method", &request.method);
            span.attr_str("path", &request.path);
        }
        let trace_id = span.trace_id().map(|t| t.0);
        // Only sampled traces reach the archive, so only those make
        // honest exemplars — an unsampled id would 404 on
        // `GET /trace/<id>`.
        let sampled_trace = if span.is_sampled() { trace_id } else { None };
        let mut flags = QueryFlags::default();
        let response = route(request, state, trace_id, &mut flags);
        // Emitted while the span is still open, so the record is
        // stamped with this request's trace/span ids.
        access_log(state, Some(request), &response, &flags, start.elapsed());
        (response, sampled_trace)
    };
    state.traces.absorb(tracer.drain());
    // Slow-trace promotions ride back to the ingress edge on the
    // response so the router can retro-fetch sibling spans fleet-wide
    // before they evict.
    let promoted = tracer.take_promoted();
    let response = if promoted.is_empty() {
        response
    } else {
        let ids: Vec<String> = promoted.iter().map(u64::to_string).collect();
        response.with_header("X-Orex-Promoted", ids.join(","))
    };
    (response, sampled_trace)
}

/// Writes the response and records the request metrics.
fn finish_response(
    conn: &mut Conn,
    response: &Response,
    keep_alive: bool,
    start: Instant,
    sampled_trace: Option<u64>,
) {
    let telemetry = orex_telemetry::global();
    telemetry
        .histogram("server.request_us")
        .record_with_exemplar(start.elapsed().as_micros() as f64, sampled_trace);
    telemetry
        .counter(&format!("server.responses_{}xx", response.status / 100))
        .incr();
    let _ = response.write_to(&mut conn.writer, keep_alive);
}

/// Emits the one `server.access` record every response gets — method,
/// path, status, body bytes, latency, dataset, cache and precompute
/// hit/miss — plus a `server.slow` WARN when the request crossed the
/// slow threshold. Called inside the request span when one exists, so
/// the records carry the request's trace/span ids; unparseable requests
/// (4xx before routing) log with `-` placeholders and no trace.
fn access_log(
    state: &ServerState,
    request: Option<&Request>,
    response: &Response,
    flags: &QueryFlags,
    elapsed: Duration,
) {
    let log = orex_telemetry::logger();
    let method = request.map_or("-", |r| r.method.as_str());
    let path = request.map_or("-", |r| r.path.as_str());
    let latency_us = elapsed.as_micros() as u64;
    let mut record = log
        .info("server.access", "request")
        .field_str("method", method)
        .field_str("path", path)
        .field_u64("status", u64::from(response.status))
        .field_u64("bytes", response.body.len() as u64)
        .field_u64("latency_us", latency_us);
    if let Some(dataset) = &flags.dataset {
        record = record.field_str("dataset", dataset);
    }
    if let Some(hit) = flags.cache_hit {
        record = record.field_bool("cache_hit", hit);
    }
    if let Some(hit) = flags.precompute_hit {
        record = record.field_bool("precompute_hit", hit);
    }
    record.emit();
    if elapsed >= state.slow_request {
        log.warn("server.slow", "slow request")
            .field_str("method", method)
            .field_str("path", path)
            .field_u64("status", u64::from(response.status))
            .field_u64("latency_us", latency_us)
            .field_u64("threshold_us", state.slow_request.as_micros() as u64)
            .emit();
    }
}

/// Renders a handler result, logging every 5xx at ERROR — the request
/// span is still open here, so the record carries the trace id that
/// `GET /trace/<id>` serves. `endpoint` feeds the per-endpoint
/// `server.<endpoint>_5xx` counter the availability SLOs read.
fn respond(endpoint: &str, result: Result<Response, ServerError>) -> Response {
    result.unwrap_or_else(|e| {
        if e.status() >= 500 {
            orex_telemetry::global()
                .counter(&format!("server.{endpoint}_5xx"))
                .incr();
            orex_telemetry::logger()
                .error("server.error", format!("{e}"))
                .field_u64("status", u64::from(e.status()))
                .field_str("endpoint", endpoint)
                .emit();
        }
        e.into_response()
    })
}

fn route(
    request: &Request,
    state: &ServerState,
    trace_id: Option<u64>,
    flags: &mut QueryFlags,
) -> Response {
    let path = request.path.as_str();
    // Only /logs interprets the query string, but strip it before
    // segmenting so `/logs?level=...` routes like `/logs`.
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    let segments: Vec<&str> = path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.method.as_str(), segments.as_slice()) {
        // The clock header carries this process's tracer time so an
        // ingress probe can estimate cross-process clock offsets for
        // stitched trace alignment.
        ("GET", ["healthz"]) => Response::text(200, "ok\n").with_header(
            "X-Orex-Clock",
            orex_telemetry::tracer().now_ns().to_string(),
        ),
        ("GET", ["metrics"]) => {
            let _span = orex_telemetry::global().span("server.metrics_us");
            Response::text(200, orex_telemetry::global().snapshot().to_prometheus())
        }
        ("POST", ["query"]) => respond("query", handle_query(request, state, trace_id, flags)),
        ("GET", ["datasets"]) => respond("datasets", handle_datasets(state)),
        ("GET", ["explain", sid, node]) => {
            respond("explain", handle_explain(state, sid, node, flags))
        }
        ("POST", ["feedback", sid]) => {
            respond("feedback", handle_feedback(request, state, sid, flags))
        }
        ("GET", ["trace", id]) => respond("trace", handle_trace(state, id, query)),
        ("GET", ["logs"]) => respond("logs", handle_logs(state, query)),
        ("GET", ["profile"]) => respond("profile", handle_profile(query)),
        ("GET", ["debug", "status"]) => respond("status", handle_status(state, query)),
        ("POST", ["query" | "feedback", ..])
        | ("GET", ["explain" | "trace" | "logs" | "profile" | "debug" | "datasets", ..]) => {
            Response::error(404, "no such route")
        }
        (
            _,
            ["healthz" | "metrics" | "query" | "explain" | "feedback" | "trace" | "logs" | "profile"
            | "debug" | "datasets", ..],
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such route"),
    }
}

/// Parses the request body as a JSON object.
fn body_object(request: &Request) -> Result<Value, ServerError> {
    let text = request
        .body_str()
        .ok_or_else(|| ServerError::BadRequest("body is not UTF-8".into()))?;
    let value = serde_json::from_str(text)
        .map_err(|_| ServerError::BadRequest("body is not valid JSON".into()))?;
    if value.as_object().is_none() {
        return Err(ServerError::BadRequest("body must be a JSON object".into()));
    }
    Ok(value)
}

fn ranked_json(session: &QuerySession<'_>, k: usize) -> Value {
    let results: Vec<Value> = session
        .top_k(k)
        .into_iter()
        .map(|r| {
            serde_json::json!({
                "node": r.node.raw(),
                "score": r.score,
                "label": r.label,
                "display": r.display,
            })
        })
        .collect();
    Value::Array(results)
}

fn session_error(e: &SessionError) -> ServerError {
    match e {
        SessionError::Ranking(_) | SessionError::Explain(_) => {
            ServerError::BadRequest(format!("{e}"))
        }
        SessionError::NoFeedbackObjects => {
            ServerError::BadRequest("no feedback objects given".into())
        }
    }
}

fn requested_k(body: &Value) -> usize {
    body.get("k")
        .and_then(Value::as_u64)
        .map_or(10, |k| (k as usize).clamp(1, 1000))
}

/// `GET /datasets`: every registered dataset with its load state and
/// per-dataset memory accounting.
fn handle_datasets(state: &ServerState) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.datasets_us");
    telemetry.counter("server.datasets_requests").incr();
    Ok(Response::json(
        200,
        serde_json::to_string(&state.registry.list_json()).unwrap_or_default(),
    ))
}

fn handle_query(
    request: &Request,
    state: &ServerState,
    trace_id: Option<u64>,
    flags: &mut QueryFlags,
) -> Result<Response, ServerError> {
    let body = body_object(request)?;
    let Some(query_text) = body.get("query").and_then(Value::as_str) else {
        return Err(ServerError::BadRequest("missing \"query\" field".into()));
    };
    let dataset_name = match body.get("dataset") {
        None => state.registry.default_name().to_string(),
        Some(Value::String(name)) => name.clone(),
        Some(_) => {
            return Err(ServerError::BadRequest(
                "\"dataset\" must be a string".into(),
            ))
        }
    };
    // Recorded before resolution so the access log carries the dataset
    // the client *asked for*, including unknown ones (their 404s are
    // exactly the records an operator greps for).
    flags.dataset = Some(dataset_name.clone());
    let service = state.registry.get(&dataset_name)?;
    service.count_query();
    let k = requested_k(&body);
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.query_us");
    telemetry.counter("server.query_requests").incr();

    let system = service.system();
    let ranks = service.ranks();
    // Normalize before consulting the cache, so equivalent spellings of
    // one query share an entry.
    let query = Query::parse(query_text);
    let qv = QueryVector::initial(&query, system.index().analyzer());

    let mut combined = false;
    let (snapshot, cached) = match ranks.lookup_initial(&qv)? {
        Some(snapshot) => (snapshot, true),
        // Result-cache miss: prefer the exact linear combination of
        // precomputed single-keyword vectors (Linearity, Section 6.2);
        // fall back to a live power iteration and queue the uncovered
        // terms for background backfill.
        None => match ranks.combine(&qv, system.index(), &system.config().okapi) {
            CombineOutcome::Hit(scores) => {
                combined = true;
                flags.precompute_hit = Some(true);
                let snapshot =
                    SessionSnapshot::from_parts(qv.clone(), system.initial_rates().clone(), scores);
                ranks.store(&qv, &snapshot)?;
                (snapshot, false)
            }
            outcome => {
                if let CombineOutcome::Miss(missing) = outcome {
                    flags.precompute_hit = Some(false);
                    ranks.request_backfill(missing);
                }
                let session = QuerySession::start(system, &query).map_err(|e| session_error(&e))?;
                let snapshot = session.snapshot();
                ranks.store(&qv, &snapshot)?;
                (snapshot, false)
            }
        },
    };
    flags.cache_hit = Some(cached);
    let session = QuerySession::resume(system, snapshot.clone());
    let session_id = state.sessions.insert(&dataset_name, snapshot)?;
    let payload = serde_json::json!({
        "session": session_id,
        "dataset": dataset_name,
        "cached": cached,
        "combined": combined,
        "trace": trace_id.map_or(Value::Null, Value::from),
        "results": ranked_json(&session, k),
    });
    Ok(Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_default(),
    ))
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

/// Resolves a session id to its snapshot and owning dataset service.
fn session_service(
    state: &ServerState,
    sid: u64,
    flags: &mut QueryFlags,
) -> Result<Option<(Arc<DatasetService>, SessionSnapshot)>, ServerError> {
    let Some((dataset, snapshot)) = state.sessions.get(sid)? else {
        return Ok(None);
    };
    flags.dataset = Some(dataset.to_string());
    let service = state.registry.get(&dataset)?;
    Ok(Some((service, snapshot)))
}

fn handle_explain(
    state: &ServerState,
    sid: &str,
    node: &str,
    flags: &mut QueryFlags,
) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.explain_us");
    telemetry.counter("server.explain_requests").incr();
    let Some(sid) = parse_id(sid) else {
        return Err(ServerError::BadRequest(
            "session id must be an integer".into(),
        ));
    };
    let Ok(node) = node.parse::<u32>() else {
        return Err(ServerError::BadRequest("node id must be an integer".into()));
    };
    let Some((service, snapshot)) = session_service(state, sid, flags)? else {
        return Err(ServerError::NotFound("no such session (expired?)".into()));
    };
    let system = service.system();
    let session = QuerySession::resume(system, snapshot);
    let target = NodeId::new(node);
    if node as usize >= system.graph().node_count() {
        return Err(ServerError::BadRequest("node id out of range".into()));
    }
    let explanation = session.explain(target).map_err(|e| session_error(&e))?;
    let summary = orex_explain::summarize(&explanation, system.transfer(), system.graph(), 8);
    let meta_paths: Vec<Value> = summary
        .iter()
        .map(|m| {
            serde_json::json!({
                "signature": m.signature.clone(),
                "count": m.count as u64,
                "total_flow": m.total_flow,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "session": sid,
        "target": node,
        "display": system.display(target),
        "target_inflow": explanation.target_inflow(),
        "nodes": explanation.node_count() as u64,
        "edges": explanation.edge_count() as u64,
        "fixpoint_iterations": explanation.iterations() as u64,
        "converged": explanation.converged(),
        "meta_paths": Value::Array(meta_paths),
    });
    Ok(Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_default(),
    ))
}

fn handle_feedback(
    request: &Request,
    state: &ServerState,
    sid: &str,
    flags: &mut QueryFlags,
) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.feedback_us");
    telemetry.counter("server.feedback_requests").incr();
    let Some(sid) = parse_id(sid) else {
        return Err(ServerError::BadRequest(
            "session id must be an integer".into(),
        ));
    };
    let body = body_object(request)?;
    let Some(raw_objects) = body.get("objects").and_then(Value::as_array) else {
        return Err(ServerError::BadRequest("missing \"objects\" array".into()));
    };
    let Some((service, snapshot)) = session_service(state, sid, flags)? else {
        return Err(ServerError::NotFound("no such session (expired?)".into()));
    };
    let system = service.system();
    let node_count = system.graph().node_count();
    let mut objects = Vec::with_capacity(raw_objects.len());
    for v in raw_objects {
        match v.as_u64() {
            Some(raw) if (raw as usize) < node_count => objects.push(NodeId::new(raw as u32)),
            _ => {
                return Err(ServerError::BadRequest(
                    "objects must be in-range node ids".into(),
                ))
            }
        }
    }
    let k = requested_k(&body);
    // Warm-start reformulation: resume the stored state, run one
    // feedback round, store the advanced state back.
    let mut session = QuerySession::resume(system, snapshot);
    let stats = session.feedback(&objects).map_err(|e| session_error(&e))?;
    let advanced = session.snapshot();
    if !state.sessions.update(sid, advanced.clone())? {
        // Session expired mid-round; re-insert so the client's id error
        // on the *next* call, not this one, stays consistent.
        state.sessions.insert(service.name(), advanced)?;
    }
    let payload = serde_json::json!({
        "session": sid,
        "round": session.round() as u64,
        "rank_iterations": stats.rank_iterations as u64,
        "converged": stats.rank_converged,
        "results": ranked_json(&session, k),
    });
    Ok(Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_default(),
    ))
}

/// `GET /trace/<id>[?format=chrome|wire]`: one archived trace, as a
/// Chrome trace-event JSON document (the default, for humans) or in the
/// line-oriented wire format (for a stitching ingress edge assembling a
/// fleet-wide view).
fn handle_trace(state: &ServerState, id: &str, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.trace_us");
    telemetry.counter("server.trace_requests").incr();
    let Some(id) = parse_id(id) else {
        return Err(ServerError::BadRequest(
            "trace id must be an integer".into(),
        ));
    };
    let mut wire = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "format" => match value {
                "chrome" => wire = false,
                "wire" => wire = true,
                _ => {
                    return Err(ServerError::BadRequest(
                        "format must be chrome or wire".into(),
                    ));
                }
            },
            other => {
                return Err(ServerError::BadRequest(format!(
                    "unknown query parameter {other:?} (expected format)"
                )));
            }
        }
    }
    // The requested trace may still sit in the ring (e.g. traced by
    // another worker that hasn't drained yet): absorb before lookup.
    state.traces.absorb(orex_telemetry::tracer().drain());
    match state.traces.get(id) {
        Some(spans) if wire => Ok(Response::text(200, orex_telemetry::export::to_wire(&spans))),
        Some(spans) => Ok(Response::json(
            200,
            orex_telemetry::export::to_chrome_trace(&spans),
        )),
        None => Err(ServerError::NotFound("no such trace (evicted?)".into())),
    }
}

/// `GET /logs?level=&since=&limit=&trace=`: tails the captured log ring
/// as JSON-lines. `level` keeps records at that severity or worse,
/// `since` keeps records with a capture sequence strictly greater (the
/// `seq` field of each served line, for polling), `limit` keeps the
/// newest N, `trace` keeps records stamped with that trace id — the
/// logs leg of metrics → trace → logs correlation.
fn handle_logs(state: &ServerState, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.logs_us");
    telemetry.counter("server.logs_requests").incr();
    let mut level = None;
    let mut since = None;
    let mut limit = None;
    let mut trace = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "level" => level = Some(value.parse::<Level>().map_err(ServerError::BadRequest)?),
            "since" => {
                since = Some(value.parse::<u64>().map_err(|_| {
                    ServerError::BadRequest("since must be an unsigned integer".into())
                })?);
            }
            "limit" => {
                limit = Some(value.parse::<usize>().map_err(|_| {
                    ServerError::BadRequest("limit must be an unsigned integer".into())
                })?);
            }
            "trace" => {
                trace = Some(value.parse::<u64>().map_err(|_| {
                    ServerError::BadRequest("trace must be an unsigned integer".into())
                })?);
            }
            other => {
                return Err(ServerError::BadRequest(format!(
                    "unknown query parameter {other:?} (expected level|since|limit|trace)"
                )));
            }
        }
    }
    // Records may still sit in the logger's ring (emitted by workers
    // that haven't been drained): absorb before serving. The archive
    // keeps them for subsequent (and `since=`-cursored) reads.
    state.logs.absorb(orex_telemetry::logger().drain());
    // Every response advertises the newest capture sequence so pollers
    // always hold a valid cursor. A `since` beyond that cursor (stale
    // cursor from before a ring reset / server restart) serves an empty
    // page rather than stalling forever or replaying from the start —
    // the client resets its cursor from the header.
    let newest = state.logs.newest_seq().unwrap_or(0);
    let records = match since {
        Some(s) if s > newest => Vec::new(),
        _ => state.logs.query(level, since, limit, trace),
    };
    Ok(Response::new(
        200,
        "application/x-ndjson",
        orex_telemetry::export::log_json_lines(&records).into_bytes(),
    )
    .with_header("X-Orex-Log-Cursor", newest.to_string()))
}

/// `GET /profile?seconds=&format=folded|chrome`: folded span stacks (or
/// a Chrome trace-event view) aggregated from the continuous profiler's
/// rolling windows. `seconds=0` (the default) covers all retained
/// history. 503 when the sampler is off (`profile_hz = 0` and no
/// `OREX_PROFILE_HZ`).
fn handle_profile(query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.profile_us");
    telemetry.counter("server.profile_requests").incr();
    let mut seconds = 0u64;
    let mut format = "folded";
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "seconds" => {
                seconds = value.parse::<u64>().map_err(|_| {
                    ServerError::BadRequest("seconds must be an unsigned integer".into())
                })?;
            }
            "format" => match value {
                "folded" => format = "folded",
                "chrome" => format = "chrome",
                _ => {
                    return Err(ServerError::BadRequest(
                        "format must be folded or chrome".into(),
                    ));
                }
            },
            other => {
                return Err(ServerError::BadRequest(format!(
                    "unknown query parameter {other:?} (expected seconds|format)"
                )));
            }
        }
    }
    let profiler = orex_telemetry::profiler();
    if !profiler.is_running() {
        return Err(ServerError::Unavailable(
            "profiler is not running (start the server with a nonzero profile rate)".into(),
        ));
    }
    let snapshot = profiler.snapshot(seconds);
    Ok(match format {
        "chrome" => Response::json(200, snapshot.to_chrome()),
        _ => Response::text(200, snapshot.to_folded()),
    })
}

/// `GET /debug/status[?format=json]`: the operator dashboard. HTML by
/// default (self-refreshing, zero scripts); `format=json` serves the
/// machine-readable document `orex top` and CI consume.
fn handle_status(state: &ServerState, query: &str) -> Result<Response, ServerError> {
    let telemetry = orex_telemetry::global();
    let _span = telemetry.span("server.status_us");
    telemetry.counter("server.status_requests").incr();
    let mut json = false;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "format" => match value {
                "json" => json = true,
                "html" => json = false,
                _ => {
                    return Err(ServerError::BadRequest(
                        "format must be html or json".into(),
                    ));
                }
            },
            other => {
                return Err(ServerError::BadRequest(format!(
                    "unknown query parameter {other:?} (expected format)"
                )));
            }
        }
    }
    // Top up history so the page is fresh even between collector ticks
    // (and deterministic in tests, which poll faster than the cadence).
    state.status.collect_if_stale(Duration::from_millis(250));
    state.logs.absorb(orex_telemetry::logger().drain());
    let mut cache = 0usize;
    let mut precompute_terms = 0usize;
    for name in state.registry.names() {
        if let Some(svc) = state.registry.get_if_loaded(name) {
            cache += svc.ranks().cached_results();
            precompute_terms += svc.ranks().precomputed_terms();
        }
    }
    let occupancy = Occupancy {
        sessions: state.sessions.len(),
        cache,
        precompute_terms,
        traces: state.traces.len(),
        logs: state.logs.len(),
        recent_errors: state.logs.query(Some(Level::Error), None, None, None).len(),
    };
    Ok(if json {
        Response::json(200, state.status.render_json(occupancy))
    } else {
        Response::html(200, state.status.render_html(occupancy))
    })
}
