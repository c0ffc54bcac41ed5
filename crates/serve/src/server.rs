//! The daemon itself: listener, connection loop, graceful shutdown.
//!
//! The accept loop runs on its own thread with a non-blocking listener,
//! polling a shutdown flag between accepts; each accepted connection is
//! handed to the worker [`ThreadPool`](crate::pool::ThreadPool), which
//! serves keep-alive requests until the client closes, an error occurs,
//! or shutdown begins. A connection idle before or between requests
//! gives its thread up, with a `408`, as soon as another connection is
//! queued for one or shutdown begins, and otherwise after the socket
//! timeout. A busy connection gives its thread up too, after its fair
//! share of requests and only while another connection is queued,
//! saying `connection: close` on its last response.
//! Shutdown (via `POST /v1/shutdown`, SIGINT, or
//! [`ServerHandle::trigger_shutdown`]) stops accepting, lets in-flight
//! requests drain (the pool join), drains the ingest queue into the
//! miner, and returns final statistics.
//!
//! The loop is generic over a [`Service`], so the `car shard` router is
//! served by the same code, with the same head deadline and admission
//! gate, as a worker.

use std::io::{BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use car_core::MiningConfig;
use car_obs::trace::FinishedTrace;

use crate::http::{self, Request, RequestLimits, Response, DEFAULT_MAX_BODY_BYTES};
use crate::metrics::{Metrics, Route};
use crate::pool::Backlog;
use crate::routes;
use crate::state::{spawn_ingest_worker, AppState};
use crate::sync::{log_warn, RwLockExt};
use crate::ServeError;

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Requests a connection serves before it gives its thread up to a
/// connection queued for one, so that a chatty client cannot pin a
/// worker while others wait. A lone connection is never cut off, and the
/// response after which a connection closes says `connection: close`, so
/// its client reconnects instead of losing its next request.
const FAIR_SHARE_REQUESTS: usize = 10_000;

/// How long an idle connection waits for its next request between
/// checks for a connection queued behind it.
const IDLE_SLICE: Duration = Duration::from_millis(50);

/// Everything needed to boot a daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Sliding-window length, in time units.
    pub window: usize,
    /// Ingest queue capacity (backpressure beyond this).
    pub queue_capacity: usize,
    /// The mining configuration.
    pub mining: MiningConfig,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Maximum accepted request body size.
    pub max_body_bytes: usize,
    /// Budget for reading a request's head block, measured from its
    /// first byte (slow-loris defense). `None` disables the deadline.
    pub header_timeout: Option<Duration>,
    /// Connections served concurrently before the admission gate sheds
    /// new arrivals with `503 overloaded` + `Retry-After`. `0` disables
    /// shedding.
    pub max_inflight: usize,
    /// Install SIGINT/SIGTERM handlers and honour the process-wide
    /// signal flag. Off in tests (the flag is shared by the whole
    /// process), on in the CLI.
    pub handle_signals: bool,
    /// Durability configuration: data directory, fsync policy, snapshot
    /// cadence. `None` keeps the window memory-only (lost on restart).
    pub persist: Option<crate::persist::PersistConfig>,
    /// Cluster identity when this daemon runs as a shard worker under
    /// the `car shard` router; `None` for a standalone daemon.
    pub shard: Option<crate::state::ShardIdentity>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            window: 64,
            queue_capacity: 256,
            mining: MiningConfig::default(),
            io_timeout: Duration::from_secs(10),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            header_timeout: Some(Duration::from_secs(5)),
            max_inflight: 128,
            handle_signals: false,
            persist: None,
            shard: None,
        }
    }
}

/// Final statistics reported when the daemon drains and exits.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FinalStats {
    /// HTTP requests served.
    pub requests: u64,
    /// Time units applied to the miner.
    pub units_ingested: u64,
    /// Units evicted from the window.
    pub evictions: u64,
    /// Units retained at shutdown.
    pub units_retained: usize,
    /// Seconds the daemon ran.
    pub uptime: Duration,
}

/// A running daemon.
pub struct ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<AppState>,
    accept_thread: JoinHandle<()>,
    ingest_thread: JoinHandle<()>,
    started: Instant,
}

impl ServerHandle {
    /// The shared state (tests and embedding callers).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Asks the daemon to shut down gracefully (idempotent).
    pub fn trigger_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the daemon has fully drained and exited, returning
    /// final statistics.
    pub fn wait(self) -> FinalStats {
        if self.accept_thread.join().is_err() {
            log_warn("accept thread panicked; final stats may undercount");
        }
        if self.ingest_thread.join().is_err() {
            log_warn("ingest thread panicked; final stats may undercount");
        }
        let miner = self.state.miner.read_or_recover();
        FinalStats {
            requests: self.state.metrics.total_requests(),
            units_ingested: self.state.metrics.units_ingested(),
            evictions: miner.evictions(),
            units_retained: miner.len(),
            uptime: self.started.elapsed(),
        }
    }
}

/// Binds the listener and spawns the daemon threads.
///
/// # Errors
///
/// [`ServeError::Config`] for an invalid mining configuration or window,
/// [`ServeError::Io`] when the address cannot be bound.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, ServeError> {
    // Observability: honour CAR_LOG / CAR_LOG_FORMAT / CAR_SPANS, then
    // turn on span recording and event capture — the daemon serves them
    // back out through /metrics and the /v1/debug endpoints.
    car_obs::init_from_env();
    car_obs::set_spans_enabled(true);
    car_obs::set_capture(true);
    let state = AppState::new_with_shard(
        config.mining,
        config.window,
        config.queue_capacity,
        config.persist.clone(),
        config.shard,
    )?;
    let addrs: Vec<SocketAddr> =
        config.addr.to_socket_addrs().map_err(ServeError::Io)?.collect();
    let listener = TcpListener::bind(&addrs[..]).map_err(ServeError::Io)?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let addr = listener.local_addr().map_err(ServeError::Io)?;

    if config.handle_signals {
        crate::shutdown::install_signal_handlers();
    }
    let ingest_thread =
        spawn_ingest_worker(Arc::clone(&state)).map_err(ServeError::Io)?;
    // Build the pool here, not in the accept loop, so a failed worker
    // spawn surfaces as a startup error instead of a panic mid-serve.
    let pool = crate::pool::ThreadPool::new(config.threads, "car-worker")
        .map_err(ServeError::Io)?;
    let accept_state = Arc::clone(&state);
    let accept_config = config.clone();
    let spawn_result =
        std::thread::Builder::new().name("car-accept".into()).spawn(move || {
            accept_loop(&listener, &accept_state, pool, &accept_config);
        });
    let accept_thread = match spawn_result {
        Ok(handle) => handle,
        Err(e) => {
            // Unwind the already-running applier before reporting the
            // startup failure, so no thread outlives the error.
            state.begin_shutdown();
            if ingest_thread.join().is_err() {
                log_warn("ingest thread panicked during startup unwind");
            }
            return Err(ServeError::Io(e));
        }
    };

    car_obs::info!(
        "serve",
        [addr = addr, threads = config.threads, window = config.window],
        "daemon listening"
    );
    Ok(ServerHandle {
        addr,
        state,
        accept_thread,
        ingest_thread,
        started: Instant::now(),
    })
}

/// A daemon served by [`accept_loop`]: a worker ([`AppState`]) or the
/// `car shard` router.
pub trait Service: Send + Sync + 'static {
    /// The name of the trace root span each request opens.
    const ROOT_SPAN: &'static str;

    /// The request counters and latency histograms.
    fn metrics(&self) -> &Metrics;

    /// Whether shutdown has begun: the accept loop stops and keep-alive
    /// connections are told to close.
    fn is_shutting_down(&self) -> bool;

    /// Begins shutdown (idempotent).
    fn begin_shutdown(&self);

    /// Answers one request, returning its route (for metrics).
    fn handle(service: &Arc<Self>, request: &Request) -> (Route, Response);

    /// Disposes of a request's finished trace and returns the response
    /// to write.
    fn finish_trace(&self, trace: FinishedTrace, response: Response) -> Response;

    /// A flat-profile span timing each whole request, its write
    /// included; `None` keeps requests out of the flat profile.
    fn request_span(&self) -> Option<car_obs::SpanGuard> {
        None
    }
}

impl Service for AppState {
    const ROOT_SPAN: &'static str = "serve.request";

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn is_shutting_down(&self) -> bool {
        AppState::is_shutting_down(self)
    }

    fn begin_shutdown(&self) {
        AppState::begin_shutdown(self);
    }

    fn handle(state: &Arc<AppState>, request: &Request) -> (Route, Response) {
        routes::handle(state, request)
    }

    /// A worker ships its spans back to the caller (the shard router
    /// stamps fan-out legs) and into its own span ring.
    fn finish_trace(&self, trace: FinishedTrace, response: Response) -> Response {
        let spans = car_obs::trace::encode_spans(&trace.spans);
        car_obs::trace::publish_spans(&trace.spans);
        response.with_header(car_obs::trace::SPANS_HEADER, spans)
    }

    /// Taken before the trace arms, so it stays flat-only: the trace's
    /// root span already covers the request, and a duplicate
    /// `serve.request` child would be noise in every tree.
    fn request_span(&self) -> Option<car_obs::SpanGuard> {
        Some(car_obs::time_span!("serve.request"))
    }
}

/// Per-connection serving policy, shared by the accept loop and every
/// worker thread: socket timeouts, parse limits, the bounded in-flight
/// admission gate, and the pool's backlog.
struct ConnPolicy {
    io_timeout: Duration,
    limits: RequestLimits,
    /// Connections queued for a pool thread; an idle keep-alive
    /// connection closes to free its thread while one waits.
    backlog: Backlog,
    /// Admission limit; `0` disables shedding.
    max_inflight: usize,
    /// Connections currently being served.
    inflight: AtomicUsize,
}

impl ConnPolicy {
    /// Tries to admit one connection; `false` means shed it.
    fn admit(&self) -> bool {
        if self.max_inflight == 0 {
            return true;
        }
        // Optimistic increment: over-admission by a racing accept is
        // impossible because there is a single accept thread.
        // audit:allow(a6-relaxed-control) reason="the single accept thread performs every load; a worker's release may lag one decision, which at worst sheds one connection early — the gate is a bound, not an invariant"
        if self.inflight.load(Ordering::Relaxed) >= self.max_inflight {
            return false;
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn release(&self) {
        if self.max_inflight != 0 {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Releases an admitted connection's slot on drop (panic-safe).
struct InflightSlot<'a>(&'a ConnPolicy);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Sheds a connection the admission gate rejected: a one-shot `503`
/// with `Retry-After`, written from the accept thread (bounded by a
/// short write timeout so a dead peer cannot stall accepts).
fn shed_connection(mut stream: TcpStream) {
    car_obs::counters::RESILIENCE.add_shed();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut writer = BufWriter::new(&mut stream);
    // audit:allow(a4-discard) reason="same shed path: the response is advisory and the connection is dropped either way"
    let _ = Response::error(503, "overloaded; connection limit reached")
        .with_header("retry-after", "1")
        .with_close()
        .write_to(&mut writer);
    drop(writer);
    // Half-close and briefly drain the request bytes we never read:
    // closing with unread data in the receive buffer sends an RST that
    // can destroy the in-flight 503 before the client reads it. The
    // short read timeout bounds how long a hostile peer can pin the
    // accept thread.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 1024];
    let mut drained = 0usize;
    while let Ok(n) = std::io::Read::read(&mut stream, &mut scratch) {
        if n == 0 {
            break;
        }
        drained += n;
        if drained >= 64 * 1024 {
            break;
        }
    }
}

/// Serves `service` on `listener` until it shuts down (or, with
/// [`ServerConfig::handle_signals`], until SIGINT/SIGTERM): each
/// connection runs on `pool` under `config`'s socket timeout, request
/// limits, head deadline and admission gate. Returns once in-flight
/// connections have drained.
pub fn accept_loop<S: Service>(
    listener: &TcpListener,
    service: &Arc<S>,
    pool: crate::pool::ThreadPool,
    config: &ServerConfig,
) {
    let policy = Arc::new(ConnPolicy {
        io_timeout: config.io_timeout,
        limits: RequestLimits {
            max_head_bytes: http::MAX_HEAD_BYTES,
            max_body_bytes: config.max_body_bytes,
            header_timeout: config.header_timeout,
        },
        backlog: pool.backlog(),
        max_inflight: config.max_inflight,
        inflight: AtomicUsize::new(0),
    });
    loop {
        if service.is_shutting_down()
            || (config.handle_signals && crate::shutdown::signalled())
        {
            // A signal may arrive without anything having closed the
            // ingest queue yet.
            service.begin_shutdown();
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if !policy.admit() {
                    shed_connection(stream);
                    continue;
                }
                let service = Arc::clone(service);
                let policy = Arc::clone(&policy);
                pool.execute(move || {
                    // Guard, not a trailing call: the slot must free
                    // even if a handler panics mid-connection.
                    let _slot = InflightSlot(&policy);
                    serve_connection(stream, &service, &policy);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept errors (e.g. ECONNABORTED): back off
                // briefly rather than spinning.
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    // In-flight connections drain here; the ingest queue is closed, so
    // the ingest worker exits once it has applied everything accepted.
    pool.join();
}

/// Serves one connection until close, error, shutdown, or its fair
/// share of requests while another connection waits.
fn serve_connection<S: Service>(
    stream: TcpStream,
    service: &Arc<S>,
    policy: &ConnPolicy,
) {
    if stream.set_read_timeout(Some(policy.io_timeout)).is_err()
        || stream.set_write_timeout(Some(policy.io_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let metrics = service.metrics();

    let mut served: usize = 0;
    loop {
        let next = await_next_request(&mut reader, &**service, policy);
        let started = Instant::now();
        let read =
            next.and_then(|()| http::read_request_limited(&mut reader, &policy.limits));
        let request = match read {
            Ok(request) => request,
            Err(http::ParseError::ConnectionClosed) => return,
            Err(e) => {
                metrics.record_parse_error();
                if matches!(e, http::ParseError::HeadTimeout) {
                    car_obs::counters::RESILIENCE.add_header_timeout();
                }
                let (status, _) = e.status();
                // audit:allow(a4-discard) reason="best-effort courtesy reply on a connection that already failed parsing; if the write also fails there is no one left to tell and the connection closes either way"
                let _ = Response::error(status, &e.to_string())
                    .with_close()
                    .write_to(&mut writer);
                // A parse failure is still a served request: record it
                // under the catch-all route so it appears in the request
                // totals and the latency histogram, not only in the
                // dedicated parse-error counter. An idle timeout is
                // excluded — no request bytes ever arrived, so there is
                // no request to count.
                if !matches!(e, http::ParseError::Timeout) {
                    metrics.record_request(Route::Other, status, started.elapsed());
                    car_obs::debug!(
                        "serve",
                        [id = car_obs::next_request_id(), status = status],
                        "request rejected by the HTTP parser: {e}"
                    );
                }
                return;
            }
        };
        let request_id = car_obs::next_request_id();
        let request_span = service.request_span();
        // Adopt the caller's trace context (the shard router stamps
        // fan-out legs; a client may propagate its own trace through the
        // router) or mint a fresh trace; hostile or malformed headers
        // fall back to a fresh trace, never an error.
        let ctx = car_obs::trace::TraceContext::from_headers(
            request.header(car_obs::trace::TRACE_ID_HEADER),
            request.header(car_obs::trace::PARENT_SPAN_HEADER),
        );
        let trace = car_obs::trace::begin_request(ctx, S::ROOT_SPAN);
        let trace_hex = trace.trace_id().map_or_else(String::new, |id| id.to_hex());
        let (route, mut response) = S::handle(service, &request);
        // Handler children are closed now, so these land on the root.
        car_obs::trace::annotate("route", route.label());
        car_obs::trace::annotate("status", &response.status.to_string());
        // Finish before writing: the response must carry the trace id
        // (and a worker's spans), so the root cannot cover its own
        // serialization.
        if let Some(finished) = trace.finish() {
            response = response
                .with_header(car_obs::trace::TRACE_ID_HEADER, finished.trace_id.to_hex());
            response = service.finish_trace(finished, response);
        }
        served = served.saturating_add(1);
        // During shutdown, tell keep-alive clients to go away, and a
        // connection past its fair share while another waits.
        if request.wants_close()
            || service.is_shutting_down()
            || (served >= FAIR_SHARE_REQUESTS && policy.backlog.is_waiting())
        {
            response.close = true;
        }
        let close = response.close;
        let write_result = response.write_to(&mut writer);
        drop(request_span);
        metrics.record_request(route, response.status, started.elapsed());
        car_obs::debug!(
            "serve",
            [
                id = request_id,
                trace_id = trace_hex,
                status = response.status,
                us = started.elapsed().as_micros()
            ],
            "{} {}",
            request.method,
            request.path
        );
        if close || write_result.is_err() {
            return;
        }
    }
}

/// Waits for the first byte of a connection's next request, its first
/// included, in [`IDLE_SLICE`] steps, so that an idle or silent
/// connection holds its pool thread only while no other connection is
/// queued for one. Gives up with [`http::ParseError::Timeout`], which
/// closes the connection with a `408`, once a connection is queued,
/// shutdown begins, or the idle wait reaches `io_timeout`.
fn await_next_request<S: Service>(
    reader: &mut BufReader<TcpStream>,
    service: &S,
    policy: &ConnPolicy,
) -> Result<(), http::ParseError> {
    if !reader.buffer().is_empty() {
        return Ok(());
    }
    let idle_since = Instant::now();
    reader.get_ref().set_read_timeout(Some(IDLE_SLICE.min(policy.io_timeout)))?;
    let waited = loop {
        match reader.fill_buf() {
            Ok(_) => break Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if policy.backlog.is_waiting()
                    || service.is_shutting_down()
                    || idle_since.elapsed() >= policy.io_timeout
                {
                    break Err(http::ParseError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e.into()),
        }
    };
    reader.get_ref().set_read_timeout(Some(policy.io_timeout))?;
    waited
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            window: 8,
            queue_capacity: 16,
            mining: MiningConfig::builder()
                .min_support_fraction(0.5)
                .min_confidence(0.5)
                .cycle_bounds(2, 2)
                .build()
                .unwrap(),
            io_timeout: Duration::from_secs(2),
            max_body_bytes: 64 * 1024,
            header_timeout: Some(Duration::from_secs(5)),
            max_inflight: 128,
            handle_signals: false,
            persist: None,
            shard: None,
        }
    }

    fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_health_and_shuts_down() {
        let handle = serve(test_config()).unwrap();
        let addr = handle.addr;
        let resp =
            roundtrip(addr, b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""));

        let resp = roundtrip(addr, b"POST /v1/shutdown HTTP/1.1\r\n\r\n");
        assert!(resp.contains("shutting_down"));
        let stats = handle.wait();
        assert_eq!(stats.requests, 2);
        // The port is released after wait().
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Some platforms accept briefly during teardown; a fresh
                // bind proves the listener is gone.
                TcpListener::bind(addr).is_ok()
            }
        );
    }

    #[test]
    fn responses_carry_trace_headers_and_adopt_caller_context() {
        let handle = serve(test_config()).unwrap();
        // No inbound context: a fresh trace id is minted.
        let resp = roundtrip(
            handle.addr,
            b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        let fresh_id = resp
            .lines()
            .find_map(|l| l.strip_prefix("x-car-trace-id: "))
            .expect("minted trace id header")
            .trim()
            .to_string();
        assert!(car_obs::trace::TraceId::from_hex(&fresh_id).is_some(), "{fresh_id}");
        assert!(resp.contains("x-car-spans: "), "{resp}");

        // Valid inbound context is adopted verbatim; the spans payload
        // names the adopted parent on its root record.
        let caller_id = "00000000000000000000000000abcdef";
        let parent = "00000000000000c1";
        let raw = format!(
            "GET /v1/health HTTP/1.1\r\nx-car-trace-id: {caller_id}\r\n\
             x-car-parent-span: {parent}\r\nconnection: close\r\n\r\n"
        );
        let resp = roundtrip(handle.addr, raw.as_bytes());
        assert!(resp.contains(&format!("x-car-trace-id: {caller_id}")), "{resp}");
        let spans = resp
            .lines()
            .find_map(|l| l.strip_prefix("x-car-spans: "))
            .expect("spans header");
        let decoded = car_obs::trace::decode_spans(
            car_obs::trace::TraceId::from_hex(caller_id).unwrap(),
            spans.trim(),
        );
        let root = decoded.iter().find(|s| s.name == "serve.request").expect("root");
        assert_eq!(root.parent, car_obs::trace::SpanUid::from_hex(parent));

        // Hostile context must not 500 — a fresh trace starts instead.
        let resp = roundtrip(
            handle.addr,
            b"GET /v1/health HTTP/1.1\r\nx-car-trace-id: '; DROP TABLE--\r\n\
              x-car-parent-span: not-hex!!\r\nconnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let minted = resp
            .lines()
            .find_map(|l| l.strip_prefix("x-car-trace-id: "))
            .expect("fresh trace id");
        assert!(car_obs::trace::TraceId::from_hex(minted.trim()).is_some());
        handle.trigger_shutdown();
        handle.wait();
    }

    #[test]
    fn malformed_request_gets_4xx_over_the_wire() {
        let handle = serve(test_config()).unwrap();
        let resp = roundtrip(handle.addr, b"BOGUS-LINE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        handle.trigger_shutdown();
        let stats = handle.wait();
        // Parse failures are served requests too: counted under the
        // catch-all route (and in the parse-error counter).
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn invalid_window_is_a_config_error() {
        let mut config = test_config();
        config.window = 1; // below l_max = 2
        assert!(matches!(serve(config), Err(ServeError::Config(_))));
    }

    #[test]
    fn admission_gate_sheds_with_retry_after() {
        let mut config = test_config();
        config.max_inflight = 1;
        let handle = serve(config).unwrap();
        // Occupy the single slot with an idle keep-alive connection.
        let mut holder = TcpStream::connect(handle.addr).unwrap();
        holder.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(holder.try_clone().unwrap());
        assert_eq!(crate::client::read_response(&mut reader).unwrap().status, 200);
        // The next connection must be shed with 503 + Retry-After; poll
        // briefly since the holder's slot is released asynchronously if
        // the OS raced the accept.
        let resp = roundtrip(handle.addr, b"GET /v1/health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("retry-after: 1"), "{resp}");
        assert!(resp.contains("overloaded"), "{resp}");
        drop(holder);
        drop(reader);
        // Once the holder closes, admission recovers. Transient resets
        // while the slot frees up are retried, not failed.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let resp = (|| -> std::io::Result<String> {
                let mut stream = TcpStream::connect(handle.addr)?;
                stream
                    .write_all(b"GET /v1/health HTTP/1.1\r\nconnection: close\r\n\r\n")?;
                let mut out = String::new();
                stream.read_to_string(&mut out)?;
                Ok(out)
            })()
            .unwrap_or_default();
            if resp.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(Instant::now() < deadline, "admission never recovered: {resp}");
            std::thread::sleep(Duration::from_millis(25));
        }
        handle.trigger_shutdown();
        handle.wait();
    }

    #[test]
    fn slow_loris_head_is_cut_off_at_the_deadline() {
        let mut config = test_config();
        config.header_timeout = Some(Duration::from_millis(200));
        let handle = serve(config).unwrap();
        let before = car_obs::counters::RESILIENCE.snapshot().header_timeouts;
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Dribble a head one fragment at a time, never finishing it.
        let mut out = String::new();
        for fragment in ["GET /v1/hea", "lth HT", "TP/1.1\r\n", "host: h\r\n"] {
            stream.write_all(fragment.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(120));
            // Server may have closed already mid-dribble; that's the
            // expected cut-off, so stop writing.
            if stream.read_to_string(&mut out).is_ok() {
                break;
            }
        }
        assert!(
            out.starts_with("HTTP/1.1 408") || out.is_empty(),
            "expected a 408 or a bare close, got: {out}"
        );
        assert!(
            car_obs::counters::RESILIENCE.snapshot().header_timeouts > before,
            "header timeout counter must advance"
        );
        handle.trigger_shutdown();
        handle.wait();
    }

    /// Sends `/v1/health` on `stream` and reads the answer's status.
    fn health_status(stream: &TcpStream) -> u16 {
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        crate::client::read_response(&mut reader).expect("response").status
    }

    #[test]
    fn idle_keep_alive_connections_free_a_thread_for_a_queued_one() {
        // Four clients hold every thread of a four-thread pool, well
        // inside `io_timeout`: idle after one request each, or connected
        // and silent.
        for served_first in [true, false] {
            let mut config = test_config();
            config.threads = 4;
            config.io_timeout = Duration::from_secs(10);
            let handle = serve(config).unwrap();
            let idle: Vec<TcpStream> = (0..4)
                .map(|_| {
                    let stream = TcpStream::connect(handle.addr).unwrap();
                    if served_first {
                        assert_eq!(health_status(&stream), 200);
                    }
                    stream
                })
                .collect();
            let started = Instant::now();
            let fifth = TcpStream::connect(handle.addr).unwrap();
            fifth.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            assert_eq!(health_status(&fifth), 200);
            let waited = started.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "the fifth client waited {waited:?} (served first: {served_first})"
            );
            // The connection that gave its thread up said so with a 408.
            let closed = idle.iter().filter(|stream| {
                stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                crate::client::read_response(&mut reader).is_ok_and(|r| r.status == 408)
            });
            assert!(closed.count() >= 1, "served first: {served_first}");
            handle.trigger_shutdown();
            handle.wait();
        }
    }

    #[test]
    fn a_lone_idle_keep_alive_connection_is_kept() {
        let handle = serve(test_config()).unwrap();
        let stream = TcpStream::connect(handle.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // Silent, then idle, for several slices each with nothing
        // queued: the same socket gets its first and its next request
        // answered.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(health_status(&stream), 200);
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(health_status(&stream), 200);
        // Neither wait is part of a request's latency.
        let exposition = handle.state().metrics.render_prometheus(&[]);
        let seconds: f64 = exposition
            .lines()
            .find_map(|l| l.strip_prefix("car_http_request_duration_seconds_sum "))
            .and_then(|v| v.trim().parse().ok())
            .expect("latency sum");
        assert!(seconds < 0.25, "two health requests took {seconds} s");
        handle.trigger_shutdown();
        handle.wait();
    }

    #[test]
    fn a_connection_past_its_fair_share_closes_only_for_a_queued_one() {
        let mut config = test_config();
        config.threads = 1;
        let handle = serve(config).unwrap();
        let busy = TcpStream::connect(handle.addr).unwrap();
        busy.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut writer = busy.try_clone().unwrap();
        let mut reader = BufReader::new(busy);
        let mut health = || {
            writer.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
            let response = crate::client::read_response(&mut reader).expect("response");
            assert_eq!(response.status, 200);
            response.header("connection") == Some("close")
        };
        // Alone, the connection keeps its thread past its share.
        for served in 1..=FAIR_SHARE_REQUESTS + 1 {
            assert!(!health(), "closed after {served} requests with nothing queued");
        }
        // Once another connection is queued for the only thread, the busy
        // one is told to close after its next request, and the queued one
        // is served.
        let queued = TcpStream::connect(handle.addr).unwrap();
        queued.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !health() {
            assert!(Instant::now() < deadline, "the busy connection never yielded");
        }
        assert_eq!(health_status(&queued), 200);
        handle.trigger_shutdown();
        handle.wait();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let handle = serve(test_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for _ in 0..3 {
            stream.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let response = crate::client::read_response(&mut reader).expect("response");
            assert_eq!(response.status, 200);
        }
        handle.trigger_shutdown();
        handle.wait();
    }
}
