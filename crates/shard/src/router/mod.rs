//! The shard router: a standalone HTTP daemon that fronts a cluster of
//! `car-serve` workers.
//!
//! * `POST /v1/units` — parses the ingest body once, splits every unit
//!   into per-shard sub-units ([`crate::ring::ShardRing::split_unit`]),
//!   and forwards each worker its sub-batch in parallel. Every routed
//!   unit is also appended to a bounded replay ring so a worker that
//!   misses units can be caught up exactly. A batch is *always*
//!   answered `2xx` once it is committed to the replay ring — even when
//!   every worker is down the answer is `202` with `applied=false` and
//!   `partial=true`, never a retryable `503`, because a client retry
//!   would buffer (and later replay) the same units twice.
//! * `GET /v1/rules` — fans the query out to all live workers in
//!   parallel, merges their rule views ([`crate::merge`]), re-filters
//!   cycles at the router, and renders the merged rules through the
//!   worker serializer. Down shards are excluded; degraded responses
//!   carry `partial=true` and an `X-Car-Shards-Degraded` header. Each
//!   leg's `x-car-epoch` is collected and the merged body surfaces
//!   `epoch_min`/`epoch_max` so clients can detect cross-shard skew.
//! * `GET /v1/items` — fans out to all live workers and merges the
//!   per-item window support totals with a plain saturating sum: each
//!   transaction is owned by exactly one shard, so no support is
//!   counted twice. Degraded shards surface exactly as for rules.
//! * `GET /v1/health`, `GET /metrics`, `POST /v1/shutdown` — router
//!   health, Prometheus metrics (`car_shard_*`), graceful shutdown.
//! * `GET /v1/debug/traces` — tail-retained distributed traces: with no
//!   parameters, summaries of every retained trace (newest first); with
//!   `?trace_id=HEX`, the assembled span tree; with `&format=chrome`,
//!   the same trace as Chrome `trace_event` JSON (load it in
//!   `chrome://tracing` or Perfetto).
//!
//! ## One fan-out path
//!
//! Ingest, rules and items all reach the workers through one leg runner
//! (`RouterState::fan_out`): one scoped thread per worker locks it,
//! skips it unless it is `Up`, checks the remaining budget, sends with
//! the deadline and trace headers, classifies the reply and feeds the
//! breaker. Each route brings only its request (an ingest sub-batch, a
//! rebuilt query target) and its reply parser. Rules and items also
//! share one query answer: the budget, the fold of legs into views,
//! epochs and degraded shards, the `409`/`503`/`504` answers and the
//! response envelope; each keeps only its parameter checks, parser,
//! merge and payload rendering.
//!
//! Connections are served by car-serve's own connection loop
//! ([`car_serve::accept_loop`]), with `car serve`'s default 5 s
//! request-head deadline (a client dribbling its head is answered
//! `408`, so it cannot pin a router thread) and its 128-connection
//! admission gate (`503` with `Retry-After` beyond it).
//!
//! ## Distributed tracing
//!
//! Every router request begins (or adopts, via `X-Car-Trace-Id` /
//! `X-Car-Parent-Span`) a trace. Fan-out legs — ingest sends, rule
//! queries, health probes — forward the trace id and a freshly minted
//! leg-span uid as the parent, so each worker's own spans (request
//! handling, mining stages, WAL appends) nest under the leg that caused
//! them. Workers return their spans in the `X-Car-Spans` response
//! header; the router decodes them, adds its own leg spans (attributed
//! with shard id, breaker state, outcome, and epoch), assembles the
//! whole tree, and offers it to a tail-based [`TraceStore`]: errored
//! and slow traces are always retained, plus a deterministic 1-in-N
//! sample of the rest.
//!
//! ## Worker lifecycle
//!
//! Worker admission is governed by a per-shard **circuit breaker**
//! ([`crate::breaker`]): a worker is `Up` while its breaker is Closed,
//! `Down` while it is Open or Half-Open, and `Stale` when it fell
//! further behind than the replay ring remembers (terminal until the
//! operator resets it). Failed query legs and health probes feed the
//! breaker; at the consecutive-failure threshold it opens and the
//! worker is excluded. A failed ingest leg opens it at once: the worker
//! may have missed units of the batch, and answering from it would
//! shift its cycles against the other shards'. After the cooldown
//! the breaker admits a Half-Open probe trickle: the prober re-checks
//! the worker, computes exactly how many units it missed from its
//! accepted-unit count (`total_pushed + queue_depth`, baselined at
//! first contact), replays precisely those sub-units from the ring with
//! `?wait=true`, and only a fully caught-up probe closes the breaker
//! and re-admits the worker. Unit indices therefore stay aligned across
//! the cluster even through a worker crash and restart (WAL recovery
//! restores the acknowledged prefix; the router replays the rest).
//! Breaker states are exported as `car_shard_breaker_state` gauges and
//! a `breakers` block in `/v1/health`.
//!
//! ## Deadlines
//!
//! Every `/v1/rules` and `/v1/items` request gets a budget: the smaller
//! of the router's configured `request_budget` and the client's
//! `X-Car-Deadline-Ms` header. Each fan-out leg forwards the
//! *remaining* budget as `X-Car-Deadline-Ms`, and workers abort an
//! escalated assembly when it expires (answering `504
//! deadline_exceeded`), so one slow shard cannot pin the whole merge
//! past the deadline. A leg lost to the budget never counts against
//! its worker's breaker. When every live leg is lost, the router
//! answers `504 deadline_exceeded` itself and counts it in
//! `car_deadline_exceeded_total`. Ingest legs carry no deadline.
//!
//! ## Lock order
//!
//! `ingest` (the routing/replay state) is acquired before any
//! `workers[i]` mutex; a thread never holds two worker mutexes (each
//! fan-out leg locks only its own worker). The query fan-outs take
//! worker mutexes only. `/v1/health` and `/metrics` never take the
//! ingest lock at all — they read lock-free gauge mirrors — so external
//! monitors stay responsive while a fan-out or a catch-up replay holds
//! `ingest` through slow network I/O.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use car_itemset::ItemSet;
use car_obs::trace::{self, FinishedTrace, TraceStore, TraceStorePolicy};
use car_serve::http::{self, Response, DEFAULT_MAX_BODY_BYTES};
use car_serve::json::{object, Json};
use car_serve::metrics::{Metrics, Route};
use car_serve::sync::{log_warn, LockExt};
use car_serve::{RetryPolicy, RetryingClient, ServerConfig, Service};

use crate::breaker::{Breaker, BreakerConfig};
use crate::ring::{PartitionKey, ShardRing};

use self::admin::{debug_traces, health, metrics, shutdown};
use self::ingest::ingest;
use self::query::{items, rules};

mod admin;
mod ingest;
mod query;

/// How often the prober re-checks the shutdown flag while it sleeps.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// Router startup/runtime errors.
#[derive(Debug)]
pub enum RouterError {
    /// Invalid router configuration.
    Config(String),
    /// Socket or thread-spawn failure.
    Io(std::io::Error),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(msg) => write!(f, "configuration error: {msg}"),
            RouterError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Everything needed to boot a router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address (port 0 for ephemeral).
    pub addr: String,
    /// Worker addresses; index in this list is the worker's shard id.
    pub workers: Vec<String>,
    /// Threads serving router connections.
    pub threads: usize,
    /// Which transaction item selects the owning shard.
    pub key: PartitionKey,
    /// Retry policy for data-path requests to workers (per-request
    /// timeout plus exponential backoff with jitter on failures).
    pub retry: RetryPolicy,
    /// How often the prober re-checks worker health.
    pub probe_interval: Duration,
    /// Full units kept for catch-up replay; a worker that falls further
    /// behind than this is marked stale and stays excluded.
    pub replay_capacity: usize,
    /// Propagate `POST /v1/shutdown` to workers when the router stops
    /// (spawn mode owns its workers; attach mode leaves them running).
    pub shutdown_workers: bool,
    /// Per-connection socket read/write timeout on the router side.
    pub io_timeout: Duration,
    /// Maximum accepted request body size.
    pub max_body_bytes: usize,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Upper bound on a request's total deadline budget; the effective
    /// deadline is the smaller of this and the client's
    /// `X-Car-Deadline-Ms` header.
    pub request_budget: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7979".into(),
            workers: Vec::new(),
            threads: 4,
            key: PartitionKey::MinItem,
            retry: RetryPolicy { max_retries: 2, timeout: Duration::from_secs(2) },
            probe_interval: Duration::from_millis(250),
            replay_capacity: 512,
            shutdown_workers: false,
            io_timeout: Duration::from_secs(10),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            breaker: BreakerConfig::default(),
            request_budget: Duration::from_secs(10),
        }
    }
}

/// A worker's admission state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Healthy: receives ingest and rule queries.
    Up,
    /// Unreachable or failing: excluded, probed for recovery.
    Down,
    /// Fell behind the replay ring; cannot be caught up exactly, so it
    /// stays excluded (restart the cluster or the worker's data dir).
    Stale,
}

impl WorkerState {
    fn label(self) -> &'static str {
        match self {
            WorkerState::Up => "up",
            WorkerState::Down => "down",
            WorkerState::Stale => "stale",
        }
    }
}

struct Worker {
    shard_id: u32,
    addr: String,
    client: RetryingClient,
    breaker: Breaker,
    /// Terminal: the worker fell behind the replay ring and cannot be
    /// caught up exactly.
    stale: bool,
    /// The worker's accepted-unit count at first contact; units routed
    /// by this router are measured relative to it, so a worker with
    /// pre-existing history (recovered WAL) accounts correctly.
    baseline: Option<u64>,
    /// Transitions of this worker into the down state.
    downs: u64,
    /// Times this worker was re-admitted after catch-up replay.
    readmissions: u64,
    /// Units this worker accepted from catch-up replays, including
    /// replays it took only in part.
    catchup_units: u64,
}

impl Worker {
    /// Admission state, derived from staleness and the breaker.
    fn state(&self) -> WorkerState {
        if self.stale {
            WorkerState::Stale
        } else if self.breaker.allows_traffic() {
            WorkerState::Up
        } else {
            WorkerState::Down
        }
    }

    /// Feeds a failed exchange to the breaker; opening it excludes the
    /// worker from the data path (`Stale` is terminal and ignores
    /// further evidence).
    fn record_failure(&mut self) {
        if self.stale {
            return;
        }
        if self.breaker.record_failure(Instant::now()) {
            self.downs = self.downs.saturating_add(1);
            car_obs::warn!(
                "shard",
                [
                    shard = self.shard_id,
                    addr = self.addr.as_str(),
                    failures = self.breaker.consecutive_failures()
                ],
                "circuit breaker opened; worker excluded"
            );
        }
    }

    /// Opens the breaker at once, whatever its failure count: a worker
    /// that failed an ingest leg may lack units the other shards hold,
    /// and only re-admission's catch-up replay lines it up again.
    fn exclude(&mut self) {
        if self.state() != WorkerState::Up {
            return;
        }
        self.breaker.open_immediately(Instant::now());
        self.downs = self.downs.saturating_add(1);
        car_obs::warn!(
            "shard",
            [shard = self.shard_id, addr = self.addr.as_str()],
            "ingest leg failed; worker excluded until caught up"
        );
    }

    /// Feeds a successful exchange to the breaker; returns `true` when
    /// this success closed a Half-Open breaker (re-admission).
    fn record_success(&mut self) -> bool {
        if self.stale {
            return false;
        }
        self.breaker.record_success()
    }
}

/// A worker's parsed health answer, reduced to what the router needs.
struct HealthView {
    ready: bool,
    /// Units the worker has accepted responsibility for: applied
    /// (`total_pushed`) plus queued (`queue_depth`).
    accepted: u64,
}

fn probe_health(client: &mut RetryingClient) -> Option<HealthView> {
    // Probes run outside any request trace, so each one mints a fresh
    // context: probe traces are never retained router-side, but the
    // worker's request log carries a correlatable trace id.
    let headers = [
        (trace::TRACE_ID_HEADER, trace::mint_trace_id().to_hex()),
        (trace::PARENT_SPAN_HEADER, trace::mint_span_uid().to_hex()),
    ];
    let resp = client.request_once_with("GET", "/v1/health", &headers, None)?;
    if resp.status != 200 {
        return None;
    }
    let doc = Json::parse(&resp.body_text()).ok()?;
    let ready = doc.get("ready").and_then(Json::as_bool)?;
    let total = doc.get("total_pushed").and_then(Json::as_u64)?;
    let depth = doc.get("queue_depth").and_then(Json::as_u64)?;
    Some(HealthView { ready, accepted: total.saturating_add(depth) })
}

/// Routing state shared by ingest and the prober; guarded by one mutex
/// so catch-up replay and new ingest serialize.
struct IngestState {
    units_routed: u64,
    replay: VecDeque<Vec<ItemSet>>,
}

/// Everything the router's request handlers share.
pub struct RouterState {
    config: RouterConfig,
    ring: ShardRing,
    workers: Vec<Mutex<Worker>>,
    ingest: Mutex<IngestState>,
    /// Lock-free mirror of `ingest.units_routed`; `route_units` holds
    /// the ingest lock across worker sends (network I/O), so health and
    /// metrics read this instead of waiting behind it.
    units_routed_gauge: AtomicU64,
    /// Lock-free mirror of `ingest.replay.len()`, same reason.
    replay_depth_gauge: AtomicU64,
    /// Query legs (rules and items) that reached their budget check;
    /// ingest legs are not counted.
    fanout_legs: AtomicU64,
    /// Counted legs that failed or ran out of budget.
    fanout_failures: AtomicU64,
    /// Counted legs lost to an exhausted deadline budget.
    leg_deadlines: AtomicU64,
    /// Answers (ingest, rules or items) served with `partial=true`.
    partial_responses: AtomicU64,
    metrics: Metrics,
    /// Tail-retained distributed traces, served by `/v1/debug/traces`.
    traces: TraceStore,
    shutdown: AtomicBool,
}

impl RouterState {
    /// One prober pass: verify `Up` workers, try to re-admit `Down`
    /// ones.
    fn probe_once(&self) {
        for (i, worker) in self.workers.iter().enumerate() {
            let state = {
                let w = worker.lock_or_recover();
                w.state()
            };
            match state {
                WorkerState::Up => {
                    let mut w = worker.lock_or_recover();
                    if w.state() != WorkerState::Up {
                        continue;
                    }
                    match probe_health(&mut w.client) {
                        Some(h) if h.ready => {
                            w.record_success();
                        }
                        _ => w.record_failure(),
                    }
                }
                WorkerState::Down => self.try_readmit(i),
                WorkerState::Stale => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------------

impl Service for RouterState {
    const ROOT_SPAN: &'static str = "router.request";

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn handle(state: &Arc<RouterState>, req: &http::Request) -> (Route, Response) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/units") => (Route::IngestUnits, ingest(state, req)),
            ("GET", "/v1/rules") => (Route::Rules, rules(state, req)),
            ("GET", "/v1/items") => (Route::Items, items(state, req)),
            ("GET", "/v1/health") => (Route::Health, health(state)),
            ("GET", "/metrics") => (Route::Metrics, metrics(state)),
            ("POST", "/v1/shutdown") => (Route::Shutdown, shutdown(state)),
            ("GET", "/v1/debug/traces") => (Route::DebugTraces, debug_traces(state, req)),
            (
                _,
                "/v1/units" | "/v1/rules" | "/v1/items" | "/v1/health" | "/metrics"
                | "/v1/shutdown" | "/v1/debug/traces",
            ) => (Route::Other, Response::error(405, "method not allowed")),
            _ => (Route::Other, Response::error(404, "no such endpoint")),
        }
    }

    /// The router assembles the tree (its legs plus the worker spans
    /// they brought home) and offers it for tail retention; errored
    /// traces are always kept.
    fn finish_trace(&self, finished: FinishedTrace, response: Response) -> Response {
        let errored = response.status >= 500;
        let assembled =
            trace::assemble(finished.trace_id, finished.root_uid, finished.spans);
        self.traces.offer(assembled, errored);
        response
    }
}

impl RouterState {
    /// Adds the degraded marker header and counts the partial response.
    fn degrade(&self, resp: Response, degraded: &[u32]) -> Response {
        if degraded.is_empty() {
            return resp;
        }
        self.partial_responses.fetch_add(1, Ordering::Relaxed);
        resp.with_header("X-Car-Shards-Degraded", degraded.len().to_string())
    }
}

fn shard_state_json(shards: &[(u32, WorkerState)]) -> Json {
    Json::Array(
        shards
            .iter()
            .map(|&(id, s)| {
                object([
                    ("shard_id", Json::from(u64::from(id))),
                    ("state", Json::from(s.label())),
                ])
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Final statistics reported when the router exits.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouterStats {
    /// HTTP requests served by the router.
    pub requests: u64,
    /// Full units routed across the cluster.
    pub units_routed: u64,
    /// Seconds the router ran.
    pub uptime: Duration,
}

/// A running router.
pub struct RouterHandle {
    /// The actually-bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<RouterState>,
    accept_thread: JoinHandle<()>,
    prober_thread: JoinHandle<()>,
    started: Instant,
}

impl RouterHandle {
    /// The shared state (tests and embedding callers).
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Asks the router to shut down gracefully (idempotent).
    pub fn trigger_shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the router has exited; optionally shuts workers
    /// down too (`RouterConfig::shutdown_workers`).
    pub fn wait(self) -> RouterStats {
        if self.accept_thread.join().is_err() {
            log_warn("router accept thread panicked");
        }
        if self.prober_thread.join().is_err() {
            log_warn("router prober thread panicked");
        }
        if self.state.config.shutdown_workers {
            for worker in &self.state.workers {
                let mut w = worker.lock_or_recover();
                let _ = w.client.request_once("POST", "/v1/shutdown", None);
            }
        }
        RouterStats {
            requests: self.state.metrics.total_requests(),
            // audit:allow(a6-relaxed-mirror) reason="final stats snapshot after worker shutdown; the routing threads that wrote under the ingest lock have already been joined"
            units_routed: self.state.units_routed_gauge.load(Ordering::Relaxed),
            uptime: self.started.elapsed(),
        }
    }
}

/// Boots the router: binds the listener, contacts every worker once
/// (workers that do not answer start `Down` and are re-admitted by the
/// prober), and spawns the accept and prober threads.
///
/// # Errors
///
/// [`RouterError::Config`] for an empty worker list,
/// [`RouterError::Io`] when the address cannot be bound or threads
/// cannot spawn.
pub fn run_router(config: RouterConfig) -> Result<RouterHandle, RouterError> {
    car_obs::init_from_env();
    let worker_count = u32::try_from(config.workers.len())
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| RouterError::Config("at least one worker is required".into()))?;
    let Some(ring) = ShardRing::new(worker_count) else {
        return Err(RouterError::Config("at least one worker is required".into()));
    };

    let workers: Vec<Mutex<Worker>> = config
        .workers
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut client = RetryingClient::new(addr.clone(), config.retry);
            let mut breaker = Breaker::new(config.breaker);
            let mut downs = 0;
            let baseline = match probe_health(&mut client) {
                Some(h) if h.ready => Some(h.accepted),
                _ => {
                    // Never seen healthy: start Open; the prober's
                    // Half-Open trickle admits it once it answers.
                    breaker.open_immediately(Instant::now());
                    downs = 1;
                    None
                }
            };
            Mutex::new(Worker {
                shard_id: i as u32,
                addr: addr.clone(),
                client,
                breaker,
                stale: false,
                baseline,
                downs,
                readmissions: 0,
                catchup_units: 0,
            })
        })
        .collect();

    let state = Arc::new(RouterState {
        ring,
        workers,
        ingest: Mutex::new(IngestState {
            units_routed: 0,
            replay: VecDeque::with_capacity(config.replay_capacity),
        }),
        units_routed_gauge: AtomicU64::new(0),
        replay_depth_gauge: AtomicU64::new(0),
        fanout_legs: AtomicU64::new(0),
        fanout_failures: AtomicU64::new(0),
        leg_deadlines: AtomicU64::new(0),
        partial_responses: AtomicU64::new(0),
        metrics: Metrics::new(),
        traces: TraceStore::new(TraceStorePolicy::default()),
        shutdown: AtomicBool::new(false),
        config,
    });

    let addrs: Vec<SocketAddr> =
        state.config.addr.to_socket_addrs().map_err(RouterError::Io)?.collect();
    let listener = TcpListener::bind(&addrs[..]).map_err(RouterError::Io)?;
    listener.set_nonblocking(true).map_err(RouterError::Io)?;
    let addr = listener.local_addr().map_err(RouterError::Io)?;

    let pool = car_serve::pool::ThreadPool::new(state.config.threads, "car-shard-worker")
        .map_err(RouterError::Io)?;
    // Served by car-serve's connection loop with `car serve`'s default
    // head deadline and admission gate, and the router's own socket
    // timeout and body cap.
    let serving = ServerConfig {
        io_timeout: state.config.io_timeout,
        max_body_bytes: state.config.max_body_bytes,
        ..ServerConfig::default()
    };
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("car-shard-accept".into())
        .spawn(move || car_serve::accept_loop(&listener, &accept_state, pool, &serving))
        .map_err(RouterError::Io)?;

    let prober_state = Arc::clone(&state);
    let prober_thread = std::thread::Builder::new()
        .name("car-shard-probe".into())
        .spawn(move || prober_loop(&prober_state))
        .map_err(|e| {
            // Unwind the accept loop before reporting the failure.
            state.begin_shutdown();
            RouterError::Io(e)
        })?;

    car_obs::info!(
        "shard",
        [addr = addr, shards = state.ring.count()],
        "shard router listening"
    );
    Ok(RouterHandle {
        addr,
        state,
        accept_thread,
        prober_thread,
        started: Instant::now(),
    })
}

fn prober_loop(state: &Arc<RouterState>) {
    while !state.is_shutting_down() {
        // Sleep in short slices so shutdown is prompt.
        let mut remaining = state.config.probe_interval;
        while !remaining.is_zero() && !state.is_shutting_down() {
            let slice = remaining.min(SHUTDOWN_POLL);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if state.is_shutting_down() {
            break;
        }
        state.probe_once();
    }
}
