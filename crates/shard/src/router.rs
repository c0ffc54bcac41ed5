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
//! operator resets it). Failed exchanges — data-path sends, fan-out
//! legs, health probes — feed the breaker; at the consecutive-failure
//! threshold it opens and the worker is excluded. After the cooldown
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
//! Every `/v1/rules` request gets a budget: the smaller of the router's
//! configured `request_budget` and the client's `X-Car-Deadline-Ms`
//! header. Each fan-out leg forwards the *remaining* budget as
//! `X-Car-Deadline-Ms`, and workers abort an escalated assembly when
//! it expires (answering `504 deadline_exceeded`), so one slow shard
//! cannot pin the whole merge past the deadline.
//!
//! ## Lock order
//!
//! `ingest` (the routing/replay state) is acquired before any
//! `workers[i]` mutex; a thread never holds two worker mutexes. The
//! rules fan-out takes worker mutexes only. `/v1/health` and `/metrics`
//! never take the ingest lock at all — they read lock-free gauge
//! mirrors — so external monitors stay responsive while a fan-out or a
//! catch-up replay holds `ingest` through slow network I/O.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use car_itemset::ItemSet;
use car_obs::counters::SHARD;
use car_obs::trace::{self, SpanRecord, SpanUid, TraceId, TraceStore, TraceStorePolicy};
use car_serve::http::{self, Response, DEFAULT_MAX_BODY_BYTES};
use car_serve::json::{object, Json};
use car_serve::metrics::{Metrics, Route};
use car_serve::sync::{log_warn, LockExt};
use car_serve::{RetryPolicy, RetryingClient};

use crate::breaker::{Breaker, BreakerConfig, BreakerState};
use crate::ring::{PartitionKey, ShardRing};

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Requests served per connection before forcing a close.
const MAX_REQUESTS_PER_CONNECTION: usize = 10_000;

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
            SHARD.add_down_transition();
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

    /// Feeds a successful exchange to the breaker; returns `true` when
    /// this success closed a Half-Open breaker (re-admission).
    fn record_success(&mut self) -> bool {
        if self.stale {
            return false;
        }
        self.breaker.record_success()
    }
}

/// One worker's admission + breaker view, read under its mutex.
struct WorkerSnapshot {
    shard_id: u32,
    state: WorkerState,
    breaker: BreakerState,
    consecutive_failures: u32,
    opens: u64,
}

impl WorkerSnapshot {
    /// The `car_shard_breaker_state` gauge encoding; `Stale` extends
    /// the breaker encoding with 3 (terminally excluded).
    fn gauge_value(&self) -> u64 {
        if self.state == WorkerState::Stale {
            3
        } else {
            self.breaker.gauge_value()
        }
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
    metrics: Metrics,
    /// Tail-retained distributed traces, served by `/v1/debug/traces`.
    traces: TraceStore,
    shutdown: AtomicBool,
}

/// Outcome of routing one ingest batch.
struct RouteOutcome {
    applied: bool,
    units_routed: u64,
    /// Per worker, in shard order: post-send state plus whether this
    /// batch's send to it succeeded. The `ok` flag — not the state —
    /// decides degradation, so the very first failed send is already a
    /// `partial` response even while the breaker is still counting
    /// failures toward its threshold.
    shards: Vec<(u32, WorkerState, bool)>,
}

impl RouteOutcome {
    fn degraded(&self) -> Vec<u32> {
        self.shards.iter().filter(|(_, _, ok)| !ok).map(|(id, _, _)| *id).collect()
    }

    fn states(&self) -> Vec<(u32, WorkerState)> {
        self.shards.iter().map(|&(id, s, _)| (id, s)).collect()
    }
}

/// One fan-out leg's disposition.
enum Leg {
    Ok {
        view: crate::merge::ShardView,
        /// The worker's `x-car-epoch` (units applied when the body was
        /// rendered), used to surface cross-shard skew.
        epoch: Option<u64>,
    },
    Skipped(u32),
    Failed(u32),
    /// The leg's share of the deadline budget ran out (locally, or the
    /// worker answered `504 deadline_exceeded`). Not breaker evidence:
    /// a client-chosen tiny budget must not open breakers on healthy
    /// workers.
    TimedOut(u32),
    Warming,
    BadRequest(Response),
}

/// The leg's trace-attribute outcome label.
fn leg_outcome(leg: &Leg) -> &'static str {
    match leg {
        Leg::Ok { .. } => "ok",
        Leg::Skipped(_) => "skipped",
        Leg::Failed(_) => "failed",
        Leg::TimedOut(_) => "timed_out",
        Leg::Warming => "warming",
        Leg::BadRequest(_) => "bad_request",
    }
}

/// Elapsed wall time of a leg, saturating at `u64::MAX` microseconds.
fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The active trace context, copied before a fan-out so scoped leg
/// threads (which do not see the request thread's trace) can stamp
/// forwarded headers and time their legs as plain span records.
#[derive(Clone, Copy)]
struct LegTraceContext {
    trace_id: TraceId,
    root_uid: SpanUid,
}

impl LegTraceContext {
    fn capture() -> Option<LegTraceContext> {
        trace::current_context()
            .map(|(trace_id, root_uid)| LegTraceContext { trace_id, root_uid })
    }

    /// The forwarded headers for one leg: the trace id plus the leg
    /// span's uid as the worker's parent.
    fn headers(self, leg_uid: SpanUid) -> [(&'static str, String); 2] {
        [
            (trace::TRACE_ID_HEADER, self.trace_id.to_hex()),
            (trace::PARENT_SPAN_HEADER, leg_uid.to_hex()),
        ]
    }

    /// One finished leg span.
    fn leg_span(
        self,
        leg_uid: SpanUid,
        name: &str,
        start_us: u64,
        started: Instant,
        attrs: Vec<(String, String)>,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            uid: leg_uid,
            parent: Some(self.root_uid),
            name: name.to_string(),
            start_us,
            dur_us: elapsed_us(started),
            attrs,
        }
    }

    /// Worker spans returned in a leg response's `X-Car-Spans` header.
    fn worker_spans(self, resp: Option<&car_serve::ClientResponse>) -> Vec<SpanRecord> {
        resp.and_then(|r| r.header(trace::SPANS_HEADER))
            .map(|raw| trace::decode_spans(self.trace_id, raw))
            .unwrap_or_default()
    }
}

fn units_to_body(units: &[Vec<ItemSet>]) -> Vec<u8> {
    let batch: Vec<Json> = units
        .iter()
        .map(|unit| {
            let txs: Vec<Json> = unit
                .iter()
                .map(|tx| {
                    Json::Array(tx.iter().map(|item| Json::from(item.id())).collect())
                })
                .collect();
            object([("transactions", Json::Array(txs))])
        })
        .collect();
    Json::Array(batch).render().into_bytes()
}

impl RouterState {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins shutdown (idempotent).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The router's tail-retained trace store (tests and embedders).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Per-worker admission + breaker snapshot (brief per-worker locks).
    fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers
            .iter()
            .map(|w| {
                let w = w.lock_or_recover();
                WorkerSnapshot {
                    shard_id: w.shard_id,
                    state: w.state(),
                    breaker: w.breaker.state(),
                    consecutive_failures: w.breaker.consecutive_failures(),
                    opens: w.breaker.opens(),
                }
            })
            .collect()
    }

    /// Routes a batch of full units: records them for replay, then
    /// sends each live worker its aligned sub-batch in parallel.
    fn route_units(&self, units: Vec<Vec<ItemSet>>, wait: bool) -> RouteOutcome {
        let n = units.len();
        let count = self.ring.count() as usize;
        let mut ingest = self.ingest.lock_or_recover();

        // splits[shard] = this batch's sub-units for that shard.
        let mut splits: Vec<Vec<Vec<ItemSet>>> =
            (0..count).map(|_| Vec::with_capacity(n)).collect();
        for unit in &units {
            for (sub, per_shard) in
                self.ring.split_unit(unit, self.config.key).into_iter().zip(&mut splits)
            {
                per_shard.push(sub);
            }
        }
        for unit in units {
            if ingest.replay.len() >= self.config.replay_capacity {
                ingest.replay.pop_front();
            }
            ingest.replay.push_back(unit);
        }
        ingest.units_routed = ingest.units_routed.saturating_add(n as u64);
        SHARD.add_units_routed(n as u64);
        let units_routed = ingest.units_routed;
        self.units_routed_gauge.store(units_routed, Ordering::Relaxed);
        self.replay_depth_gauge.store(ingest.replay.len() as u64, Ordering::Relaxed);

        let target = if wait { "/v1/units?wait=true" } else { "/v1/units" };
        let leg_ctx = LegTraceContext::capture();
        // (shard_id, post-send state, send ok, batch applied, leg spans)
        type Send = (u32, WorkerState, bool, bool, Vec<SpanRecord>);
        let sends: Vec<Send> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .zip(splits)
                .map(|(worker, sub_batch)| {
                    scope.spawn(move || {
                        let mut w = worker.lock_or_recover();
                        let leg_uid = trace::mint_span_uid();
                        let start_us = trace::wall_now_us();
                        let started = Instant::now();
                        let breaker = w.breaker.state().label();
                        if w.state() != WorkerState::Up {
                            let spans = leg_ctx.map_or_else(Vec::new, |ctx| {
                                vec![ctx.leg_span(
                                    leg_uid,
                                    "router.leg.ingest",
                                    start_us,
                                    started,
                                    vec![
                                        ("shard".into(), w.shard_id.to_string()),
                                        ("breaker".into(), breaker.into()),
                                        ("outcome".into(), "skipped".into()),
                                    ],
                                )]
                            });
                            return (w.shard_id, w.state(), false, false, spans);
                        }
                        let body = units_to_body(&sub_batch);
                        let headers = leg_ctx
                            .map(|ctx| ctx.headers(leg_uid).to_vec())
                            .unwrap_or_default();
                        let response = w.client.request_with(
                            "POST",
                            target,
                            &headers,
                            Some(&body),
                            None,
                        );
                        let (ok, applied) = match &response {
                            Some(resp) if resp.status == 200 || resp.status == 202 => {
                                match batch_fully_accepted(&resp.body, n) {
                                    Some(applied) => {
                                        w.record_success();
                                        (true, applied)
                                    }
                                    None => {
                                        w.record_failure();
                                        (false, false)
                                    }
                                }
                            }
                            _ => {
                                w.record_failure();
                                (false, false)
                            }
                        };
                        let spans = leg_ctx.map_or_else(Vec::new, |ctx| {
                            let mut spans = ctx.worker_spans(response.as_ref());
                            spans.push(ctx.leg_span(
                                leg_uid,
                                "router.leg.ingest",
                                start_us,
                                started,
                                vec![
                                    ("shard".into(), w.shard_id.to_string()),
                                    ("breaker".into(), breaker.into()),
                                    (
                                        "outcome".into(),
                                        if ok { "ok" } else { "failed" }.into(),
                                    ),
                                ],
                            ));
                            spans
                        });
                        (w.shard_id, w.state(), ok, applied, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(shard_id, h)| match h.join() {
                    Ok(send) => send,
                    Err(_) => {
                        log_warn("shard send thread panicked");
                        (shard_id as u32, WorkerState::Down, false, false, Vec::new())
                    }
                })
                .collect()
        });
        drop(ingest);
        // Back on the request thread: fold every leg's spans (its own
        // timing plus the worker spans it brought home) into the trace.
        for (_, _, _, _, spans) in &sends {
            for span in spans {
                trace::record_span(span.clone());
            }
        }

        let applied = wait
            && sends.iter().any(|(_, _, ok, _, _)| *ok)
            && sends.iter().all(|(_, _, ok, applied, _)| !ok || *applied);
        RouteOutcome {
            applied,
            units_routed,
            shards: sends.iter().map(|(id, s, ok, _, _)| (*id, *s, *ok)).collect(),
        }
    }

    /// Attempts to re-admit worker `i`: waits out the breaker cooldown,
    /// verifies the worker is healthy (the Half-Open trial), computes
    /// exactly how many routed units it has not accepted, replays those
    /// sub-units from the ring, and only then lets the breaker close.
    /// Holding the ingest lock throughout keeps new units from racing
    /// past the replay.
    fn try_readmit(&self, i: usize) {
        let Some(worker) = self.workers.get(i) else { return };
        let ingest = self.ingest.lock_or_recover();
        let mut w = worker.lock_or_recover();
        if w.state() != WorkerState::Down {
            return;
        }
        if !w.breaker.probe_ready(Instant::now()) {
            // Still cooling down; no probe traffic at all.
            return;
        }
        let Some(health) = probe_health(&mut w.client) else {
            w.record_failure();
            return;
        };
        if !health.ready {
            w.record_failure();
            return;
        }
        let baseline = *w.baseline.get_or_insert(health.accepted);
        let caught_up = health.accepted.saturating_sub(baseline);
        let behind = ingest.units_routed.saturating_sub(caught_up);
        if behind > ingest.replay.len() as u64 {
            w.stale = true;
            car_obs::error!(
                "shard",
                [shard = w.shard_id, behind = behind, ring = ingest.replay.len()],
                "worker is behind the replay ring; marking stale (cannot catch up)"
            );
            return;
        }
        if behind > 0 {
            let skip = ingest.replay.len().saturating_sub(behind as usize);
            let sub_units: Vec<Vec<ItemSet>> = ingest
                .replay
                .iter()
                .skip(skip)
                .filter_map(|unit| {
                    self.ring.split_unit(unit, self.config.key).into_iter().nth(i)
                })
                .collect();
            let body = units_to_body(&sub_units);
            let ok = match w.client.request("POST", "/v1/units?wait=true", Some(&body)) {
                Some(resp) if resp.status == 200 || resp.status == 202 => {
                    batch_fully_accepted(&resp.body, sub_units.len()).is_some()
                }
                _ => false,
            };
            if !ok {
                // Still flaky; reopen and restart the cooldown.
                w.record_failure();
                return;
            }
        }
        if w.record_success() {
            SHARD.add_readmission();
            SHARD.add_catchup_units(behind);
            car_obs::info!(
                "shard",
                [shard = w.shard_id, replayed = behind],
                "breaker closed; worker re-admitted after catch-up"
            );
        }
    }

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

/// Parses a worker's batch-ingest response and confirms every unit was
/// accepted; returns the response's `applied` flag, or `None` when the
/// worker rejected any unit (it must then be caught up via replay).
fn batch_fully_accepted(body: &[u8], expected: usize) -> Option<bool> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Json::parse(text).ok()?;
    let accepted = doc.get("accepted").and_then(Json::as_u64)?;
    if accepted != expected as u64 {
        return None;
    }
    Some(doc.get("applied").and_then(Json::as_bool).unwrap_or(false))
}

// ---------------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------------

/// Dispatches one router request.
pub fn handle(state: &Arc<RouterState>, req: &http::Request) -> (Route, Response) {
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

/// Adds the degraded marker header and counts the partial response.
fn degrade(resp: Response, degraded: &[u32]) -> Response {
    if degraded.is_empty() {
        return resp;
    }
    SHARD.add_partial_response();
    resp.with_header("X-Car-Shards-Degraded", degraded.len().to_string())
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

fn ingest(state: &Arc<RouterState>, req: &http::Request) -> Response {
    if state.is_shutting_down() {
        return Response::error(503, "router is shutting down");
    }
    let (units, _) = match car_serve::routes::parse_units_body(&req.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::error(400, &msg),
    };
    if units.is_empty() {
        return Response::error(400, "empty unit batch");
    }
    let n = units.len();
    let wait = matches!(req.query_param("wait"), Some("true" | "1"));
    // The batch is committed to the replay ring inside route_units, so
    // from here the answer must be a non-retryable 2xx: a 503 would make
    // RetryingClient re-send a batch the router already owns, buffering
    // and replaying the same units twice. With every worker down this is
    // a 202 with applied=false and partial=true; replay catches the
    // workers up on re-admission.
    let outcome = state.route_units(units, wait);
    let degraded = outcome.degraded();
    let status = if wait && outcome.applied { 200 } else { 202 };
    let body = object([
        ("accepted", Json::from(n)),
        ("applied", Json::from(outcome.applied)),
        ("partial", Json::from(!degraded.is_empty())),
        ("units_routed", Json::from(outcome.units_routed)),
        ("shards", shard_state_json(&outcome.states())),
    ]);
    degrade(Response::json(status, &body), &degraded)
}

/// Builds the worker fan-out target from the router-validated
/// parameters only, re-rendered from their parsed values. Client query
/// strings arrive percent-DECODED and must never be copied verbatim
/// into the worker request line: a value like `%0d%0a...` would inject
/// CR/LF (request smuggling) into every worker connection. Rendering
/// `u32`/`f64` values emits only `[0-9.eE-]`, which is always safe in a
/// request target; parameters the router does not understand are
/// dropped (workers ignore unknown parameters anyway).
fn worker_rules_target(
    length: Option<u32>,
    offset: Option<u32>,
    min_confidence: Option<f64>,
) -> String {
    let mut target = String::from("/v1/rules");
    let params = [
        ("length", length.map(|v| v.to_string())),
        ("offset", offset.map(|v| v.to_string())),
        // f64 Display is the shortest string that round-trips to the
        // same bits, so the worker parses the exact client value.
        ("min_confidence", min_confidence.map(|v| v.to_string())),
    ];
    for (name, value) in params.iter().filter_map(|(n, v)| v.as_ref().map(|v| (n, v))) {
        target.push(if target.len() == "/v1/rules".len() { '?' } else { '&' });
        target.push_str(name);
        target.push('=');
        target.push_str(value);
    }
    target
}

fn parse_u32_param(req: &http::Request, name: &str) -> Result<Option<u32>, Response> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<u32>().map(Some).map_err(|_| {
            Response::error(400, &format!("invalid {name} `{raw}` (need a u32)"))
        }),
    }
}

fn rules(state: &Arc<RouterState>, req: &http::Request) -> Response {
    let length = match parse_u32_param(req, "length") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let offset = match parse_u32_param(req, "offset") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    // Validated here so only a parsed value ever reaches the worker
    // request line; the stricter threshold check (against the worker's
    // mining configuration) still happens worker-side and surfaces as a
    // forwarded 400.
    let min_confidence = match req.query_param("min_confidence") {
        None => None,
        Some(raw) => match raw.parse::<f64>() {
            Ok(q) if (0.0..=1.0).contains(&q) => Some(q),
            _ => {
                return Response::error(
                    400,
                    &format!("invalid min_confidence `{raw}` (need 0..=1)"),
                )
            }
        },
    };
    let target = worker_rules_target(length, offset, min_confidence);
    // The request's deadline budget: the router's configured bound,
    // shrunk by the client's own deadline when one is propagated in.
    let budget = req
        .header("x-car-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(state.config.request_budget, |d| d.min(state.config.request_budget));
    let deadline = Instant::now() + budget;

    let leg_ctx = LegTraceContext::capture();
    let legs: Vec<Leg> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .workers
            .iter()
            .map(|worker| {
                let target = target.as_str();
                scope.spawn(move || {
                    let mut w = worker.lock_or_recover();
                    let leg_uid = trace::mint_span_uid();
                    let start_us = trace::wall_now_us();
                    let started = Instant::now();
                    let breaker = w.breaker.state().label();
                    let mut worker_spans = Vec::new();
                    let mut epoch_attr = None;
                    let leg = (|w: &mut Worker| {
                        if w.state() != WorkerState::Up {
                            return Leg::Skipped(w.shard_id);
                        }
                        let remaining =
                            deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            SHARD.add_fanout_failures(1);
                            SHARD.add_deadline_exceeded();
                            return Leg::TimedOut(w.shard_id);
                        }
                        // Forward the remaining budget so the worker can
                        // abort an escalated assembly instead of pinning
                        // the merge past the deadline — and the trace
                        // context, so the worker's spans nest under this
                        // leg.
                        let mut headers = vec![(
                            "X-Car-Deadline-Ms",
                            u64::try_from(remaining.as_millis())
                                .unwrap_or(u64::MAX)
                                .to_string(),
                        )];
                        if let Some(ctx) = leg_ctx {
                            headers.extend(ctx.headers(leg_uid));
                        }
                        SHARD.add_fanout_legs(1);
                        let response = w.client.request_with(
                            "GET",
                            target,
                            &headers,
                            None,
                            Some(deadline),
                        );
                        if let Some(ctx) = leg_ctx {
                            worker_spans = ctx.worker_spans(response.as_ref());
                        }
                        match response {
                            Some(resp) if resp.status == 200 => {
                                match crate::merge::parse_rules_body(&resp.body_text()) {
                                    Ok(view) => {
                                        w.record_success();
                                        let epoch = resp
                                            .header("x-car-epoch")
                                            .and_then(|v| v.parse::<u64>().ok());
                                        epoch_attr = epoch;
                                        Leg::Ok { view, epoch }
                                    }
                                    Err(msg) => {
                                        SHARD.add_fanout_failures(1);
                                        car_obs::warn!(
                                            "shard",
                                            [shard = w.shard_id],
                                            "unparsable rules body: {msg}"
                                        );
                                        Leg::Failed(w.shard_id)
                                    }
                                }
                            }
                            Some(resp) if resp.status == 409 => Leg::Warming,
                            Some(resp) if resp.status == 400 => {
                                // The worker's body is already a JSON error
                                // document; forward it untouched rather than
                                // re-wrapping (double-encoding) it.
                                Leg::BadRequest(Response::json_bytes(400, resp.body))
                            }
                            Some(resp) if resp.status == 504 => {
                                SHARD.add_fanout_failures(1);
                                SHARD.add_deadline_exceeded();
                                Leg::TimedOut(w.shard_id)
                            }
                            Some(_) => {
                                SHARD.add_fanout_failures(1);
                                w.record_failure();
                                Leg::Failed(w.shard_id)
                            }
                            None => {
                                SHARD.add_fanout_failures(1);
                                if Instant::now() >= deadline {
                                    // The attempt was cut short by the budget,
                                    // not necessarily by a sick worker.
                                    SHARD.add_deadline_exceeded();
                                    Leg::TimedOut(w.shard_id)
                                } else {
                                    w.record_failure();
                                    Leg::Failed(w.shard_id)
                                }
                            }
                        }
                    })(&mut w);
                    let spans = leg_ctx.map_or_else(Vec::new, |ctx| {
                        let mut attrs = vec![
                            ("shard".into(), w.shard_id.to_string()),
                            ("breaker".into(), breaker.to_string()),
                            ("outcome".into(), leg_outcome(&leg).into()),
                        ];
                        if let Some(epoch) = epoch_attr {
                            attrs.push(("epoch".into(), epoch.to_string()));
                        }
                        let mut spans = std::mem::take(&mut worker_spans);
                        spans.push(ctx.leg_span(
                            leg_uid,
                            "router.leg.rules",
                            start_us,
                            started,
                            attrs,
                        ));
                        spans
                    });
                    (leg, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard_id, h)| match h.join() {
                Ok((leg, spans)) => {
                    for span in spans {
                        trace::record_span(span);
                    }
                    leg
                }
                Err(_) => {
                    log_warn("shard fan-out thread panicked");
                    Leg::Failed(shard_id as u32)
                }
            })
            .collect()
    });

    let mut views = Vec::new();
    let mut epochs = Vec::new();
    let mut degraded = Vec::new();
    let mut warming = false;
    let mut timed_out = false;
    for leg in legs {
        match leg {
            Leg::Ok { view, epoch } => {
                epochs.extend(epoch);
                views.push(view);
            }
            Leg::Skipped(id) | Leg::Failed(id) => degraded.push(id),
            Leg::TimedOut(id) => {
                timed_out = true;
                degraded.push(id);
            }
            Leg::Warming => warming = true,
            // A worker rejected the parameters; every worker shares the
            // configuration, so forward its answer as ours.
            Leg::BadRequest(resp) => return resp,
        }
    }
    degraded.sort_unstable();
    if warming {
        return degrade(
            Response::error(409, "the window holds fewer units than l_max"),
            &degraded,
        );
    }
    if views.is_empty() {
        if timed_out {
            return degrade(Response::error(504, "deadline_exceeded"), &degraded);
        }
        return degrade(Response::error(503, "no live shard workers"), &degraded);
    }

    let units_retained = views.iter().map(|v| v.units_retained).max().unwrap_or(0);
    let window = views.iter().map(|v| v.window).max().unwrap_or(0);
    // Ingest is applied asynchronously per worker, so legs can answer
    // at different epochs; surfacing the spread lets clients detect a
    // merged view that matches no single-node snapshot (epoch_min !=
    // epoch_max) and re-query if they need agreement.
    let epoch_json = |e: Option<&u64>| e.map_or(Json::Null, |&e| Json::from(e));
    let merged = crate::merge::merge_rule_views(views.into_iter().map(|v| v.rules));
    let rendered: Vec<Json> = merged
        .iter()
        .filter_map(|r| car_serve::routes::rule_to_json(r, length, offset))
        .collect();
    let body = object([
        ("units_retained", Json::from(units_retained)),
        ("window", Json::from(window)),
        ("epoch_min", epoch_json(epochs.iter().min())),
        ("epoch_max", epoch_json(epochs.iter().max())),
        ("count", Json::from(rendered.len())),
        ("partial", Json::from(!degraded.is_empty())),
        (
            "degraded",
            Json::Array(degraded.iter().map(|&id| Json::from(u64::from(id))).collect()),
        ),
        ("rules", Json::Array(rendered)),
    ]);
    degrade(Response::json(200, &body), &degraded)
}

/// One `/v1/items` fan-out leg's disposition. Unlike rules legs there
/// is no warming or bad-request case: workers answer item supports at
/// any window occupancy and the route takes no parameters.
enum ItemsLeg {
    Ok { view: crate::merge::ItemsView, epoch: Option<u64> },
    Skipped(u32),
    Failed(u32),
    TimedOut(u32),
}

fn items_leg_outcome(leg: &ItemsLeg) -> &'static str {
    match leg {
        ItemsLeg::Ok { .. } => "ok",
        ItemsLeg::Skipped(_) => "skipped",
        ItemsLeg::Failed(_) => "failed",
        ItemsLeg::TimedOut(_) => "timed_out",
    }
}

/// Fans `GET /v1/items` out to all live workers and merges the
/// per-item support totals with a plain sum — each transaction is
/// owned by exactly one shard, so no support is counted twice. Down
/// or deadline-blown shards are excluded and surface as `partial`.
fn items(state: &Arc<RouterState>, req: &http::Request) -> Response {
    let budget = req
        .header("x-car-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(state.config.request_budget, |d| d.min(state.config.request_budget));
    let deadline = Instant::now() + budget;

    let leg_ctx = LegTraceContext::capture();
    let legs: Vec<ItemsLeg> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .workers
            .iter()
            .map(|worker| {
                scope.spawn(move || {
                    let mut w = worker.lock_or_recover();
                    let leg_uid = trace::mint_span_uid();
                    let start_us = trace::wall_now_us();
                    let started = Instant::now();
                    let breaker = w.breaker.state().label();
                    let mut worker_spans = Vec::new();
                    let mut epoch_attr = None;
                    let leg = (|w: &mut Worker| {
                        if w.state() != WorkerState::Up {
                            return ItemsLeg::Skipped(w.shard_id);
                        }
                        let remaining =
                            deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            SHARD.add_fanout_failures(1);
                            SHARD.add_deadline_exceeded();
                            return ItemsLeg::TimedOut(w.shard_id);
                        }
                        let mut headers = vec![(
                            "X-Car-Deadline-Ms",
                            u64::try_from(remaining.as_millis())
                                .unwrap_or(u64::MAX)
                                .to_string(),
                        )];
                        if let Some(ctx) = leg_ctx {
                            headers.extend(ctx.headers(leg_uid));
                        }
                        SHARD.add_fanout_legs(1);
                        let response = w.client.request_with(
                            "GET",
                            "/v1/items",
                            &headers,
                            None,
                            Some(deadline),
                        );
                        if let Some(ctx) = leg_ctx {
                            worker_spans = ctx.worker_spans(response.as_ref());
                        }
                        match response {
                            Some(resp) if resp.status == 200 => {
                                match crate::merge::parse_items_body(&resp.body_text()) {
                                    Ok(view) => {
                                        w.record_success();
                                        let epoch = resp
                                            .header("x-car-epoch")
                                            .and_then(|v| v.parse::<u64>().ok());
                                        epoch_attr = epoch;
                                        ItemsLeg::Ok { view, epoch }
                                    }
                                    Err(msg) => {
                                        SHARD.add_fanout_failures(1);
                                        car_obs::warn!(
                                            "shard",
                                            [shard = w.shard_id],
                                            "unparsable items body: {msg}"
                                        );
                                        ItemsLeg::Failed(w.shard_id)
                                    }
                                }
                            }
                            Some(resp) if resp.status == 504 => {
                                SHARD.add_fanout_failures(1);
                                SHARD.add_deadline_exceeded();
                                ItemsLeg::TimedOut(w.shard_id)
                            }
                            Some(_) => {
                                SHARD.add_fanout_failures(1);
                                w.record_failure();
                                ItemsLeg::Failed(w.shard_id)
                            }
                            None => {
                                SHARD.add_fanout_failures(1);
                                if Instant::now() >= deadline {
                                    SHARD.add_deadline_exceeded();
                                    ItemsLeg::TimedOut(w.shard_id)
                                } else {
                                    w.record_failure();
                                    ItemsLeg::Failed(w.shard_id)
                                }
                            }
                        }
                    })(&mut w);
                    let spans = leg_ctx.map_or_else(Vec::new, |ctx| {
                        let mut attrs = vec![
                            ("shard".into(), w.shard_id.to_string()),
                            ("breaker".into(), breaker.to_string()),
                            ("outcome".into(), items_leg_outcome(&leg).into()),
                        ];
                        if let Some(epoch) = epoch_attr {
                            attrs.push(("epoch".into(), epoch.to_string()));
                        }
                        let mut spans = std::mem::take(&mut worker_spans);
                        spans.push(ctx.leg_span(
                            leg_uid,
                            "router.leg.items",
                            start_us,
                            started,
                            attrs,
                        ));
                        spans
                    });
                    (leg, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(shard_id, h)| match h.join() {
                Ok((leg, spans)) => {
                    for span in spans {
                        trace::record_span(span);
                    }
                    leg
                }
                Err(_) => {
                    log_warn("shard fan-out thread panicked");
                    ItemsLeg::Failed(shard_id as u32)
                }
            })
            .collect()
    });

    let mut views = Vec::new();
    let mut epochs = Vec::new();
    let mut degraded = Vec::new();
    let mut timed_out = false;
    for leg in legs {
        match leg {
            ItemsLeg::Ok { view, epoch } => {
                epochs.extend(epoch);
                views.push(view);
            }
            ItemsLeg::Skipped(id) | ItemsLeg::Failed(id) => degraded.push(id),
            ItemsLeg::TimedOut(id) => {
                timed_out = true;
                degraded.push(id);
            }
        }
    }
    degraded.sort_unstable();
    if views.is_empty() {
        if timed_out {
            return degrade(Response::error(504, "deadline_exceeded"), &degraded);
        }
        return degrade(Response::error(503, "no live shard workers"), &degraded);
    }

    let units_retained = views.iter().map(|v| v.units_retained).max().unwrap_or(0);
    let window = views.iter().map(|v| v.window).max().unwrap_or(0);
    let epoch_json = |e: Option<&u64>| e.map_or(Json::Null, |&e| Json::from(e));
    let merged = crate::merge::merge_item_supports(views.into_iter().map(|v| v.items));
    let rendered: Vec<Json> = merged
        .iter()
        .map(|(id, support)| {
            object([("id", Json::from(*id)), ("support", Json::from(*support))])
        })
        .collect();
    let body = object([
        ("units_retained", Json::from(units_retained)),
        ("window", Json::from(window)),
        ("epoch_min", epoch_json(epochs.iter().min())),
        ("epoch_max", epoch_json(epochs.iter().max())),
        ("count", Json::from(rendered.len())),
        ("partial", Json::from(!degraded.is_empty())),
        (
            "degraded",
            Json::Array(degraded.iter().map(|&id| Json::from(u64::from(id))).collect()),
        ),
        ("items", Json::Array(rendered)),
    ]);
    degrade(Response::json(200, &body), &degraded)
}

fn health(state: &Arc<RouterState>) -> Response {
    let snapshots = state.worker_snapshots();
    let shards: Vec<(u32, WorkerState)> =
        snapshots.iter().map(|s| (s.shard_id, s.state)).collect();
    let degraded = shards.iter().filter(|(_, s)| *s != WorkerState::Up).count();
    // Gauge, not the ingest lock: health must answer promptly even
    // while a fan-out holds `ingest` through worker retries.
    // audit:allow(a6-relaxed-mirror) reason="documented staleness contract: the gauge is an advisory mirror of ingest-lock state so health never blocks behind a fan-out"
    let units_routed = state.units_routed_gauge.load(Ordering::Relaxed);
    let status = if state.is_shutting_down() { "shutting_down" } else { "ok" };
    let breakers = Json::Array(
        snapshots
            .iter()
            .map(|s| {
                object([
                    ("shard_id", Json::from(u64::from(s.shard_id))),
                    ("state", Json::from(s.breaker.label())),
                    (
                        "consecutive_failures",
                        Json::from(u64::from(s.consecutive_failures)),
                    ),
                    ("opens", Json::from(s.opens)),
                ])
            })
            .collect(),
    );
    Response::json(
        200,
        &object([
            ("status", Json::from(status)),
            ("ready", Json::from(!state.is_shutting_down())),
            ("role", Json::from("router")),
            ("shard_count", Json::from(u64::from(state.ring.count()))),
            ("degraded_shards", Json::from(degraded)),
            ("units_routed", Json::from(units_routed)),
            ("workers", shard_state_json(&shards)),
            ("breakers", breakers),
        ]),
    )
}

fn metrics(state: &Arc<RouterState>) -> Response {
    let snapshots = state.worker_snapshots();
    let shards: Vec<(u32, WorkerState)> =
        snapshots.iter().map(|s| (s.shard_id, s.state)).collect();
    let count_state =
        |s: WorkerState| shards.iter().filter(|(_, w)| *w == s).count() as f64;
    // audit:allow(a6-relaxed-mirror) reason="metrics scrape reads the advisory replay-depth mirror; exact depth is only meaningful under the ingest lock and a scrape must not take it"
    let replay_buffered = state.replay_depth_gauge.load(Ordering::Relaxed) as f64;
    let mut text = state.metrics.render_prometheus(&[
        ("car_shard_workers_up", "Shard workers currently admitted.", {
            count_state(WorkerState::Up)
        }),
        ("car_shard_workers_down", "Shard workers currently excluded.", {
            count_state(WorkerState::Down)
        }),
        (
            "car_shard_workers_stale",
            "Shard workers terminally behind the replay ring.",
            count_state(WorkerState::Stale),
        ),
        (
            "car_shard_replay_buffered_units",
            "Full units retained for catch-up replay.",
            replay_buffered,
        ),
    ]);
    // Per-shard breaker state as a labeled gauge; labeled samples are
    // rendered by hand because `render_prometheus` takes unlabeled
    // names only.
    text.push_str(
        "# HELP car_shard_breaker_state Per-shard circuit breaker state \
         (0=closed, 1=half_open, 2=open, 3=stale).\n\
         # TYPE car_shard_breaker_state gauge\n",
    );
    for snapshot in &snapshots {
        text.push_str("car_shard_breaker_state{shard=\"");
        text.push_str(&snapshot.shard_id.to_string());
        text.push_str("\"} ");
        text.push_str(&snapshot.gauge_value().to_string());
        text.push('\n');
    }
    let snap = SHARD.snapshot();
    for (name, help, value) in [
        (
            "car_shard_fanout_total",
            "Rule-query legs fanned out to live shard workers.",
            snap.fanout_legs,
        ),
        (
            "car_shard_fanout_failures_total",
            "Fan-out legs that failed or returned an unusable body.",
            snap.fanout_failures,
        ),
        (
            "car_shard_down_total",
            "Transitions of a worker into the down state.",
            snap.down_transitions,
        ),
        (
            "car_shard_readmissions_total",
            "Workers re-admitted after catch-up replay.",
            snap.readmissions,
        ),
        (
            "car_shard_catchup_units_total",
            "Units replayed to re-admitted workers.",
            snap.catchup_units,
        ),
        (
            "car_shard_units_routed_total",
            "Full units routed across the cluster.",
            snap.units_routed,
        ),
        (
            "car_shard_partial_responses_total",
            "Responses served with one or more shards excluded.",
            snap.partial_responses,
        ),
        (
            "car_shard_deadline_exceeded_total",
            "Fan-out legs lost to an exhausted deadline budget.",
            snap.deadline_exceeded,
        ),
    ] {
        text.push_str("# HELP ");
        text.push_str(name);
        text.push(' ');
        text.push_str(help);
        text.push_str("\n# TYPE ");
        text.push_str(name);
        text.push_str(" counter\n");
        text.push_str(name);
        text.push(' ');
        text.push_str(&value.to_string());
        text.push('\n');
    }
    // Trace tail-retention counters (car_trace_retained_total and
    // friends) come in via render_prometheus above — the router and
    // the store share the process-global TRACE counters, so rendering
    // them here as well would emit a duplicate family.
    Response::text(200, text)
}

/// `GET /v1/debug/traces`: retained-trace summaries, or — with
/// `?trace_id=HEX` — one assembled tree, as span JSON or (with
/// `&format=chrome`) Chrome `trace_event` JSON.
fn debug_traces(state: &Arc<RouterState>, req: &http::Request) -> Response {
    let Some(raw) = req.query_param("trace_id") else {
        let traces: Vec<Json> = state
            .traces
            .summaries()
            .iter()
            .map(|s| {
                object([
                    ("trace_id", Json::from(s.trace_id.to_hex())),
                    ("duration_us", Json::from(s.duration_us)),
                    ("spans", Json::from(s.spans)),
                    ("reason", Json::from(s.reason.label())),
                ])
            })
            .collect();
        return Response::json(
            200,
            &object([
                ("count", Json::from(traces.len())),
                ("capacity", Json::from(state.traces.policy().capacity)),
                ("traces", Json::Array(traces)),
            ]),
        );
    };
    let Some(trace_id) = TraceId::from_hex(raw) else {
        return Response::error(
            400,
            "invalid trace_id (need 32 lowercase hex digits, non-zero)",
        );
    };
    let Some(stored) = state.traces.get(trace_id) else {
        return Response::error(404, "no retained trace with that id");
    };
    if req.query_param("format") == Some("chrome") {
        return Response::json_bytes(
            200,
            trace::chrome_trace_json(&stored.trace).into_bytes(),
        );
    }
    let spans: Vec<Json> =
        stored.trace.spans.iter().map(car_serve::routes::span_to_json).collect();
    Response::json(
        200,
        &object([
            ("trace_id", Json::from(trace_id.to_hex())),
            ("reason", Json::from(stored.reason.label())),
            ("duration_us", Json::from(stored.trace.duration_us)),
            ("count", Json::from(spans.len())),
            ("spans", Json::Array(spans)),
        ]),
    )
}

fn shutdown(state: &Arc<RouterState>) -> Response {
    state.begin_shutdown();
    Response::json(200, &object([("status", Json::from("shutting_down"))])).with_close()
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
            let baseline = match probe_health(&mut client) {
                Some(h) if h.ready => Some(h.accepted),
                _ => {
                    // Never seen healthy: start Open; the prober's
                    // Half-Open trickle admits it once it answers.
                    breaker.open_immediately(Instant::now());
                    SHARD.add_down_transition();
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
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("car-shard-accept".into())
        .spawn(move || accept_loop(&listener, &accept_state, pool))
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

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<RouterState>,
    pool: car_serve::pool::ThreadPool,
) {
    loop {
        if state.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(state);
                pool.execute(move || serve_connection(stream, &state));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    pool.join();
}

fn prober_loop(state: &Arc<RouterState>) {
    while !state.is_shutting_down() {
        // Sleep in short slices so shutdown is prompt.
        let mut remaining = state.config.probe_interval;
        while !remaining.is_zero() && !state.is_shutting_down() {
            let slice = remaining.min(ACCEPT_POLL);
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if state.is_shutting_down() {
            break;
        }
        state.probe_once();
    }
}

/// Serves one router connection until close, error, limit, or shutdown.
fn serve_connection(stream: TcpStream, state: &Arc<RouterState>) {
    let io_timeout = state.config.io_timeout;
    if stream.set_read_timeout(Some(io_timeout)).is_err()
        || stream.set_write_timeout(Some(io_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);

    for _ in 0..MAX_REQUESTS_PER_CONNECTION {
        let started = Instant::now();
        let request = match http::read_request(&mut reader, state.config.max_body_bytes) {
            Ok(request) => request,
            Err(http::ParseError::ConnectionClosed) => return,
            Err(e) => {
                state.metrics.record_parse_error();
                let (status, _) = e.status();
                // audit:allow(a4-discard) reason="best-effort courtesy reply on a connection that already failed parsing; the connection closes either way"
                let _ = Response::error(status, &e.to_string())
                    .with_close()
                    .write_to(&mut writer);
                if !matches!(e, http::ParseError::Timeout) {
                    state.metrics.record_request(Route::Other, status, started.elapsed());
                }
                return;
            }
        };
        let request_id = car_obs::next_request_id();
        // Adopt an inbound trace context (a client propagating its own
        // trace through the router) or mint a fresh one; malformed
        // headers start a fresh trace, never an error.
        let ctx = trace::TraceContext::from_headers(
            request.header(trace::TRACE_ID_HEADER),
            request.header(trace::PARENT_SPAN_HEADER),
        );
        let request_trace = trace::begin_request(ctx, "router.request");
        let trace_hex =
            request_trace.trace_id().map_or_else(String::new, |id| id.to_hex());
        let (route, mut response) = handle(state, &request);
        trace::annotate("route", route.label());
        trace::annotate("status", &response.status.to_string());
        // Finish before writing so the response can carry the trace id;
        // assemble the tree (router legs + worker spans) and offer it
        // for tail retention — errored traces are always kept.
        if let Some(finished) = request_trace.finish() {
            response =
                response.with_header(trace::TRACE_ID_HEADER, finished.trace_id.to_hex());
            let errored = response.status >= 500;
            let assembled =
                trace::assemble(finished.trace_id, finished.root_uid, finished.spans);
            state.traces.offer(assembled, errored);
        }
        if request.wants_close() || state.is_shutting_down() {
            response.close = true;
        }
        let close = response.close;
        let write_result = response.write_to(&mut writer);
        state.metrics.record_request(route, response.status, started.elapsed());
        car_obs::debug!(
            "shard",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_target_renders_only_validated_params() {
        assert_eq!(worker_rules_target(None, None, None), "/v1/rules");
        assert_eq!(worker_rules_target(Some(3), None, None), "/v1/rules?length=3");
        assert_eq!(
            worker_rules_target(Some(3), Some(1), Some(0.9)),
            "/v1/rules?length=3&offset=1&min_confidence=0.9"
        );
        assert_eq!(
            worker_rules_target(None, None, Some(0.125)),
            "/v1/rules?min_confidence=0.125"
        );
    }

    #[test]
    fn worker_target_never_contains_request_line_breakers() {
        // The target is rebuilt from parsed numbers, so no decoded
        // client bytes — CR/LF, spaces, separators — can appear even
        // for adversarial float shapes.
        for q in [0.0, 1.0, 1e-300, 0.1 + 0.2] {
            let target = worker_rules_target(Some(u32::MAX), Some(0), Some(q));
            assert!(
                target.bytes().all(|b| b.is_ascii_graphic()),
                "unsafe byte in {target:?}"
            );
            let parsed: f64 = target.rsplit('=').next().unwrap().parse().unwrap();
            assert_eq!(parsed.to_bits(), q.to_bits(), "must round-trip exactly");
        }
    }
}
