use std::sync::atomic::Ordering;
use std::sync::Arc;

use car_obs::trace::{self, RetainReason, TraceId, TraceStore};
use car_serve::http::{self, Response};
use car_serve::json::{object, Json};
use car_serve::sync::LockExt;
use car_serve::Service;

use super::{shard_state_json, RouterState, WorkerState};
use crate::breaker::BreakerState;

/// One worker's admission + breaker view and lifecycle counts, read
/// under its mutex.
struct WorkerSnapshot {
    shard_id: u32,
    state: WorkerState,
    breaker: BreakerState,
    consecutive_failures: u32,
    opens: u64,
    downs: u64,
    readmissions: u64,
    catchup_units: u64,
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

impl RouterState {
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
                    downs: w.downs,
                    readmissions: w.readmissions,
                    catchup_units: w.catchup_units,
                }
            })
            .collect()
    }
}

pub(super) fn health(state: &Arc<RouterState>) -> Response {
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

pub(super) fn metrics(state: &Arc<RouterState>) -> Response {
    let snapshots = state.worker_snapshots();
    let shards: Vec<(u32, WorkerState)> =
        snapshots.iter().map(|s| (s.shard_id, s.state)).collect();
    let count_state =
        |s: WorkerState| shards.iter().filter(|(_, w)| *w == s).count() as f64;
    // audit:allow(a6-relaxed-mirror) reason="metrics scrape reads the advisory replay-depth mirror; exact depth is only meaningful under the ingest lock and a scrape must not take it"
    let replay_buffered = state.replay_depth_gauge.load(Ordering::Relaxed) as f64;
    // audit:allow(a6-relaxed-mirror) reason="metrics scrape reads the advisory units-routed mirror; the exact count lives under the ingest lock and a scrape must not take it"
    let units_routed = state.units_routed_gauge.load(Ordering::Relaxed);
    let per_worker =
        |count: fn(&WorkerSnapshot) -> u64| snapshots.iter().map(count).sum();
    let counters = [
        (
            "car_shard_fanout_total",
            "Query legs (rules and items) fanned out to live shard workers.",
            state.fanout_legs.load(Ordering::Relaxed),
        ),
        (
            "car_shard_fanout_failures_total",
            "Fan-out legs that failed or returned an unusable body.",
            state.fanout_failures.load(Ordering::Relaxed),
        ),
        (
            "car_shard_down_total",
            "Transitions of a worker into the down state.",
            per_worker(|w| w.downs),
        ),
        (
            "car_shard_readmissions_total",
            "Workers re-admitted after catch-up replay.",
            per_worker(|w| w.readmissions),
        ),
        (
            "car_shard_catchup_units_total",
            "Units replayed to re-admitted workers.",
            per_worker(|w| w.catchup_units),
        ),
        (
            "car_shard_units_routed_total",
            "Full units routed across the cluster.",
            units_routed,
        ),
        (
            "car_shard_partial_responses_total",
            "Responses served with one or more shards excluded.",
            state.partial_responses.load(Ordering::Relaxed),
        ),
        (
            "car_shard_deadline_exceeded_total",
            "Fan-out legs lost to an exhausted deadline budget.",
            state.leg_deadlines.load(Ordering::Relaxed),
        ),
    ];
    let gauges = [
        (
            "car_shard_workers_up",
            "Shard workers currently admitted.",
            count_state(WorkerState::Up),
        ),
        (
            "car_shard_workers_down",
            "Shard workers currently excluded.",
            count_state(WorkerState::Down),
        ),
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
    ];
    let mut text = state.metrics.render_prometheus(&counters, &gauges);
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
    // The trace store's tail-retention outcomes, labeled by reason.
    text.push_str(
        "# HELP car_trace_retained_total Traces retained by tail sampling, by reason.\n\
         # TYPE car_trace_retained_total counter\n",
    );
    for reason in [RetainReason::Error, RetainReason::Slow, RetainReason::Sampled] {
        text.push_str("car_trace_retained_total{reason=\"");
        text.push_str(reason.label());
        text.push_str("\"} ");
        text.push_str(&state.traces.retained(reason).to_string());
        text.push('\n');
    }
    text.push_str(
        "# HELP car_trace_discarded_total Healthy traces the tail sampler let go.\n\
         # TYPE car_trace_discarded_total counter\n\
         car_trace_discarded_total ",
    );
    text.push_str(&state.traces.discarded().to_string());
    text.push('\n');
    Response::text(200, text)
}

/// `GET /v1/debug/traces`: retained-trace summaries, or — with
/// `?trace_id=HEX` — one assembled tree, as span JSON or (with
/// `&format=chrome`) Chrome `trace_event` JSON.
pub(super) fn debug_traces(state: &Arc<RouterState>, req: &http::Request) -> Response {
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

pub(super) fn shutdown(state: &Arc<RouterState>) -> Response {
    state.begin_shutdown();
    Response::json(200, &object([("status", Json::from("shutting_down"))])).with_close()
}
