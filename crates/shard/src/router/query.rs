use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use car_obs::trace::{self, SpanRecord, SpanUid, TraceId};
use car_serve::http::{self, Response};
use car_serve::json::{object, Json};
use car_serve::routes::{parse_u32_param, rule_to_json};
use car_serve::sync::{log_warn, LockExt};
use car_serve::{ClientResponse, RetryingClient};

use super::{RouterState, Worker, WorkerState};
use crate::merge::{
    merge_item_supports, merge_rule_views, parse_items_body, parse_rules_body,
};

impl Worker {
    /// Runs one fan-out leg against this worker (see
    /// [`RouterState::fan_out`]) and returns it with its spans: the ones
    /// the worker sent back, then the leg span.
    fn run_leg<I, V>(
        &mut self,
        span_name: &'static str,
        deadline: Option<Instant>,
        leg_ctx: Option<LegTraceContext>,
        input: I,
        request: impl Fn(&mut RetryingClient, I, &[(&str, String)]) -> Option<ClientResponse>,
        reply: impl Fn(&ClientResponse) -> Result<V, String>,
    ) -> (Leg<V>, Vec<SpanRecord>) {
        let leg_uid = trace::mint_span_uid();
        let start_us = trace::wall_now_us();
        let started = Instant::now();
        let breaker = self.breaker.state().label();
        let mut spans = Vec::new();
        let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let leg = if self.state() != WorkerState::Up {
            Leg::Skipped
        } else if remaining.is_some_and(|r| r.is_zero()) {
            Leg::TimedOut
        } else {
            // Forward the remaining budget so the worker can abort an
            // escalated assembly instead of pinning the merge past the
            // deadline — and the trace context, so the worker's spans
            // nest under this leg.
            let mut headers = Vec::new();
            if let Some(remaining) = remaining {
                let ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
                headers.push(("X-Car-Deadline-Ms", ms.to_string()));
            }
            if let Some(ctx) = leg_ctx {
                headers.extend(ctx.headers(leg_uid));
            }
            let response = request(&mut self.client, input, &headers);
            if let Some(ctx) = leg_ctx {
                spans = ctx.worker_spans(response.as_ref());
            }
            self.classify(response, deadline, reply)
        };
        if let Some(ctx) = leg_ctx {
            let mut attrs = vec![
                ("shard".into(), self.shard_id.to_string()),
                ("breaker".into(), breaker.to_string()),
                ("outcome".into(), leg.outcome().into()),
            ];
            if let Leg::Ok(_, Some(epoch)) = &leg {
                attrs.push(("epoch".into(), epoch.to_string()));
            }
            spans.push(ctx.leg_span(leg_uid, span_name, start_us, started, attrs));
        }
        (leg, spans)
    }

    /// Classifies a fan-out leg's reply, parsing a 2xx body with `reply`,
    /// and feeds the breaker. A warming window, rejected query
    /// parameters and a spent budget say nothing about the worker's
    /// health, so they leave the breaker alone.
    fn classify<V>(
        &mut self,
        response: Option<ClientResponse>,
        deadline: Option<Instant>,
        reply: impl Fn(&ClientResponse) -> Result<V, String>,
    ) -> Leg<V> {
        match response {
            Some(resp) if resp.status == 200 || resp.status == 202 => {
                match reply(&resp) {
                    Ok(value) => {
                        self.record_success();
                        let epoch = resp
                            .header("x-car-epoch")
                            .and_then(|v| v.parse::<u64>().ok());
                        Leg::Ok(value, epoch)
                    }
                    Err(msg) => {
                        car_obs::warn!(
                            "shard",
                            [shard = self.shard_id],
                            "unusable reply: {msg}"
                        );
                        self.record_failure();
                        Leg::Failed
                    }
                }
            }
            Some(resp) if resp.status == 409 => Leg::Warming,
            Some(resp) if resp.status == 400 => {
                Leg::BadRequest(Response::json_bytes(400, resp.body))
            }
            Some(resp) if resp.status == 504 => Leg::TimedOut,
            // The attempt was cut short by the budget, not necessarily by
            // a sick worker.
            None if deadline.is_some_and(|d| Instant::now() >= d) => Leg::TimedOut,
            _ => {
                self.record_failure();
                Leg::Failed
            }
        }
    }
}

/// One fan-out leg's disposition; `V` is what the worker's 2xx reply
/// parsed into.
pub(super) enum Leg<V> {
    /// The worker answered, with its `x-car-epoch` (units applied when a
    /// query body was rendered; ingest replies carry none), used to
    /// surface cross-shard skew.
    Ok(V, Option<u64>),
    /// The worker was not `Up`.
    Skipped,
    /// The exchange failed or the 2xx reply was unusable.
    Failed,
    /// The leg's share of the deadline budget ran out (locally, or the
    /// worker answered `504 deadline_exceeded`). Not breaker evidence:
    /// a client-chosen tiny budget must not open breakers on healthy
    /// workers.
    TimedOut,
    /// The worker's window holds fewer than `l_max` units.
    Warming,
    /// The worker rejected the query parameters. Its body is already a
    /// JSON error document, forwarded untouched rather than re-wrapped.
    BadRequest(Response),
}

impl<V> Leg<V> {
    /// The leg span's `outcome` attribute.
    fn outcome(&self) -> &'static str {
        match self {
            Leg::Ok(..) => "ok",
            Leg::Skipped => "skipped",
            Leg::Failed => "failed",
            Leg::TimedOut => "timed_out",
            Leg::Warming => "warming",
            Leg::BadRequest(_) => "bad_request",
        }
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

impl RouterState {
    /// The router's one fan-out path: runs a leg per worker on scoped
    /// threads and returns, in shard order, each worker's shard id, its
    /// state after the leg, and the leg. A leg locks its worker and
    /// skips it unless it is `Up`, gives up once `deadline` has passed,
    /// and otherwise sends through `request` (with the remaining budget
    /// and the trace context as headers); [`Worker::classify`] reads the
    /// answer with `reply`. Each leg's span, and the spans its worker
    /// returned, are recorded on the calling thread.
    pub(super) fn fan_out<I: Send, V: Send>(
        &self,
        span_name: &'static str,
        deadline: Option<Instant>,
        inputs: impl IntoIterator<Item = I>,
        request: impl Fn(&mut RetryingClient, I, &[(&str, String)]) -> Option<ClientResponse>
            + Sync,
        reply: impl Fn(&ClientResponse) -> Result<V, String> + Sync,
    ) -> Vec<(u32, WorkerState, Leg<V>)> {
        let leg_ctx = LegTraceContext::capture();
        let (request, reply) = (&request, &reply);
        let legs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .zip(inputs)
                .map(|(worker, input)| {
                    scope.spawn(move || {
                        let mut w = worker.lock_or_recover();
                        let (leg, spans) = w
                            .run_leg(span_name, deadline, leg_ctx, input, request, reply);
                        (w.shard_id, w.state(), leg, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(shard_id, h)| {
                    h.join().unwrap_or_else(|_| {
                        log_warn("shard fan-out thread panicked");
                        (shard_id as u32, WorkerState::Down, Leg::Failed, Vec::new())
                    })
                })
                .collect()
        });
        legs.into_iter()
            .map(|(shard_id, state, leg, spans)| {
                for span in spans {
                    trace::record_span(span);
                }
                (shard_id, state, leg)
            })
            .collect()
    }
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

pub(super) fn rules(state: &Arc<RouterState>, req: &http::Request) -> Response {
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
    query(
        state,
        req,
        "router.leg.rules",
        &target,
        |text| parse_rules_body(text).map(|v| (v.units_retained, v.window, v.rules)),
        "rules",
        |views| {
            let merged = merge_rule_views(views);
            merged.iter().filter_map(|r| rule_to_json(r, length, offset)).collect()
        },
    )
}

/// Fans `GET /v1/items` out to all live workers and merges the
/// per-item support totals with a plain sum — each transaction is
/// owned by exactly one shard, so no support is counted twice.
pub(super) fn items(state: &Arc<RouterState>, req: &http::Request) -> Response {
    query(
        state,
        req,
        "router.leg.items",
        "/v1/items",
        |text| parse_items_body(text).map(|v| (v.units_retained, v.window, v.items)),
        "items",
        |views| {
            let merged = merge_item_supports(views);
            merged
                .iter()
                .map(|(id, support)| {
                    object([("id", Json::from(*id)), ("support", Json::from(*support))])
                })
                .collect()
        },
    )
}

/// Answers a query route from every live worker. It fans `target` out
/// under the request's deadline budget, with `parse` turning each
/// worker's body into its `units_retained`, `window` and payload. Then
/// it folds the legs into views, epochs and degraded shards, answers
/// `409`, `503` or `504` when no view can be served, and otherwise
/// renders the envelope with the payloads `merge` combines under `key`.
/// Down or deadline-blown shards are excluded and surface as `partial`.
fn query<P: Send>(
    state: &RouterState,
    req: &http::Request,
    span_name: &'static str,
    target: &str,
    parse: impl Fn(&str) -> Result<(u64, u64, P), String> + Sync,
    key: &str,
    merge: impl FnOnce(Vec<P>) -> Vec<Json>,
) -> Response {
    // The request's deadline budget: the router's configured bound,
    // shrunk by the client's own deadline when one is propagated in.
    let budget = req
        .header("x-car-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(state.config.request_budget, |d| d.min(state.config.request_budget));
    let deadline = Instant::now() + budget;
    let legs = state.fan_out(
        span_name,
        Some(deadline),
        std::iter::repeat(()),
        |client, (), headers| {
            client.request_with("GET", target, headers, None, Some(deadline))
        },
        |resp| parse(&resp.body_text()),
    );

    let mut views = Vec::new();
    let mut epochs = Vec::new();
    let mut degraded = Vec::new();
    let (mut warming, mut timed_out, mut bad_request) = (false, false, None);
    for (shard_id, _, leg) in legs {
        // Every leg that reached its budget check is counted, so the
        // failures can never outnumber the legs.
        if !matches!(leg, Leg::Skipped) {
            state.fanout_legs.fetch_add(1, Ordering::Relaxed);
        }
        match leg {
            Leg::Ok(view, epoch) => {
                epochs.extend(epoch);
                views.push(view);
            }
            Leg::Skipped => degraded.push(shard_id),
            Leg::Failed => {
                state.fanout_failures.fetch_add(1, Ordering::Relaxed);
                degraded.push(shard_id);
            }
            Leg::TimedOut => {
                state.fanout_failures.fetch_add(1, Ordering::Relaxed);
                state.leg_deadlines.fetch_add(1, Ordering::Relaxed);
                timed_out = true;
                degraded.push(shard_id);
            }
            Leg::Warming => warming = true,
            // A worker rejected the parameters; every worker shares the
            // configuration, so forward its answer as ours.
            Leg::BadRequest(resp) => {
                bad_request.get_or_insert(resp);
            }
        }
    }
    if let Some(resp) = bad_request {
        return resp;
    }
    if warming {
        return state.degrade(
            Response::error(409, "the window holds fewer units than l_max"),
            &degraded,
        );
    }
    if views.is_empty() {
        if timed_out {
            state.metrics.record_deadline_exceeded();
            return state.degrade(Response::error(504, "deadline_exceeded"), &degraded);
        }
        return state.degrade(Response::error(503, "no live shard workers"), &degraded);
    }

    let units_retained = views.iter().map(|v| v.0).max().unwrap_or(0);
    let window = views.iter().map(|v| v.1).max().unwrap_or(0);
    // Ingest is applied asynchronously per worker, so legs can answer
    // at different epochs; surfacing the spread lets clients detect a
    // merged view that matches no single-node snapshot (epoch_min !=
    // epoch_max) and re-query if they need agreement.
    let epoch_json = |e: Option<&u64>| e.map_or(Json::Null, |&e| Json::from(e));
    let payload = merge(views.into_iter().map(|v| v.2).collect());
    let body = object([
        ("units_retained", Json::from(units_retained)),
        ("window", Json::from(window)),
        ("epoch_min", epoch_json(epochs.iter().min())),
        ("epoch_max", epoch_json(epochs.iter().max())),
        ("count", Json::from(payload.len())),
        ("partial", Json::from(!degraded.is_empty())),
        (
            "degraded",
            Json::Array(degraded.iter().map(|&id| Json::from(u64::from(id))).collect()),
        ),
        (key, Json::Array(payload)),
    ]);
    state.degrade(Response::json(200, &body), &degraded)
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
