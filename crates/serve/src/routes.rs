//! Request routing and endpoint handlers.
//!
//! The API surface (all JSON unless noted):
//!
//! * `POST /v1/units` — ingest one time unit. Body:
//!   `{"transactions": [[item ids...], ...]}`. Returns `202` with the
//!   unit's sequence number, `503` when the ingest queue is full (or
//!   while boot recovery runs), or — with `?wait=true` — `200` once the
//!   unit is applied to the miner. The body may also be a top-level JSON
//!   *array* of such objects: the batch is accepted with one WAL append
//!   and one queue pass, and the response carries per-unit accounting
//!   (`202` if at least one unit was accepted, else `503`).
//! * `GET /v1/rules` — the current cyclic rules. Query parameters
//!   `length`, `offset` (cycle filters) and `min_confidence` (stricter
//!   per-unit confidence; must be ≥ the configured threshold to have an
//!   effect). `409` while the window holds fewer units than `l_max`.
//!   Responses are served from an epoch-keyed body cache invalidated on
//!   every apply — repeated polls with the same parameters between
//!   ingests cost one mutex and one body clone, no miner lock.
//! * `GET /v1/items` — per-item support totals over the retained
//!   window, summed from the per-unit frequent-item lists the vertical
//!   counting kernel keeps. Shard workers expose this so the router can
//!   merge item supports across the cluster with a cheap integer sum.
//! * `GET /v1/health` — liveness and window occupancy.
//! * `GET /metrics` — Prometheus text exposition (not JSON): this
//!   daemon's own counters and gauges, the window miner's two
//!   `car_mine_*` counters among them. Every value is read from the
//!   instance that counts it, so two daemons in one process never
//!   report each other's work.
//! * `GET /v1/debug/profile` — the car-obs span profile (per-span
//!   count / total / max nanoseconds) plus the window miner's two
//!   online-maintenance counters (`mine`) and the query-cache state.
//! * `GET /v1/debug/events` — recent log events from the car-obs
//!   capture ring (bounded; oldest first).
//! * `GET /v1/debug/spans?trace_id=HEX` — every span this process still
//!   holds for one trace, from the car-trace finished-span ring. A
//!   side channel for debugging, beside the `X-Car-Spans` response
//!   header: an operator can read spans the header truncated. Nothing
//!   in the data path fetches it.
//! * `POST /v1/shutdown` — begin graceful shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use car_core::{CyclicRule, MinConfidence};
use car_itemset::ItemSet;

use crate::cache::RulesQueryKey;
use crate::http::{Request, Response};
use crate::json::{object, Json};
use crate::metrics::Route;
use crate::state::{AppState, EnqueueError};
use crate::sync::RwLockExt;

/// How long a `?wait=true` ingest will block for its unit to apply,
/// absent a tighter `X-Car-Deadline-Ms` budget from the caller.
const WAIT_APPLIED_TIMEOUT: Duration = Duration::from_secs(10);

/// The deadline a caller propagated via `X-Car-Deadline-Ms` (the shard
/// router stamps fan-out legs with their remaining budget), anchored at
/// handler entry. Absent or unparsable header ⇒ no deadline.
fn request_deadline(req: &Request) -> Option<Instant> {
    let ms: u64 = req.header("x-car-deadline-ms")?.trim().parse().ok()?;
    Some(Instant::now() + Duration::from_millis(ms))
}

/// The `504 deadline_exceeded` answer, counted in the daemon's metrics.
fn deadline_exceeded_response(state: &AppState) -> Response {
    state.metrics.record_deadline_exceeded();
    Response::error(504, "deadline_exceeded")
}

/// How long a `?wait=true` ingest may block: the default cap, shrunk to
/// whatever remains of the caller's deadline.
fn wait_budget(deadline: Option<Instant>) -> Duration {
    match deadline {
        None => WAIT_APPLIED_TIMEOUT,
        Some(d) => WAIT_APPLIED_TIMEOUT.min(d.saturating_duration_since(Instant::now())),
    }
}

/// Item ids above this are rejected — the vocabulary is `u32`.
const MAX_ITEM_ID: u64 = u32::MAX as u64;

/// Dispatches a request, returning the route (for metrics) and the
/// response.
pub fn handle(state: &Arc<AppState>, req: &Request) -> (Route, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/units") => (Route::IngestUnits, ingest_units(state, req)),
        ("GET", "/v1/rules") => (Route::Rules, get_rules(state, req)),
        ("GET", "/v1/items") => (Route::Items, get_items(state, req)),
        ("GET", "/v1/health") => (Route::Health, health(state)),
        ("GET", "/metrics") => (Route::Metrics, metrics(state)),
        ("GET", "/v1/debug/profile") => (Route::DebugProfile, debug_profile(state)),
        ("GET", "/v1/debug/events") => (Route::DebugEvents, debug_events()),
        ("GET", "/v1/debug/spans") => (Route::DebugSpans, debug_spans(req)),
        ("POST", "/v1/shutdown") => (Route::Shutdown, shutdown(state)),
        (
            _,
            "/v1/units" | "/v1/rules" | "/v1/items" | "/v1/health" | "/metrics"
            | "/v1/shutdown" | "/v1/debug/profile" | "/v1/debug/events"
            | "/v1/debug/spans",
        ) => (Route::Other, Response::error(405, "method not allowed")),
        _ => (Route::Other, Response::error(404, "no such endpoint")),
    }
}

/// Maps an enqueue rejection to its HTTP response, recording metrics.
fn enqueue_error_response(state: &Arc<AppState>, e: EnqueueError) -> Response {
    match e {
        EnqueueError::Full => {
            state.metrics.record_ingest_rejected();
            Response::error(503, "ingest queue full; retry later")
        }
        EnqueueError::ShuttingDown => Response::error(503, "server is shutting down"),
        EnqueueError::Recovering => {
            Response::error(503, "recovering the window from disk; retry later")
        }
        EnqueueError::Persistence => Response::error(
            503,
            "durability failure: the write-ahead log cannot accept units",
        ),
    }
}

fn ingest_units(state: &Arc<AppState>, req: &Request) -> Response {
    let parsed = {
        let _span = car_obs::time_span!("routes.unit_parse");
        parse_units_body(&req.body)
    };
    let (units, is_batch) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => return Response::error(400, &msg),
    };
    if is_batch {
        return ingest_batch(state, req, units);
    }
    let Some(unit) = units.into_iter().next() else {
        return Response::error(400, "empty unit batch");
    };
    let num_transactions = unit.len() as u64;
    let seq = match state.ingest_unit(unit) {
        Ok(seq) => seq,
        Err(e) => return enqueue_error_response(state, e),
    };
    state.metrics.record_ingest(num_transactions);

    let wait = matches!(req.query_param("wait"), Some("true" | "1"));
    if wait {
        if !state.wait_applied(seq, wait_budget(request_deadline(req))) {
            return Response::error(503, "timed out waiting for unit to apply");
        }
        let miner = state.miner.read_or_recover();
        return Response::json(
            200,
            &object([
                ("unit_seq", Json::from(seq)),
                ("applied", Json::from(true)),
                ("units_retained", Json::from(miner.len())),
                ("total_pushed", Json::from(miner.total_pushed())),
            ]),
        );
    }
    Response::json(
        202,
        &object([
            ("unit_seq", Json::from(seq)),
            ("applied", Json::from(false)),
            ("queue_depth", Json::from(state.queue.depth())),
        ]),
    )
}

/// Handles a top-level-array body: one WAL append + one queue pass for
/// the whole batch, per-unit accounting in the response.
fn ingest_batch(
    state: &Arc<AppState>,
    req: &Request,
    units: Vec<Vec<ItemSet>>,
) -> Response {
    if units.is_empty() {
        return Response::error(400, "empty unit batch");
    }
    let tx_counts: Vec<u64> = units.iter().map(|u| u.len() as u64).collect();
    let results = state.ingest_batch(units);

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut last_seq = None;
    let mut per_unit = Vec::with_capacity(results.len());
    for (result, txs) in results.iter().zip(&tx_counts) {
        match result {
            Ok(seq) => {
                state.metrics.record_ingest(*txs);
                accepted += 1;
                last_seq = Some(*seq);
                per_unit.push(object([
                    ("status", Json::from(202u64)),
                    ("unit_seq", Json::from(*seq)),
                ]));
            }
            Err(e) => {
                if *e == EnqueueError::Full {
                    state.metrics.record_ingest_rejected();
                }
                rejected += 1;
                per_unit.push(object([
                    ("status", Json::from(503u64)),
                    ("error", Json::from(enqueue_error_label(*e))),
                ]));
            }
        }
    }

    let wait = matches!(req.query_param("wait"), Some("true" | "1"));
    let mut applied = false;
    if wait {
        if let Some(seq) = last_seq {
            applied = state.wait_applied(seq, wait_budget(request_deadline(req)));
        }
    }
    let status = if accepted > 0 { 202 } else { 503 };
    Response::json(
        status,
        &object([
            ("accepted", Json::from(accepted)),
            ("rejected", Json::from(rejected)),
            ("applied", Json::from(applied)),
            ("units", Json::Array(per_unit)),
            ("queue_depth", Json::from(state.queue.depth())),
        ]),
    )
}

fn enqueue_error_label(e: EnqueueError) -> &'static str {
    match e {
        EnqueueError::Full => "queue_full",
        EnqueueError::ShuttingDown => "shutting_down",
        EnqueueError::Recovering => "recovering",
        EnqueueError::Persistence => "persistence_failure",
    }
}

/// Parses the ingest body: either `{"transactions": [[id, ...], ...]}`
/// (one unit) or a top-level array of such objects (a batch). Returns
/// the units and whether the body was the batch form.
///
/// A canonical body, the shape every client sends, is read in one pass
/// by [`scan_units_body`], straight into item sets. Every other body goes
/// unchanged to [`parse_units_json`], which builds the JSON tree, so every
/// rejection and every odd but valid body (`1.0` or `-0` as an id, an
/// extra key, an escaped key) keeps the tree's answer.
///
/// Public so the `car shard` router can parse an ingest body once and
/// re-split it per shard using the same grammar the workers enforce.
///
/// # Errors
///
/// A human-readable message describing the first malformed element.
pub fn parse_units_body(body: &[u8]) -> Result<(Vec<Vec<ItemSet>>, bool), String> {
    match scan_units_body(body) {
        Some(parsed) => Ok(parsed),
        None => parse_units_json(body),
    }
}

/// The one-pass half of [`parse_units_body`]: reads a canonical body,
/// `{"transactions":[[id,...],...]}` or a top-level array of them, into
/// units without building a JSON tree. It takes JSON whitespace between
/// tokens, the key `"transactions"` exactly once per unit, and ids as
/// plain digit runs up to `u32::MAX`. It never rejects: any other body
/// is `None`, for [`parse_units_json`] to answer.
pub fn scan_units_body(body: &[u8]) -> Option<(Vec<Vec<ItemSet>>, bool)> {
    let mut scan = UnitScanner { bytes: body, pos: 0, ids: Vec::new() };
    let parsed = if scan.eat(b'[') {
        let mut units = Vec::new();
        scan.list(|scan| {
            units.push(scan.unit()?);
            Some(())
        })?;
        (units, true)
    } else {
        (vec![scan.unit()?], false)
    };
    scan.skip_ws();
    (scan.pos == body.len()).then_some(parsed)
}

/// The tree half of [`parse_units_body`]: parses the body as a JSON
/// document, then reads the units out of it with [`parse_unit`].
///
/// # Errors
///
/// A human-readable message describing the first malformed element.
pub fn parse_units_json(body: &[u8]) -> Result<(Vec<Vec<ItemSet>>, bool), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if let Some(batch) = doc.as_array() {
        let mut units = Vec::with_capacity(batch.len());
        for (i, entry) in batch.iter().enumerate() {
            units
                .push(parse_unit(entry).map_err(|msg| format!("batch unit {i}: {msg}"))?);
        }
        return Ok((units, true));
    }
    Ok((vec![parse_unit(&doc)?], false))
}

/// The cursor of [`scan_units_body`]. Each step returns `None` on the
/// first byte it does not expect.
struct UnitScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The current transaction's ids, reused so each item set is
    /// allocated once, at its exact size, as the tree path allocates it.
    ids: Vec<u32>,
}

impl UnitScanner<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let next = self.bytes.get(self.pos) == Some(&b);
        if next {
            self.pos += 1;
        }
        next
    }

    /// Reads the elements of a list whose `[` is consumed, through its
    /// `]`, with `element` reading each one.
    fn list(&mut self, mut element: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        if self.eat(b']') {
            return Some(());
        }
        loop {
            element(self)?;
            if self.eat(b']') {
                return Some(());
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    /// `{"transactions":[...]}`.
    fn unit(&mut self) -> Option<Vec<ItemSet>> {
        const KEY: &[u8] = b"\"transactions\"";
        if !self.eat(b'{') {
            return None;
        }
        self.skip_ws();
        if !self.bytes.get(self.pos..)?.starts_with(KEY) {
            return None;
        }
        self.pos += KEY.len();
        if !(self.eat(b':') && self.eat(b'[')) {
            return None;
        }
        let mut unit = Vec::new();
        self.list(|scan| {
            unit.push(scan.transaction()?);
            Some(())
        })?;
        self.eat(b'}').then_some(unit)
    }

    /// `[id,...]`.
    fn transaction(&mut self) -> Option<ItemSet> {
        if !self.eat(b'[') {
            return None;
        }
        self.ids.clear();
        self.list(|scan| {
            let id = scan.id()?;
            scan.ids.push(id);
            Some(())
        })?;
        Some(ItemSet::from_ids(self.ids.iter().copied()))
    }

    /// A digit run up to `u32::MAX`. A sign, fraction or exponent stops
    /// the scan (only `,` or `]` may follow an id), leaving the body to
    /// the tree, which reads `-0`, `1.0` and `1e2` as ids too. So does
    /// a leading zero, which the tree rejects.
    fn id(&mut self) -> Option<u32> {
        self.skip_ws();
        let start = self.pos;
        let mut id: u32 = 0;
        while let Some(&digit @ b'0'..=b'9') = self.bytes.get(self.pos) {
            id = id.checked_mul(10)?.checked_add(u32::from(digit - b'0'))?;
            self.pos += 1;
        }
        let leading_zero = self.pos > start + 1 && self.bytes.get(start) == Some(&b'0');
        (self.pos > start && !leading_zero).then_some(id)
    }
}

/// Parses one `{"transactions": [[id, ...], ...]}` object into a unit.
///
/// # Errors
///
/// A human-readable message describing the first malformed transaction.
pub fn parse_unit(doc: &Json) -> Result<Vec<ItemSet>, String> {
    let transactions = doc
        .get("transactions")
        .and_then(Json::as_array)
        .ok_or("body must be an object with a `transactions` array")?;
    let mut unit = Vec::with_capacity(transactions.len());
    for (i, tx) in transactions.iter().enumerate() {
        let items = tx
            .as_array()
            .ok_or_else(|| format!("transaction {i} must be an array of item ids"))?;
        let mut ids = Vec::with_capacity(items.len());
        for item in items {
            let id = item.as_u64().filter(|&id| id <= MAX_ITEM_ID).ok_or_else(|| {
                format!("transaction {i} has an invalid item id (need 0..=2^32-1)")
            })?;
            ids.push(id as u32);
        }
        unit.push(ItemSet::from_ids(ids));
    }
    Ok(unit)
}

fn get_rules(state: &Arc<AppState>, req: &Request) -> Response {
    let deadline = request_deadline(req);
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return deadline_exceeded_response(state);
    }
    if state.recovery.is_recovering() {
        return Response::error(
            503,
            "recovering the window from disk; rules are not yet consistent",
        );
    }
    let length = match parse_u32_param(req, "length") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let offset = match parse_u32_param(req, "offset") {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let min_confidence = match req.query_param("min_confidence") {
        None => None,
        Some(raw) => match raw.parse::<f64>().ok().and_then(MinConfidence::new) {
            Some(q) => Some(q),
            None => {
                return Response::error(
                    400,
                    &format!("invalid min_confidence `{raw}` (need 0..=1)"),
                )
            }
        },
    };
    if let Some(q) = min_confidence {
        if q.value() < state.config.min_confidence.value() {
            return Response::error(
                400,
                &format!(
                    "min_confidence {} is below the mining threshold {}; \
                     rules under the threshold are not retained",
                    q.value(),
                    state.config.min_confidence.value()
                ),
            );
        }
    }

    // Epoch-keyed body cache: a hit skips the miner lock entirely.
    let key = RulesQueryKey {
        min_confidence_bits: min_confidence.map(|q| q.value().to_bits()),
        length,
        offset,
    };
    if let Some(body) = state.query_cache.lookup(&key) {
        state.metrics.record_query_cache_hit();
        car_obs::trace::annotate("cache", "hit");
        return rules_response(state, state.query_cache.epoch(), body.as_ref().clone());
    }
    state.metrics.record_query_cache_miss();
    car_obs::trace::annotate("cache", "miss");

    let miner = state.miner.read_or_recover();
    let rules = match miner.query_rules_within(min_confidence, deadline) {
        Ok(Some(rules)) => rules,
        Ok(None) => return deadline_exceeded_response(state),
        Err(e) => return Response::error(409, &e.to_string()),
    };
    let units_retained = miner.len();
    let window = miner.window();
    // The epoch this body belongs to, read under the same lock as the
    // rules; the insert below is discarded if an apply raced us.
    let epoch = miner.total_pushed();
    drop(miner);

    let filtered: Vec<Json> =
        rules.iter().filter_map(|r| rule_to_json(r, length, offset)).collect();
    let body = object([
        ("units_retained", Json::from(units_retained)),
        ("window", Json::from(window)),
        ("count", Json::from(filtered.len())),
        ("rules", Json::Array(filtered)),
    ])
    .render()
    .into_bytes();
    let shared = std::sync::Arc::new(body);
    state.query_cache.insert(epoch, key, std::sync::Arc::clone(&shared));
    rules_response(state, epoch, shared.as_ref().clone())
}

fn get_items(state: &Arc<AppState>, req: &Request) -> Response {
    let deadline = request_deadline(req);
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return deadline_exceeded_response(state);
    }
    if state.recovery.is_recovering() {
        return Response::error(
            503,
            "recovering the window from disk; item supports are not yet consistent",
        );
    }
    let miner = state.miner.read_or_recover();
    let supports = miner.item_supports();
    let units_retained = miner.len();
    let window = miner.window();
    let epoch = miner.total_pushed();
    drop(miner);

    let items: Vec<Json> = supports
        .iter()
        .map(|(id, support)| {
            object([("id", Json::from(*id)), ("support", Json::from(*support))])
        })
        .collect();
    let body = object([
        ("units_retained", Json::from(units_retained)),
        ("window", Json::from(window)),
        ("count", Json::from(items.len())),
        ("items", Json::Array(items)),
    ])
    .render()
    .into_bytes();
    rules_response(state, epoch, body)
}

/// Wraps a rendered rules body with the cluster-facing headers:
/// `X-Car-Epoch` (units pushed when the body was rendered, so the
/// router can report view freshness) and — on shard workers —
/// `X-Car-Shard-Id`.
fn rules_response(state: &Arc<AppState>, epoch: u64, body: Vec<u8>) -> Response {
    let mut resp =
        Response::json_bytes(200, body).with_header("x-car-epoch", epoch.to_string());
    if let Some(shard) = state.shard {
        resp = resp.with_header("x-car-shard-id", shard.shard_id.to_string());
    }
    resp
}

/// Renders one rule, keeping only cycles matching the filters; a rule
/// with no matching cycle is dropped entirely.
///
/// Public so the `car shard` router renders merged rules through the
/// exact same serializer a single node uses — merged responses are
/// byte-identical to standalone ones, rule for rule.
pub fn rule_to_json(
    rule: &CyclicRule,
    length: Option<u32>,
    offset: Option<u32>,
) -> Option<Json> {
    let cycles: Vec<Json> = rule
        .cycles
        .iter()
        .filter(|c| length.map_or(true, |l| c.length() == l))
        .filter(|c| offset.map_or(true, |o| c.offset() == o))
        .map(|c| {
            object([
                ("length", Json::from(c.length())),
                ("offset", Json::from(c.offset())),
            ])
        })
        .collect();
    if cycles.is_empty() {
        return None;
    }
    let ids = |set: &ItemSet| {
        Json::Array(set.iter().map(|item| Json::from(item.id())).collect())
    };
    Some(object([
        ("rule", Json::from(rule.rule.to_string())),
        ("antecedent", ids(&rule.rule.antecedent)),
        ("consequent", ids(&rule.rule.consequent)),
        ("cycles", Json::Array(cycles)),
    ]))
}

/// Parses the optional `u32` query parameter `name`; a malformed value
/// is the `400` answer.
///
/// Public so the `car shard` router checks `length` and `offset` as a
/// worker does.
///
/// # Errors
///
/// The `400` response naming the parameter and its raw value.
pub fn parse_u32_param(req: &Request, name: &str) -> Result<Option<u32>, Response> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse::<u32>().map(Some).map_err(|_| {
            Response::error(400, &format!("invalid {name} `{raw}` (need a u32)"))
        }),
    }
}

fn health(state: &Arc<AppState>) -> Response {
    // Read the queue depth before taking the miner lock: queue.depth()
    // locks the queue internally, and nothing may acquire `inner` while
    // holding `miner` (lock order is inner-free under miner).
    let queue_depth = state.queue.depth();
    let recovering = state.recovery.is_recovering();
    let miner = state.miner.read_or_recover();
    let warming_up = miner.len() < state.config.cycle_bounds.l_max() as usize;
    let status = if recovering {
        "recovering"
    } else if state.is_shutting_down() {
        "shutting_down"
    } else {
        "ok"
    };
    let ready = !recovering && !state.is_shutting_down();
    let mut fields: Vec<(String, Json)> = vec![
        ("status".into(), Json::from(status)),
        ("ready".into(), Json::from(ready)),
        ("warming_up".into(), Json::from(warming_up)),
        ("units_retained".into(), Json::from(miner.len())),
        ("window".into(), Json::from(miner.window())),
        ("total_pushed".into(), Json::from(miner.total_pushed())),
        ("evictions".into(), Json::from(miner.evictions())),
        ("queue_depth".into(), Json::from(queue_depth)),
    ];
    // Cluster identity: real values on shard workers, explicit nulls
    // standalone so clients need no presence check.
    let (shard_id, shard_count) = match state.shard {
        Some(s) => {
            (Json::from(u64::from(s.shard_id)), Json::from(u64::from(s.shard_count)))
        }
        None => (Json::Null, Json::Null),
    };
    fields.push(("shard_id".into(), shard_id));
    fields.push(("shard_count".into(), shard_count));
    if state.persist.is_some() {
        fields.push((
            "recovery".into(),
            object([
                ("complete", Json::from(!recovering)),
                ("snapshot_units", Json::from(state.recovery.snapshot_units())),
                ("replayed_units", Json::from(state.recovery.replayed_units())),
                ("truncated_records", Json::from(state.metrics.recovery_truncated())),
            ]),
        ));
    }
    Response::json(200, &Json::Object(fields))
}

fn metrics(state: &Arc<AppState>) -> Response {
    let miner = state.miner.read_or_recover();
    let (retained_units, evictions, hold_entries, rules_current, itemsets_tracked) = (
        miner.len(),
        miner.evictions(),
        // Both count the window's per-itemset online state.
        miner.retained_rule_entries(),
        // Never assembles a view: a scrape must not do a query's work
        // under the read lock the next fold waits behind.
        miner.last_view_rule_count().unwrap_or(0),
        miner.tracked_rules(),
    );
    // The daemon's own counters and its window's: only a daemon ingests,
    // logs and runs a window, so the router exports none of these.
    let mut counters = state.metrics.daemon_counters().to_vec();
    counters.extend([
        ("car_window_evictions_total", "Units evicted from the sliding window.", evictions),
        (
            "car_mine_online_holds_total",
            "Itemset-unit hold entries folded into online cycle state at push; a recovery folds only the units it retains.",
            miner.online_holds(),
        ),
        (
            "car_mine_online_eliminations_total",
            "Candidate cycles of tracked itemsets found dead at default-view assembly.",
            miner.online_eliminations(),
        ),
    ]);
    drop(miner);
    let text = state.metrics.render_prometheus(&counters, &[
        (
            "car_ingest_queue_depth",
            "Units waiting in the ingest queue.",
            state.queue.depth() as f64,
        ),
        (
            "car_window_units_retained",
            "Time units currently retained in the sliding window.",
            retained_units as f64,
        ),
        (
            "car_itemset_hold_entries",
            "Per-unit itemset hold entries retained in the window.",
            hold_entries as f64,
        ),
        (
            "car_rules_current",
            "Cyclic rules in the last default rule view a query assembled (0 before the first); a scrape never assembles one.",
            rules_current as f64,
        ),
        (
            "car_itemsets_tracked",
            "Distinct itemsets with online cycle state in the window miner.",
            itemsets_tracked as f64,
        ),
        (
            "car_query_cache_entries",
            "Rendered rule bodies cached for the current window epoch.",
            state.query_cache.len() as f64,
        ),
    ]);
    Response::text(200, text)
}

/// `GET /v1/debug/profile`: the car-obs flat span profile, the window
/// miner's two online-maintenance counters (holds folded and cycles
/// found dead at view assembly), and the query-cache state, as JSON.
fn debug_profile(state: &Arc<AppState>) -> Response {
    let spans: Vec<Json> = car_obs::profile_snapshot()
        .into_iter()
        .map(|s| {
            object([
                ("name", Json::from(s.name)),
                ("count", Json::from(s.count)),
                ("total_ns", Json::from(s.total_ns)),
                ("max_ns", Json::from(s.max_ns)),
            ])
        })
        .collect();
    let mine = {
        let miner = state.miner.read_or_recover();
        object([
            ("online_holds", Json::from(miner.online_holds())),
            ("online_eliminations", Json::from(miner.online_eliminations())),
        ])
    };
    Response::json(
        200,
        &object([
            ("spans_enabled", Json::from(car_obs::spans_enabled())),
            ("spans", Json::Array(spans)),
            ("mine", mine),
            (
                "query_cache",
                object([
                    ("epoch", Json::from(state.query_cache.epoch())),
                    ("entries", Json::from(state.query_cache.len())),
                    ("hits", Json::from(state.metrics.query_cache_hits())),
                    ("misses", Json::from(state.metrics.query_cache_misses())),
                ]),
            ),
        ]),
    )
}

/// `GET /v1/debug/events`: the ring-buffered recent log events.
fn debug_events() -> Response {
    let events: Vec<Json> = car_obs::recent_events()
        .into_iter()
        .map(|e| {
            let fields: Vec<(String, Json)> =
                e.fields.into_iter().map(|(k, v)| (k, Json::from(v))).collect();
            object([
                ("ts_us", Json::from(e.ts_us)),
                ("level", Json::from(e.level.as_str())),
                ("target", Json::from(e.target)),
                ("message", Json::from(e.message)),
                ("fields", Json::Object(fields)),
            ])
        })
        .collect();
    Response::json(
        200,
        &object([("count", Json::from(events.len())), ("events", Json::Array(events))]),
    )
}

/// Renders one trace span as JSON.
///
/// Public so the `car shard` router renders assembled trace trees
/// through the same serializer a worker's `/v1/debug/spans` uses —
/// a span looks identical whether read raw or inside a tree.
pub fn span_to_json(span: &car_obs::trace::SpanRecord) -> Json {
    let attrs: Vec<(String, Json)> =
        span.attrs.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect();
    object([
        ("uid", Json::from(span.uid.to_hex())),
        ("parent", span.parent.map_or(Json::Null, |p| Json::from(p.to_hex()))),
        ("name", Json::from(span.name.as_str())),
        ("start_us", Json::from(span.start_us)),
        ("dur_us", Json::from(span.dur_us)),
        ("attrs", Json::Object(attrs)),
    ])
}

/// `GET /v1/debug/spans?trace_id=HEX`: the spans this process still
/// retains for one trace, oldest first. A side channel for debugging,
/// for instance when a response's `X-Car-Spans` header had to truncate;
/// the router does not fetch it.
fn debug_spans(req: &Request) -> Response {
    let Some(raw) = req.query_param("trace_id") else {
        return Response::error(400, "missing trace_id query parameter");
    };
    let Some(trace_id) = car_obs::trace::TraceId::from_hex(raw) else {
        return Response::error(
            400,
            "invalid trace_id (need 32 lowercase hex digits, non-zero)",
        );
    };
    let spans = car_obs::trace::spans_for_trace(trace_id);
    let rendered: Vec<Json> = spans.iter().map(span_to_json).collect();
    Response::json(
        200,
        &object([
            ("trace_id", Json::from(trace_id.to_hex())),
            ("count", Json::from(rendered.len())),
            ("spans", Json::Array(rendered)),
        ]),
    )
}

fn shutdown(state: &Arc<AppState>) -> Response {
    state.begin_shutdown();
    Response::json(200, &object([("status", Json::from("shutting_down"))])).with_close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use car_core::MiningConfig;

    fn test_state() -> Arc<AppState> {
        let config = MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(2, 2)
            .build()
            .unwrap();
        AppState::new(config, 4, 8, None).unwrap()
    }

    fn request(method: &str, path: &str, query: &[(&str, &str)], body: &[u8]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        let state = test_state();
        let (_, resp) = handle(&state, &request("GET", "/nope", &[], b""));
        assert_eq!(resp.status, 404);
        let (_, resp) = handle(&state, &request("DELETE", "/v1/rules", &[], b""));
        assert_eq!(resp.status, 405);
        let (_, resp) = handle(&state, &request("GET", "/v1/units", &[], b""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn ingest_validates_body() {
        let state = test_state();
        for bad in [
            b"not json".as_slice(),
            b"{}",
            b"{\"transactions\": 3}",
            b"{\"transactions\": [3]}",
            b"{\"transactions\": [[-1]]}",
            b"{\"transactions\": [[1.5]]}",
            b"{\"transactions\": [[99999999999]]}",
        ] {
            let (_, resp) = handle(&state, &request("POST", "/v1/units", &[], bad));
            assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn ingest_accepts_and_applies_backpressure() {
        let state = test_state();
        let body = br#"{"transactions": [[1, 2], [1, 2], [3]]}"#;
        for expected in 1..=8u64 {
            let (_, resp) = handle(&state, &request("POST", "/v1/units", &[], body));
            assert_eq!(resp.status, 202);
            let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert_eq!(doc.get("unit_seq").and_then(Json::as_u64), Some(expected));
        }
        // Queue capacity is 8 and no worker is draining: the 9th is shed.
        let (_, resp) = handle(&state, &request("POST", "/v1/units", &[], body));
        assert_eq!(resp.status, 503);
        assert_eq!(state.metrics.units_ingested(), 8);
    }

    #[test]
    fn rules_rejects_bad_params_and_warming_window() {
        let state = test_state();
        let (_, resp) =
            handle(&state, &request("GET", "/v1/rules", &[("length", "banana")], b""));
        assert_eq!(resp.status, 400);
        let (_, resp) = handle(
            &state,
            &request("GET", "/v1/rules", &[("min_confidence", "1.5")], b""),
        );
        assert_eq!(resp.status, 400);
        // Below the mining threshold: cannot be answered from cached rules.
        let (_, resp) = handle(
            &state,
            &request("GET", "/v1/rules", &[("min_confidence", "0.2")], b""),
        );
        assert_eq!(resp.status, 400);
        // Empty window: 409 until l_max units have arrived.
        let (_, resp) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        assert_eq!(resp.status, 409);
    }

    #[test]
    fn ingest_rules_round_trip_with_filters() {
        let state = test_state();
        let worker = crate::state::spawn_ingest_worker(Arc::clone(&state)).unwrap();
        let even = br#"{"transactions": [[1, 2], [1, 2], [1, 2], [1, 2]]}"#;
        let odd = br#"{"transactions": [[9], [9], [9], [9]]}"#;
        for day in 0..6 {
            let body: &[u8] = if day % 2 == 0 { even } else { odd };
            let (_, resp) =
                handle(&state, &request("POST", "/v1/units", &[("wait", "true")], body));
            assert_eq!(resp.status, 200);
        }
        let (_, resp) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        assert_eq!(resp.status, 200);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let rules = doc.get("rules").and_then(Json::as_array).unwrap();
        assert!(rules.iter().any(|r| {
            r.get("rule").and_then(Json::as_str) == Some("{1} => {2}")
                && r.get("cycles").and_then(Json::as_array).is_some_and(|cs| {
                    cs.iter().any(|c| {
                        c.get("length").and_then(Json::as_u64) == Some(2)
                            && c.get("offset").and_then(Json::as_u64) == Some(0)
                    })
                })
        }));
        // Offset 1 holds the odd-day side; {1} => {2} must disappear.
        let (_, resp) =
            handle(&state, &request("GET", "/v1/rules", &[("offset", "1")], b""));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let rules = doc.get("rules").and_then(Json::as_array).unwrap();
        assert!(rules
            .iter()
            .all(|r| r.get("rule").and_then(Json::as_str) != Some("{1} => {2}")));
        state.begin_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn items_route_reports_window_supports() {
        let state = test_state();
        let worker = crate::state::spawn_ingest_worker(Arc::clone(&state)).unwrap();
        // An empty window answers 200 with zero items (unlike /v1/rules,
        // there is no l_max warm-up requirement for raw item supports).
        let (_, resp) = handle(&state, &request("GET", "/v1/items", &[], b""));
        assert_eq!(resp.status, 200);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(0));

        let body = br#"{"transactions": [[1, 2], [1, 2], [1, 2], [7]]}"#;
        for _ in 0..2 {
            let (_, resp) =
                handle(&state, &request("POST", "/v1/units", &[("wait", "true")], body));
            assert_eq!(resp.status, 200);
        }
        let (route, resp) = handle(&state, &request("GET", "/v1/items", &[], b""));
        assert_eq!(route, Route::Items);
        assert_eq!(resp.status, 200);
        assert!(resp.extra_headers.iter().any(|(k, v)| k == "x-car-epoch" && v == "2"));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("units_retained").and_then(Json::as_u64), Some(2));
        let items = doc.get("items").and_then(Json::as_array).unwrap();
        let support = |id: u64| {
            items
                .iter()
                .find(|e| e.get("id").and_then(Json::as_u64) == Some(id))
                .and_then(|e| e.get("support").and_then(Json::as_u64))
        };
        // Items 1 and 2 are frequent in both units (3+3); item 7 appears
        // once per unit and — with min support 0.5 of 4 transactions —
        // falls below the per-unit threshold, so it is not retained.
        assert_eq!(support(1), Some(6));
        assert_eq!(support(2), Some(6));
        assert_eq!(support(7), None);
        // Sorted by item id for deterministic merge at the router.
        let ids: Vec<u64> =
            items.iter().filter_map(|e| e.get("id").and_then(Json::as_u64)).collect();
        let mut sorted_ids = ids.clone();
        sorted_ids.sort_unstable();
        assert_eq!(ids, sorted_ids);
        // Wrong method on the path is 405, not 404.
        let (_, resp) = handle(&state, &request("POST", "/v1/items", &[], b""));
        assert_eq!(resp.status, 405);
        state.begin_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn rules_cache_hits_within_epoch_and_never_serves_stale_after_ingest() {
        let state = test_state();
        let worker = crate::state::spawn_ingest_worker(Arc::clone(&state)).unwrap();
        let even = br#"{"transactions": [[1, 2], [1, 2], [1, 2], [1, 2]]}"#;
        let odd = br#"{"transactions": [[9], [9], [9], [9]]}"#;
        for day in 0..4 {
            let body: &[u8] = if day % 2 == 0 { even } else { odd };
            let (_, resp) =
                handle(&state, &request("POST", "/v1/units", &[("wait", "true")], body));
            assert_eq!(resp.status, 200);
        }
        // First query misses, second identical query hits with the same
        // bytes and without touching the miner.
        let (_, first) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        assert_eq!(first.status, 200);
        assert_eq!(state.metrics.query_cache_misses(), 1);
        let (_, second) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        assert_eq!(second.body, first.body);
        assert_eq!(state.metrics.query_cache_hits(), 1);
        // Distinct parameters are distinct cache entries.
        let (_, filtered) =
            handle(&state, &request("GET", "/v1/rules", &[("offset", "1")], b""));
        assert_eq!(filtered.status, 200);
        assert_eq!(state.metrics.query_cache_misses(), 2);
        assert_eq!(state.query_cache.len(), 2);

        // Ingest one more unit (observed applied): the next query must
        // reflect the new epoch, not the cached pre-apply body.
        let (_, resp) =
            handle(&state, &request("POST", "/v1/units", &[("wait", "true")], even));
        assert_eq!(resp.status, 200);
        assert_eq!(state.query_cache.len(), 0, "apply must clear the cache");
        let (_, third) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        assert_eq!(third.status, 200);
        let doc = Json::parse(std::str::from_utf8(&third.body).unwrap()).unwrap();
        assert_eq!(doc.get("units_retained").and_then(Json::as_u64), Some(4));
        assert_ne!(third.body, first.body, "stale epoch body must not be served");
        state.begin_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn health_and_metrics_render() {
        let state = test_state();
        let (_, resp) = handle(&state, &request("GET", "/v1/health", &[], b""));
        assert_eq!(resp.status, 200);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("warming_up").and_then(Json::as_bool), Some(true));

        let (_, resp) = handle(&state, &request("GET", "/metrics", &[], b""));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("car_ingest_queue_depth 0"));
        assert!(text.contains("car_rules_current 0"));
        assert!(text.contains("# TYPE car_http_requests_total counter"));
    }

    #[test]
    fn mining_and_span_sections_render() {
        let state = test_state();
        let (_, resp) = handle(&state, &request("GET", "/metrics", &[], b""));
        let text = String::from_utf8(resp.body).unwrap();
        // The window's two online-maintenance counters are always
        // present, even before any unit is pushed, and are the only
        // `car_mine_*` families.
        assert!(text.contains("# TYPE car_mine_online_holds_total counter"));
        assert!(text.contains("# TYPE car_mine_online_eliminations_total counter"));
        assert_eq!(text.matches("# TYPE car_mine_").count(), 2, "{text}");
        assert!(text.contains("# TYPE car_span_duration_seconds summary"));
        assert!(text.contains("# TYPE car_span_duration_max_seconds gauge"));
        // Resilience counters exist at zero so scrapes can rely on them.
        assert!(text.contains("# TYPE car_shed_total counter"));
        assert!(text.contains("# TYPE car_header_timeouts_total counter"));
        assert!(text.contains("# TYPE car_deadline_exceeded_total counter"));
        // A daemon retains no traces (the router's store does), so it
        // exports no trace-retention family.
        assert!(!text.contains("car_trace_"), "{text}");
    }

    #[test]
    fn metrics_scrape_after_a_push_leaves_the_view_unassembled() {
        let state = test_state();
        let worker = crate::state::spawn_ingest_worker(Arc::clone(&state)).unwrap();
        let even = br#"{"transactions": [[1, 2], [1, 2], [1, 2], [1, 2]]}"#;
        let odd = br#"{"transactions": [[9], [9], [9], [9]]}"#;
        let post = |body: &[u8]| {
            let (_, resp) =
                handle(&state, &request("POST", "/v1/units", &[("wait", "true")], body));
            assert_eq!(resp.status, 200);
        };
        let scrape = || {
            let (_, resp) = handle(&state, &request("GET", "/metrics", &[], b""));
            String::from_utf8(resp.body).unwrap()
        };
        for day in 0..4 {
            post(if day % 2 == 0 { even } else { odd });
        }
        // The window is past warm-up, but no query has assembled a view.
        assert!(scrape().contains("car_rules_current 0\n"));
        assert_eq!(state.miner.read().unwrap().last_view_rule_count(), None);

        let (_, resp) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let served = doc.get("count").and_then(Json::as_u64).unwrap();
        assert!(served > 0);
        assert!(scrape().contains(&format!("car_rules_current {served}\n")));

        // After the next push the scrape reports the last view's count
        // and still assembles nothing for the new epoch.
        post(even);
        assert!(scrape().contains(&format!("car_rules_current {served}\n")));
        assert_eq!(
            state.miner.read().unwrap().last_view_rule_count(),
            Some(served as usize)
        );
        let (_, resp) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let fresh = doc.get("count").and_then(Json::as_u64).unwrap();
        assert!(scrape().contains(&format!("car_rules_current {fresh}\n")));
        state.begin_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn debug_profile_reports_spans_and_mine_counters() {
        let state = test_state();
        car_obs::set_spans_enabled(true);
        {
            let _span = car_obs::time_span!("test.routes.debug");
        }
        car_obs::set_spans_enabled(false);
        let (route, resp) =
            handle(&state, &request("GET", "/v1/debug/profile", &[], b""));
        assert_eq!(route, Route::DebugProfile);
        assert_eq!(resp.status, 200);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("test.routes.debug")
                && s.get("count").and_then(Json::as_u64).is_some_and(|c| c >= 1)
        }));
        let Some(Json::Object(mine)) = doc.get("mine") else {
            panic!("mine must be an object: {doc:?}");
        };
        let keys: Vec<&str> = mine.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["online_holds", "online_eliminations"]);
        assert!(mine.iter().all(|(_, v)| v.as_u64().is_some()), "{mine:?}");
        // Wrong method is 405, like every other endpoint.
        let (_, resp) = handle(&state, &request("POST", "/v1/debug/profile", &[], b""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn debug_events_returns_captured_ring() {
        let state = test_state();
        car_obs::set_capture(true);
        car_obs::warn!("serve", [probe = 41], "debug-events route test event");
        let (route, resp) = handle(&state, &request("GET", "/v1/debug/events", &[], b""));
        car_obs::set_capture(false);
        assert_eq!(route, Route::DebugEvents);
        assert_eq!(resp.status, 200);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let events = doc.get("events").and_then(Json::as_array).unwrap();
        assert!(events.iter().any(|e| {
            e.get("message").and_then(Json::as_str)
                == Some("debug-events route test event")
                && e.get("fields").and_then(|f| f.get("probe")).and_then(Json::as_str)
                    == Some("41")
                && e.get("level").and_then(Json::as_str) == Some("warn")
        }));
    }

    #[test]
    fn health_reports_null_shard_identity_standalone() {
        let state = test_state();
        let (_, resp) = handle(&state, &request("GET", "/v1/health", &[], b""));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("shard_id"), Some(&Json::Null));
        assert_eq!(doc.get("shard_count"), Some(&Json::Null));
    }

    #[test]
    fn health_reports_shard_identity_on_workers() {
        let config = MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(2, 2)
            .build()
            .unwrap();
        let state = AppState::new_with_shard(
            config,
            4,
            8,
            None,
            Some(crate::state::ShardIdentity { shard_id: 2, shard_count: 3 }),
        )
        .unwrap();
        let (_, resp) = handle(&state, &request("GET", "/v1/health", &[], b""));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("shard_id").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("shard_count").and_then(Json::as_u64), Some(3));

        // Rule responses from a shard worker carry the shard id and the
        // epoch; the epoch also appears standalone (tested implicitly by
        // the absence of x-car-shard-id there).
        let even = br#"{"transactions": [[1, 2], [1, 2]]}"#;
        let odd = br#"{"transactions": [[9], [9]]}"#;
        let worker = crate::state::spawn_ingest_worker(Arc::clone(&state)).unwrap();
        for day in 0..4 {
            let body: &[u8] = if day % 2 == 0 { even } else { odd };
            let (_, resp) =
                handle(&state, &request("POST", "/v1/units", &[("wait", "true")], body));
            assert_eq!(resp.status, 200);
        }
        let (_, resp) = handle(&state, &request("GET", "/v1/rules", &[], b""));
        assert_eq!(resp.status, 200);
        let header = |name: &str| {
            resp.extra_headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
        };
        assert_eq!(header("x-car-epoch"), Some("4"));
        assert_eq!(header("x-car-shard-id"), Some("2"));
        state.begin_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn debug_spans_validates_trace_id_and_serves_published_spans() {
        let state = test_state();
        // Missing or hostile trace_id is a 400, never a 500.
        let (route, resp) = handle(&state, &request("GET", "/v1/debug/spans", &[], b""));
        assert_eq!(route, Route::DebugSpans);
        assert_eq!(resp.status, 400);
        for bad in ["", "zz", "DEADBEEF", "0".repeat(32).as_str(), "'; drop--"] {
            let (_, resp) = handle(
                &state,
                &request("GET", "/v1/debug/spans", &[("trace_id", bad)], b""),
            );
            assert_eq!(resp.status, 400, "trace_id {bad:?}");
        }
        // Wrong method is 405 like every other endpoint.
        let (_, resp) = handle(&state, &request("POST", "/v1/debug/spans", &[], b""));
        assert_eq!(resp.status, 405);

        // A published trace comes back through the side-channel.
        use car_obs::trace::{SpanRecord, SpanUid, TraceId};
        let trace_id =
            TraceId::from_hex(&format!("{:032x}", 0xfeed_f00d_u128)).expect("literal id");
        let uid =
            SpanUid::from_hex(&format!("{:016x}", 0xbeef_u64)).expect("literal uid");
        car_obs::trace::publish_spans(&[SpanRecord {
            trace_id,
            uid,
            parent: None,
            name: "routes.test.span".into(),
            start_us: 10,
            dur_us: 7,
            attrs: vec![("shard".into(), "1".into())],
        }]);
        let (_, resp) = handle(
            &state,
            &request(
                "GET",
                "/v1/debug/spans",
                &[("trace_id", trace_id.to_hex().as_str())],
                b"",
            ),
        );
        assert_eq!(resp.status, 200);
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some(trace_id.to_hex().as_str())
        );
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert!(spans.iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("routes.test.span")
                && s.get("dur_us").and_then(Json::as_u64) == Some(7)
                && s.get("parent") == Some(&Json::Null)
                && s.get("attrs").and_then(|a| a.get("shard")).and_then(Json::as_str)
                    == Some("1")
        }));
    }

    #[test]
    fn shutdown_flips_state() {
        let state = test_state();
        let (_, resp) = handle(&state, &request("POST", "/v1/shutdown", &[], b""));
        assert_eq!(resp.status, 200);
        assert!(resp.close);
        assert!(state.is_shutting_down());
        let (_, resp) = handle(&state, &request("GET", "/v1/health", &[], b""));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("shutting_down"));
    }
}
