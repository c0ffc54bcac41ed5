use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use car_itemset::ItemSet;
use car_serve::http::{self, Response};
use car_serve::json::{object, Json};
use car_serve::sync::LockExt;
use car_serve::Service;

use super::query::Leg;
use super::{probe_health, shard_state_json, RouterState, WorkerState};

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
    /// Routes a batch of full units: records them for replay, then
    /// sends each live worker its aligned sub-batch in parallel, and
    /// excludes each worker whose leg failed (`Worker::exclude`).
    /// Returns the units routed so far and each worker's ingest leg,
    /// which carries whether the worker applied the batch.
    fn route_units(
        &self,
        units: Vec<Vec<ItemSet>>,
        wait: bool,
    ) -> (u64, Vec<(u32, WorkerState, Leg<bool>)>) {
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
        let units_routed = ingest.units_routed;
        self.units_routed_gauge.store(units_routed, Ordering::Relaxed);
        self.replay_depth_gauge.store(ingest.replay.len() as u64, Ordering::Relaxed);

        let target = if wait { "/v1/units?wait=true" } else { "/v1/units" };
        // The ingest lock stays held across the sends, so a catch-up
        // replay cannot interleave with this batch.
        let legs = self.fan_out(
            "router.leg.ingest",
            None,
            splits,
            |client, sub_batch, headers| {
                let body = units_to_body(&sub_batch);
                client.request_with("POST", target, headers, Some(&body), None)
            },
            |resp| {
                batch_fully_accepted(&resp.body, n)
                    .ok_or_else(|| format!("the worker did not accept all {n} units"))
            },
        );
        let legs = legs
            .into_iter()
            .map(|(shard_id, state, leg)| {
                match (&leg, self.workers.get(shard_id as usize)) {
                    (Leg::Ok(..) | Leg::Skipped, _) | (_, None) => (shard_id, state, leg),
                    (_, Some(worker)) => {
                        let mut w = worker.lock_or_recover();
                        w.exclude();
                        (shard_id, w.state(), leg)
                    }
                }
            })
            .collect();
        (units_routed, legs)
    }

    /// Attempts to re-admit worker `i`: waits out the breaker cooldown,
    /// verifies the worker is healthy (the Half-Open trial), computes
    /// exactly how many routed units it has not accepted, replays those
    /// sub-units from the ring, and only then lets the breaker close.
    /// Holding the ingest lock throughout keeps new units from racing
    /// past the replay.
    pub(super) fn try_readmit(&self, i: usize) {
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
            let accepted =
                match w.client.request("POST", "/v1/units?wait=true", Some(&body)) {
                    Some(resp) if resp.status == 200 || resp.status == 202 => {
                        batch_answer(&resp.body).map_or(0, |(accepted, _)| accepted)
                    }
                    _ => 0,
                };
            // A replay taken in part still delivered its leading units,
            // and the next round replays only the rest.
            w.catchup_units = w.catchup_units.saturating_add(accepted);
            if accepted != sub_units.len() as u64 {
                // Still flaky; reopen and restart the cooldown.
                w.record_failure();
                return;
            }
        }
        if w.record_success() {
            w.readmissions = w.readmissions.saturating_add(1);
            car_obs::info!(
                "shard",
                [shard = w.shard_id, replayed = behind],
                "breaker closed; worker re-admitted after catch-up"
            );
        }
    }
}

/// Parses a worker's batch-ingest response: the units it accepted and
/// its `applied` flag.
fn batch_answer(body: &[u8]) -> Option<(u64, bool)> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Json::parse(text).ok()?;
    let accepted = doc.get("accepted").and_then(Json::as_u64)?;
    Some((accepted, doc.get("applied").and_then(Json::as_bool).unwrap_or(false)))
}

/// Confirms that a worker's batch-ingest response accepted every unit;
/// returns its `applied` flag, or `None` when the worker rejected any
/// unit (it must then be caught up via replay).
fn batch_fully_accepted(body: &[u8], expected: usize) -> Option<bool> {
    let (accepted, applied) = batch_answer(body)?;
    (accepted == expected as u64).then_some(applied)
}

pub(super) fn ingest(state: &Arc<RouterState>, req: &http::Request) -> Response {
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
    let (units_routed, legs) = state.route_units(units, wait);
    // A failed send degrades the answer, and its worker is already
    // excluded from the next ones until re-admission.
    let degraded: Vec<u32> = legs
        .iter()
        .filter(|(_, _, leg)| !matches!(leg, Leg::Ok(..)))
        .map(|&(id, ..)| id)
        .collect();
    let applied = wait
        && degraded.len() < legs.len()
        && !legs.iter().any(|(_, _, leg)| matches!(leg, Leg::Ok(false, _)));
    let states: Vec<(u32, WorkerState)> =
        legs.iter().map(|&(id, s, _)| (id, s)).collect();
    let status = if applied { 200 } else { 202 };
    let body = object([
        ("accepted", Json::from(n)),
        ("applied", Json::from(applied)),
        ("partial", Json::from(!degraded.is_empty())),
        ("units_routed", Json::from(units_routed)),
        ("shards", shard_state_json(&states)),
    ]);
    state.degrade(Response::json(status, &body), &degraded)
}
