//! The traced run's in-process replays: the same generated inputs pushed
//! through each layer's public functions, each call wrapped in a
//! benchmark-owned span.

use std::ops::Range;
use std::path::Path;

use car_apriori::{
    apriori_gen, count_candidates_detailed, generate_rules, Apriori, AprioriConfig,
};
use car_core::window::SlidingWindowMiner;
use car_core::{CyclicRule, MinConfidence, MiningConfig};
use car_itemset::ItemSet;
use car_serve::http;
use car_serve::json::{object, Json};
use car_serve::metrics::Metrics;
use car_serve::persist::{replay, snapshot, wal};
use car_serve::routes::{parse_units_body, rule_to_json};
use car_serve::FsyncPolicy;
use car_shard::{PartitionKey, ShardRing};

use crate::data::Pool;
use crate::spans::Recorder;

/// Units pushed before per-layer timings count: one full window, so the
/// measured pushes all evict.
pub const WARMUP_UNITS: usize = 64;

/// Units in the WAL tail that `ingest`'s recovery replays.
pub const WAL_TAIL_UNITS: usize = 32;

/// The escalated `min_confidence` the read-path replay re-detects at when
/// the schedule drew no escalated reads.
const FALLBACK_ESCALATION: f64 = 0.8;

/// Request body limit for the replayed HTTP parse; far above a unit.
const MAX_BODY_BYTES: usize = 64 << 20;

/// Counts that must repeat exactly under the same seed.
#[derive(Default)]
pub struct PipelineCounts {
    /// The first op the counts (and per-layer timings) cover.
    pub from: u64,
    pub units: u64,
    pub candidates: u64,
    pub levels: u64,
    pub bitmap_builds: u64,
    pub rules_held: u64,
    pub tracked_rules: u64,
    pub hold_entries: u64,
    pub wal_bytes: u64,
    pub body_bytes: u64,
    pub tx: u64,
    pub impure_tx: u64,
    pub shard_tx: Vec<u64>,
}

/// Where the write path sends a unit after parsing.
pub enum Sink {
    /// No window at all: per-unit Apriori and rule generation only, as
    /// SEQUENTIAL runs them.
    Batch,
    /// One window miner (a single `car serve`).
    Node,
    /// Ring split over this many shard miners (a `car shard` cluster).
    Cluster(u32),
}

/// Replays the write path over `pool` units `0..measured.end`: parse, WAL
/// append and snapshots (when `wal_dir` is set), ring split, `push_unit`,
/// and, as children of each push, a replay of its Apriori run level by
/// level and of its rule generation. Spans are keyed by unit index;
/// counters cover the units in `measured`. `before` runs ahead of each
/// measured unit, so a caller can time the same unit against a live
/// server right next to its replay.
pub fn write_path(
    rec: &mut Recorder,
    config: MiningConfig,
    sink: &Sink,
    wal_dir: Option<&Path>,
    pool: &Pool,
    measured: Range<usize>,
    mut before: impl FnMut(usize),
) -> Result<PipelineCounts, String> {
    let (warmup, count) = (measured.start, measured.end);
    let shards = match sink {
        Sink::Cluster(n) => *n,
        _ => 1,
    };
    let ring = ShardRing::new(shards).ok_or("no shards")?;
    let mut miners = match sink {
        Sink::Batch => Vec::new(),
        _ => (0..shards)
            .map(|_| {
                SlidingWindowMiner::new(config, WARMUP_UNITS).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let apriori = Apriori::new(
        AprioriConfig::new(config.min_support).with_counting(config.counting),
    );
    let metrics = Metrics::new();
    let mut log = match wal_dir {
        Some(dir) => Some(
            wal::Wal::open(dir, FsyncPolicy::Always, None, 1)
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let mut window: std::collections::VecDeque<Vec<ItemSet>> = Default::default();
    let mut counts = PipelineCounts {
        from: warmup as u64,
        shard_tx: vec![0; shards as usize],
        ..Default::default()
    };
    for i in 0..count {
        let op = i as u64;
        let measured = i >= warmup;
        if measured {
            before(i);
        }
        let body = &pool.bodies[pool.index(i)];
        let unit = match sink {
            // Batch mining reads units from a database, not HTTP bodies.
            Sink::Batch => pool.units[pool.index(i)].clone(),
            _ => {
                let mut raw = format!(
                    "POST /v1/units?wait=true HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                raw.extend_from_slice(body);
                let request = rec.time("http.read_request", op, None, || {
                    http::read_request(&mut std::io::Cursor::new(&raw), MAX_BODY_BYTES)
                });
                let request = request.map_err(|e| format!("request parse: {e:?}"))?;
                let parsed = rec.time("routes.unit_parse", op, None, || {
                    parse_units_body(&request.body)
                });
                parsed?.0.into_iter().next().ok_or("empty body")?
            }
        };
        if let Some(log) = log.as_mut() {
            let batch = [unit.clone()];
            let before = metrics.wal_bytes();
            rec.time("wal.append", op, None, || log.append_batch(&batch, &metrics))
                .map_err(|e| e.to_string())?;
            if measured {
                counts.wal_bytes += metrics.wal_bytes() - before;
            }
            window.push_back(unit.clone());
            if window.len() > WARMUP_UNITS {
                window.pop_front();
            }
            // The daemon snapshots every 64 applied units.
            if (i + 1) % WARMUP_UNITS == 0 {
                let units: Vec<Vec<ItemSet>> = window.iter().cloned().collect();
                let dir = wal_dir.ok_or("no WAL dir")?;
                rec.time("snapshot.write", op, None, || {
                    snapshot::write_snapshot(dir, op + 1, &units)
                })
                .map_err(|e| e.to_string())?;
                log.rotate_and_prune(op + 1, &metrics).map_err(|e| e.to_string())?;
            }
        }
        let subunits = match sink {
            Sink::Cluster(_) => rec.time("ring.split", op, None, || {
                ring.split_unit(&unit, PartitionKey::MinItem)
            }),
            _ => vec![unit.clone()],
        };
        if measured {
            counts.units += 1;
            if !matches!(sink, Sink::Batch) {
                counts.body_bytes += body.len() as u64;
            }
            for tx in &unit {
                counts.tx += 1;
                let mut owners =
                    tx.iter().map(|item| ring.owner_of_key(u64::from(item.id())));
                let first = owners.next();
                if owners.any(|o| Some(o) != first) {
                    counts.impure_tx += 1;
                }
            }
            for (s, sub) in subunits.iter().enumerate() {
                counts.shard_tx[s] += sub.len() as u64;
            }
        }
        for (s, sub) in subunits.iter().enumerate() {
            let parent = miners.get_mut(s).map(|miner| {
                let push = rec.start("window.push_unit", op, None);
                miner.push_unit(sub);
                rec.end(push);
                push
            });
            let mine = rec.start("apriori.mine", op, parent);
            let (frequent, stats) = apriori.mine_with_stats(sub);
            rec.end(mine);
            // The levels of that same run, one call per layer function.
            let mut levels = 1;
            for k in 2.. {
                let large = frequent.level_sorted(k - 1);
                if large.is_empty() {
                    break;
                }
                let candidates =
                    rec.time("apriori.candidate_gen", op, Some(mine), || {
                        apriori_gen(&large)
                    });
                if candidates.is_empty() {
                    break;
                }
                levels += 1;
                rec.time("apriori.support_count", op, Some(mine), || {
                    count_candidates_detailed(&candidates, sub, config.counting)
                });
            }
            if levels != stats.levels {
                return Err(format!(
                    "level replay ran {levels} levels, Apriori ran {}",
                    stats.levels
                ));
            }
            rec.count(mine, "candidates", stats.candidates_counted);
            rec.count(mine, "levels", stats.levels);
            rec.count(mine, "bitmap_builds", stats.bitmap_builds);
            let gen = rec.start("rules.gen", op, parent);
            let rules = generate_rules(&frequent, config.min_confidence);
            rec.end(gen);
            rec.count(gen, "rules", rules.len() as u64);
            if measured {
                counts.candidates += stats.candidates_counted;
                counts.levels += stats.levels;
                counts.bitmap_builds += stats.bitmap_builds;
                counts.rules_held += rules.len() as u64;
            }
        }
    }
    counts.tracked_rules = miners.iter().map(|m| m.tracked_rules() as u64).sum();
    counts.hold_entries = miners.iter().map(|m| m.retained_rule_entries() as u64).sum();
    if let (Some(dir), Some(mut log)) = (wal_dir, log) {
        // The WAL tail the `ingest` workload's recovery replays: the next
        // units after a snapshot boundary, appended but not timed.
        for j in 0..WAL_TAIL_UNITS {
            let unit = pool.units[pool.index(count + j)].clone();
            log.append_batch(&[unit], &metrics).map_err(|e| e.to_string())?;
        }
        drop(log);
        for rep in 0..5 {
            rec.time("replay.recover", rep, None, || replay::recover(dir))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(counts)
}

/// Renders a rules body exactly as `GET /v1/rules` does.
pub fn render_rules(
    rules: &[CyclicRule],
    units_retained: usize,
    window: usize,
) -> Vec<u8> {
    let rendered: Vec<Json> =
        rules.iter().filter_map(|r| rule_to_json(r, None, None)).collect();
    object([
        ("units_retained", Json::from(units_retained)),
        ("window", Json::from(window)),
        ("count", Json::from(rendered.len())),
        ("rules", Json::Array(rendered)),
    ])
    .render()
    .into_bytes()
}

/// The escalated `min_confidence` of repetition `rep`: the schedule's own
/// values in turn, or [`FALLBACK_ESCALATION`] when a short schedule drew
/// none.
fn escalation(escalations: &[f64], rep: u64) -> f64 {
    match escalations.len() {
        0 => FALLBACK_ESCALATION,
        n => escalations[rep as usize % n],
    }
}

/// Replays the read path over the served window `units` (oldest first):
/// view assembly, rendering, escalated re-detection and item supports,
/// `reps` times each, one span per shard leg.
pub fn read_path(
    rec: &mut Recorder,
    config: MiningConfig,
    shards: u32,
    units: &[Vec<ItemSet>],
    escalations: &[f64],
    reps: u64,
) -> Result<usize, String> {
    let ring = ShardRing::new(shards.max(1)).ok_or("no shards")?;
    let mut miners = (0..shards.max(1))
        .map(|_| SlidingWindowMiner::new(config, units.len()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    for unit in units {
        let subunits = if shards > 1 {
            ring.split_unit(unit, PartitionKey::MinItem)
        } else {
            vec![unit.clone()]
        };
        for (miner, sub) in miners.iter_mut().zip(&subunits) {
            miner.push_unit(sub);
        }
    }
    let mut body_bytes = 0;
    for rep in 0..reps {
        let q =
            MinConfidence::new(escalation(escalations, rep)).ok_or("bad escalation")?;
        for miner in &miners {
            let view = rec
                .time("window.assemble", rep, None, || miner.assemble_view())
                .map_err(|e| e.to_string())?;
            let body = rec.time("routes.rules_render", rep, None, || {
                render_rules(&view, miner.len(), miner.window())
            });
            body_bytes = body.len();
            rec.time("window.detect", rep, None, || miner.query_rules(Some(q)))
                .map_err(|e| e.to_string())?;
            rec.time("window.item_supports", rep, None, || miner.item_supports());
        }
    }
    Ok(body_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalations_cycle_and_fall_back_when_none_were_drawn() {
        assert_eq!(escalation(&[0.7, 0.9], 0), 0.7);
        assert_eq!(escalation(&[0.7, 0.9], 3), 0.9);
        assert_eq!(escalation(&[], 0), FALLBACK_ESCALATION);
        assert_eq!(escalation(&[], 7), FALLBACK_ESCALATION);
        assert!(MinConfidence::new(FALLBACK_ESCALATION).is_some());
    }
}
