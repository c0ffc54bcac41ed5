//! Equivalence properties for the sliding-window query fast path:
//! under random push/evict/query interleavings, with and without
//! confidence escalation, `SlidingWindowMiner::query_rules` must match
//! batch-mining the retained window exactly.
//!
//! This is the contract that lets the online cycle state replace
//! per-query re-detection: the memoised fast path, the uncached online
//! rebuild, and the escalated assembly all have to agree with
//! `mine_sequential` over the retained units at every point of the
//! stream. Short windows exercise the revival logic densely; one
//! property runs a 64-unit window long enough that every itemset's ring
//! (`window + 1` positions, two words) wraps. Rules are derived from the
//! itemset rings only when a view is assembled, so one property plants
//! 5–7-item patterns: consequents then grow three or more levels and a
//! consequent whose rule has no live cycle prunes its supersets. It
//! also draws fraction support (the daemon's mode) with empty units, a
//! `max_itemset_size` cap, and escalation to exactly 1.0. The window's
//! item supports, kept as running per-item totals, are checked against
//! a direct count of the retained units. Last, a stream cut into random
//! batches for `push_units` must leave the window exactly as pushing
//! its units one at a time does, after every batch.

use std::collections::BTreeMap;

use car_apriori::CountStrategy;
use car_core::window::SlidingWindowMiner;
use car_core::{sequential::mine_sequential, CyclicRule, MinConfidence, MiningConfig};
use car_itemset::{ItemSet, SegmentedDb};
use proptest::prelude::*;

fn arb_units() -> impl Strategy<Value = Vec<Vec<ItemSet>>> {
    // 6..18 units, 0..8 transactions each, items 0..6, lengths 0..4.
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec(0u32..6, 0..4).prop_map(ItemSet::from_ids),
            0..8,
        ),
        6..18,
    )
}

fn arb_window_config() -> impl Strategy<Value = (usize, MiningConfig)> {
    (
        1u64..4,      // absolute per-unit support count
        0.0f64..=1.0, // min confidence
        1u32..=3,     // l_min
        0u32..=2,     // l_max - l_min
        4usize..=8,   // window length
    )
        .prop_map(|(count, conf, lo, extra, window)| {
            let hi = (lo + extra).min(window as u32);
            let lo = lo.min(hi);
            let config = MiningConfig::builder()
                .min_support_count(count)
                .min_confidence(conf)
                .cycle_bounds(lo, hi)
                .build()
                .expect("valid generated config");
            (window, config)
        })
}

/// 140..160 small units over items 0..4 for a 64-unit window. Every
/// `period`-th unit also carries two `{0, 1}` transactions, so some
/// rules keep cycles across the whole stream.
fn arb_long_stream() -> impl Strategy<Value = Vec<Vec<ItemSet>>> {
    let unit = proptest::collection::vec(
        proptest::collection::vec(0u32..4, 1..4).prop_map(ItemSet::from_ids),
        0..6,
    );
    (proptest::collection::vec(unit, 140..160), 1usize..=16).prop_map(
        |(mut units, period)| {
            for unit in units.iter_mut().step_by(period) {
                unit.extend([ItemSet::from_ids([0, 1]), ItemSet::from_ids([0, 1])]);
            }
            units
        },
    )
}

/// Count support 1..3, any confidence, lengths up to 16 — the
/// daemon's default `l_max` at its default window of 64.
fn arb_wide_config() -> impl Strategy<Value = MiningConfig> {
    (1u64..=3, 0.0f64..=1.0, 1u32..=4, 0u32..=12).prop_map(|(count, conf, lo, extra)| {
        MiningConfig::builder()
            .min_support_count(count)
            .min_confidence(conf)
            .cycle_bounds(lo, lo + extra)
            .build()
            .expect("valid generated config")
    })
}

/// Units over items 0..10 with a planted pattern of 5–7 items. A unit on
/// the pattern's period carries 1–4 full copies of it and copies missing
/// one or two of its items, so a rule inside the pattern meets a given
/// confidence at some units and not at others. Every unit also carries
/// noise transactions of up to 8 items, and about one in six is empty.
fn arb_deep_stream() -> impl Strategy<Value = Vec<Vec<ItemSet>>> {
    let noise = proptest::collection::vec(0u32..10, 0..=8).prop_map(ItemSet::from_ids);
    let unit = (
        0u8..6,
        proptest::collection::vec(noise, 0..6),
        1usize..5,
        proptest::collection::vec((0usize..7, 0usize..7), 0..4),
    );
    (
        proptest::collection::btree_set(0u32..10, 5..=7),
        1usize..=3,
        proptest::collection::vec(unit, 8..18),
    )
        .prop_map(|(pattern, period, units)| {
            let pattern: Vec<u32> = pattern.into_iter().collect();
            let without = |drop: &[usize]| {
                let kept = pattern.iter().enumerate().filter(|(i, _)| !drop.contains(i));
                ItemSet::from_ids(kept.map(|(_, &id)| id))
            };
            units
                .into_iter()
                .enumerate()
                .map(|(day, (kind, mut noise, copies, partial))| {
                    if kind == 0 {
                        return Vec::new();
                    }
                    if day % period == 0 {
                        noise.extend(std::iter::repeat(without(&[])).take(copies));
                        noise.extend(partial.iter().map(|&(a, b)| without(&[a, b])));
                    }
                    noise
                })
                .collect()
        })
}

/// Fraction support, any confidence, an optional `max_itemset_size` cap
/// (2–7 items, so it can cut a planted pattern), lengths up to 3 and
/// windows of 4–10 units.
fn arb_deep_config() -> impl Strategy<Value = (usize, MiningConfig)> {
    (
        (0.05f64..0.6, 0.0f64..=1.0),
        proptest::option::of(2usize..=7),
        1u32..=3,
        0u32..=2,
        4usize..=10,
    )
        .prop_map(|((support, conf), cap, lo, extra, window)| {
            let hi = (lo + extra).min(window as u32);
            let lo = lo.min(hi);
            let mut builder = MiningConfig::builder()
                .min_support_fraction(support)
                .min_confidence(conf)
                .cycle_bounds(lo, hi);
            if let Some(cap) = cap {
                builder = builder.max_itemset_size(cap);
            }
            (window, builder.build().expect("valid generated config"))
        })
}

/// A stream of 6..24 units over items 0..8, about one in five empty; a
/// unit on a period of 1..=3 that is not empty also carries two
/// `{0, 1, 2}` transactions, so rules keep cycles. With it, a window of
/// 2..=8 units or (`None`) one as long as the stream, and the sizes the
/// stream is cut into. The first batch holds 1..=3 units, so later
/// batches push into a non-empty miner; the others hold 0..=20, so a
/// batch can be empty, one unit, or longer than the window. The
/// stream's remainder is a last batch.
fn arb_batched_stream(
) -> impl Strategy<Value = (Vec<Vec<ItemSet>>, Option<usize>, Vec<usize>)> {
    let tx = proptest::collection::vec(0u32..8, 0..5).prop_map(ItemSet::from_ids);
    let unit = (0u8..5, proptest::collection::vec(tx, 1..10));
    (
        proptest::collection::vec(unit, 6..24),
        1usize..=3,
        proptest::option::of(2usize..=8),
        1usize..=3,
        proptest::collection::vec(0usize..=20, 0..5),
    )
        .prop_map(|(units, period, window, first, rest)| {
            let pattern = ItemSet::from_ids([0, 1, 2]);
            let units = units
                .into_iter()
                .enumerate()
                .map(|(day, (kind, mut txs))| match kind {
                    0 => Vec::new(),
                    _ if day % period == 0 => {
                        txs.extend([pattern.clone(), pattern.clone()]);
                        txs
                    }
                    _ => txs,
                })
                .collect();
            let sizes = std::iter::once(first).chain(rest).collect();
            (units, window, sizes)
        })
}

/// Count support 1..=3 or fraction support, any confidence, lengths
/// 1..=3 (capped at the window) and an optional `max_itemset_size` cap
/// of 1..=3 items.
fn arb_batch_config() -> impl Strategy<Value = impl Fn(usize) -> MiningConfig> {
    (
        proptest::option::of(1u64..=3),
        0.05f64..0.6,
        0.0f64..=1.0,
        (1u32..=3, 0u32..=2),
        proptest::option::of(1usize..=3),
    )
        .prop_map(|(count, fraction, conf, (lo, extra), cap)| {
            move |window: usize| {
                let hi = (lo + extra).min(window as u32);
                let builder = MiningConfig::builder()
                    .min_confidence(conf)
                    .cycle_bounds(lo.min(hi), hi);
                let builder = match count {
                    Some(count) => builder.min_support_count(count),
                    None => builder.min_support_fraction(fraction),
                };
                let builder = match cap {
                    Some(cap) => builder.max_itemset_size(cap),
                    None => builder,
                };
                builder.build().expect("valid generated config")
            }
        })
}

/// Batch oracle: mine the last `window` units of `history` from scratch.
fn batch_rules(
    history: &[Vec<ItemSet>],
    window: usize,
    cfg: &MiningConfig,
) -> Vec<CyclicRule> {
    let start = history.len().saturating_sub(window);
    let db = SegmentedDb::from_unit_itemsets(history[start..].to_vec());
    mine_sequential(&db, cfg).expect("batch config valid").rules
}

/// Item-support oracle: each item's count summed over the last `window`
/// units of `history` in which it is large.
fn batch_item_supports(
    history: &[Vec<ItemSet>],
    window: usize,
    cfg: &MiningConfig,
) -> Vec<(u32, u64)> {
    let start = history.len().saturating_sub(window);
    let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
    for unit in &history[start..] {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for item in unit.iter().flat_map(ItemSet::iter) {
            *counts.entry(item.id()).or_default() += 1;
        }
        let threshold = cfg.min_support.threshold(unit.len());
        for (item, count) in counts.into_iter().filter(|&(_, c)| c >= threshold) {
            *totals.entry(item).or_default() += count;
        }
    }
    totals.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn online_fast_path_matches_batch_at_every_push(
        units in arb_units(),
        window_config in arb_window_config(),
    ) {
        let (window, cfg) = window_config;
        let mut miner = SlidingWindowMiner::new(cfg, window).unwrap();
        for (day, unit) in units.iter().enumerate() {
            miner.push_unit(unit);
            if miner.len() < cfg.cycle_bounds.l_max() as usize {
                prop_assert!(miner.current_rules().is_err(), "day {}", day);
                continue;
            }
            let batch = batch_rules(&units[..=day], window, &cfg);
            // Memoised fast path (first query fills, second reads).
            prop_assert_eq!(&*miner.current_rules().unwrap(), &batch, "day {}", day);
            prop_assert_eq!(
                &*miner.current_rules().unwrap(), &batch,
                "memoised day {}", day
            );
            // Uncached online rebuild agrees too.
            prop_assert_eq!(
                &*miner.assemble_view().unwrap(), &batch,
                "uncached day {}", day
            );
        }
    }

    #[test]
    fn window_matches_sequential_under_every_counting_engine(
        units in arb_units(),
        window_config in arb_window_config(),
    ) {
        // The window mines each unit depth-first and ignores `counting`;
        // SEQUENTIAL over the retained units must give the same rules
        // after every push under each level-wise counting engine.
        let (window, config) = window_config;
        let mut miner = SlidingWindowMiner::new(config, window).unwrap();
        for (day, unit) in units.iter().enumerate() {
            miner.push_unit(unit);
            if miner.len() < config.cycle_bounds.l_max() as usize {
                prop_assert!(miner.current_rules().is_err(), "day {}", day);
                continue;
            }
            for counting in [CountStrategy::Vertical, CountStrategy::HashTree] {
                let cfg = MiningConfig { counting, ..config };
                prop_assert_eq!(
                    &*miner.current_rules().unwrap(),
                    &batch_rules(&units[..=day], window, &cfg),
                    "{:?}, day {}", counting, day
                );
            }
        }
    }

    #[test]
    fn escalated_queries_match_batch_and_leave_the_fast_path_intact(
        units in arb_units(),
        window_config in arb_window_config(),
        bump in 0.0f64..=1.0,
    ) {
        let (window, cfg) = window_config;
        // An escalated threshold interpolated between the configured
        // confidence and 1.0 (clamped against fp drift).
        let base = cfg.min_confidence.value();
        let q = MinConfidence::new((base + (1.0 - base) * bump).min(1.0))
            .expect("interpolant stays in 0..=1");
        let mut strict_cfg = cfg;
        strict_cfg.min_confidence = q;
        let mut miner = SlidingWindowMiner::new(cfg, window).unwrap();
        for (day, unit) in units.iter().enumerate() {
            miner.push_unit(unit);
            if miner.len() < cfg.cycle_bounds.l_max() as usize {
                continue;
            }
            // Query at interleaved points, not every push, so pushes and
            // queries genuinely interleave.
            if day % 3 != 0 {
                continue;
            }
            let strict_batch = batch_rules(&units[..=day], window, &strict_cfg);
            prop_assert_eq!(
                &*miner.query_rules(Some(q)).unwrap(), &strict_batch,
                "escalated day {}", day
            );
            // The escalated assembly must not disturb the
            // default-confidence fast path.
            let batch = batch_rules(&units[..=day], window, &cfg);
            prop_assert_eq!(
                &*miner.query_rules(None).unwrap(), &batch,
                "fast path after escalation, day {}", day
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deep_patterns_match_batch_at_every_confidence(
        units in arb_deep_stream(),
        window_config in arb_deep_config(),
        bump in 0.0f64..=1.0,
    ) {
        let (window, cfg) = window_config;
        let base = cfg.min_confidence.value();
        let at = |q: f64| {
            let mut strict = cfg;
            strict.min_confidence = MinConfidence::new(q).expect("q stays in 0..=1");
            strict
        };
        // An interpolated escalation (clamped against fp drift), and
        // exactly 1.0: a rule must then hold in every transaction of its
        // antecedent.
        let interpolated = at((base + (1.0 - base) * bump).min(1.0));
        let full = at(1.0);
        let mut miner = SlidingWindowMiner::new(cfg, window).unwrap();
        for (day, unit) in units.iter().enumerate() {
            miner.push_unit(unit);
            prop_assert_eq!(
                miner.item_supports(),
                batch_item_supports(&units[..=day], window, &cfg),
                "item supports on day {}", day
            );
            if miner.len() < cfg.cycle_bounds.l_max() as usize {
                prop_assert!(miner.current_rules().is_err(), "day {}", day);
                continue;
            }
            let batch = batch_rules(&units[..=day], window, &cfg);
            prop_assert_eq!(&*miner.current_rules().unwrap(), &batch, "day {}", day);
            prop_assert_eq!(
                &*miner.assemble_view().unwrap(), &batch,
                "uncached day {}", day
            );
            for strict in [interpolated, full] {
                let q = strict.min_confidence;
                prop_assert_eq!(
                    &*miner.query_rules(Some(q)).unwrap(),
                    &batch_rules(&units[..=day], window, &strict),
                    "escalated to {} on day {}", q.value(), day
                );
            }
        }
    }
}

proptest! {
    // Each case pushes ~150 units and batch-mines 64 of them per push.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn window_64_fast_path_matches_batch_after_the_rings_wrap(
        units in arb_long_stream(),
        cfg in arb_wide_config(),
    ) {
        const WINDOW: usize = 64;
        let mut miner = SlidingWindowMiner::new(cfg, WINDOW).unwrap();
        for (day, unit) in units.iter().enumerate() {
            miner.push_unit(unit);
            prop_assert_eq!(
                miner.item_supports(),
                batch_item_supports(&units[..=day], WINDOW, &cfg),
                "item supports on day {}", day
            );
            if miner.len() < cfg.cycle_bounds.l_max() as usize {
                continue;
            }
            let batch = batch_rules(&units[..=day], WINDOW, &cfg);
            prop_assert_eq!(&*miner.current_rules().unwrap(), &batch, "day {}", day);
            prop_assert_eq!(
                &*miner.assemble_view().unwrap(), &batch,
                "uncached day {}", day
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn push_units_matches_single_pushes_after_every_batch(
        stream in arb_batched_stream(),
        config in arb_batch_config(),
        bump in 0.0f64..=1.0,
    ) {
        let (units, window, sizes) = stream;
        let window = window.unwrap_or(units.len());
        let cfg = config(window);
        let base = cfg.min_confidence.value();
        let q = MinConfidence::new((base + (1.0 - base) * bump).min(1.0))
            .expect("interpolant stays in 0..=1");
        let mut batched = SlidingWindowMiner::new(cfg, window).unwrap();
        let mut single = SlidingWindowMiner::new(cfg, window).unwrap();
        let mut start = 0;
        let cuts = sizes.into_iter().chain(std::iter::once(units.len()));
        for size in cuts {
            let end = (start + size).min(units.len());
            let batch = &units[start..end];
            let evicted: usize = batch.iter().map(|unit| single.push_unit(unit)).sum();
            prop_assert_eq!(batched.push_units(batch), evicted, "batch {}..{}", start, end);
            prop_assert_eq!(batched.len(), single.len());
            prop_assert_eq!(batched.total_pushed(), single.total_pushed());
            prop_assert_eq!(batched.evictions(), single.evictions());
            prop_assert_eq!(batched.tracked_rules(), single.tracked_rules());
            prop_assert_eq!(
                batched.retained_rule_entries(),
                single.retained_rule_entries()
            );
            prop_assert_eq!(batched.item_supports(), single.item_supports());
            let view = |miner: &SlidingWindowMiner, q: Option<MinConfidence>| {
                miner.query_rules(q).ok().map(|rules| rules.to_vec())
            };
            prop_assert_eq!(
                batched.current_rules().ok().map(|rules| rules.to_vec()),
                view(&single, None),
                "batch {}..{}", start, end
            );
            prop_assert_eq!(
                view(&batched, Some(q)),
                view(&single, Some(q)),
                "escalated to {} after batch {}..{}", q.value(), start, end
            );
            start = end;
        }
        prop_assert_eq!(batched.total_pushed(), units.len() as u64);
    }
}
