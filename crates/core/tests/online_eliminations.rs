//! The window's global `online_eliminations` counter moves once per
//! assembled default view and never for an escalated query: whether an
//! itemset has a live cycle does not depend on the confidence, so an
//! escalated view would count the same eliminations again.
//!
//! The counter is process-global, so this file holds a single test: no
//! other test of the same binary can assemble concurrently and move it.

use car_apriori::MinConfidence;
use car_core::window::SlidingWindowMiner;
use car_core::MiningConfig;
use car_itemset::ItemSet;
use car_obs::counters::MINE;

/// The counter's movement across `query`.
fn eliminations_of(query: impl FnOnce()) -> u64 {
    let before = MINE.snapshot().online_eliminations;
    query();
    MINE.snapshot().online_eliminations - before
}

#[test]
fn only_the_default_view_counts_online_eliminations() {
    let config = MiningConfig::builder()
        .min_support_fraction(0.5)
        .min_confidence(0.5)
        .cycle_bounds(2, 4)
        .build()
        .unwrap();
    let mut miner = SlidingWindowMiner::new(config, 8).unwrap();
    // {1, 2} in even units and {7} in odd ones. Each of the four
    // tracked itemsets {1}, {2}, {1, 2} and {7} keeps 3 of the 9 cycles
    // at lengths 2..4: (2, 0), (4, 0), (4, 2) or (2, 1), (4, 1), (4, 3).
    for day in 0..8 {
        let items: &[u32] = if day % 2 == 0 { &[1, 2] } else { &[7] };
        miner.push_unit(&vec![ItemSet::from_ids(items.iter().copied()); 4]);
    }
    let first = eliminations_of(|| drop(miner.current_rules().unwrap()));
    assert_eq!(first, 4 * (9 - 3));
    // The memoised view is not assembled again.
    assert_eq!(eliminations_of(|| drop(miner.current_rules().unwrap())), 0);
    // An escalated query assembles at its own confidence, uncounted.
    let strict = MinConfidence::new(0.9).unwrap();
    assert_eq!(eliminations_of(|| drop(miner.query_rules(Some(strict)).unwrap())), 0);
    // The uncached default assembly counts the same eliminations again.
    assert_eq!(eliminations_of(|| drop(miner.assemble_view().unwrap())), first);
}
