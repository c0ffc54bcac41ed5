//! Property tests for the extension features: approximate cycles and
//! rule-timeline analysis — both pinned to the batch miners as oracles.

use std::time::Duration;

use car_core::analyze::analyze_rule;
use car_core::approx::mine_approx;
use car_core::{sequential::mine_sequential, CountStrategy, MiningConfig, MiningStats};
use car_itemset::{ItemSet, SegmentedDb};
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = SegmentedDb> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec(0u32..6, 0..4).prop_map(ItemSet::from_ids),
            0..8,
        ),
        4..10,
    )
    .prop_map(SegmentedDb::from_unit_itemsets)
}

fn arb_config(max_l: u32) -> impl Strategy<Value = MiningConfig> {
    (1u64..4, 0.0f64..=1.0, 1u32..=3, 0u32..=1).prop_map(
        move |(count, conf, lo, extra)| {
            let hi = (lo + extra).min(max_l);
            MiningConfig::builder()
                .min_support_count(count)
                .min_confidence(conf)
                .cycle_bounds(lo.min(hi), hi)
                .build()
                .expect("valid generated config")
        },
    )
}

fn arb_counting() -> impl Strategy<Value = CountStrategy> {
    (0usize..2).prop_map(|i| [CountStrategy::Vertical, CountStrategy::HashTree][i])
}

/// `stats` without its wall-clock times.
fn work(stats: MiningStats) -> MiningStats {
    MiningStats { phase1: Duration::ZERO, phase2: Duration::ZERO, ..stats }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn approx_zero_budget_rule_set_equals_exact(
        db in arb_db(),
        cfg in arb_config(4),
        counting in arb_counting(),
    ) {
        let cfg = MiningConfig { counting, ..cfg };
        let exact = mine_sequential(&db, &cfg).unwrap();
        let approx = mine_approx(&db, &cfg, 0).unwrap();
        let exact_rules: Vec<_> = exact.rules.iter().map(|r| r.rule.clone()).collect();
        let approx_rules: Vec<_> = approx.rules.iter().map(|r| r.rule.clone()).collect();
        prop_assert_eq!(exact_rules, approx_rules);
        prop_assert_eq!(work(exact.stats), work(approx.stats), "{:?}", counting);
    }

    #[test]
    fn approx_budget_is_monotone(db in arb_db(), cfg in arb_config(4)) {
        let mut previous: Option<usize> = None;
        for budget in 0..3u32 {
            let outcome = mine_approx(&db, &cfg, budget).unwrap();
            if let Some(prev) = previous {
                prop_assert!(outcome.rules.len() >= prev);
            }
            previous = Some(outcome.rules.len());
        }
    }

    #[test]
    fn analysis_agrees_with_mining(db in arb_db(), cfg in arb_config(4)) {
        let outcome = mine_sequential(&db, &cfg).unwrap();
        for mined in outcome.rules.iter().take(10) {
            let timeline = analyze_rule(&db, &cfg, &mined.rule).unwrap();
            prop_assert_eq!(&timeline.cycles, &mined.cycles, "{}", mined.rule);
            prop_assert!(timeline.units_held() > 0);
        }
    }
}
