//! The central correctness property of the reproduction: SEQUENTIAL and
//! INTERLEAVED (under every ablation combination), plus the parallel
//! variant, produce identical cyclic rules with identical minimal cycles
//! on arbitrary segmented databases. The parallel variant also does
//! exactly SEQUENTIAL's work.

use car_core::{
    interleaved::mine_interleaved, sequential::mine_sequential, CountStrategy,
    InterleavedOptions, MiningConfig,
};
use car_itemset::{ItemSet, SegmentedDb};
use proptest::prelude::*;

fn arb_db() -> impl Strategy<Value = SegmentedDb> {
    // 4..10 units, 0..8 transactions each, items 0..6, lengths 0..4.
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::vec(0u32..6, 0..4).prop_map(ItemSet::from_ids),
            0..8,
        ),
        4..10,
    )
    .prop_map(SegmentedDb::from_unit_itemsets)
}

fn arb_config(max_units: u32) -> impl Strategy<Value = MiningConfig> {
    (
        1u64..4,      // absolute per-unit support count
        0.0f64..=1.0, // min confidence
        1u32..=3,     // l_min
        0u32..=2,     // l_max - l_min
    )
        .prop_map(move |(count, conf, lo, extra)| {
            let hi = (lo + extra).min(max_units.max(1));
            let lo = lo.min(hi);
            MiningConfig::builder()
                .min_support_count(count)
                .min_confidence(conf)
                .cycle_bounds(lo, hi)
                .build()
                .expect("valid generated config")
        })
}

fn all_option_combos() -> [InterleavedOptions; 8] {
    let mut combos = [InterleavedOptions::all(); 8];
    for (i, combo) in combos.iter_mut().enumerate() {
        combo.cycle_pruning = i & 1 != 0;
        combo.cycle_skipping = i & 2 != 0;
        combo.cycle_elimination = i & 4 != 0;
    }
    combos
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interleaved_matches_sequential_under_all_ablations(
        db in arb_db(),
        seed_config in arb_config(4),
    ) {
        let cfg = seed_config;
        let seq = mine_sequential(&db, &cfg).expect("valid config");
        for opts in all_option_combos() {
            let int = mine_interleaved(&db, &cfg, opts).expect("valid config");
            prop_assert_eq!(
                &seq.rules, &int.rules,
                "ablation {:?} diverged (config {:?})", opts, cfg
            );
        }
    }

    #[test]
    fn counting_engines_do_not_change_results(
        db in arb_db(),
        seed_config in arb_config(4),
    ) {
        // INTERLEAVED counts on the vertical kernel alone; SEQUENTIAL's
        // Apriori on the hash tree is the independent engine it must
        // agree with.
        let int = mine_interleaved(&db, &seed_config, InterleavedOptions::all()).unwrap();
        let cfg = MiningConfig { counting: CountStrategy::HashTree, ..seed_config };
        let seq = mine_sequential(&db, &cfg).unwrap();
        prop_assert_eq!(seq.rules, int.rules);
    }

    #[test]
    fn mined_rules_satisfy_definition(
        db in arb_db(),
        seed_config in arb_config(4),
    ) {
        // Every reported (rule, cycle) pair must satisfy the definition:
        // in each on-cycle unit the union is large and confidence passes.
        let cfg = seed_config;
        let outcome = mine_sequential(&db, &cfg).expect("valid config");
        for cr in &outcome.rules {
            let z = cr.rule.itemset();
            prop_assert!(!cr.cycles.is_empty());
            for &cycle in &cr.cycles {
                for u in cycle.units(db.num_units()) {
                    let unit = db.unit(u);
                    let threshold = cfg.min_support.threshold(unit.len());
                    let z_count =
                        unit.iter().filter(|t| z.is_subset_of(t)).count() as u64;
                    let x_count = unit
                        .iter()
                        .filter(|t| cr.rule.antecedent.is_subset_of(t))
                        .count() as u64;
                    prop_assert!(
                        z_count >= threshold,
                        "{} not large at unit {} of cycle {}", z, u, cycle
                    );
                    prop_assert!(
                        cfg.min_confidence.accepts(z_count, x_count),
                        "{} fails confidence at unit {} of cycle {}",
                        cr.rule, u, cycle
                    );
                }
            }
            // Minimality: no reported cycle is a multiple of another.
            for &a in &cr.cycles {
                for &b in &cr.cycles {
                    if a != b {
                        prop_assert!(!a.is_multiple_of(b));
                    }
                }
            }
        }
    }

    #[test]
    fn mined_rules_are_complete(
        db in arb_db(),
        seed_config in arb_config(4),
    ) {
        // Spot-check completeness: for every pair of items (a, b) and the
        // rule {a} => {b}, compute its hold-sequence by definition and
        // verify the miner reports it cyclic iff the sequence has a cycle.
        use car_cycles::{detect_cycles, BitSeq};
        let cfg = seed_config;
        let outcome = mine_sequential(&db, &cfg).expect("valid config");
        let n = db.num_units();
        for a in 0u32..6 {
            for b in 0u32..6 {
                if a == b { continue; }
                let x = ItemSet::from_ids([a]);
                let z = ItemSet::from_ids([a, b]);
                let mut seq = BitSeq::zeros(n);
                for (u, unit) in db.iter_units() {
                    let threshold = cfg.min_support.threshold(unit.len());
                    let z_count = unit.iter().filter(|t| z.is_subset_of(t)).count() as u64;
                    let x_count = unit.iter().filter(|t| x.is_subset_of(t)).count() as u64;
                    if z_count >= threshold && cfg.min_confidence.accepts(z_count, x_count) {
                        seq.set(u, true);
                    }
                }
                let expected = !detect_cycles(&seq, cfg.cycle_bounds).is_empty();
                let reported = outcome.rules.iter().any(|cr| {
                    cr.rule.antecedent == x
                        && cr.rule.consequent == ItemSet::from_ids([b])
                });
                prop_assert_eq!(
                    reported, expected,
                    "rule {{{}}} => {{{}}} (config {:?})", a, b, cfg
                );
            }
        }
    }
}

mod parallel_equivalence {
    use super::*;
    use car_core::parallel::mine_sequential_parallel;
    use car_core::MiningStats;
    use std::time::Duration;

    fn arb_counting() -> impl Strategy<Value = CountStrategy> {
        (0usize..2).prop_map(|i| [CountStrategy::Vertical, CountStrategy::HashTree][i])
    }

    /// `stats` without its wall-clock times.
    fn work(stats: MiningStats) -> MiningStats {
        MiningStats { phase1: Duration::ZERO, phase2: Duration::ZERO, ..stats }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn parallel_matches_serial(
            db in arb_db(),
            seed_config in arb_config(4),
            threads in 1usize..5,
            counting in arb_counting(),
        ) {
            let cfg = MiningConfig { counting, ..seed_config };
            let serial = mine_sequential(&db, &cfg).unwrap();
            let parallel = mine_sequential_parallel(&db, &cfg, threads).unwrap();
            prop_assert_eq!(serial.rules, parallel.rules);
            prop_assert_eq!(work(serial.stats), work(parallel.stats), "{:?}", counting);
        }
    }
}
