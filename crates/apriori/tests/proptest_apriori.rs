//! Property-based tests: counting engines against a naive oracle, Apriori
//! against the definition-level miner, and rule-generation invariants.

mod oracles;

use car_apriori::{
    count_candidates, eclat, generate_rules, Apriori, AprioriConfig, CountStrategy,
    MinConfidence, MinSupport, TidBitmaps,
};
use car_itemset::ItemSet;
use oracles::{fp_growth, naive};
use proptest::prelude::*;

fn arb_transactions() -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..12, 0..8).prop_map(ItemSet::from_ids),
        0..25,
    )
}

fn arb_candidates(k: usize) -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::btree_set(
        proptest::collection::btree_set(0u32..12, k..=k).prop_map(ItemSet::from_ids),
        0..20,
    )
    .prop_map(|s| s.into_iter().collect())
}

/// Half dense ids, half ids near `u32::MAX` — forces the hashed
/// `ItemMap` fallback inside the vertical bitmap build.
fn sparse_id(v: u32) -> u32 {
    if v < 12 {
        v
    } else {
        u32::MAX - 1 - (v - 12)
    }
}

/// Databases of 0–200 transactions, so that they cross the 64- and
/// 128-transaction words of a tid-bitmap, with ids either dense or
/// through [`sparse_id`], empty transactions, and an empty database in at
/// least one case in eight.
fn arb_wide_transactions() -> impl Strategy<Value = Vec<ItemSet>> {
    (0u32..8, any::<bool>()).prop_flat_map(|(shape, sparse)| {
        let max_len = if shape == 0 { 0 } else { 200 };
        let id = move |v: u32| if sparse { sparse_id(v) } else { v };
        proptest::collection::vec(
            proptest::collection::vec((0u32..24).prop_map(id), 0..8)
                .prop_map(ItemSet::from_ids),
            0..=max_len,
        )
    })
}

/// Count support, fraction support, and the fractions 0.0 and 1.0.
fn arb_min_support() -> impl Strategy<Value = MinSupport> {
    (0u32..6, 1u64..6, 0.0f64..0.2).prop_map(|(kind, count, fraction)| match kind {
        0..=2 => MinSupport::count(count),
        3 => MinSupport::fraction(fraction).unwrap(),
        4 => MinSupport::fraction(0.0).unwrap(),
        _ => MinSupport::fraction(1.0).unwrap(),
    })
}

fn arb_sparse_transactions() -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..24).prop_map(sparse_id), 0..8)
            .prop_map(ItemSet::from_ids),
        0..25,
    )
}

fn arb_sparse_candidates(k: usize) -> impl Strategy<Value = Vec<ItemSet>> {
    proptest::collection::btree_set(
        proptest::collection::btree_set((0u32..24).prop_map(sparse_id), k..=k)
            .prop_map(ItemSet::from_ids),
        0..20,
    )
    .prop_map(|s| s.into_iter().collect())
}

/// An item no generated transaction or candidate holds: above the dense
/// ids and below the sparse ones.
const UNSEEN: u32 = 100;

/// Sort keys that shuffle up to 20 candidates.
fn arb_shuffle() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 20)
}

/// Counts `cands`, sorted candidates of one length, on one vertical build
/// at `min_len` 1 in orders a stale prefix row would miscount, and checks
/// every count against the naive oracle: the candidates reversed,
/// shuffled by `keys`, mixed with all their prefixes (every length from
/// 1 up), and with a candidate holding [`UNSEEN`] between each two that
/// share a prefix. The counts run one after another on the same build,
/// so each order starts from the row the last one left.
fn kernel_matches_naive_in_any_order(
    cands: &[ItemSet],
    tx: &[ItemSet],
    keys: &[u64],
) -> Result<(), TestCaseError> {
    let mut shuffled: Vec<(u64, ItemSet)> =
        keys.iter().copied().zip(cands.to_vec()).collect();
    shuffled.sort();
    let mut mixed: Vec<ItemSet> = cands
        .iter()
        .flat_map(|c| {
            (1..=c.len()).map(|len| ItemSet::from_sorted_vec(c[..len].to_vec()))
        })
        .collect();
    mixed.sort();
    mixed.dedup();
    let mut unseen = Vec::new();
    for (i, c) in cands.iter().enumerate() {
        unseen.push(c.clone());
        let Some(next) = cands.get(i + 1) else { continue };
        let prefix = &c[..c.len() - 1];
        if !prefix.is_empty() && next.starts_with(prefix) {
            let ids = prefix.iter().map(|item| item.id()).chain([UNSEEN]);
            unseen.push(ItemSet::from_ids(ids));
        }
    }
    let orders = [
        ("reversed", cands.iter().rev().cloned().collect()),
        ("shuffled", shuffled.into_iter().map(|(_, c)| c).collect()),
        ("mixed lengths", mixed.clone()),
        ("unseen item", unseen),
    ];
    let mut bitmaps = TidBitmaps::build(&mixed, tx, 1);
    for (name, order) in orders {
        let got: Vec<u64> = order.iter().map(|c| bitmaps.support(c)).collect();
        let want: Vec<u64> = order.iter().map(|c| naive::count_itemset(c, tx)).collect();
        prop_assert_eq!(got, want, "{} order {:?}", name, order);
    }
    Ok(())
}

proptest! {
    #[test]
    fn counting_engines_match_naive(
        tx in arb_transactions(),
        cands in (1usize..4).prop_flat_map(arb_candidates),
        keys in arb_shuffle(),
    ) {
        let expected: Vec<u64> = cands
            .iter()
            .map(|c| naive::count_itemset(c, &tx))
            .collect();
        for strategy in [CountStrategy::Vertical, CountStrategy::HashTree] {
            prop_assert_eq!(
                count_candidates(&cands, &tx, strategy),
                expected.clone(),
                "strategy {:?}", strategy
            );
        }
        kernel_matches_naive_in_any_order(&cands, &tx, &keys)?;
    }

    #[test]
    fn apriori_matches_naive_miner(
        tx in arb_transactions(),
        threshold in 1u64..6,
    ) {
        let ms = MinSupport::count(threshold);
        let fast = Apriori::new(AprioriConfig::new(ms)).mine(&tx);
        let slow = naive::frequent_itemsets(&tx, ms, None);
        let mut a: Vec<(ItemSet, u64)> = fast.iter().map(|(s, c)| (s.clone(), c)).collect();
        let mut b: Vec<(ItemSet, u64)> = slow.iter().map(|(s, c)| (s.clone(), c)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn three_miners_agree(
        tx in arb_wide_transactions(),
        ms in arb_min_support(),
        max_size in proptest::option::of(0usize..6),
    ) {
        // Apriori (level-wise), Eclat (depth-first over tid-bitmaps), and
        // FP-Growth (pattern growth) are three independent mechanisms;
        // they must produce identical frequent itemsets with identical
        // counts.
        let mut config = AprioriConfig::new(ms);
        if let Some(cap) = max_size {
            config = config.with_max_size(cap);
        }
        let a = Apriori::new(config).mine(&tx);
        let e = eclat(&tx, ms, max_size);
        let f = fp_growth(&tx, ms, max_size);
        let sorted = |x: &car_apriori::FrequentItemsets| {
            let mut v: Vec<(ItemSet, u64)> = x.iter().map(|(s, c)| (s.clone(), c)).collect();
            v.sort();
            v
        };
        let mut e: Vec<(ItemSet, u64)> =
            e.iter().map(|(s, c)| (ItemSet::from_sorted_vec(s.to_vec()), c)).collect();
        e.sort();
        prop_assert_eq!(sorted(&a), e, "apriori vs eclat");
        prop_assert_eq!(sorted(&a), sorted(&f), "apriori vs fp-growth");
    }

    #[test]
    fn apriori_engines_agree(
        tx in arb_transactions(),
        threshold in 1u64..5,
    ) {
        let base = AprioriConfig::new(MinSupport::count(threshold));
        let sorted = |f: &car_apriori::FrequentItemsets| {
            let mut v: Vec<(ItemSet, u64)> = f.iter().map(|(s, c)| (s.clone(), c)).collect();
            v.sort();
            v
        };
        let v = Apriori::new(base).mine(&tx);
        let b = Apriori::new(base.with_counting(CountStrategy::HashTree)).mine(&tx);
        prop_assert_eq!(sorted(&v), sorted(&b), "vertical vs hashtree");
    }

    #[test]
    fn vertical_kernel_matches_naive_on_sparse_ids(
        tx in arb_sparse_transactions(),
        cands in (1usize..3).prop_flat_map(arb_sparse_candidates),
        keys in arb_shuffle(),
    ) {
        let expected: Vec<u64> = cands
            .iter()
            .map(|c| naive::count_itemset(c, &tx))
            .collect();
        prop_assert_eq!(
            count_candidates(&cands, &tx, CountStrategy::Vertical),
            expected
        );
        kernel_matches_naive_in_any_order(&cands, &tx, &keys)?;
    }

    #[test]
    fn frequent_itemsets_satisfy_definition(
        tx in arb_transactions(),
        threshold in 1u64..5,
    ) {
        let ms = MinSupport::count(threshold);
        let f = Apriori::new(AprioriConfig::new(ms)).mine(&tx);
        for (itemset, count) in f.iter() {
            prop_assert_eq!(count, naive::count_itemset(itemset, &tx));
            prop_assert!(count >= threshold.max(1));
            // Anti-monotonicity: every immediate subset is also large.
            for sub in itemset.immediate_subsets() {
                if !sub.is_empty() {
                    prop_assert!(f.contains(&sub), "{} missing subset {}", itemset, sub);
                }
            }
        }
    }

    #[test]
    fn rules_satisfy_thresholds(
        tx in arb_transactions(),
        threshold in 1u64..4,
        conf in 0.0f64..=1.0,
    ) {
        let f = Apriori::new(AprioriConfig::new(MinSupport::count(threshold))).mine(&tx);
        let minconf = MinConfidence::new(conf).unwrap();
        for r in generate_rules(&f, minconf) {
            // Both sides non-empty and disjoint.
            prop_assert!(!r.rule.antecedent.is_empty());
            prop_assert!(!r.rule.consequent.is_empty());
            prop_assert!(r.rule.antecedent.is_disjoint(&r.rule.consequent));
            // Counts are exact.
            let z = r.rule.itemset();
            prop_assert_eq!(r.rule_count, naive::count_itemset(&z, &tx));
            prop_assert_eq!(
                r.antecedent_count,
                naive::count_itemset(&r.rule.antecedent, &tx)
            );
            // Confidence threshold honoured (integer comparison).
            prop_assert!(minconf.accepts(r.rule_count, r.antecedent_count));
        }
    }

    #[test]
    fn rule_generation_is_complete(
        tx in arb_transactions(),
        threshold in 1u64..4,
    ) {
        // Every (X ⇒ Y) with Z = X∪Y frequent and confidence ≥ 0 must be
        // produced when minconf = 0.
        let f = Apriori::new(AprioriConfig::new(MinSupport::count(threshold))).mine(&tx);
        let rules = generate_rules(&f, MinConfidence::new(0.0).unwrap());
        let mut expected = 0usize;
        for (z, _) in f.iter() {
            if z.len() >= 2 {
                // antecedent nonempty, consequent nonempty: 2^n - 2 splits,
                // but confidence undefined (antecedent count 0) never
                // happens for subsets of a frequent itemset.
                expected += (1usize << z.len()) - 2;
            }
        }
        prop_assert_eq!(rules.len(), expected);
    }
}
