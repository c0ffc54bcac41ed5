//! Property-based tests for the itemset algebra.

use std::collections::BTreeSet;

use car_itemset::{Item, ItemSet};
use proptest::prelude::*;

fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..50, 0..12)
}

fn model(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

fn from_model(m: &BTreeSet<u32>) -> ItemSet {
    ItemSet::from_ids(m.iter().copied())
}

proptest! {
    #[test]
    fn construction_matches_btreeset(ids in arb_ids()) {
        let s = ItemSet::from_ids(ids.iter().copied());
        let m = model(&ids);
        prop_assert_eq!(s.len(), m.len());
        prop_assert_eq!(
            s.iter().map(Item::id).collect::<Vec<_>>(),
            m.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn union_matches_model(a in arb_ids(), b in arb_ids()) {
        let (sa, sb) = (ItemSet::from_ids(a.iter().copied()), ItemSet::from_ids(b.iter().copied()));
        let expected: BTreeSet<u32> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(sa.union(&sb), from_model(&expected));
    }

    #[test]
    fn intersection_matches_model(a in arb_ids(), b in arb_ids()) {
        let (sa, sb) = (ItemSet::from_ids(a.iter().copied()), ItemSet::from_ids(b.iter().copied()));
        let expected: BTreeSet<u32> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(sa.intersection(&sb), from_model(&expected));
    }

    #[test]
    fn difference_matches_model(a in arb_ids(), b in arb_ids()) {
        let (sa, sb) = (ItemSet::from_ids(a.iter().copied()), ItemSet::from_ids(b.iter().copied()));
        let expected: BTreeSet<u32> = model(&a).difference(&model(&b)).copied().collect();
        prop_assert_eq!(sa.difference(&sb), from_model(&expected));
    }

    #[test]
    fn subset_matches_model(a in arb_ids(), b in arb_ids()) {
        let (sa, sb) = (ItemSet::from_ids(a.iter().copied()), ItemSet::from_ids(b.iter().copied()));
        prop_assert_eq!(sa.is_subset_of(&sb), model(&a).is_subset(&model(&b)));
        prop_assert_eq!(sa.is_disjoint(&sb), model(&a).is_disjoint(&model(&b)));
    }

    #[test]
    fn contains_matches_model(a in arb_ids(), probe in 0u32..60) {
        let sa = ItemSet::from_ids(a.iter().copied());
        prop_assert_eq!(sa.contains(Item::new(probe)), model(&a).contains(&probe));
    }

    #[test]
    fn k_subsets_count_is_binomial(a in arb_ids(), k in 0usize..5) {
        let sa = ItemSet::from_ids(a.iter().copied());
        let n = sa.len();
        let count = sa.k_subsets(k).count();
        let binom = |n: usize, k: usize| -> usize {
            if k > n { return 0; }
            let mut r: usize = 1;
            for i in 0..k { r = r * (n - i) / (i + 1); }
            r
        };
        prop_assert_eq!(count, binom(n, k));
        // Every produced subset has size k and is a subset of the source.
        for sub in sa.k_subsets(k) {
            prop_assert_eq!(sub.len(), k);
            prop_assert!(sub.is_subset_of(&sa));
        }
    }

    #[test]
    fn k_subsets_are_distinct_and_sorted(a in arb_ids()) {
        let sa = ItemSet::from_ids(a.iter().copied());
        let k = sa.len().min(3);
        let subs: Vec<ItemSet> = sa.k_subsets(k).collect();
        for w in subs.windows(2) {
            prop_assert!(w[0] < w[1], "k-subsets must be strictly increasing");
        }
    }

    #[test]
    fn immediate_subsets_have_size_k_minus_1(a in arb_ids()) {
        let sa = ItemSet::from_ids(a.iter().copied());
        if sa.is_empty() { return Ok(()); }
        let subs: Vec<ItemSet> = sa.immediate_subsets().collect();
        prop_assert_eq!(subs.len(), sa.len());
        for s in &subs {
            prop_assert_eq!(s.len(), sa.len() - 1);
            prop_assert!(s.is_subset_of(&sa));
        }
    }
}
