//! Support counting of one candidate batch.
//!
//! Counting is the hot loop of Apriori: for every candidate `k`-itemset,
//! how many transactions contain it? [`count_candidates`] counts a batch
//! with either engine, and tests and proptests check that both agree:
//!
//! * [`CountStrategy::Vertical`], the default: vertical tid-bitmaps (one
//!   `Vec<u64>` bitset per candidate item), so support is a chained `u64`
//!   AND + popcount. See [`crate::bitmap`]. Its cost,
//!   `O(candidates · k · ⌈n/64⌉)`, does not depend on transaction length.
//!   On this engine the miners do not count level by level through
//!   here: [`Apriori`](crate::Apriori), INTERLEAVED and
//!   [`eclat`](crate::eclat) build a unit's [`TidBitmaps`] once and count
//!   every level on them.
//! * [`CountStrategy::HashTree`]: the Apriori paper's hash tree. It is
//!   the paper-era baseline that EXP-8 and the `fig8_counting` bench
//!   measure, and the independent engine the proptests check the
//!   kernel against.

use car_itemset::ItemSet;

use crate::bitmap::TidBitmaps;
use crate::hash_tree::HashTree;

/// Which support-counting engine to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CountStrategy {
    /// Vertical tid-bitmaps: chained AND + popcount per candidate.
    #[default]
    Vertical,
    /// Classic Apriori hash tree.
    HashTree,
}

/// Counts, for each candidate, the number of transactions containing it.
///
/// All candidates must share the same size `k ≥ 1`. Returns counts
/// parallel to `candidates`. Transactions shorter than `k` are skipped.
///
/// # Panics
///
/// Panics if candidates have size 0 or mixed sizes.
pub fn count_candidates(
    candidates: &[ItemSet],
    transactions: &[ItemSet],
    strategy: CountStrategy,
) -> Vec<u64> {
    let Some(k) = candidates.first().map(ItemSet::len) else {
        return Vec::new();
    };
    assert!(k >= 1, "candidates must be non-empty itemsets");
    assert!(candidates.iter().all(|c| c.len() == k), "candidates must have uniform size");

    match strategy {
        CountStrategy::Vertical => {
            let mut bitmaps = TidBitmaps::build(candidates, transactions, k);
            candidates.iter().map(|c| bitmaps.support(c)).collect()
        }
        CountStrategy::HashTree => {
            let mut tree = HashTree::build(candidates.to_vec());
            tree.count_all(transactions);
            tree.into_counts().1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINES: [CountStrategy; 2] =
        [CountStrategy::Vertical, CountStrategy::HashTree];

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn naive(candidates: &[ItemSet], transactions: &[ItemSet]) -> Vec<u64> {
        candidates
            .iter()
            .map(|c| transactions.iter().filter(|t| c.is_subset_of(t)).count() as u64)
            .collect()
    }

    #[test]
    fn all_strategies_agree_with_naive() {
        let candidates = vec![set(&[1, 2]), set(&[2, 3]), set(&[4, 5]), set(&[1, 5])];
        let transactions = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 5]),
            set(&[4, 5]),
            set(&[2]),
            set(&[]),
            set(&[1, 2, 3, 4, 5]),
        ];
        let expected = naive(&candidates, &transactions);
        for strategy in ENGINES {
            assert_eq!(
                count_candidates(&candidates, &transactions, strategy),
                expected,
                "strategy {strategy:?}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        for strategy in ENGINES {
            assert!(count_candidates(&[], &[set(&[1])], strategy).is_empty());
            assert_eq!(count_candidates(&[set(&[1])], &[], strategy), vec![0]);
        }
    }

    #[test]
    fn singleton_candidates() {
        let candidates = vec![set(&[1]), set(&[2]), set(&[9])];
        let transactions = vec![set(&[1, 2]), set(&[1]), set(&[2, 9])];
        for strategy in ENGINES {
            assert_eq!(
                count_candidates(&candidates, &transactions, strategy),
                vec![2, 2, 1]
            );
        }
    }

    #[test]
    fn long_transactions_stay_correct_under_both_engines() {
        // One long transaction: C(30, 3) subsets against ten candidates.
        let candidates: Vec<ItemSet> =
            (0..10u32).map(|i| set(&[i, i + 10, i + 20])).collect();
        let mut transactions = vec![ItemSet::from_ids(0..30u32)];
        transactions.push(set(&[0, 10, 20]));
        let expected = naive(&candidates, &transactions);
        for strategy in ENGINES {
            assert_eq!(
                count_candidates(&candidates, &transactions, strategy),
                expected,
                "strategy {strategy:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "uniform size")]
    fn mixed_candidate_sizes_panic() {
        let _ = count_candidates(
            &[set(&[1]), set(&[1, 2])],
            &[set(&[1])],
            CountStrategy::Vertical,
        );
    }
}
