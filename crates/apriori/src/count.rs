//! Support counting for the level-wise miners.
//!
//! Counting is the hot loop of Apriori: for every candidate `k`-itemset,
//! how many transactions contain it? Two engines are provided and kept
//! behaviourally identical (tests and proptests cross-check them):
//!
//! * [`CountStrategy::Vertical`], the default: per-batch vertical
//!   tid-bitmaps (one `Vec<u64>` bitset per candidate item), so support
//!   is a chained `u64` AND + popcount. See [`crate::bitmap`]. Its cost,
//!   `O(candidates · k · ⌈n/64⌉)`, does not depend on transaction length.
//! * [`CountStrategy::HashTree`]: the Apriori paper's hash tree. It is
//!   the paper-era baseline that EXP-8 and the `fig8_counting` bench
//!   measure, and the independent engine the proptests check the
//!   kernel against.

use car_itemset::ItemSet;

use crate::bitmap::count_vertical;
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

/// Result of one counting batch.
#[derive(Clone, Debug)]
pub struct CountOutcome {
    /// Per-candidate support counts, parallel to the input slice.
    pub counts: Vec<u64>,
    /// Vertical bitmap constructions performed (0 or 1 per batch) —
    /// threaded into `MiningStats::bitmap_builds` by the miners.
    pub bitmap_builds: u64,
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
    count_candidates_detailed(candidates, transactions, strategy).counts
}

/// Like [`count_candidates`], but also reports how many vertical bitmap
/// builds the batch performed.
///
/// # Panics
///
/// Panics if candidates have size 0 or mixed sizes.
pub fn count_candidates_detailed(
    candidates: &[ItemSet],
    transactions: &[ItemSet],
    strategy: CountStrategy,
) -> CountOutcome {
    if candidates.is_empty() {
        return CountOutcome { counts: Vec::new(), bitmap_builds: 0 };
    }
    let k = candidates[0].len();
    assert!(k >= 1, "candidates must be non-empty itemsets");
    assert!(candidates.iter().all(|c| c.len() == k), "candidates must have uniform size");

    match strategy {
        CountStrategy::Vertical => CountOutcome {
            counts: count_vertical(candidates, transactions, k),
            bitmap_builds: 1,
        },
        CountStrategy::HashTree => {
            let mut tree = HashTree::build(candidates.to_vec());
            tree.count_all(transactions);
            CountOutcome { counts: tree.into_counts().1, bitmap_builds: 0 }
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
    fn detailed_reports_forced_engines() {
        let candidates = vec![set(&[1])];
        let transactions = vec![set(&[1])];
        for (strategy, builds) in
            [(CountStrategy::HashTree, 0), (CountStrategy::Vertical, 1)]
        {
            let outcome = count_candidates_detailed(&candidates, &transactions, strategy);
            assert_eq!(outcome.counts, vec![1]);
            assert_eq!(outcome.bitmap_builds, builds);
        }
        assert_eq!(CountStrategy::default(), CountStrategy::Vertical);
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
