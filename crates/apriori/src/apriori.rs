//! The level-wise Apriori driver.

use car_itemset::{Item, ItemSet};

use crate::bitmap::{ItemCounter, TidBitmaps};
use crate::candidate::apriori_gen;
use crate::count::{count_candidates, CountStrategy};
use crate::frequent::FrequentItemsets;
use crate::support::MinSupport;

/// Configuration for an [`Apriori`] run.
#[derive(Clone, Copy, Debug)]
pub struct AprioriConfig {
    /// Minimum support for an itemset to be large.
    pub min_support: MinSupport,
    /// Optional cap on itemset size (`None` = unbounded).
    pub max_size: Option<usize>,
    /// Support counting engine: the vertical kernel by default, or the
    /// paper-era hash tree, rebuilt at every level, that tests and the
    /// counting benchmark compare it with.
    pub counting: CountStrategy,
}

impl AprioriConfig {
    /// Configuration with the given support threshold and defaults
    /// elsewhere (no size cap, the vertical counting kernel).
    pub fn new(min_support: MinSupport) -> Self {
        AprioriConfig { min_support, max_size: None, counting: CountStrategy::Vertical }
    }

    /// Caps the size of mined itemsets.
    pub fn with_max_size(mut self, max_size: usize) -> Self {
        self.max_size = Some(max_size);
        self
    }

    /// Selects the counting engine.
    pub fn with_counting(mut self, counting: CountStrategy) -> Self {
        self.counting = counting;
        self
    }
}

/// Work counters reported by [`Apriori::mine_with_stats`].
///
/// `candidates_counted` is the number of `(candidate, database)` support
/// computations performed — the unit in which the ICDE'98 paper measures
/// the work its INTERLEAVED optimizations avoid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AprioriStats {
    /// Candidate itemsets whose support was counted (including level 1
    /// items).
    pub candidates_counted: u64,
    /// Number of levels (database passes) executed.
    pub levels: u64,
    /// Vertical tid-bitmap constructions: 1 when the default engine
    /// counted a level `k ≥ 2` (every level is counted on that one
    /// build), else 0.
    pub bitmap_builds: u64,
}

/// The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB 1994).
///
/// Level-wise search: count single items, then repeatedly generate
/// candidate `(k+1)`-itemsets from the large `k`-itemsets (join + prune)
/// and count them, until no candidates survive.
#[derive(Clone, Debug)]
pub struct Apriori {
    config: AprioriConfig,
}

impl Apriori {
    /// Creates a miner with the given configuration.
    pub fn new(config: AprioriConfig) -> Self {
        Apriori { config }
    }

    /// Mines all large itemsets of `transactions`.
    pub fn mine(&self, transactions: &[ItemSet]) -> FrequentItemsets {
        self.mine_with_stats(transactions).0
    }

    /// Mines all large itemsets, also reporting work counters.
    pub fn mine_with_stats(
        &self,
        transactions: &[ItemSet],
    ) -> (FrequentItemsets, AprioriStats) {
        let mut stats = AprioriStats::default();
        let mut result = FrequentItemsets::new(transactions.len());
        let threshold = self.config.min_support.threshold(transactions.len());
        if self.config.max_size == Some(0) {
            return (result, stats);
        }

        // Level 1: every item that occurs is a counted candidate.
        let (counted, mut large) = large_items(transactions, threshold, &mut result);
        stats.candidates_counted = counted as u64;
        stats.levels = 1;

        // Levels k >= 2. The vertical engine counts them all on one
        // build over the large items at `min_len` 2, as `eclat` does (a
        // transaction shorter than `k` sets bits but holds no
        // `k`-candidate); the hash tree is rebuilt at every level.
        let mut bitmaps: Option<TidBitmaps> = None;
        let mut k = 1;
        while !large.is_empty() {
            k += 1;
            if self.config.max_size.is_some_and(|cap| k > cap) {
                break;
            }
            let candidates = apriori_gen(&large);
            if candidates.is_empty() {
                break;
            }
            stats.candidates_counted =
                stats.candidates_counted.saturating_add(candidates.len() as u64);
            stats.levels = stats.levels.saturating_add(1);
            let span = car_obs::time_span!("mine.apriori.support_count");
            let counts = match self.config.counting {
                CountStrategy::Vertical => {
                    let rows = bitmaps.get_or_insert_with(|| {
                        TidBitmaps::build(&large, transactions, 2)
                    });
                    candidates.iter().map(|c| rows.support(c)).collect()
                }
                CountStrategy::HashTree => {
                    count_candidates(&candidates, transactions, CountStrategy::HashTree)
                }
            };
            drop(span);
            large = candidates
                .into_iter()
                .zip(counts)
                .filter(|&(_, c)| c >= threshold)
                .map(|(s, c)| {
                    result.insert(s.clone(), c);
                    s
                })
                .collect();
        }
        stats.bitmap_builds = u64::from(bitmaps.is_some());
        (result, stats)
    }
}

/// The level-1 scan both [`Apriori`] and [`eclat`](crate::eclat) start
/// from: direct item counting through a flat refstore when the id space
/// is dense (the vocabulary-interned common case), after one cheap
/// pre-pass that sizes the store. Records the large items in `result`
/// and returns them, sorted, with the number of distinct items counted.
pub(crate) fn large_items(
    transactions: &[ItemSet],
    threshold: u64,
    result: &mut FrequentItemsets,
) -> (usize, Vec<ItemSet>) {
    let mut max_id: u32 = 0;
    let mut occurrences: usize = 0;
    for t in transactions {
        for item in t.iter() {
            max_id = max_id.max(item.id());
            occurrences = occurrences.saturating_add(1);
        }
    }
    let mut item_counts = ItemCounter::for_universe(max_id, occurrences);
    for t in transactions {
        for item in t.iter() {
            item_counts.add(item.id(), 1);
        }
    }
    let mut large: Vec<ItemSet> = Vec::new();
    for id in item_counts.ids_sorted() {
        let count = item_counts.get(id);
        if count >= threshold {
            let s = ItemSet::single(Item::new(id));
            result.insert(s.clone(), count);
            large.push(s);
        }
    }
    (item_counts.len(), large)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    /// The classic 9-transaction example from Han & Kamber.
    fn han_kamber() -> Vec<ItemSet> {
        vec![
            set(&[1, 2, 5]),
            set(&[2, 4]),
            set(&[2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 3]),
            set(&[1, 2, 3, 5]),
            set(&[1, 2, 3]),
        ]
    }

    #[test]
    fn han_kamber_example() {
        let config = AprioriConfig::new(MinSupport::count(2));
        let f = Apriori::new(config).mine(&han_kamber());
        // Known result: L1 = 5 itemsets, L2 = 6, L3 = 2.
        assert_eq!(f.level(1).count(), 5);
        assert_eq!(f.level(2).count(), 6);
        assert_eq!(f.level(3).count(), 2);
        assert_eq!(f.count(&set(&[1, 2])), Some(4));
        assert_eq!(f.count(&set(&[1, 2, 3])), Some(2));
        assert_eq!(f.count(&set(&[1, 2, 5])), Some(2));
        assert_eq!(f.count(&set(&[4])), Some(2));
        assert_eq!(f.count(&set(&[2, 5])), Some(2));
        assert_eq!(f.count(&set(&[3, 5])), None);
        assert_eq!(f.max_level(), 3);
    }

    #[test]
    fn both_engines_agree_on_han_kamber() {
        let base = AprioriConfig::new(MinSupport::count(2));
        let a = Apriori::new(base).mine(&han_kamber());
        let b =
            Apriori::new(base.with_counting(CountStrategy::HashTree)).mine(&han_kamber());
        let mut av: Vec<_> = a.iter().map(|(s, c)| (s.clone(), c)).collect();
        let mut bv: Vec<_> = b.iter().map(|(s, c)| (s.clone(), c)).collect();
        av.sort();
        bv.sort();
        assert_eq!(av, bv);
    }

    #[test]
    fn one_bitmap_build_counts_every_level() {
        let base = AprioriConfig::new(MinSupport::count(2));
        let (vertical, stats) = Apriori::new(base).mine_with_stats(&han_kamber());
        assert_eq!((stats.levels, stats.bitmap_builds), (3, 1));
        let hash_tree = Apriori::new(base.with_counting(CountStrategy::HashTree));
        let (tree, tree_stats) = hash_tree.mine_with_stats(&han_kamber());
        assert_eq!(tree_stats, AprioriStats { bitmap_builds: 0, ..stats });
        assert_eq!(tree.len(), vertical.len());
        // No level 2 is counted, so nothing is built.
        let capped = Apriori::new(base.with_max_size(1)).mine_with_stats(&han_kamber());
        assert_eq!(capped.1.bitmap_builds, 0);
    }

    #[test]
    fn fraction_threshold() {
        // 50% of 4 transactions = 2.
        let tx = vec![set(&[1, 2]), set(&[1]), set(&[2]), set(&[3])];
        let f = Apriori::new(AprioriConfig::new(MinSupport::fraction(0.5).unwrap()))
            .mine(&tx);
        assert_eq!(f.count(&set(&[1])), Some(2));
        assert_eq!(f.count(&set(&[2])), Some(2));
        assert_eq!(f.count(&set(&[3])), None);
        assert_eq!(f.count(&set(&[1, 2])), None); // count 1 < 2
    }

    #[test]
    fn empty_database_yields_nothing() {
        let f = Apriori::new(AprioriConfig::new(MinSupport::fraction(0.1).unwrap()))
            .mine(&[]);
        assert!(f.is_empty());
        assert_eq!(f.num_transactions(), 0);
    }

    #[test]
    fn max_size_caps_levels() {
        let tx = vec![set(&[1, 2, 3]); 5];
        let config = AprioriConfig::new(MinSupport::count(1)).with_max_size(2);
        let f = Apriori::new(config).mine(&tx);
        assert_eq!(f.max_level(), 2);
        assert!(f.contains(&set(&[1, 2])));
        assert!(!f.contains(&set(&[1, 2, 3])));
        let zero = AprioriConfig::new(MinSupport::count(1)).with_max_size(0);
        assert!(Apriori::new(zero).mine(&tx).is_empty());
    }

    #[test]
    fn single_transaction_full_lattice() {
        let tx = vec![set(&[1, 2, 3])];
        let f = Apriori::new(AprioriConfig::new(MinSupport::count(1))).mine(&tx);
        assert_eq!(f.len(), 7); // all non-empty subsets
        assert_eq!(f.count(&set(&[1, 2, 3])), Some(1));
    }
}
