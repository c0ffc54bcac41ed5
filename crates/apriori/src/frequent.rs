use std::fmt;

use car_itemset::ItemSet;

use crate::hash::FastHashMap;

/// The frequent (large) itemsets of one database, with their counts,
/// organised by level (itemset size).
#[derive(Clone, Default)]
pub struct FrequentItemsets {
    num_transactions: usize,
    /// `levels[k-1]` maps each large `k`-itemset to its count.
    levels: Vec<FastHashMap<ItemSet, u64>>,
}

impl FrequentItemsets {
    /// Creates an empty result for a database of `num_transactions`.
    pub fn new(num_transactions: usize) -> Self {
        FrequentItemsets { num_transactions, levels: Vec::new() }
    }

    /// Records a large itemset with its count.
    ///
    /// # Panics
    ///
    /// Panics if the itemset is empty.
    pub fn insert(&mut self, itemset: ItemSet, count: u64) {
        let k = itemset.len();
        assert!(k >= 1, "cannot record the empty itemset");
        if self.levels.len() < k {
            self.levels.resize_with(k, FastHashMap::default);
        }
        self.levels[k - 1].insert(itemset, count);
    }

    /// Size of the underlying database.
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// The count of an itemset, if it is large.
    pub fn count(&self, itemset: &ItemSet) -> Option<u64> {
        self.levels
            .get(itemset.len().checked_sub(1)?)
            .and_then(|m| m.get(itemset).copied())
    }

    /// The support fraction of an itemset, if it is large (count divided
    /// by database size; `None` for an empty database).
    pub fn support(&self, itemset: &ItemSet) -> Option<f64> {
        if self.num_transactions == 0 {
            return None;
        }
        self.count(itemset).map(|c| c as f64 / self.num_transactions as f64)
    }

    /// Whether the itemset is large.
    pub fn contains(&self, itemset: &ItemSet) -> bool {
        self.count(itemset).is_some()
    }

    /// Largest level with at least one itemset (0 when empty).
    pub fn max_level(&self) -> usize {
        self.levels.iter().rposition(|m| !m.is_empty()).map_or(0, |i| i + 1)
    }

    /// Number of large itemsets across all levels.
    pub fn len(&self) -> usize {
        self.levels.iter().map(FastHashMap::len).sum()
    }

    /// Whether no itemset is large.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(FastHashMap::is_empty)
    }

    /// Iterates the large `k`-itemsets (arbitrary order).
    pub fn level(&self, k: usize) -> impl Iterator<Item = (&ItemSet, u64)> {
        self.levels
            .get(k.wrapping_sub(1))
            .into_iter()
            .flat_map(|m| m.iter().map(|(s, &c)| (s, c)))
    }

    /// The large `k`-itemsets, sorted (the form candidate generation
    /// expects).
    pub fn level_sorted(&self, k: usize) -> Vec<ItemSet> {
        let mut v: Vec<ItemSet> = self.level(k).map(|(s, _)| s.clone()).collect();
        v.sort_unstable();
        v
    }

    /// Iterates every large itemset with its count (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&ItemSet, u64)> {
        self.levels.iter().flat_map(|m| m.iter().map(|(s, &c)| (s, c)))
    }
}

impl fmt::Debug for FrequentItemsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FrequentItemsets({} itemsets over {} transactions, max level {})",
            self.len(),
            self.num_transactions,
            self.max_level()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn insert_and_query() {
        let mut f = FrequentItemsets::new(10);
        f.insert(set(&[1]), 7);
        f.insert(set(&[1, 2]), 4);
        assert_eq!(f.count(&set(&[1])), Some(7));
        assert_eq!(f.count(&set(&[1, 2])), Some(4));
        assert_eq!(f.count(&set(&[2])), None);
        assert_eq!(f.count(&set(&[1, 2, 3])), None);
        assert_eq!(f.support(&set(&[1, 2])), Some(0.4));
        assert!(f.contains(&set(&[1])));
        assert_eq!(f.len(), 2);
        assert_eq!(f.max_level(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn empty_result() {
        let f = FrequentItemsets::new(5);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.max_level(), 0);
        assert_eq!(f.count(&set(&[1])), None);
        assert_eq!(f.count(&ItemSet::empty()), None);
    }

    #[test]
    fn support_of_empty_database_is_none() {
        let mut f = FrequentItemsets::new(0);
        f.insert(set(&[1]), 0);
        assert_eq!(f.support(&set(&[1])), None);
    }

    #[test]
    fn level_sorted_is_sorted() {
        let mut f = FrequentItemsets::new(3);
        f.insert(set(&[3]), 1);
        f.insert(set(&[1]), 2);
        f.insert(set(&[2]), 3);
        assert_eq!(f.level_sorted(1), vec![set(&[1]), set(&[2]), set(&[3])]);
        assert!(f.level_sorted(2).is_empty());
        assert_eq!(f.level(1).count(), 3);
    }

    #[test]
    #[should_panic(expected = "empty itemset")]
    fn inserting_empty_itemset_panics() {
        FrequentItemsets::new(1).insert(ItemSet::empty(), 1);
    }
}
