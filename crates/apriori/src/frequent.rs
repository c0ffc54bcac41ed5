use std::fmt;

use car_itemset::{Item, ItemSet};

use crate::candidate::partition_point;

/// The frequent (large) itemsets of one database, with their counts,
/// organised by level (itemset size).
///
/// Level `k` is the flat form [`join_level`](crate::join_level) joins:
/// its itemsets back to back, `k` items each, sorted, with their counts
/// in the same order. An itemset's *position* is its index in its
/// level. For `k ≥ 2` the level also keeps, for each itemset, the `k`
/// positions in level `k − 1` that the join reported: entry `j` is the
/// itemset without its item `j`, so the last entry is its prefix. Any
/// subset of a frequent itemset is reached from it by following these
/// positions down, one array read per item removed, with no search.
#[derive(Clone, Default)]
pub struct FrequentItemsets {
    num_transactions: usize,
    /// `levels[k-1]` holds the large `k`-itemsets; none is empty.
    levels: Vec<Level>,
}

/// The large `k`-itemsets of one level of [`FrequentItemsets`], sorted.
#[derive(Clone, Default)]
pub(crate) struct Level {
    k: usize,
    /// `k` items per itemset, back to back.
    items: Vec<Item>,
    counts: Vec<u64>,
    /// `k` positions in level `k − 1` per itemset when `k ≥ 2`: entry
    /// `j` is the itemset without its item `j`. Empty for `k = 1`.
    subsets: Vec<usize>,
}

impl Level {
    /// An empty level of `k`-itemsets.
    pub(crate) fn new(k: usize) -> Self {
        Level { k, ..Level::default() }
    }

    /// Appends a large itemset, larger than every itemset already in the
    /// level, with its count and, for `k ≥ 2`, the positions of its `k`
    /// immediate subsets in level `k − 1` (as [`join_level`] reports
    /// them; ignored for `k = 1`).
    ///
    /// [`join_level`]: crate::join_level
    pub(crate) fn push(&mut self, items: &[Item], count: u64, subsets: &[usize]) {
        debug_assert_eq!(items.len(), self.k, "a level holds k items per itemset");
        self.items.extend_from_slice(items);
        self.counts.push(count);
        if self.k >= 2 {
            debug_assert_eq!(subsets.len(), self.k, "one subset per item");
            self.subsets.extend_from_slice(subsets);
        }
    }

    /// The itemsets back to back, `k` items each.
    pub(crate) fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of itemsets.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// The count of the itemset at `position`.
    pub(crate) fn count(&self, position: usize) -> u64 {
        self.counts[position]
    }

    /// The itemset at `position`.
    fn itemset(&self, position: usize) -> &[Item] {
        &self.items[position * self.k..(position + 1) * self.k]
    }

    /// The positions in level `k − 1` of the itemset at `position`
    /// without each of its items (empty for `k = 1`).
    pub(crate) fn subsets(&self, position: usize) -> &[usize] {
        if self.k < 2 {
            return &[];
        }
        &self.subsets[position * self.k..(position + 1) * self.k]
    }

    /// The itemsets with their counts, in sorted order.
    fn iter(&self) -> impl Iterator<Item = (&[Item], u64)> {
        self.items.chunks_exact(self.k).zip(self.counts.iter().copied())
    }
}

impl FrequentItemsets {
    /// Creates an empty result for a database of `num_transactions`.
    pub fn new(num_transactions: usize) -> Self {
        FrequentItemsets { num_transactions, levels: Vec::new() }
    }

    /// Appends the next level. An empty level is not kept.
    pub(crate) fn push_level(&mut self, level: Level) {
        debug_assert_eq!(level.k, self.levels.len() + 1, "levels are pushed in order");
        if level.len() > 0 {
            self.levels.push(level);
        }
    }

    /// Level `k`, if it holds an itemset.
    pub(crate) fn level_at(&self, k: usize) -> Option<&Level> {
        self.levels.get(k.checked_sub(1)?)
    }

    /// Size of the underlying database.
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// The count of an itemset, if it is large, found by a search of its
    /// sorted level. The itemset is given as its sorted items, so a slice
    /// is looked up without allocating an [`ItemSet`]; an `&ItemSet`
    /// derefs to one.
    pub fn count(&self, items: &[Item]) -> Option<u64> {
        let level = self.level_at(items.len())?;
        let position = partition_point(0, level.len(), |i| level.itemset(i) < items);
        (position < level.len() && level.itemset(position) == items)
            .then(|| level.count(position))
    }

    /// Whether the itemset is large.
    pub fn contains(&self, itemset: &ItemSet) -> bool {
        self.count(itemset).is_some()
    }

    /// Largest level with at least one itemset (0 when empty).
    pub fn max_level(&self) -> usize {
        self.levels.len()
    }

    /// Number of large itemsets across all levels.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Level::len).sum()
    }

    /// Whether no itemset is large.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Iterates the large `k`-itemsets with their counts, sorted: the
    /// `p`-th is the itemset at position `p`.
    pub fn level(&self, k: usize) -> impl Iterator<Item = (&[Item], u64)> {
        self.level_at(k).into_iter().flat_map(Level::iter)
    }

    /// The positions in level `k − 1` of the large `k`-itemset at
    /// `position` without each of its items: entry `j` is the itemset
    /// without its item `j`, and the last entry is its prefix. Empty for
    /// `k = 1` and for a position past the level.
    pub fn subsets(&self, k: usize, position: usize) -> &[usize] {
        match self.level_at(k) {
            Some(level) if position < level.len() => level.subsets(position),
            _ => &[],
        }
    }

    /// The large `k`-itemsets, sorted (the form candidate generation
    /// expects).
    pub fn level_sorted(&self, k: usize) -> Vec<ItemSet> {
        self.level(k).map(|(s, _)| ItemSet::from_sorted_vec(s.to_vec())).collect()
    }

    /// Iterates every large itemset with its count, level by level, each
    /// level sorted.
    pub fn iter(&self) -> impl Iterator<Item = (&[Item], u64)> {
        self.levels.iter().flat_map(Level::iter)
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
    use crate::{Apriori, AprioriConfig, MinSupport};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn mine(tx: &[ItemSet], min_count: u64) -> FrequentItemsets {
        Apriori::new(AprioriConfig::new(MinSupport::count(min_count))).mine(tx)
    }

    #[test]
    fn mined_itemsets_answer_queries() {
        // {1} in 7 of 10 transactions, {1,2} in 4, {2} in 4.
        let mut tx = vec![set(&[1, 2]); 4];
        tx.extend(vec![set(&[1]); 3]);
        tx.extend(vec![set(&[3]); 3]);
        let f = mine(&tx, 4);
        assert_eq!(f.count(&set(&[1])), Some(7));
        assert_eq!(f.count(&set(&[1, 2])), Some(4));
        assert_eq!(f.count(&set(&[3])), None);
        assert_eq!(f.count(&set(&[1, 2, 3])), None);
        assert_eq!(f.count(&ItemSet::empty()), None);
        assert!(f.contains(&set(&[1])));
        assert_eq!(f.len(), 3);
        assert_eq!(f.max_level(), 2);
        assert!(!f.is_empty());
        // {1,2} without item 0 is {2}, at position 1; without item 1,
        // its prefix {1}, at position 0.
        assert_eq!(f.subsets(2, 0), &[1, 0]);
        assert!(f.subsets(1, 0).is_empty());
        assert!(f.subsets(2, 1).is_empty());
    }

    #[test]
    fn empty_result() {
        let f = FrequentItemsets::new(5);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.max_level(), 0);
        assert_eq!(f.count(&set(&[1])), None);
        assert_eq!(f.count(&ItemSet::empty()), None);
        assert!(f.subsets(2, 0).is_empty());
    }

    #[test]
    fn level_sorted_is_sorted() {
        let tx = vec![set(&[3]), set(&[1]), set(&[2])];
        let f = mine(&tx, 1);
        assert_eq!(f.level_sorted(1), vec![set(&[1]), set(&[2]), set(&[3])]);
        assert!(f.level_sorted(2).is_empty());
        assert_eq!(f.level(1).count(), 3);
    }
}
