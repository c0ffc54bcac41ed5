//! Eclat: depth-first frequent itemset mining over tid-bitmaps.
//!
//! Eclat (Zaki, *Scalable Algorithms for Association Mining*, TKDE
//! 2000) walks the itemset lattice depth-first, one *prefix class* at a
//! time: the large itemsets that share all but their last item. Each
//! member carries its tid-set, and joining two siblings is an
//! intersection of their tid-sets, so no candidate is generated, stored
//! or subset-checked before it is counted.
//!
//! Here the tid-sets are the `u64` bitsets of the vertical kernel: the
//! item rows come from one [`TidBitmaps`] build over the unit's large
//! items, and each extension is one word-wise AND plus popcount. The
//! bitsets of a class live back to back in one buffer that is reused
//! across classes, and the large itemsets are written into one
//! [`FlatItemsets`] buffer, their items back to back, so the walk builds
//! no [`ItemSet`] and no hash map.
//!
//! This is the per-unit miner of the live window
//! (`SlidingWindowMiner::push_unit`): a push mines one unit and never
//! needs Apriori's levels, which exist for the cycle pruning of the
//! paper's INTERLEAVED algorithm. The level-wise [`Apriori`] stays the
//! miner of SEQUENTIAL, shares its level-1 scan with `eclat`, and counts
//! its levels on the same one build; INTERLEAVED builds each unit's rows
//! the same way. [`Apriori`] on either engine, FP-Growth and a
//! definition-level miner are the oracles `eclat` is tested against.
//!
//! [`Apriori`]: crate::Apriori

use car_itemset::{Item, ItemSet};

use crate::apriori::large_items;
use crate::bitmap::TidBitmaps;
use crate::support::MinSupport;

/// The large itemsets of one database, stored flat: their items back to
/// back in one buffer, with each itemset's end offset and count. The
/// order is [`eclat`]'s: the large items ascending, then the larger
/// itemsets depth-first. Each itemset's items are in increasing order.
#[derive(Debug, Default)]
pub struct FlatItemsets {
    items: Vec<Item>,
    /// Per itemset: the end of its items in `items`, and its count.
    ends: Vec<(usize, u64)>,
}

impl FlatItemsets {
    /// Number of itemsets.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no itemset is large.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every itemset, as its items, with its count.
    pub fn iter(&self) -> impl Iterator<Item = (&[Item], u64)> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&(end, count)| {
            let items = self.items.get(start..end).unwrap_or_default();
            start = end;
            (items, count)
        })
    }

    /// Appends the itemset `prefix ∪ {last}`, whose items are in
    /// increasing order, with its count.
    fn push(&mut self, prefix: &[Item], last: Item, count: u64) {
        self.items.extend_from_slice(prefix);
        self.items.push(last);
        self.ends.push((self.items.len(), count));
    }
}

/// Mines all large itemsets of `transactions`, depth-first over
/// tid-bitmaps, up to `max_size` items (`None` = unbounded).
///
/// Produces exactly the same itemsets and counts as
/// [`Apriori::mine`](crate::Apriori::mine) (property-tested). Builds at
/// most one set of bitmaps, and none when no itemset of two items can be
/// large.
pub fn eclat(
    transactions: &[ItemSet],
    min_support: MinSupport,
    max_size: Option<usize>,
) -> FlatItemsets {
    let threshold = min_support.threshold(transactions.len());
    let mut result = FlatItemsets::default();
    let max_size = max_size.unwrap_or(usize::MAX);
    if max_size == 0 {
        return result;
    }
    let (_, singles) = large_items(transactions, threshold);
    for &(item, count) in &singles {
        result.push(&[], item, count);
    }
    if max_size < 2 || singles.len() < 2 {
        return result;
    }

    // The root class: the large items under the empty prefix, each with
    // its row. A transaction of one item holds no pair, so it sets no bit.
    // The rows are built over one itemset of every large item.
    let large = ItemSet::from_sorted_vec(singles.iter().map(|&(item, _)| item).collect());
    let bitmaps = TidBitmaps::build(std::slice::from_ref(&large), transactions, 2);
    let mut root = Class::default();
    let mut words = 0;
    for item in large.iter() {
        let Some(row) = bitmaps.row(item.id()) else { continue };
        if words == 0 {
            // Every row is one bit per transaction, so all have this
            // length. Sizing the copy once, instead of letting it grow
            // by doubling, measured about 1 MB less peak RSS in the
            // daemon on the base database.
            words = row.len();
            root.bits.reserve_exact(singles.len().saturating_mul(words));
        }
        root.items.push(item);
        root.bits.extend_from_slice(row);
    }
    if words == 0 {
        return result;
    }
    let mut walk =
        Walk { threshold, max_size, words, prefix: Vec::new(), pool: Vec::new() };
    walk.extend(&root, 1, &mut result);
    result
}

/// A prefix class: the items that extend a common prefix, in ascending
/// order, each with the tid-bitset of the prefix plus that item. The
/// bitsets sit back to back, `words` each.
#[derive(Default)]
struct Class {
    items: Vec<Item>,
    bits: Vec<u64>,
}

/// The depth-first walk's fixed parameters and its reusable state.
struct Walk {
    threshold: u64,
    max_size: usize,
    /// Words per tid-bitset (never 0).
    words: usize,
    /// The itemset of the member being extended: the class's prefix
    /// plus the member's item.
    prefix: Vec<Item>,
    /// Spent classes, kept so that their buffers are reused.
    pool: Vec<Class>,
}

impl Walk {
    /// Records every large extension of `class`, whose members are
    /// `size`-itemsets, and recurses into each member's child class:
    /// member `i` joined with each later sibling `j`, by ANDing their
    /// bitsets.
    fn extend(&mut self, class: &Class, size: usize, result: &mut FlatItemsets) {
        if size >= self.max_size {
            return;
        }
        let words = self.words;
        let members = || class.items.iter().copied().zip(class.bits.chunks_exact(words));
        for (i, (item, bits)) in members().enumerate() {
            let mut child = self.pool.pop().unwrap_or_default();
            child.items.clear();
            child.bits.clear();
            self.prefix.push(item);
            for (sibling, sibling_bits) in members().skip(i.saturating_add(1)) {
                let start = child.bits.len();
                child.bits.extend(bits.iter().zip(sibling_bits).map(|(a, b)| a & b));
                let support: u64 = child.bits.get(start..).map_or(0, |joined| {
                    joined.iter().map(|w| u64::from(w.count_ones())).sum()
                });
                if support < self.threshold {
                    child.bits.truncate(start);
                    continue;
                }
                result.push(&self.prefix, sibling, support);
                child.items.push(sibling);
            }
            if child.items.len() >= 2 {
                self.extend(&child, size.saturating_add(1), result);
            }
            self.prefix.pop();
            self.pool.push(child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Apriori, AprioriConfig, CountStrategy};

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

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

    fn as_sorted(f: &crate::FrequentItemsets) -> Vec<(ItemSet, u64)> {
        let mut v: Vec<_> = f.iter().map(|(s, c)| (s.clone(), c)).collect();
        v.sort();
        v
    }

    fn flat_sorted(f: &FlatItemsets) -> Vec<(ItemSet, u64)> {
        let mut v: Vec<_> =
            f.iter().map(|(s, c)| (ItemSet::from_sorted_vec(s.to_vec()), c)).collect();
        v.sort();
        v
    }

    #[test]
    fn matches_apriori_on_han_kamber() {
        let tx = han_kamber();
        for min in [1u64, 2, 3, 4] {
            let ms = MinSupport::count(min);
            let a = Apriori::new(AprioriConfig::new(ms)).mine(&tx);
            let e = eclat(&tx, ms, None);
            assert_eq!(as_sorted(&a), flat_sorted(&e), "minsup {min}");
        }
    }

    #[test]
    fn lists_the_large_items_then_walks_depth_first() {
        let e = eclat(&han_kamber(), MinSupport::count(2), None);
        let ids = |items: &[Item]| items.iter().map(|i| i.id()).collect::<Vec<_>>();
        let listed: Vec<(Vec<u32>, u64)> = e.iter().map(|(s, c)| (ids(s), c)).collect();
        let expected: Vec<(&[u32], u64)> = vec![
            (&[1], 6),
            (&[2], 7),
            (&[3], 6),
            (&[4], 2),
            (&[5], 2),
            (&[1, 2], 4),
            (&[1, 3], 4),
            (&[1, 5], 2),
            (&[1, 2, 3], 2),
            (&[1, 2, 5], 2),
            (&[2, 3], 4),
            (&[2, 4], 2),
            (&[2, 5], 2),
        ];
        let expected: Vec<(Vec<u32>, u64)> =
            expected.into_iter().map(|(s, c)| (s.to_vec(), c)).collect();
        assert_eq!(listed, expected);
        assert_eq!(e.len(), 13);
    }

    #[test]
    fn respects_max_size() {
        let tx = vec![set(&[1, 2, 3, 4]); 3];
        let e = eclat(&tx, MinSupport::count(1), Some(2));
        assert_eq!(e.iter().map(|(s, _)| s.len()).max(), Some(2));
        assert_eq!(e.len(), 4 + 6);
        let unlimited = eclat(&tx, MinSupport::count(1), None);
        assert_eq!(unlimited.len(), 15); // 2^4 - 1
        let zero = eclat(&tx, MinSupport::count(1), Some(0));
        assert!(zero.is_empty());
    }

    #[test]
    fn empty_database() {
        let e = eclat(&[], MinSupport::fraction(0.5).unwrap(), None);
        assert!(e.is_empty());
    }

    #[test]
    fn counts_every_bitmap_word() {
        // 200 transactions span four words; {7, 9} and {7, 9, 11} hold in
        // every word, and the sparse ids force the hashed row index.
        let big = u32::MAX - 3;
        let tx: Vec<ItemSet> = (0..200u32)
            .map(|i| match i % 3 {
                0 => set(&[7, 9, 11, big]),
                1 => set(&[7, 9, big]),
                _ => set(&[7]),
            })
            .collect();
        let ms = MinSupport::count(40);
        let e = eclat(&tx, ms, None);
        let hash_tree = AprioriConfig::new(ms).with_counting(CountStrategy::HashTree);
        assert_eq!(flat_sorted(&e), as_sorted(&Apriori::new(hash_tree).mine(&tx)));
        let all = set(&[7, 9, 11, big]);
        assert_eq!(
            e.iter().find(|&(s, _)| s == all.as_slice()).map(|(_, c)| c),
            Some(67)
        );
    }
}
