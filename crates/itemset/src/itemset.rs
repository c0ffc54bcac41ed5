use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

use crate::Item;

/// An immutable, sorted, duplicate-free set of [`Item`]s.
///
/// `ItemSet` is the workhorse of the whole workspace: transactions,
/// candidates, frequent itemsets, and both sides of an association rule are
/// all itemsets. The representation is a boxed slice of items in strictly
/// increasing order, which makes equality, hashing, and ordering cheap and
/// lets every set operation run as a linear merge.
///
/// Constructors accept unsorted input with duplicates and normalize it;
/// operations that preserve sortedness (union, extension, element removal) build
/// their results directly without re-sorting.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemSet {
    items: Box<[Item]>,
}

impl ItemSet {
    /// The empty itemset.
    pub fn empty() -> Self {
        ItemSet { items: Box::new([]) }
    }

    /// A singleton itemset.
    pub fn single(item: Item) -> Self {
        ItemSet { items: Box::new([item]) }
    }

    /// Builds an itemset from anything yielding items; the input is sorted
    /// and deduplicated.
    pub fn from_items<I>(items: I) -> Self
    where
        I: IntoIterator<Item = Item>,
    {
        let mut v: Vec<Item> = items.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ItemSet { items: v.into_boxed_slice() }
    }

    /// Builds an itemset from raw `u32` ids (sorted and deduplicated).
    pub fn from_ids<I>(ids: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        Self::from_items(ids.into_iter().map(Item::new))
    }

    /// Builds an itemset from a vector that the caller guarantees is sorted
    /// in strictly increasing order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant is violated.
    pub fn from_sorted_vec(items: Vec<Item>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "ItemSet::from_sorted_vec requires strictly increasing items"
        );
        ItemSet { items: items.into_boxed_slice() }
    }

    /// Number of items in the set (its *size* or *length*; frequent
    /// k-itemsets have `len() == k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items in increasing order.
    #[inline]
    pub fn as_slice(&self) -> &[Item] {
        &self.items
    }

    /// Iterates over the items in increasing order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Item>> {
        self.items.iter().copied()
    }

    /// Membership test via binary search.
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Returns `true` iff every item of `self` occurs in `other`.
    ///
    /// Linear merge over both sorted slices, `O(|self| + |other|)`.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        is_sorted_subset(&self.items, &other.items)
    }

    /// Set union, preserving sortedness.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.items[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.items[i..]);
        out.extend_from_slice(&other.items[j..]);
        ItemSet { items: out.into_boxed_slice() }
    }

    /// Set intersection, preserving sortedness.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ItemSet { items: out.into_boxed_slice() }
    }

    /// Set difference `self \ other`, preserving sortedness.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() {
            if j >= other.items.len() || self.items[i] < other.items[j] {
                out.push(self.items[i]);
                i += 1;
            } else if self.items[i] > other.items[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        ItemSet { items: out.into_boxed_slice() }
    }

    /// Returns `true` iff `self` and `other` share no items.
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// The itemset obtained by removing the element at position `idx`.
    ///
    /// This is the primitive behind enumerating the `(k-1)`-subsets of a
    /// `k`-itemset (the Apriori prune step).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn without_index(&self, idx: usize) -> ItemSet {
        assert!(idx < self.items.len(), "without_index out of bounds");
        let mut out = Vec::with_capacity(self.items.len() - 1);
        out.extend_from_slice(&self.items[..idx]);
        out.extend_from_slice(&self.items[idx + 1..]);
        ItemSet { items: out.into_boxed_slice() }
    }

    /// The itemset extended by one item that must be strictly greater than
    /// the current maximum (the cheap append used by candidate generation).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `item` is not greater than the last item.
    pub fn with_appended(&self, item: Item) -> ItemSet {
        debug_assert!(
            self.items.last().map_or(true, |&last| last < item),
            "with_appended requires a strictly greater item"
        );
        let mut out = Vec::with_capacity(self.items.len() + 1);
        out.extend_from_slice(&self.items);
        out.push(item);
        ItemSet { items: out.into_boxed_slice() }
    }

    /// Iterates over all subsets of `self` of exactly `k` elements, in
    /// lexicographic order. Yields nothing when `k > len()`; yields the
    /// empty set once when `k == 0`.
    pub fn k_subsets(&self, k: usize) -> KSubsets<'_> {
        KSubsets::new(&self.items, k)
    }

    /// All `(k-1)`-subsets of a `k`-itemset, in order of the removed index.
    pub fn immediate_subsets(&self) -> impl Iterator<Item = ItemSet> + '_ {
        (0..self.items.len()).map(move |i| self.without_index(i))
    }

    /// All non-empty proper subsets of `self` (useful for rule generation
    /// on small itemsets; exponential in `len()`).
    pub fn proper_nonempty_subsets(&self) -> Vec<ItemSet> {
        let n = self.items.len();
        if n <= 1 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity((1usize << n) - 2);
        for mask in 1..((1usize << n) - 1) {
            let mut v = Vec::with_capacity(mask.count_ones() as usize);
            for (i, &item) in self.items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    v.push(item);
                }
            }
            out.push(ItemSet::from_sorted_vec(v));
        }
        out
    }
}

/// Returns `true` iff sorted slice `sub` is a subset of sorted slice `sup`.
pub(crate) fn is_sorted_subset(sub: &[Item], sup: &[Item]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut j = 0;
    for &x in sub {
        loop {
            if j >= sup.len() {
                return false;
            }
            match sup[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

impl Deref for ItemSet {
    type Target = [Item];

    fn deref(&self) -> &[Item] {
        &self.items
    }
}

/// An itemset borrows as its item slice. The derived `Hash`, `Eq` and
/// `Ord` are the slice's, so maps and sorted lists of itemsets can be
/// searched with a slice built in a scratch buffer, without allocating
/// an `ItemSet` per lookup.
impl Borrow<[Item]> for ItemSet {
    fn borrow(&self) -> &[Item] {
        &self.items
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = Item;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Item>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        ItemSet::from_items(iter)
    }
}

impl FromIterator<u32> for ItemSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        ItemSet::from_ids(iter)
    }
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the `k`-element subsets of a sorted item slice, in
/// lexicographic order. Created by [`ItemSet::k_subsets`].
pub struct KSubsets<'a> {
    items: &'a [Item],
    /// Current combination as indices into `items`; empty once exhausted.
    indices: Vec<usize>,
    started: bool,
    done: bool,
}

impl<'a> KSubsets<'a> {
    fn new(items: &'a [Item], k: usize) -> Self {
        let done = k > items.len();
        KSubsets { items, indices: (0..k).collect(), started: false, done }
    }

    fn current(&self) -> ItemSet {
        ItemSet::from_sorted_vec(self.indices.iter().map(|&i| self.items[i]).collect())
    }

    /// Advances `indices` to the next combination; returns `false` when
    /// exhausted.
    fn advance(&mut self) -> bool {
        let k = self.indices.len();
        let n = self.items.len();
        if k == 0 {
            return false;
        }
        let mut i = k;
        while i > 0 {
            i -= 1;
            if self.indices[i] < n - (k - i) {
                self.indices[i] += 1;
                for j in i + 1..k {
                    self.indices[j] = self.indices[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }
}

impl Iterator for KSubsets<'_> {
    type Item = ItemSet;

    fn next(&mut self) -> Option<ItemSet> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.current());
        }
        if self.advance() {
            Some(self.current())
        } else {
            self.done = true;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[3, 1, 2, 3, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().map(Item::id).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_and_single() {
        assert!(ItemSet::empty().is_empty());
        assert_eq!(ItemSet::empty().len(), 0);
        let s = ItemSet::single(Item::new(7));
        assert_eq!(s.len(), 1);
        assert!(s.contains(Item::new(7)));
        assert!(!s.contains(Item::new(8)));
    }

    #[test]
    fn subset_tests() {
        let abc = set(&[1, 2, 3]);
        assert!(set(&[]).is_subset_of(&abc));
        assert!(set(&[1]).is_subset_of(&abc));
        assert!(set(&[1, 3]).is_subset_of(&abc));
        assert!(abc.is_subset_of(&abc));
        assert!(!set(&[1, 4]).is_subset_of(&abc));
        assert!(!set(&[1, 2, 3, 4]).is_subset_of(&abc));
        assert!(!set(&[0]).is_subset_of(&abc));
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 3, 5]);
        let b = set(&[2, 3, 4]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4, 5]));
        assert_eq!(a.intersection(&b), set(&[3]));
        assert_eq!(a.difference(&b), set(&[1, 5]));
        assert_eq!(b.difference(&a), set(&[2, 4]));
        assert_eq!(a.union(&ItemSet::empty()), a);
        assert_eq!(a.intersection(&ItemSet::empty()), ItemSet::empty());
    }

    #[test]
    fn borrows_as_its_item_slice() {
        let scratch = [Item::new(1), Item::new(2)];
        let counts: std::collections::HashMap<ItemSet, u64> =
            [(set(&[1, 2]), 7), (set(&[1]), 9)].into_iter().collect();
        assert_eq!(counts.get(scratch.as_slice()), Some(&7));
        assert_eq!(counts.get(&scratch[..1]), Some(&9));
        assert_eq!(counts.get(&scratch[1..]), None);
        let ordered: std::collections::BTreeSet<ItemSet> =
            [set(&[2]), set(&[1, 2]), set(&[1])].into_iter().collect();
        assert!(ordered.contains(scratch.as_slice()));
    }

    #[test]
    fn disjointness() {
        assert!(set(&[1, 2]).is_disjoint(&set(&[3, 4])));
        assert!(!set(&[1, 2]).is_disjoint(&set(&[2, 3])));
        assert!(ItemSet::empty().is_disjoint(&set(&[1])));
    }

    #[test]
    fn k_subsets_enumeration() {
        let s = set(&[1, 2, 3, 4]);
        let twos: Vec<ItemSet> = s.k_subsets(2).collect();
        assert_eq!(
            twos,
            vec![
                set(&[1, 2]),
                set(&[1, 3]),
                set(&[1, 4]),
                set(&[2, 3]),
                set(&[2, 4]),
                set(&[3, 4]),
            ]
        );
        assert_eq!(s.k_subsets(0).collect::<Vec<_>>(), vec![ItemSet::empty()]);
        assert_eq!(s.k_subsets(4).collect::<Vec<_>>(), vec![s.clone()]);
        assert!(s.k_subsets(5).next().is_none());
    }

    #[test]
    fn immediate_subsets_drop_one_each() {
        let s = set(&[1, 2, 3]);
        let subs: Vec<ItemSet> = s.immediate_subsets().collect();
        assert_eq!(subs, vec![set(&[2, 3]), set(&[1, 3]), set(&[1, 2])]);
    }

    #[test]
    fn proper_nonempty_subsets_count() {
        let s = set(&[1, 2, 3]);
        let subs = s.proper_nonempty_subsets();
        assert_eq!(subs.len(), 6); // 2^3 - 2
        assert!(subs.contains(&set(&[1])));
        assert!(subs.contains(&set(&[2, 3])));
        assert!(!subs.contains(&s));
        assert!(!subs.contains(&ItemSet::empty()));
        assert!(set(&[9]).proper_nonempty_subsets().is_empty());
        assert!(ItemSet::empty().proper_nonempty_subsets().is_empty());
    }

    #[test]
    fn display_format() {
        assert_eq!(set(&[1, 2, 3]).to_string(), "{1 2 3}");
        assert_eq!(ItemSet::empty().to_string(), "{}");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(set(&[1]) < set(&[1, 2]));
        assert!(set(&[1, 2]) < set(&[2]));
        assert!(set(&[1, 3]) > set(&[1, 2, 9]));
    }
}
