//! Vertical tid-bitmap support counting.
//!
//! The hash tree walks the database transaction-major and asks, per
//! transaction, *which candidates does this contain?* — tree probes
//! that hash the transaction's items. This module flips the layout: one
//! `Vec<u64>` bitset per item, bit `t` set iff transaction `t` contains
//! the item. Support of a candidate `{a, b, c}` is then
//!
//! ```text
//! popcount(row(a) & row(b) & row(c))
//! ```
//!
//! word by word — a chained `u64` AND plus `count_ones()`, no subset
//! enumeration, no hashing, no per-candidate allocation (the row-slice
//! scratch is reused across candidates). The ANDs of a candidate's
//! prefix rows, `row(a)` and `row(a) & row(b)` here, are kept, and the
//! next candidate reuses those of the head it shares, so candidates
//! counted in sorted order cost one or two row ANDs each. At the paper's
//! densities this is memory-bandwidth bound and beats the hash tree by a
//! wide margin (EXP-8).
//!
//! Rows are built only for items that actually occur in the candidate
//! batch; item ids are mapped to dense row indices through [`ItemMap`],
//! which stores the mapping in a flat [`RefMap`] when the id space is
//! dense (the common case — vocabulary-interned ids count up from 0)
//! and falls back to a hash map when ids are sparse enough that a flat
//! table would waste memory.
//!
//! This is the counting engine of every product miner: [`Apriori`],
//! INTERLEAVED (in `car-core`) and [`eclat`] build a unit's rows once,
//! over its large items at `min_len` 2, and count every level on them.
//! INTERLEAVED builds a unit only when a level first counts in it, so a
//! unit that cycle skipping always retires is never built. The miners
//! report at most one build per unit (`bitmap_builds`).
//! [`count_candidates`] builds rows per batch, for EXP-8, the
//! `fig8_counting` bench and the tests that compare the kernel with the
//! hash tree.
//!
//! [`Apriori`]: crate::Apriori
//! [`eclat`]: crate::eclat
//! [`count_candidates`]: crate::count_candidates

use car_itemset::refstore::{RefCounter, RefMap};
use car_itemset::{Item, ItemSet};

use crate::hash::FastHashMap;

/// Bits per `u64` word, as a shift (`tid >> WORD_SHIFT` = word index).
const WORD_SHIFT: usize = 6;
/// Mask selecting the bit offset inside a word (`tid & WORD_MASK`).
const WORD_MASK: usize = 63;

/// When is a flat table worth it? A flat [`RefMap`] allocates one slot
/// per id up to the maximum, so we require the universe to be within
/// this factor of the number of distinct keys (plus slack for small
/// inputs) before choosing it over hashing.
const FLAT_DENSITY_FACTOR: usize = 8;
const FLAT_DENSITY_SLACK: usize = 1024;

/// A map from raw `u32` item ids to copyable values that picks its
/// backing store by id density: flat `Vec` when ids are dense (the
/// vocabulary-interned common case), hash map when they are sparse
/// (ids up to `u32::MAX` are accepted at the ingest boundary).
#[derive(Clone, Debug)]
pub enum ItemMap<V: Copy> {
    /// Flat `Vec`-backed store — O(1) loads, memory ∝ largest id.
    Flat(RefMap<V>),
    /// Hashed fallback for sparse id spaces.
    Hashed(FastHashMap<u32, V>),
}

impl<V: Copy> ItemMap<V> {
    /// Chooses a backing store for a key universe with the given
    /// maximum id and (approximate) number of distinct ids.
    pub fn for_universe(max_id: u32, distinct: usize) -> Self {
        let budget = distinct
            .saturating_mul(FLAT_DENSITY_FACTOR)
            .saturating_add(FLAT_DENSITY_SLACK);
        if (max_id as usize) < budget {
            ItemMap::Flat(RefMap::with_capacity((max_id as usize).saturating_add(1)))
        } else {
            ItemMap::Hashed(FastHashMap::default())
        }
    }

    /// Inserts a mapping, returning the previous value if any.
    pub fn insert(&mut self, id: u32, value: V) -> Option<V> {
        match self {
            ItemMap::Flat(m) => m.insert(id as usize, value),
            ItemMap::Hashed(m) => m.insert(id, value),
        }
    }

    /// The value mapped to `id`, if any.
    #[inline]
    pub fn get(&self, id: u32) -> Option<V> {
        match self {
            ItemMap::Flat(m) => m.get(id as usize).copied(),
            ItemMap::Hashed(m) => m.get(&id).copied(),
        }
    }
}

/// Dense-or-hashed item occurrence counter for level-1 scans: flat
/// [`RefCounter`] when the id space is dense, hash map otherwise. The
/// flat path clears in O(touched), so the interleaved miner reuses one
/// counter across every unit scan without repaying allocation.
#[derive(Clone, Debug)]
pub enum ItemCounter {
    /// Flat dense counters with a touched list.
    Flat(RefCounter),
    /// Hashed fallback for sparse id spaces.
    Hashed(FastHashMap<u32, u64>),
}

impl ItemCounter {
    /// Chooses a backing store for a key universe with the given
    /// maximum id and an upper bound on the number of distinct ids
    /// (total occurrences works — dense data has `max_id` well below
    /// it).
    pub fn for_universe(max_id: u32, distinct_hint: usize) -> Self {
        let budget = distinct_hint
            .saturating_mul(FLAT_DENSITY_FACTOR)
            .saturating_add(FLAT_DENSITY_SLACK);
        if (max_id as usize) < budget {
            ItemCounter::Flat(RefCounter::new())
        } else {
            ItemCounter::Hashed(FastHashMap::default())
        }
    }

    /// Adds `n` to the count of `id` (saturating).
    pub fn add(&mut self, id: u32, n: u64) {
        match self {
            ItemCounter::Flat(c) => c.add(id as usize, n),
            ItemCounter::Hashed(m) => {
                let slot = m.entry(id).or_insert(0);
                *slot = slot.saturating_add(n);
            }
        }
    }

    /// The count of `id` (0 when never seen).
    pub fn get(&self, id: u32) -> u64 {
        match self {
            ItemCounter::Flat(c) => c.get(id as usize),
            ItemCounter::Hashed(m) => m.get(&id).copied().unwrap_or(0),
        }
    }

    /// Number of distinct ids counted.
    pub fn len(&self) -> usize {
        match self {
            ItemCounter::Flat(c) => c.len(),
            ItemCounter::Hashed(m) => m.len(),
        }
    }

    /// Whether nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counted ids, sorted ascending.
    pub fn ids_sorted(&self) -> Vec<u32> {
        match self {
            ItemCounter::Flat(c) => c.keys_sorted().iter().map(|&k| k as u32).collect(),
            ItemCounter::Hashed(m) => {
                let mut ids: Vec<u32> = m.keys().copied().collect();
                ids.sort_unstable();
                ids
            }
        }
    }

    /// Resets every count, keeping allocations (O(touched) on the flat
    /// path).
    pub fn clear(&mut self) {
        match self {
            ItemCounter::Flat(c) => c.clear(),
            ItemCounter::Hashed(m) => m.clear(),
        }
    }
}

/// Vertical bitmaps over one unit: one tid-bitset row per interned item.
pub struct TidBitmaps {
    /// `rows[r]` is the bitset of transactions containing item `r`,
    /// all rows `words` long.
    rows: Vec<Vec<u64>>,
    /// Raw item id → row index.
    index: ItemMap<u32>,
    /// Scratch holding the resolved row slots of the current candidate;
    /// reused so counting allocates nothing per candidate.
    scratch: Vec<u32>,
    /// The row slots of the last counted prefix: every item of a
    /// candidate but its last.
    prefix: Vec<u32>,
    /// One block of `words` words per slot of `prefix`: block `d` is the
    /// AND of the rows `prefix[..=d]`, reused by the candidates counted
    /// next while their prefixes start with those `d + 1` items.
    prefix_bits: Vec<u64>,
}

impl TidBitmaps {
    /// Builds bitmaps over `transactions` for exactly the items that
    /// occur in `candidates`. Transactions shorter than `min_len`
    /// contribute no bits — they cannot contain any candidate of that
    /// size, so skipping them saves work without changing any count.
    pub fn build(
        candidates: &[ItemSet],
        transactions: &[ItemSet],
        min_len: usize,
    ) -> Self {
        // Intern the candidate items to dense row indices.
        let mut ids: Vec<u32> =
            candidates.iter().flat_map(|c| c.iter().map(|item| item.id())).collect();
        ids.sort_unstable();
        ids.dedup();
        let max_id = ids.last().copied().unwrap_or(0);
        let mut index = ItemMap::for_universe(max_id, ids.len());
        for (row, &id) in ids.iter().enumerate() {
            index.insert(id, row as u32);
        }

        let words = (transactions.len() >> WORD_SHIFT).saturating_add(1);
        let mut rows = vec![vec![0u64; words]; ids.len()];
        for (tid, t) in transactions.iter().enumerate() {
            if t.len() < min_len {
                continue;
            }
            for item in t.iter() {
                if let Some(row) = index.get(item.id()) {
                    if let Some(row_words) = rows.get_mut(row as usize) {
                        if let Some(word) = row_words.get_mut(tid >> WORD_SHIFT) {
                            *word |= 1u64 << (tid & WORD_MASK);
                        }
                    }
                }
            }
        }
        TidBitmaps {
            rows,
            index,
            scratch: Vec::new(),
            prefix: Vec::new(),
            prefix_bits: Vec::new(),
        }
    }

    /// The tid-bitset of `id`: bit `t` is set iff transaction `t`
    /// contains the item (and is at least the build's `min_len` long).
    /// `None` for an item that was not among the build's candidates.
    pub fn row(&self, id: u32) -> Option<&[u64]> {
        let row = self.index.get(id)?;
        self.rows.get(row as usize).map(Vec::as_slice)
    }

    /// The support of `candidate`: the number of transactions containing
    /// every item of it. An item with no row (never seen in the build
    /// batch) gives support 0. The empty candidate also counts as 0 —
    /// the miners never ask for it.
    ///
    /// The ANDs of the candidate's prefix rows (every item but the last)
    /// are kept, one per prefix length, and the next candidate reuses
    /// those of the head it shares with this prefix: the miners count
    /// candidates in sorted order, so a candidate with the same prefix
    /// costs one row AND, and one whose prefix differs in its last item
    /// two.
    pub fn support(&mut self, candidate: &[Item]) -> u64 {
        self.scratch.clear();
        for item in candidate {
            match self.index.get(item.id()) {
                Some(row) => self.scratch.push(row),
                None => return 0,
            }
        }
        let Some((&last, prefix)) = self.scratch.split_last() else {
            return 0;
        };
        let Some(last_row) = self.rows.get(last as usize) else {
            return 0;
        };
        if prefix.is_empty() {
            return popcount(last_row.iter().copied());
        }
        // Every row is `words` long. Keep the blocks of the shared head
        // and AND each later prefix row onto the block before it.
        let words = last_row.len();
        let shared =
            self.prefix.iter().zip(prefix).take_while(|(kept, new)| kept == new).count();
        self.prefix.truncate(shared);
        self.prefix_bits.truncate(shared.saturating_mul(words));
        for &slot in prefix.iter().skip(shared) {
            // The index names built rows only, so a row is never missing.
            let Some(row) = self.rows.get(slot as usize) else { return 0 };
            let end = self.prefix_bits.len();
            match end.checked_sub(words) {
                None => self.prefix_bits.extend_from_slice(row),
                Some(start) => {
                    self.prefix_bits.extend_from_within(start..end);
                    let block = self.prefix_bits.get_mut(end..).unwrap_or_default();
                    for (bits, &word) in block.iter_mut().zip(row) {
                        *bits &= word;
                    }
                }
            }
            self.prefix.push(slot);
        }
        let start = self.prefix_bits.len().saturating_sub(words);
        let block = self.prefix_bits.get(start..).unwrap_or_default();
        popcount(block.iter().zip(last_row).map(|(&bits, &word)| bits & word))
    }
}

/// The number of bits set in `words`.
fn popcount(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0, |ones, word| ones.saturating_add(u64::from(word.count_ones())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    /// Every candidate's support on one build at `min_len`.
    fn count_vertical(c: &[ItemSet], tx: &[ItemSet], min_len: usize) -> Vec<u64> {
        let mut bitmaps = TidBitmaps::build(c, tx, min_len);
        c.iter().map(|candidate| bitmaps.support(candidate)).collect()
    }

    fn naive(candidates: &[ItemSet], transactions: &[ItemSet]) -> Vec<u64> {
        candidates
            .iter()
            .map(|c| transactions.iter().filter(|t| c.is_subset_of(t)).count() as u64)
            .collect()
    }

    #[test]
    fn matches_naive_on_small_batch() {
        let candidates = vec![set(&[1, 2]), set(&[2, 3]), set(&[4, 5]), set(&[1, 5])];
        let transactions = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 5]),
            set(&[4, 5]),
            set(&[2]),
            set(&[]),
            set(&[1, 2, 3, 4, 5]),
        ];
        assert_eq!(
            count_vertical(&candidates, &transactions, 2),
            naive(&candidates, &transactions)
        );
    }

    #[test]
    fn handles_more_than_64_transactions() {
        // Crosses the word boundary: 200 transactions, every third one
        // contains {7, 9}.
        let transactions: Vec<ItemSet> = (0..200u32)
            .map(|i| if i % 3 == 0 { set(&[7, 9, i + 100]) } else { set(&[7, i + 100]) })
            .collect();
        let candidates = vec![set(&[7, 9]), set(&[7]), set(&[9, 100])];
        assert_eq!(
            count_vertical(&candidates, &transactions, 1),
            naive(&candidates, &transactions)
        );
    }

    #[test]
    fn unknown_items_count_zero() {
        let candidates = vec![set(&[42, 43])];
        let transactions = vec![set(&[1, 2]), set(&[3])];
        assert_eq!(count_vertical(&candidates, &transactions, 2), vec![0]);
    }

    #[test]
    fn sparse_ids_fall_back_to_hashed_and_stay_correct() {
        // Ids near u32::MAX would OOM a flat table; ItemMap must pick
        // the hashed store and counts must be unaffected.
        let a = u32::MAX - 1;
        let b = u32::MAX - 7;
        let candidates = vec![set(&[b, a]), set(&[a])];
        let transactions = vec![set(&[b, a]), set(&[a]), set(&[b])];
        assert!(matches!(
            ItemMap::<u32>::for_universe(u32::MAX - 1, 2),
            ItemMap::Hashed(_)
        ));
        assert_eq!(
            count_vertical(&candidates, &transactions, 1),
            naive(&candidates, &transactions)
        );
    }

    #[test]
    fn dense_ids_choose_flat_store() {
        assert!(matches!(ItemMap::<u32>::for_universe(100, 50), ItemMap::Flat(_)));
        let mut m = ItemMap::<u32>::for_universe(100, 50);
        assert_eq!(m.insert(3, 7), None);
        assert_eq!(m.insert(3, 8), Some(7));
        assert_eq!(m.get(3), Some(8));
        assert_eq!(m.get(4), None);
    }

    #[test]
    fn short_transactions_are_skipped_without_affecting_counts() {
        let candidates = vec![set(&[1, 2, 3])];
        let transactions = vec![set(&[1, 2]), set(&[1, 2, 3]), set(&[3])];
        assert_eq!(count_vertical(&candidates, &transactions, 3), vec![1]);
    }
}
