use std::fmt;

use crate::{Cycle, CycleBounds};

const WORD_BITS: usize = u64::BITS as usize;

/// A set of candidate cycles within fixed [`CycleBounds`].
///
/// This is the data structure at the heart of the INTERLEAVED algorithm of
/// the ICDE'98 paper. Each itemset under consideration owns a `CycleSet`
/// holding the cycles it could still have; the set only ever shrinks as
/// evidence (a unit where the itemset is not large) arrives. The three
/// optimization techniques of the paper map onto three operations, where
/// `on_unit` is the set [`CycleSet::of_unit`] of the cycles a unit lies on:
///
/// * **cycle elimination** → [`CycleSet::eliminate`]`(on_unit)`: after
///   observing a miss at the unit, every candidate `(l, unit mod l)` is
///   removed;
/// * **cycle skipping** → [`CycleSet::intersects`]`(on_unit)`: support
///   counting in a unit can be skipped when the unit lies on no remaining
///   candidate;
/// * **cycle pruning** → [`CycleSet::intersect_with`]: a `k`-itemset's
///   candidates start from the intersection of its `(k−1)`-subsets' sets.
///
/// Internally the set is one flat bitset over every cycle within the
/// bounds, in `(length, offset)` order: `(l, o)` is bit `first(l) + o`,
/// where `first(l)` counts the cycles of the lengths below `l`. At bounds
/// 2..16 that is 135 bits in 3 words. Every operation between two sets
/// is one pass over those `⌈num_cycles / 64⌉` words. A miner builds the
/// per-unit sets once and shares them across its candidates, so skipping
/// and elimination cost a few word operations and no division per
/// candidate.
#[derive(Clone, PartialEq, Eq)]
pub struct CycleSet {
    bounds: CycleBounds,
    /// Bit `first(l) + o` is set iff `(l, o)` is live. Bits past
    /// `bounds.num_cycles()` in the last word are always clear.
    words: Box<[u64]>,
}

/// Index of the first bit of length `length`: `Σ_{l_min ≤ k < length} k`.
fn first_bit(bounds: CycleBounds, length: u32) -> usize {
    let (lo, l) = (bounds.l_min() as usize, length as usize);
    ((lo + l - 1) * (l - lo)) >> 1
}

/// The word index and bit mask of bit `bit` (64-bit words).
fn position(bit: usize) -> (usize, u64) {
    (bit >> 6, 1 << (bit & 63))
}

impl CycleSet {
    /// The empty set over the given bounds.
    pub fn empty(bounds: CycleBounds) -> Self {
        let words = vec![0; bounds.num_cycles().div_ceil(WORD_BITS)];
        CycleSet { bounds, words: words.into_boxed_slice() }
    }

    /// The full set: every `(l, o)` with `l` within bounds.
    pub fn full(bounds: CycleBounds) -> Self {
        let mut set = CycleSet::empty(bounds);
        set.words.fill(u64::MAX);
        let tail = bounds.num_cycles() & 63;
        if tail != 0 {
            if let Some(last) = set.words.last_mut() {
                *last = (1 << tail) - 1;
            }
        }
        set
    }

    /// The cycles unit `unit` lies on: `(l, unit mod l)` for every length
    /// within the bounds.
    ///
    /// Removing this set is the paper's cycle elimination after a miss at
    /// `unit`; a set that does not intersect it can skip counting there.
    pub fn of_unit(bounds: CycleBounds, unit: usize) -> Self {
        let mut set = CycleSet::empty(bounds);
        let mut first = 0;
        for l in bounds.lengths() {
            let offset = unit.checked_rem(l as usize).unwrap_or(0);
            set.set_bit(first + offset);
            first += l as usize;
        }
        set
    }

    /// [`of_unit`](Self::of_unit) for each of the units `0..num_units`,
    /// indexed by unit: the table a miner builds once and shares across
    /// every candidate.
    pub fn of_units(bounds: CycleBounds, num_units: usize) -> Vec<CycleSet> {
        (0..num_units).map(|unit| CycleSet::of_unit(bounds, unit)).collect()
    }

    /// The bounds this set ranges over.
    #[inline]
    pub fn bounds(&self) -> CycleBounds {
        self.bounds
    }

    /// Number of live cycles.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no candidate cycles remain.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The bit of `c`, or `None` when its length is outside the bounds.
    fn bit(&self, c: Cycle) -> Option<usize> {
        self.bounds
            .contains(c)
            .then(|| first_bit(self.bounds, c.length()) + c.offset() as usize)
    }

    fn set_bit(&mut self, bit: usize) {
        let (word, mask) = position(bit);
        if let Some(w) = self.words.get_mut(word) {
            *w |= mask;
        }
    }

    /// Membership test.
    pub fn contains(&self, c: Cycle) -> bool {
        self.bit(c).is_some_and(|bit| {
            let (word, mask) = position(bit);
            self.words.get(word).is_some_and(|w| w & mask != 0)
        })
    }

    /// Inserts a cycle; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if the cycle's length is outside the bounds.
    pub fn insert(&mut self, c: Cycle) -> bool {
        let Some(bit) = self.bit(c) else {
            // audit:allow(a1-panic) reason="documented contract: a cycle outside the set's bounds has no bit, and dropping it silently would lose a caller's data"
            panic!("cycle {c} outside bounds {:?}", self.bounds);
        };
        let (word, mask) = position(bit);
        self.words.get_mut(word).is_some_and(|w| {
            let added = *w & mask == 0;
            *w |= mask;
            added
        })
    }

    /// Removes a cycle; returns `true` if it was present.
    pub fn remove(&mut self, c: Cycle) -> bool {
        let Some((word, mask)) = self.bit(c).map(position) else {
            return false;
        };
        self.words.get_mut(word).is_some_and(|w| {
            let present = *w & mask != 0;
            *w &= !mask;
            present
        })
    }

    /// Panics unless `other` ranges over the same bounds: a word-wise
    /// operation between different layouts would pair unrelated cycles.
    fn check_bounds(&self, other: &CycleSet) {
        // audit:allow(a1-panic) reason="documented contract of every two-set operation: sets over different bounds have different bit layouts, so any answer would be wrong"
        assert_eq!(self.bounds, other.bounds, "cycle sets with different bounds");
    }

    /// **Cycle elimination**: removes every cycle of `other` and returns
    /// how many were live.
    ///
    /// With `other` = [`CycleSet::of_unit`]`(bounds, u)` this removes
    /// every candidate `(l, u mod l)` after a miss at `u`. Doing that for
    /// each unit where a sequence is 0, starting from the full set,
    /// performs exact cycle detection.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn eliminate(&mut self, other: &CycleSet) -> usize {
        self.check_bounds(other);
        let mut removed = 0;
        for (w, &o) in self.words.iter_mut().zip(other.words.iter()) {
            removed += (*w & o).count_ones() as usize;
            *w &= !o;
        }
        removed
    }

    /// **Cycle skipping** test: whether `self` and `other` share a cycle.
    ///
    /// With `other` = [`CycleSet::of_unit`]`(bounds, u)` this asks whether
    /// unit `u` lies on any live candidate cycle; units failing the test
    /// need no support counting.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn intersects(&self, other: &CycleSet) -> bool {
        self.check_bounds(other);
        self.words.iter().zip(other.words.iter()).any(|(&a, &b)| a & b != 0)
    }

    /// **Cycle pruning** primitive: intersects `self` with `other` in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn intersect_with(&mut self, other: &CycleSet) {
        self.check_bounds(other);
        for (w, &o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
    }

    /// Returns the intersection of two sets.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn intersection(&self, other: &CycleSet) -> CycleSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Unions `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn union_with(&mut self, other: &CycleSet) {
        self.check_bounds(other);
        for (w, &o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Returns the union of two sets.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different bounds.
    pub fn union(&self, other: &CycleSet) -> CycleSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Whether every cycle of `self` is in `other` (never, across
    /// different bounds).
    pub fn is_subset_of(&self, other: &CycleSet) -> bool {
        self.bounds == other.bounds
            && self.words.iter().zip(other.words.iter()).all(|(&a, &b)| a & !b == 0)
    }

    /// Iterates live cycles in `(length, offset)` order.
    pub fn iter(&self) -> impl Iterator<Item = Cycle> + '_ {
        let ones = self.words.iter().enumerate().flat_map(|(index, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    index * WORD_BITS + bit
                })
            })
        });
        // Bits ascend, so the length only ever moves forward.
        let mut length = self.bounds.l_min();
        let mut first = 0;
        ones.map(move |bit| {
            while bit >= first + length as usize {
                first += length as usize;
                length += 1;
            }
            Cycle::make(length, (bit - first) as u32)
        })
    }

    /// Collects live cycles into a vector.
    pub fn to_vec(&self) -> Vec<Cycle> {
        self.iter().collect()
    }
}

impl fmt::Debug for CycleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CycleSet{:?}{{", self.bounds)?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitSeq;

    fn bounds() -> CycleBounds {
        CycleBounds::make(1, 4)
    }

    fn eliminate(set: &mut CycleSet, unit: usize) -> usize {
        set.eliminate(&CycleSet::of_unit(set.bounds(), unit))
    }

    fn includes_unit(set: &CycleSet, unit: usize) -> bool {
        set.intersects(&CycleSet::of_unit(set.bounds(), unit))
    }

    #[test]
    fn full_and_empty() {
        let full = CycleSet::full(bounds());
        assert_eq!(full.len(), 10); // 1+2+3+4
        assert!(!full.is_empty());
        let empty = CycleSet::empty(bounds());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(empty.is_subset_of(&full));
        assert!(!full.is_subset_of(&empty));
    }

    #[test]
    fn full_has_exactly_the_bound_cycles() {
        let full = CycleSet::full(CycleBounds::make(2, 3));
        assert_eq!(
            full.to_vec(),
            vec![
                Cycle::make(2, 0),
                Cycle::make(2, 1),
                Cycle::make(3, 0),
                Cycle::make(3, 1),
                Cycle::make(3, 2),
            ]
        );
    }

    #[test]
    fn flat_layout_fills_whole_words_exactly() {
        // 2..=16 is 135 cycles in 3 words; 1..=10 is 55 in one word;
        // 1..=11 is 66, one past a word; 60..=70 is 715 in 12 words.
        for (lo, hi, cycles) in [(2, 16, 135), (1, 10, 55), (1, 11, 66), (60, 70, 715)] {
            let b = CycleBounds::make(lo, hi);
            let full = CycleSet::full(b);
            assert_eq!(full.len(), cycles, "{b:?}");
            assert_eq!(full.words.len(), cycles.div_ceil(64), "{b:?}");
            assert_eq!(full.to_vec(), b.all_cycles().collect::<Vec<_>>(), "{b:?}");
            let last = Cycle::make(hi, hi - 1);
            assert!(full.contains(last));
            let mut empty = CycleSet::empty(b);
            assert!(empty.insert(last));
            assert_eq!(empty.to_vec(), vec![last]);
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = CycleSet::empty(bounds());
        let c = Cycle::make(3, 2);
        assert!(!s.contains(c));
        assert!(s.insert(c));
        assert!(!s.insert(c));
        assert!(s.contains(c));
        assert_eq!(s.len(), 1);
        assert!(s.remove(c));
        assert!(!s.remove(c));
        assert!(s.is_empty());
        assert!(!s.contains(Cycle::make(9, 0)));
        assert!(!s.remove(Cycle::make(9, 0)));
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn insert_out_of_bounds_panics() {
        let mut s = CycleSet::empty(bounds());
        s.insert(Cycle::make(9, 0));
    }

    #[test]
    fn of_unit_holds_one_offset_per_length() {
        let b = CycleBounds::make(2, 16);
        for unit in [0, 1, 15, 16, 63, 64, 1000] {
            let on = CycleSet::of_unit(b, unit);
            let expect: Vec<Cycle> =
                b.lengths().map(|l| Cycle::make(l, unit as u32 % l)).collect();
            assert_eq!(on.to_vec(), expect, "unit {unit}");
        }
        let table = CycleSet::of_units(b, 40);
        assert_eq!(table.len(), 40);
        assert_eq!(table[17], CycleSet::of_unit(b, 17));
    }

    #[test]
    fn eliminate_removes_matching_offsets() {
        let mut s = CycleSet::full(bounds());
        // Miss at unit 5 kills (1,0), (2,1), (3,2), (4,1).
        let removed = eliminate(&mut s, 5);
        assert_eq!(removed, 4);
        assert_eq!(s.len(), 6);
        assert!(!s.contains(Cycle::make(1, 0)));
        assert!(!s.contains(Cycle::make(2, 1)));
        assert!(!s.contains(Cycle::make(3, 2)));
        assert!(!s.contains(Cycle::make(4, 1)));
        assert!(s.contains(Cycle::make(2, 0)));
        // Eliminating the same unit again removes nothing.
        assert_eq!(eliminate(&mut s, 5), 0);
    }

    #[test]
    fn eliminating_a_union_counts_each_cycle_once() {
        // Units 0 and 4 share (1,0), (2,0) and (4,0); their union holds
        // 5 distinct cycles, which one AND-NOT removes and counts once.
        let b = bounds();
        let mut union = CycleSet::of_unit(b, 0);
        union.union_with(&CycleSet::of_unit(b, 4));
        assert_eq!(union.len(), 5);
        let mut s = CycleSet::full(b);
        assert_eq!(s.eliminate(&union), 5);
        let mut one_by_one = CycleSet::full(b);
        assert_eq!(eliminate(&mut one_by_one, 0) + eliminate(&mut one_by_one, 4), 5);
        assert_eq!(s, one_by_one);
    }

    #[test]
    fn includes_unit_matches_live_cycles() {
        let mut s = CycleSet::empty(bounds());
        s.insert(Cycle::make(4, 3));
        assert!(includes_unit(&s, 3));
        assert!(includes_unit(&s, 7));
        assert!(!includes_unit(&s, 0));
        assert!(!includes_unit(&s, 4));
        s.insert(Cycle::make(2, 0));
        assert!(includes_unit(&s, 0));
        assert!(includes_unit(&s, 4));
        assert!(!includes_unit(&s, 1));
    }

    #[test]
    fn intersection_behaves_like_set_intersection() {
        let mut a = CycleSet::empty(bounds());
        let mut b = CycleSet::empty(bounds());
        a.insert(Cycle::make(2, 0));
        a.insert(Cycle::make(3, 1));
        a.insert(Cycle::make(4, 2));
        b.insert(Cycle::make(3, 1));
        b.insert(Cycle::make(4, 2));
        b.insert(Cycle::make(4, 3));
        let i = a.intersection(&b);
        assert_eq!(i.to_vec(), vec![Cycle::make(3, 1), Cycle::make(4, 2)]);
        assert_eq!(i.len(), 2);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn intersect_different_bounds_panics() {
        let mut a = CycleSet::empty(CycleBounds::make(1, 3));
        let b = CycleSet::empty(CycleBounds::make(1, 4));
        a.intersect_with(&b);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn eliminate_different_bounds_panics() {
        let mut a = CycleSet::full(CycleBounds::make(2, 4));
        a.eliminate(&CycleSet::of_unit(CycleBounds::make(1, 4), 0));
    }

    #[test]
    fn detection_via_elimination() {
        // Sequence 101010... has cycle (2,0) and its in-bound multiples.
        let mut s = CycleSet::full(bounds());
        let seq: BitSeq = "10101010".parse().unwrap();
        for z in seq.iter_zeros() {
            eliminate(&mut s, z);
        }
        let got = s.to_vec();
        assert_eq!(got, vec![Cycle::make(2, 0), Cycle::make(4, 0), Cycle::make(4, 2)]);
    }

    #[test]
    fn large_lengths_cross_word_boundary() {
        // Lengths > 64 put one length's offsets across several words.
        let b = CycleBounds::make(70, 70);
        let mut s = CycleSet::full(b);
        assert_eq!(s.len(), 70);
        assert!(s.contains(Cycle::make(70, 69)));
        eliminate(&mut s, 69);
        assert!(!s.contains(Cycle::make(70, 69)));
        assert_eq!(s.len(), 69);
        assert!(includes_unit(&s, 68));
        assert!(!includes_unit(&s, 139));
    }
}
