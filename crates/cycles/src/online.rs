//! Online (push-time) cycle maintenance for sliding windows.
//!
//! [`detect_cycles`](crate::detect_cycles) is a-posteriori: it walks a
//! finished binary sequence and eliminates candidates at every miss.
//! A *sliding* window also **forgets**: when the unit that killed a
//! cycle is evicted, that cycle must come back. Destructive elimination
//! (as in [`CycleSet::eliminate`](crate::CycleSet::eliminate)) cannot
//! express that revival, so [`OnlineCycles`] keeps the evidence itself —
//! an itemset's binary sequence over the retained units (1 where the
//! itemset was large), with its support count at each hold — and
//! re-derives the live cycles from it when a view is assembled.
//!
//! The sequence is stored as a **ring bitset in absolute unit
//! coordinates**: the itemset held at retained absolute unit `t` iff bit
//! `t mod C` is set, where the capacity `C` is `window + 1` rounded up
//! to whole `u64` words (2 words at window 64).
//!
//! * a push where the itemset is large sets one bit and stores its count;
//! * a push where it is not touches nothing — absence is the miss, so
//!   pushes cost O(itemsets *large* in the unit);
//! * evicting a hold clears its bit and drops its count; evicting a miss
//!   needs no call. The cleared position is what revives a cycle the
//!   miss had killed.
//!
//! Why `window + 1` positions and not `window`: the window miner records
//! the arriving unit *before* it evicts the oldest one, and those two
//! units are `window` apart. With `C = window` both map to the same bit,
//! so evicting a hold would erase the hold that just arrived.
//!
//! Liveness is an AND-compare. The retained window is the contiguous
//! absolute range `[base, base + len)`, so a [`CycleMasks`] built once
//! per view holds, for every cycle `(l, o)`, the ring bits of the
//! retained units `base + o + k·l`. A cycle is live iff the ring covers
//! its mask. Every residue class of a length `l` has at least
//! `⌊len / l⌋` retained units, so a ring with fewer holds has no live
//! cycle of length `l`, and one with fewer than `⌊len / l_max⌋` holds
//! has none at all — that check, a popcount, settles most itemsets.
//!
//! A rule `X ⇒ Y` holds at a unit iff its itemset `Z = X ∪ Y` is large
//! there and `count(Z) / count(X)` meets the confidence threshold, so the
//! rule's ring is `Z`'s ring minus the units where the ratio fails.
//! [`CycleMasks::live_cycles_where`] tests that ring from the two
//! itemsets' counts without storing it.

use crate::bounds::min_holds;
use crate::{Cycle, CycleBounds, CycleSet};

const WORD_BITS: u64 = u64::BITS as u64;

/// Ring words for a window of `window` units: `window + 1` positions
/// rounded up to whole words (see the module docs for the `+ 1`).
fn ring_words(window: usize) -> usize {
    (window + 1).div_ceil(WORD_BITS as usize)
}

/// Per-itemset online cycle state over a sliding unit window: the
/// retained units at which the itemset was large, as a ring bitset in
/// absolute unit coordinates, and its support count at each of them.
///
/// Feed it every retained unit at which the itemset held
/// ([`record_hold`](Self::record_hold) on push,
/// [`record_evict`](Self::record_evict) when that unit leaves the
/// window), then read the surviving cycles of the current window
/// through a [`CycleMasks`] built for the same window length. Units at
/// which the itemset did *not* hold are never reported — absence is the
/// miss.
#[derive(Clone, Debug)]
pub struct OnlineCycles {
    /// Bit `t mod (64 · ring.len())` is set iff the itemset held at
    /// retained absolute unit `t`.
    ring: Box<[u64]>,
    /// The support count of every hold in ring-position order:
    /// `counts[i]` belongs to the `i`-th set bit of `ring`.
    counts: Vec<u64>,
}

impl OnlineCycles {
    /// Creates empty state for a window retaining `window` units.
    pub fn new(window: usize) -> Self {
        OnlineCycles {
            ring: vec![0; ring_words(window)].into_boxed_slice(),
            counts: Vec::new(),
        }
    }

    /// True when no retained unit holds — the itemset can be dropped.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records that the itemset held, with support `count`, at absolute
    /// unit `abs_unit` (which just entered the window).
    pub fn record_hold(&mut self, abs_unit: u64, count: u64) {
        let (word, bit) = self.position(abs_unit);
        let rank = self.rank(word, bit);
        let Some(w) = self.ring.get_mut(word) else { return };
        if *w & bit == 0 {
            *w |= bit;
            self.counts.insert(rank, count);
        } else if let Some(slot) = self.counts.get_mut(rank) {
            *slot = count;
        }
    }

    /// Records that absolute unit `abs_unit`, at which the itemset held,
    /// left the window, and returns the support count it held with.
    /// Evicted misses need no call — they were never recorded.
    pub fn record_evict(&mut self, abs_unit: u64) -> Option<u64> {
        let (word, bit) = self.position(abs_unit);
        let rank = self.rank(word, bit);
        let w = self.ring.get_mut(word)?;
        if *w & bit == 0 {
            return None;
        }
        *w &= !bit;
        Some(self.counts.remove(rank))
    }

    /// The number of holds before ring `word` and `bit`: the index into
    /// `counts` of a hold there.
    fn rank(&self, word: usize, bit: u64) -> usize {
        let before: u32 = self.ring.iter().take(word).map(|w| w.count_ones()).sum();
        let within =
            self.ring.get(word).map_or(0, |w| (w & bit.wrapping_sub(1)).count_ones());
        (before + within) as usize
    }

    /// The ring word and bit of absolute unit `abs_unit`.
    fn position(&self, abs_unit: u64) -> (usize, u64) {
        let pos = abs_unit % (WORD_BITS * self.ring.len() as u64);
        ((pos / WORD_BITS) as usize, 1 << (pos % WORD_BITS))
    }
}

/// The `(l, o)` masks of one view of a sliding window, in ring
/// coordinates: built once per assembled view, then applied to every
/// itemset's and rule's ring with AND-compares.
#[derive(Clone, Debug)]
pub struct CycleMasks {
    bounds: CycleBounds,
    /// Ring words per mask (the same for every ring of the window).
    words: usize,
    /// Per length `l_min..=l_max`: `⌊len / l⌋`, the fewest retained
    /// units in any residue class of that length.
    min_holds: Vec<usize>,
    /// `words` ring words per cycle, in `(length, offset)` order: the
    /// ring bits of the retained units on that cycle.
    masks: Vec<u64>,
}

impl CycleMasks {
    /// Masks for cycles within `bounds` over the retained absolute units
    /// `[base, base + len)` of a window retaining at most `window`
    /// units (window unit 0 = absolute unit `base`).
    ///
    /// The live cycles match `detect_cycles` on the ring's window bit
    /// sequence whenever `bounds.l_max() <= len <= window` — `len >=
    /// l_max` is the precondition every mining query already validates
    /// (`CycleBoundExceedsUnits`), which rules out vacuous offsets
    /// `>= len`.
    pub fn new(bounds: CycleBounds, window: usize, base: u64, len: usize) -> Self {
        let words = ring_words(window);
        let capacity = WORD_BITS * words as u64;
        let mut masks = vec![0u64; bounds.num_cycles() * words];
        for unit in 0..len {
            let pos = (base + unit as u64) % capacity;
            let (word, bit) = ((pos / WORD_BITS) as usize, 1u64 << (pos % WORD_BITS));
            // Index of the first cycle of the current length.
            let mut first = 0;
            for l in bounds.lengths() {
                let cycle = first + unit % l as usize;
                if let Some(w) = masks.get_mut(cycle * words + word) {
                    *w |= bit;
                }
                first += l as usize;
            }
        }
        let min_holds = bounds.lengths().map(|l| min_holds(len, l)).collect();
        CycleMasks { bounds, words, min_holds, masks }
    }

    /// The itemset's surviving cycles over the view's retained units, in
    /// window coordinates, or `None` when no cycle survives.
    pub fn live_cycles(&self, state: &OnlineCycles) -> Option<CycleSet> {
        debug_assert_eq!(state.ring.len(), self.words, "ring built for another window");
        self.live_in(&state.ring)
    }

    /// The surviving cycles of the sequence that holds where `state`
    /// holds and `keep(count, sub_count)` accepts, where `count` is
    /// `state`'s support count at that unit and `sub_count` is `sub`'s
    /// (0 where `sub` did not hold). For a rule `X ⇒ Y` with itemset `Z`,
    /// `state` is `Z`'s, `sub` is `X`'s, and `keep` the confidence test:
    /// the cycles of the rule.
    pub fn live_cycles_where(
        &self,
        state: &OnlineCycles,
        sub: &OnlineCycles,
        mut keep: impl FnMut(u64, u64) -> bool,
    ) -> Option<CycleSet> {
        debug_assert_eq!(state.ring.len(), self.words, "ring built for another window");
        debug_assert_eq!(sub.ring.len(), self.words, "ring built for another window");
        let mut ring = state.ring.clone();
        let mut counts = state.counts.iter();
        // `sub`'s holds in the words already walked: with the holds
        // below a bit in its own word, the index of its count there.
        let mut sub_before = 0;
        for (w, &sub_word) in ring.iter_mut().zip(sub.ring.iter()) {
            let mut rest = *w;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest &= rest - 1;
                let count = counts.next().copied().unwrap_or(0);
                let sub_count = if sub_word & bit == 0 {
                    0
                } else {
                    let rank = sub_before + (sub_word & (bit - 1)).count_ones() as usize;
                    sub.counts.get(rank).copied().unwrap_or(0)
                };
                if !keep(count, sub_count) {
                    *w &= !bit;
                }
            }
            sub_before += sub_word.count_ones() as usize;
        }
        self.live_in(&ring)
    }

    /// The cycles whose masks `ring` covers, or `None` when there are
    /// none. Rings with too few holds to fill any residue class are
    /// rejected on their popcount alone.
    fn live_in(&self, ring: &[u64]) -> Option<CycleSet> {
        let holds: usize = ring.iter().map(|w| w.count_ones() as usize).sum();
        // The last length is `l_max`, whose bound covers every length.
        if self.min_holds.last().is_some_and(|&fewest| holds < fewest) {
            return None;
        }
        let mut live: Option<CycleSet> = None;
        let mut rest = self.masks.as_slice();
        for (l, &min_holds) in self.bounds.lengths().zip(&self.min_holds) {
            let (row, tail) = rest.split_at(l as usize * self.words);
            rest = tail;
            if holds < min_holds {
                continue;
            }
            for (offset, mask) in (0..l).zip(row.chunks_exact(self.words)) {
                let covered = ring.iter().zip(mask).all(|(&r, &m)| r & m == m);
                if covered {
                    live.get_or_insert_with(|| CycleSet::empty(self.bounds))
                        .insert(Cycle::make(l, offset));
                }
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{detect_cycles, BitSeq};

    /// Brute-force oracle: batch-detect over the retained slice.
    fn batch(history: &[bool], window: usize, bounds: CycleBounds) -> CycleSet {
        let start = history.len().saturating_sub(window);
        detect_cycles(&BitSeq::from_bits(history[start..].iter().copied()), bounds)
    }

    /// Drives a full hold/miss history through the tracker with the
    /// given window size — recording each arriving unit before evicting
    /// the oldest, as the window miner does — and checks the live
    /// cycles against the oracle after every push once the window is at
    /// least `l_max` deep. Each hold's count is its absolute unit, so
    /// the counts are checked too. Returns the number of live cycles
    /// seen, so callers can rule out a vacuous pass.
    fn check_stream(history: &[bool], window: usize, bounds: CycleBounds) -> usize {
        let mut state = OnlineCycles::new(window);
        let mut seen = 0;
        for (abs, &held) in history.iter().enumerate() {
            if held {
                state.record_hold(abs as u64, abs as u64);
            }
            if abs >= window && history[abs - window] {
                let evicted = (abs - window) as u64;
                assert_eq!(state.record_evict(evicted), Some(evicted), "abs {abs}");
            }
            let len = (abs + 1).min(window);
            let retained: Vec<u64> =
                (abs + 1 - len..=abs).filter(|&u| history[u]).map(|u| u as u64).collect();
            // Counts sit in ring order, which wraps; compare as multisets.
            let mut counts = state.counts.clone();
            counts.sort_unstable();
            assert_eq!(counts, retained, "holds at abs {abs}");
            if len < bounds.l_max() as usize {
                continue;
            }
            let base = (abs + 1 - len) as u64;
            let live = CycleMasks::new(bounds, window, base, len)
                .live_cycles(&state)
                .map(|set| set.to_vec())
                .unwrap_or_default();
            let oracle = batch(&history[..=abs], window, bounds);
            assert_eq!(
                live,
                oracle.to_vec(),
                "window {window} ending at abs {abs} (len {len}, base {base})"
            );
            seen += live.len();
        }
        seen
    }

    /// A seeded hold history: each unit holds with probability
    /// `percent`/100, and units on the planted cycle `(period, 0)`
    /// always hold (`period == 0` plants nothing).
    fn seeded_history(seed: u64, len: usize, percent: u64, period: usize) -> Vec<bool> {
        let mut state = seed;
        (0..len)
            .map(|unit| {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (period != 0 && unit % period == 0) || z % 100 < percent
            })
            .collect()
    }

    #[test]
    fn matches_batch_detection_on_simple_streams() {
        let bounds = CycleBounds::make(1, 3);
        // Alternating, all-ones, all-zeros, and an irregular stream.
        check_stream(&[false, true, false, true, false, true, false, true], 4, bounds);
        check_stream(&[true; 10], 5, bounds);
        check_stream(&[false; 10], 5, bounds);
        check_stream(
            &[true, true, false, true, true, true, false, true, true],
            6,
            bounds,
        );
    }

    #[test]
    fn eviction_revives_a_cycle_killed_by_an_old_miss() {
        // Window 4, length-2 cycles. A miss at abs 1 kills (2, 1);
        // once abs 1 slides out, every odd retained unit holds again.
        let bounds = CycleBounds::make(2, 2);
        let history = [true, false, true, true, true, true, true];
        let mut state = OnlineCycles::new(4);
        for (abs, &held) in history.iter().enumerate() {
            if held {
                state.record_hold(abs as u64, 1);
            }
            if abs >= 4 && history[abs - 4] {
                state.record_evict((abs - 4) as u64);
            }
        }
        // Retained: abs 3..=6, all holds -> both length-2 cycles live.
        let live = CycleMasks::new(bounds, 4, 3, 4).live_cycles(&state).unwrap();
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn exhaustive_small_streams_match_batch() {
        // Every 9-unit binary history, window 5, lengths 1..=4.
        let bounds = CycleBounds::make(1, 4);
        for pattern in 0u32..512 {
            let history: Vec<bool> = (0..9).map(|i| pattern & (1 << i) != 0).collect();
            check_stream(&history, 5, bounds);
        }
    }

    #[test]
    fn rings_wrap_cleanly_at_word_boundaries() {
        // Windows around one and two ring words, histories three windows
        // long so every ring wraps at least twice: sparse and dense
        // noise, and planted cycles on top of sparse noise.
        for window in [63, 64, 65, 128] {
            for bounds in [CycleBounds::make(2, 16), CycleBounds::make(1, 8)] {
                let mut seen = 0;
                for (seed, percent, period) in
                    [(1, 50, 0), (2, 90, 0), (3, 97, 0), (4, 30, 4), (5, 20, 8)]
                {
                    let history = seeded_history(seed, 3 * window + 7, percent, period);
                    seen += check_stream(&history, window, bounds);
                }
                assert!(seen > 0, "window {window} {bounds:?}: no live cycle ever seen");
            }
        }
    }

    #[test]
    fn hold_count_below_every_class_size_has_no_cycles() {
        // Window 64, lengths 2..=16: every class holds >= 4 units, so
        // three holds — even all on one class of length 16 — are not
        // enough.
        let bounds = CycleBounds::make(2, 16);
        let mut state = OnlineCycles::new(64);
        for abs in [0, 16, 32] {
            state.record_hold(abs, 1);
        }
        let masks = CycleMasks::new(bounds, 64, 0, 64);
        assert!(masks.live_cycles(&state).is_none());
        state.record_hold(48, 1);
        let live = masks.live_cycles(&state).unwrap();
        assert_eq!(live.to_vec(), vec![Cycle::make(16, 0)]);
    }

    #[test]
    fn empty_state_reports_no_cycles_and_is_droppable() {
        let bounds = CycleBounds::make(1, 3);
        let mut state = OnlineCycles::new(3);
        assert!(state.is_empty());
        assert!(CycleMasks::new(bounds, 3, 0, 3).live_cycles(&state).is_none());
        state.record_hold(7, 5);
        assert!(!state.is_empty());
        assert_eq!(state.counts, vec![5]);
        assert_eq!(state.record_evict(7), Some(5));
        assert!(state.is_empty());
        assert_eq!(state.record_evict(7), None, "a miss has nothing to evict");
    }

    /// The support count of `state`'s hold at ring `word` and `bit`, or
    /// `None` when the itemset did not hold there.
    fn count_at(state: &OnlineCycles, word: usize, bit: u64) -> Option<u64> {
        let held = state.ring.get(word).is_some_and(|w| w & bit != 0);
        held.then(|| state.counts.get(state.rank(word, bit)).copied()).flatten()
    }

    #[test]
    fn counts_follow_their_holds_as_the_ring_wraps() {
        // Window 64 (a 128-position ring): holds at every third unit of
        // a 300-unit stream, each with a count derived from its unit, so
        // a count read at the wrong rank shows up as a wrong value.
        let mut state = OnlineCycles::new(64);
        let count = |abs: u64| 1000 + abs * 7;
        for abs in 0..300u64 {
            if abs % 3 == 0 {
                state.record_hold(abs, count(abs));
            }
            if abs >= 64 && (abs - 64) % 3 == 0 {
                assert_eq!(state.record_evict(abs - 64), Some(count(abs - 64)));
            }
            for retained in abs.saturating_sub(63)..=abs {
                let (word, bit) = state.position(retained);
                let want = (retained % 3 == 0).then(|| count(retained));
                assert_eq!(count_at(&state, word, bit), want, "unit {retained} at {abs}");
            }
        }
    }

    #[test]
    fn rule_rings_read_sub_counts_across_ring_words() {
        // Window 64 (two ring words) over 300 units: `z` holds at every
        // unit with its absolute unit as its count, `x` at every third
        // unit with a count derived from its unit. Each unit `keep` sees
        // must pair `z`'s count with `x`'s at the same unit, in both
        // words and as the ring wraps.
        let bounds = CycleBounds::make(2, 16);
        let (mut z, mut x) = (OnlineCycles::new(64), OnlineCycles::new(64));
        let x_count = |abs: u64| (abs % 3 == 0).then(|| 1000 + abs * 7);
        for abs in 0..300u64 {
            z.record_hold(abs, abs);
            if let Some(count) = x_count(abs) {
                x.record_hold(abs, count);
            }
            if abs >= 64 {
                z.record_evict(abs - 64);
                if x_count(abs - 64).is_some() {
                    x.record_evict(abs - 64);
                }
            }
            let len = (abs + 1).min(64);
            if len < 16 {
                continue;
            }
            let base = abs + 1 - len;
            let masks = CycleMasks::new(bounds, 64, base, len as usize);
            let mut seen = Vec::new();
            masks.live_cycles_where(&z, &x, |zc, xc| {
                seen.push((zc, xc));
                true
            });
            seen.sort_unstable();
            let want: Vec<(u64, u64)> =
                (base..=abs).map(|u| (u, x_count(u).unwrap_or(0))).collect();
            assert_eq!(seen, want, "window ending at abs {abs}");
        }
    }

    #[test]
    fn rule_rings_drop_exactly_the_units_keep_rejects() {
        // Z holds at every unit of an 8-unit window; X at the same units
        // with counts that make Z/X = 1 on even units and 1/2 on odd
        // ones. At confidence 1 only the even units hold: cycle (2, 0).
        let bounds = CycleBounds::make(2, 4);
        let (mut z, mut x) = (OnlineCycles::new(8), OnlineCycles::new(8));
        for abs in 0..8u64 {
            z.record_hold(abs, 4);
            x.record_hold(abs, if abs % 2 == 0 { 4 } else { 8 });
        }
        let masks = CycleMasks::new(bounds, 8, 0, 8);
        let full = |zc: u64, xc: u64| zc == xc;
        let live = masks.live_cycles_where(&z, &x, full).unwrap();
        assert_eq!(
            live.to_vec(),
            vec![Cycle::make(2, 0), Cycle::make(4, 0), Cycle::make(4, 2)]
        );
        // A `sub` missing from a unit reads as count 0 there.
        let mut sparse = OnlineCycles::new(8);
        sparse.record_hold(0, 4);
        let seen: Vec<u64> = {
            let mut seen = Vec::new();
            masks.live_cycles_where(&z, &sparse, |_, xc| {
                seen.push(xc);
                true
            });
            seen
        };
        assert_eq!(seen, vec![4, 0, 0, 0, 0, 0, 0, 0]);
        // Accepting everything leaves the itemset's own cycles.
        assert_eq!(masks.live_cycles_where(&z, &x, |_, _| true), masks.live_cycles(&z));
    }
}
