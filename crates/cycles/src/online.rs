//! Online (push-time) cycle maintenance for sliding windows.
//!
//! [`detect_cycles`](crate::detect_cycles) is a-posteriori: it walks a
//! finished binary sequence and eliminates candidates at every miss.
//! A *sliding* window also **forgets**: when the unit that killed a
//! cycle is evicted, that cycle must come back. Destructive elimination
//! (as in [`CycleSet::eliminate`](crate::CycleSet::eliminate)) cannot
//! express that revival, so [`OnlineRuleCycles`] keeps the evidence
//! itself — the rule's binary sequence over the retained units — and
//! re-derives the live cycles from it when a view is assembled.
//!
//! The sequence is stored as a **ring bitset in absolute unit
//! coordinates**: the rule held at retained absolute unit `t` iff bit
//! `t mod C` is set, where the capacity `C` is `window + 1` rounded up
//! to whole `u64` words (2 words at window 64).
//!
//! * a push where the rule holds sets one bit;
//! * a push where the rule misses touches nothing — absence is the miss,
//!   so pushes cost O(rules *present* in the unit);
//! * evicting a hold clears its bit; evicting a miss needs no call. The
//!   cleared position is what revives a cycle the miss had killed.
//!
//! Why `window + 1` positions and not `window`: the window miner records
//! the arriving unit *before* it evicts the oldest one, and those two
//! units are `window` apart. With `C = window` both map to the same bit,
//! so evicting a hold would erase the hold that just arrived.
//!
//! Liveness is an AND-compare. The retained window is the contiguous
//! absolute range `[base, base + len)`, so a [`CycleMasks`] built once
//! per view holds, for every cycle `(l, o)`, the ring bits of the
//! retained units `base + o + k·l`. A cycle is live iff the rule's ring
//! covers its mask. Every residue class of a length `l` has at least
//! `⌊len / l⌋` retained units, so a rule with fewer holds has no live
//! cycle of length `l`, and one with fewer than `⌊len / l_max⌋` holds
//! has none at all — that check, a popcount, settles most rules.

use crate::bounds::min_holds;
use crate::{Cycle, CycleBounds, CycleSet};

const WORD_BITS: u64 = u64::BITS as u64;

/// Ring words for a window of `window` units: `window + 1` positions
/// rounded up to whole words (see the module docs for the `+ 1`).
fn ring_words(window: usize) -> usize {
    (window + 1).div_ceil(WORD_BITS as usize)
}

/// Per-rule online cycle state over a sliding unit window: the rule's
/// retained holds as a ring bitset in absolute unit coordinates.
///
/// Feed it every retained unit at which the rule held
/// ([`record_hold`](Self::record_hold) on push,
/// [`record_evict`](Self::record_evict) when that unit leaves the
/// window), then read the surviving cycles of the current window
/// through a [`CycleMasks`] built for the same window length. Units at
/// which the rule did *not* hold are never reported — absence is the
/// miss.
#[derive(Clone, Debug)]
pub struct OnlineRuleCycles {
    /// Bit `t mod (64 · ring.len())` is set iff the rule held at
    /// retained absolute unit `t`.
    ring: Box<[u64]>,
}

impl OnlineRuleCycles {
    /// Creates empty state for a window retaining `window` units.
    pub fn new(window: usize) -> Self {
        OnlineRuleCycles { ring: vec![0; ring_words(window)].into_boxed_slice() }
    }

    /// Number of retained units at which the rule held.
    pub fn holds(&self) -> usize {
        self.ring.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no retained unit holds — the rule can be dropped.
    pub fn is_empty(&self) -> bool {
        self.ring.iter().all(|&w| w == 0)
    }

    /// Records that the rule held at absolute unit `abs_unit` (which
    /// just entered the window).
    pub fn record_hold(&mut self, abs_unit: u64) {
        let (word, bit) = self.position(abs_unit);
        if let Some(w) = self.ring.get_mut(word) {
            *w |= bit;
        }
    }

    /// Records that absolute unit `abs_unit`, at which the rule held,
    /// left the window. Evicted misses need no call — they were never
    /// recorded.
    pub fn record_evict(&mut self, abs_unit: u64) {
        let (word, bit) = self.position(abs_unit);
        if let Some(w) = self.ring.get_mut(word) {
            *w &= !bit;
        }
    }

    /// The ring word and bit of absolute unit `abs_unit`.
    fn position(&self, abs_unit: u64) -> (usize, u64) {
        let pos = abs_unit % (WORD_BITS * self.ring.len() as u64);
        ((pos / WORD_BITS) as usize, 1 << (pos % WORD_BITS))
    }
}

/// The `(l, o)` masks of one view of a sliding window, in ring
/// coordinates: built once per assembled view, then applied to every
/// rule's [`OnlineRuleCycles`] with AND-compares.
#[derive(Clone, Debug)]
pub struct CycleMasks {
    bounds: CycleBounds,
    /// Ring words per mask (the same for every rule of the window).
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
    /// [`live_cycles`](Self::live_cycles) matches `detect_cycles` on the
    /// rule's window bit sequence whenever `bounds.l_max() <= len <=
    /// window` — `len >= l_max` is the precondition every mining query
    /// already validates (`CycleBoundExceedsUnits`), which rules out
    /// vacuous offsets `>= len`.
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

    /// The rule's surviving cycles over the view's retained units, in
    /// window coordinates, or `None` when no cycle survives. Rules with
    /// too few holds to fill any residue class are rejected on their
    /// popcount alone.
    pub fn live_cycles(&self, state: &OnlineRuleCycles) -> Option<CycleSet> {
        debug_assert_eq!(state.ring.len(), self.words, "ring built for another window");
        let holds = state.holds();
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
                let covered = state.ring.iter().zip(mask).all(|(&r, &m)| r & m == m);
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
    /// least `l_max` deep. Returns the number of live cycles seen, so
    /// callers can rule out a vacuous pass.
    fn check_stream(history: &[bool], window: usize, bounds: CycleBounds) -> usize {
        let mut state = OnlineRuleCycles::new(window);
        let mut seen = 0;
        for (abs, &held) in history.iter().enumerate() {
            if held {
                state.record_hold(abs as u64);
            }
            if abs >= window && history[abs - window] {
                state.record_evict((abs - window) as u64);
            }
            let len = (abs + 1).min(window);
            let retained = history[abs + 1 - len..=abs].iter().filter(|&&h| h).count();
            assert_eq!(state.holds(), retained, "holds at abs {abs}");
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
        let mut state = OnlineRuleCycles::new(4);
        for (abs, &held) in history.iter().enumerate() {
            if held {
                state.record_hold(abs as u64);
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
        let mut state = OnlineRuleCycles::new(64);
        for abs in [0, 16, 32] {
            state.record_hold(abs);
        }
        let masks = CycleMasks::new(bounds, 64, 0, 64);
        assert!(masks.live_cycles(&state).is_none());
        state.record_hold(48);
        let live = masks.live_cycles(&state).unwrap();
        assert_eq!(live.to_vec(), vec![Cycle::make(16, 0)]);
    }

    #[test]
    fn empty_state_reports_no_cycles_and_is_droppable() {
        let bounds = CycleBounds::make(1, 3);
        let mut state = OnlineRuleCycles::new(3);
        assert!(state.is_empty());
        assert!(CycleMasks::new(bounds, 3, 0, 3).live_cycles(&state).is_none());
        state.record_hold(7);
        assert!(!state.is_empty());
        assert_eq!(state.holds(), 1);
        state.record_evict(7);
        assert!(state.is_empty());
    }
}
