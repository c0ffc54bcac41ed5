//! Exact cycle detection over binary sequences and minimal-cycle
//! filtering.

use crate::{BitSeq, Cycle, CycleBounds, CycleSet};

/// Detects every cycle (within `bounds`) of a binary sequence.
///
/// This is the elimination-based procedure of the ICDE'98 paper: begin
/// with every candidate `(l, o)` alive and, for each position where the
/// sequence is 0, eliminate the candidates that include that position.
/// What survives is exactly the set of cycles of the sequence. Two
/// shortcuts keep it cheap:
///
/// * every cycle covers at least `⌊n / l_max⌋` of the `n` units, so a
///   sequence with fewer ones has no cycle, which a popcount settles;
/// * otherwise each zero is one AND-NOT against the set of cycles its
///   unit lies on ([`CycleSet::of_unit`]), and detection stops once no
///   candidate remains.
///
/// This call builds the per-unit sets itself when the popcount does not
/// settle the answer. To detect many sequences, build them once with
/// [`CycleSet::of_units`] and call [`detect_cycles_with`].
///
/// The returned set is **unfiltered** — it contains multiples of smaller
/// cycles. Apply [`minimal_cycles`] before presenting results to users;
/// keep the unfiltered set for anti-monotone reasoning inside the miners.
///
/// Note the boundary semantics: a cycle `(l, o)` with no on-cycle unit in
/// `0..seq.len()` (possible only when `o >= seq.len()`) survives
/// vacuously. Mining configurations validate `l_max ≤ num_units` to keep
/// every reported cycle supported by at least one observation.
pub fn detect_cycles(seq: &BitSeq, bounds: CycleBounds) -> CycleSet {
    let units = if has_too_few_holds(seq, bounds) {
        Vec::new()
    } else {
        CycleSet::of_units(bounds, seq.len())
    };
    detect_cycles_with(seq, bounds, &units)
}

/// [`detect_cycles`] with the per-unit cycle sets built by the caller:
/// `units[u]` must be [`CycleSet::of_unit`]`(bounds, u)`, as
/// [`CycleSet::of_units`] builds them. Units past the end of `units` are
/// built on the fly.
///
/// # Panics
///
/// Panics if a set in `units` has bounds other than `bounds`.
pub fn detect_cycles_with(
    seq: &BitSeq,
    bounds: CycleBounds,
    units: &[CycleSet],
) -> CycleSet {
    // Deliberately no span here: this runs once per candidate rule, so a
    // per-call timer would dwarf the detection itself. The stage spans
    // (`mine.seq.cycle_detect`, `mine.int.rule_gen`) time it in bulk.
    if has_too_few_holds(seq, bounds) {
        return CycleSet::empty(bounds);
    }
    let mut set = CycleSet::full(bounds);
    let mut alive = bounds.num_cycles();
    for zero in seq.iter_zeros() {
        alive -= match units.get(zero) {
            Some(unit) => set.eliminate(unit),
            None => set.eliminate(&CycleSet::of_unit(bounds, zero)),
        };
        if alive == 0 {
            break;
        }
    }
    set
}

/// Whether `seq` has too few ones for any cycle within `bounds`.
fn has_too_few_holds(seq: &BitSeq, bounds: CycleBounds) -> bool {
    seq.count_ones() < bounds.min_holds(seq.len())
}

/// Filters a cycle set down to its *minimal* cycles: those that are not a
/// multiple of another cycle in the set.
///
/// If a sequence has cycle `(l, o)`, it automatically has every in-bounds
/// multiple `(k·l, o + j·l)`; reporting those adds no information. The
/// result is sorted by `(length, offset)`.
pub fn minimal_cycles(set: &CycleSet) -> Vec<Cycle> {
    let all = set.to_vec();
    all.iter()
        .copied()
        .filter(|&c| !all.iter().any(|&other| other != c && c.is_multiple_of(other)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect(s: &str, l_min: u32, l_max: u32) -> Vec<Cycle> {
        let seq: BitSeq = s.parse().unwrap();
        detect_cycles(&seq, CycleBounds::make(l_min, l_max)).to_vec()
    }

    fn detect_minimal(s: &str, l_min: u32, l_max: u32) -> Vec<Cycle> {
        let seq: BitSeq = s.parse().unwrap();
        minimal_cycles(&detect_cycles(&seq, CycleBounds::make(l_min, l_max)))
    }

    /// Brute-force reference: check each cycle against the definition.
    fn brute_force(s: &str, l_min: u32, l_max: u32) -> Vec<Cycle> {
        let seq: BitSeq = s.parse().unwrap();
        CycleBounds::make(l_min, l_max)
            .all_cycles()
            .filter(|c| c.units(seq.len()).all(|u| seq.get(u)))
            .collect()
    }

    #[test]
    fn alternating_sequence() {
        assert_eq!(detect("010101", 1, 3), vec![Cycle::make(2, 1)]);
        assert_eq!(detect_minimal("010101", 1, 3), vec![Cycle::make(2, 1)]);
    }

    #[test]
    fn all_ones_has_every_cycle() {
        let got = detect("1111", 1, 2);
        assert_eq!(got, vec![Cycle::make(1, 0), Cycle::make(2, 0), Cycle::make(2, 1)]);
        // Minimal filter keeps only (1,0): the others are its multiples.
        assert_eq!(detect_minimal("1111", 1, 2), vec![Cycle::make(1, 0)]);
    }

    #[test]
    fn all_zeros_has_no_cycles() {
        assert!(detect("0000", 1, 3).is_empty());
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        for s in [
            "1",
            "0",
            "10",
            "01",
            "110110",
            "101101",
            "111000111000",
            "100100100100",
            "011011011011",
            "1001001",
            "1110111",
        ] {
            for (lo, hi) in [(1u32, 4u32), (2, 6), (1, 8)] {
                let hi = hi.min(s.len() as u32).max(lo);
                assert_eq!(
                    detect(s, lo, hi),
                    brute_force(s, lo, hi),
                    "sequence {s} bounds [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn minimal_filter_removes_multiples_only() {
        // "10101010": cycles (2,0), (4,0), (4,2) — both length-4 cycles are
        // multiples of (2,0).
        assert_eq!(detect_minimal("10101010", 2, 4), vec![Cycle::make(2, 0)]);

        // "110110": cycles (3,0),(3,1) with bounds [3,3]; neither is a
        // multiple of the other.
        assert_eq!(
            detect_minimal("110110", 3, 3),
            vec![Cycle::make(3, 0), Cycle::make(3, 1)]
        );
    }

    #[test]
    fn vacuous_cycles_survive_only_past_sequence_end() {
        // Length 6 cycle, offset 4, on a 4-long sequence: offset beyond the
        // sequence → vacuously true.
        let got = detect("0000", 6, 6);
        assert_eq!(got, vec![Cycle::make(6, 4), Cycle::make(6, 5)]);
    }

    #[test]
    fn hold_count_bound_is_tight() {
        // 64 units, lengths 2..=16: every cycle covers at least 4 units.
        // Four holds on the units of (16, 3) are just enough; three are
        // not, and the popcount alone decides.
        let bounds = CycleBounds::make(2, 16);
        let mut seq = BitSeq::zeros(64);
        for u in [3, 19, 35] {
            seq.set(u, true);
        }
        assert!(detect_cycles(&seq, bounds).is_empty());
        seq.set(51, true);
        assert_eq!(detect_cycles(&seq, bounds).to_vec(), vec![Cycle::make(16, 3)]);
        // One unit fewer than a multiple of 16: (16, 15) covers only 3
        // units, so 3 holds on it already make a cycle.
        let mut short = BitSeq::zeros(63);
        for u in [15, 31, 47] {
            short.set(u, true);
        }
        assert_eq!(detect_cycles(&short, bounds).to_vec(), vec![Cycle::make(16, 15)]);
    }

    #[test]
    fn shared_unit_sets_match_per_call_detection() {
        // A table shorter than the sequence falls back to building the
        // missing units' sets; a longer one is never read past the end.
        let bounds = CycleBounds::make(2, 5);
        for s in ["110110110110", "101010101010", "111111111111", "011011011"] {
            let seq: BitSeq = s.parse().unwrap();
            let expected = detect_cycles(&seq, bounds);
            for table in [0, 5, seq.len(), 40] {
                let units = CycleSet::of_units(bounds, table);
                assert_eq!(
                    detect_cycles_with(&seq, bounds, &units),
                    expected,
                    "{s} {table}"
                );
            }
        }
    }

    #[test]
    fn minimal_of_empty_set_is_empty() {
        let set = CycleSet::empty(CycleBounds::make(1, 3));
        assert!(minimal_cycles(&set).is_empty());
    }
}
