//! Property-based tests: cycle detection against a brute-force oracle and
//! `CycleSet` against a naive set model.
//!
//! The bounds range from one-word layouts up to the daemon's 2..16
//! (135 cycles, 3 words), wider ones of 4 and 5 words, and lengths on
//! both sides of 64, where one length's offsets span several words.
//! Sequences include lengths that are exact multiples of `l_max`, where
//! the `⌊n / l_max⌋` hold-count bound of detection is tight, and lengths
//! shorter than `l_max`, where the bound is 0 and vacuous offsets must
//! survive.

use std::collections::BTreeSet;

use car_cycles::{
    detect_approx_cycles, detect_cycles, detect_cycles_with, minimal_cycles, BitSeq,
    Cycle, CycleBounds, CycleSet,
};
use proptest::prelude::*;

/// Bounds spanning 3 or more flat words: the daemon's default, wider
/// low bounds, and one pair with lengths above 64.
const WIDE: [(u32, u32); 4] = [(2, 16), (1, 20), (4, 23), (60, 70)];

fn arb_bounds() -> impl Strategy<Value = CycleBounds> {
    (0u8..4, 1u32..6, 0u32..8, 0usize..WIDE.len()).prop_map(|(kind, lo, extra, wide)| {
        match kind {
            // Narrow bounds of one or two words (up to (5,12)).
            0 | 1 => CycleBounds::make(lo, lo + extra),
            2 => {
                let (lo, hi) = WIDE[wide];
                CycleBounds::make(lo, hi)
            }
            // Lengths from just below 64 to well above it.
            _ => CycleBounds::make(58 + lo, 65 + extra),
        }
    })
}

/// A splitmix64 step, for drawing a case's bits from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bounds with a sequence drawn for them. The length is a multiple of
/// `l_max` (1–3 times it), shorter than `l_max` (possibly empty), or any
/// length up to 80. Each unit holds with a per-case probability, and
/// about half the cases plant a cycle within the bounds — half of those
/// of length `l_max` — so sparse sequences sit right at the hold-count
/// bound.
fn arb_case() -> impl Strategy<Value = (CycleBounds, BitSeq)> {
    (arb_bounds(), 0u8..12, 1usize..4, 0u64..=100, any::<u64>()).prop_map(
        |(bounds, kind, k, percent, seed)| {
            let (shape, plant) = (kind % 3, kind / 3);
            let mut state = seed;
            let l_max = bounds.l_max() as usize;
            let len = match shape {
                0 => k * l_max,
                1 => (splitmix(&mut state) % l_max as u64) as usize,
                _ => 1 + (splitmix(&mut state) % 80) as usize,
            };
            let lengths = u64::from(bounds.l_max() - bounds.l_min() + 1);
            let length = match plant {
                0 => Some(bounds.l_max()),
                1 => Some(bounds.l_min() + (splitmix(&mut state) % lengths) as u32),
                _ => None,
            };
            let planted = length
                .map(|l| Cycle::make(l, (splitmix(&mut state) % u64::from(l)) as u32));
            let seq = BitSeq::from_bits((0..len).map(|unit| {
                planted.is_some_and(|c| c.includes_unit(unit))
                    || splitmix(&mut state) % 100 < percent
            }));
            (bounds, seq)
        },
    )
}

/// Definition-level oracle for cycle detection.
fn oracle(seq: &BitSeq, bounds: CycleBounds) -> Vec<Cycle> {
    bounds.all_cycles().filter(|c| c.units(seq.len()).all(|u| seq.get(u))).collect()
}

fn of_unit(bounds: CycleBounds, unit: usize) -> CycleSet {
    CycleSet::of_unit(bounds, unit)
}

proptest! {
    #[test]
    fn detection_matches_oracle(case in arb_case()) {
        let (bounds, seq) = case;
        let got = detect_cycles(&seq, bounds).to_vec();
        prop_assert_eq!(got, oracle(&seq, bounds));
    }

    #[test]
    fn shared_unit_sets_match_oracle(case in arb_case(), table in 0usize..100) {
        // A table of any length: short ones fall back to per-zero sets.
        let (bounds, seq) = case;
        let units = CycleSet::of_units(bounds, table);
        let got = detect_cycles_with(&seq, bounds, &units).to_vec();
        prop_assert_eq!(got, oracle(&seq, bounds));
    }

    #[test]
    fn minimal_cycles_cover_all_detected(case in arb_case()) {
        let (bounds, seq) = case;
        let set = detect_cycles(&seq, bounds);
        let minimal = minimal_cycles(&set);
        // Every minimal cycle is detected; every detected cycle is a
        // multiple of some minimal cycle.
        for c in &minimal {
            prop_assert!(set.contains(*c));
        }
        for c in set.iter() {
            prop_assert!(
                minimal.iter().any(|&m| c.is_multiple_of(m)),
                "detected {} not covered by any minimal cycle", c
            );
        }
        // No minimal cycle is a multiple of another.
        for &a in &minimal {
            for &b in &minimal {
                if a != b {
                    prop_assert!(!a.is_multiple_of(b));
                }
            }
        }
    }

    #[test]
    fn approx_with_zero_budget_equals_exact_on_nonvacuous(case in arb_case()) {
        let (bounds, seq) = case;
        let exact: BTreeSet<Cycle> = detect_cycles(&seq, bounds)
            .iter()
            .filter(|c| c.num_units(seq.len()) > 0)
            .collect();
        let approx: BTreeSet<Cycle> = detect_approx_cycles(&seq, bounds, 0)
            .iter()
            .map(|a| a.cycle)
            .collect();
        prop_assert_eq!(approx, exact);
    }

    #[test]
    fn approx_miss_counts_match_definition(case in arb_case(), budget in 0u32..10) {
        let (bounds, seq) = case;
        for a in detect_approx_cycles(&seq, bounds, budget) {
            let misses = a.cycle.units(seq.len()).filter(|&u| !seq.get(u)).count() as u32;
            prop_assert_eq!(a.misses, misses);
            prop_assert!(a.misses <= budget);
            prop_assert_eq!(a.occurrences as usize, a.cycle.num_units(seq.len()));
        }
    }

    #[test]
    fn cycleset_tracks_model_under_random_ops(
        bounds in arb_bounds(),
        ops in proptest::collection::vec((0u8..7, 0usize..200, 0usize..200), 0..60),
    ) {
        let mut set = CycleSet::full(bounds);
        let mut model: BTreeSet<Cycle> = bounds.all_cycles().collect();
        let cycles: Vec<Cycle> = bounds.all_cycles().collect();
        // The per-unit table a miner shares across its candidates.
        let table = CycleSet::of_units(bounds, 150);
        for (op, arg, other) in ops {
            match op {
                0 => {
                    // Elimination after a miss at `arg`: the AND-NOT
                    // counts exactly the model cycles it removes.
                    let before = model.len();
                    model.retain(|c| !c.includes_unit(arg));
                    let removed = set.eliminate(&of_unit(bounds, arg));
                    prop_assert_eq!(removed, before - model.len());
                }
                1 => {
                    // Elimination against the union of two units' sets,
                    // as a newly seen item starts from the union of the
                    // units before it.
                    let mut union = of_unit(bounds, arg);
                    union.union_with(&of_unit(bounds, other));
                    let before = model.len();
                    model.retain(|c| !c.includes_unit(arg) && !c.includes_unit(other));
                    prop_assert_eq!(set.eliminate(&union), before - model.len());
                }
                2 => {
                    // remove a specific cycle derived from arg
                    let c = cycles[arg % cycles.len()];
                    let was = set.remove(c);
                    prop_assert_eq!(was, model.remove(&c));
                }
                3 => {
                    // re-insert a cycle
                    let c = cycles[arg % cycles.len()];
                    let added = set.insert(c);
                    prop_assert_eq!(added, model.insert(c));
                }
                4 => {
                    // Skipping test against the shared table (falling
                    // back to a fresh set past its end).
                    let expect = model.iter().any(|c| c.includes_unit(arg));
                    let unit = table.get(arg).cloned().unwrap_or_else(|| of_unit(bounds, arg));
                    prop_assert_eq!(set.intersects(&unit), expect);
                }
                5 => {
                    // Keep only the cycles through `arg`.
                    model.retain(|c| c.includes_unit(arg));
                    set.intersect_with(&of_unit(bounds, arg));
                }
                _ => {
                    // Revive every cycle through `arg`.
                    model.extend(cycles.iter().filter(|c| c.includes_unit(arg)));
                    set.union_with(&of_unit(bounds, arg));
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let collected: BTreeSet<Cycle> = set.iter().collect();
        prop_assert_eq!(collected, model);
    }

    #[test]
    fn unit_sets_hold_exactly_the_cycles_through_the_unit(
        bounds in arb_bounds(),
        unit in 0usize..300,
    ) {
        let on = of_unit(bounds, unit);
        let expect: Vec<Cycle> = bounds.all_cycles().filter(|c| c.includes_unit(unit)).collect();
        prop_assert_eq!(on.len(), (bounds.l_max() - bounds.l_min() + 1) as usize);
        prop_assert_eq!(on.to_vec(), expect);
    }

    #[test]
    fn intersection_matches_model(
        bounds in arb_bounds(),
        kill_a in proptest::collection::vec(0usize..40, 0..12),
        kill_b in proptest::collection::vec(0usize..40, 0..12),
    ) {
        let mut a = CycleSet::full(bounds);
        let mut b = CycleSet::full(bounds);
        for u in kill_a { a.eliminate(&of_unit(bounds, u)); }
        for u in kill_b { b.eliminate(&of_unit(bounds, u)); }
        let inter = a.intersection(&b);
        let model: BTreeSet<Cycle> = a
            .iter()
            .collect::<BTreeSet<_>>()
            .intersection(&b.iter().collect())
            .copied()
            .collect();
        prop_assert_eq!(inter.iter().collect::<BTreeSet<_>>(), model);
        prop_assert!(inter.is_subset_of(&a));
        prop_assert!(inter.is_subset_of(&b));
    }

    #[test]
    fn union_matches_model(
        bounds in arb_bounds(),
        kill_a in proptest::collection::vec(0usize..40, 0..12),
        kill_b in proptest::collection::vec(0usize..40, 0..12),
    ) {
        let mut a = CycleSet::full(bounds);
        let mut b = CycleSet::full(bounds);
        for u in kill_a { a.eliminate(&of_unit(bounds, u)); }
        for u in kill_b { b.eliminate(&of_unit(bounds, u)); }
        let u = a.union(&b);
        let model: BTreeSet<Cycle> = a
            .iter()
            .collect::<BTreeSet<_>>()
            .union(&b.iter().collect())
            .copied()
            .collect();
        prop_assert_eq!(u.iter().collect::<BTreeSet<_>>(), model);
        prop_assert_eq!(u.len(), u.iter().count());
        prop_assert!(a.is_subset_of(&u));
        prop_assert!(b.is_subset_of(&u));
        // De Morgan-ish sanity: intersection ⊆ union.
        prop_assert!(a.intersection(&b).is_subset_of(&u));
    }

    #[test]
    fn skipping_test_matches_cycle_membership(
        bounds in arb_bounds(),
        kills in proptest::collection::vec(0usize..30, 0..10),
        n in 1usize..50,
    ) {
        let mut set = CycleSet::full(bounds);
        for u in kills { set.eliminate(&of_unit(bounds, u)); }
        for (i, unit) in CycleSet::of_units(bounds, n).iter().enumerate() {
            let expect = set.iter().any(|c| c.includes_unit(i));
            prop_assert_eq!(set.intersects(unit), expect, "unit {}", i);
        }
    }

    #[test]
    fn elimination_scan_is_idempotent(case in arb_case()) {
        // Running detection twice over the same zeros changes nothing.
        let (bounds, seq) = case;
        let mut set = detect_cycles(&seq, bounds);
        let snapshot = set.to_vec();
        for z in seq.iter_zeros() {
            prop_assert_eq!(set.eliminate(&of_unit(bounds, z)), 0);
        }
        prop_assert_eq!(set.to_vec(), snapshot);
    }
}
