//! The a-posteriori detector's global `detect_eliminations` counter
//! receives exactly `num_cycles − |result|` per detected sequence, both
//! when the hold-count bound settles the sequence by its popcount and
//! when elimination runs.
//!
//! The counter is process-global, so this file holds a single test: no
//! other test of the same binary can detect concurrently and move it.

use car_cycles::{detect_cycles, detect_cycles_with, BitSeq, CycleBounds, CycleSet};
use car_obs::counters::MINE;

/// The counter's movement across one call of `detect`, and the number of
/// cycles the call found.
fn eliminations_of(detect: impl FnOnce() -> CycleSet) -> (u64, usize) {
    let before = MINE.snapshot().detect_eliminations;
    let found = detect().len();
    (MINE.snapshot().detect_eliminations - before, found)
}

#[test]
fn detect_eliminations_receive_num_cycles_minus_survivors() {
    let bounds = CycleBounds::make(2, 16);
    let candidates = bounds.num_cycles() as u64;
    let units = CycleSet::of_units(bounds, 64);
    let seq_of = |holds: &[usize]| {
        let mut seq = BitSeq::zeros(64);
        for &u in holds {
            seq.set(u, true);
        }
        seq
    };
    // (holds, cycles found): the bound ⌊64/16⌋ = 4 decides the first
    // two; elimination decides the rest, with and without survivors.
    let cases: [(Vec<usize>, usize); 6] = [
        (vec![], 0),
        (vec![5, 21, 37], 0),
        (vec![5, 21, 37, 53], 1),
        (vec![0, 1, 2, 3, 4], 0),
        // (2,0) and its multiples: l / 2 offsets of each even length.
        ((0..64).step_by(2).collect(), 36),
        ((0..64).collect(), 135),
    ];
    for (holds, found) in cases {
        let seq = seq_of(&holds);
        let expect = candidates - found as u64;
        let per_call = eliminations_of(|| detect_cycles(&seq, bounds));
        assert_eq!(per_call, (expect, found), "detect_cycles on {holds:?}");
        let shared = eliminations_of(|| detect_cycles_with(&seq, bounds, &units));
        assert_eq!(shared, (expect, found), "detect_cycles_with on {holds:?}");
    }
}
