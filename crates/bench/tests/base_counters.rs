//! The work counters of the paper's base database, pinned.
//!
//! The benchmark's `batch` workload mines the base scenario's 64 units
//! at support 0.015, confidence 0.6 and cycles 2..16, and gates a run on
//! these counters staying put. This test mines the same database with
//! SEQUENTIAL (serial and on two threads) and INTERLEAVED and checks
//! every deterministic counter and the rule count, so a change to the
//! miners that moves one fails here before it reaches the benchmark.

use car_bench::{base_cyclic_config, ScenarioParams};
use car_core::interleaved::mine_interleaved;
use car_core::parallel::mine_sequential_parallel;
use car_core::sequential::mine_sequential;
use car_core::{InterleavedOptions, MiningConfig, MiningOutcome};
use car_datagen::generate_cyclic;

/// Cyclic rules of the base database.
const RULES: usize = 5_516;

fn config() -> MiningConfig {
    MiningConfig::builder()
        .min_support_fraction(0.015)
        .min_confidence(0.6)
        .cycle_bounds(2, 16)
        .build()
        .unwrap()
}

fn assert_sequential(outcome: &MiningOutcome, case: &str) {
    let s = &outcome.stats;
    assert_eq!(s.support_computations, 426_676, "{case}");
    assert_eq!(s.candidates_generated, 426_676, "{case}");
    assert_eq!(s.bitmap_builds, 64, "{case}");
    assert_eq!(s.rules_checked, 557_009, "{case}");
    assert_eq!(outcome.rules.len(), RULES, "{case}");
}

#[test]
fn base_database_counters_are_pinned() {
    let params = ScenarioParams::default();
    let db = generate_cyclic(&base_cyclic_config(&params), params.seed).db;
    let config = config();

    let serial = mine_sequential(&db, &config).unwrap();
    assert_sequential(&serial, "serial");
    let parallel = mine_sequential_parallel(&db, &config, 2).unwrap();
    assert_sequential(&parallel, "2 threads");
    assert_eq!(parallel.rules, serial.rules);

    let interleaved = mine_interleaved(&db, &config, InterleavedOptions::all()).unwrap();
    let s = &interleaved.stats;
    assert_eq!(s.support_computations, 125_030);
    assert_eq!(s.skipped_counts, 767_861);
    assert_eq!(s.skipped_unit_scans, 21);
    assert_eq!(s.bitmap_builds, 64);
    assert_eq!(s.candidates_generated, 13_953);
    assert_eq!(s.candidates_pruned_by_cycles, 5_334);
    assert_eq!(s.cycles_eliminated, 240_786);
    assert_eq!(s.cyclic_itemsets, 4_804);
    assert_eq!(s.rules_checked, 31_780);
    assert_eq!(interleaved.rules, serial.rules);
}
