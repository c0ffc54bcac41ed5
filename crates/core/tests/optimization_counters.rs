//! The paper's optimization accounting, end to end: on a datagen
//! workload with planted cycles, INTERLEAVED's three optimizations
//! (cycle pruning, cycle skipping, cycle elimination) must do measurable
//! work and shrink the counted units relative to SEQUENTIAL — and
//! SEQUENTIAL must record exact zeros for all three in its per-run
//! [`car_core::MiningStats`], the counts `car mine --stats` prints.

use car_core::interleaved::mine_interleaved;
use car_core::parallel::mine_sequential_parallel;
use car_core::sequential::mine_sequential;
use car_core::{InterleavedOptions, MiningConfig};
use car_datagen::{generate_cyclic, CyclicConfig};
use car_itemset::SegmentedDb;

fn cyclic_db() -> SegmentedDb {
    let data = generate_cyclic(
        &CyclicConfig::default()
            .with_units(24)
            .with_transactions_per_unit(80)
            .with_num_cyclic_patterns(5)
            .with_cycle_length_range(2, 4),
        7,
    );
    data.db
}

fn config() -> MiningConfig {
    MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(0.5)
        .cycle_bounds(2, 6)
        .build()
        .unwrap()
}

#[test]
fn interleaved_optimizations_do_work_on_cyclic_data() {
    let db = cyclic_db();
    let config = config();

    let outcome = mine_interleaved(&db, &config, InterleavedOptions::all()).unwrap();

    assert!(!outcome.rules.is_empty(), "planted cycles should yield rules");
    let s = &outcome.stats;
    assert!(s.skipped_counts > 0, "cycle skipping should avoid unit counts");
    assert!(s.candidates_pruned_by_cycles > 0, "cycle pruning should fire");
    assert!(s.cycles_eliminated > 0, "cycle elimination should fire");
}

#[test]
fn sequential_records_exact_zeros_for_the_three_optimizations() {
    let db = cyclic_db();
    let outcome = mine_sequential(&db, &config()).unwrap();

    // SEQUENTIAL counts every candidate in every unit: the three
    // INTERLEAVED optimization counters must be exactly zero. (Its
    // a-posteriori detector eliminates cycles too, but does not count
    // them as cycle elimination.)
    let s = &outcome.stats;
    assert_eq!(s.skipped_counts, 0);
    assert_eq!(s.candidates_pruned_by_cycles, 0);
    assert_eq!(s.cycles_eliminated, 0);
    assert!(s.support_computations > 0);
    // Each unit's Apriori counts every level on one build.
    assert_eq!(s.bitmap_builds, 24);
}

#[test]
fn interleaved_counts_strictly_fewer_units_than_sequential() {
    let db = cyclic_db();
    let config = config();

    let seq = mine_sequential(&db, &config).unwrap();
    let int = mine_interleaved(&db, &config, InterleavedOptions::all()).unwrap();

    // Same rules, less counting work — the paper's headline claim.
    assert_eq!(seq.rules, int.rules);
    let ratio =
        seq.stats.support_computations as f64 / int.stats.support_computations as f64;
    assert!(
        ratio > 1.0,
        "SEQUENTIAL counted {} units, INTERLEAVED {} (ratio {ratio:.2}) — \
         the optimizations should strictly reduce counted units",
        seq.stats.support_computations,
        int.stats.support_computations
    );
}

/// Every `MiningStats` work counter of one INTERLEAVED run, in the order
/// support computations, skipped counts, skipped unit scans, bitmap
/// builds, candidates generated, candidates pruned by cycles, cycles
/// eliminated, cyclic itemsets, rules checked.
fn work_counters(s: &car_core::MiningStats) -> [u64; 9] {
    [
        s.support_computations,
        s.skipped_counts,
        s.skipped_unit_scans,
        s.bitmap_builds,
        s.candidates_generated,
        s.candidates_pruned_by_cycles,
        s.cycles_eliminated,
        s.cyclic_itemsets,
        s.rules_checked,
    ]
}

/// The 8 ablation combinations as (pruning, skipping, elimination).
fn ablation(pruning: bool, skipping: bool, elimination: bool) -> InterleavedOptions {
    InterleavedOptions {
        cycle_pruning: pruning,
        cycle_skipping: skipping,
        cycle_elimination: elimination,
    }
}

#[test]
fn ablation_work_counters_are_pinned() {
    // The counters are deterministic, so the paper's ablation accounting
    // is pinned exactly: a change to how cycle sets are stored or
    // combined must leave every count where it was. Two configurations:
    // bounds 2..6, and bounds 2..16 (135 cycles in 3 words). A unit's
    // tid-bitmaps are built once per run, the first time a level counts
    // in it: without skipping every one of the 24 units is built exactly
    // once, and skipping can only leave units unbuilt.
    type Row = (bool, bool, bool, [u64; 9]);
    let narrow: [Row; 8] = [
        (false, false, false, [5300, 0, 0, 24, 222, 0, 4296, 69, 220]),
        (true, false, false, [4244, 0, 0, 24, 178, 44, 1629, 69, 220]),
        (false, true, false, [5300, 0, 0, 24, 222, 0, 4296, 69, 220]),
        (true, true, false, [2456, 1788, 14, 24, 178, 44, 1629, 69, 220]),
        (false, false, true, [5300, 0, 0, 24, 222, 0, 4296, 69, 220]),
        (true, false, true, [4244, 0, 0, 24, 178, 44, 1629, 69, 220]),
        (false, true, true, [1945, 3355, 7, 24, 222, 0, 4296, 69, 220]),
        (true, true, true, [1049, 3195, 14, 24, 178, 44, 1629, 69, 220]),
    ];
    let wide: [Row; 8] = [
        (false, false, false, [11324, 0, 0, 24, 473, 0, 61893, 218, 1384]),
        (true, false, false, [9428, 0, 0, 24, 394, 79, 11522, 218, 1384]),
        (false, true, false, [11324, 0, 0, 24, 473, 0, 61893, 218, 1384]),
        (true, true, false, [3101, 6327, 25, 24, 394, 79, 11522, 218, 1384]),
        (false, false, true, [11324, 0, 0, 24, 473, 0, 61893, 218, 1384]),
        (true, false, true, [9428, 0, 0, 24, 394, 79, 11522, 218, 1384]),
        (false, true, true, [8798, 2526, 1, 24, 473, 0, 61893, 218, 1384]),
        (true, true, true, [2548, 6880, 25, 24, 394, 79, 11522, 218, 1384]),
    ];
    let wide_config = MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(0.5)
        .cycle_bounds(2, 16)
        .build()
        .unwrap();
    let db = cyclic_db();
    for (config, rows) in [(config(), narrow), (wide_config, wide)] {
        let mut rules = None;
        for (pruning, skipping, elimination, expected) in rows {
            let options = ablation(pruning, skipping, elimination);
            let outcome = mine_interleaved(&db, &config, options).unwrap();
            assert_eq!(
                work_counters(&outcome.stats),
                expected,
                "{options:?} at {:?}",
                config.cycle_bounds
            );
            // Every combination finds the same rules.
            let first = rules.get_or_insert_with(|| outcome.rules.clone());
            assert_eq!(&outcome.rules, first, "{options:?}");
            let units = db.num_units() as u64;
            if skipping {
                assert!(outcome.stats.bitmap_builds <= units, "{options:?}");
            } else {
                assert_eq!(outcome.stats.bitmap_builds, units, "{options:?}");
            }
        }
    }
}

#[test]
fn sequential_work_counters_are_pinned() {
    // SEQUENTIAL counts every candidate of every unit and checks every
    // rule that holds in a unit, so its counters do not depend on the
    // cycle bounds; only the rules do. The database reaches 5-item
    // itemsets and 4-item consequents, so rule generation grows
    // consequents past the first level. The parallel miner splits the
    // units among its workers and must count the same work.
    let wide_config = MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(0.5)
        .cycle_bounds(2, 16)
        .build()
        .unwrap();
    let db = cyclic_db();
    for (config, rules) in [(config(), 152), (wide_config, 834)] {
        let serial = mine_sequential(&db, &config).unwrap();
        let runs = [
            ("serial", serial.clone()),
            ("2 threads", mine_sequential_parallel(&db, &config, 2).unwrap()),
            ("3 threads", mine_sequential_parallel(&db, &config, 3).unwrap()),
        ];
        for (name, outcome) in runs {
            let s = &outcome.stats;
            let case = format!("{name} at {:?}", config.cycle_bounds);
            assert_eq!(s.support_computations, 2920, "{case}");
            assert_eq!(s.candidates_generated, 2920, "{case}");
            assert_eq!(s.bitmap_builds, 24, "{case}");
            assert_eq!(s.rules_checked, 2500, "{case}");
            assert_eq!(outcome.rules.len(), rules, "{case}");
            assert_eq!(outcome.rules, serial.rules, "{case}");
        }
    }
}
