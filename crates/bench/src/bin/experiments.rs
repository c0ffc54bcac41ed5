//! Regenerates the evaluation of the ICDE'98 cyclic association rules
//! paper: every figure/table of DESIGN.md's experiment index (EXP-1 …
//! EXP-9) as a markdown table. Every point is timed `RUNS` (5) times and
//! printed as `median [q1, q3]`, and every experiment asserts that its
//! algorithms, ablations or engines return the same answers.
//!
//! ```text
//! experiments                 # run everything at base scale
//! experiments --exp 2         # one experiment
//! experiments --scale small   # quick pass (CI-sized)
//! ```

#![allow(clippy::field_reassign_with_default)]

use car_bench::{
    measure, print_series, scenario, time_runs, ScenarioParams, SeriesRow, Timing, RUNS,
};
use car_core::{Algorithm, CountStrategy, CycleBounds, InterleavedOptions, MiningConfig};
use car_itemset::SegmentedDb;

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Small,
    Base,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp: Option<u32> = None;
    let mut scale = Scale::Base;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                exp = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--scale" => {
                scale = match args.get(i + 1).map(String::as_str) {
                    Some("small") => Scale::Small,
                    Some("base") | None => Scale::Base,
                    Some(other) => {
                        eprintln!("unknown scale `{other}` (small|base)");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: experiments [--exp N] [--scale small|base]");
                std::process::exit(2);
            }
        }
    }

    let run = |n: u32| exp.is_none() || exp == Some(n);
    if run(1) {
        exp1_time_units(scale);
    }
    if run(2) {
        exp2_min_support(scale);
    }
    if run(3) {
        exp3_trans_per_unit(scale);
    }
    if run(4) {
        exp4_cycle_length(scale);
    }
    if run(5) {
        exp5_num_items(scale);
    }
    if run(6) {
        exp6_ablation(scale);
    }
    if run(7) {
        exp7_work_metrics(scale);
    }
    if run(8) {
        exp8_counting_engines(scale);
    }
    if run(9) {
        exp9_incremental(scale);
    }
}

fn base_params(scale: Scale) -> ScenarioParams {
    let mut p = ScenarioParams::default();
    if scale == Scale::Small {
        p.units = 16;
        p.tx_per_unit = 100;
        p.l_max = 8;
    }
    p
}

/// Measures SEQUENTIAL and INTERLEAVED on one scenario.
fn seq_vs_int(label: &str, params: ScenarioParams) -> SeriesRow {
    let s = scenario(label, params);
    compare(label, &s.db, &s.config)
}

/// Measures SEQUENTIAL and INTERLEAVED on `db` at `config`.
fn compare(label: &str, db: &SegmentedDb, config: &MiningConfig) -> SeriesRow {
    let [sequential, interleaved] =
        measure(db, config, [Algorithm::Sequential, Algorithm::interleaved()]);
    SeriesRow { x: label.to_string(), sequential, interleaved }
}

/// EXP-1: runtime vs number of time units.
fn exp1_time_units(scale: Scale) {
    let units: &[usize] = match scale {
        Scale::Small => &[8, 16, 32],
        Scale::Base => &[16, 32, 64, 128],
    };
    let rows: Vec<SeriesRow> = units
        .iter()
        .map(|&u| {
            let mut p = base_params(scale);
            p.units = u;
            // A cycle must be observable at least twice to be meaningful;
            // l_max == units would make every one-off rule "cyclic".
            p.l_max = p.l_max.min(u as u32 / 2);
            seq_vs_int(&u.to_string(), p)
        })
        .collect();
    print!("{}", print_series("EXP-1: runtime vs number of time units", "units", &rows));
    println!();
}

/// EXP-2: runtime vs minimum support.
fn exp2_min_support(scale: Scale) {
    // Fractions are chosen so the per-unit absolute threshold stays >= 3
    // transactions: thresholds near 1 make *every* itemset large, which
    // measures degenerate-input behaviour rather than the algorithms.
    let supports: [f64; 5] = match scale {
        Scale::Small => [0.03, 0.05, 0.08, 0.12, 0.2],
        Scale::Base => [0.005, 0.01, 0.02, 0.03, 0.05],
    };
    let rows: Vec<SeriesRow> = supports
        .iter()
        .map(|&ms| {
            let mut p = base_params(scale);
            p.min_support = ms;
            seq_vs_int(&format!("{:.1}%", ms * 100.0), p)
        })
        .collect();
    print!("{}", print_series("EXP-2: runtime vs minimum support", "minsup", &rows));
    println!();
}

/// EXP-3: runtime vs transactions per unit.
fn exp3_trans_per_unit(scale: Scale) {
    let sizes: &[usize] = match scale {
        Scale::Small => &[100, 200, 400],
        Scale::Base => &[250, 500, 1000, 2000],
    };
    let rows: Vec<SeriesRow> = sizes
        .iter()
        .map(|&d| {
            let mut p = base_params(scale);
            p.tx_per_unit = d;
            // Keep the absolute per-unit threshold constant across the
            // sweep (15 transactions at the base 1000/unit), as the
            // paper's generator-scaling experiments do.
            p.min_support = 15.0 / d as f64;
            seq_vs_int(&d.to_string(), p)
        })
        .collect();
    print!(
        "{}",
        print_series("EXP-3: runtime vs transactions per unit", "tx/unit", &rows)
    );
    println!();
}

/// EXP-4: runtime vs maximum cycle length, on one database for the
/// whole sweep: only the mining bound varies.
fn exp4_cycle_length(scale: Scale) {
    let lmaxes: &[u32] = match scale {
        Scale::Small => &[2, 4, 8],
        Scale::Base => &[4, 8, 16, 24, 32],
    };
    // Four times the longest swept cycle, so even those cycles remain
    // falsifiable rather than trivially satisfied. The planted cycles
    // keep the base range.
    let mut p = base_params(scale);
    let longest = lmaxes.iter().copied().max().unwrap_or(p.l_max);
    p.units = p.units.max(4 * longest as usize);
    let s = scenario("exp4", p);
    let rows: Vec<SeriesRow> = lmaxes
        .iter()
        .map(|&l| {
            let bounds = CycleBounds::new(p.l_min, l).expect("l_min <= l_max");
            compare(
                &l.to_string(),
                &s.db,
                &MiningConfig { cycle_bounds: bounds, ..s.config },
            )
        })
        .collect();
    print!("{}", print_series("EXP-4: runtime vs maximum cycle length", "l_max", &rows));
    println!();
}

/// EXP-5: runtime vs number of items.
fn exp5_num_items(scale: Scale) {
    let items: &[u32] = match scale {
        Scale::Small => &[100, 250, 500],
        Scale::Base => &[100, 250, 500, 1000, 2000],
    };
    let rows: Vec<SeriesRow> = items
        .iter()
        .map(|&n| {
            let mut p = base_params(scale);
            p.items = n;
            seq_vs_int(&n.to_string(), p)
        })
        .collect();
    print!("{}", print_series("EXP-5: runtime vs number of items", "items", &rows));
    println!();
}

/// EXP-6: contribution of each INTERLEAVED optimization.
fn exp6_ablation(scale: Scale) {
    let s = scenario("ablation", base_params(scale));
    let all = InterleavedOptions::all();
    let variants = [
        ("INTERLEAVED (all)", Algorithm::Interleaved(all)),
        ("− cycle pruning", Algorithm::Interleaved(all.without_pruning())),
        ("− cycle skipping", Algorithm::Interleaved(all.without_skipping())),
        ("− cycle elimination", Algorithm::Interleaved(all.without_elimination())),
        ("none (all off)", Algorithm::Interleaved(InterleavedOptions::none())),
        ("SEQUENTIAL", Algorithm::Sequential),
    ];
    let measured = measure(&s.db, &s.config, variants.map(|(_, algorithm)| algorithm));
    println!("== EXP-6: optimization ablation (base workload) ==");
    println!("| variant | runtime | support computations | skipped counts | rules |");
    println!("|---|---|---|---|---|");
    for ((label, _), m) in variants.iter().zip(&measured) {
        let (support, skipped) = (m.stats.support_computations, m.stats.skipped_counts);
        println!("| {label} | {} | {support} | {skipped} | {} |", m.runtime, m.rules);
    }
    println!();
}

/// EXP-7: work metrics of INTERLEAVED vs SEQUENTIAL.
fn exp7_work_metrics(scale: Scale) {
    let s = scenario("metrics", base_params(scale));
    let [int, seq] =
        measure(&s.db, &s.config, [Algorithm::interleaved(), Algorithm::Sequential]);
    let (i, q) = (&int.stats, &seq.stats);
    println!("== EXP-7: work metrics (base workload) ==");
    println!("| metric | INTERLEAVED | SEQUENTIAL |");
    println!("|---|---|---|");
    let rows: [(&str, u64, u64); 6] = [
        ("support computations", i.support_computations, q.support_computations),
        ("skipped counts", i.skipped_counts, q.skipped_counts),
        ("unit scans skipped", i.skipped_unit_scans, q.skipped_unit_scans),
        (
            "candidates pruned (cycles)",
            i.candidates_pruned_by_cycles,
            q.candidates_pruned_by_cycles,
        ),
        ("cycles eliminated", i.cycles_eliminated, q.cycles_eliminated),
        ("rules checked", i.rules_checked, q.rules_checked),
    ];
    for (label, i, q) in rows {
        println!("| {label} | {i} | {q} |");
    }
    println!("| runtime | {} | {} |", int.runtime, seq.runtime);
    println!("cyclic itemsets (interleaved phase 1): {}", i.cyclic_itemsets);
    println!("cyclic rules: {}", int.rules);
    println!();
}

/// EXP-8: counting-engine comparison (the paper-era hash tree vs the
/// vertical kernel) on short and long transactions.
///
/// Measured directly on the counting primitive (as the fig8 Criterion
/// bench does) rather than on a full mining run: long dense transactions
/// with a permissive threshold make the *lattice* explode, which would
/// measure the workload rather than the engines.
fn exp8_counting_engines(scale: Scale) {
    use car_apriori::count_candidates;
    use car_itemset::ItemSet;

    println!("== EXP-8: counting engines ==");
    println!("| avg tx | k | candidates | HashTree | Vertical |");
    println!("|---|---|---|---|---|");
    let n_tx = match scale {
        Scale::Small => 2_000usize,
        Scale::Base => 10_000,
    };
    // Rows cover many candidates over short transactions and few
    // candidates over long ones, where the hash tree's cost grows with
    // transaction length and the kernel's does not.
    for (avg_len, k, top) in
        [(5.0f64, 2usize, 48usize), (20.0, 2, 48), (20.0, 3, 48), (40.0, 3, 12)]
    {
        // Generate transactions, then count a fixed candidate set built
        // from the most frequent items (the realistic L2 shape).
        let mut p = base_params(scale);
        p.avg_tx_len = avg_len;
        p.units = 1;
        p.tx_per_unit = n_tx;
        p.l_max = 1;
        p.l_min = 1;
        let s = scenario("exp8", p);
        let transactions = s.db.unit(0);
        let mut counts = std::collections::HashMap::new();
        for t in transactions {
            for i in t.iter() {
                *counts.entry(i).or_insert(0u32) += 1;
            }
        }
        let mut top_counts: Vec<_> = counts.into_iter().collect();
        top_counts.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        let items: Vec<_> = top_counts.into_iter().take(top).map(|(i, _)| i).collect();
        let universe = ItemSet::from_items(items.iter().copied());
        let mut candidates: Vec<ItemSet> = universe.k_subsets(k).collect();
        candidates.sort_unstable();

        let engines = [CountStrategy::HashTree, CountStrategy::Vertical];
        let [(hash_tree, expected), (vertical, counts)] =
            time_runs(|i| count_candidates(&candidates, transactions, engines[i]));
        assert_eq!(expected, counts, "engines disagreed");
        println!("| {avg_len} | {k} | {} | {hash_tree} | {vertical} |", candidates.len());
    }
    println!();
}

/// EXP-9 (extension): maintaining results as units arrive — a sliding
/// window as long as the stream, which mines each unit once, vs
/// re-mining the whole growing prefix after every unit. The stream is
/// replayed `RUNS` times, each strategy's time summed per replay, and
/// after every unit the two must give the same rules.
fn exp9_incremental(scale: Scale) {
    use car_core::sequential::mine_sequential;
    use car_core::window::SlidingWindowMiner;
    use car_itemset::SegmentedDb;
    use std::time::{Duration, Instant};

    let mut p = base_params(scale);
    if scale == Scale::Base {
        p.units = 48;
        p.tx_per_unit = 400;
    }
    p.l_max = p.l_max.min(p.units as u32 / 4).max(p.l_min);
    let s = scenario("incremental", p);
    let n = s.db.num_units();
    let l_max = s.config.cycle_bounds.l_max() as usize;

    let (mut window_runs, mut batch_runs) = (Vec::new(), Vec::new());
    let mut rules = 0;
    for _ in 0..RUNS {
        let mut miner =
            SlidingWindowMiner::new(s.config, n).expect("window covers l_max");
        let (mut window_time, mut batch_time) = (Duration::ZERO, Duration::ZERO);
        for end in 1..=n {
            // Window: ingest the arriving unit once, then query.
            let start = Instant::now();
            miner.push_unit(s.db.unit(end - 1));
            let view =
                (end >= l_max).then(|| miner.current_rules().expect("l_max units in"));
            window_time += start.elapsed();
            let Some(view) = view else { continue };

            // Batch: re-mine the whole prefix.
            let start = Instant::now();
            let prefix = SegmentedDb::from_unit_itemsets(
                (0..end).map(|u| s.db.unit(u).to_vec()).collect(),
            );
            let batch = mine_sequential(&prefix, &s.config).expect("window validated");
            batch_time += start.elapsed();
            assert_eq!(*view, batch.rules, "window must match re-mining {end} units");
            rules = view.len();
        }
        window_runs.push(window_time);
        batch_runs.push(batch_time);
    }
    let (window, batch) = (Timing::of(&window_runs), Timing::of(&batch_runs));

    println!("== EXP-9: maintaining results as units arrive ==");
    println!("| strategy | total time | rules |");
    println!("|---|---|---|");
    println!("| sliding window ({n} units) | {window} | {rules} |");
    println!("| re-mine prefix each unit | {batch} | {rules} |");
    println!("speedup (ratio of medians): {:.2}×", batch.ratio(&window));
    println!();
}
