//! Parallel SEQUENTIAL mining.
//!
//! The SEQUENTIAL algorithm's phase 1 mines every time unit
//! independently, which parallelises embarrassingly: the units are split
//! into contiguous chunks, each worker thread runs SEQUENTIAL's phase 1
//! on its chunk, and the per-rule binary sequences are merged
//! afterwards. Phase 2 (cycle detection) is cheap and stays
//! single-threaded. Rules and work counters are identical to
//! [`mine_sequential`](crate::sequential::mine_sequential).

use std::time::Instant;

use car_apriori::hash::FastHashMap;
use car_apriori::Rule;
use car_cycles::BitSeq;
use car_itemset::SegmentedDb;

use crate::config::{ConfigError, MiningConfig};
use crate::result::{MiningOutcome, MiningStats};
use crate::sequential::{cyclic_rules, rule_sequences};

/// Mines cyclic association rules with the SEQUENTIAL algorithm using
/// `num_threads` worker threads for the per-unit phase.
///
/// `num_threads == 0` selects the available parallelism.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid for the
/// database.
pub fn mine_sequential_parallel(
    db: &SegmentedDb,
    config: &MiningConfig,
    num_threads: usize,
) -> Result<MiningOutcome, ConfigError> {
    config.validate_for(db.num_units())?;
    let n = db.num_units();
    let threads = if num_threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        num_threads
    }
    .clamp(1, n.max(1));

    let mut stats = MiningStats {
        num_units: n,
        num_transactions: db.num_transactions(),
        ..Default::default()
    };

    let phase1_start = Instant::now();
    // Contiguous unit ranges, one per worker.
    let chunk = n.div_ceil(threads);
    let per_chunk = std::thread::scope(|scope| {
        let handles = (0..threads)
            .map(|w| w * chunk..((w + 1) * chunk).min(n))
            .filter(|units| !units.is_empty())
            .map(|units| {
                scope.spawn(move || {
                    let mut work = MiningStats::default();
                    (rule_sequences(db, config, units, &mut work), work)
                })
            })
            .collect();
        join_all(handles)
    });

    let mut sequences: FastHashMap<Rule, BitSeq> = FastHashMap::default();
    for (chunk_sequences, work) in per_chunk {
        // The four counters SEQUENTIAL's phase 1 adds to.
        stats.support_computations += work.support_computations;
        stats.candidates_generated += work.candidates_generated;
        stats.bitmap_builds += work.bitmap_builds;
        stats.rules_checked += work.rules_checked;
        for (rule, seq) in chunk_sequences {
            let merged = sequences.entry(rule).or_insert_with(|| BitSeq::zeros(n));
            for unit in seq.iter_ones() {
                merged.set(unit, true);
            }
        }
    }
    stats.phase1 = phase1_start.elapsed();

    let phase2_start = Instant::now();
    let rules = cyclic_rules(sequences, config, n);
    stats.phase2 = phase2_start.elapsed();

    Ok(MiningOutcome { rules, stats })
}

/// Joins every worker handle, then re-raises the first panic payload
/// (if any) on the calling thread.
///
/// Joining *all* handles before resuming matters: aborting at the
/// first panicked worker would leave the rest running while the scope
/// unwinds, and `std::thread::scope` would then block on (and possibly
/// double-panic over) the stragglers. This way every worker has fully
/// stopped before the caller observes the panic, and a successful join
/// never mixes partial results into the output.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    let mut panicked = None;
    for handle in handles {
        match handle.join() {
            Ok(value) => out.push(value),
            Err(payload) => {
                if panicked.is_none() {
                    panicked = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::mine_sequential;
    use car_apriori::CountStrategy;
    use car_itemset::ItemSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn db(units: usize) -> SegmentedDb {
        SegmentedDb::from_unit_itemsets(
            (0..units)
                .map(|u| {
                    if u % 3 == 0 {
                        vec![set(&[1, 2]), set(&[1, 2]), set(&[2, 3])]
                    } else if u % 3 == 1 {
                        vec![set(&[4, 5]); 3]
                    } else {
                        vec![set(&[1, 2]), set(&[4, 5]), set(&[6])]
                    }
                })
                .collect(),
        )
    }

    fn config() -> MiningConfig {
        MiningConfig::builder()
            .min_support_fraction(0.4)
            .min_confidence(0.5)
            .cycle_bounds(2, 6)
            .build()
            .unwrap()
    }

    /// `stats` without its wall-clock times.
    fn work(stats: MiningStats) -> MiningStats {
        MiningStats { phase1: Duration::ZERO, phase2: Duration::ZERO, ..stats }
    }

    #[test]
    fn parallel_matches_serial() {
        let db = db(18);
        for counting in [CountStrategy::Vertical, CountStrategy::HashTree] {
            let cfg = MiningConfig { counting, ..config() };
            let serial = mine_sequential(&db, &cfg).unwrap();
            for threads in [1usize, 2, 3, 7, 0] {
                let parallel = mine_sequential_parallel(&db, &cfg, threads).unwrap();
                let case = format!("{counting:?} threads={threads}");
                assert_eq!(serial.rules, parallel.rules, "{case}");
                assert_eq!(work(serial.stats.clone()), work(parallel.stats), "{case}");
            }
        }
    }

    #[test]
    fn more_threads_than_units() {
        let db = db(6);
        let cfg = config();
        let serial = mine_sequential(&db, &cfg).unwrap();
        let parallel = mine_sequential_parallel(&db, &cfg, 64).unwrap();
        assert_eq!(serial.rules, parallel.rules);
    }

    #[test]
    fn rejects_bad_window() {
        let db = db(3);
        let cfg = config(); // l_max 6 > 3 units
        assert!(mine_sequential_parallel(&db, &cfg, 2).is_err());
    }

    #[test]
    fn join_all_propagates_panic_after_joining_every_worker() {
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let slow = scope.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    finished.fetch_add(1, Ordering::SeqCst);
                    7
                });
                let bad = scope.spawn(|| panic!("worker exploded"));
                join_all(vec![bad, slow])
            })
        }));
        let payload = caught.expect_err("panic must propagate to the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(message, "worker exploded");
        // The slow worker ran to completion before the payload resumed.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn join_all_returns_results_in_handle_order() {
        let values = std::thread::scope(|scope| {
            let handles = (0..4).map(|i| scope.spawn(move || i * 10)).collect::<Vec<_>>();
            join_all(handles)
        });
        assert_eq!(values, vec![0, 10, 20, 30]);
    }
}
