//! Approximate cyclic association rules.
//!
//! The ICDE'98 paper notes that exact cycles are brittle: a single noisy
//! time unit (a stock-out, a holiday) destroys an otherwise clear weekly
//! pattern. This module implements the relaxation the paper sketches as
//! future work: a rule has an *approximate* cycle `(l, o)` when it holds
//! in all but at most `max_misses` of the units `i ≡ o (mod l)`.
//!
//! Mining runs SEQUENTIAL's phase 1 (per-unit rule mining), then
//! analyses each rule's sequence, because approximate cycles sacrifice
//! the eager elimination the INTERLEAVED algorithm depends on: a miss no
//! longer kills a cycle, it only consumes budget.

use std::time::Instant;

use car_apriori::Rule;
use car_cycles::{detect_approx_cycles, ApproxCycle, BitSeq};
use car_itemset::SegmentedDb;

use crate::config::{ConfigError, MiningConfig};
use crate::result::MiningStats;
use crate::sequential::rule_sequences;

/// A rule together with its approximate cycles.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxCyclicRule {
    /// The association rule.
    pub rule: Rule,
    /// Approximate cycles within budget, sorted by `(length, offset)`.
    pub cycles: Vec<ApproxCycle>,
}

/// Result of an approximate mining run.
#[derive(Clone, Debug)]
pub struct ApproxOutcome {
    /// Rules with at least one approximate cycle.
    pub rules: Vec<ApproxCyclicRule>,
    /// Work counters, equal to SEQUENTIAL's on the same input.
    pub stats: MiningStats,
}

/// Mines rules with approximate cycles tolerating up to `max_misses`
/// misses per cycle.
///
/// With `max_misses == 0` the result contains exactly the rules of
/// [`mine_sequential`](crate::sequential::mine_sequential) (restricted to
/// non-vacuous cycles, which the exact miner's window validation already
/// guarantees), each with hit statistics attached.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid for the
/// database.
pub fn mine_approx(
    db: &SegmentedDb,
    config: &MiningConfig,
    max_misses: u32,
) -> Result<ApproxOutcome, ConfigError> {
    config.validate_for(db.num_units())?;
    let n = db.num_units();
    let mut stats = MiningStats {
        num_units: n,
        num_transactions: db.num_transactions(),
        ..Default::default()
    };

    let phase1_start = Instant::now();
    let sequences = rule_sequences(db, config, 0..n, &mut stats);
    stats.phase1 = phase1_start.elapsed();

    let phase2_start = Instant::now();
    let mut rules: Vec<ApproxCyclicRule> = Vec::new();
    for (z, antecedent, words) in sequences.iter() {
        let seq = BitSeq::from_words(n, words);
        let cycles = detect_approx_cycles(&seq, config.cycle_bounds, max_misses);
        if cycles.is_empty() {
            continue;
        }
        rules.push(ApproxCyclicRule { rule: Rule::from_mask(z, antecedent), cycles });
    }
    rules.sort_by(|a, b| a.rule.cmp(&b.rule));
    stats.phase2 = phase2_start.elapsed();

    Ok(ApproxOutcome { rules, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::mine_sequential;
    use car_itemset::ItemSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    /// An alternating pattern with one "noisy" unit (unit 4 breaks the
    /// even-unit pattern).
    fn noisy_db() -> SegmentedDb {
        let on = vec![set(&[1, 2]); 4];
        let off = vec![set(&[7]); 4];
        SegmentedDb::from_unit_itemsets(vec![
            on.clone(),
            off.clone(),
            on.clone(),
            off.clone(),
            off.clone(), // unit 4: pattern broken
            off.clone(),
            on,
            off,
        ])
    }

    fn config() -> MiningConfig {
        MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(2, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn exact_mining_misses_noisy_cycle() {
        let exact = mine_sequential(&noisy_db(), &config()).unwrap();
        assert!(
            !exact
                .rules
                .iter()
                .any(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap()),
            "exact cycle must be broken by the noisy unit"
        );
    }

    #[test]
    fn approx_mining_recovers_noisy_cycle() {
        let outcome = mine_approx(&noisy_db(), &config(), 1).unwrap();
        let r = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap())
            .expect("approximate cycle should tolerate one miss");
        let c20 = r
            .cycles
            .iter()
            .find(|c| (c.cycle.length(), c.cycle.offset()) == (2, 0))
            .expect("(2,0) within budget");
        assert_eq!(c20.misses, 1);
        assert_eq!(c20.occurrences, 4);
        assert!(!c20.is_exact());
    }

    #[test]
    fn zero_budget_matches_exact_rules() {
        let db = noisy_db();
        let cfg = config();
        let exact = mine_sequential(&db, &cfg).unwrap();
        let approx = mine_approx(&db, &cfg, 0).unwrap();
        let exact_rules: Vec<&Rule> = exact.rules.iter().map(|r| &r.rule).collect();
        let approx_rules: Vec<&Rule> = approx.rules.iter().map(|r| &r.rule).collect();
        assert_eq!(exact_rules, approx_rules);
        // And the exact cycles coincide with the zero-miss cycles.
        for (e, a) in exact.rules.iter().zip(&approx.rules) {
            let a_cycles: Vec<_> = a.cycles.iter().map(|c| c.cycle).collect();
            // Exact reports minimal cycles only; every one must appear in
            // the approximate (un-filtered) list.
            for c in &e.cycles {
                assert!(a_cycles.contains(c), "{c} missing from approx");
            }
            assert!(a.cycles.iter().all(|c| c.misses == 0));
        }
    }

    #[test]
    fn rejects_bad_window() {
        let db = SegmentedDb::from_unit_itemsets(vec![vec![set(&[1])]]);
        assert!(mine_approx(&db, &config(), 1).is_err());
    }
}
