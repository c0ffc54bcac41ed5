//! Incremental cyclic rule mining over a growing window.
//!
//! The batch miners assume the whole time window is available up front.
//! Production deployments see time units *arrive*: yesterday closes, a
//! new unit of transactions lands, and the analyst wants the updated
//! cyclic rules without re-mining history. [`IncrementalMiner`] supports
//! exactly that:
//!
//! * each arriving unit is mined once (per-unit Apriori + rule
//!   generation, as in SEQUENTIAL phase 1) and never touched again;
//! * per-rule hold-sequences grow append-only;
//! * cycle detection re-runs only at query time, over the sequences —
//!   the cheap part (`O(rules · zeros)` with early exit).
//!
//! The result after `push_unit`-ing units `0..n` is **identical** to
//! batch-mining the same database (equivalence-tested), with the
//! per-unit mining cost paid exactly once per unit.

use car_apriori::hash::FastHashMap;
use car_apriori::{generate_rules, Apriori, AprioriConfig, Rule};
use car_cycles::{detect_cycles_with, minimal_cycles, BitSeq, CycleSet};
use car_itemset::{ItemSet, SegmentedDb};

use crate::config::{ConfigError, MiningConfig};
use crate::result::CyclicRule;

/// An online cyclic-rule miner fed one time unit at a time.
///
/// ```
/// use car_core::incremental::IncrementalMiner;
/// use car_core::MiningConfig;
/// use car_itemset::ItemSet;
///
/// let config = MiningConfig::builder()
///     .min_support_fraction(0.5)
///     .min_confidence(0.5)
///     .cycle_bounds(2, 2)
///     .build()
///     .unwrap();
/// let mut miner = IncrementalMiner::new(config);
/// for day in 0..6 {
///     let unit = if day % 2 == 0 {
///         vec![ItemSet::from_ids([1, 2]); 4]
///     } else {
///         vec![ItemSet::from_ids([9]); 4]
///     };
///     miner.push_unit(&unit);
/// }
/// let rules = miner.current_rules().unwrap();
/// assert!(rules.iter().any(|r| r.rule.to_string() == "{1} => {2}"));
/// ```
pub struct IncrementalMiner {
    config: MiningConfig,
    apriori: Apriori,
    /// Units seen so far.
    units: usize,
    /// Hold-units per rule, append-only (unit indices, increasing).
    sequences: FastHashMap<Rule, Vec<u32>>,
}

impl IncrementalMiner {
    /// Creates a miner that has seen no units yet.
    pub fn new(config: MiningConfig) -> Self {
        let mut apriori_config =
            AprioriConfig::new(config.min_support).with_counting(config.counting);
        if let Some(cap) = config.max_itemset_size {
            apriori_config = apriori_config.with_max_size(cap);
        }
        IncrementalMiner {
            config,
            apriori: Apriori::new(apriori_config),
            units: 0,
            sequences: FastHashMap::default(),
        }
    }

    /// Number of units ingested so far.
    pub fn num_units(&self) -> usize {
        self.units
    }

    /// The mining configuration.
    pub fn config(&self) -> &MiningConfig {
        &self.config
    }

    /// Ingests the transactions of the next time unit; returns the unit's
    /// index. The unit is mined once, immediately.
    pub fn push_unit(&mut self, transactions: &[ItemSet]) -> usize {
        let unit = self.units as u32;
        let frequent = self.apriori.mine(transactions);
        for r in generate_rules(&frequent, self.config.min_confidence) {
            self.sequences.entry(r.rule).or_default().push(unit);
        }
        self.units += 1;
        self.units - 1
    }

    /// The cyclic rules over every unit ingested so far — identical to
    /// batch-mining the same database.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] while fewer units than
    /// `cycle_bounds.l_max()` have been ingested (cycles would be
    /// unobservable; see [`MiningConfig::validate_for`]).
    pub fn current_rules(&self) -> Result<Vec<CyclicRule>, ConfigError> {
        self.config.validate_for(self.units)?;
        let mut rules: Vec<CyclicRule> = Vec::new();
        let units = CycleSet::of_units(self.config.cycle_bounds, self.units);
        for (rule, holds) in &self.sequences {
            let mut seq = BitSeq::zeros(self.units);
            for &u in holds {
                seq.set(u as usize, true);
            }
            let set = detect_cycles_with(&seq, self.config.cycle_bounds, &units);
            if set.is_empty() {
                continue;
            }
            rules.push(CyclicRule { rule: rule.clone(), cycles: minimal_cycles(&set) });
        }
        rules.sort();
        Ok(rules)
    }

    /// Convenience: ingest every unit of a segmented database in order.
    pub fn push_db(&mut self, db: &SegmentedDb) {
        for (_, transactions) in db.iter_units() {
            self.push_unit(transactions);
        }
    }

    /// The hold-sequence of one rule over the ingested window, if the
    /// rule has ever held.
    pub fn rule_sequence(&self, rule: &Rule) -> Option<BitSeq> {
        let holds = self.sequences.get(rule)?;
        let mut seq = BitSeq::zeros(self.units);
        for &u in holds {
            seq.set(u as usize, true);
        }
        Some(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::mine_sequential;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn config(l_min: u32, l_max: u32) -> MiningConfig {
        MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(l_min, l_max)
            .build()
            .unwrap()
    }

    fn alternating_db(units: usize) -> SegmentedDb {
        SegmentedDb::from_unit_itemsets(
            (0..units)
                .map(
                    |u| {
                        if u % 2 == 0 {
                            vec![set(&[1, 2]); 4]
                        } else {
                            vec![set(&[3]); 4]
                        }
                    },
                )
                .collect(),
        )
    }

    #[test]
    fn matches_batch_after_each_unit() {
        let db = alternating_db(10);
        let cfg = config(2, 3);
        let mut miner = IncrementalMiner::new(cfg);
        for n in 1..=10usize {
            miner.push_unit(db.unit(n - 1));
            assert_eq!(miner.num_units(), n);
            if n >= 3 {
                // Batch-mine the prefix and compare.
                let prefix = SegmentedDb::from_unit_itemsets(
                    (0..n).map(|u| db.unit(u).to_vec()).collect(),
                );
                let batch = mine_sequential(&prefix, &cfg).unwrap();
                let incremental = miner.current_rules().unwrap();
                assert_eq!(incremental, batch.rules, "prefix of {n} units");
            }
        }
    }

    #[test]
    fn too_few_units_is_an_error() {
        let cfg = config(2, 4);
        let mut miner = IncrementalMiner::new(cfg);
        assert!(miner.current_rules().is_err());
        miner.push_unit(&[set(&[1])]);
        assert!(miner.current_rules().is_err()); // 1 < l_max = 4
        for _ in 0..3 {
            miner.push_unit(&[set(&[1])]);
        }
        assert!(miner.current_rules().is_ok());
    }

    #[test]
    fn new_unit_can_break_cycles() {
        let cfg = config(2, 2);
        let mut miner = IncrementalMiner::new(cfg);
        for u in 0..4 {
            if u % 2 == 0 {
                miner.push_unit(&vec![set(&[1, 2]); 4]);
            } else {
                miner.push_unit(&vec![set(&[9]); 4]);
            }
        }
        let rules = miner.current_rules().unwrap();
        assert!(rules.iter().any(|r| r.rule.to_string() == "{1} => {2}"));

        // Unit 4 should continue the cycle but delivers nothing.
        miner.push_unit(&vec![set(&[9]); 4]);
        let rules = miner.current_rules().unwrap();
        assert!(
            !rules.iter().any(|r| r.rule.to_string() == "{1} => {2}"),
            "broken cycle must disappear: {rules:?}"
        );
    }

    #[test]
    fn push_db_matches_unit_by_unit() {
        let db = alternating_db(8);
        let cfg = config(2, 3);
        let mut a = IncrementalMiner::new(cfg);
        a.push_db(&db);
        let mut b = IncrementalMiner::new(cfg);
        for (_, unit) in db.iter_units() {
            b.push_unit(unit);
        }
        assert_eq!(a.current_rules().unwrap(), b.current_rules().unwrap());
    }

    #[test]
    fn rule_sequence_reflects_holds() {
        let db = alternating_db(6);
        let cfg = config(2, 3);
        let mut miner = IncrementalMiner::new(cfg);
        miner.push_db(&db);
        let rule = Rule::new(set(&[1]), set(&[2])).unwrap();
        let seq = miner.rule_sequence(&rule).expect("rule held");
        assert_eq!(seq.to_string(), "101010");
        let absent = Rule::new(set(&[7]), set(&[8])).unwrap();
        assert!(miner.rule_sequence(&absent).is_none());
    }
}
