//! The SEQUENTIAL algorithm of the ICDE'98 paper.
//!
//! SEQUENTIAL treats cyclic rule mining as two independent problems run
//! back to back:
//!
//! 1. **Per-unit rule mining.** For every time unit, run Apriori on that
//!    unit's transactions and walk the association rules that hold
//!    there (support and confidence computed within the unit) with
//!    [`for_each_rule`], the `ap-genrules` walk that
//!    [`generate_rules`](car_apriori::generate_rules) also collects.
//! 2. **Cycle detection.** Each distinct rule induces a binary sequence
//!    over the units (1 where it held); detect that sequence's cycles by
//!    candidate elimination and report the minimal ones. The cycle sets
//!    of the units are built once and shared by every sequence, and a
//!    sequence with fewer holds than any cycle covers is settled by its
//!    popcount.
//!
//! Phase 1 allocates nothing per rule. A rule `X ⇒ Y` is the pair (id of
//! `Z = X ∪ Y`, mask of `X`'s positions in `Z`): each itemset `Z` is
//! interned once and lists its rules sorted by mask, and each rule's
//! sequence is a row of `⌈n / 64⌉` words in one flat vector
//! (`RuleSequences`). A unit's rules of `Z` find their rows by one merge
//! walk against that list. Phase 2 settles most rules by the popcount of
//! their words, and builds a [`BitSeq`] and a [`Rule`] only for the few
//! that could be cyclic.
//!
//! This is the natural baseline: correct, simple, and — as the paper
//! shows — wasteful, because it mines every unit at full strength even
//! for itemsets that can no longer be cyclic. INTERLEAVED exploits
//! exactly that slack.
//!
//! Each phase is written once, here: the [`parallel`](crate::parallel)
//! miner runs phase 1 on each worker's units and phase 2 on the merged
//! sequences, and the [`approx`](crate::approx) miner runs phase 1 and
//! then its own miss-tolerant detection.

use std::ops::Range;
use std::time::Instant;

use car_apriori::hash::FastHashMap;
use car_apriori::{for_each_rule, Apriori, AprioriConfig, Rule};
use car_cycles::{detect_cycles_with, minimal_cycles, BitSeq, CycleSet};
use car_itemset::{ItemSet, SegmentedDb};

use crate::config::{ConfigError, MiningConfig};
use crate::result::{CyclicRule, MiningOutcome, MiningStats};

/// Mines cyclic association rules with the SEQUENTIAL algorithm.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid for the
/// database (see [`MiningConfig::validate_for`]).
pub fn mine_sequential(
    db: &SegmentedDb,
    config: &MiningConfig,
) -> Result<MiningOutcome, ConfigError> {
    config.validate_for(db.num_units())?;
    let n = db.num_units();
    let mut stats = MiningStats {
        num_units: n,
        num_transactions: db.num_transactions(),
        ..Default::default()
    };

    let phase1_start = Instant::now();
    let phase1_span = car_obs::time_span!("mine.seq.unit_mining");
    let sequences = rule_sequences(db, config, 0..n, &mut stats);
    drop(phase1_span);
    stats.phase1 = phase1_start.elapsed();

    let phase2_start = Instant::now();
    let phase2_span = car_obs::time_span!("mine.seq.cycle_detect");
    let rules = cyclic_rules(&sequences, config);
    drop(phase2_span);
    stats.phase2 = phase2_start.elapsed();

    car_obs::debug!(
        "mine",
        [
            algo = "sequential",
            units = stats.num_units,
            rules = rules.len(),
            supports = stats.support_computations
        ],
        "mining run complete"
    );

    Ok(MiningOutcome { rules, stats })
}

/// Phase 1 over `units` of `db`: mines each unit with Apriori, walks
/// the rules that hold there, and sets the unit's bit in each rule's
/// binary sequence over all of `db`'s units. Adds the work to `stats`.
/// The parallel miner runs it once per worker, on disjoint ranges.
pub(crate) fn rule_sequences(
    db: &SegmentedDb,
    config: &MiningConfig,
    units: Range<usize>,
    stats: &mut MiningStats,
) -> RuleSequences {
    let mut apriori_config =
        AprioriConfig::new(config.min_support).with_counting(config.counting);
    if let Some(cap) = config.max_itemset_size {
        apriori_config = apriori_config.with_max_size(cap);
    }
    let apriori = Apriori::new(apriori_config);
    let mut sequences = RuleSequences::new(db.num_units());
    let mut masks: Vec<u64> = Vec::new();
    for unit in units {
        let apriori_span = car_obs::time_span!("mine.seq.apriori");
        let (frequent, apriori_stats) = apriori.mine_with_stats(db.unit(unit));
        drop(apriori_span);
        stats.support_computations += apriori_stats.candidates_counted;
        stats.candidates_generated += apriori_stats.candidates_counted;
        stats.bitmap_builds += apriori_stats.bitmap_builds;
        let _rules_span = car_obs::time_span!("mine.seq.rule_rows");
        for_each_rule(&frequent, config.min_confidence, |z, _, rules| {
            stats.rules_checked += rules.len() as u64;
            masks.clear();
            masks.extend(rules.iter().map(|rule| rule.antecedent));
            sequences.record(z, &mut masks, unit);
        });
    }
    sequences
}

/// Phase 1's result: every rule that held in a mined unit, with its
/// binary sequence over the database's `n` units.
///
/// A rule `X ⇒ Y` is the pair (id of `Z = X ∪ Y`, antecedent mask), where
/// bit `i` of the mask says whether `Z[i]` is in `X` (the masks of
/// [`for_each_rule`]). Each itemset `Z` is stored once, with its rules'
/// (mask, row) pairs sorted by mask, and each rule's sequence is a row of
/// `⌈n / 64⌉` words in one flat vector, so a rule costs no allocation of
/// its own. A unit's rules of `Z` find their rows by one merge walk of
/// their sorted masks against `Z`'s list, with no lookup per rule.
pub(crate) struct RuleSequences {
    num_units: usize,
    /// Words per row.
    row_words: usize,
    /// The interned itemsets, by id.
    itemsets: Vec<ItemSet>,
    ids: FastHashMap<ItemSet, u32>,
    /// The rules of each itemset, by id: (antecedent mask, offset of the
    /// rule's row in `words`) pairs, sorted by mask.
    rules: Vec<Vec<(u64, usize)>>,
    /// `row_words` words per row.
    words: Vec<u64>,
}

impl RuleSequences {
    /// No rules yet, over `num_units` units.
    pub(crate) fn new(num_units: usize) -> Self {
        RuleSequences {
            num_units,
            row_words: num_units.div_ceil(64),
            itemsets: Vec::new(),
            ids: FastHashMap::default(),
            rules: Vec::new(),
            words: Vec::new(),
        }
    }

    /// The id of `z`, interned the first time it is seen.
    fn intern(&mut self, z: &ItemSet) -> u32 {
        if let Some(&id) = self.ids.get(z) {
            return id;
        }
        // Fewer than 2^32 itemsets fit in memory.
        let id = self.itemsets.len() as u32;
        self.itemsets.push(z.clone());
        self.rules.push(Vec::new());
        self.ids.insert(z.clone(), id);
        id
    }

    /// Calls `f(i, words)` with the words of rule `(id, masks[i])`'s
    /// sequence for each of `masks`, which are sorted and distinct, a row
    /// of zeros for a rule not seen before. One merge walk against the
    /// itemset's sorted rules finds every row; new rules are appended
    /// and sorted in after it.
    fn for_each_row(
        &mut self,
        id: u32,
        masks: &[u64],
        mut f: impl FnMut(usize, &mut [u64]),
    ) {
        let RuleSequences { row_words, rules, words, .. } = self;
        let Some(rules) = rules.get_mut(id as usize) else { return };
        let known = rules.len();
        let mut at = 0;
        for (i, &mask) in masks.iter().enumerate() {
            while at < known && rules.get(at).is_some_and(|&(m, _)| m < mask) {
                at += 1;
            }
            let start = match rules.get(at) {
                Some(&(m, start)) if at < known && m == mask => start,
                _ => {
                    let start = words.len();
                    words.resize(start + *row_words, 0);
                    rules.push((mask, start));
                    start
                }
            };
            if let Some(row) = words.get_mut(start..start + *row_words) {
                f(i, row);
            }
        }
        if rules.len() > known {
            rules.sort_unstable_by_key(|&(mask, _)| mask);
        }
    }

    /// The words of the row at offset `start`.
    fn row(&self, start: usize) -> &[u64] {
        self.words.get(start..start + self.row_words).unwrap_or_default()
    }

    /// Records that the rules of `z` with antecedent masks `masks` held
    /// in `unit`. Sorts `masks`.
    fn record(&mut self, z: &ItemSet, masks: &mut [u64], unit: usize) {
        masks.sort_unstable();
        let id = self.intern(z);
        // `>> 6` and `& 63` are `/ 64` and `% 64` without the division lint.
        let (word, bit) = (unit >> 6, 1 << (unit & 63));
        self.for_each_row(id, masks, |_, row| {
            if let Some(word) = row.get_mut(word) {
                *word |= bit;
            }
        });
    }

    /// Adds the rules of `other`, mined over other units of the same
    /// database: its itemsets are re-interned and its rows OR-ed in.
    pub(crate) fn merge(&mut self, other: RuleSequences) {
        let mut masks: Vec<u64> = Vec::new();
        for (z, rules) in other.itemsets.iter().zip(&other.rules) {
            let id = self.intern(z);
            masks.clear();
            masks.extend(rules.iter().map(|&(mask, _)| mask));
            self.for_each_row(id, &masks, |i, row| {
                let Some(&(_, start)) = rules.get(i) else { return };
                for (word, &bits) in row.iter_mut().zip(other.row(start)) {
                    *word |= bits;
                }
            });
        }
    }

    /// Each rule, as its itemset and antecedent mask, with the words of
    /// its sequence (for [`BitSeq::from_words`]), in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&ItemSet, u64, &[u64])> {
        self.itemsets.iter().zip(&self.rules).flat_map(move |(z, rules)| {
            rules.iter().map(move |&(antecedent, start)| (z, antecedent, self.row(start)))
        })
    }
}

/// Phase 2: the rules whose sequence has a cycle, each with its minimal
/// cycles, sorted.
///
/// Every cycle covers at least [`CycleBounds::min_holds`] of the `n`
/// units, so a rule with fewer holds has none: the popcount of its words
/// settles most rules, and only the rest get a [`BitSeq`], a detection
/// and a [`Rule`].
///
/// [`CycleBounds::min_holds`]: car_cycles::CycleBounds::min_holds
pub(crate) fn cyclic_rules(
    sequences: &RuleSequences,
    config: &MiningConfig,
) -> Vec<CyclicRule> {
    let n = sequences.num_units;
    let bounds = config.cycle_bounds;
    let fewest = bounds.min_holds(n);
    let units = CycleSet::of_units(bounds, n);
    let mut rules: Vec<CyclicRule> = sequences
        .iter()
        .filter(|(_, _, words)| {
            words.iter().map(|w| w.count_ones() as usize).sum::<usize>() >= fewest
        })
        .filter_map(|(z, antecedent, words)| {
            let set = detect_cycles_with(&BitSeq::from_words(n, words), bounds, &units);
            (!set.is_empty()).then(|| CyclicRule {
                rule: Rule::from_mask(z, antecedent),
                cycles: minimal_cycles(&set),
            })
        })
        .collect();
    rules.sort();
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use car_cycles::Cycle;
    use car_itemset::ItemSet;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    /// Units alternate between {1,2}-heavy and {3}-heavy content.
    fn alternating_db(units: usize) -> SegmentedDb {
        let even = vec![set(&[1, 2]); 8];
        let odd = vec![set(&[3]); 8];
        SegmentedDb::from_unit_itemsets(
            (0..units)
                .map(|u| if u % 2 == 0 { even.clone() } else { odd.clone() })
                .collect(),
        )
    }

    fn config(l_min: u32, l_max: u32) -> MiningConfig {
        MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(l_min, l_max)
            .build()
            .unwrap()
    }

    #[test]
    fn finds_alternating_rules() {
        let db = alternating_db(8);
        let outcome = mine_sequential(&db, &config(2, 4)).unwrap();
        // {1} => {2} and {2} => {1} hold in every even unit.
        let r12 = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap())
            .expect("{1} => {2} should be cyclic");
        assert_eq!(r12.cycles, vec![Cycle::make(2, 0)]);
        let r21 = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[2]), set(&[1])).unwrap())
            .expect("{2} => {1} should be cyclic");
        assert_eq!(r21.cycles, vec![Cycle::make(2, 0)]);
    }

    #[test]
    fn constant_rule_has_shortest_cycle_only() {
        // {1,2} in every unit → cycle (2,0) and (2,1) both hold; with
        // bounds [2,3] minimal cycles are (2,0), (2,1), (3,0), (3,1),
        // (3,2)… all are minimal (no divisors inside bounds except
        // themselves). Use l_min = 2 and check (2,*) survive minimality
        // alongside (3,*): none is a multiple of another.
        let db = SegmentedDb::from_unit_itemsets(vec![vec![set(&[1, 2]); 4]; 6]);
        let outcome = mine_sequential(&db, &config(2, 3)).unwrap();
        let r = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap())
            .unwrap();
        let expect: Vec<Cycle> = vec![
            Cycle::make(2, 0),
            Cycle::make(2, 1),
            Cycle::make(3, 0),
            Cycle::make(3, 1),
            Cycle::make(3, 2),
        ];
        assert_eq!(r.cycles, expect);
    }

    #[test]
    fn no_rules_when_nothing_cyclic() {
        // Rule appears only once in 6 units: no cycle of length <= 3
        // survives (every candidate has an empty on-cycle unit).
        let mut units = vec![vec![set(&[9]); 4]; 6];
        units[0] = vec![set(&[1, 2]); 4];
        let db = SegmentedDb::from_unit_itemsets(units);
        let outcome = mine_sequential(&db, &config(2, 3)).unwrap();
        assert!(
            outcome.rules.iter().all(|r| r.rule.antecedent != set(&[1])),
            "one-shot rule must not be cyclic: {:?}",
            outcome.rules
        );
    }

    #[test]
    fn confidence_threshold_breaks_cycles() {
        // {1} everywhere; {1,2} only in even units, but unit 2 dilutes
        // confidence below threshold.
        let strong = vec![set(&[1, 2]), set(&[1, 2]), set(&[1, 2]), set(&[1])];
        let weak = vec![set(&[1, 2]), set(&[1]), set(&[1]), set(&[1])];
        let off = vec![set(&[1]); 4];
        let db = SegmentedDb::from_unit_itemsets(vec![
            strong.clone(),
            off.clone(),
            weak,
            off.clone(),
            strong,
            off,
        ]);
        let cfg = MiningConfig::builder()
            .min_support_fraction(0.25)
            .min_confidence(0.7)
            .cycle_bounds(2, 2)
            .build()
            .unwrap();
        let outcome = mine_sequential(&db, &cfg).unwrap();
        // {1} => {2}: support ok in units 0,2,4 but confidence at unit 2
        // is 1/4 < 0.7 → no (2,0) cycle.
        assert!(
            !outcome
                .rules
                .iter()
                .any(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap()),
            "{:?}",
            outcome.rules
        );
        // {2} => {1}: confidence 1 wherever {2} appears… but support of
        // {1,2} at unit 2 is 1/4 ≥ 0.25, so the rule holds at 0,2,4.
        let r = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[2]), set(&[1])).unwrap())
            .expect("{2} => {1} cyclic");
        assert_eq!(r.cycles, vec![Cycle::make(2, 0)]);
    }

    #[test]
    fn rejects_bad_window() {
        let db = alternating_db(3);
        let err = mine_sequential(&db, &config(2, 4)).unwrap_err();
        assert_eq!(err, ConfigError::CycleBoundExceedsUnits { l_max: 4, num_units: 3 });
    }

    #[test]
    fn empty_units_hold_no_rules() {
        let db = SegmentedDb::from_unit_itemsets(vec![
            vec![set(&[1, 2]); 4],
            vec![],
            vec![set(&[1, 2]); 4],
            vec![],
        ]);
        let outcome = mine_sequential(&db, &config(2, 2)).unwrap();
        let r = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap())
            .expect("cyclic in even units");
        assert_eq!(r.cycles, vec![Cycle::make(2, 0)]);
    }

    #[test]
    fn stats_are_populated() {
        let db = alternating_db(6);
        let outcome = mine_sequential(&db, &config(2, 3)).unwrap();
        assert_eq!(outcome.stats.num_units, 6);
        assert_eq!(outcome.stats.num_transactions, 48);
        assert!(outcome.stats.support_computations > 0);
        assert!(outcome.stats.rules_checked > 0);
        // Sequential never skips anything.
        assert_eq!(outcome.stats.skipped_counts, 0);
        assert_eq!(outcome.stats.skipped_unit_scans, 0);
    }
}
