//! The INTERLEAVED algorithm of the ICDE'98 paper.
//!
//! INTERLEAVED avoids SEQUENTIAL's wasted work by interleaving cycle
//! detection with support counting. It runs in two phases:
//!
//! **Phase 1 — cyclic large itemsets.** Level-wise like Apriori, but each
//! candidate itemset carries a set of *candidate cycles*
//! ([`car_cycles::CycleSet`]) that only ever shrinks:
//!
//! * **Cycle pruning** — because an itemset can only be large where all
//!   of its subsets are large, `cycles(Z) ⊆ cycles(X)` for every
//!   `X ⊂ Z`. A new `k`-candidate therefore starts from the intersection
//!   of its `(k−1)`-subsets' cycle sets instead of the full set, and is
//!   discarded outright when that intersection is empty. The survivors
//!   of level `k − 1` are joined as one flat level ([`join_level`]),
//!   which reports where each subset sits among them, so no subset is
//!   searched for.
//! * **Cycle skipping** — the support of a candidate is only counted in
//!   time units lying on one of its remaining candidate cycles; other
//!   units cannot influence any cycle it could still have.
//! * **Cycle elimination** — when a candidate is not large in a counted
//!   unit `i`, every candidate cycle `(l, i mod l)` dies immediately,
//!   enlarging the skip set for later units.
//!
//! The cycles each unit lies on are built once per run, as one
//! [`CycleSet`] per unit ([`CycleSet::of_units`]), and shared by every
//! candidate: skipping is an [`intersects`](CycleSet::intersects) test
//! against the unit's set and elimination an
//! [`eliminate`](CycleSet::eliminate) (AND-NOT) with it, a few word
//! operations per candidate and unit. An item first seen at unit `i`
//! starts from one AND-NOT against the union of the sets of units
//! `0..i`.
//!
//! **Phase 2 — cyclic rules.** For each cyclic large itemset `Z` and each
//! split `X ⇒ Z∖X`, the rule's candidate cycles start from `Z`'s final
//! cycle set (which is always a subset of `X`'s, so every needed support
//! is on hand) and confidence failures eliminate cycles the same way.
//!
//! Each optimization can be switched off through [`InterleavedOptions`];
//! any combination produces identical results and differs only in the
//! work counted by [`MiningStats`] — the property the
//! paper's ablation experiments measure.

use std::time::Instant;

use car_apriori::bitmap::{ItemCounter, ItemMap};
use car_apriori::hash::FastHashMap;
use car_apriori::{join_level, Rule, TidBitmaps};
use car_cycles::{minimal_cycles, CycleSet};
use car_itemset::{Item, ItemSet, SegmentedDb};

use crate::config::{ConfigError, MiningConfig};
use crate::result::{CyclicRule, MiningOutcome, MiningStats};

/// Ablation switches for the three INTERLEAVED optimization techniques.
///
/// All switches default to on. Any combination yields the same mining
/// *results*; switching a technique off only increases the work done
/// (visible in [`MiningStats`]), which is how the
/// optimization-contribution experiments are run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterleavedOptions {
    /// Start candidates from the intersection of their subsets' cycles.
    pub cycle_pruning: bool,
    /// Skip support counting in units off every remaining candidate
    /// cycle.
    pub cycle_skipping: bool,
    /// Remove candidate cycles as soon as a counted unit misses.
    pub cycle_elimination: bool,
}

impl Default for InterleavedOptions {
    fn default() -> Self {
        InterleavedOptions {
            cycle_pruning: true,
            cycle_skipping: true,
            cycle_elimination: true,
        }
    }
}

impl InterleavedOptions {
    /// All optimizations enabled (the paper's INTERLEAVED).
    pub fn all() -> Self {
        Self::default()
    }

    /// All optimizations disabled (a per-unit scan with a posteriori
    /// cycle detection over itemsets).
    pub fn none() -> Self {
        InterleavedOptions {
            cycle_pruning: false,
            cycle_skipping: false,
            cycle_elimination: false,
        }
    }

    /// Disables cycle pruning.
    pub fn without_pruning(mut self) -> Self {
        self.cycle_pruning = false;
        self
    }

    /// Disables cycle skipping.
    pub fn without_skipping(mut self) -> Self {
        self.cycle_skipping = false;
        self
    }

    /// Disables cycle elimination.
    pub fn without_elimination(mut self) -> Self {
        self.cycle_elimination = false;
        self
    }
}

/// Per-candidate mining state during phase 1.
struct CandidateState {
    itemset: ItemSet,
    /// Remaining candidate cycles (initial set if elimination is off).
    cycles: CycleSet,
    /// Units counted and found *not* large; only filled when cycle
    /// elimination is disabled, applied at the end of the level scan.
    misses: Vec<usize>,
    /// Support counts at units where the itemset was counted and large.
    supports: FastHashMap<u32, u64>,
}

impl CandidateState {
    fn new(itemset: ItemSet, cycles: CycleSet) -> Self {
        CandidateState {
            itemset,
            cycles,
            misses: Vec::new(),
            supports: FastHashMap::default(),
        }
    }

    /// Applies deferred misses (no-op when elimination ran eagerly),
    /// given the cycle sets of the units.
    fn finalize(&mut self, units: &[CycleSet]) -> u64 {
        let mut eliminated = 0;
        for unit in self.misses.drain(..).filter_map(|m| units.get(m)) {
            eliminated += self.cycles.eliminate(unit) as u64;
        }
        eliminated
    }
}

/// Mines cyclic association rules with the INTERLEAVED algorithm.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid for the
/// database (see [`MiningConfig::validate_for`]).
pub fn mine_interleaved(
    db: &SegmentedDb,
    config: &MiningConfig,
    options: InterleavedOptions,
) -> Result<MiningOutcome, ConfigError> {
    config.validate_for(db.num_units())?;
    let mut stats = MiningStats {
        num_units: db.num_units(),
        num_transactions: db.num_transactions(),
        ..Default::default()
    };

    let phase1_start = Instant::now();
    let phase1_span = car_obs::time_span!("mine.int.itemsets");
    let units = CycleSet::of_units(config.cycle_bounds, db.num_units());
    let cyclic = find_cyclic_itemsets(db, config, options, &units, &mut stats);
    stats.cyclic_itemsets = cyclic.len() as u64;
    drop(phase1_span);
    stats.phase1 = phase1_start.elapsed();

    let phase2_start = Instant::now();
    let phase2_span = car_obs::time_span!("mine.int.rule_gen");
    let rules = generate_cyclic_rules(config, options, &units, &cyclic, &mut stats);
    drop(phase2_span);
    stats.phase2 = phase2_start.elapsed();

    car_obs::debug!(
        "mine",
        [
            algo = "interleaved",
            units = stats.num_units,
            rules = rules.len(),
            supports = stats.support_computations,
            skipped = stats.skipped_counts,
            pruned = stats.candidates_pruned_by_cycles,
            eliminated = stats.cycles_eliminated
        ],
        "mining run complete"
    );

    Ok(MiningOutcome { rules, stats })
}

/// Phase 1: the cyclic large itemsets of `db`, each with its final
/// (un-filtered) cycle set and its per-unit support counts on large
/// units. `units[i]` is the set of cycles unit `i` lies on.
fn find_cyclic_itemsets(
    db: &SegmentedDb,
    config: &MiningConfig,
    options: InterleavedOptions,
    units: &[CycleSet],
    stats: &mut MiningStats,
) -> Vec<CandidateState> {
    // A zero cap admits no itemset, so nothing is counted, as in Apriori.
    if config.max_itemset_size == Some(0) {
        return Vec::new();
    }
    let n = db.num_units();
    let bounds = config.cycle_bounds;
    let mut all_survivors: Vec<CandidateState> = Vec::new();

    // ---- Level 1 ----------------------------------------------------
    // Items are discovered as they first appear; a state created at unit
    // `i` inherits misses for every earlier unit (its count there was 0,
    // which is never large): one AND-NOT against `earlier`, the union of
    // the cycle sets of units `0..i`.
    //
    // The per-unit occurrence counter and the seen-item set are flat
    // refstores when the id space is dense (the common case); one cheap
    // pre-pass over the database sizes them. The counter clears in
    // O(items touched), so a single allocation serves every unit.
    let mut states: Vec<CandidateState> = Vec::new();
    let max_id = db.max_item_id().unwrap_or(0);
    let occurrences: usize = db.iter_all().map(|(_, t)| t.len()).sum();
    let mut seen: ItemMap<()> = ItemMap::for_universe(max_id, occurrences);
    let mut unit_counts = ItemCounter::for_universe(max_id, occurrences);

    let level1_span = car_obs::time_span!("mine.int.level1_scan");
    let mut earlier = CycleSet::empty(bounds);
    for (i, unit) in units.iter().enumerate() {
        let transactions = db.unit(i);
        let threshold = config.min_support.threshold(transactions.len());

        // One pass over the unit counts every item it contains.
        unit_counts.clear();
        for t in transactions {
            for item in t.iter() {
                unit_counts.add(item.id(), 1);
            }
        }

        // Register newly seen items.
        for id in unit_counts.ids_sorted() {
            if seen.insert(id, ()).is_none() {
                let mut state = CandidateState::new(
                    ItemSet::single(Item::new(id)),
                    CycleSet::full(bounds),
                );
                if options.cycle_elimination {
                    stats.cycles_eliminated += state.cycles.eliminate(&earlier) as u64;
                } else {
                    state.misses.extend(0..i);
                }
                states.push(state);
                stats.candidates_generated += 1;
            }
        }

        count_unit(&mut states, i, unit, threshold, options, stats, |itemset| {
            itemset.iter().next().map_or(0, |item| unit_counts.get(item.id()))
        });
        earlier.union_with(unit);
    }
    drop(level1_span);

    let mut survivors: Vec<CandidateState> = states
        .into_iter()
        .filter_map(|mut s| {
            stats.cycles_eliminated += s.finalize(units);
            (!s.cycles.is_empty()).then_some(s)
        })
        .collect();
    survivors.sort_by(|a, b| a.itemset.cmp(&b.itemset));

    // ---- Levels k >= 2 ----------------------------------------------
    // A unit's tid-bitmaps are built over the level-1 survivors at
    // `min_len` 2, as `eclat` builds them, the first time a level counts
    // in the unit, and count every later level there: a transaction
    // shorter than `k` sets bits but cannot hold a `k`-candidate. A unit
    // that cycle skipping retires at every level is never built.
    let items = ItemSet::from_sorted_vec(
        survivors.iter().flat_map(|s| s.itemset.iter()).collect(),
    );
    let mut level: Vec<Item> = Vec::new();
    let mut rows: Vec<Option<TidBitmaps>> = (0..n).map(|_| None).collect();
    let mut k = 1;
    while !survivors.is_empty() {
        k += 1;
        let at_cap = config.max_itemset_size.is_some_and(|cap| k > cap);

        // Candidate generation for the next level happens before the
        // previous survivors move into the accumulator. The survivors are
        // sorted, and joined as one flat level of their itemsets.
        let mut next_states: Vec<CandidateState> = Vec::new();
        if !at_cap {
            let _span = car_obs::time_span!("mine.int.candidate_gen");
            level.clear();
            level.extend(survivors.iter().flat_map(|s| s.itemset.iter()));
            join_level(&level, k - 1, |candidate, subsets| {
                // Every immediate subset of a candidate is a survivor, at
                // the position the join reports, and cycle pruning starts
                // the candidate from the intersection of their cycles.
                let mut cycles = CycleSet::full(bounds);
                if options.cycle_pruning {
                    for &position in subsets {
                        let Some(subset) = survivors.get(position) else { return };
                        cycles.intersect_with(&subset.cycles);
                        if cycles.is_empty() {
                            break;
                        }
                    }
                }
                if cycles.is_empty() {
                    stats.candidates_pruned_by_cycles += 1;
                } else {
                    stats.candidates_generated += 1;
                    let itemset = ItemSet::from_sorted_vec(candidate.to_vec());
                    next_states.push(CandidateState::new(itemset, cycles));
                }
            });
        }

        all_survivors.append(&mut survivors);
        let mut states = next_states;
        if states.is_empty() {
            break;
        }

        // Scan all units for this level.
        let scan_span = car_obs::time_span!("mine.int.support_count");
        for ((i, unit), unit_rows) in units.iter().enumerate().zip(&mut rows) {
            let transactions = db.unit(i);
            let threshold = config.min_support.threshold(transactions.len());
            let counted =
                count_unit(&mut states, i, unit, threshold, options, stats, |c| {
                    unit_rows
                        .get_or_insert_with(|| {
                            TidBitmaps::build(
                                std::slice::from_ref(&items),
                                transactions,
                                2,
                            )
                        })
                        .support(c)
                });
            if !counted {
                stats.skipped_unit_scans += 1;
            }
        }
        drop(scan_span);

        // The join emits candidates in sorted order, so the survivors
        // stay sorted.
        survivors = states
            .into_iter()
            .filter_map(|mut s| {
                stats.cycles_eliminated += s.finalize(units);
                (!s.cycles.is_empty()).then_some(s)
            })
            .collect();
    }
    stats.bitmap_builds = rows.iter().flatten().count() as u64;
    all_survivors.append(&mut survivors);
    all_survivors
}

/// Counts, at unit `i` with cycle set `unit`, every state that cycle
/// skipping leaves active, `support` giving its count there. A large
/// count is recorded; a miss kills the state's cycles through the unit,
/// at once or, without elimination, when the level ends. Returns whether
/// any state was counted.
fn count_unit(
    states: &mut [CandidateState],
    i: usize,
    unit: &CycleSet,
    threshold: u64,
    options: InterleavedOptions,
    stats: &mut MiningStats,
    mut support: impl FnMut(&ItemSet) -> u64,
) -> bool {
    let mut counted = false;
    for state in states {
        if options.cycle_skipping && !state.cycles.intersects(unit) {
            stats.skipped_counts += 1;
            continue;
        }
        counted = true;
        stats.support_computations += 1;
        let count = support(&state.itemset);
        if count >= threshold {
            state.supports.insert(i as u32, count);
        } else if options.cycle_elimination {
            stats.cycles_eliminated += state.cycles.eliminate(unit) as u64;
        } else {
            state.misses.push(i);
        }
    }
    counted
}

/// Phase 2: derive cyclic rules from the cyclic large itemsets.
/// `units[i]` is the set of cycles unit `i` lies on.
fn generate_cyclic_rules(
    config: &MiningConfig,
    options: InterleavedOptions,
    units: &[CycleSet],
    cyclic: &[CandidateState],
    stats: &mut MiningStats,
) -> Vec<CyclicRule> {
    let lookup: FastHashMap<&ItemSet, usize> =
        cyclic.iter().enumerate().map(|(i, s)| (&s.itemset, i)).collect();

    let mut rules: Vec<CyclicRule> = Vec::new();
    for z in cyclic {
        if z.itemset.len() < 2 {
            continue;
        }
        // Units that can influence any cycle of a rule derived from Z.
        let covered: Vec<(u32, &CycleSet)> =
            (0u32..).zip(units).filter(|(_, unit)| z.cycles.intersects(unit)).collect();
        for antecedent in z.itemset.proper_nonempty_subsets() {
            stats.rules_checked += 1;
            // Subsets of a cyclic itemset are always cyclic, so the
            // antecedent is present; skip the rule rather than panic if
            // the invariant is ever violated.
            let Some(x_state) = lookup.get(&antecedent).and_then(|&idx| cyclic.get(idx))
            else {
                continue;
            };

            // The rule's cycles start from Z's: a rule can only hold
            // where Z is large, and C_Z ⊆ C_X guarantees X's counts are
            // available at every unit we inspect.
            let mut rule_cycles = z.cycles.clone();
            for &(u, unit) in &covered {
                if options.cycle_skipping && !rule_cycles.intersects(unit) {
                    continue;
                }
                // Z is large on every unit of its cycles and X is large
                // wherever Z is, so both counts are recorded; if either
                // is somehow missing, the rule is unverifiable at this
                // unit and its cycles through it must die.
                let holds = match (z.supports.get(&u), x_state.supports.get(&u)) {
                    (Some(&z_count), Some(&x_count)) => {
                        config.min_confidence.accepts(z_count, x_count)
                    }
                    _ => false,
                };
                if !holds {
                    rule_cycles.eliminate(unit);
                    if rule_cycles.is_empty() {
                        break;
                    }
                }
            }
            if rule_cycles.is_empty() {
                continue;
            }
            let consequent = z.itemset.difference(&antecedent);
            rules.push(CyclicRule {
                rule: Rule { antecedent, consequent },
                cycles: minimal_cycles(&rule_cycles),
            });
        }
    }
    rules.sort();
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::mine_sequential;
    use car_cycles::Cycle;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

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
        let outcome =
            mine_interleaved(&db, &config(2, 4), InterleavedOptions::all()).unwrap();
        let r = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap())
            .expect("{1} => {2} cyclic");
        assert_eq!(r.cycles, vec![Cycle::make(2, 0)]);
    }

    #[test]
    fn matches_sequential_on_fixed_dbs() {
        for units in [4usize, 6, 8, 12] {
            let db = alternating_db(units);
            for (lo, hi) in [(2u32, 4u32), (1, 3), (2, 2)] {
                let hi = hi.min(units as u32);
                let cfg = config(lo, hi);
                let seq = mine_sequential(&db, &cfg).unwrap();
                for opts in [
                    InterleavedOptions::all(),
                    InterleavedOptions::none(),
                    InterleavedOptions::all().without_pruning(),
                    InterleavedOptions::all().without_skipping(),
                    InterleavedOptions::all().without_elimination(),
                ] {
                    let int = mine_interleaved(&db, &cfg, opts).unwrap();
                    assert_eq!(
                        seq.rules, int.rules,
                        "units={units} bounds=[{lo},{hi}] opts={opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn skipping_reduces_support_computations() {
        let db = alternating_db(12);
        let cfg = config(2, 4);
        let with = mine_interleaved(&db, &cfg, InterleavedOptions::all()).unwrap();
        let without =
            mine_interleaved(&db, &cfg, InterleavedOptions::all().without_skipping())
                .unwrap();
        assert_eq!(with.rules, without.rules);
        assert!(
            with.stats.support_computations < without.stats.support_computations,
            "skipping must save work: {} vs {}",
            with.stats.support_computations,
            without.stats.support_computations
        );
        assert!(with.stats.skipped_counts > 0);
        // {1, 2} is large only in the even units, and cycle pruning drops
        // every pair with 3, so no odd unit is ever built.
        assert_eq!((with.stats.bitmap_builds, with.stats.skipped_unit_scans), (6, 6));
        assert_eq!(without.stats.bitmap_builds, 12);
    }

    #[test]
    fn elimination_enables_more_skipping() {
        let db = alternating_db(12);
        let cfg = config(2, 4);
        let full = mine_interleaved(&db, &cfg, InterleavedOptions::all()).unwrap();
        let no_elim =
            mine_interleaved(&db, &cfg, InterleavedOptions::all().without_elimination())
                .unwrap();
        assert_eq!(full.rules, no_elim.rules);
        assert!(full.stats.support_computations <= no_elim.stats.support_computations);
    }

    #[test]
    fn empty_units_are_handled() {
        let db = SegmentedDb::from_unit_itemsets(vec![
            vec![set(&[1, 2]); 4],
            vec![],
            vec![set(&[1, 2]); 4],
            vec![],
        ]);
        let cfg = config(2, 2);
        let outcome = mine_interleaved(&db, &cfg, InterleavedOptions::all()).unwrap();
        let r = outcome
            .rules
            .iter()
            .find(|r| r.rule == Rule::new(set(&[1]), set(&[2])).unwrap())
            .expect("cyclic in even units");
        assert_eq!(r.cycles, vec![Cycle::make(2, 0)]);
        assert_eq!(outcome.rules, mine_sequential(&db, &cfg).unwrap().rules);
    }

    #[test]
    fn rejects_bad_window() {
        let db = alternating_db(3);
        let err =
            mine_interleaved(&db, &config(2, 4), InterleavedOptions::all()).unwrap_err();
        assert_eq!(err, ConfigError::CycleBoundExceedsUnits { l_max: 4, num_units: 3 });
    }

    #[test]
    fn stats_count_cyclic_itemsets() {
        let db = alternating_db(8);
        let outcome =
            mine_interleaved(&db, &config(2, 4), InterleavedOptions::all()).unwrap();
        // {1}, {2}, {3}, {1,2} are all cyclic.
        assert_eq!(outcome.stats.cyclic_itemsets, 4);
        assert!(outcome.stats.support_computations > 0);
        assert!(outcome.stats.rules_checked >= 2);
    }

    #[test]
    fn max_itemset_size_caps_output() {
        let db = SegmentedDb::from_unit_itemsets(vec![vec![set(&[1, 2, 3]); 4]; 4]);
        let mut cfg = config(2, 2);
        cfg.max_itemset_size = Some(2);
        let outcome = mine_interleaved(&db, &cfg, InterleavedOptions::all()).unwrap();
        assert!(outcome
            .rules
            .iter()
            .all(|r| r.rule.antecedent.len() + r.rule.consequent.len() <= 2));
        assert_eq!(outcome.rules, mine_sequential(&db, &cfg).unwrap().rules);

        // A zero cap admits no itemset: no work, as in SEQUENTIAL.
        cfg.max_itemset_size = Some(0);
        let outcome = mine_interleaved(&db, &cfg, InterleavedOptions::all()).unwrap();
        let sequential = mine_sequential(&db, &cfg).unwrap();
        assert!(outcome.rules.is_empty());
        for stats in [&outcome.stats, &sequential.stats] {
            assert_eq!((stats.support_computations, stats.cyclic_itemsets), (0, 0));
        }
    }
}
