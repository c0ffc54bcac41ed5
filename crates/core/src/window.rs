//! Sliding-window cyclic rule mining.
//!
//! [`IncrementalMiner`](crate::incremental::IncrementalMiner) grows its
//! window forever, which is right for bounded histories but wrong for
//! long-running streams where only the recent past matters (cyclic
//! behaviour itself drifts: last year's weekly pattern may be gone).
//! [`SlidingWindowMiner`] keeps the most recent `window` time units:
//! each arriving unit is mined once, units older than the window are
//! evicted, and queries see a database of exactly the retained units,
//! re-indexed so the oldest retained unit is unit 0.
//!
//! # Query fast path
//!
//! Cycle state is maintained *online*: every push folds the unit's
//! held rules into per-rule [`OnlineRuleCycles`] rings — the rule's
//! binary sequence over the retained units, one bit per unit at
//! position `abs_unit mod C` with `C ≥ window + 1`. A hold sets its
//! bit, a miss touches nothing, and eviction clears the evicted hold's
//! bit, which is what revives a cycle an old miss had killed. A rule
//! whose ring empties is dropped. A default-confidence query
//! ([`query_rules`](SlidingWindowMiner::query_rules) with `None`)
//! builds the `(l, o)` [`CycleMasks`] of the current window once and
//! tests every ring against them with AND-compares (the paper's cycle
//! elimination: a cycle survives iff no retained unit on it is a miss),
//! skipping rules with too few holds to fill any residue class. The
//! result is memoised as a shared [`RuleView`] and handed out by `Arc`
//! clone until the next push invalidates it. Escalated-confidence
//! queries (`Some(q)` above the mining threshold) change which units
//! count as holds, so they bypass the online state and re-detect — in
//! parallel, via [`detect_cycles_batch`].
//!
//! Results are identical to batch-mining the retained units
//! (equivalence property-tested), with per-unit mining work paid once
//! per unit — eviction never requires re-mining because per-unit rule
//! sets are cached verbatim.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use car_apriori::hash::FastHashMap;
use car_apriori::{generate_rules, Apriori, AprioriConfig, MinConfidence, Rule};
use car_cycles::{
    detect_cycles_batch, minimal_cycles, BitSeq, CycleMasks, CycleSet, OnlineRuleCycles,
};
use car_itemset::ItemSet;

use crate::config::{ConfigError, MiningConfig};
use crate::result::{CyclicRule, RuleView};

/// How often (in retained units scanned) the escalated query path
/// re-reads the clock against its deadline. Coarse on purpose: a clock
/// read per unit would dominate the per-unit filter work for small
/// windows. Must stay a power of two — the check masks rather than
/// divides.
const DEADLINE_CHECK_UNITS: usize = 64;

/// A rule that held in one retained unit, with the counts needed to
/// re-evaluate its confidence at query time.
#[derive(Clone, Debug)]
struct HeldRule {
    rule: Rule,
    /// Transactions of the unit containing antecedent ∪ consequent.
    rule_count: u64,
    /// Transactions of the unit containing the antecedent.
    antecedent_count: u64,
}

/// A cyclic rule miner over the most recent `window` time units.
///
/// ```
/// use car_core::window::SlidingWindowMiner;
/// use car_core::MiningConfig;
/// use car_itemset::ItemSet;
///
/// let config = MiningConfig::builder()
///     .min_support_fraction(0.5)
///     .min_confidence(0.5)
///     .cycle_bounds(2, 2)
///     .build()
///     .unwrap();
/// let mut miner = SlidingWindowMiner::new(config, 6).unwrap();
/// for day in 0..20 {
///     let unit = if day % 2 == 0 {
///         vec![ItemSet::from_ids([1, 2]); 4]
///     } else {
///         vec![ItemSet::from_ids([9]); 4]
///     };
///     miner.push_unit(&unit);
/// }
/// // Only the last 6 units are considered.
/// assert_eq!(miner.len(), 6);
/// let rules = miner.current_rules().unwrap();
/// assert!(rules.iter().any(|r| r.rule.to_string() == "{1} => {2}"));
/// ```
pub struct SlidingWindowMiner {
    config: MiningConfig,
    apriori: Apriori,
    window: usize,
    /// Per retained unit (oldest first): the rules that held there, with
    /// the counts backing their confidence.
    unit_rules: VecDeque<Vec<HeldRule>>,
    /// Per retained unit (oldest first): the frequent single items and
    /// their support counts, sorted by item id. This is the compact
    /// per-shard summary the cluster router merges — item partitioning
    /// makes per-item counts exact under concatenation.
    unit_items: VecDeque<Vec<(u32, u64)>>,
    /// Per-rule ring of retained holds in absolute unit coordinates;
    /// rules with no retained hold are removed.
    online: FastHashMap<Rule, OnlineRuleCycles>,
    /// Memoised `query_rules(None)` view; cleared by every push. A
    /// `Mutex` (not `RwLock`) because fills are rare and reads clone an
    /// `Arc` in nanoseconds.
    view: Mutex<Option<RuleView>>,
    /// Total units ever pushed (for diagnostics).
    total_pushed: u64,
}

impl SlidingWindowMiner {
    /// Creates a miner retaining the last `window` units.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::CycleBoundExceedsUnits`] when the window is
    /// shorter than the configuration's `l_max` — such a window could
    /// never confirm the longest requested cycles.
    pub fn new(config: MiningConfig, window: usize) -> Result<Self, ConfigError> {
        config.validate_for(window)?;
        let mut apriori_config =
            AprioriConfig::new(config.min_support).with_counting(config.counting);
        if let Some(cap) = config.max_itemset_size {
            apriori_config = apriori_config.with_max_size(cap);
        }
        Ok(SlidingWindowMiner {
            config,
            apriori: Apriori::new(apriori_config),
            window,
            unit_rules: VecDeque::with_capacity(window + 1),
            unit_items: VecDeque::with_capacity(window + 1),
            online: FastHashMap::default(),
            view: Mutex::new(None),
            total_pushed: 0,
        })
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of units currently retained (`≤ window`).
    pub fn len(&self) -> usize {
        self.unit_rules.len()
    }

    /// Whether no units have been retained yet.
    pub fn is_empty(&self) -> bool {
        self.unit_rules.is_empty()
    }

    /// Total units ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Units evicted from the window so far.
    pub fn evictions(&self) -> u64 {
        self.total_pushed - self.unit_rules.len() as u64
    }

    /// Total `(rule, unit)` hold entries currently retained — the
    /// working-set size a serving layer reports as a gauge.
    pub fn retained_rule_entries(&self) -> usize {
        self.unit_rules.iter().map(Vec::len).sum()
    }

    /// Distinct rules with online cycle state (held in ≥ 1 retained
    /// unit).
    pub fn tracked_rules(&self) -> usize {
        self.online.len()
    }

    /// Aggregated support counts of the frequent single items across
    /// the retained window, sorted by item id. Items infrequent in a
    /// unit contribute nothing for that unit (mirroring what the
    /// per-unit miner retains). This is the compact summary a shard
    /// worker exposes for the router's cluster-wide item merge: shards
    /// partition the *transaction* space per unit, so per-item sums
    /// concatenate exactly.
    pub fn item_supports(&self) -> Vec<(u32, u64)> {
        let mut totals: FastHashMap<u32, u64> = FastHashMap::default();
        for unit in &self.unit_items {
            for &(id, count) in unit {
                let slot = totals.entry(id).or_insert(0);
                *slot = slot.saturating_add(count);
            }
        }
        let mut out: Vec<(u32, u64)> = totals.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Ingests the next unit, evicting the oldest once the window is
    /// full. Returns the number of units evicted (0 or 1).
    pub fn push_unit(&mut self, transactions: &[ItemSet]) -> usize {
        let _span = car_obs::time_span!("window.push_unit");
        let frequent = {
            let _span = car_obs::time_span!("window.apriori");
            self.apriori.mine(transactions)
        };
        // Frequent single items of this unit, kept as the compact
        // per-unit summary behind `item_supports`.
        let mut items: Vec<(u32, u64)> = frequent
            .level(1)
            .filter_map(|(s, c)| s.as_slice().first().map(|item| (item.id(), c)))
            .collect();
        items.sort_unstable();
        let rules: Vec<HeldRule> = {
            let _span = car_obs::time_span!("window.rule_gen");
            generate_rules(&frequent, self.config.min_confidence)
                .into_iter()
                .map(|r| HeldRule {
                    rule: r.rule,
                    rule_count: r.rule_count,
                    antecedent_count: r.antecedent_count,
                })
                .collect()
        };
        let _fold = car_obs::time_span!("window.fold");
        // Fold this unit's holds into the online cycle state: one bit per
        // held rule. Rules absent from the unit need no visit — their
        // unset bit *is* the miss (see `OnlineRuleCycles`). The new unit
        // is recorded before the oldest is evicted, which is why rings
        // hold `window + 1` positions.
        let abs_unit = self.total_pushed;
        for held in &rules {
            match self.online.get_mut(&held.rule) {
                Some(state) => state.record_hold(abs_unit),
                None => {
                    let mut state = OnlineRuleCycles::new(self.window);
                    state.record_hold(abs_unit);
                    self.online.insert(held.rule.clone(), state);
                }
            }
        }
        car_obs::counters::MINE.add_online_holds(rules.len() as u64);
        self.unit_rules.push_back(rules);
        self.unit_items.push_back(items);
        self.total_pushed += 1;
        let evicted = if self.unit_rules.len() > self.window {
            // The evicted unit's absolute index: the retained range
            // before popping is `(abs_unit - window) ..= abs_unit`.
            let abs_evicted = abs_unit - self.window as u64;
            self.unit_items.pop_front();
            if let Some(old) = self.unit_rules.pop_front() {
                for held in &old {
                    let drop_rule = match self.online.get_mut(&held.rule) {
                        Some(state) => {
                            state.record_evict(abs_evicted);
                            state.is_empty()
                        }
                        None => false,
                    };
                    if drop_rule {
                        self.online.remove(&held.rule);
                    }
                }
            }
            1
        } else {
            0
        };
        *self.view_slot() = None;
        evicted
    }

    /// The cyclic rules over the retained window, with unit 0 the oldest
    /// retained unit — identical to batch-mining those units.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] while fewer than `l_max` units are
    /// retained.
    pub fn current_rules(&self) -> Result<RuleView, ConfigError> {
        self.query_rules(None)
    }

    /// The cyclic rules over the retained window, optionally re-evaluated
    /// at a *stricter* minimum confidence than the mining configuration.
    ///
    /// With `None` (or a `q` at or below the configured threshold — a
    /// no-op, since rules below the mining threshold were never cached),
    /// this is the fast path: a clone of the memoised [`RuleView`]
    /// assembled from online cycle state, costing an `Arc` bump after
    /// the first query per ingest. With `Some(q)` above the threshold,
    /// which units count as holds changes, so the online state does not
    /// apply: the rule sequences are rebuilt under `q` and re-detected
    /// in parallel via [`detect_cycles_batch`] — identical to
    /// batch-mining the retained window at confidence `q`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] while fewer than `l_max` units are
    /// retained.
    pub fn query_rules(
        &self,
        min_confidence: Option<MinConfidence>,
    ) -> Result<RuleView, ConfigError> {
        // No deadline: `query_rules_within` with `None` never aborts.
        match self.query_rules_within(min_confidence, None)? {
            Some(view) => Ok(view),
            // Unreachable without a deadline; kept total rather than
            // panicking.
            None => Ok(Arc::new(Vec::new())),
        }
    }

    /// [`query_rules`](Self::query_rules) with a hard deadline on the
    /// escalated (re-detection) path. Returns `Ok(None)` when the
    /// deadline expired before the view was assembled — the serving
    /// tier answers `504 deadline_exceeded` — and `Ok(Some(view))`
    /// otherwise. The fast path never checks the deadline: a memoised
    /// `Arc` clone is cheaper than reading the clock.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] while fewer than `l_max` units are
    /// retained.
    pub fn query_rules_within(
        &self,
        min_confidence: Option<MinConfidence>,
        deadline: Option<Instant>,
    ) -> Result<Option<RuleView>, ConfigError> {
        let escalated =
            min_confidence.filter(|q| q.value() > self.config.min_confidence.value());
        match escalated {
            None => self.query_fast().map(Some),
            Some(q) => self.query_detect(q, deadline),
        }
    }

    /// Fast path: memoised view over online cycle state.
    fn query_fast(&self) -> Result<RuleView, ConfigError> {
        let _span = car_obs::time_span!("window.query_rules.fast");
        self.config.validate_for(self.unit_rules.len())?;
        let mut slot = self.view_slot();
        if let Some(view) = slot.as_ref() {
            return Ok(Arc::clone(view));
        }
        let view: RuleView = Arc::new(self.assemble_from_online());
        *slot = Some(Arc::clone(&view));
        Ok(view)
    }

    /// Rebuilds the default-confidence result directly from online
    /// cycle state, bypassing the memoised view — the cost
    /// `query_rules(None)` pays only on the first query after an
    /// ingest. Exposed so benchmarks can measure the online-assembly
    /// path in isolation from memoisation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] while fewer than `l_max` units are
    /// retained.
    pub fn assemble_view(&self) -> Result<RuleView, ConfigError> {
        self.config.validate_for(self.unit_rules.len())?;
        Ok(Arc::new(self.assemble_from_online()))
    }

    /// Escalated path: rebuild sequences under `q`, re-detect in
    /// parallel. Aborts with `Ok(None)` if `deadline` passes before
    /// re-detection starts; the deadline is checked at entry, every
    /// [`DEADLINE_CHECK_UNITS`] units of the sequence rebuild, and once
    /// more before the (parallel, unabortable) batch detection.
    fn query_detect(
        &self,
        q: MinConfidence,
        deadline: Option<Instant>,
    ) -> Result<Option<RuleView>, ConfigError> {
        let _span = car_obs::time_span!("window.query_rules.detect");
        let n = self.unit_rules.len();
        self.config.validate_for(n)?;
        let expired = |on: bool| on && deadline.is_some_and(|d| Instant::now() >= d);
        if expired(true) {
            return Ok(None);
        }
        let mut sequences: FastHashMap<&Rule, BitSeq> = FastHashMap::default();
        for (u, rules) in self.unit_rules.iter().enumerate() {
            if expired(u & (DEADLINE_CHECK_UNITS - 1) == 0) {
                return Ok(None);
            }
            for held in rules {
                if !q.accepts(held.rule_count, held.antecedent_count) {
                    continue;
                }
                sequences
                    .entry(&held.rule)
                    .or_insert_with(|| BitSeq::zeros(n))
                    .set(u, true);
            }
        }
        if expired(true) {
            return Ok(None);
        }
        let (rules, seqs): (Vec<&Rule>, Vec<BitSeq>) = sequences.into_iter().unzip();
        let sets = detect_cycles_batch(&seqs, self.config.cycle_bounds, 0);
        let mut out: Vec<CyclicRule> = Vec::new();
        for (rule, set) in rules.into_iter().zip(sets) {
            if set.is_empty() {
                continue;
            }
            out.push(CyclicRule { rule: rule.clone(), cycles: minimal_cycles(&set) });
        }
        out.sort();
        Ok(Some(Arc::new(out)))
    }

    /// Materialises the current window's cyclic rules from the online
    /// per-rule rings (no bit sequences, no re-detection): the window's
    /// cycle masks are built once, then every ring is AND-compared.
    fn assemble_from_online(&self) -> Vec<CyclicRule> {
        let (out, eliminated) = self.assemble_counted();
        if eliminated > 0 {
            car_obs::counters::MINE.add_online_eliminations(eliminated);
        }
        out
    }

    /// [`assemble_from_online`](Self::assemble_from_online) without the
    /// counter flush: the rules plus the candidates eliminated across
    /// every tracked rule, `Σ (num_cycles − live cycles)`.
    fn assemble_counted(&self) -> (Vec<CyclicRule>, u64) {
        let n = self.unit_rules.len();
        let base = self.total_pushed.saturating_sub(n as u64);
        let bounds = self.config.cycle_bounds;
        let masks = CycleMasks::new(bounds, self.window, base, n);
        let candidates = bounds.num_cycles() as u64;
        let mut eliminated: u64 = 0;
        let mut out: Vec<CyclicRule> = Vec::new();
        for (rule, state) in &self.online {
            let live = masks.live_cycles(state);
            let survivors = live.as_ref().map_or(0, CycleSet::len) as u64;
            eliminated = eliminated.saturating_add(candidates.saturating_sub(survivors));
            if let Some(live) = live {
                out.push(CyclicRule {
                    rule: rule.clone(),
                    cycles: minimal_cycles(&live),
                });
            }
        }
        out.sort();
        (out, eliminated)
    }

    /// The memoised-view slot, recovering from (impossible in practice)
    /// poisoning: the view is pure derived data, so a poisoned slot is
    /// safe to reuse or overwrite.
    fn view_slot(&self) -> MutexGuard<'_, Option<RuleView>> {
        self.view.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::mine_sequential;
    use car_itemset::SegmentedDb;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn config(l_max: u32) -> MiningConfig {
        MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(2, l_max)
            .build()
            .unwrap()
    }

    fn unit_for(day: usize) -> Vec<ItemSet> {
        if day % 2 == 0 {
            vec![set(&[1, 2]); 4]
        } else {
            vec![set(&[7]); 4]
        }
    }

    #[test]
    fn window_shorter_than_l_max_is_rejected() {
        assert!(SlidingWindowMiner::new(config(8), 4).is_err());
        assert!(SlidingWindowMiner::new(config(4), 4).is_ok());
    }

    #[test]
    fn matches_batch_on_retained_window() {
        let cfg = config(3);
        let mut miner = SlidingWindowMiner::new(cfg, 6).unwrap();
        let mut history: Vec<Vec<ItemSet>> = Vec::new();
        for day in 0..15 {
            history.push(unit_for(day));
            let evicted = miner.push_unit(&history[day]);
            assert_eq!(evicted, usize::from(day >= 6));
            if miner.len() >= 3 {
                let start = history.len().saturating_sub(6);
                let window_db =
                    SegmentedDb::from_unit_itemsets(history[start..].to_vec());
                let batch = mine_sequential(&window_db, &cfg).unwrap();
                assert_eq!(
                    *miner.current_rules().unwrap(),
                    batch.rules,
                    "after day {day}"
                );
                // The uncached rebuild must agree with the memoised view.
                assert_eq!(*miner.assemble_view().unwrap(), batch.rules);
            }
        }
        assert_eq!(miner.total_pushed(), 15);
        assert_eq!(miner.len(), 6);
    }

    #[test]
    fn repeated_queries_share_the_memoised_view() {
        let mut miner = SlidingWindowMiner::new(config(2), 4).unwrap();
        for day in 0..4 {
            miner.push_unit(&unit_for(day));
        }
        let first = miner.current_rules().unwrap();
        let second = miner.current_rules().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same epoch must share one view");
        miner.push_unit(&unit_for(4));
        let third = miner.current_rules().unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "push must invalidate the view");
    }

    #[test]
    fn escalated_query_matches_batch_at_that_confidence() {
        // Units where {1} => {2} holds at confidence 2/3: two {1,2}
        // transactions and one {1} without 2.
        let strong = vec![set(&[1, 2]), set(&[1, 2]), set(&[1, 2])];
        let weak = vec![set(&[1, 2]), set(&[1, 2]), set(&[1])];
        let cfg = config(2);
        let mut miner = SlidingWindowMiner::new(cfg, 6).unwrap();
        let mut history: Vec<Vec<ItemSet>> = Vec::new();
        for day in 0..6 {
            let unit = if day % 2 == 0 { strong.clone() } else { weak.clone() };
            history.push(unit.clone());
            miner.push_unit(&unit);
        }
        let strict = MinConfidence::new(0.9).unwrap();
        let served = miner.query_rules(Some(strict)).unwrap();
        let strict_cfg = MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.9)
            .cycle_bounds(2, 2)
            .build()
            .unwrap();
        let batch =
            mine_sequential(&SegmentedDb::from_unit_itemsets(history), &strict_cfg)
                .unwrap();
        assert_eq!(*served, batch.rules);
        // The weak units fail 0.9, so {1} => {2} should alternate -> (2, 0).
        assert!(served.iter().any(|r| r.rule.to_string() == "{1} => {2}"
            && r.cycles.iter().any(|c| (c.length(), c.offset()) == (2, 0))));
    }

    #[test]
    fn expired_deadline_aborts_escalated_query_only() {
        let mut miner = SlidingWindowMiner::new(config(2), 4).unwrap();
        for day in 0..4 {
            miner.push_unit(&unit_for(day));
        }
        let past = Instant::now() - std::time::Duration::from_millis(10);
        let strict = MinConfidence::new(0.9).unwrap();
        // Escalated path honours the deadline...
        assert!(miner.query_rules_within(Some(strict), Some(past)).unwrap().is_none());
        // ...the fast path never does (memoised view is cheaper than a
        // clock read)...
        assert!(miner.query_rules_within(None, Some(past)).unwrap().is_some());
        // ...and a generous deadline matches the undeadlined answer.
        let far = Instant::now() + std::time::Duration::from_secs(60);
        let within = miner.query_rules_within(Some(strict), Some(far)).unwrap();
        let plain = miner.query_rules(Some(strict)).unwrap();
        assert_eq!(*within.unwrap(), *plain);
    }

    #[test]
    fn pattern_drift_is_forgotten() {
        let cfg = config(2);
        let mut miner = SlidingWindowMiner::new(cfg, 4).unwrap();
        // Phase 1: alternating {1,2} pattern.
        for day in 0..8 {
            miner.push_unit(&unit_for(day));
        }
        assert!(miner
            .current_rules()
            .unwrap()
            .iter()
            .any(|r| r.rule.to_string() == "{1} => {2}"));
        // Phase 2: the pattern stops; after `window` quiet units it must
        // vanish from the results — and its online state must be dropped.
        for _ in 0..4 {
            miner.push_unit(&vec![set(&[7]); 4]);
        }
        assert!(miner
            .current_rules()
            .unwrap()
            .iter()
            .all(|r| r.rule.to_string() != "{1} => {2}"));
        // Single-item {7} units generate no rules, so once the pattern
        // units slide out the online state must be fully reclaimed.
        assert_eq!(miner.tracked_rules(), 0);
    }

    #[test]
    fn item_supports_track_the_retained_window() {
        let mut miner = SlidingWindowMiner::new(config(2), 4).unwrap();
        for day in 0..4 {
            miner.push_unit(&unit_for(day));
        }
        // Two {1,2} units (4 tx each) and two {7} units retained.
        assert_eq!(miner.item_supports(), vec![(1, 8), (2, 8), (7, 8)]);
        // Slide the {1,2} pattern out entirely.
        for _ in 0..4 {
            miner.push_unit(&vec![set(&[7]); 4]);
        }
        assert_eq!(miner.item_supports(), vec![(7, 16)]);
    }

    /// Lengths 2..=16 at count support 2: the shape of the daemon's
    /// default bounds.
    fn wide_config() -> MiningConfig {
        MiningConfig::builder()
            .min_support_count(2)
            .min_confidence(0.5)
            .cycle_bounds(2, 16)
            .build()
            .unwrap()
    }

    /// Overlapping planted patterns with periods 2, 3, 7 and 16, so rule
    /// sequences both keep and break cycles as the window slides.
    fn cyclic_unit(day: usize) -> Vec<ItemSet> {
        let mut unit = vec![set(&[9])];
        for (period, offset, items) in
            [(2, 0, [1, 2]), (3, 1, [3, 4]), (16, 5, [5, 6]), (7, 2, [1, 5])]
        {
            if day % period == offset {
                unit.push(set(&items));
                unit.push(set(&items));
            }
        }
        unit
    }

    #[test]
    fn window_64_matches_batch_and_the_elimination_oracle_as_rings_wrap() {
        // 150 pushes through a 64-unit window wrap the 128-position ring
        // more than once; the arriving and the evicted unit (64 apart)
        // must never share a ring bit. Every view must equal batch
        // mining, and its eliminations must be Σ (num_cycles − live)
        // over every tracked rule, live cycles taken from batch
        // detection of the rule's retained sequence.
        let cfg = wide_config();
        let bounds = cfg.cycle_bounds;
        let mut miner = SlidingWindowMiner::new(cfg, 64).unwrap();
        let history: Vec<Vec<ItemSet>> = (0..150).map(cyclic_unit).collect();
        for (day, unit) in history.iter().enumerate() {
            miner.push_unit(unit);
            let n = miner.len();
            if n < 16 {
                continue;
            }
            let window_db =
                SegmentedDb::from_unit_itemsets(history[day + 1 - n..=day].to_vec());
            let batch = mine_sequential(&window_db, &cfg).unwrap();
            let (rules, eliminated) = miner.assemble_counted();
            assert_eq!(rules, batch.rules, "after day {day}");
            let mut sequences: FastHashMap<&Rule, BitSeq> = FastHashMap::default();
            for (u, rules) in miner.unit_rules.iter().enumerate() {
                for held in rules {
                    sequences
                        .entry(&held.rule)
                        .or_insert_with(|| BitSeq::zeros(n))
                        .set(u, true);
                }
            }
            assert_eq!(sequences.len(), miner.tracked_rules(), "day {day}");
            let oracle: u64 = sequences
                .values()
                .map(|seq| {
                    let live = car_cycles::detect_cycles(seq, bounds).len();
                    (bounds.num_cycles() - live) as u64
                })
                .sum();
            assert_eq!(eliminated, oracle, "day {day}");
        }
        let served = miner.current_rules().unwrap();
        assert!(served.iter().any(|r| r.rule.to_string() == "{1} => {2}"));
        assert!(served.iter().any(|r| r.rule.to_string() == "{5} => {6}"));
    }

    #[test]
    fn too_few_units_is_an_error() {
        let miner = SlidingWindowMiner::new(config(3), 5).unwrap();
        assert!(miner.current_rules().is_err());
        assert!(miner.is_empty());
    }
}
