//! Sliding-window cyclic rule mining.
//!
//! [`SlidingWindowMiner`] keeps the most recent `window` time units:
//! each arriving unit is mined at most once, units older than the
//! window are evicted, and queries see a database of exactly the
//! retained units, re-indexed so the oldest retained unit is unit 0.
//! Long-running streams want a bounded window, because cyclic behaviour
//! itself drifts (last year's weekly pattern may be gone); a history of
//! known length gets a window that long, which never evicts.
//!
//! # Online state: itemsets, not rules
//!
//! A push mines the unit with [`eclat`], depth-first over the unit's
//! tid-bitmaps, and folds every large itemset into that itemset's
//! [`OnlineCycles`] ring: the itemset's binary sequence over the
//! retained units, one bit per unit at position `abs_unit mod C` with
//! `C ≥ window + 1`, plus its support count at each hold. An itemset
//! absent from the unit is not visited — its unset bit *is* the miss.
//! Eviction clears the evicted unit's holds, which is what revives a
//! cycle an old miss had killed, and an itemset whose ring empties is
//! dropped. No rule is generated at push time.
//!
//! The fold needs every large itemset of the unit with its count, and
//! nothing else. Apriori's levels exist so that INTERLEAVED can prune
//! candidates by cycle between them; one unit has no cycles to prune
//! by, so the push skips candidate generation altogether and ignores
//! [`MiningConfig::counting`]. It honours `max_itemset_size`.
//!
//! # Assembly at a confidence `q`
//!
//! Rules are derived when a view is assembled. The assembly builds the
//! window's `(l, o)` [`CycleMasks`] once and tests every itemset's ring
//! against them with AND-compares (the paper's cycle elimination: a
//! cycle survives iff no retained unit on it is a miss). A rule holds
//! only where its itemset `Z` is large, so its cycles are a subset of
//! `Z`'s, and an itemset with no live cycle yields no cyclic rule — the
//! argument INTERLEAVED uses to skip rule generation. For each `Z` of
//! two or more items with a live cycle, consequents `Y` grow level-wise
//! as in `generate_rules`. The rule `Z \ Y ⇒ Y` holds at the units of
//! `Z`'s ring where `count(Z) / count(Z \ Y)` meets `q`, and its cycles
//! are the masks that ring covers. A larger consequent leaves a smaller
//! antecedent, whose count is at least as large at every unit, so
//! confidence can only fall as `Y` grows: a consequent whose rule has no
//! live cycle prunes all its supersets.
//!
//! The same assembly serves both kinds of query. At the mining
//! threshold ([`query_rules`](SlidingWindowMiner::query_rules) with
//! `None`) its result is memoised as a shared [`RuleView`] and handed
//! out by `Arc` clone until the next push invalidates it. An escalated
//! query (`Some(q)` above the threshold) runs it at `q`, under an
//! optional deadline.
//!
//! Results are identical to batch-mining the retained units
//! (equivalence property-tested), with per-unit mining work paid once
//! per unit: eviction never re-mines, because the rings keep the counts
//! that confidence is computed from. A batch
//! ([`push_units`](SlidingWindowMiner::push_units), which boot recovery
//! uses) never pays it for a unit the batch itself evicts: such a unit
//! is counted as pushed and evicted but never mined, and the units the
//! batch keeps are mined on a helper thread ahead of the fold.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use car_apriori::hash::FastHashMap;
use car_apriori::{apriori_gen, eclat, FrequentItemsets, MinConfidence, Rule};
use car_cycles::{minimal_cycles, CycleMasks, CycleSet, OnlineCycles};
use car_itemset::ItemSet;

use crate::config::{ConfigError, MiningConfig};
use crate::parallel::join_all;
use crate::result::{CyclicRule, RuleView};

/// How often (in itemsets visited) an escalated assembly re-reads the
/// clock against its deadline. Coarse on purpose: a clock read per
/// itemset would dominate the popcount that settles most of them. Must
/// stay a power of two — the check masks rather than divides.
const DEADLINE_CHECK_ITEMSETS: usize = 1024;

/// Mined units a batch's helper thread may run ahead of the fold. A
/// fold costs about as much as mining the unit, so a short queue keeps
/// both threads busy while bounding the itemsets held in flight.
const MINE_AHEAD_UNITS: usize = 4;

/// The memoised default view and the rule count of the last one
/// assembled, which outlives the view so a metrics scrape can report it
/// without assembling.
#[derive(Default)]
struct ViewMemo {
    current: Option<RuleView>,
    last_rules: Option<usize>,
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
    window: usize,
    /// Per retained unit (oldest first): the itemsets large there, whose
    /// rings hold the unit until it is evicted.
    unit_itemsets: VecDeque<Vec<ItemSet>>,
    /// Per-itemset ring of retained holds, with the support count of
    /// each, in absolute unit coordinates; itemsets with no retained
    /// hold are removed.
    online: FastHashMap<ItemSet, OnlineCycles>,
    /// Per tracked 1-itemset, by item id: its support summed over its
    /// retained holds, kept as holds arrive and leave so that
    /// `item_supports` reads the frequent items instead of scanning
    /// every tracked itemset.
    item_totals: BTreeMap<u32, u64>,
    /// Memoised `query_rules(None)` view, cleared by every push, and the
    /// rule count of the last one assembled. A `Mutex` (not `RwLock`)
    /// because fills are rare and reads clone an `Arc` in nanoseconds.
    view: Mutex<ViewMemo>,
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
        Ok(SlidingWindowMiner {
            config,
            window,
            unit_itemsets: VecDeque::with_capacity(window + 1),
            online: FastHashMap::default(),
            item_totals: BTreeMap::new(),
            view: Mutex::new(ViewMemo::default()),
            total_pushed: 0,
        })
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of units currently retained (`≤ window`).
    pub fn len(&self) -> usize {
        self.unit_itemsets.len()
    }

    /// Whether no units have been retained yet.
    pub fn is_empty(&self) -> bool {
        self.unit_itemsets.is_empty()
    }

    /// Total units ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Units evicted from the window so far.
    pub fn evictions(&self) -> u64 {
        self.total_pushed - self.unit_itemsets.len() as u64
    }

    /// Total `(itemset, unit)` hold entries currently retained — the
    /// working-set size a serving layer reports as a gauge. The online
    /// state is kept per itemset, so these are itemset holds; the name
    /// is older than that.
    pub fn retained_rule_entries(&self) -> usize {
        self.unit_itemsets.iter().map(Vec::len).sum()
    }

    /// Distinct itemsets with online cycle state (large in ≥ 1 retained
    /// unit), from which every served rule is derived. The name is older
    /// than the per-itemset state.
    pub fn tracked_rules(&self) -> usize {
        self.online.len()
    }

    /// Aggregated support counts of the frequent single items across
    /// the retained window, sorted by item id: each tracked 1-itemset's
    /// counts summed over its retained holds. Items infrequent in a unit
    /// contribute nothing for that unit (mirroring what the per-unit
    /// miner retains). This is the compact summary a shard worker
    /// exposes for the router's cluster-wide item merge: shards
    /// partition the *transaction* space per unit, so per-item sums
    /// concatenate exactly.
    pub fn item_supports(&self) -> Vec<(u32, u64)> {
        self.item_totals.iter().map(|(&item, &total)| (item, total)).collect()
    }

    /// Ingests the next unit, evicting the oldest once the window is
    /// full. Returns the number of units evicted (0 or 1).
    ///
    /// This is [`push_mined`](Self::push_mined) of [`mine`](Self::mine).
    /// A caller that can mine the unit before it may fold it, as the
    /// daemon's ingest worker does while the unit's log append syncs,
    /// calls the two halves itself and holds `&mut self` for the fold
    /// alone.
    pub fn push_unit(&mut self, transactions: &[ItemSet]) -> usize {
        let _span = car_obs::time_span!("window.push_unit");
        let frequent = Self::mine(&self.config, transactions);
        self.push_mined(frequent)
    }

    /// Ingests `units` in order, with the same result as pushing them
    /// one at a time: rules at every confidence, item supports, tracked
    /// itemsets, [`len`](Self::len), [`total_pushed`](Self::total_pushed)
    /// and [`evictions`](Self::evictions). Returns the number of units
    /// the batch evicted.
    ///
    /// A batch at least as long as the window evicts every unit retained
    /// before it, and its own leading `len − window` units: their state
    /// is dropped at once and those units are never mined. The units
    /// kept are mined on one helper thread, ahead of the in-order fold
    /// on the calling thread; a batch of fewer than two, or a failed
    /// spawn, mines in-thread. A panic in the helper is re-raised here
    /// once it has stopped.
    pub fn push_units(&mut self, units: &[Vec<ItemSet>]) -> usize {
        let before = self.len() + units.len();
        let skip = units.len().saturating_sub(self.window);
        if units.len() >= self.window {
            self.unit_itemsets.clear();
            self.online.clear();
            self.item_totals.clear();
            self.total_pushed += skip as u64;
        }
        let kept = units.get(skip..).unwrap_or_default();
        let config = self.config;
        std::thread::scope(|scope| {
            let (mined, ready) = std::sync::mpsc::sync_channel(MINE_AHEAD_UNITS);
            let helper = if kept.len() < 2 {
                None
            } else {
                let mine_ahead = move || {
                    for unit in kept {
                        // A closed channel means the fold unwound.
                        if mined.send(Self::mine(&config, unit)).is_err() {
                            return;
                        }
                    }
                };
                let builder = std::thread::Builder::new().name("car-window-mine".into());
                builder.spawn_scoped(scope, mine_ahead).ok()
            };
            match helper {
                Some(helper) => {
                    for frequent in ready {
                        self.push_mined(frequent);
                    }
                    join_all(vec![helper]);
                }
                None => {
                    for unit in kept {
                        self.push_mined(Self::mine(&config, unit));
                    }
                }
            }
        });
        before - self.len()
    }

    /// The first half of a push: every large itemset of the unit, with
    /// its count. It reads only the configuration, not the window, so a
    /// batch runs it on a helper thread and the daemon runs it outside
    /// the miner lock.
    pub fn mine(config: &MiningConfig, transactions: &[ItemSet]) -> FrequentItemsets {
        let _span = car_obs::time_span!("window.mine");
        eclat(transactions, config.min_support, config.max_itemset_size)
    }

    /// The second half of a push: folds a unit mined by
    /// [`mine`](Self::mine) into the online state as the newest unit,
    /// evicting the oldest once the window is full. Returns the number of
    /// units evicted (0 or 1). `frequent` must come from `mine` with this
    /// miner's configuration: with any other the window no longer equals
    /// batch-mining its units.
    pub fn push_mined(&mut self, frequent: FrequentItemsets) -> usize {
        let _span = car_obs::time_span!("window.fold");
        // Fold this unit's large itemsets into the online cycle state:
        // one bit and one count per itemset. Itemsets absent from the
        // unit need no visit — their unset bit *is* the miss (see
        // `OnlineCycles`). The new unit is recorded before the oldest is
        // evicted, which is why rings hold `window + 1` positions.
        let abs_unit = self.total_pushed;
        let mut held = Vec::with_capacity(frequent.len());
        for (itemset, count) in frequent {
            if let [item] = itemset.as_slice() {
                let total = self.item_totals.entry(item.id()).or_default();
                *total = total.saturating_add(count);
            }
            match self.online.get_mut(&itemset) {
                Some(state) => state.record_hold(abs_unit, count),
                None => {
                    let mut state = OnlineCycles::new(self.window);
                    state.record_hold(abs_unit, count);
                    self.online.insert(itemset.clone(), state);
                }
            }
            held.push(itemset);
        }
        car_obs::counters::MINE.add_online_holds(held.len() as u64);
        self.unit_itemsets.push_back(held);
        self.total_pushed += 1;
        let evicted = if self.unit_itemsets.len() > self.window {
            // The evicted unit's absolute index: the retained range
            // before popping is `(abs_unit - window) ..= abs_unit`.
            let abs_evicted = abs_unit - self.window as u64;
            if let Some(old) = self.unit_itemsets.pop_front() {
                for itemset in &old {
                    let Some(state) = self.online.get_mut(itemset) else { continue };
                    let count = state.record_evict(abs_evicted).unwrap_or(0);
                    let emptied = state.is_empty();
                    if emptied {
                        self.online.remove(itemset);
                    }
                    if let [item] = itemset.as_slice() {
                        if emptied {
                            self.item_totals.remove(&item.id());
                        } else if let Some(total) = self.item_totals.get_mut(&item.id()) {
                            *total = total.saturating_sub(count);
                        }
                    }
                }
            }
            1
        } else {
            0
        };
        self.view_slot().current = None;
        evicted
    }

    /// The rule count of the last default view assembled: the view
    /// memoised for the current epoch when no unit has been pushed since,
    /// else the latest before it. `None` before the first assembly. It
    /// never assembles a view, so a metrics scrape may read it without
    /// doing the first query's work under the miner lock.
    pub fn last_view_rule_count(&self) -> Option<usize> {
        self.view_slot().last_rules
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
    /// no-op, since rules below the mining threshold are never served),
    /// this is a clone of the memoised [`RuleView`], costing an `Arc`
    /// bump after the first query per ingest. With `Some(q)` above the
    /// threshold the same assembly runs at `q`: the itemset rings keep
    /// the support counts, so each rule's holds are re-derived under the
    /// stricter confidence — identical to batch-mining the retained
    /// window at confidence `q`.
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
    /// escalated path. Returns `Ok(None)` when the deadline expired
    /// before the view was assembled — the serving tier answers `504
    /// deadline_exceeded` — and `Ok(Some(view))` otherwise. The
    /// memoised default view never checks the deadline: an `Arc` clone
    /// is cheaper than reading the clock.
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
            Some(q) => {
                let _span = car_obs::time_span!("window.query_rules.escalated");
                self.config.validate_for(self.len())?;
                Ok(self.assemble_counted(q, deadline).map(|(rules, _)| Arc::new(rules)))
            }
        }
    }

    /// Default confidence: the memoised view.
    fn query_fast(&self) -> Result<RuleView, ConfigError> {
        let _span = car_obs::time_span!("window.query_rules.fast");
        self.config.validate_for(self.len())?;
        let mut slot = self.view_slot();
        if let Some(view) = slot.current.as_ref() {
            return Ok(Arc::clone(view));
        }
        let view: RuleView = Arc::new(self.assemble_default());
        slot.last_rules = Some(view.len());
        slot.current = Some(Arc::clone(&view));
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
        self.config.validate_for(self.len())?;
        Ok(Arc::new(self.assemble_default()))
    }

    /// The assembly at the mining threshold, which has no deadline to
    /// miss. Only this view flushes its eliminations into the online
    /// counter: whether an itemset has a live cycle does not depend on
    /// the confidence, so an escalated view would count them again.
    fn assemble_default(&self) -> Vec<CyclicRule> {
        let Some((out, eliminated)) =
            self.assemble_counted(self.config.min_confidence, None)
        else {
            return Vec::new();
        };
        if eliminated > 0 {
            car_obs::counters::MINE.add_online_eliminations(eliminated);
        }
        out
    }

    /// The window's cyclic rules at confidence `q`, assembled from the
    /// online itemset rings, or `None` when `deadline` passed first,
    /// plus the candidate cycles eliminated across every tracked
    /// itemset, `Σ (num_cycles − live cycles)` — INTERLEAVED's
    /// `cycles_eliminated` counts itemset candidates the same way. The
    /// clock is read at entry and every [`DEADLINE_CHECK_ITEMSETS`]
    /// itemsets.
    fn assemble_counted(
        &self,
        q: MinConfidence,
        deadline: Option<Instant>,
    ) -> Option<(Vec<CyclicRule>, u64)> {
        let n = self.len();
        let base = self.total_pushed.saturating_sub(n as u64);
        let bounds = self.config.cycle_bounds;
        let masks = CycleMasks::new(bounds, self.window, base, n);
        let candidates = bounds.num_cycles() as u64;
        let mut eliminated: u64 = 0;
        let mut out: Vec<CyclicRule> = Vec::new();
        for (visited, (itemset, state)) in self.online.iter().enumerate() {
            let check = visited & (DEADLINE_CHECK_ITEMSETS - 1) == 0;
            if check && deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let live = masks.live_cycles(state);
            let survivors = live.as_ref().map_or(0, CycleSet::len) as u64;
            eliminated = eliminated.saturating_add(candidates.saturating_sub(survivors));
            if live.is_some() && itemset.len() >= 2 {
                self.rules_of(itemset, state, &masks, q, &mut out);
            }
        }
        out.sort();
        Some((out, eliminated))
    }

    /// Appends the cyclic rules `X ⇒ Y` with `X ∪ Y = z` at confidence
    /// `q`. Consequents grow level-wise as in `generate_rules`, and one
    /// survives to seed the next level only while its rule has a live
    /// cycle: a superset consequent's rule holds at a subset of the
    /// units, so it cannot have a cycle the smaller one's rule lacks.
    fn rules_of(
        &self,
        z: &ItemSet,
        z_state: &OnlineCycles,
        masks: &CycleMasks,
        q: MinConfidence,
        out: &mut Vec<CyclicRule>,
    ) {
        let mut consequents: Vec<ItemSet> = z.iter().map(ItemSet::single).collect();
        loop {
            consequents.retain(|y| self.push_rule(z, z_state, y, masks, q, out));
            // Stop before the consequent swallows z.
            match consequents.first() {
                Some(y) if y.len() + 1 < z.len() => {}
                _ => return,
            }
            consequents.sort_unstable();
            consequents = apriori_gen(&consequents);
        }
    }

    /// Tests the rule `z \ y ⇒ y`: its ring is `z`'s minus the units
    /// where `count(z) / count(z \ y)` fails `q`. Appends the rule when a
    /// cycle survives and returns whether one did.
    fn push_rule(
        &self,
        z: &ItemSet,
        z_state: &OnlineCycles,
        y: &ItemSet,
        masks: &CycleMasks,
        q: MinConfidence,
        out: &mut Vec<CyclicRule>,
    ) -> bool {
        let antecedent = z.difference(y);
        // A subset of z is large wherever z is, so it is always tracked.
        let Some(x_state) = self.online.get(&antecedent) else {
            return false;
        };
        let accepts = |z_count, x_count| q.accepts(z_count, x_count);
        let Some(live) = masks.live_cycles_where(z_state, x_state, accepts) else {
            return false;
        };
        out.push(CyclicRule {
            rule: Rule { antecedent, consequent: y.clone() },
            cycles: minimal_cycles(&live),
        });
        true
    }

    /// The memoised-view slot, recovering from (impossible in practice)
    /// poisoning: the view is pure derived data, so a poisoned slot is
    /// safe to reuse or overwrite.
    fn view_slot(&self) -> MutexGuard<'_, ViewMemo> {
        self.view.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::mine_sequential;
    use car_apriori::{Apriori, AprioriConfig};
    use car_cycles::BitSeq;
    use car_itemset::{Item, SegmentedDb};

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
    fn last_view_rule_count_never_assembles() {
        let mut miner = SlidingWindowMiner::new(config(2), 4).unwrap();
        for day in 0..4 {
            miner.push_unit(&unit_for(day));
        }
        assert_eq!(miner.last_view_rule_count(), None, "nothing assembled yet");
        let rules = miner.current_rules().unwrap().len();
        assert!(rules > 0);
        assert_eq!(miner.last_view_rule_count(), Some(rules));
        // A push drops the view but keeps its count until the next query.
        miner.push_unit(&unit_for(5));
        assert_eq!(miner.last_view_rule_count(), Some(rules));
        let after = miner.current_rules().unwrap().len();
        assert_eq!(miner.last_view_rule_count(), Some(after));
    }

    #[test]
    fn push_mined_of_mine_is_push_unit() {
        let cfg = config(3);
        let mut whole = SlidingWindowMiner::new(cfg, 6).unwrap();
        let mut halves = SlidingWindowMiner::new(cfg, 6).unwrap();
        for day in 0..9 {
            let unit = unit_for(day);
            let evicted = whole.push_unit(&unit);
            assert_eq!(halves.push_mined(SlidingWindowMiner::mine(&cfg, &unit)), evicted);
        }
        assert_same_window(&halves, &whole);
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
        // Once the pattern units slide out, their itemsets' state must be
        // reclaimed: {7} stays large, and nothing else is tracked.
        let (one, two) = (Item::new(1), Item::new(2));
        assert!(miner.online.keys().all(|s| !s.contains(one) && !s.contains(two)));
        assert_eq!(miner.online.keys().collect::<Vec<_>>(), vec![&set(&[7])]);
        assert_eq!(miner.tracked_rules(), 1);
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
        // over every tracked itemset, live cycles taken from batch
        // detection of the itemset's retained sequence.
        let cfg = wide_config();
        let bounds = cfg.cycle_bounds;
        let apriori = Apriori::new(AprioriConfig::new(cfg.min_support));
        let mut miner = SlidingWindowMiner::new(cfg, 64).unwrap();
        let history: Vec<Vec<ItemSet>> = (0..150).map(cyclic_unit).collect();
        for (day, unit) in history.iter().enumerate() {
            miner.push_unit(unit);
            let n = miner.len();
            if n < 16 {
                continue;
            }
            let retained = &history[day + 1 - n..=day];
            let window_db = SegmentedDb::from_unit_itemsets(retained.to_vec());
            let batch = mine_sequential(&window_db, &cfg).unwrap();
            let (rules, eliminated) =
                miner.assemble_counted(cfg.min_confidence, None).unwrap();
            assert_eq!(rules, batch.rules, "after day {day}");
            let mut sequences: FastHashMap<ItemSet, BitSeq> = FastHashMap::default();
            for (u, unit) in retained.iter().enumerate() {
                for (itemset, _) in apriori.mine(unit) {
                    sequences
                        .entry(itemset)
                        .or_insert_with(|| BitSeq::zeros(n))
                        .set(u, true);
                }
            }
            assert_eq!(sequences.len(), miner.tracked_rules(), "day {day}");
            let holds: usize = sequences.values().map(BitSeq::count_ones).sum();
            assert_eq!(holds, miner.retained_rule_entries(), "day {day}");
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

    /// Asserts that two miners fed the same units agree on everything a
    /// caller can observe.
    fn assert_same_window(batched: &SlidingWindowMiner, single: &SlidingWindowMiner) {
        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.total_pushed(), single.total_pushed());
        assert_eq!(batched.evictions(), single.evictions());
        assert_eq!(batched.tracked_rules(), single.tracked_rules());
        assert_eq!(batched.retained_rule_entries(), single.retained_rule_entries());
        assert_eq!(batched.item_supports(), single.item_supports());
        let rules = |miner: &SlidingWindowMiner| miner.current_rules().ok();
        assert_eq!(rules(batched), rules(single));
    }

    #[test]
    fn zero_and_one_unit_batches_match_single_pushes() {
        // Below two units a batch mines in-thread, with no helper.
        let mut batched = SlidingWindowMiner::new(config(2), 4).unwrap();
        let mut single = SlidingWindowMiner::new(config(2), 4).unwrap();
        assert_eq!(batched.push_units(&[]), 0);
        assert_same_window(&batched, &single);
        for day in 0..7 {
            let unit = unit_for(day);
            let evicted = single.push_unit(&unit);
            assert_eq!(batched.push_units(std::slice::from_ref(&unit)), evicted);
            assert_eq!(batched.push_units(&[]), 0);
            assert_same_window(&batched, &single);
        }
        assert_eq!(batched.evictions(), 3);
    }

    #[test]
    fn a_batch_longer_than_the_window_matches_single_pushes() {
        // A window of 16 holding 5 units takes a 40-unit batch: the 5
        // retained units and the batch's first 24 are evicted unmined.
        let mut batched = SlidingWindowMiner::new(wide_config(), 16).unwrap();
        let mut single = SlidingWindowMiner::new(wide_config(), 16).unwrap();
        let history: Vec<Vec<ItemSet>> = (0..50).map(cyclic_unit).collect();
        for (start, end, evicted) in [(0, 5, 0), (5, 45, 29), (45, 48, 3), (48, 50, 2)] {
            let batch = &history[start..end];
            let single_evicted: usize = batch.iter().map(|u| single.push_unit(u)).sum();
            assert_eq!(single_evicted, evicted);
            assert_eq!(batched.push_units(batch), evicted, "batch {start}..{end}");
            assert_same_window(&batched, &single);
        }
        let strict = MinConfidence::new(0.9).unwrap();
        let escalated = |miner: &SlidingWindowMiner| miner.query_rules(Some(strict)).ok();
        assert_eq!(escalated(&batched), escalated(&single));
        assert!(!batched.current_rules().unwrap().is_empty());
    }

    #[test]
    fn too_few_units_is_an_error() {
        let miner = SlidingWindowMiner::new(config(3), 5).unwrap();
        assert!(miner.current_rules().is_err());
        assert!(miner.is_empty());
    }
}
