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
//! tid-bitmaps, into one flat buffer, and folds every large itemset into
//! that itemset's [`OnlineCycles`] ring: the itemset's binary sequence
//! over the retained units, one bit per unit at position `abs_unit mod
//! C` with `C ≥ window + 1`, plus its support count at each hold. An
//! itemset absent from the unit is not visited — its unset bit *is* the
//! miss. Eviction clears the evicted unit's holds, which is what revives
//! a cycle an old miss had killed, and an itemset whose ring empties is
//! dropped. No rule is generated at push time.
//!
//! Each tracked itemset is stored once, in a slot of an arena beside
//! its ring, under a dense `u32` id; the ids of dropped itemsets are
//! recycled. An index from the itemset's 64-bit hash to the first slot
//! of the chain of itemsets with that hash finds an itemset's id
//! without a second copy of it, so the fold looks a mined slice up
//! where it lies and copies it into an [`ItemSet`] only when it starts
//! tracking it. Each retained unit keeps the ids of its large itemsets,
//! so an eviction indexes the arena and hashes only the itemsets it
//! drops.
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
//! batch keeps are pushed in order on the calling thread.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use car_apriori::hash::{FastHashMap, FxHasher};
use car_apriori::{apriori_gen, eclat, FlatItemsets, MinConfidence, Rule};
use car_cycles::{minimal_cycles, CycleMasks, CycleSet, OnlineCycles};
use car_itemset::{Item, ItemSet};

use crate::config::{ConfigError, MiningConfig};
use crate::result::{CyclicRule, RuleView};

/// How often (in itemsets visited) an escalated assembly re-reads the
/// clock against its deadline. Coarse on purpose: a clock read per
/// itemset would dominate the popcount that settles most of them. Must
/// stay a power of two — the check masks rather than divides.
const DEADLINE_CHECK_ITEMSETS: usize = 1024;

/// A tracked itemset with its online state.
struct Slot {
    itemset: ItemSet,
    state: OnlineCycles,
    /// The next slot whose itemset has the same hash.
    next: Option<u32>,
}

/// The window's tracked itemsets, each stored once under a dense id: an
/// arena of slots indexed by id, the ids of dropped itemsets for reuse,
/// and an index from an itemset's hash to the first slot of the chain
/// of itemsets with that hash. The index keys on the hash alone, so it
/// holds no second copy of an itemset. The hash is 32 bits, which
/// halves the index's entries; tens of thousands of itemsets share one
/// rarely, so a chain is almost always one slot long. Callers hash an
/// itemset's items once ([`ItemsetArena::hash`]) and pass the hash
/// along.
#[derive(Default)]
struct ItemsetArena {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    index: FastHashMap<u32, u32>,
}

impl ItemsetArena {
    /// The high half of the Fx hash of an itemset's items, the
    /// better-mixed one. An [`ItemSet`] hashes as its item slice, so a
    /// mined slice and the tracked itemset share this hash.
    fn hash(items: &[Item]) -> u32 {
        (BuildHasherDefault::<FxHasher>::default().hash_one(items) >> 32) as u32
    }

    /// Tracked itemsets.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn get(&self, id: u32) -> Option<&Slot> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut Slot> {
        self.slots.get_mut(id as usize).and_then(Option::as_mut)
    }

    /// The tracked itemsets, in id order.
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().flatten()
    }

    /// The id of the itemset of `items`, whose hash is `hash`, if it is
    /// tracked.
    fn find(&self, hash: u32, items: &[Item]) -> Option<u32> {
        let mut next = self.index.get(&hash).copied();
        while let Some(id) = next {
            let slot = self.get(id)?;
            if slot.itemset.as_slice() == items {
                return Some(id);
            }
            next = slot.next;
        }
        None
    }

    /// The online state of `itemset`, if it is tracked.
    fn state_of(&self, itemset: &ItemSet) -> Option<&OnlineCycles> {
        let id = self.find(Self::hash(itemset), itemset)?;
        self.get(id).map(|slot| &slot.state)
    }

    /// Tracks `itemset`, which is not tracked yet and whose hash is
    /// `hash`, with `state`, at the head of its hash chain. Returns its
    /// id, a dropped itemset's if one is free, or `None` once `u32` ids
    /// run out (2³² slots of 64 bytes: more memory than a host has).
    fn insert(
        &mut self,
        hash: u32,
        itemset: ItemSet,
        state: OnlineCycles,
    ) -> Option<u32> {
        let next = self.index.get(&hash).copied();
        let slot = Some(Slot { itemset, state, next });
        let id = match self.free.pop() {
            Some(id) => {
                *self.slots.get_mut(id as usize)? = slot;
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).ok()?;
                self.slots.push(slot);
                id
            }
        };
        self.index.insert(hash, id);
        Some(id)
    }

    /// Stops tracking the itemset with id `id` and hash `hash`: unlinks
    /// its slot from the hash chain and frees the id for reuse.
    fn remove(&mut self, hash: u32, id: u32) -> Option<Slot> {
        let next = self.get(id)?.next;
        let head = self.index.get(&hash).copied()?;
        if head == id {
            match next {
                Some(next) => self.index.insert(hash, next),
                None => self.index.remove(&hash),
            };
        } else {
            let mut prev = head;
            loop {
                let slot = self.get_mut(prev)?;
                if slot.next == Some(id) {
                    slot.next = next;
                    break;
                }
                prev = slot.next?;
            }
        }
        let slot = self.slots.get_mut(id as usize)?.take();
        self.free.push(id);
        slot
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
    }
}

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
    /// Per retained unit (oldest first): the ids of the itemsets large
    /// there, whose rings hold the unit until it is evicted.
    unit_itemsets: VecDeque<Vec<u32>>,
    /// Per tracked itemset: its ring of retained holds, with the support
    /// count of each, in absolute unit coordinates; itemsets with no
    /// retained hold are removed.
    tracked: ItemsetArena,
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
    /// `(itemset, unit)` holds folded into the online state so far.
    online_holds: u64,
    /// Candidate cycles found dead at default-view assembly so far; an
    /// atomic because assembly runs under `&self`.
    online_eliminations: AtomicU64,
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
            tracked: ItemsetArena::default(),
            item_totals: BTreeMap::new(),
            view: Mutex::new(ViewMemo::default()),
            total_pushed: 0,
            online_holds: 0,
            online_eliminations: AtomicU64::new(0),
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
        self.tracked.len()
    }

    /// `(itemset, unit)` hold entries folded into online cycle state by
    /// this miner's pushes — the work the query fast path amortises
    /// away. A batch folds, and counts, only the units it keeps.
    pub fn online_holds(&self) -> u64 {
        self.online_holds
    }

    /// Candidate cycles of tracked itemsets this miner found dead while
    /// assembling default views, `num_cycles − live` per itemset. The
    /// online path never eliminates eagerly — absent itemsets are not
    /// visited at push time — so this is observed at view assembly:
    /// once per window epoch through the memoised view, and again by
    /// every [`assemble_view`](Self::assemble_view). An escalated query
    /// never counts.
    pub fn online_eliminations(&self) -> u64 {
        self.online_eliminations.load(Ordering::Relaxed)
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
        let mined = Self::mine(&self.config, transactions);
        self.push_mined(mined)
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
    /// kept are pushed in order on the calling thread.
    pub fn push_units(&mut self, units: &[Vec<ItemSet>]) -> usize {
        let before = self.len() + units.len();
        let skip = units.len().saturating_sub(self.window);
        if units.len() >= self.window {
            self.unit_itemsets.clear();
            self.tracked.clear();
            self.item_totals.clear();
            self.total_pushed += skip as u64;
        }
        for unit in units.get(skip..).unwrap_or_default() {
            self.push_mined(Self::mine(&self.config, unit));
        }
        before - self.len()
    }

    /// The first half of a push: every large itemset of the unit, with
    /// its count, in one flat buffer. It reads only the configuration,
    /// not the window, so the daemon runs it outside the miner lock.
    pub fn mine(config: &MiningConfig, transactions: &[ItemSet]) -> FlatItemsets {
        let _span = car_obs::time_span!("window.mine");
        eclat(transactions, config.min_support, config.max_itemset_size)
    }

    /// The second half of a push: folds a unit mined by
    /// [`mine`](Self::mine) into the online state as the newest unit,
    /// evicting the oldest once the window is full. Returns the number of
    /// units evicted (0 or 1). `mined` must come from `mine` with this
    /// miner's configuration: with any other the window no longer equals
    /// batch-mining its units.
    pub fn push_mined(&mut self, mined: FlatItemsets) -> usize {
        let _span = car_obs::time_span!("window.fold");
        // Fold this unit's large itemsets into the online cycle state:
        // one bit and one count per itemset. Itemsets absent from the
        // unit need no visit — their unset bit *is* the miss (see
        // `OnlineCycles`). The new unit is recorded before the oldest is
        // evicted, which is why rings hold `window + 1` positions. Only
        // an itemset not tracked yet is copied out of the buffer.
        let abs_unit = self.total_pushed;
        let mut held = Vec::with_capacity(mined.len());
        for (items, count) in mined.iter() {
            let hash = ItemsetArena::hash(items);
            let id = self.tracked.find(hash, items).or_else(|| {
                let itemset = ItemSet::from_sorted_vec(items.to_vec());
                self.tracked.insert(hash, itemset, OnlineCycles::new(self.window))
            });
            let Some(id) = id else { continue };
            let Some(slot) = self.tracked.get_mut(id) else { continue };
            slot.state.record_hold(abs_unit, count);
            if let [item] = slot.itemset.as_slice() {
                let total = self.item_totals.entry(item.id()).or_default();
                *total = total.saturating_add(count);
            }
            held.push(id);
        }
        self.online_holds += held.len() as u64;
        self.unit_itemsets.push_back(held);
        self.total_pushed += 1;
        let evicted = if self.unit_itemsets.len() > self.window {
            // The evicted unit's absolute index: the retained range
            // before popping is `(abs_unit - window) ..= abs_unit`.
            let abs_evicted = abs_unit - self.window as u64;
            for id in self.unit_itemsets.pop_front().unwrap_or_default() {
                let Some(slot) = self.tracked.get_mut(id) else { continue };
                let count = slot.state.record_evict(abs_evicted).unwrap_or(0);
                let emptied = slot.state.is_empty();
                if let [item] = slot.itemset.as_slice() {
                    if emptied {
                        self.item_totals.remove(&item.id());
                    } else if let Some(total) = self.item_totals.get_mut(&item.id()) {
                        *total = total.saturating_sub(count);
                    }
                }
                if emptied {
                    let hash = ItemsetArena::hash(&slot.itemset);
                    self.tracked.remove(hash, id);
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
    /// miss. Only this view adds its eliminations to
    /// [`online_eliminations`](Self::online_eliminations): whether an
    /// itemset has a live cycle does not depend on the confidence, so an
    /// escalated view would count them again.
    fn assemble_default(&self) -> Vec<CyclicRule> {
        let Some((out, eliminated)) =
            self.assemble_counted(self.config.min_confidence, None)
        else {
            return Vec::new();
        };
        if eliminated > 0 {
            self.online_eliminations.fetch_add(eliminated, Ordering::Relaxed);
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
        for (visited, slot) in self.tracked.iter().enumerate() {
            let check = visited & (DEADLINE_CHECK_ITEMSETS - 1) == 0;
            if check && deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            let live = masks.live_cycles(&slot.state);
            let survivors = live.as_ref().map_or(0, CycleSet::len) as u64;
            eliminated = eliminated.saturating_add(candidates.saturating_sub(survivors));
            if live.is_some() && slot.itemset.len() >= 2 {
                self.rules_of(&slot.itemset, &slot.state, &masks, q, &mut out);
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
        let Some(x_state) = self.tracked.state_of(&antecedent) else {
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
    use std::collections::BTreeSet;

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
        let tracked = || miner.tracked.iter().map(|slot| &slot.itemset);
        assert!(tracked().all(|s| !s.contains(one) && !s.contains(two)));
        assert_eq!(tracked().collect::<Vec<_>>(), vec![&set(&[7])]);
        assert_eq!(miner.tracked_rules(), 1);
    }

    #[test]
    fn only_the_default_view_counts_online_eliminations() {
        let mut miner = SlidingWindowMiner::new(config(4), 8).unwrap();
        // {1, 2} in even units and {7} in odd ones: 3 holds, then 1.
        for day in 0..8 {
            miner.push_unit(&unit_for(day));
        }
        assert_eq!(miner.online_holds(), 4 * 3 + 4);
        assert_eq!(miner.online_eliminations(), 0);
        // Each of the four tracked itemsets {1}, {2}, {1, 2} and {7}
        // keeps 3 of the 9 cycles at lengths 2..4: (2, 0), (4, 0), (4, 2)
        // or (2, 1), (4, 1), (4, 3).
        drop(miner.current_rules().unwrap());
        let first = miner.online_eliminations();
        assert_eq!(first, 4 * (9 - 3));
        // The memoised view is not assembled again.
        drop(miner.current_rules().unwrap());
        assert_eq!(miner.online_eliminations(), first);
        // An escalated query assembles at its own confidence, uncounted.
        let strict = MinConfidence::new(0.9).unwrap();
        drop(miner.query_rules(Some(strict)).unwrap());
        assert_eq!(miner.online_eliminations(), first);
        // The uncached default assembly counts the same eliminations again.
        drop(miner.assemble_view().unwrap());
        assert_eq!(miner.online_eliminations(), 2 * first);
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
                for (itemset, _) in apriori.mine(unit).iter() {
                    sequences
                        .entry(ItemSet::from_sorted_vec(itemset.to_vec()))
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

    /// A unit whose itemsets mostly live a few units: {1, 2} in even
    /// units, and in every unit a triple that moves up by one item per
    /// unit, so its items are large in three consecutive units, its
    /// pairs in two and the triple in one.
    fn drifting_unit(day: usize) -> Vec<ItemSet> {
        let first = 100 + day as u32;
        let mut unit = vec![set(&[first, first + 1, first + 2]); 4];
        if day % 2 == 0 {
            unit.extend(vec![set(&[1, 2]); 4]);
        }
        unit
    }

    #[test]
    fn dropped_itemsets_free_their_ids_for_reuse() {
        let cfg = config(4);
        let window = 8;
        let mut miner = SlidingWindowMiner::new(cfg, window).unwrap();
        let history: Vec<Vec<ItemSet>> = (0..520).map(drifting_unit).collect();
        let mined: Vec<Vec<ItemSet>> = history
            .iter()
            .map(|unit| {
                let mined = SlidingWindowMiner::mine(&cfg, unit);
                mined.iter().map(|(s, _)| ItemSet::from_sorted_vec(s.to_vec())).collect()
            })
            .collect();
        let mut peak = 0;
        for (day, unit) in history.iter().enumerate() {
            miner.push_unit(unit);
            // A push tracks the itemsets of the `window + 1` units ending
            // at it between its fold and its eviction.
            let at_once = mined[day.saturating_sub(window)..=day]
                .iter()
                .flatten()
                .collect::<BTreeSet<_>>()
                .len();
            peak = peak.max(at_once);
            let arena = &miner.tracked;
            assert!(arena.slots.len() <= peak, "day {day}: {} slots", arena.slots.len());
            assert_eq!(miner.tracked_rules(), arena.iter().count(), "day {day}");
            // The index finds every tracked itemset under its own id.
            for (id, slot) in arena.slots.iter().enumerate() {
                let Some(slot) = slot else { continue };
                let hash = ItemsetArena::hash(&slot.itemset);
                assert_eq!(arena.find(hash, &slot.itemset), Some(id as u32), "day {day}");
            }
            if day % 50 == 49 {
                let retained = &history[day + 1 - miner.len()..=day];
                let window_db = SegmentedDb::from_unit_itemsets(retained.to_vec());
                let batch = mine_sequential(&window_db, &cfg).unwrap();
                let served = miner.current_rules().unwrap();
                assert_eq!(*served, batch.rules, "after day {day}");
                assert!(served.iter().any(|r| r.rule.to_string() == "{1} => {2}"));
            }
        }
        let distinct: BTreeSet<&ItemSet> = mined.iter().flatten().collect();
        assert!(distinct.len() > 20 * peak, "{} itemsets, peak {peak}", distinct.len());
    }

    #[test]
    fn hash_chains_find_insert_and_unlink_at_every_position() {
        let mut arena = ItemsetArena::default();
        let state = || OnlineCycles::new(4);
        // Four itemsets forced onto one hash. Each insert becomes the
        // head of the chain, so it runs d, c, b, a.
        let [a, b, c, d] = [set(&[1]), set(&[2]), set(&[1, 2]), set(&[3])];
        let ids: Vec<u32> = [&a, &b, &c, &d]
            .map(|s| arena.insert(7, s.clone(), state()).unwrap())
            .to_vec();
        assert_eq!(ids, [0, 1, 2, 3]);
        let e = set(&[4]);
        assert_eq!(arena.insert(8, e.clone(), state()), Some(4));
        for (s, &id) in [&a, &b, &c, &d].into_iter().zip(&ids) {
            assert_eq!(arena.find(7, s), Some(id));
        }
        assert_eq!(arena.find(7, &e), None, "e is not on hash 7's chain");
        assert_eq!(arena.find(8, &e), Some(4));
        assert_eq!(arena.find(7, &set(&[9])), None);
        assert_eq!(arena.len(), 5);
        // Unlink the middle (b), then the head (d), then the tail (a).
        for (gone, id) in [(&b, 1), (&d, 3), (&a, 0)] {
            assert_eq!(arena.remove(7, id).map(|slot| slot.itemset).as_ref(), Some(gone));
            assert_eq!(arena.find(7, gone), None);
            assert_eq!(arena.find(7, &c), Some(2), "after unlinking {gone:?}");
        }
        assert_eq!(arena.len(), 2);
        // Removing a freed id, or an id off the hash's chain, changes
        // nothing.
        assert!(arena.remove(7, 1).is_none());
        assert!(arena.remove(7, 4).is_none());
        assert!(arena.remove(9, 4).is_none());
        assert_eq!(arena.find(8, &e), Some(4));
        // The last id freed is reused first, and the arena does not grow.
        let f = set(&[5]);
        assert_eq!(arena.insert(7, f.clone(), state()), Some(0));
        assert_eq!(arena.find(7, &f), Some(0));
        assert_eq!(arena.find(7, &c), Some(2));
        assert_eq!((arena.slots.len(), arena.len()), (5, 3));
        // A chain that empties leaves the index.
        assert!(arena.remove(7, 2).is_some() && arena.remove(7, 0).is_some());
        assert!(!arena.index.contains_key(&7));
        assert_eq!(arena.index.len(), 1);
        assert_eq!(arena.iter().map(|slot| &slot.itemset).collect::<Vec<_>>(), [&e]);
    }

    #[test]
    fn too_few_units_is_an_error() {
        let miner = SlidingWindowMiner::new(config(3), 5).unwrap();
        assert!(miner.current_rules().is_err());
        assert!(miner.is_empty());
    }
}
