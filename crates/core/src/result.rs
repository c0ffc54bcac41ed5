use std::fmt;
use std::time::Duration;

use car_apriori::Rule;
use car_cycles::Cycle;

/// A cyclic association rule: a rule together with its *minimal* cycles.
///
/// The cycles are sorted by `(length, offset)` and contain no cycle that
/// is a multiple of another — the reporting form of the ICDE'98 paper.
/// Both mining algorithms produce identical `CyclicRule` values for the
/// same input, which the equivalence tests rely on.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CyclicRule {
    /// The association rule.
    pub rule: Rule,
    /// Its minimal cycles, sorted.
    pub cycles: Vec<Cycle>,
}

impl fmt::Debug for CyclicRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for CyclicRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ ", self.rule)?;
        for (i, c) in self.cycles.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A shared, immutable snapshot of the rules over some window — what
/// [`SlidingWindowMiner::query_rules`](crate::window::SlidingWindowMiner::query_rules)
/// returns. Cloning a `RuleView` bumps a reference count; the rule data
/// itself is assembled once per window epoch and never deep-copied per
/// query.
pub type RuleView = std::sync::Arc<Vec<CyclicRule>>;

/// Work and timing counters for one mining run.
///
/// The counter semantics follow the cost model of the ICDE'98 paper:
/// `support_computations` counts `(itemset, time unit)` pairs whose
/// support was actually computed — the work cycle skipping exists to
/// avoid — while `skipped_counts` counts the pairs that the INTERLEAVED
/// optimizations let the miner *not* compute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Time units in the database.
    pub num_units: usize,
    /// Transactions in the database.
    pub num_transactions: usize,
    /// `(itemset, unit)` support computations performed.
    pub support_computations: u64,
    /// `(itemset, unit)` support computations avoided by cycle skipping.
    pub skipped_counts: u64,
    /// Time units skipped entirely at some level (no active candidate).
    pub skipped_unit_scans: u64,
    /// Units whose vertical tid-bitmaps were built: each unit is built
    /// at most once per run, the first time a level `k ≥ 2` counts in
    /// it, and every later level counts on that build, so this never
    /// exceeds `num_units`. INTERLEAVED builds the units that cycle
    /// skipping left a candidate to count at some level; SEQUENTIAL
    /// builds each unit that has a level 2, except on the hash tree
    /// (`MiningConfig::counting`), which builds none.
    pub bitmap_builds: u64,
    /// Candidate itemsets generated across all levels (after pruning).
    pub candidates_generated: u64,
    /// Candidates discarded because cycle pruning left them no cycles.
    pub candidates_pruned_by_cycles: u64,
    /// Candidate cycles removed by cycle elimination.
    pub cycles_eliminated: u64,
    /// Cyclic large itemsets found (interleaved phase 1 survivors).
    pub cyclic_itemsets: u64,
    /// Candidate rules whose confidence was checked.
    pub rules_checked: u64,
    /// Wall-clock time of phase 1 (itemsets / per-unit rule mining).
    pub phase1: Duration,
    /// Wall-clock time of phase 2 (rule cycles / cycle detection).
    pub phase2: Duration,
}

impl MiningStats {
    /// Total wall-clock time of both phases.
    pub fn total_time(&self) -> Duration {
        self.phase1 + self.phase2
    }
}

/// The result of a mining run: the cyclic rules plus work counters.
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    /// The cyclic association rules, sorted by rule then cycles.
    pub rules: Vec<CyclicRule>,
    /// Work and timing counters.
    pub stats: MiningStats,
}

impl MiningOutcome {
    /// Convenience: the number of rules found.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use car_itemset::ItemSet;

    #[test]
    fn display_forms() {
        let r = CyclicRule {
            rule: Rule::new(ItemSet::from_ids([1]), ItemSet::from_ids([2])).unwrap(),
            cycles: vec![Cycle::make(2, 0), Cycle::make(3, 1)],
        };
        assert_eq!(r.to_string(), "{1} => {2} @ (2,0),(3,1)");
        assert_eq!(format!("{r:?}"), "{1} => {2} @ (2,0),(3,1)");
    }

    #[test]
    fn stats_total_time() {
        let stats = MiningStats {
            phase1: Duration::from_millis(30),
            phase2: Duration::from_millis(12),
            ..Default::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(42));
    }

    #[test]
    fn outcome_counts_rules() {
        let outcome = MiningOutcome { rules: Vec::new(), stats: MiningStats::default() };
        assert_eq!(outcome.num_rules(), 0);
    }
}
