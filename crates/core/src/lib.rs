//! # car-core — Cyclic Association Rules
//!
//! A faithful implementation of
//!
//! > Banu Özden, Sridhar Ramaswamy, Abraham Silberschatz.
//! > **"Cyclic Association Rules."** 14th International Conference on
//! > Data Engineering (ICDE), 1998.
//!
//! ## Problem
//!
//! A transaction database is partitioned into `n` equal **time units**
//! ([`car_itemset::SegmentedDb`]). An association rule `X ⇒ Y` *holds* in
//! unit `i` when `X ∪ Y` is large there (support ≥ `minsup`) and the
//! rule's confidence in that unit is at least `minconf`. The rule's
//! behaviour over time is a binary sequence; the rule is a **cyclic
//! association rule** when that sequence has a [`car_cycles::Cycle`]
//! `(l, o)` — it holds in *every* unit `i ≡ o (mod l)` — with `l` inside
//! the configured [`car_cycles::CycleBounds`].
//!
//! ## Algorithms
//!
//! * [`sequential::mine_sequential`] — the paper's SEQUENTIAL algorithm:
//!   run Apriori and rule generation independently in every time unit,
//!   then detect cycles a posteriori in each rule's binary sequence.
//!
//! * [`interleaved::mine_interleaved`] — the paper's INTERLEAVED
//!   algorithm, which pushes cycle detection *into* support counting via
//!   three techniques (each can be ablated through
//!   [`InterleavedOptions`]):
//!   - **cycle pruning** — an itemset's candidate cycles are at most the
//!     intersection of its subsets' cycles, so candidates start small;
//!   - **cycle skipping** — support of an itemset is only counted in
//!     units lying on one of its remaining candidate cycles;
//!   - **cycle elimination** — a unit where the itemset is not large
//!     immediately kills every candidate cycle through that unit.
//!
//! Both algorithms produce exactly the same rules with exactly the same
//! minimal cycles (property-tested); they differ only in the work
//! performed, which [`MiningStats`] exposes.
//!
//! ## Extensions
//!
//! * [`approx`] — approximate cycles with a bounded number of misses
//!   (sketched as future work in the paper).
//! * [`parallel`] — the SEQUENTIAL algorithm fanned out over worker
//!   threads, one chunk of time units each.
//! * [`window`] — the most recent time units, each mined once as it
//!   arrives, with online cycle state; what the serving daemon runs.
//!
//! ## Quick start
//!
//! ```
//! use car_core::{Algorithm, CyclicRuleMiner, MiningConfig};
//! use car_itemset::{ItemSet, SegmentedDb};
//!
//! // Coffee and sugar sell together every other day.
//! let unit_even = vec![ItemSet::from_ids([1, 2]); 10];
//! let unit_odd = vec![ItemSet::from_ids([3]); 10];
//! let db = SegmentedDb::from_unit_itemsets(vec![
//!     unit_even.clone(), unit_odd.clone(),
//!     unit_even.clone(), unit_odd.clone(),
//!     unit_even, unit_odd,
//! ]);
//!
//! let config = MiningConfig::builder()
//!     .min_support_fraction(0.5)
//!     .min_confidence(0.6)
//!     .cycle_bounds(2, 3)
//!     .build()
//!     .unwrap();
//! let outcome = CyclicRuleMiner::new(config, Algorithm::interleaved())
//!     .mine(&db)
//!     .unwrap();
//! assert!(outcome
//!     .rules
//!     .iter()
//!     .any(|r| r.rule.to_string() == "{1} => {2}"
//!         && r.cycles.iter().any(|c| (c.length(), c.offset()) == (2, 0))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod approx;
mod config;
pub mod interleaved;
mod miner;
pub mod parallel;
pub mod report;
mod result;
pub mod sequential;
pub mod window;

pub use analyze::{analyze_rule, RuleTimeline};
pub use config::{ConfigBuilder, ConfigError, MiningConfig};
pub use interleaved::InterleavedOptions;
pub use miner::{Algorithm, CyclicRuleMiner};
pub use report::{MiningReport, RankedRule};
pub use result::{CyclicRule, MiningOutcome, MiningStats, RuleView};

// Re-export the vocabulary types callers need.
pub use car_apriori::{CountStrategy, MinConfidence, MinSupport, Rule};
pub use car_cycles::{Cycle, CycleBounds};
