//! # car-apriori
//!
//! Frequent itemset mining substrate for the cyclic association rules
//! workspace: a from-scratch implementation of the Apriori algorithm
//! (Agrawal & Srikant, VLDB 1994), which both algorithms of the ICDE'98
//! cyclic-rules paper extend.
//!
//! Components:
//!
//! * [`join_level`] — level-wise candidate generation (join + prune) over
//!   a flat level, one sorted buffer of `k` items per itemset. It builds
//!   each candidate in a scratch buffer, finds the join groups holding a
//!   first parent's subsets once and walks them in step with the
//!   partners, and reports each candidate's subset positions.
//!   [`apriori_gen`] is a thin allocating wrapper over it.
//! * [`TidBitmaps`] — the one counting engine of the product path: one
//!   build per unit holds a `u64` tid-bitset per large item, and a
//!   support is a chained AND + popcount over them (see [`bitmap`]),
//!   with the ANDs of the last candidate's prefixes kept for the next.
//!   [`Apriori`], the paper's INTERLEAVED (in `car-core`) and [`eclat`]
//!   each build a unit's bitmaps once and count every itemset on them.
//! * [`Apriori`] — the level-wise driver producing [`FrequentItemsets`],
//!   which the paper's SEQUENTIAL and INTERLEAVED algorithms extend. It
//!   counts each candidate as [`join_level`] joins it and appends each
//!   large one to a flat level with its count and the subset positions
//!   the join reports, allocating no
//!   [`ItemSet`](car_itemset::ItemSet).
//! * [`eclat`] — depth-first mining over the same tid-bitmaps: each
//!   extension of a prefix class is one AND plus popcount, with no
//!   candidate generation, and the large itemsets go into one
//!   [`FlatItemsets`] buffer. It is the live window's per-unit miner.
//! * [`for_each_rule`] — the one `ap-genrules` walk, with
//!   confidence-based consequent pruning: consequents are `u64` position
//!   masks over the itemset, each carrying its antecedent's position, so
//!   an antecedent's count is two array reads down the recorded subset
//!   positions and no rule allocates, hashes or searches.
//!   [`generate_rules`] collects it into sorted [`AssociationRule`]s;
//!   SEQUENTIAL (in `car-core`) stores its masks.
//! * [`MinSupport`] / [`MinConfidence`] — threshold handling (absolute
//!   counts or fractions) with explicit empty-database semantics.
//!
//! The classic **hash tree** ([`CountStrategy::HashTree`], the structure
//! from the original Apriori paper) is not product code: it is the
//! paper-era baseline of EXP-8 and the `fig8_counting` bench, and the
//! independent engine [`Apriori`] selects through
//! [`AprioriConfig::with_counting`] when tests check SEQUENTIAL and the
//! kernel against it. [`count_candidates`] counts one batch with either
//! engine. A definition-level miner and FP-Growth, the other oracles,
//! live with the tests that use them (`tests/oracles/`).
//!
//! ```
//! use car_apriori::{Apriori, AprioriConfig, MinSupport};
//! use car_itemset::ItemSet;
//!
//! let tx = vec![
//!     ItemSet::from_ids([1, 2, 3]),
//!     ItemSet::from_ids([1, 2]),
//!     ItemSet::from_ids([2, 3]),
//! ];
//! let config = AprioriConfig::new(MinSupport::fraction(0.5).unwrap());
//! let frequent = Apriori::new(config).mine(&tx);
//! assert_eq!(frequent.count(&ItemSet::from_ids([1, 2])), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apriori;
pub mod bitmap;
mod candidate;
mod count;
mod eclat;
mod frequent;
pub mod hash;
mod hash_tree;
mod rules;
mod support;

pub use apriori::{Apriori, AprioriConfig, AprioriStats};
pub use bitmap::{ItemMap, TidBitmaps};
pub use candidate::{apriori_gen, join_level};
/// [`count_candidates`] under the name the benchmark's level replay
/// calls.
pub use count::count_candidates as count_candidates_detailed;
pub use count::{count_candidates, CountStrategy};
pub use eclat::{eclat, FlatItemsets};
pub use frequent::FrequentItemsets;
pub use hash_tree::HashTree;
pub use rules::{for_each_rule, generate_rules, AssociationRule, Rule, RuleMask};
pub use support::{MinConfidence, MinSupport};
