//! # car-apriori
//!
//! Frequent itemset mining substrate for the cyclic association rules
//! workspace: a from-scratch implementation of the Apriori algorithm
//! (Agrawal & Srikant, VLDB 1994), which both algorithms of the ICDE'98
//! cyclic-rules paper extend.
//!
//! Components:
//!
//! * [`apriori_gen`] — level-wise candidate generation (join + prune).
//! * Two interchangeable support-counting engines, cross-checked by
//!   tests and proptests:
//!   - a **vertical tid-bitmap** kernel ([`CountStrategy::Vertical`],
//!     the default): support is a chained `u64` AND + popcount over
//!     per-item bitsets (see [`bitmap`]), and
//!   - a classic **hash tree** ([`CountStrategy::HashTree`], the structure
//!     from the original Apriori paper), kept as the paper-era baseline
//!     and as an independent check on the kernel.
//! * [`Apriori`] — the level-wise driver producing [`FrequentItemsets`],
//!   which the paper's SEQUENTIAL and INTERLEAVED algorithms extend.
//! * [`eclat`] — depth-first mining over the same tid-bitmaps: each
//!   extension of a prefix class is one AND plus popcount, with no
//!   candidate generation. It is the live window's per-unit miner.
//! * [`generate_rules`] — `ap-genrules` association rule generation with
//!   confidence-based consequent pruning.
//! * [`MinSupport`] / [`MinConfidence`] — threshold handling (absolute
//!   counts or fractions) with explicit empty-database semantics.
//! * [`naive`] and [`fp_growth`] — a definition-level miner and an
//!   independent pattern-growth miner, used as oracles by tests and as
//!   baselines by benchmarks.
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
mod fpgrowth;
mod frequent;
pub mod hash;
mod hash_tree;
pub mod naive;
mod rules;
mod support;

pub use apriori::{Apriori, AprioriConfig, AprioriStats};
pub use bitmap::{count_vertical, ItemMap, TidBitmaps};
pub use candidate::apriori_gen;
pub use count::{
    count_candidates, count_candidates_detailed, CountOutcome, CountStrategy,
};
pub use eclat::eclat;
pub use fpgrowth::fp_growth;
pub use frequent::FrequentItemsets;
pub use hash_tree::HashTree;
pub use rules::{generate_rules, AssociationRule, Rule};
pub use support::{MinConfidence, MinSupport};
