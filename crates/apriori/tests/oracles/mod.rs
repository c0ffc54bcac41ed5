//! Independent miners that the property tests check the product miners
//! against: a definition-level miner and FP-Growth. They are test code
//! only; no crate of the workspace mines with them. Each returns the
//! large itemsets as an ordered map to their counts.

mod fpgrowth;
pub mod naive;

use std::collections::BTreeMap;

use car_apriori::FrequentItemsets;
use car_itemset::ItemSet;

pub use fpgrowth::fp_growth;

/// Large itemsets with their counts, in the oracles' form.
pub type Itemsets = BTreeMap<ItemSet, u64>;

/// A product miner's result in the oracles' form.
pub fn itemsets(frequent: &FrequentItemsets) -> Itemsets {
    frequent.iter().map(|(s, c)| (ItemSet::from_sorted_vec(s.to_vec()), c)).collect()
}
