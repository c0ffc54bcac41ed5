//! Independent miners that the property tests check the product miners
//! against: a definition-level miner and FP-Growth. They are test code
//! only; no crate of the workspace mines with them.

mod fpgrowth;
pub mod naive;

pub use fpgrowth::fp_growth;
