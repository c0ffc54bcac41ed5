//! # car-itemset
//!
//! Foundation types for cyclic association rule mining.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace:
//!
//! * [`Item`] — a compact, copyable item identifier.
//! * [`ItemSet`] — an immutable, sorted, duplicate-free set of items with
//!   the set algebra needed by Apriori-style miners (subset tests, unions,
//!   k-subset enumeration, and the classic *join* step). It borrows as
//!   its item slice, so maps and sorted lists of itemsets can be searched
//!   with a slice.
//! * [`SegmentedDb`] — a transaction database partitioned into consecutive
//!   **time units**, the structure over which cyclic association rules are
//!   defined (Özden, Ramaswamy, Silberschatz; ICDE 1998).
//! * [`io`] — readers and writers for FIMI-style `.dat` files and a timed
//!   variant with an explicit time-unit column.
//!
//! The types here are deliberately simple and allocation-conscious: an
//! [`ItemSet`] is a boxed slice, item ids are `u32`, and all set operations
//! on sorted slices are linear merges rather than hash-based.
//!
//! ```
//! use car_itemset::{Item, ItemSet, SegmentedDb};
//!
//! let a = Item::new(1);
//! let b = Item::new(2);
//! let ab = ItemSet::from_items([a, b]);
//! assert!(ItemSet::single(a).is_subset_of(&ab));
//!
//! let db = SegmentedDb::from_unit_itemsets(vec![
//!     vec![ab.clone()],
//!     vec![ItemSet::single(b)],
//! ]);
//! assert_eq!(db.num_units(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
mod error;
pub mod io;
mod item;
mod itemset;
pub mod refstore;
mod segmented;
mod vocabulary;

pub use error::{Error, Result};
pub use item::Item;
pub use itemset::{ItemSet, KSubsets};
pub use refstore::{RefCounter, RefMap};
pub use segmented::{SegmentedDb, TimeUnit};
pub use vocabulary::Vocabulary;
