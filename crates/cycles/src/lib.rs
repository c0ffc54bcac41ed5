//! # car-cycles
//!
//! Temporal substrate for cyclic association rule mining (Özden,
//! Ramaswamy, Silberschatz; ICDE 1998).
//!
//! A rule mined over a time-segmented database either *holds* or *does not
//! hold* in each time unit, which induces a **binary sequence** over the
//! units. A [`Cycle`] `(l, o)` asserts that the sequence is 1 at every unit
//! `i ≡ o (mod l)`. This crate provides:
//!
//! * [`BitSeq`] — a compact binary sequence.
//! * [`Cycle`] — cycle arithmetic: membership of units, the *multiple-of*
//!   relation, and enumeration of all cycles within length bounds.
//! * [`CycleSet`] — the candidate-cycle set at the heart of the paper's
//!   INTERLEAVED algorithm: one flat bitset over every `(l, o)` within
//!   the bounds, so each operation is a pass over a few words (3 at
//!   lengths 2..16). The cycles a unit lies on are a `CycleSet` too
//!   ([`CycleSet::of_unit`]), built once per unit and shared, and the
//!   three optimization primitives are word operations against it:
//!   - `eliminate(&on_unit)` — **cycle elimination**: an AND-NOT that
//!     kills every candidate `(l, unit mod l)` after a miss at `unit` and
//!     counts the cycles it removed;
//!   - `intersects(&on_unit)` — **cycle skipping**: test whether a unit
//!     is on any remaining candidate cycle;
//!   - `intersect_with` — **cycle pruning**: candidate cycles of an
//!     itemset are at most the intersection of its subsets' cycles.
//! * [`detect_cycles`] — exact cycle detection for a binary sequence,
//!   implemented as elimination from the full candidate set (exactly the
//!   procedure the SEQUENTIAL algorithm uses on rule sequences). A
//!   sequence with fewer ones than `⌊n / l_max⌋`
//!   ([`CycleBounds::min_holds`]), the fewest units any cycle covers, is
//!   settled by its popcount;
//!   [`detect_cycles_with`] shares the per-unit sets across sequences.
//! * [`minimal_cycles`] — filtering of cycles that are multiples of other
//!   detected cycles (only *minimal* cycles are reported to users).
//! * [`detect_approx_cycles`] — the paper's future-work relaxation: cycles
//!   that tolerate a bounded number of misses.
//!
//! ```
//! use car_cycles::{BitSeq, CycleBounds, detect_cycles, minimal_cycles};
//!
//! // A rule that holds every other unit starting at unit 1.
//! let seq = BitSeq::from_bits([false, true, false, true, false, true]);
//! let bounds = CycleBounds::new(1, 3).unwrap();
//! let set = detect_cycles(&seq, bounds);
//! let cycles = minimal_cycles(&set);
//! assert_eq!(cycles.len(), 1);
//! assert_eq!((cycles[0].length(), cycles[0].offset()), (2, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod bitseq;
mod bounds;
mod cycle;
mod cycleset;
mod detect;
mod merge;
mod online;
pub mod spectrum;

pub use approx::{detect_approx_cycles, ApproxCycle};
pub use bitseq::BitSeq;
pub use bounds::CycleBounds;
pub use cycle::Cycle;
pub use cycleset::CycleSet;
pub use detect::{detect_cycles, detect_cycles_with, minimal_cycles};
pub use merge::merge_minimal_cycle_lists;
pub use online::{CycleMasks, OnlineCycles};
pub use spectrum::{autocorrelation, dominant_period, spectrum, PeriodStrength};
