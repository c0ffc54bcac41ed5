//! # car-bench
//!
//! Experiment harness reproducing the evaluation of the ICDE'98 cyclic
//! association rules paper. The original figures plot the runtime of the
//! SEQUENTIAL and INTERLEAVED algorithms over synthetic Quest-style data
//! as one workload parameter at a time is swept; this crate provides
//!
//! * [`Scenario`] construction for the base workload and each sweep
//!   (DESIGN.md, experiment index EXP-1 … EXP-9),
//! * [`measure`] — a sweep point's algorithms, each mined [`RUNS`] times
//!   and timed as a median with quartiles beside its work counters, and
//! * [`print_series`] — markdown tables in the shape of the paper's
//!   figure data.
//!
//! The `experiments` binary drives every sweep and is the one harness
//! for the paper's figures. The Criterion benches under `benches/` are
//! regression pins outside the sweeps: the counting engines on a fixed
//! batch (`fig8_counting`, whose JSON CI publishes), the query path
//! (`query_path`) and the cost of spans (`obs_overhead`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod measure;
mod scenario;
mod table;

pub use measure::{measure, time_runs, Measurement, Timing, RUNS};
pub use scenario::{base_cyclic_config, scenario, Scenario, ScenarioParams};
pub use table::{print_series, SeriesRow};
