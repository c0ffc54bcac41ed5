//! # car-obs — zero-dependency observability
//!
//! The shared observability layer for the cyclic-association-rules
//! workspace. Three facilities, each designed to cost one relaxed
//! atomic load when disabled:
//!
//! * **Structured logging** ([`logger`], the [`error!`]…[`trace!`]
//!   macros) — leveled, per-target events rendered as logfmt (default)
//!   or JSON lines on stderr, filtered at runtime through the `CAR_LOG`
//!   environment variable (`CAR_LOG=mine=debug,wal=info`). A bounded
//!   ring buffer can capture recent events for a debug endpoint.
//! * **Span timing** ([`span`](mod@span), the [`time_span!`] macro) — RAII guards
//!   that accumulate `(count, total ns, max ns)` per span name into a
//!   lock-free flat profile; recording is plain relaxed atomics, and a
//!   disabled span never even reads the clock.
//! * **Distributed tracing** ([`trace`](mod@trace)) — per-request trace trees
//!   propagated across processes as `X-Car-Trace-Id` /
//!   `X-Car-Parent-Span` headers. `time_span!` call sites feed the live
//!   trace as named child spans; finished spans travel back in a
//!   compact `X-Car-Spans` response header, are assembled into one
//!   rooted tree, and survive tail-based retention (errored, slow, or
//!   1-in-N sampled).
//!
//! The crate keeps no work counters of its own: each counter lives in
//! the instance that does the work (a mining run's `MiningStats`, the
//! window miner, a server's `Metrics`, the router's state, a
//! [`trace::TraceStore`]), so two instances in one process never add
//! into one total.
//!
//! The crate has no dependencies (the workspace builds offline) and its
//! non-test code is in car-audit's A1 panic-freedom and A3
//! checked-arithmetic scopes: no unwraps, no index expressions, no
//! unchecked counter arithmetic.
//!
//! ## Quick start
//!
//! ```
//! car_obs::init_from_env();
//! car_obs::info!("mine", [units = 64], "mining run starting");
//! {
//!     let _span = car_obs::time_span!("doc.example");
//!     // ... timed work ...
//! }
//! let profile = car_obs::profile_snapshot();
//! assert!(profile.iter().any(|s| s.name == "doc.example"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod logger;
pub mod span;
pub mod trace;

pub use logger::{
    init_from_env, log_enabled, recent_events, set_capture, set_filter, set_json_format,
    EventRecord, Level,
};
pub use span::{
    profile_snapshot, register_span, reset_profile, set_spans_enabled, span, span_site,
    spans_enabled, SpanGuard, SpanId, SpanStat,
};

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket upper bounds shared by every latency histogram in
/// the workspace (the daemon's server-side `/metrics` histogram and
/// car-load's client-side report), in microseconds. Keeping both sides
/// on one const keeps their distributions directly comparable.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 10] =
    [100, 250, 500, 1_000, 2_500, 5_000, 10_000, 100_000, 1_000_000, 2_500_000];

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates the next process-unique request id (monotonic from 1),
/// used to correlate log events belonging to one request.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn latency_bounds_are_sorted() {
        assert!(LATENCY_BUCKET_BOUNDS_US.windows(2).all(|w| w[0] < w[1]));
    }
}
