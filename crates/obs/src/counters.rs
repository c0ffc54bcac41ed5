//! Process-global, monotonic counters for long-lived processes.
//!
//! Batch mining counts its work per run, in `MiningStats`, and nothing
//! here duplicates it. What lives here is work that no single run owns:
//! the sliding-window miner's incremental maintenance ([`MINE`]), the
//! shard router's fan-out ([`SHARD`]), overload shedding and deadlines
//! ([`RESILIENCE`]), and trace retention ([`TRACE`]). The daemon and the
//! router export them on `/metrics`.
//!
//! All updates use relaxed ordering: each counter is an independent
//! statistic, nothing synchronizes *through* them, and a scrape that is
//! a few events stale is fine (see DESIGN.md §9).

use std::sync::atomic::{AtomicU64, Ordering};

/// The window miner's online-maintenance counters; use the [`MINE`]
/// static.
pub struct MiningCounters {
    online_holds: AtomicU64,
    online_eliminations: AtomicU64,
}

/// Process-wide online-maintenance totals since start.
pub static MINE: MiningCounters = MiningCounters {
    online_holds: AtomicU64::new(0),
    online_eliminations: AtomicU64::new(0),
};

impl MiningCounters {
    /// Counts `(itemset, unit)` hold entries folded into online cycle
    /// state by the sliding-window miner at push time — the work the
    /// query fast path amortises away.
    pub fn add_online_holds(&self, n: u64) {
        self.online_holds.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts candidate cycles found dead while assembling the default
    /// rule view from online state, `num_cycles − live` per tracked
    /// itemset. The online path never eliminates eagerly — absent
    /// itemsets are not visited at push time — so this is observed at
    /// view assembly, once per window epoch.
    pub fn add_online_eliminations(&self, n: u64) {
        self.online_eliminations.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of both counters (relaxed loads; they may be
    /// mutually inconsistent by a few in-flight events).
    pub fn snapshot(&self) -> MiningCounterSnapshot {
        MiningCounterSnapshot {
            online_holds: self.online_holds.load(Ordering::Relaxed),
            online_eliminations: self.online_eliminations.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`MiningCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MiningCounterSnapshot {
    /// `(itemset, unit)` hold entries folded into online cycle state.
    pub online_holds: u64,
    /// Candidate cycle classes observed dead at online view assembly.
    pub online_eliminations: u64,
}

/// Process-global counters for the shard router; use the [`SHARD`]
/// static. A standalone daemon never touches these — they exist so the
/// `car shard` router can expose its fan-out, degradation, and catch-up
/// activity through `/metrics` with the same relaxed-atomic discipline
/// as [`MINE`].
pub struct ShardCounters {
    fanout_legs: AtomicU64,
    fanout_failures: AtomicU64,
    down_transitions: AtomicU64,
    readmissions: AtomicU64,
    catchup_units: AtomicU64,
    units_routed: AtomicU64,
    partial_responses: AtomicU64,
    deadline_exceeded: AtomicU64,
}

/// Process-wide shard-router totals since start.
pub static SHARD: ShardCounters = ShardCounters {
    fanout_legs: AtomicU64::new(0),
    fanout_failures: AtomicU64::new(0),
    down_transitions: AtomicU64::new(0),
    readmissions: AtomicU64::new(0),
    catchup_units: AtomicU64::new(0),
    units_routed: AtomicU64::new(0),
    partial_responses: AtomicU64::new(0),
    deadline_exceeded: AtomicU64::new(0),
};

impl ShardCounters {
    /// Counts per-shard legs of a query (rules or items) fan-out that
    /// reached their deadline check; ingest legs are not counted.
    pub fn add_fanout_legs(&self, n: u64) {
        self.fanout_legs.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a fan-out leg that failed (transport error, timeout, or an
    /// unusable response).
    pub fn add_fanout_failures(&self, n: u64) {
        self.fanout_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a worker transitioning from live to down.
    pub fn add_down_transition(&self) {
        self.down_transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a worker re-admitted after passing a health check (and any
    /// required catch-up replay).
    pub fn add_readmission(&self) {
        self.readmissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts units replayed to a returning worker from the catch-up
    /// buffer.
    pub fn add_catchup_units(&self, n: u64) {
        self.catchup_units.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts units the router has routed (split and forwarded).
    pub fn add_units_routed(&self, n: u64) {
        self.units_routed.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts router answers (ingest, rules or items) served with
    /// `partial=true`.
    pub fn add_partial_response(&self) {
        self.partial_responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts fan-out legs abandoned (or answered 504) because the
    /// request's deadline budget ran out.
    pub fn add_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter (relaxed loads).
    pub fn snapshot(&self) -> ShardCounterSnapshot {
        ShardCounterSnapshot {
            fanout_legs: self.fanout_legs.load(Ordering::Relaxed),
            fanout_failures: self.fanout_failures.load(Ordering::Relaxed),
            down_transitions: self.down_transitions.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            catchup_units: self.catchup_units.load(Ordering::Relaxed),
            units_routed: self.units_routed.load(Ordering::Relaxed),
            partial_responses: self.partial_responses.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`ShardCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounterSnapshot {
    /// Query fan-out legs issued to live workers.
    pub fanout_legs: u64,
    /// Fan-out legs that failed.
    pub fanout_failures: u64,
    /// Live-to-down worker transitions.
    pub down_transitions: u64,
    /// Workers re-admitted after recovery.
    pub readmissions: u64,
    /// Units replayed from the catch-up buffer.
    pub catchup_units: u64,
    /// Units routed (split and forwarded) by the router.
    pub units_routed: u64,
    /// Router answers served with `partial=true`.
    pub partial_responses: u64,
    /// Fan-out legs lost to an exhausted deadline budget.
    pub deadline_exceeded: u64,
}

/// Process-global resilience counters for the serving tier; use the
/// [`RESILIENCE`] static. These count the overload-protection and
/// deadline events a chaos run must be able to observe from `/metrics`:
/// admission-gate sheds, slow-loris header timeouts, and requests
/// answered `504 deadline_exceeded`.
pub struct ResilienceCounters {
    shed: AtomicU64,
    header_timeouts: AtomicU64,
    deadline_exceeded: AtomicU64,
}

/// Process-wide serving-tier resilience totals since start.
pub static RESILIENCE: ResilienceCounters = ResilienceCounters {
    shed: AtomicU64::new(0),
    header_timeouts: AtomicU64::new(0),
    deadline_exceeded: AtomicU64::new(0),
};

impl ResilienceCounters {
    /// Counts a connection shed at the admission gate (`503 overloaded`).
    pub fn add_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request whose header section did not complete within
    /// the header-read deadline (slow-loris defense).
    pub fn add_header_timeout(&self) {
        self.header_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request answered `504 deadline_exceeded` because its
    /// propagated deadline expired server-side.
    pub fn add_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter (relaxed loads).
    pub fn snapshot(&self) -> ResilienceCounterSnapshot {
        ResilienceCounterSnapshot {
            shed: self.shed.load(Ordering::Relaxed),
            header_timeouts: self.header_timeouts.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`ResilienceCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceCounterSnapshot {
    /// Connections shed at the admission gate.
    pub shed: u64,
    /// Requests cut off by the header-read deadline.
    pub header_timeouts: u64,
    /// Requests answered `504 deadline_exceeded`.
    pub deadline_exceeded: u64,
}

/// Process-global tracing counters; use the [`TRACE`] static. These
/// count tail-sampling outcomes at whichever process assembles traces
/// (the router, or a standalone daemon tracing its own requests), so
/// `/metrics` can expose `car_trace_retained_total{reason=...}`.
pub struct TraceCounters {
    retained_error: AtomicU64,
    retained_slow: AtomicU64,
    retained_sampled: AtomicU64,
    discarded: AtomicU64,
}

/// Process-wide trace-retention totals since start.
pub static TRACE: TraceCounters = TraceCounters {
    retained_error: AtomicU64::new(0),
    retained_slow: AtomicU64::new(0),
    retained_sampled: AtomicU64::new(0),
    discarded: AtomicU64::new(0),
};

impl TraceCounters {
    /// Counts a trace retained because the request errored, tripped a
    /// breaker, or was deadline-aborted.
    pub fn add_retained_error(&self) {
        self.retained_error.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a trace retained for exceeding the latency threshold.
    pub fn add_retained_slow(&self) {
        self.retained_slow.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a healthy trace kept by the deterministic 1-in-N sample.
    pub fn add_retained_sampled(&self) {
        self.retained_sampled.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a healthy trace the sampler let go.
    pub fn add_discarded(&self) {
        self.discarded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter (relaxed loads).
    pub fn snapshot(&self) -> TraceCounterSnapshot {
        TraceCounterSnapshot {
            retained_error: self.retained_error.load(Ordering::Relaxed),
            retained_slow: self.retained_slow.load(Ordering::Relaxed),
            retained_sampled: self.retained_sampled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`TraceCounters`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounterSnapshot {
    /// Traces retained with `reason="error"`.
    pub retained_error: u64,
    /// Traces retained with `reason="slow"`.
    pub retained_slow: u64,
    /// Traces retained with `reason="sampled"`.
    pub retained_sampled: u64,
    /// Healthy traces the sampler discarded.
    pub discarded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_counters_accumulate_into_globals() {
        let before = MINE.snapshot();
        MINE.add_online_holds(11);
        MINE.add_online_eliminations(5);
        let after = MINE.snapshot();
        assert!(after.online_holds >= before.online_holds + 11);
        assert!(after.online_eliminations >= before.online_eliminations + 5);
    }

    #[test]
    fn shard_counters_accumulate_into_globals() {
        let before = SHARD.snapshot();
        SHARD.add_fanout_legs(3);
        SHARD.add_fanout_failures(1);
        SHARD.add_down_transition();
        SHARD.add_readmission();
        SHARD.add_catchup_units(7);
        SHARD.add_units_routed(2);
        SHARD.add_partial_response();
        let after = SHARD.snapshot();
        assert!(after.fanout_legs >= before.fanout_legs + 3);
        assert!(after.fanout_failures > before.fanout_failures);
        assert!(after.down_transitions > before.down_transitions);
        assert!(after.readmissions > before.readmissions);
        assert!(after.catchup_units >= before.catchup_units + 7);
        assert!(after.units_routed >= before.units_routed + 2);
        assert!(after.partial_responses > before.partial_responses);
    }

    #[test]
    fn resilience_counters_accumulate_into_globals() {
        let before = RESILIENCE.snapshot();
        RESILIENCE.add_shed();
        RESILIENCE.add_header_timeout();
        RESILIENCE.add_deadline_exceeded();
        let after = RESILIENCE.snapshot();
        assert!(after.shed > before.shed);
        assert!(after.header_timeouts > before.header_timeouts);
        assert!(after.deadline_exceeded > before.deadline_exceeded);
    }

    #[test]
    fn trace_counters_accumulate_into_globals() {
        let before = TRACE.snapshot();
        TRACE.add_retained_error();
        TRACE.add_retained_slow();
        TRACE.add_retained_sampled();
        TRACE.add_discarded();
        let after = TRACE.snapshot();
        assert!(after.retained_error > before.retained_error);
        assert!(after.retained_slow > before.retained_slow);
        assert!(after.retained_sampled > before.retained_sampled);
        assert!(after.discarded > before.discarded);
    }
}
