//! car-shard: a consistent-hash sharded mining cluster.
//!
//! A zero-dependency router ([`router::run_router`]) fronts N
//! `car-serve` workers. Ingest is partitioned across workers by
//! rendezvous-hashing each transaction's partition-key item
//! ([`ring::ShardRing`]); rule and item queries fan out to every live
//! worker in parallel and the per-shard views are merged — cycles
//! re-minimalized, rules re-sorted — at the router
//! ([`merge::merge_rule_views`]). Ingest and queries share one fan-out
//! path (deadline, breaker, trace and degradation handling written
//! once), and the router's connections run through car-serve's own
//! connection loop ([`car_serve::accept_loop`]), with its request-head
//! deadline and admission gate.
//!
//! Degradation is graceful: per-shard health probes with timeout and
//! backoff exclude a down worker from fan-out (responses then carry
//! `partial=true` and an `X-Car-Shards-Degraded` header), and a bounded
//! replay ring lets a recovered worker be caught up exactly and
//! re-admitted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod merge;
pub mod ring;
pub mod router;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use merge::{merge_rule_views, parse_rules_body, ShardView};
pub use ring::{PartitionKey, ShardRing};
pub use router::{
    run_router, RouterConfig, RouterError, RouterHandle, RouterState, RouterStats,
    WorkerState,
};
