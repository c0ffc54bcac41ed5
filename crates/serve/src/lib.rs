//! # car-serve — an online cyclic-rule serving daemon
//!
//! Turns the sliding-window miner
//! ([`car_core::window::SlidingWindowMiner`]) into a long-running
//! service: time units arrive over HTTP, a bounded ingest queue applies
//! them to the window off the request path, and clients query the
//! current cyclic association rules, health, and Prometheus metrics.
//!
//! Built directly on [`std::net`] with a hand-rolled HTTP/1.1 codec
//! ([`http`]) and JSON ([`json`]) — the build environment has no route
//! to a crates registry, so the daemon deliberately uses no external
//! dependencies.
//!
//! ## Architecture
//!
//! ```text
//! clients ──► accept loop ──► worker pool (N threads)
//!                                │  POST /v1/units ──► bounded queue ─┐
//!                                │  GET  /v1/rules ◄── RwLock read    │
//!                                │  GET  /v1/health, /metrics         │
//!                                ▼                                    ▼
//!                             responses            ingest thread (write lock,
//!                                                  push_unit, evictions)
//! ```
//!
//! Queries are served from cached per-unit rule sets (cycle detection at
//! query time), so responses are identical to batch-mining the retained
//! window. Shutdown — endpoint, SIGINT, or API — stops accepting,
//! drains in-flight requests and the ingest queue, and reports final
//! stats.
//!
//! ## Quick start
//!
//! ```
//! use car_serve::{serve, Client, ServerConfig};
//!
//! let config = ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() };
//! let handle = serve(config).unwrap();
//! let mut client = Client::connect(&handle.addr.to_string()).unwrap();
//! let resp = client.request("GET", "/v1/health", None).unwrap();
//! assert_eq!(resp.status, 200);
//! handle.trigger_shutdown();
//! let stats = handle.wait();
//! assert_eq!(stats.requests, 1);
//! ```

#![deny(unsafe_code)] // one documented exception: shutdown::imp (signal(2))
#![warn(missing_docs)]
// The daemon's production code must not panic on bad input; tests are
// free to unwrap. car-audit enforces the wider A1 policy, this backs it
// up at the compiler level for the most common offender.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod client;
mod error;
pub mod http;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod routes;
mod server;
pub mod shutdown;
pub mod state;
pub mod sync;

pub use client::{
    Client, ClientResponse, FailureClass, RetryPolicy, RetryingClient, SendError,
};
pub use error::ServeError;
pub use persist::wal::FsyncPolicy;
pub use persist::PersistConfig;
pub use server::{accept_loop, serve, FinalStats, ServerConfig, ServerHandle, Service};
pub use state::ShardIdentity;
