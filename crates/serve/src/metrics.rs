//! Daemon metrics: lock-free counters rendered as Prometheus text.
//!
//! Every counter is an [`AtomicU64`] bumped on the request path with
//! relaxed ordering (metrics never synchronise anything), and the
//! `/metrics` endpoint renders the standard text exposition format
//! (`# HELP` / `# TYPE` / samples). Request latencies go into a fixed
//! cumulative-bucket histogram, Prometheus-style, with bounds chosen for
//! a local daemon (100µs – 2.5s).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The routes the daemon distinguishes in per-route counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/units`
    IngestUnits,
    /// `GET /v1/rules`
    Rules,
    /// `GET /v1/items` (per-item window supports)
    Items,
    /// `GET /v1/health`
    Health,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/shutdown`
    Shutdown,
    /// `GET /v1/debug/profile`
    DebugProfile,
    /// `GET /v1/debug/events`
    DebugEvents,
    /// `GET /v1/debug/spans` (per-process trace-span ring)
    DebugSpans,
    /// `GET /v1/debug/traces` (router-side assembled traces)
    DebugTraces,
    /// Anything else (404s, bad requests).
    Other,
}

impl Route {
    const ALL: [Route; 11] = [
        Route::IngestUnits,
        Route::Rules,
        Route::Items,
        Route::Health,
        Route::Metrics,
        Route::Shutdown,
        Route::DebugProfile,
        Route::DebugEvents,
        Route::DebugSpans,
        Route::DebugTraces,
        Route::Other,
    ];

    fn index(self) -> usize {
        match self {
            Route::IngestUnits => 0,
            Route::Rules => 1,
            Route::Items => 2,
            Route::Health => 3,
            Route::Metrics => 4,
            Route::Shutdown => 5,
            Route::DebugProfile => 6,
            Route::DebugEvents => 7,
            Route::DebugSpans => 8,
            Route::DebugTraces => 9,
            Route::Other => 10,
        }
    }

    /// The metric/log label for this route, e.g. `rules`. Public so the
    /// connection loop (and the shard router) can stamp the route onto
    /// trace-span attributes and log lines with the exact string the
    /// `/metrics` labels use.
    pub fn label(self) -> &'static str {
        match self {
            Route::IngestUnits => "ingest_units",
            Route::Rules => "rules",
            Route::Items => "items",
            Route::Health => "health",
            Route::Metrics => "metrics",
            Route::Shutdown => "shutdown",
            Route::DebugProfile => "debug_profile",
            Route::DebugEvents => "debug_events",
            Route::DebugSpans => "debug_spans",
            Route::DebugTraces => "debug_traces",
            Route::Other => "other",
        }
    }
}

/// Histogram bucket upper bounds, in microseconds — the workspace-wide
/// const, shared with car-load's client-side histogram so server-side
/// and client-side latency distributions stay directly comparable.
const BUCKET_BOUNDS_US: [u64; 10] = car_obs::LATENCY_BUCKET_BOUNDS_US;

/// Status classes tracked per route.
const CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

#[derive(Default)]
struct RouteCounters {
    by_class: [AtomicU64; 3],
    latency_buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
}

/// All daemon counters. Cheap to share behind an `Arc`.
#[derive(Default)]
pub struct Metrics {
    requests: [RouteCounters; 11],
    latency_buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    units_ingested: AtomicU64,
    transactions_ingested: AtomicU64,
    ingest_rejected: AtomicU64,
    parse_errors: AtomicU64,
    query_cache_hits: AtomicU64,
    query_cache_misses: AtomicU64,
    wal_bytes: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_errors: AtomicU64,
    snapshots: AtomicU64,
    recovery_truncated: AtomicU64,
    shed: AtomicU64,
    header_timeouts: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one completed request: route, status code, latency.
    pub fn record_request(&self, route: Route, status: u16, latency: Duration) {
        let class = match status {
            200..=299 => 0,
            500..=599 => 2,
            _ => 1,
        };
        self.requests[route.index()].by_class[class].fetch_add(1, Ordering::Relaxed);
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        let per_route = &self.requests[route.index()];
        per_route.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        per_route.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        per_route.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successfully enqueued unit with its transaction count.
    pub fn record_ingest(&self, transactions: u64) {
        self.units_ingested.fetch_add(1, Ordering::Relaxed);
        self.transactions_ingested.fetch_add(transactions, Ordering::Relaxed);
    }

    /// Records a unit rejected by backpressure (503).
    pub fn record_ingest_rejected(&self) {
        self.ingest_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rules query served from the epoch-keyed cache.
    pub fn record_query_cache_hit(&self) {
        self.query_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rules query that had to assemble its body from miner
    /// state.
    pub fn record_query_cache_miss(&self) {
        self.query_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Total rules queries served from the cache.
    pub fn query_cache_hits(&self) -> u64 {
        self.query_cache_hits.load(Ordering::Relaxed)
    }

    /// Total rules queries that missed the cache.
    pub fn query_cache_misses(&self) -> u64 {
        self.query_cache_misses.load(Ordering::Relaxed)
    }

    /// Records a request that failed HTTP parsing.
    pub fn record_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful WAL append of `bytes` on-disk bytes.
    pub fn record_wal_append(&self, bytes: u64) {
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one WAL fsync.
    pub fn record_wal_fsync(&self) {
        self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a durability-layer failure (failed append/fsync/snapshot).
    pub fn record_wal_error(&self) {
        self.wal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed snapshot.
    pub fn record_snapshot(&self) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` WAL records discarded by boot recovery (torn/corrupt
    /// tails and untrusted segments after them).
    pub fn record_recovery_truncated(&self, n: u64) {
        self.recovery_truncated.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a connection shed at the admission gate (`503
    /// overloaded`).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request head that did not complete within the
    /// head-read deadline (slow-loris defense).
    pub fn record_header_timeout(&self) {
        self.header_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request answered `504 deadline_exceeded` because its
    /// deadline expired before it could be served.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Total request heads cut off by the head-read deadline.
    pub fn header_timeouts(&self) -> u64 {
        self.header_timeouts.load(Ordering::Relaxed)
    }

    /// Total requests recorded across all routes and classes.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .flat_map(|r| r.by_class.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total units ingested.
    pub fn units_ingested(&self) -> u64 {
        self.units_ingested.load(Ordering::Relaxed)
    }

    /// Total WAL fsyncs performed.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal_fsyncs.load(Ordering::Relaxed)
    }

    /// Total bytes appended to the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Total durability-layer failures.
    pub fn wal_errors(&self) -> u64 {
        self.wal_errors.load(Ordering::Relaxed)
    }

    /// Total snapshots written.
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Total WAL records discarded by recovery.
    pub fn recovery_truncated(&self) -> u64 {
        self.recovery_truncated.load(Ordering::Relaxed)
    }

    /// The counters only a daemon moves: ingest, the query cache, the
    /// WAL, snapshots and recovery, as `(name, help, value)`. The
    /// daemon's `/metrics` passes them to [`Self::render_prometheus`];
    /// a router, which runs none of those, does not.
    pub fn daemon_counters(&self) -> [(&'static str, &'static str, u64); 10] {
        [
            (
                "car_units_ingested_total",
                "Time units accepted into the ingest queue.",
                &self.units_ingested,
            ),
            (
                "car_transactions_ingested_total",
                "Transactions accepted across all ingested units.",
                &self.transactions_ingested,
            ),
            (
                "car_ingest_rejected_total",
                "Units rejected because the ingest queue was full.",
                &self.ingest_rejected,
            ),
            (
                "car_query_cache_hits",
                "Rules queries served from the epoch-keyed response cache.",
                &self.query_cache_hits,
            ),
            (
                "car_query_cache_misses",
                "Rules queries assembled from miner state (cache miss).",
                &self.query_cache_misses,
            ),
            (
                "car_wal_bytes_total",
                "Bytes appended to the write-ahead log.",
                &self.wal_bytes,
            ),
            (
                "car_wal_fsyncs_total",
                "Write-ahead log fsyncs performed.",
                &self.wal_fsyncs,
            ),
            (
                "car_wal_errors_total",
                "Durability-layer failures (append, fsync, snapshot).",
                &self.wal_errors,
            ),
            ("car_snapshots_total", "Window snapshots written.", &self.snapshots),
            (
                "car_recovery_truncated_records_total",
                "WAL records discarded by boot recovery (torn or corrupt).",
                &self.recovery_truncated,
            ),
        ]
        .map(|(name, help, counter)| (name, help, counter.load(Ordering::Relaxed)))
    }

    /// Renders the Prometheus exposition text: the HTTP request and
    /// latency families and the counters every server moves. `counters`
    /// and `gauges` supply values owned by the caller (the daemon's
    /// [`Self::daemon_counters`] and window work, the router's fan-out;
    /// queue depth, retained rules, ...), each as `(name, help, value)`;
    /// the counters are rendered with these metrics' own.
    pub fn render_prometheus(
        &self,
        counters: &[(&str, &str, u64)],
        gauges: &[(&str, &str, f64)],
    ) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP car_http_requests_total HTTP requests served, by route and status class.\n");
        out.push_str("# TYPE car_http_requests_total counter\n");
        for route in Route::ALL {
            for (ci, class) in CLASSES.iter().enumerate() {
                let n = self.requests[route.index()].by_class[ci].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "car_http_requests_total{{route=\"{}\",status=\"{}\"}} {}\n",
                    route.label(),
                    class,
                    n
                ));
            }
        }

        out.push_str(
            "# HELP car_http_request_duration_seconds Request handling latency.\n",
        );
        out.push_str("# TYPE car_http_request_duration_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "car_http_request_duration_seconds_bucket{{le=\"{}\"}} {}\n",
                *bound as f64 / 1e6,
                cumulative
            ));
        }
        cumulative +=
            self.latency_buckets[BUCKET_BOUNDS_US.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "car_http_request_duration_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "car_http_request_duration_seconds_sum {}\n",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "car_http_request_duration_seconds_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));

        // Per-route latency histograms on the same shared bucket bounds,
        // so a slow endpoint is visible without a client-side breakdown.
        out.push_str(
            "# HELP car_request_duration_seconds Request handling latency by route.\n",
        );
        out.push_str("# TYPE car_request_duration_seconds histogram\n");
        for route in Route::ALL {
            let counters = &self.requests[route.index()];
            let mut cumulative = 0u64;
            for (i, bound) in BUCKET_BOUNDS_US.iter().enumerate() {
                cumulative += counters.latency_buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "car_request_duration_seconds_bucket{{route=\"{}\",le=\"{}\"}} {}\n",
                    route.label(),
                    *bound as f64 / 1e6,
                    cumulative
                ));
            }
            cumulative +=
                counters.latency_buckets[BUCKET_BOUNDS_US.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "car_request_duration_seconds_bucket{{route=\"{}\",le=\"+Inf\"}} {}\n",
                route.label(),
                cumulative
            ));
            out.push_str(&format!(
                "car_request_duration_seconds_sum{{route=\"{}\"}} {}\n",
                route.label(),
                counters.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
            ));
            out.push_str(&format!(
                "car_request_duration_seconds_count{{route=\"{}\"}} {}\n",
                route.label(),
                counters.latency_count.load(Ordering::Relaxed)
            ));
        }

        // Every server moves these: the daemon and the router share the
        // connection loop, and each counts its own 504s. Always
        // rendered, even at zero, so dashboards and CI greps can rely on
        // every family existing.
        let own = [
            (
                "car_http_parse_errors_total",
                "Requests rejected by the HTTP parser.",
                &self.parse_errors,
            ),
            (
                "car_shed_total",
                "Requests shed by the admission gate (503 overloaded).",
                &self.shed,
            ),
            (
                "car_header_timeouts_total",
                "Connections dropped for exceeding the header-read deadline.",
                &self.header_timeouts,
            ),
            (
                "car_deadline_exceeded_total",
                "Requests answered 504 because their deadline budget expired.",
                &self.deadline_exceeded,
            ),
        ]
        .map(|(name, help, counter)| (name, help, counter.load(Ordering::Relaxed)));
        for &(name, help, value) in own.iter().chain(counters) {
            out.push_str(&format!("# HELP {name} {help}\n"));
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {value}\n"));
        }

        // Span profile summaries (car-obs flat profile). Sum/count give
        // Prometheus a rate-able average; the observed maximum rides
        // along as a gauge since summaries cannot carry it.
        let profile = car_obs::profile_snapshot();
        out.push_str(
            "# HELP car_span_duration_seconds Time spent inside instrumented spans.\n",
        );
        out.push_str("# TYPE car_span_duration_seconds summary\n");
        for stat in &profile {
            out.push_str(&format!(
                "car_span_duration_seconds_sum{{span=\"{}\"}} {}\n",
                stat.name,
                stat.total_ns as f64 / 1e9
            ));
            out.push_str(&format!(
                "car_span_duration_seconds_count{{span=\"{}\"}} {}\n",
                stat.name, stat.count
            ));
        }
        out.push_str(
            "# HELP car_span_duration_max_seconds Longest single recorded span duration.\n",
        );
        out.push_str("# TYPE car_span_duration_max_seconds gauge\n");
        for stat in &profile {
            out.push_str(&format!(
                "car_span_duration_max_seconds{{span=\"{}\"}} {}\n",
                stat.name,
                stat.max_ns as f64 / 1e9
            ));
        }

        for (name, help, value) in gauges {
            out.push_str(&format!("# HELP {name} {help}\n"));
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_requests_by_class() {
        let m = Metrics::new();
        m.record_request(Route::Rules, 200, Duration::from_micros(300));
        m.record_request(Route::Rules, 404, Duration::from_micros(50));
        m.record_request(Route::IngestUnits, 503, Duration::from_micros(80));
        assert_eq!(m.total_requests(), 3);
        let text = m.render_prometheus(&[], &[]);
        assert!(
            text.contains("car_http_requests_total{route=\"rules\",status=\"2xx\"} 1")
        );
        assert!(
            text.contains("car_http_requests_total{route=\"rules\",status=\"4xx\"} 1")
        );
        assert!(text.contains(
            "car_http_requests_total{route=\"ingest_units\",status=\"5xx\"} 1"
        ));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record_request(Route::Health, 200, Duration::from_micros(90));
        m.record_request(Route::Health, 200, Duration::from_micros(400));
        m.record_request(Route::Health, 200, Duration::from_secs(10));
        let text = m.render_prometheus(&[], &[]);
        assert!(
            text.contains("car_http_request_duration_seconds_bucket{le=\"0.0001\"} 1")
        );
        assert!(
            text.contains("car_http_request_duration_seconds_bucket{le=\"0.0005\"} 2")
        );
        assert!(text.contains("car_http_request_duration_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("car_http_request_duration_seconds_count 3"));
    }

    #[test]
    fn per_route_latency_histogram_renders() {
        let m = Metrics::new();
        m.record_request(Route::Rules, 200, Duration::from_micros(90));
        m.record_request(Route::Rules, 200, Duration::from_micros(400));
        m.record_request(Route::Health, 200, Duration::from_micros(90));
        let text = m.render_prometheus(&[], &[]);
        assert!(text.contains("# TYPE car_request_duration_seconds histogram"));
        assert!(text.contains(
            "car_request_duration_seconds_bucket{route=\"rules\",le=\"0.0001\"} 1"
        ));
        assert!(text.contains(
            "car_request_duration_seconds_bucket{route=\"rules\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("car_request_duration_seconds_count{route=\"rules\"} 2"));
        assert!(text.contains("car_request_duration_seconds_count{route=\"health\"} 1"));
        assert!(
            text.contains("car_request_duration_seconds_count{route=\"debug_traces\"} 0")
        );
    }

    #[test]
    fn ingest_counters_and_gauges() {
        let m = Metrics::new();
        m.record_ingest(120);
        m.record_ingest(80);
        m.record_ingest_rejected();
        m.record_parse_error();
        m.record_query_cache_hit();
        m.record_query_cache_hit();
        m.record_query_cache_miss();
        assert_eq!(m.units_ingested(), 2);
        assert_eq!(m.query_cache_hits(), 2);
        assert_eq!(m.query_cache_misses(), 1);
        // A router renders none of the daemon's families.
        let bare = m.render_prometheus(&[], &[]);
        for (name, _, _) in m.daemon_counters() {
            assert!(!bare.contains(name), "{name}");
        }
        let mut counters = m.daemon_counters().to_vec();
        counters.push(("car_example_total", "A caller's counter.", 5));
        let text = m.render_prometheus(
            &counters,
            &[("car_ingest_queue_depth", "Units waiting in the ingest queue.", 3.0)],
        );
        assert!(text.contains("car_units_ingested_total 2\n"));
        assert!(text.contains("car_transactions_ingested_total 200\n"));
        assert!(text.contains("car_ingest_rejected_total 1\n"));
        assert!(text.contains("car_http_parse_errors_total 1\n"));
        assert!(text.contains("car_query_cache_hits 2\n"));
        assert!(text.contains("car_query_cache_misses 1\n"));
        assert!(text.contains("# TYPE car_query_cache_hits counter\n"));
        assert!(text.contains("# TYPE car_example_total counter\ncar_example_total 5\n"));
        assert!(text.contains("# TYPE car_ingest_queue_depth gauge\n"));
        assert!(text.contains("car_ingest_queue_depth 3\n"));
    }
}
