//! Tracing acceptance test: a 3-shard cluster with a chaos delay proxy
//! in front of one worker. A traced `/v1/rules` fan-out must yield one
//! assembled trace with a `router.leg.rules` span per shard, each
//! carrying the worker's own `serve.request` span shipped back through
//! the proxy — and the chaos-delayed shard's leg measurably longest.
//!
//! The chaos delay is applied per *connection* (at accept, before any
//! byte is forwarded), while the router keeps leg connections alive.
//! To make the delay land on the traced request the test ingests
//! directly into the workers, starts the router with a one-hour probe
//! interval (only the startup baseline probe runs), and lets the
//! workers' short `--io-timeout-secs` close the idle leg connections.
//! The traced fan-out then reconnects every leg; shard 1's reconnect
//! goes through the proxy and eats the full pre-forward delay.

use std::time::Duration;

use car_chaos::{run_proxy, ChaosConfig, ChaosHandle, ScheduleConfig};
use car_serve::json::Json;
use car_serve::Client;

mod common;
use common::{batch_body, pure_units, spawn_banner, spawn_worker, Daemon, SHARDS};

const DELAYED_SHARD: usize = 1;
/// Pre-forward delay on every connection through the chaos proxy.
const DELAY_MS: u64 = 400;
/// Worker-side idle timeout; the test sleeps past it so the router's
/// baseline-probe connections are closed before the traced request.
const WORKER_IO_TIMEOUT_SECS: u64 = 2;
/// Client-chosen trace id whose low 64 bits are divisible by the tail
/// sampler's 1-in-16 modulus, so retention never depends on timing.
const TRACE_ID: &str = "000000000000000000000000000000c0";

/// A delay-only chaos proxy: every accepted connection sleeps
/// `DELAY_MS` before the first byte is forwarded.
fn spawn_delay_proxy(upstream: &str) -> ChaosHandle {
    run_proxy(ChaosConfig {
        listen: "127.0.0.1:0".into(),
        upstream: upstream.to_string(),
        seed: 5,
        schedule: ScheduleConfig {
            delay: Some((1.0, DELAY_MS, DELAY_MS)),
            ..ScheduleConfig::default()
        },
        arm_on_start: false,
    })
    .expect("chaos proxy boots")
}

/// One span, pulled out of the assembled-trace JSON.
struct Span {
    uid: String,
    parent: Option<String>,
    name: String,
    dur_us: u64,
    attrs: Vec<(String, String)>,
}

impl Span {
    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn parse_spans(doc: &Json) -> Vec<Span> {
    doc.get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .map(|s| Span {
            uid: s.get("uid").and_then(Json::as_str).expect("uid").to_string(),
            parent: s.get("parent").and_then(Json::as_str).map(str::to_string),
            name: s.get("name").and_then(Json::as_str).expect("name").to_string(),
            dur_us: s.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
            attrs: match s.get("attrs") {
                Some(Json::Object(fields)) => fields
                    .iter()
                    .filter_map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_string())))
                    .collect(),
                _ => Vec::new(),
            },
        })
        .collect()
}

#[test]
fn chaos_delayed_shard_shows_up_as_the_longest_leg() {
    // Every shard owns a planted alternating rule, so all three workers
    // are `ready` and answer `/v1/rules` with data.
    let units = pure_units(SHARDS, 8);
    let io_timeout = WORKER_IO_TIMEOUT_SECS.to_string();
    let workers: Vec<Daemon> = (0..SHARDS)
        .map(|i| spawn_worker(i, 0, &["--io-timeout-secs", &io_timeout]))
        .collect();

    // Ingest directly into every worker (each filters to its own
    // shard), so all three are `ready` before the router's baseline
    // probe and the router's leg clients stay untouched until the
    // traced fan-out.
    for worker in &workers {
        let mut c = Client::connect(&worker.addr).expect("worker reachable");
        let resp = c
            .request("POST", "/v1/units?wait=true", Some(&batch_body(&units)))
            .expect("direct ingest");
        assert!(
            (200..300).contains(&resp.status),
            "{} {}",
            resp.status,
            resp.body_text()
        );
        let doc = Json::parse(&resp.body_text()).unwrap();
        assert_eq!(doc.get("applied").and_then(Json::as_bool), Some(true));
    }

    // Shard 1 sits behind the delay proxy; the others are direct.
    let proxy = spawn_delay_proxy(&workers[DELAYED_SHARD].addr);
    let mut leg_addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    leg_addrs[DELAYED_SHARD] = proxy.addr().to_string();

    let router = spawn_banner(
        &[
            "shard",
            "--port",
            "0",
            "--workers",
            &leg_addrs.join(","),
            // Only the startup baseline probe runs during the test, so
            // no probe traffic re-warms the leg connections after the
            // workers' idle timeout closes them.
            "--probe-interval-ms",
            "3600000",
            "--retry",
            "2",
            "--timeout-secs",
            "5",
        ],
        "car-shard router listening on http://",
    );
    let mut rc =
        Client::connect_with_timeout(&router.addr, Duration::from_secs(30)).unwrap();

    // Let the workers' io timeout close every idle leg connection; the
    // traced request below must reconnect each leg, and shard 1's
    // reconnect pays the proxy's pre-forward delay.
    std::thread::sleep(Duration::from_secs(WORKER_IO_TIMEOUT_SECS + 1));

    let resp = rc
        .try_request(
            "GET",
            "/v1/rules",
            &[("x-car-trace-id", TRACE_ID.to_string())],
            None,
        )
        .expect("traced rules fan-out");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-car-trace-id"), Some(TRACE_ID));
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));

    // The trace must be retained (sampled id; the delayed leg also
    // pushes it over the slow threshold) and assemble into one tree.
    let resp = rc
        .request("GET", &format!("/v1/debug/traces?trace_id={TRACE_ID}"), None)
        .expect("trace fetch");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("trace_id").and_then(Json::as_str), Some(TRACE_ID));
    let spans = parse_spans(&doc);

    let root = &spans[0];
    assert_eq!(root.name, "router.request");
    assert!(root.parent.is_none());
    assert_eq!(root.attr("route"), Some("rules"));

    // One leg per shard, every one answered by its worker.
    let legs: Vec<&Span> =
        spans.iter().filter(|s| s.name == "router.leg.rules").collect();
    assert_eq!(legs.len(), SHARDS as usize, "one rules leg per shard");
    let mut shard_attrs: Vec<&str> =
        legs.iter().filter_map(|l| l.attr("shard")).collect();
    shard_attrs.sort_unstable();
    assert_eq!(shard_attrs, ["0", "1", "2"]);
    for leg in &legs {
        assert_eq!(leg.parent.as_deref(), Some(root.uid.as_str()));
        assert_eq!(leg.attr("outcome"), Some("ok"), "shard {:?}", leg.attr("shard"));
        // The worker's own span came back through the wire (for shard 1,
        // through the chaos proxy) and nests under this leg.
        let child = spans
            .iter()
            .find(|s| s.parent.as_deref() == Some(leg.uid.as_str()))
            .unwrap_or_else(|| {
                panic!("leg for shard {:?} has no worker span", leg.attr("shard"))
            });
        assert_eq!(child.name, "serve.request");
        assert_eq!(child.attr("route"), Some("rules"));
    }

    // The chaos-delayed shard's leg is measurably the longest: it ate
    // the full pre-forward delay, the direct legs only a reconnect.
    let delayed =
        legs.iter().find(|l| l.attr("shard") == Some("1")).expect("delayed shard leg");
    let delay_floor_us = DELAY_MS.saturating_mul(1_000).saturating_mul(3) / 4;
    assert!(
        delayed.dur_us >= delay_floor_us,
        "delayed leg {}us must carry the {DELAY_MS}ms connection delay",
        delayed.dur_us
    );
    for leg in &legs {
        if leg.attr("shard") == Some("1") {
            continue;
        }
        assert!(
            leg.dur_us.saturating_mul(2) <= delayed.dur_us,
            "shard {:?} leg {}us should be far below the delayed leg {}us",
            leg.attr("shard"),
            leg.dur_us,
            delayed.dur_us
        );
    }

    // The same trace exports as Chrome trace_event JSON.
    let resp = rc
        .request(
            "GET",
            &format!("/v1/debug/traces?trace_id={TRACE_ID}&format=chrome"),
            None,
        )
        .expect("chrome export");
    assert_eq!(resp.status, 200);
    let chrome = Json::parse(&resp.body_text()).expect("chrome export parses");
    let events =
        chrome.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert_eq!(events.len(), spans.len());

    // Graceful teardown: router first, then proxy, then the workers.
    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    drop(rc);
    let mut router = router;
    assert!(router.child.wait().expect("reaped").success());
    let mut proxy = proxy;
    proxy.stop();
    for (i, mut worker) in workers.into_iter().enumerate() {
        let mut c = Client::connect(&worker.addr).unwrap();
        let resp = c.request("POST", "/v1/shutdown", None).unwrap();
        assert_eq!(resp.status, 200);
        drop(c);
        assert!(worker.child.wait().expect("reaped").success(), "worker {i}");
    }
}
