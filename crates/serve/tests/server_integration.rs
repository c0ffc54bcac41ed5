//! End-to-end tests: a real daemon on an ephemeral port, driven over
//! real sockets, checked against batch mining.
//!
//! The load-bearing property is the serving guarantee: after ingesting a
//! stream of units, `GET /v1/rules` returns exactly the cyclic rules
//! that batch-mining the retained window produces — the daemon is a
//! faithful online view of the paper's SEQUENTIAL algorithm.

mod common;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use car_core::sequential::mine_sequential;
use car_datagen::{generate_cyclic, CyclicConfig};
use car_itemset::{ItemSet, SegmentedDb};
use car_serve::json::Json;
use car_serve::{serve, Client, ServerConfig};
use common::{batch_rules, mining_config, served_rules, unit_body, WINDOW};

fn test_server(queue_capacity: usize) -> car_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 3,
        window: WINDOW,
        queue_capacity,
        mining: mining_config(0.6),
        io_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("server boots on an ephemeral port")
}

#[test]
fn served_rules_match_batch_mining_the_retained_window() {
    let data = generate_cyclic(
        &CyclicConfig::default()
            .with_units(12)
            .with_transactions_per_unit(60)
            .with_num_cyclic_patterns(4)
            .with_cycle_length_range(2, 4),
        42,
    );
    let handle = test_server(16);
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    for i in 0..data.db.num_units() {
        let body = unit_body(data.db.unit(i));
        let resp =
            client.request("POST", "/v1/units?wait=true", Some(&body)).expect("ingest");
        assert_eq!(resp.status, 200, "unit {i}: {}", resp.body_text());
    }

    // The daemon retains the last WINDOW units; batch-mine exactly those.
    let start = data.db.num_units() - WINDOW;
    let retained: Vec<Vec<ItemSet>> =
        (start..data.db.num_units()).map(|i| data.db.unit(i).to_vec()).collect();
    let window_db = SegmentedDb::from_unit_itemsets(retained);

    let resp = client.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("units_retained").and_then(Json::as_u64), Some(WINDOW as u64));
    let batch = mine_sequential(&window_db, &mining_config(0.6)).unwrap();
    assert_eq!(
        served_rules(&doc),
        batch_rules(&batch.rules),
        "server must agree with batch mining the retained window"
    );
    assert!(!batch.rules.is_empty(), "test data should produce cyclic rules");

    // Query-time confidence escalation must equal batch mining at the
    // stricter threshold.
    let resp = client.request("GET", "/v1/rules?min_confidence=0.8", None).unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.body_text()).unwrap();
    let strict = mine_sequential(&window_db, &mining_config(0.8)).unwrap();
    assert_eq!(served_rules(&doc), batch_rules(&strict.rules));

    // Cycle-length filtering: every returned cycle has the asked length,
    // and the rule set is exactly the batch rules restricted to it.
    let resp = client.request("GET", "/v1/rules?length=2", None).unwrap();
    let doc = Json::parse(&resp.body_text()).unwrap();
    let expected: BTreeSet<_> = batch_rules(&batch.rules)
        .into_iter()
        .filter_map(|(name, cycles)| {
            let kept: Vec<_> = cycles.into_iter().filter(|&(l, _)| l == 2).collect();
            (!kept.is_empty()).then_some((name, kept))
        })
        .collect();
    assert_eq!(served_rules(&doc), expected);

    // Metrics reflect the ingest.
    let resp = client.request("GET", "/metrics", None).unwrap();
    let text = resp.body_text();
    assert!(text.contains("car_units_ingested_total 12"), "{text}");
    assert!(text.contains(&format!("car_window_units_retained {WINDOW}")), "{text}");
    assert!(text.contains("car_window_evictions_total 4"), "{text}");
    assert!(text.contains(&format!("car_rules_current {}", batch.rules.len())), "{text}");

    handle.trigger_shutdown();
    let stats = handle.wait();
    assert_eq!(stats.units_ingested, 12);
    assert_eq!(stats.units_retained, WINDOW);
    assert_eq!(stats.evictions, 4);
}

#[test]
fn full_queue_applies_backpressure_then_recovers() {
    let handle = test_server(2);
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let body = unit_body(&[ItemSet::from_ids([1u32, 2]), ItemSet::from_ids([1u32, 2])]);

    // Hold the miner write lock so the applier stalls and the queue
    // actually fills.
    {
        let state = handle.state().clone();
        let guard = state.miner.write().unwrap();
        let mut saw_503 = false;
        for _ in 0..4 {
            let resp = client.request("POST", "/v1/units", Some(&body)).unwrap();
            match resp.status {
                202 => {}
                503 => saw_503 = true,
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(saw_503, "queue of capacity 2 must shed the 4th unit");
        drop(guard);
    }

    // Once the applier drains, ingest works again. Releasing the lock
    // does not drain the queue at once, so wait (bounded) for the
    // applier to empty it before the next post.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.request("GET", "/v1/health", None).unwrap();
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("queue_depth").and_then(Json::as_u64) == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "ingest queue never drained: {}",
            resp.body_text()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = client.request("POST", "/v1/units?wait=true", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    let resp = client.request("GET", "/metrics", None).unwrap();
    assert!(resp.body_text().contains("car_ingest_rejected_total"));
    handle.trigger_shutdown();
    handle.wait();
}

#[test]
fn malformed_requests_get_clean_4xx_not_hangs() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let handle = test_server(4);
    let addr = handle.addr;

    let exchange = |raw: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(raw).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    };

    let resp = exchange(b"NONSENSE\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    let resp = exchange(b"POST /v1/units HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    let resp = exchange(b"POST /v1/units HTTP/1.1\r\ncontent-length: 7\r\n\r\nnot json");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    let resp = exchange(b"GET /v1/rules HTTP/2\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 505"), "{resp}");

    // The daemon is still healthy afterwards.
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let resp = client.request("GET", "/v1/health", None).unwrap();
    assert_eq!(resp.status, 200);

    handle.trigger_shutdown();
    handle.wait();
}

#[test]
fn hostile_bodies_are_rejected_and_the_worker_survives() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let handle = test_server(4);
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    // A body nested beyond the JSON parser's depth limit must come back
    // as a clean 400 — the recursive parser bails at MAX_DEPTH instead
    // of overflowing the worker's stack.
    let deep = format!("{{\"transactions\": {}{}}}", "[".repeat(300), "]".repeat(300));
    let resp = client.request("POST", "/v1/units", Some(deep.as_bytes())).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_text());

    // Keep-alive means the next request rides the same connection, and a
    // connection is pinned to one pool worker — a 200 here proves that
    // worker survived the hostile body.
    let resp = client.request("GET", "/v1/health", None).unwrap();
    assert_eq!(resp.status, 200);

    // Malformed JSON: clean 400, worker still alive.
    let resp = client.request("POST", "/v1/units", Some(b"{not json")).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_text());
    let resp = client.request("GET", "/v1/health", None).unwrap();
    assert_eq!(resp.status, 200);

    // Oversized body: 413 rejected from the declared length alone (the
    // parse error closes that connection by design).
    let mut stream = TcpStream::connect(handle.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
        .write_all(b"POST /v1/units HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 413"), "{out}");

    // The daemon as a whole still serves; nothing leaked or wedged.
    let resp = client.request("GET", "/v1/health", None).unwrap();
    assert_eq!(resp.status, 200);

    handle.trigger_shutdown();
    handle.wait();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let handle = test_server(8);
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let body = unit_body(&vec![ItemSet::from_ids([5u32, 6]); 3]);
    for _ in 0..3 {
        let resp = client.request("POST", "/v1/units", Some(&body)).unwrap();
        assert_eq!(resp.status, 202);
    }
    let resp = client.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    let stats = handle.wait();
    // Everything accepted before shutdown is applied, never dropped.
    assert_eq!(stats.units_ingested, 3);
    assert_eq!(stats.units_retained, 3);
    assert_eq!(stats.requests, 4);
}
