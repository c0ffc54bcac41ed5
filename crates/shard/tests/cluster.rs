//! In-process cluster tests: real workers and a real router on
//! ephemeral ports, driven over real sockets.
//!
//! The load-bearing properties:
//!
//! * routing units through the router and querying it returns exactly
//!   the rules a single node serves for the same units (byte-identical
//!   `rules` arrays), and
//! * a worker that dies degrades responses (`partial=true`, the
//!   `X-Car-Shards-Degraded` header) without losing the other shards,
//!   and is re-admitted with exact catch-up replay once it is back.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use car_core::MiningConfig;
use car_itemset::ItemSet;
use car_serve::json::Json;
use car_serve::{serve, Client, ServerConfig, ServerHandle, ShardIdentity};
use car_shard::{
    run_router, BreakerConfig, PartitionKey, RouterConfig, RouterHandle, ShardRing,
};

fn mining_config() -> MiningConfig {
    MiningConfig::builder()
        .min_support_count(2)
        .min_confidence(0.5)
        .cycle_bounds(2, 4)
        .build()
        .unwrap()
}

fn worker_config(addr: &str, shard: Option<ShardIdentity>) -> ServerConfig {
    ServerConfig {
        addr: addr.to_string(),
        threads: 2,
        window: 16,
        queue_capacity: 64,
        mining: mining_config(),
        io_timeout: Duration::from_secs(5),
        shard,
        ..ServerConfig::default()
    }
}

fn spawn_worker(addr: &str, shard: Option<ShardIdentity>) -> ServerHandle {
    serve(worker_config(addr, shard)).expect("worker boots")
}

fn spawn_router(workers: &[ServerHandle]) -> RouterHandle {
    run_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr.to_string()).collect(),
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("router boots")
}

fn spawn_cluster(count: u32) -> (Vec<ServerHandle>, RouterHandle) {
    let workers: Vec<ServerHandle> = (0..count)
        .map(|i| {
            spawn_worker(
                "127.0.0.1:0",
                Some(ShardIdentity { shard_id: i, shard_count: count }),
            )
        })
        .collect();
    let router = spawn_router(&workers);
    (workers, router)
}

/// Builds `n` partition-pure units over a `count`-shard ring: each
/// shard's first two pool items form a planted rule `{a} => {b}` that
/// holds on alternating units (cycle length 2), plus antecedent-only
/// noise on the off units.
fn pure_units(count: u32, n: usize) -> Vec<Vec<ItemSet>> {
    let ring = ShardRing::new(count).unwrap();
    let mut pools: Vec<Vec<u32>> = vec![Vec::new(); count as usize];
    for item in 0..64u32 {
        pools[ring.owner_of_key(u64::from(item)) as usize].push(item);
    }
    for (shard, pool) in pools.iter().enumerate() {
        assert!(pool.len() >= 2, "shard {shard} needs two pool items in 0..64");
    }
    (0..n)
        .map(|t| {
            let mut unit = Vec::new();
            for (shard, pool) in pools.iter().enumerate() {
                let (a, b) = (pool[0], pool[1]);
                if (t + shard) % 2 == 0 {
                    for _ in 0..3 {
                        unit.push(ItemSet::from_ids([a, b]));
                    }
                } else {
                    for _ in 0..3 {
                        unit.push(ItemSet::from_ids([a]));
                    }
                }
            }
            unit
        })
        .collect()
}

/// Renders units as the batch ingest wire format.
fn batch_body(units: &[Vec<ItemSet>]) -> Vec<u8> {
    let batch: Vec<Json> = units
        .iter()
        .map(|unit| {
            let txs: Vec<Json> = unit
                .iter()
                .map(|tx| {
                    Json::Array(tx.iter().map(|item| Json::from(item.id())).collect())
                })
                .collect();
            Json::Object(vec![("transactions".to_string(), Json::Array(txs))])
        })
        .collect();
    Json::Array(batch).render().into_bytes()
}

fn rules_array(body: &str) -> String {
    let doc = Json::parse(body).expect("rules body parses");
    doc.get("rules").expect("rules array").render()
}

/// The value of the unlabeled sample `name` in a `/metrics` body.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in {metrics}"))
}

/// Asserts that in a router's `/metrics` body counters, and only
/// counters, end in `_total`, and that it has none of the families only a
/// daemon moves (ingest, the query cache, the WAL, snapshots, recovery).
fn assert_router_families(metrics: &str) {
    for declaration in metrics.lines().filter_map(|line| line.strip_prefix("# TYPE ")) {
        let (name, kind) = declaration.split_once(' ').expect("TYPE names a kind");
        assert_eq!(
            kind == "counter",
            name.ends_with("_total"),
            "{kind} `{name}`: counters, and only counters, end in `_total`"
        );
    }
    for daemon_only in [
        "car_units_ingested_total",
        "car_transactions_ingested_total",
        "car_ingest_rejected_total",
        "car_query_cache_hits",
        "car_query_cache_misses",
        "car_wal_bytes_total",
        "car_wal_fsyncs_total",
        "car_wal_errors_total",
        "car_snapshots_total",
        "car_recovery_truncated_records_total",
    ] {
        assert!(
            !metrics.contains(daemon_only),
            "router exports {daemon_only}: {metrics}"
        );
    }
}

/// Sends `addr` a request head that never ends, one byte every 250 ms,
/// until the server answers or closes, or `give_up` passes. Returns
/// what the server sent (empty if nothing) and when the dribble ended.
fn dribble_head(addr: SocketAddr, give_up: Instant) -> (String, Instant) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(250))).unwrap();
    let mut answer = Vec::new();
    let head =
        b"GET /v1/health HTTP/1.1\r\nx-dribble: ".iter().chain([b'a'].iter().cycle());
    for byte in head {
        if Instant::now() >= give_up || stream.write_all(&[*byte]).is_err() {
            break;
        }
        // Waiting for an answer paces the dribble.
        match stream.read_to_end(&mut answer) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            }
            _ => break,
        }
    }
    (String::from_utf8_lossy(&answer).into_owned(), Instant::now())
}

#[test]
fn routed_rules_match_single_node_byte_for_byte() {
    let units = pure_units(3, 8);
    let (workers, router) = spawn_cluster(3);
    let oracle = spawn_worker("127.0.0.1:0", None);

    let body = batch_body(&units);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();
    let resp = rc.request("POST", "/v1/units?wait=true", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("applied").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));
    assert!(resp.header("x-car-shards-degraded").is_none());

    let mut oc = Client::connect(&oracle.addr.to_string()).unwrap();
    let resp = oc.request("POST", "/v1/units?wait=true", Some(&body)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());

    let routed = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(routed.status, 200, "{}", routed.body_text());
    let single = oc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(single.status, 200, "{}", single.body_text());
    let routed_body = routed.body_text();
    let doc = Json::parse(&routed_body).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));
    // Every worker applied all 8 units (wait=true above), so the merged
    // view reports an agreed epoch — no cross-shard skew.
    assert_eq!(doc.get("epoch_min").and_then(Json::as_u64), Some(8));
    assert_eq!(doc.get("epoch_max").and_then(Json::as_u64), Some(8));
    assert!(!rules_array(&routed_body).contains("[]"), "planted rules must appear");
    assert_eq!(rules_array(&routed_body), rules_array(&single.body_text()));

    // min_conf escalation fans out too and stays equivalent.
    let routed = rc.request("GET", "/v1/rules?min_confidence=0.9", None).unwrap();
    let single = oc.request("GET", "/v1/rules?min_confidence=0.9", None).unwrap();
    assert_eq!((routed.status, single.status), (200, 200));
    assert_eq!(rules_array(&routed.body_text()), rules_array(&single.body_text()));

    // A query value decoding to CR/LF must not reach the worker request
    // line: the router rebuilds the fan-out target from validated
    // parameters only, so the smuggled `POST /v1/shutdown` below is
    // dropped and the workers keep serving.
    let routed = rc
        .request(
            "GET",
            "/v1/rules?min_confidence=0.9&evil=%0d%0aPOST%20/v1/shutdown%20HTTP/1.1",
            None,
        )
        .unwrap();
    assert_eq!(routed.status, 200, "{}", routed.body_text());
    assert_eq!(rules_array(&routed.body_text()), rules_array(&single.body_text()));
    let health = rc.request("GET", "/v1/health", None).unwrap();
    let doc = Json::parse(&health.body_text()).unwrap();
    assert_eq!(doc.get("degraded_shards").and_then(Json::as_u64), Some(0));

    // A below-threshold min_confidence is rejected worker-side; the
    // router forwards the worker's JSON error body as-is (a single
    // envelope, not a re-wrapped one).
    let resp = rc.request("GET", "/v1/rules?min_confidence=0.2", None).unwrap();
    assert_eq!(resp.status, 400);
    let doc = Json::parse(&resp.body_text()).unwrap();
    let msg = doc.get("error").and_then(Json::as_str).expect("plain error envelope");
    assert!(msg.contains("below the mining threshold"), "{msg}");

    // Router health and metrics expose the cluster.
    let health = rc.request("GET", "/v1/health", None).unwrap();
    let doc = Json::parse(&health.body_text()).unwrap();
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(doc.get("shard_count").and_then(Json::as_u64), Some(3));
    assert_eq!(doc.get("degraded_shards").and_then(Json::as_u64), Some(0));
    let metrics = rc.request("GET", "/metrics", None).unwrap().body_text();
    assert!(metrics.contains("car_shard_fanout_total"));
    assert_router_families(&metrics);
    assert_eq!(sample(&metrics, "car_shard_units_routed_total"), 8);
    assert_eq!(sample(&metrics, "car_shard_down_total"), 0);
    // Only a daemon's window moves the online-maintenance counters; the
    // router runs no window and exports no `car_mine_*` family.
    assert!(!metrics.contains("car_mine_"), "{metrics}");

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    oracle.trigger_shutdown();
    oracle.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

#[test]
fn routed_item_supports_match_single_node_and_degrade() {
    let units = pure_units(2, 6);
    let (mut workers, router) = spawn_cluster(2);
    let oracle = spawn_worker("127.0.0.1:0", None);
    let body = batch_body(&units);

    let mut rc = Client::connect(&router.addr.to_string()).unwrap();
    let resp = rc.request("POST", "/v1/units?wait=true", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let mut oc = Client::connect(&oracle.addr.to_string()).unwrap();
    let resp = oc.request("POST", "/v1/units?wait=true", Some(&body)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());

    // The merged per-item supports are byte-identical to a single node
    // that saw the same units: each transaction lives on exactly one
    // shard, so the router's saturating sum reconstructs the oracle's
    // counts exactly (both arrays are sorted by item id).
    let routed = rc.request("GET", "/v1/items", None).unwrap();
    assert_eq!(routed.status, 200, "{}", routed.body_text());
    let single = oc.request("GET", "/v1/items", None).unwrap();
    assert_eq!(single.status, 200, "{}", single.body_text());
    let routed_doc = Json::parse(&routed.body_text()).unwrap();
    let single_doc = Json::parse(&single.body_text()).unwrap();
    assert_eq!(routed_doc.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(routed_doc.get("epoch_min").and_then(Json::as_u64), Some(6));
    assert_eq!(routed_doc.get("epoch_max").and_then(Json::as_u64), Some(6));
    let items = routed_doc.get("items").expect("items array").render();
    assert_ne!(items, "[]", "planted items must appear");
    assert_eq!(items, single_doc.get("items").expect("items array").render());

    // Kill one worker: the merged supports degrade (partial=true, the
    // shard listed) instead of failing.
    let victim = workers.pop().unwrap();
    victim.trigger_shutdown();
    victim.wait();
    let deadline = Instant::now() + Duration::from_secs(10);
    let doc = loop {
        let resp = rc.request("GET", "/v1/items", None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("partial").and_then(Json::as_bool) == Some(true) {
            break doc;
        }
        assert!(Instant::now() < deadline, "dead shard never degraded /v1/items");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(doc.get("degraded").map(Json::render), Some("[1]".to_string()));

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    oracle.trigger_shutdown();
    oracle.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

#[test]
fn dead_worker_degrades_then_catchup_readmits() {
    let units = pure_units(2, 10);
    let (mut workers, router) = spawn_cluster(2);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();

    // Phase 1: all up, route the first six units.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[..6])))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    // Kill worker 1 (clean exit here; the CLI test covers SIGKILL).
    let victim = workers.pop().unwrap();
    let victim_addr = victim.addr;
    victim.trigger_shutdown();
    victim.wait();

    // Phase 2: ingest two more units; the router must degrade, not fail.
    let resp = rc.request("POST", "/v1/units", Some(&batch_body(&units[6..8]))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.header("x-car-shards-degraded"), Some("1"));

    // Queries answer from the surviving shard, marked partial.
    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("degraded").map(Json::render),
        Some("[1]".to_string()),
        "shard 1 is the degraded one"
    );
    assert_eq!(resp.header("x-car-shards-degraded"), Some("1"));

    // Phase 3: resurrect worker 1 on the same address with an empty
    // window; the router must replay everything it missed and re-admit.
    let revived = spawn_worker(
        &victim_addr.to_string(),
        Some(ShardIdentity { shard_id: 1, shard_count: 2 }),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = rc.request("GET", "/v1/health", None).unwrap();
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("degraded_shards").and_then(Json::as_u64) == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "worker 1 was never re-admitted");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Route the final two units, then check exactness against a single
    // node that saw all ten — catch-up replay must have restored
    // alignment.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[8..])))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));

    let oracle = spawn_worker("127.0.0.1:0", None);
    let mut oc = Client::connect(&oracle.addr.to_string()).unwrap();
    let resp =
        oc.request("POST", "/v1/units?wait=true", Some(&batch_body(&units))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());

    let routed = rc.request("GET", "/v1/rules", None).unwrap();
    let single = oc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!((routed.status, single.status), (200, 200));
    let routed_body = routed.body_text();
    let doc = Json::parse(&routed_body).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(rules_array(&routed_body), rules_array(&single.body_text()));

    let metrics = rc.request("GET", "/metrics", None).unwrap().body_text();
    assert!(metrics.contains("car_shard_readmissions_total"));

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in workers.into_iter().chain([revived, oracle]) {
        w.trigger_shutdown();
        w.wait();
    }
}

/// A worker that misses part of an ingest batch (its queue holds two of
/// the batch's three units) is behind the other shards for good unless
/// it is caught up. It leaves at once rather than after three failed
/// legs: every answer is `partial` until the prober's catch-up replay
/// re-admits it, and from then on the cluster answers as a single node.
#[test]
fn failed_ingest_leg_excludes_the_worker_until_catchup() {
    let units = pure_units(2, 10);
    let shard = |shard_id| Some(ShardIdentity { shard_id, shard_count: 2 });
    let short_queue =
        ServerConfig { queue_capacity: 2, ..worker_config("127.0.0.1:0", shard(1)) };
    let workers = vec![
        spawn_worker("127.0.0.1:0", shard(0)),
        serve(short_queue).expect("worker boots"),
    ];
    let router = spawn_router(&workers);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();
    let metric = |rc: &mut Client, name: &str| {
        sample(&rc.request("GET", "/metrics", None).unwrap().body_text(), name)
    };
    let partial =
        |body: &str| Json::parse(body).unwrap().get("partial").and_then(Json::as_bool);

    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[..3])))
        .unwrap();
    assert_eq!(partial(&resp.body_text()), Some(true), "{}", resp.body_text());
    // Until worker 1 is re-admitted, no answer may count on it.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[3..4])))
        .unwrap();
    let body = resp.body_text();
    assert!(
        partial(&body) == Some(true)
            || metric(&mut rc, "car_shard_readmissions_total") > 0,
        "{body}"
    );
    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    let body = resp.body_text();
    assert_eq!(resp.status, 200, "{body}");
    assert!(
        partial(&body) == Some(true)
            || metric(&mut rc, "car_shard_readmissions_total") > 0,
        "{body}"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    while metric(&mut rc, "car_shard_readmissions_total") == 0 {
        assert!(Instant::now() < deadline, "worker 1 was never re-admitted");
        std::thread::sleep(Duration::from_millis(50));
    }
    for unit in units[4..].chunks(1) {
        let resp =
            rc.request("POST", "/v1/units?wait=true", Some(&batch_body(unit))).unwrap();
        assert_eq!(partial(&resp.body_text()), Some(false), "{}", resp.body_text());
    }

    let oracle = spawn_worker("127.0.0.1:0", None);
    let mut oc = Client::connect(&oracle.addr.to_string()).unwrap();
    let resp =
        oc.request("POST", "/v1/units?wait=true", Some(&batch_body(&units))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let routed = rc.request("GET", "/v1/rules", None).unwrap();
    let single = oc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!((routed.status, single.status), (200, 200));
    let routed_body = routed.body_text();
    assert_eq!(partial(&routed_body), Some(false), "{routed_body}");
    let doc = Json::parse(&routed_body).unwrap();
    assert_eq!(doc.get("epoch_min").and_then(Json::as_u64), Some(10));
    assert_eq!(rules_array(&routed_body), rules_array(&single.body_text()));
    assert_eq!(metric(&mut rc, "car_shard_down_total"), 1);
    assert!(metric(&mut rc, "car_shard_catchup_units_total") >= 1);

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in workers.into_iter().chain([oracle]) {
        w.trigger_shutdown();
        w.wait();
    }
}

/// A catch-up replay longer than the worker's queue is taken in part.
/// Worker 1 takes two of a 3-unit batch and misses three single units
/// while it is out; the first round replays the four it lacks and it
/// takes two, the breaker reopens, and a second round replays the last
/// two. The counter counts every unit a replay delivered, four, not
/// only the two of the round that re-admitted it.
#[test]
fn catchup_counts_the_units_of_a_partial_replay() {
    let units = pure_units(2, 6);
    let shard = |shard_id| Some(ShardIdentity { shard_id, shard_count: 2 });
    let short_queue =
        ServerConfig { queue_capacity: 2, ..worker_config("127.0.0.1:0", shard(1)) };
    let workers = vec![
        spawn_worker("127.0.0.1:0", shard(0)),
        serve(short_queue).expect("worker boots"),
    ];
    // A cooldown long enough that the single units are all routed
    // before the first catch-up round.
    let router = run_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr.to_string()).collect(),
        probe_interval: Duration::from_millis(100),
        breaker: BreakerConfig { cooldown: Duration::from_secs(1), ..Default::default() },
        ..RouterConfig::default()
    })
    .expect("router boots");
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();
    let metric = |rc: &mut Client, name: &str| {
        sample(&rc.request("GET", "/metrics", None).unwrap().body_text(), name)
    };
    let partial =
        |body: &str| Json::parse(body).unwrap().get("partial").and_then(Json::as_bool);

    for batch in [&units[..3], &units[3..4], &units[4..5], &units[5..]] {
        let resp =
            rc.request("POST", "/v1/units?wait=true", Some(&batch_body(batch))).unwrap();
        assert_eq!(partial(&resp.body_text()), Some(true), "{}", resp.body_text());
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    while metric(&mut rc, "car_shard_readmissions_total") == 0 {
        assert!(Instant::now() < deadline, "worker 1 was never re-admitted");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(metric(&mut rc, "car_shard_catchup_units_total"), 4);
    let health = rc.request("GET", "/v1/health", None).unwrap().body_text();
    let doc = Json::parse(&health).unwrap();
    let opens = doc
        .get("breakers")
        .and_then(Json::as_array)
        .and_then(|breakers| breakers.get(1))
        .and_then(|breaker| breaker.get("opens"))
        .and_then(Json::as_u64);
    assert_eq!(opens, Some(2), "{health}");
    let mut wc = Client::connect(&workers[1].addr.to_string()).unwrap();
    let worker_health = wc.request("GET", "/v1/health", None).unwrap().body_text();
    let doc = Json::parse(&worker_health).unwrap();
    assert_eq!(
        doc.get("total_pushed").and_then(Json::as_u64),
        Some(6),
        "{worker_health}"
    );

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

#[test]
fn all_workers_down_buffers_with_202_then_replays_once() {
    let units = pure_units(1, 6);
    let (mut workers, router) = spawn_cluster(1);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();

    // Kill the only worker, then ingest. The units are committed to the
    // replay ring, so the answer must be a non-retryable 202 — a 503
    // would make retrying clients buffer (and later replay) the batch
    // twice.
    let victim = workers.pop().unwrap();
    let victim_addr = victim.addr;
    victim.trigger_shutdown();
    victim.wait();

    let resp = rc.request("POST", "/v1/units", Some(&batch_body(&units))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("applied").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("units_routed").and_then(Json::as_u64), Some(6));
    assert_eq!(resp.header("x-car-shards-degraded"), Some("1"));

    // Queries meanwhile have no live leg to serve from.
    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_text());

    // Revive the worker empty; re-admission must replay the buffered
    // units exactly once, restoring single-node equivalence.
    let revived = spawn_worker(
        &victim_addr.to_string(),
        Some(ShardIdentity { shard_id: 0, shard_count: 1 }),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = rc.request("GET", "/v1/health", None).unwrap();
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("degraded_shards").and_then(Json::as_u64) == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "worker was never re-admitted");
        std::thread::sleep(Duration::from_millis(50));
    }

    let oracle = spawn_worker("127.0.0.1:0", None);
    let mut oc = Client::connect(&oracle.addr.to_string()).unwrap();
    let resp =
        oc.request("POST", "/v1/units?wait=true", Some(&batch_body(&units))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());

    let routed = rc.request("GET", "/v1/rules", None).unwrap();
    let single = oc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!((routed.status, single.status), (200, 200));
    let routed_body = routed.body_text();
    let doc = Json::parse(&routed_body).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("epoch_min").and_then(Json::as_u64),
        Some(6),
        "replayed exactly once — a duplicated replay would double the epoch"
    );
    assert_eq!(rules_array(&routed_body), rules_array(&single.body_text()));

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in [revived, oracle] {
        w.trigger_shutdown();
        w.wait();
    }
}

#[test]
fn router_rejects_empty_worker_list_and_bad_bodies() {
    assert!(run_router(RouterConfig::default()).is_err());

    let (workers, router) = spawn_cluster(1);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();
    let resp = rc.request("POST", "/v1/units", Some(b"not json")).unwrap();
    assert_eq!(resp.status, 400);
    let resp = rc.request("GET", "/v1/rules?length=banana", None).unwrap();
    assert_eq!(resp.status, 400);
    // Querying before l_max units are retained mirrors the worker 409.
    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body_text());
    let resp = rc.request("DELETE", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 405);

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

/// A client deadline that is already spent: every query leg times out
/// before it is sent, the router answers `504` with every shard
/// degraded, and no breaker counts the lost legs against its worker.
#[test]
fn spent_client_deadline_times_out_every_leg_without_tripping_breakers() {
    let units = pure_units(3, 8);
    let (workers, router) = spawn_cluster(3);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();
    let resp =
        rc.request("POST", "/v1/units?wait=true", Some(&batch_body(&units))).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    let spent = [("x-car-deadline-ms", "0".to_string())];
    let mut rules_trace = None;
    for target in ["/v1/rules", "/v1/items"] {
        let resp = rc.try_request("GET", target, &spent, None).unwrap();
        assert_eq!(resp.status, 504, "{target}: {}", resp.body_text());
        let doc = Json::parse(&resp.body_text()).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("deadline_exceeded"));
        assert_eq!(resp.header("x-car-shards-degraded"), Some("3"), "{target}");
        if target == "/v1/rules" {
            rules_trace = resp.header("x-car-trace-id").map(str::to_string);
        }
    }

    // A spent budget says nothing about the workers' health.
    let health = rc.request("GET", "/v1/health", None).unwrap();
    let doc = Json::parse(&health.body_text()).unwrap();
    let breakers = doc.get("breakers").and_then(Json::as_array).unwrap();
    assert_eq!(breakers.len(), 3);
    for breaker in breakers {
        assert_eq!(breaker.get("state").and_then(Json::as_str), Some("closed"));
        assert_eq!(breaker.get("opens").and_then(Json::as_u64), Some(0));
    }
    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    // Every lost leg was counted as a leg before it failed: 3 legs for
    // each of the two spent queries and 3 for the served one. The router
    // counted its own two 504s.
    let metrics = rc.request("GET", "/metrics", None).unwrap().body_text();
    assert_eq!(sample(&metrics, "car_shard_fanout_total"), 9);
    assert_eq!(sample(&metrics, "car_shard_fanout_failures_total"), 6);
    assert_eq!(sample(&metrics, "car_shard_deadline_exceeded_total"), 6);
    assert_eq!(sample(&metrics, "car_deadline_exceeded_total"), 2);

    // The 504 is an errored trace, so it is always retained: one timed
    // out leg per shard.
    let rules_trace = rules_trace.expect("the 504 carries its trace id");
    let tree = rc
        .request("GET", &format!("/v1/debug/traces?trace_id={rules_trace}"), None)
        .unwrap();
    assert_eq!(tree.status, 200, "{}", tree.body_text());
    let doc = Json::parse(&tree.body_text()).unwrap();
    let spans = doc.get("spans").and_then(Json::as_array).unwrap();
    let outcomes: Vec<Option<&str>> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("router.leg.rules"))
        .map(|s| s.get("attrs").and_then(|a| a.get("outcome")).and_then(Json::as_str))
        .collect();
    assert_eq!(outcomes, [Some("timed_out"); 3], "{}", tree.body_text());

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

/// A client that dribbles its request head is answered `408` at the
/// router's head deadline instead of holding a router thread.
#[test]
fn dribbled_request_head_is_cut_off_with_408() {
    let (workers, router) = spawn_cluster(1);
    let started = Instant::now();
    let (answer, ended) = dribble_head(router.addr, started + Duration::from_secs(8));
    assert!(answer.starts_with("HTTP/1.1 408"), "no 408 within 8 s: {answer:?}");
    assert!(ended - started < Duration::from_secs(8));

    router.trigger_shutdown();
    router.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

/// Four dribbling clients on a four-thread router do not starve its
/// health endpoint: each is cut off at the head deadline, and the
/// queued health request is answered.
#[test]
fn dribbling_clients_do_not_starve_router_health() {
    let (workers, router) = spawn_cluster(1);
    assert_eq!(RouterConfig::default().threads, 4);
    let give_up = Instant::now() + Duration::from_secs(12);
    let dribblers: Vec<_> = (0..4)
        .map(|_| {
            let addr = router.addr;
            std::thread::spawn(move || dribble_head(addr, give_up))
        })
        .collect();
    std::thread::sleep(Duration::from_secs(1));

    let sent = Instant::now();
    let answered =
        Client::connect_with_timeout(&router.addr.to_string(), Duration::from_secs(8))
            .and_then(|mut hc| hc.request("GET", "/v1/health", None));
    let took = sent.elapsed();
    let status = answered.as_ref().map(|r| r.status).map_err(ToString::to_string);
    assert_eq!(status, Ok(200), "health after {took:?}");
    assert!(took < Duration::from_secs(8), "health took {took:?}");
    for dribbler in dribblers {
        let (answer, _) = dribbler.join().unwrap();
        assert!(answer.starts_with("HTTP/1.1 408"), "{answer:?}");
    }

    router.trigger_shutdown();
    router.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

/// Four clients on a four-thread router, idle after one request each or
/// connected and silent, do not starve a fifth: an idle connection
/// gives its thread up as soon as the new one is queued.
#[test]
fn idle_keep_alive_clients_do_not_starve_router_health() {
    assert_eq!(RouterConfig::default().threads, 4);
    // Four clients idle after one request each, or connected and silent.
    for served_first in [true, false] {
        let (workers, router) = spawn_cluster(1);
        let addr = router.addr.to_string();
        let idle: Vec<Client> = (0..4)
            .map(|_| {
                let mut client = Client::connect(&addr).unwrap();
                if served_first {
                    let status =
                        client.request("GET", "/v1/health", None).unwrap().status;
                    assert_eq!(status, 200);
                }
                client
            })
            .collect();

        let sent = Instant::now();
        let answered = Client::connect_with_timeout(&addr, Duration::from_secs(8))
            .and_then(|mut hc| hc.request("GET", "/v1/health", None));
        let took = sent.elapsed();
        let status = answered.as_ref().map(|r| r.status).map_err(ToString::to_string);
        assert_eq!(
            status,
            Ok(200),
            "health after {took:?} (served first: {served_first})"
        );
        assert!(
            took < Duration::from_secs(1),
            "health took {took:?} (served first: {served_first})"
        );

        drop(idle);
        router.trigger_shutdown();
        router.wait();
        for w in workers {
            w.trigger_shutdown();
            w.wait();
        }
    }
}

/// End-to-end distributed tracing: a client-chosen trace id (picked so
/// the deterministic 1-in-N sampler retains it) flows through the
/// router, fans out to both workers, and comes back as one assembled
/// tree — router root, one `router.leg.*` span per shard, and each
/// worker's own `serve.request` span nested under its leg.
#[test]
fn traced_requests_assemble_cross_shard_trees() {
    let units = pure_units(2, 8);
    let (workers, router) = spawn_cluster(2);
    let mut rc = Client::connect(&router.addr.to_string()).unwrap();

    // low64 = 0xa0 = 160; 160 % 16 == 0, so the sampler keeps it.
    let ingest_id = "000000000000000000000000000000a0";
    let body = batch_body(&units);
    let resp = rc
        .try_request(
            "POST",
            "/v1/units?wait=true",
            &[("x-car-trace-id", ingest_id.to_string())],
            Some(&body),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-car-trace-id"), Some(ingest_id));

    // low64 = 0x10 = 16; 16 % 16 == 0 — retained too.
    let rules_id = "00000000000000000000000000000010";
    let resp = rc
        .try_request(
            "GET",
            "/v1/rules",
            &[("x-car-trace-id", rules_id.to_string())],
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-car-trace-id"), Some(rules_id));

    // The listing shows both retained traces, newest first.
    let list = rc.request("GET", "/v1/debug/traces", None).unwrap();
    assert_eq!(list.status, 200);
    let doc = Json::parse(&list.body_text()).unwrap();
    let traces = doc.get("traces").and_then(Json::as_array).unwrap();
    for id in [ingest_id, rules_id] {
        assert!(
            traces.iter().any(|t| t.get("trace_id").and_then(Json::as_str) == Some(id)),
            "trace {id} missing from {}",
            list.body_text()
        );
    }

    // The rules trace is a tree: one parentless router root, a
    // router.leg.rules span per shard (with shard/outcome/epoch attrs),
    // and each worker's serve.request span parented to its leg.
    let tree = rc
        .request("GET", &format!("/v1/debug/traces?trace_id={rules_id}"), None)
        .unwrap();
    assert_eq!(tree.status, 200, "{}", tree.body_text());
    let doc = Json::parse(&tree.body_text()).unwrap();
    let spans = doc.get("spans").and_then(Json::as_array).unwrap();
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Json::as_str), Some("router.request"));
    assert_eq!(root.get("parent"), Some(&Json::Null));
    let root_uid = root.get("uid").and_then(Json::as_str).unwrap();
    let attr = |s: &Json, key: &str| {
        s.get("attrs").and_then(|a| a.get(key)).and_then(Json::as_str).map(str::to_string)
    };
    assert_eq!(attr(root, "route").as_deref(), Some("rules"));
    let legs: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("router.leg.rules"))
        .collect();
    assert_eq!(legs.len(), 2, "one rules leg per shard: {}", tree.body_text());
    let mut leg_shards: Vec<String> =
        legs.iter().filter_map(|l| attr(l, "shard")).collect();
    leg_shards.sort();
    assert_eq!(leg_shards, ["0", "1"]);
    for leg in &legs {
        assert_eq!(leg.get("parent").and_then(Json::as_str), Some(root_uid));
        assert_eq!(attr(leg, "outcome").as_deref(), Some("ok"));
        assert_eq!(attr(leg, "epoch").as_deref(), Some("8"));
        // The worker's own request span nests under this leg.
        let leg_uid = leg.get("uid").and_then(Json::as_str).unwrap();
        let worker_span = spans
            .iter()
            .find(|s| {
                s.get("parent").and_then(Json::as_str) == Some(leg_uid)
                    && s.get("name").and_then(Json::as_str) == Some("serve.request")
            })
            .unwrap_or_else(|| {
                panic!("no worker span under leg {leg_uid}: {}", tree.body_text())
            });
        assert_eq!(attr(worker_span, "route").as_deref(), Some("rules"));
    }

    // The ingest trace carries a leg per shard too.
    let tree = rc
        .request("GET", &format!("/v1/debug/traces?trace_id={ingest_id}"), None)
        .unwrap();
    assert_eq!(tree.status, 200, "{}", tree.body_text());
    let ingest_legs = tree.body_text().matches("router.leg.ingest").count();
    assert!(ingest_legs >= 2, "expected 2+ ingest legs, got {ingest_legs}");

    // Chrome export parses as JSON with one event per span.
    let chrome = rc
        .request(
            "GET",
            &format!("/v1/debug/traces?trace_id={rules_id}&format=chrome"),
            None,
        )
        .unwrap();
    assert_eq!(chrome.status, 200);
    let doc = Json::parse(&chrome.body_text()).expect("chrome export is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    assert_eq!(events.len(), spans.len());
    assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

    // The retention counter families are exported exactly once, from
    // the router's trace store.
    let metrics = rc.request("GET", "/metrics", None).unwrap().body_text();
    for family in ["car_trace_retained_total", "car_trace_discarded_total"] {
        let type_line = format!("# TYPE {family} counter");
        assert_eq!(metrics.matches(&type_line).count(), 1, "{family} family duplicated");
    }

    // Hostile and unknown ids: 400 / 404, never a 500.
    let resp = rc.request("GET", "/v1/debug/traces?trace_id=zz", None).unwrap();
    assert_eq!(resp.status, 400);
    let resp = rc
        .request(
            "GET",
            "/v1/debug/traces?trace_id=00000000000000000000000000000011",
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 404);

    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    router.wait();
    for w in workers {
        w.trigger_shutdown();
        w.wait();
    }
}

/// The `PartitionKey` re-export is part of the crate's public surface
/// used by the CLI; keep it honest.
#[test]
fn partition_key_parses_both_forms() {
    assert_eq!("min-item".parse::<PartitionKey>().unwrap(), PartitionKey::MinItem);
    assert_eq!("max-item".parse::<PartitionKey>().unwrap(), PartitionKey::MaxItem);
    assert!("ring".parse::<PartitionKey>().is_err());
}
