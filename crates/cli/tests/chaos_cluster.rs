//! Chaos acceptance test: the sharded cluster behind deterministic
//! fault-injecting proxies. Every worker sits behind a `car-chaos`
//! proxy that delays every connection a few milliseconds; the proxy in
//! front of shard 1 additionally carries a timed full partition. The
//! test ingests through the faults, partitions shard 1 mid-stream,
//! watches its circuit breaker open, lets the partition heal, and then
//! requires byte-exact convergence with a no-fault single-node oracle —
//! the replay ring must deliver every sub-unit the partition swallowed.

use std::time::{Duration, Instant};

use car_chaos::{
    run_proxy, ChaosConfig, ChaosHandle, Direction, FaultSchedule, PartitionWindow,
    ScheduleConfig,
};
use car_serve::json::Json;
use car_serve::Client;

mod common;
use common::{
    batch_body, canonical, oracle_rules, pure_units, router_health, served, spawn_banner,
    spawn_worker, wait_degraded_shards, Daemon, SHARDS,
};

const CHAOS_SEED: u64 = 11;
// The partition must outlive two probe timeouts (2 × `--timeout-secs`)
// so the breaker provably opens while the link is still down, with
// headroom for a loaded machine.
const PARTITION: Duration = Duration::from_secs(6);

/// Every proxy delays each connection 1-3ms (the always-on fault the
/// cluster must shrug off); the schedule in front of the victim shard
/// additionally carries the timed partition, armed later by the test.
fn delay_schedule() -> ScheduleConfig {
    ScheduleConfig { delay: Some((1.0, 1, 3)), ..ScheduleConfig::default() }
}

fn spawn_proxy(upstream: &str, partition: bool) -> ChaosHandle {
    let mut schedule = delay_schedule();
    if partition {
        schedule.partitions = vec![PartitionWindow {
            start: Duration::ZERO,
            duration: PARTITION,
            dir: Direction::Both,
        }];
    }
    run_proxy(ChaosConfig {
        listen: "127.0.0.1:0".into(),
        upstream: upstream.to_string(),
        seed: CHAOS_SEED,
        schedule,
        arm_on_start: false,
    })
    .expect("chaos proxy boots")
}

fn breaker_state(doc: &Json, shard: u64) -> Option<String> {
    doc.get("breakers")
        .and_then(Json::as_array)?
        .iter()
        .find(|b| b.get("shard_id").and_then(Json::as_u64) == Some(shard))?
        .get("state")
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn wait_breaker_state(client: &mut Client, shard: u64, want: &str, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = router_health(client);
        if breaker_state(&doc, shard).as_deref() == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: shard {shard} breaker never reached `{want}`; health {}",
            doc.render()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn partitioned_shard_opens_breaker_then_cluster_converges_exactly() {
    let units = pure_units(SHARDS, 10);

    let workers: Vec<Daemon> = (0..SHARDS).map(|i| spawn_worker(i, 0, &[])).collect();
    let mut proxies: Vec<ChaosHandle> =
        workers.iter().enumerate().map(|(i, w)| spawn_proxy(&w.addr, i == 1)).collect();
    let proxy_addrs: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();

    let router = spawn_banner(
        &[
            "shard",
            "--port",
            "0",
            "--workers",
            &proxy_addrs.join(","),
            "--probe-interval-ms",
            "100",
            "--retry",
            "1",
            "--timeout-secs",
            "2",
            "--breaker-failures",
            "2",
            "--breaker-cooldown-ms",
            "300",
        ],
        "car-shard router listening on http://",
    );
    let mut rc =
        Client::connect_with_timeout(&router.addr, Duration::from_secs(30)).unwrap();

    // Phase 1: baseline ingest through the (delay-only) faults.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[..4])))
        .expect("baseline ingest");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(
        Json::parse(&resp.body_text()).unwrap().get("partial").and_then(Json::as_bool),
        Some(false)
    );
    let doc = router_health(&mut rc);
    assert_eq!(breaker_state(&doc, 1).as_deref(), Some("closed"));

    // Phase 2: partition shard 1 (both directions) and keep ingesting.
    // The leg into the partition times out; the router answers partial
    // while the breaker counts, and the probes open it shortly after.
    proxies[1].arm_partitions();
    let resp = rc
        .request("POST", "/v1/units", Some(&batch_body(&units[4..6])))
        .expect("ingest during partition");
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.header("x-car-shards-degraded"), Some("1"));
    wait_breaker_state(&mut rc, 1, "open", "during partition");

    // With the breaker open the excluded leg is skipped outright: the
    // ingest is immediately partial and the sub-units join the replay
    // ring alongside the ones the timeout swallowed.
    let resp = rc
        .request("POST", "/v1/units", Some(&batch_body(&units[6..8])))
        .expect("ingest while open");
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    assert_eq!(
        Json::parse(&resp.body_text()).unwrap().get("partial").and_then(Json::as_bool),
        Some(true)
    );

    // Phase 3: the partition window closes on its own; probes go
    // Half-Open, the catch-up replay delivers every missed sub-unit,
    // and only then does the breaker close and the shard re-admit.
    wait_breaker_state(&mut rc, 1, "closed", "after heal");
    wait_degraded_shards(&mut rc, 0, Duration::from_secs(30), "after heal");
    let doc = router_health(&mut rc);
    let opens = doc
        .get("breakers")
        .and_then(Json::as_array)
        .and_then(|b| b.get(1))
        .and_then(|b| b.get("opens"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(opens >= 1, "the partition must have opened the breaker: {}", doc.render());

    // Phase 4: final units, then byte-exact convergence with the
    // no-fault oracle — nothing the partition swallowed may be missing,
    // nothing replayed may be duplicated.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[8..])))
        .expect("ingest after heal");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(
        Json::parse(&resp.body_text()).unwrap().get("partial").and_then(Json::as_bool),
        Some(false)
    );

    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));
    assert!(resp.header("x-car-shards-degraded").is_none());
    let expected = oracle_rules(&units);
    assert!(!expected.is_empty(), "the oracle must find the planted rules");
    assert_eq!(
        served(&doc),
        canonical(&expected),
        "healed cluster must serve exactly the no-fault single-node rules"
    );

    // The breaker gauges the CI smoke greps for are exported.
    let metrics = rc.request("GET", "/metrics", None).unwrap().body_text();
    assert!(metrics.contains("car_shard_breaker_state"), "{metrics}");

    // The whole fault run is reproducible from the seed alone: replay
    // the schedule for as many connections as the pass-through proxy
    // served and the traces must agree byte for byte.
    let trace = proxies[0].trace();
    assert!(!trace.is_empty(), "the proxy must have carried connections");
    let replay = FaultSchedule::new(delay_schedule(), CHAOS_SEED);
    for _ in 0..trace.len() {
        replay.plan_conn();
    }
    assert_eq!(replay.trace(), trace, "trace must replay from the seed");

    // Graceful teardown: router, proxies, then the workers directly.
    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    drop(rc);
    let mut router = router;
    assert!(router.child.wait().expect("reaped").success());
    for proxy in &mut proxies {
        proxy.stop();
    }
    for (i, mut worker) in workers.into_iter().enumerate() {
        let mut c = Client::connect(&worker.addr).unwrap();
        let resp = c.request("POST", "/v1/shutdown", None).unwrap();
        assert_eq!(resp.status, 200);
        drop(c);
        assert!(worker.child.wait().expect("reaped").success(), "worker {i}");
    }
}
