//! Sharded-cluster acceptance test against the real `car` binary: a
//! 3-shard cluster with durable workers, a SIGKILL of one worker
//! mid-ingest, degraded serving from the survivors, and full recovery —
//! WAL replay on the worker plus catch-up replay and re-admission at
//! the router.

use std::path::PathBuf;
use std::time::Duration;

use car_itemset::ItemSet;
use car_serve::json::Json;
use car_serve::Client;
use car_shard::{PartitionKey, ShardRing};

mod common;
use common::{
    batch_body, canonical, oracle_rules, pure_units, served, spawn_banner, temp_dir,
    wait_degraded_shards, Daemon, SHARDS,
};

/// A durable worker: shard `shard_id` on `port` over `data_dir`.
fn spawn_worker(shard_id: u32, port: u16, data_dir: &std::path::Path) -> Daemon {
    let dir = data_dir.to_str().expect("utf-8 temp path");
    common::spawn_worker(shard_id, port, &["--data-dir", dir])
}

fn spawn_router(worker_addrs: &[String]) -> Daemon {
    let list = worker_addrs.join(",");
    spawn_banner(
        &["shard", "--port", "0", "--workers", &list, "--probe-interval-ms", "100"],
        "car-shard router listening on http://",
    )
}

#[test]
fn sigkill_one_worker_degrades_then_cluster_fully_recovers() {
    let units = pure_units(SHARDS, 10);
    let dirs: Vec<PathBuf> =
        (0..SHARDS).map(|i| temp_dir(&format!("shard-w{i}"))).collect();

    let mut workers: Vec<Daemon> =
        (0..SHARDS).map(|i| spawn_worker(i, 0, &dirs[i as usize])).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let router = spawn_router(&addrs);
    let mut rc = Client::connect(&router.addr).unwrap();

    // A worker's health carries its shard identity.
    let mut wc = Client::connect(&addrs[1]).unwrap();
    let doc =
        Json::parse(&wc.request("GET", "/v1/health", None).unwrap().body_text()).unwrap();
    assert_eq!(doc.get("shard_id").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("shard_count").and_then(Json::as_u64), Some(u64::from(SHARDS)));
    drop(wc);

    // Phase 1: six units through the router, fully applied, durable.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[..6])))
        .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(
        Json::parse(&resp.body_text()).unwrap().get("partial").and_then(Json::as_bool),
        Some(false)
    );

    // SIGKILL shard 1 mid-stream — no flush, no goodbye.
    let victim = &mut workers[1];
    victim.child.kill().expect("SIGKILL");
    victim.child.wait().expect("reaped");
    let victim_port = victim.addr.rsplit(':').next().unwrap().parse::<u16>().unwrap();

    // Phase 2: two more units. The router degrades rather than failing.
    let resp = rc
        .request("POST", "/v1/units", Some(&batch_body(&units[6..8])))
        .expect("degraded ingest");
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.header("x-car-shards-degraded"), Some("1"));
    wait_degraded_shards(&mut rc, 1, Duration::from_secs(15), "after SIGKILL");

    // Degraded queries serve exactly the surviving shards' rules: the
    // oracle mines the same eight units minus shard 1's transactions.
    let ring = ShardRing::new(SHARDS).unwrap();
    let surviving: Vec<Vec<ItemSet>> = units[..8]
        .iter()
        .map(|unit| {
            let mut splits = ring.split_unit(unit, PartitionKey::MinItem);
            splits.remove(1);
            splits.into_iter().flatten().collect()
        })
        .collect();
    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("degraded").map(Json::render), Some("[1]".to_string()));
    assert_eq!(resp.header("x-car-shards-degraded"), Some("1"));
    let expected = oracle_rules(&surviving);
    assert!(!expected.is_empty(), "survivors should still serve planted rules");
    assert_eq!(served(&doc), canonical(&expected));

    // Phase 3: restart shard 1 on its old port and data dir. The WAL
    // restores its acknowledged sub-units; the router replays the two
    // it missed and re-admits it.
    workers[1] = spawn_worker(1, victim_port, &dirs[1]);
    wait_degraded_shards(&mut rc, 0, Duration::from_secs(15), "after restart");

    // Phase 4: two final units, then exactness against a single node
    // that saw all ten.
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units[8..])))
        .expect("ingest after recovery");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));

    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("partial").and_then(Json::as_bool), Some(false));
    assert!(resp.header("x-car-shards-degraded").is_none());
    assert_eq!(
        served(&doc),
        canonical(&oracle_rules(&units)),
        "recovered cluster must serve exactly the single-node rules"
    );

    // Graceful teardown: router first, then the workers.
    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    drop(rc);
    let mut router = router;
    assert!(router.child.wait().expect("reaped").success());
    for (i, mut worker) in workers.into_iter().enumerate() {
        let mut c = Client::connect(&worker.addr).unwrap();
        let resp = c.request("POST", "/v1/shutdown", None).unwrap();
        assert_eq!(resp.status, 200);
        drop(c);
        assert!(worker.child.wait().expect("reaped").success(), "worker {i}");
    }
    for dir in dirs {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn spawn_mode_boots_its_own_workers_and_shuts_them_down() {
    let router = spawn_banner(
        &["shard", "--port", "0", "--shards", "2", "--window", "8", "--l-max", "2"],
        "car-shard router listening on http://",
    );
    let mut rc = Client::connect(&router.addr).unwrap();

    let units = pure_units(SHARDS, 4);
    let resp = rc
        .request("POST", "/v1/units?wait=true", Some(&batch_body(&units)))
        .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    let resp = rc.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());

    let metrics = rc.request("GET", "/metrics", None).unwrap().body_text();
    assert!(metrics.contains("car_shard_fanout_total"));
    assert!(metrics.contains("car_shard_workers_up 2"));

    // Shutting the router down also shuts down its spawned workers.
    let resp = rc.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    drop(rc);
    let mut router = router;
    assert!(router.child.wait().expect("reaped").success());
}
