//! Crash recovery against the real `car` binary: SIGKILL the daemon
//! mid-ingest and verify the restarted daemon serves exactly the rules
//! that batch-mining the acknowledged units produces.
//!
//! This is the acceptance test for the durability contract: with
//! `--fsync always` (the default), a unit is acknowledged only after it
//! is fsynced into the WAL, so no crash — not even `kill -9` with no
//! chance to flush — may lose an acknowledged unit.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use car_core::sequential::mine_sequential;
use car_core::{CyclicRule, MiningConfig};
use car_datagen::{generate_cyclic, CyclicConfig};
use car_itemset::{ItemSet, SegmentedDb};
use car_serve::json::Json;
use car_serve::Client;

const WINDOW: usize = 8;

/// Kills the child on drop so a failing assertion never leaks a daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `car serve` on an ephemeral port and waits for its banner.
fn spawn_daemon(data_dir: &std::path::Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_car"))
        .args([
            "serve",
            "--port",
            "0",
            "--window",
            "8",
            "--min-support",
            "0.2",
            "--min-confidence",
            "0.6",
            "--l-min",
            "2",
            "--l-max",
            "4",
            "--data-dir",
        ])
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("car binary spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("car-serve listening on http://") {
            break rest.trim().to_string();
        }
    };
    // Drain the rest of the banner in the background so the daemon
    // never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, addr }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "car-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mining_config() -> MiningConfig {
    MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(0.6)
        .cycle_bounds(2, 4)
        .build()
        .unwrap()
}

fn unit_body(unit: &[ItemSet]) -> Vec<u8> {
    let transactions = Json::Array(
        unit.iter()
            .map(|tx| Json::Array(tx.iter().map(|item| Json::from(item.id())).collect()))
            .collect(),
    );
    Json::Object(vec![("transactions".to_string(), transactions)]).render().into_bytes()
}

fn wait_ready(client: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.request("GET", "/v1/health", None).expect("health");
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("ready").and_then(Json::as_bool) == Some(true) {
            return;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn canonical(rules: &[CyclicRule]) -> BTreeSet<(String, Vec<(u64, u64)>)> {
    rules
        .iter()
        .map(|r| {
            (
                r.rule.to_string(),
                r.cycles
                    .iter()
                    .map(|c| (u64::from(c.length()), u64::from(c.offset())))
                    .collect(),
            )
        })
        .collect()
}

fn served(doc: &Json) -> BTreeSet<(String, Vec<(u64, u64)>)> {
    doc.get("rules")
        .and_then(Json::as_array)
        .expect("rules array")
        .iter()
        .map(|r| {
            let name = r.get("rule").and_then(Json::as_str).unwrap().to_string();
            let cycles = r
                .get("cycles")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|c| {
                    (
                        c.get("length").and_then(Json::as_u64).unwrap(),
                        c.get("offset").and_then(Json::as_u64).unwrap(),
                    )
                })
                .collect();
            (name, cycles)
        })
        .collect()
}

#[test]
fn sigkill_mid_ingest_loses_no_acknowledged_unit() {
    let dir = temp_dir("sigkill");
    let data = generate_cyclic(
        &CyclicConfig::default()
            .with_units(13)
            .with_transactions_per_unit(60)
            .with_num_cyclic_patterns(4)
            .with_cycle_length_range(2, 4),
        42,
    );

    let mut acknowledged = 0usize;
    {
        let mut daemon = spawn_daemon(&dir);
        let mut client = Client::connect(&daemon.addr).unwrap();
        wait_ready(&mut client);
        // 12 units acknowledged and applied…
        for i in 0..12 {
            let resp = client
                .request("POST", "/v1/units?wait=true", Some(&unit_body(data.db.unit(i))))
                .expect("ingest");
            assert_eq!(resp.status, 200, "unit {i}: {}", resp.body_text());
            acknowledged += 1;
        }
        // …one more acknowledged but possibly still in the apply queue…
        let resp = client
            .request("POST", "/v1/units", Some(&unit_body(data.db.unit(12))))
            .expect("ingest");
        assert_eq!(resp.status, 202, "{}", resp.body_text());
        acknowledged += 1;
        // …and the daemon dies with no chance to flush or snapshot.
        daemon.child.kill().expect("SIGKILL");
        daemon.child.wait().expect("reaped");
    }

    // Restart on the same data directory: every acknowledged unit is
    // back, including the one that never reached the miner.
    let daemon = spawn_daemon(&dir);
    let mut client = Client::connect(&daemon.addr).unwrap();
    wait_ready(&mut client);

    let resp = client.request("GET", "/v1/health", None).unwrap();
    let health = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(
        health.get("units_retained").and_then(Json::as_u64),
        Some(WINDOW as u64),
        "{health:?}"
    );
    let recovery = health.get("recovery").expect("recovery block");
    assert_eq!(recovery.get("truncated_records").and_then(Json::as_u64), Some(0));
    // The kill outran any snapshot: the window came back from the WAL.
    assert_eq!(
        recovery.get("replayed_units").and_then(Json::as_u64),
        Some(acknowledged as u64)
    );
    // Every recovered unit counts as pushed, and the 5 that do not fit
    // the window as evicted, as if each had been pushed alone...
    let evicted = (acknowledged - WINDOW) as u64;
    assert_eq!(
        health.get("total_pushed").and_then(Json::as_u64),
        Some(acknowledged as u64)
    );
    assert_eq!(health.get("evictions").and_then(Json::as_u64), Some(evicted));
    // ...but recovery mined only the units the window keeps.
    let resp = client.request("GET", "/v1/debug/profile", None).unwrap();
    let profile = Json::parse(&resp.body_text()).unwrap();
    let mined = profile
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .find(|span| span.get("name").and_then(Json::as_str) == Some("window.mine"))
        .and_then(|span| span.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(mined, Some(WINDOW as u64), "{profile:?}");

    let resp = client.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let got = served(&Json::parse(&resp.body_text()).unwrap());

    let retained: Vec<Vec<ItemSet>> =
        (acknowledged - WINDOW..acknowledged).map(|i| data.db.unit(i).to_vec()).collect();
    let window_db = SegmentedDb::from_unit_itemsets(retained);
    let expected = mine_sequential(&window_db, &mining_config()).unwrap().rules;
    assert!(!expected.is_empty(), "test data should produce cyclic rules");
    assert_eq!(
        got,
        canonical(&expected),
        "recovered rules must equal batch mining the acknowledged window"
    );

    // Graceful exit this time: the daemon drains and the process ends 0.
    let resp = client.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    drop(client);
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("reaped");
    assert!(status.success(), "graceful shutdown exits cleanly: {status:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}
