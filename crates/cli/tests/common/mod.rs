//! Helpers shared by the CLI's integration tests, which drive the real
//! `car` binary: a daemon handle that kills its child on drop, the
//! banner wait, the cluster workers and their mining configuration,
//! partition-pure units and their batch body, and the canonical rule
//! sets a served answer is compared with.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use car_core::window::SlidingWindowMiner;
use car_core::{ConfigBuilder, CyclicRule, MiningConfig};
use car_itemset::ItemSet;
use car_serve::json::Json;
use car_serve::Client;
use car_shard::ShardRing;

/// Shards of every test cluster.
pub const SHARDS: u32 = 3;
/// Units a cluster worker retains.
pub const WORKER_WINDOW: usize = 16;

/// A rule as `(rendered rule, [(length, offset)])`, comparable across a
/// served body and an in-process mine.
pub type RuleSet = BTreeSet<(String, Vec<(u64, u64)>)>;

/// Kills the child on drop so a failing assertion never leaks a daemon.
pub struct Daemon {
    pub child: Child,
    pub addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a `car` subcommand and waits for `banner` on stdout.
pub fn spawn_banner(args: &[&str], banner: &str) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_car"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("car binary spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("process exited before `{banner}`"))
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix(banner) {
            break rest.trim().to_string();
        }
    };
    // Drain the rest of the output in the background so the process
    // never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, addr }
}

/// `car serve` as shard `shard_id` of [`SHARDS`] on `port` (0 picks
/// one), mining at [`cluster_config`] over [`WORKER_WINDOW`] units, with
/// `extra` options appended.
pub fn spawn_worker(shard_id: u32, port: u16, extra: &[&str]) -> Daemon {
    let port = port.to_string();
    let id = shard_id.to_string();
    let count = SHARDS.to_string();
    let window = WORKER_WINDOW.to_string();
    let mut args = vec![
        "serve",
        "--port",
        &port,
        "--shard-id",
        &id,
        "--shard-count",
        &count,
        "--window",
        &window,
        "--min-support-count",
        "2",
        "--min-confidence",
        "0.5",
        "--l-min",
        "2",
        "--l-max",
        "4",
    ];
    args.extend_from_slice(extra);
    spawn_banner(&args, "car-serve listening on http://")
}

/// A fresh path under the system temp directory, unique to this
/// process and thread, named after `tag`.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "car-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cycles 2..4 at `min_confidence`, from a builder that holds the
/// support threshold.
pub fn mining_config(support: ConfigBuilder, min_confidence: f64) -> MiningConfig {
    support.min_confidence(min_confidence).cycle_bounds(2, 4).build().unwrap()
}

/// The thresholds [`spawn_worker`] starts a worker with.
pub fn cluster_config() -> MiningConfig {
    mining_config(MiningConfig::builder().min_support_count(2), 0.5)
}

/// `n` partition-pure units over a `shards`-shard ring: each shard's
/// first two pool items form a planted rule `{a} => {b}` that holds on
/// alternating units (cycle length 2), plus antecedent-only noise on
/// the off units.
pub fn pure_units(shards: u32, n: usize) -> Vec<Vec<ItemSet>> {
    let ring = ShardRing::new(shards).unwrap();
    let mut pools: Vec<Vec<u32>> = vec![Vec::new(); shards as usize];
    for item in 0..64u32 {
        pools[ring.owner_of_key(u64::from(item)) as usize].push(item);
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
pub fn batch_body(units: &[Vec<ItemSet>]) -> Vec<u8> {
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

/// Mines `units` in-process at [`cluster_config`] over
/// [`WORKER_WINDOW`] units, with no faults anywhere: the oracle a
/// cluster must match.
pub fn oracle_rules(units: &[Vec<ItemSet>]) -> Vec<CyclicRule> {
    let mut miner = SlidingWindowMiner::new(cluster_config(), WORKER_WINDOW).unwrap();
    for unit in units {
        miner.push_unit(unit);
    }
    miner.query_rules(None).expect("enough units").as_ref().clone()
}

/// Mined rules as a [`RuleSet`].
pub fn canonical(rules: &[CyclicRule]) -> RuleSet {
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

/// The `rules` array of a served body as a [`RuleSet`].
pub fn served(doc: &Json) -> RuleSet {
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

/// A router's `/v1/health` document.
pub fn router_health(client: &mut Client) -> Json {
    let resp = client.request("GET", "/v1/health", None).expect("router health");
    Json::parse(&resp.body_text()).expect("health json")
}

/// Polls the router's health until it reports `want` degraded shards,
/// failing with `what` after `timeout`.
pub fn wait_degraded_shards(
    client: &mut Client,
    want: u64,
    timeout: Duration,
    what: &str,
) {
    let deadline = Instant::now() + timeout;
    loop {
        let doc = router_health(client);
        if doc.get("degraded_shards").and_then(Json::as_u64) == Some(want) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: health never reached {want}");
        std::thread::sleep(Duration::from_millis(50));
    }
}
