//! Durability integration tests: a real daemon with a data directory,
//! restarted (and attacked) between runs.
//!
//! The load-bearing property extends the serving guarantee across
//! process lifetimes: after a restart, `GET /v1/rules` still equals
//! batch-mining the acknowledged window — whether the window came back
//! from a snapshot, a WAL replay, or both, and even when the WAL tail
//! was torn by a crash.

mod common;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use car_core::sequential::mine_sequential;
use car_core::{CyclicRule, MiningConfig};
use car_datagen::{generate_cyclic, CyclicConfig};
use car_itemset::{ItemSet, SegmentedDb};
use car_serve::json::Json;
use car_serve::persist::fault::{append_garbage, FaultPlan};
use car_serve::persist::snapshot::write_snapshot;
use car_serve::persist::wal::{encode_record_into, list_segments, parse_records};
use car_serve::{serve, Client, PersistConfig, ServerConfig, ServerHandle};
use common::{
    batch_rules, mining_config, served_rules, unit_body, unit_json, RuleSet, WINDOW,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "car-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_server(dir: &Path, tweak: impl FnOnce(&mut PersistConfig)) -> ServerHandle {
    let mut persist = PersistConfig::new(dir);
    tweak(&mut persist);
    serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 3,
        window: WINDOW,
        queue_capacity: 32,
        mining: mining_config(0.6),
        io_timeout: Duration::from_secs(5),
        persist: Some(persist),
        ..ServerConfig::default()
    })
    .expect("server boots on an ephemeral port")
}

/// Polls `/v1/health` until the daemon reports ready (recovery done),
/// returning the final health document.
fn wait_ready(client: &mut Client) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.request("GET", "/v1/health", None).expect("health");
        assert_eq!(resp.status, 200);
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("ready").and_then(Json::as_bool) == Some(true) {
            return doc;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn fetch_rules(client: &mut Client) -> RuleSet {
    let resp = client.request("GET", "/v1/rules", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    served_rules(&Json::parse(&resp.body_text()).unwrap())
}

/// Batch-mines units `range` of `db` the way the daemon's window sees
/// them.
fn mine_window(db: &SegmentedDb, range: std::ops::Range<usize>) -> Vec<CyclicRule> {
    let units: Vec<Vec<ItemSet>> = range.map(|i| db.unit(i).to_vec()).collect();
    let window_db = SegmentedDb::from_unit_itemsets(units);
    mine_sequential(&window_db, &mining_config(0.6)).unwrap().rules
}

fn test_data(units: usize) -> car_datagen::GeneratedData {
    generate_cyclic(
        &CyclicConfig::default()
            .with_units(units)
            .with_transactions_per_unit(60)
            .with_num_cyclic_patterns(4)
            .with_cycle_length_range(2, 4),
        42,
    )
}

#[test]
fn rules_survive_a_graceful_restart() {
    let dir = temp_dir("graceful");
    let data = test_data(12);

    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);
    for i in 0..data.db.num_units() {
        let resp = client
            .request("POST", "/v1/units?wait=true", Some(&unit_body(data.db.unit(i))))
            .expect("ingest");
        assert_eq!(resp.status, 200, "unit {i}: {}", resp.body_text());
    }
    let before = fetch_rules(&mut client);
    assert!(!before.is_empty(), "test data should produce cyclic rules");
    handle.trigger_shutdown();
    handle.wait();

    // Same data directory, fresh process state.
    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let health = wait_ready(&mut client);

    // Graceful shutdown left a snapshot of the full window, so recovery
    // is snapshot-only: nothing replayed, nothing truncated.
    let recovery = health.get("recovery").expect("recovery block in health");
    assert_eq!(recovery.get("complete").and_then(Json::as_bool), Some(true));
    assert_eq!(
        recovery.get("snapshot_units").and_then(Json::as_u64),
        Some(WINDOW as u64)
    );
    assert_eq!(recovery.get("replayed_units").and_then(Json::as_u64), Some(0));
    assert_eq!(recovery.get("truncated_records").and_then(Json::as_u64), Some(0));
    assert_eq!(health.get("units_retained").and_then(Json::as_u64), Some(WINDOW as u64));

    let after = fetch_rules(&mut client);
    assert_eq!(after, before, "restart must not change the served rules");
    let expected =
        mine_window(&data.db, data.db.num_units() - WINDOW..data.db.num_units());
    assert_eq!(after, batch_rules(&expected));

    // Sequence numbers continue across the restart.
    let resp = client
        .request("POST", "/v1/units?wait=true", Some(&unit_body(data.db.unit(0))))
        .unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("unit_seq").and_then(Json::as_u64), Some(13));

    handle.trigger_shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_is_truncated_counted_and_survived() {
    let dir = temp_dir("torn");
    let data = test_data(13);

    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);
    for i in 0..12 {
        let resp = client
            .request("POST", "/v1/units?wait=true", Some(&unit_body(data.db.unit(i))))
            .expect("ingest");
        assert_eq!(resp.status, 200, "unit {i}: {}", resp.body_text());
    }
    handle.trigger_shutdown();
    handle.wait();

    // Simulate a crash after the shutdown snapshot: one more unit made
    // it into the WAL (seq 13 = unit index 12), and then the crash tore
    // the record after it.
    let newest = list_segments(&dir).unwrap().pop().expect("a live segment");
    let mut tail = Vec::new();
    encode_record_into(13, data.db.unit(12), &mut tail);
    let mut file = std::fs::OpenOptions::new().append(true).open(&newest.path).unwrap();
    file.write_all(&tail).unwrap();
    file.sync_all().unwrap();
    drop(file);
    append_garbage(&newest.path, 24).unwrap();

    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let health = wait_ready(&mut client);
    let recovery = health.get("recovery").expect("recovery block in health");
    assert_eq!(
        recovery.get("snapshot_units").and_then(Json::as_u64),
        Some(WINDOW as u64)
    );
    assert_eq!(
        recovery.get("replayed_units").and_then(Json::as_u64),
        Some(1),
        "the intact tail record replays"
    );
    assert_eq!(
        recovery.get("truncated_records").and_then(Json::as_u64),
        Some(1),
        "the torn tail is truncated, not trusted"
    );

    // The window is now units 5..=12 (snapshot tail + the replayed one).
    let expected = mine_window(&data.db, 5..13);
    assert_eq!(fetch_rules(&mut client), batch_rules(&expected));

    let resp = client.request("GET", "/metrics", None).unwrap();
    let text = resp.body_text();
    assert!(text.contains("car_recovery_truncated_records_total 1"), "{text}");

    // A second restart sees a clean (already truncated) log.
    handle.trigger_shutdown();
    handle.wait();
    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let health = wait_ready(&mut client);
    let recovery = health.get("recovery").expect("recovery block");
    assert_eq!(recovery.get("truncated_records").and_then(Json::as_u64), Some(0));
    assert_eq!(fetch_rules(&mut client), batch_rules(&expected));
    handle.trigger_shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fsync_failure_refuses_acknowledgements() {
    let dir = temp_dir("fsync");
    let plan = FaultPlan::new();
    let handle = durable_server(&dir, |p| p.faults = Some(plan.clone()));
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);

    let unit = vec![ItemSet::from_ids([1u32, 2]); 3];
    let resp = client.request("POST", "/v1/units", Some(&unit_body(&unit))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());

    // From here every fsync fails: the daemon must stop acknowledging.
    plan.fail_fsync_from(2);
    let resp = client.request("POST", "/v1/units", Some(&unit_body(&unit))).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    assert!(resp.body_text().contains("durability failure"), "{}", resp.body_text());

    // The failure is sticky — a batch is refused per-unit with the
    // persistence label, not silently dropped.
    let batch =
        Json::Array(vec![unit_json(&unit), unit_json(&unit)]).render().into_bytes();
    let resp = client.request("POST", "/v1/units", Some(&batch)).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("rejected").and_then(Json::as_u64), Some(2));
    let first = doc.get("units").and_then(Json::as_array).unwrap().first().unwrap();
    assert_eq!(first.get("error").and_then(Json::as_str), Some("persistence_failure"));

    // Reads still serve: the daemon degrades, it does not die.
    let resp = client.request("GET", "/v1/health", None).unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.request("GET", "/metrics", None).unwrap();
    assert!(resp.body_text().contains("car_wal_errors_total"), "errors are visible");

    // The refused unit was queued before its sync failed, and the
    // worker may have mined it, but only the durable unit is folded:
    // the shutdown drains the queue first.
    handle.trigger_shutdown();
    let stats = handle.wait();
    assert_eq!(stats.units_retained, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A write that fails before any byte lands, on storage that stays
/// alive, acknowledges and queues nothing: the log stays open, the next
/// unit reuses the sequence number, and the window holds the durable
/// units only, before and after a restart.
#[test]
fn clean_write_failure_reuses_the_seq_and_folds_only_durable_units() {
    let dir = temp_dir("write-failure");
    let config = MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(0.6)
        .cycle_bounds(2, 2)
        .build()
        .unwrap();
    let boot = |faults: Option<FaultPlan>| {
        let mut persist = PersistConfig::new(&dir);
        persist.faults = faults;
        serve(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 3,
            window: WINDOW,
            queue_capacity: 32,
            mining: config,
            io_timeout: Duration::from_secs(5),
            persist: Some(persist),
            ..ServerConfig::default()
        })
        .expect("server boots on an ephemeral port")
    };
    let a = vec![ItemSet::from_ids([1u32, 2]); 4];
    let b = vec![ItemSet::from_ids([5u32, 6]); 4];
    let c =
        [vec![ItemSet::from_ids([1u32, 2]); 2], vec![ItemSet::from_ids([3u32, 4]); 2]]
            .concat();
    let mine = |units: &[&Vec<ItemSet>]| {
        let db =
            SegmentedDb::from_unit_itemsets(units.iter().map(|u| u.to_vec()).collect());
        batch_rules(&mine_sequential(&db, &config).unwrap().rules)
    };
    let expected = mine(&[&a, &c]);
    assert!(!expected.is_empty(), "the units must yield cyclic rules");
    assert_ne!(expected, mine(&[&a, &b, &c]), "folding B must change the rules");

    let plan = FaultPlan::new();
    let handle = boot(Some(plan.clone()));
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);
    let seq_of = |resp: &car_serve::ClientResponse| {
        Json::parse(&resp.body_text()).unwrap().get("unit_seq").and_then(Json::as_u64)
    };

    // The worker folds nothing while the test holds the miner lock, so
    // it judges B only after C's append is durable: had B been queued
    // under seq 2, C's sync would cover it too.
    let state = handle.state().clone();
    let guard = state.miner.write().unwrap();
    let resp = client.request("POST", "/v1/units", Some(&unit_body(&a))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    assert_eq!(seq_of(&resp), Some(1));

    // B's write is the second: it fails, and nothing of it is queued.
    plan.fail_write_at(2);
    let batch = Json::Array(vec![unit_json(&b)]).render().into_bytes();
    let resp = client.request("POST", "/v1/units", Some(&batch)).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    let refused = doc.get("units").and_then(Json::as_array).unwrap().first().unwrap();
    assert_eq!(refused.get("error").and_then(Json::as_str), Some("persistence_failure"));

    // The log stayed open: C takes B's sequence number. Its append is
    // durable once A's and C's fsyncs are both counted.
    let addr = handle.addr.to_string();
    let c_body = unit_body(&c);
    let poster = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).unwrap();
        client.request("POST", "/v1/units?wait=true", Some(&c_body)).unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.metrics.wal_fsyncs() < 2 {
        assert!(Instant::now() < deadline, "C's append never synced");
        std::thread::yield_now();
    }
    drop(guard);
    let resp = poster.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(seq_of(&resp), Some(2));
    assert_eq!(fetch_rules(&mut client), expected);

    // The log holds A and C as seqs 1 and 2, and nothing of B.
    let mut records = Vec::new();
    for segment in list_segments(&dir).unwrap() {
        let parsed = parse_records(&std::fs::read(&segment.path).unwrap());
        assert!(parsed.corruption.is_none(), "{:?}", parsed.corruption);
        records.extend(parsed.records);
    }
    assert_eq!(records, vec![(1, a.clone()), (2, c.clone())]);

    handle.trigger_shutdown();
    assert_eq!(handle.wait().units_retained, 2);

    let handle = boot(None);
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);
    assert_eq!(fetch_rules(&mut client), expected);
    handle.trigger_shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_ingest_applies_like_sequential_ingest_and_survives_restart() {
    let dir = temp_dir("batch");
    let data = test_data(12);

    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);

    let body = Json::Array(
        (0..data.db.num_units()).map(|i| unit_json(data.db.unit(i))).collect(),
    )
    .render()
    .into_bytes();
    let resp = client.request("POST", "/v1/units?wait=true", Some(&body)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body_text());
    let doc = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(doc.get("accepted").and_then(Json::as_u64), Some(12));
    assert_eq!(doc.get("rejected").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("applied").and_then(Json::as_bool), Some(true));
    let per_unit = doc.get("units").and_then(Json::as_array).unwrap();
    let seqs: Vec<u64> = per_unit
        .iter()
        .map(|u| u.get("unit_seq").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(seqs, (1..=12).collect::<Vec<u64>>(), "batch seqs are consecutive");

    // One WAL append for the whole batch: a single fsync under `always`.
    let resp = client.request("GET", "/metrics", None).unwrap();
    assert!(resp.body_text().contains("car_wal_fsyncs_total 1"), "{}", resp.body_text());

    let expected =
        mine_window(&data.db, data.db.num_units() - WINDOW..data.db.num_units());
    assert_eq!(fetch_rules(&mut client), batch_rules(&expected));
    handle.trigger_shutdown();
    handle.wait();

    // The batch-written WAL recovers like any other.
    let handle = durable_server(&dir, |_| {});
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    wait_ready(&mut client);
    assert_eq!(fetch_rules(&mut client), batch_rules(&expected));
    handle.trigger_shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn health_answers_while_recovery_runs() {
    // A snapshot of 16 dense units: recovering them takes a few hundred
    // milliseconds, long enough for dozens of health probes.
    let dir = temp_dir("health-during-recovery");
    std::fs::create_dir_all(&dir).unwrap();
    let data = generate_cyclic(
        &CyclicConfig::default()
            .with_units(16)
            .with_transactions_per_unit(400)
            .with_num_cyclic_patterns(4)
            .with_cycle_length_range(2, 4),
        7,
    );
    let units: Vec<Vec<ItemSet>> =
        (0..data.db.num_units()).map(|i| data.db.unit(i).to_vec()).collect();
    write_snapshot(&dir, units.len() as u64, &units).unwrap();

    let booted = Instant::now();
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        window: units.len(),
        mining: MiningConfig::builder()
            .min_support_fraction(0.01)
            .min_confidence(0.6)
            .cycle_bounds(2, 4)
            .build()
            .unwrap(),
        persist: Some(PersistConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .expect("server boots on an ephemeral port");
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let mut slowest = Duration::ZERO;
    let mut probes = 0;
    let to_ready = loop {
        let sent = Instant::now();
        let resp = client.request("GET", "/v1/health", None).expect("health");
        let took = sent.elapsed();
        let doc = Json::parse(&resp.body_text()).unwrap();
        if doc.get("ready").and_then(Json::as_bool) == Some(true) {
            break booted.elapsed();
        }
        slowest = slowest.max(took);
        probes += 1;
        assert!(booted.elapsed() < Duration::from_secs(60), "recovery never finished");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(probes >= 3, "recovery ended after {probes} probes, in {to_ready:?}");
    assert!(
        slowest <= to_ready / 4,
        "a health probe took {slowest:?} of the {to_ready:?} to ready"
    );
    handle.trigger_shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}
