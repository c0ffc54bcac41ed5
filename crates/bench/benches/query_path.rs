//! Query fast-path guard.
//!
//! The query path has three tiers with sharply different costs, and this
//! bench pins all three at serving scale (256 retained units) so a
//! regression in any tier is visible:
//!
//! - `cold_detect` — an escalated-confidence query: the rules assembled
//!   from the online itemset rings at a confidence above the mining
//!   threshold, with no memo to hit. (The name predates the itemset
//!   rings, when this tier rebuilt every rule's hold sequence and
//!   re-ran cycle detection.)
//! - `online_state` — the same assembly at the mining threshold, the
//!   cost `query_rules(None)` pays once per ingest.
//! - `warm_cache` — the memoised view: an `Arc` bump, the cost every
//!   repeat query pays between ingests.
//!
//! The first two run the same code at two confidences, so they cost
//! about the same. Expected ordering: `warm_cache` ≪ `online_state` ≈
//! `cold_detect`.

#![allow(clippy::field_reassign_with_default)]

use car_bench::{scenario, ScenarioParams};
use car_core::window::SlidingWindowMiner;
use car_core::MinConfidence;
use criterion::{criterion_group, criterion_main, Criterion};

fn params() -> ScenarioParams {
    let mut p = ScenarioParams::default();
    p.units = 256;
    p.tx_per_unit = 100;
    // 5% of 100 transactions: keeps the frequent-rule population at a
    // serving-realistic size (hundreds, not hundreds of thousands).
    p.min_support = 0.05;
    p.l_max = 8;
    p
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_path");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let s = scenario("query_path", params());
    let mut miner = SlidingWindowMiner::new(s.config, s.db.num_units())
        .expect("scenario window fits cycle bounds");
    for (_, unit) in s.db.iter_units() {
        miner.push_unit(unit);
    }
    // A hair above the configured threshold: forces the escalated path
    // while keeping the rule population essentially unchanged, so
    // `cold_detect` measures the unmemoised assembly, not a smaller
    // workload.
    let q = MinConfidence::new(s.config.min_confidence.value() + 1e-9)
        .expect("escalated confidence stays in range");

    group.bench_with_input("cold_detect", &miner, |b, m| {
        b.iter(|| m.query_rules(Some(q)).expect("window is full"))
    });
    group.bench_with_input("online_state", &miner, |b, m| {
        b.iter(|| m.assemble_view().expect("window is full"))
    });
    // Prime the memo once so every measured iteration is a warm hit.
    miner.current_rules().expect("window is full");
    group.bench_with_input("warm_cache", &miner, |b, m| {
        b.iter(|| m.current_rules().expect("window is full"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
