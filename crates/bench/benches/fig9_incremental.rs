//! EXP-9 (extension): incremental maintenance vs batch re-mining.
//!
//! Measures the cost of keeping cyclic rules current as one new time
//! unit arrives: pushing the unit into a `SlidingWindowMiner` as long as
//! the stream and re-querying, versus re-mining the whole window.

#![allow(clippy::field_reassign_with_default)]

use car_bench::{scenario, ScenarioParams};
use car_core::sequential::mine_sequential;
use car_core::window::SlidingWindowMiner;
use criterion::{criterion_group, criterion_main, Criterion};

fn params() -> ScenarioParams {
    let mut p = ScenarioParams::default();
    p.units = 24;
    p.tx_per_unit = 100;
    p.l_max = 6;
    p
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_incremental");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let s = scenario("incremental", params());
    let n = s.db.num_units();

    // Pre-ingest all but the last unit; the benchmark measures handling
    // of one arriving unit.
    group.bench_function("incremental_one_unit", |b| {
        b.iter_batched(
            || {
                let mut miner =
                    SlidingWindowMiner::new(s.config, n).expect("window covers l_max");
                for u in 0..n - 1 {
                    miner.push_unit(s.db.unit(u));
                }
                miner
            },
            |mut miner| {
                miner.push_unit(s.db.unit(n - 1));
                miner.current_rules().expect("validated window")
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("batch_remine", |b| {
        b.iter(|| mine_sequential(&s.db, &s.config).expect("validated window"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
