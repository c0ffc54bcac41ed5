//! EXP-8 (substrate table: support-counting engines).
//!
//! Compares the classic Apriori hash tree with the vertical tid-bitmap
//! kernel on short (T≈5) and long (T≈20) transactions. The hash tree's
//! cost grows with transaction length; the kernel's does not, and it
//! should dominate at this batch size.

use car_apriori::{count_candidates, CountStrategy};
use car_datagen::{QuestConfig, QuestGenerator};
use car_itemset::ItemSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(avg_len: f64) -> (Vec<ItemSet>, Vec<ItemSet>) {
    let mut rng = StdRng::seed_from_u64(8);
    let quest = QuestGenerator::new(
        QuestConfig::default().with_num_items(300).with_avg_transaction_len(avg_len),
        &mut rng,
    );
    let transactions = quest.gen_transactions(&mut rng, 2000);
    // Candidate pairs drawn from the most frequent items.
    let mut counts = std::collections::HashMap::new();
    for t in &transactions {
        for i in t.iter() {
            *counts.entry(i).or_insert(0u32) += 1;
        }
    }
    let mut top: Vec<_> = counts.into_iter().collect();
    top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let items: Vec<_> = top.into_iter().take(40).map(|(i, _)| i).collect();
    let mut candidates = Vec::new();
    for (ai, &a) in items.iter().enumerate() {
        for &b in &items[ai + 1..] {
            candidates.push(ItemSet::from_items([a, b]));
        }
    }
    candidates.sort_unstable();
    (candidates, transactions)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_counting");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for avg_len in [5.0f64, 20.0] {
        let (candidates, transactions) = workload(avg_len);
        for strategy in [CountStrategy::HashTree, CountStrategy::Vertical] {
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy:?}"), avg_len as u64),
                &(&candidates, &transactions),
                |b, (cands, txs)| b.iter(|| count_candidates(cands, txs, strategy)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
