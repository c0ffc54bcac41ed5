//! The sharding correctness property: splitting partition-pure units
//! across shards by the real ring, mining each shard's sub-stream
//! independently, and merging the per-shard views at the router is
//! equivalent to mining the union window on a single node — for the
//! default query and for escalated `min_confidence` queries, and (in
//! the degraded case) dropping one shard's view equals mining the units
//! with that shard's transactions removed.
//!
//! Purity (every transaction's items drawn from one shard's item pool)
//! plus an absolute support *count* make the equivalence exact: any
//! transaction containing an itemset lives on the itemset's own shard,
//! so per-unit support and confidence counts are identical on the shard
//! and the single node.

use car_core::window::SlidingWindowMiner;
use car_core::{CyclicRule, MinConfidence, MiningConfig};
use car_itemset::ItemSet;
use car_shard::{merge_rule_views, PartitionKey, ShardRing};
use proptest::prelude::*;

const ITEM_SPACE: u32 = 32;

/// The ring's item pools: `pools[s]` holds the items shard `s` owns.
/// Only non-empty pools are returned (a shard that owns no item of the
/// space can never receive a transaction).
fn pools(ring: &ShardRing) -> Vec<Vec<u32>> {
    let mut pools: Vec<Vec<u32>> = (0..ring.count()).map(|_| Vec::new()).collect();
    for item in 0..ITEM_SPACE {
        pools[ring.owner_of_key(u64::from(item)) as usize].push(item);
    }
    pools.retain(|p| !p.is_empty());
    pools
}

/// Raw generated shape: per unit, per transaction, a pool selector and
/// item position selectors — resolved against the real ring's pools in
/// the test body so every transaction is partition-pure by construction.
type RawUnits = Vec<Vec<(usize, Vec<usize>)>>;

fn arb_raw_units() -> impl Strategy<Value = RawUnits> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0usize..16, proptest::collection::vec(0usize..16, 1..4)),
            0..7,
        ),
        4..10,
    )
}

fn arb_config() -> impl Strategy<Value = MiningConfig> {
    (1u64..4, 0.0f64..=1.0, 1u32..=3, 0u32..=1).prop_map(|(count, conf, lo, extra)| {
        let hi = (lo + extra).min(4);
        MiningConfig::builder()
            .min_support_count(count)
            .min_confidence(conf)
            .cycle_bounds(lo.min(hi), hi)
            .build()
            .expect("valid generated config")
    })
}

/// Resolves the raw shape into partition-pure units.
fn materialize(raw: &RawUnits, pools: &[Vec<u32>]) -> Vec<Vec<ItemSet>> {
    raw.iter()
        .map(|unit| {
            unit.iter()
                .map(|(pool_sel, positions)| {
                    let pool = &pools[pool_sel % pools.len()];
                    ItemSet::from_ids(positions.iter().map(|p| pool[p % pool.len()]))
                })
                .collect()
        })
        .collect()
}

fn mine(units: &[Vec<ItemSet>], config: &MiningConfig) -> SlidingWindowMiner {
    let mut miner =
        SlidingWindowMiner::new(*config, units.len().max(1)).expect("valid miner");
    for unit in units {
        miner.push_unit(unit);
    }
    miner
}

fn query(miner: &SlidingWindowMiner, q: Option<MinConfidence>) -> Vec<CyclicRule> {
    miner.query_rules(q).expect("enough units retained").as_ref().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sharded_mining_plus_merge_equals_single_node(
        raw in arb_raw_units(),
        config in arb_config(),
        shards in 2u32..=4,
        use_max_key in any::<bool>(),
    ) {
        let key =
            if use_max_key { PartitionKey::MaxItem } else { PartitionKey::MinItem };
        let ring = ShardRing::new(shards).unwrap();
        let pools = pools(&ring);
        let units = materialize(&raw, &pools);

        let single = mine(&units, &config);
        let shard_miners: Vec<SlidingWindowMiner> = (0..shards as usize)
            .map(|s| {
                let sub_units: Vec<Vec<ItemSet>> = units
                    .iter()
                    .map(|unit| ring.split_unit(unit, key).swap_remove(s))
                    .collect();
                mine(&sub_units, &config)
            })
            .collect();

        for q in [None, MinConfidence::new(0.85)] {
            let expected = query(&single, q);
            let merged = merge_rule_views(
                shard_miners.iter().map(|m| query(m, q)),
            );
            prop_assert_eq!(
                &merged, &expected,
                "merged shard views diverged from the single node \
                 (shards {}, key {:?}, q {:?})",
                shards, key, q
            );
        }
    }

    #[test]
    fn degraded_merge_equals_single_node_without_that_shards_transactions(
        raw in arb_raw_units(),
        config in arb_config(),
        shards in 2u32..=4,
        dropped in 0u32..4,
    ) {
        let ring = ShardRing::new(shards).unwrap();
        let key = PartitionKey::MinItem;
        let dropped = (dropped % shards) as usize;
        let pools = pools(&ring);
        let units = materialize(&raw, &pools);

        // The oracle sees every unit, minus the dropped shard's
        // transactions — exactly what the surviving shards hold. Unit
        // boundaries are preserved (empty sub-units keep the clock).
        let surviving_units: Vec<Vec<ItemSet>> = units
            .iter()
            .map(|unit| {
                let mut splits = ring.split_unit(unit, key);
                splits.remove(dropped);
                splits.into_iter().flatten().collect()
            })
            .collect();
        let oracle = mine(&surviving_units, &config);

        let views: Vec<Vec<CyclicRule>> = (0..shards as usize)
            .filter(|&s| s != dropped)
            .map(|s| {
                let sub_units: Vec<Vec<ItemSet>> = units
                    .iter()
                    .map(|unit| ring.split_unit(unit, key).swap_remove(s))
                    .collect();
                query(&mine(&sub_units, &config), None)
            })
            .collect();
        let merged = merge_rule_views(views);
        prop_assert_eq!(
            &merged, &query(&oracle, None),
            "degraded merge diverged (shards {}, dropped {})", shards, dropped
        );
    }
}
