//! Named workload presets.
//!
//! The association-rule literature evaluates on a few canonical dataset
//! shapes — the Quest families `T10.I4.D100K` and `T40.I10.D100K`, and
//! the `Retail` basket data. The real files are not redistributable
//! here, so these presets configure the generator to the same published
//! *shape statistics* (item universe, average transaction and pattern
//! sizes), scaled into a time-segmented form for cyclic mining. The
//! scale factor shrinks the transaction count while preserving shape,
//! letting tests use the same presets the benchmarks use.

use crate::cyclic::CyclicConfig;
use crate::quest::QuestConfig;

/// `T10.I4` shape: 1000 items, average transaction size 10, average
/// pattern size 4 — segmented into `units` time units whose sizes sum to
/// `100_000 / scale_divisor` transactions.
///
/// # Panics
///
/// Panics if `units == 0` or `scale_divisor == 0`.
pub fn t10i4_like(units: usize, scale_divisor: usize) -> CyclicConfig {
    assert!(units > 0 && scale_divisor > 0, "invalid preset scaling");
    CyclicConfig {
        quest: QuestConfig {
            num_items: 1000,
            avg_transaction_len: 10.0,
            avg_pattern_len: 4.0,
            num_patterns: 100,
            correlation: 0.5,
            corruption_mean: 0.25,
        },
        num_units: units,
        transactions_per_unit: (100_000 / scale_divisor / units).max(1),
        num_cyclic_patterns: 20,
        cyclic_pattern_len: 2,
        cycle_length_range: (2, 12.min(units as u32).max(2)),
        boost: 0.8,
        max_planted_per_transaction: 2,
    }
}

/// `T40.I10` shape: 1000 items, average transaction size 40, average
/// pattern size 10 — the dense family that stresses counting engines.
///
/// # Panics
///
/// Panics if `units == 0` or `scale_divisor == 0`.
pub fn t40i10_like(units: usize, scale_divisor: usize) -> CyclicConfig {
    assert!(units > 0 && scale_divisor > 0, "invalid preset scaling");
    CyclicConfig {
        quest: QuestConfig {
            num_items: 1000,
            avg_transaction_len: 40.0,
            avg_pattern_len: 10.0,
            num_patterns: 100,
            correlation: 0.5,
            corruption_mean: 0.25,
        },
        num_units: units,
        transactions_per_unit: (100_000 / scale_divisor / units).max(1),
        num_cyclic_patterns: 20,
        cyclic_pattern_len: 2,
        cycle_length_range: (2, 12.min(units as u32).max(2)),
        boost: 0.8,
        max_planted_per_transaction: 2,
    }
}

/// `Retail`-like shape: a large sparse universe (16 470 items in the
/// original, kept here) with short transactions — the long-tail regime.
///
/// # Panics
///
/// Panics if `units == 0` or `scale_divisor == 0`.
pub fn retail_like(units: usize, scale_divisor: usize) -> CyclicConfig {
    assert!(units > 0 && scale_divisor > 0, "invalid preset scaling");
    CyclicConfig {
        quest: QuestConfig {
            num_items: 16_470,
            avg_transaction_len: 10.0,
            avg_pattern_len: 3.0,
            num_patterns: 200,
            correlation: 0.3,
            corruption_mean: 0.4,
        },
        num_units: units,
        transactions_per_unit: (88_162 / scale_divisor / units).max(1),
        num_cyclic_patterns: 20,
        cyclic_pattern_len: 2,
        cycle_length_range: (2, 12.min(units as u32).max(2)),
        boost: 0.8,
        max_planted_per_transaction: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_cyclic;
    use car_itemset::SegmentedDb;

    /// Mean transaction length over every unit.
    fn avg_transaction_len(db: &SegmentedDb) -> f64 {
        let total: usize = db.iter_all().map(|(_, t)| t.len()).sum();
        total as f64 / db.num_transactions().max(1) as f64
    }

    /// Distinct items over every unit.
    fn num_distinct_items(db: &SegmentedDb) -> usize {
        let mut items: Vec<u32> =
            db.iter_all().flat_map(|(_, t)| t.iter().map(|i| i.id())).collect();
        items.sort_unstable();
        items.dedup();
        items.len()
    }

    #[test]
    fn presets_produce_the_declared_shape() {
        // Scale down hard so the test runs in milliseconds.
        let data = generate_cyclic(&t10i4_like(8, 100), 1);
        assert_eq!(data.db.num_units(), 8);
        let avg = avg_transaction_len(&data.db);
        // T10 plus planted-pattern unions: between 8 and 14.
        assert!((8.0..14.0).contains(&avg), "avg tx len {avg}");
        assert!(num_distinct_items(&data.db) > 100);
    }

    #[test]
    fn t40_is_denser_than_t10() {
        let t10 = generate_cyclic(&t10i4_like(4, 200), 2);
        let t40 = generate_cyclic(&t40i10_like(4, 200), 2);
        let a = avg_transaction_len(&t10.db);
        let b = avg_transaction_len(&t40.db);
        assert!(b > 2.0 * a, "T40 ({b}) should dwarf T10 ({a})");
    }

    #[test]
    fn retail_universe_is_sparse() {
        let retail = generate_cyclic(&retail_like(4, 200), 3);
        let distinct = num_distinct_items(&retail.db);
        // Many distinct items relative to transaction count (440
        // transactions draw from a pool of ~200 patterns plus noise).
        assert!(distinct > 250, "{distinct}");
        assert!((6.0..14.0).contains(&avg_transaction_len(&retail.db)));
    }

    #[test]
    fn transaction_budget_is_split_across_units() {
        let c = t10i4_like(10, 10);
        assert_eq!(c.transactions_per_unit, 1000);
        let c = retail_like(8, 88);
        assert_eq!(c.transactions_per_unit, 125);
    }

    #[test]
    #[should_panic(expected = "invalid preset scaling")]
    fn zero_units_rejected() {
        let _ = t10i4_like(0, 1);
    }
}
