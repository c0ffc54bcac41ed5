use std::fmt;

use crate::ItemSet;

/// Index of a time unit in a [`SegmentedDb`], starting at zero.
///
/// Time units are the granularity at which cyclic behaviour is observed:
/// a unit might be an hour, a day, or a month of real time; the mining
/// algorithms only see the index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeUnit(u32);

impl TimeUnit {
    /// Creates a time unit from its index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        TimeUnit(index)
    }

    /// The unit's index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The unit's index as the raw `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for TimeUnit {
    fn from(index: u32) -> Self {
        TimeUnit(index)
    }
}

impl fmt::Debug for TimeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for TimeUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A transaction database partitioned into consecutive time units.
///
/// This is the input structure of cyclic association rule mining: the time
/// dimension is divided into `n` equal-length units and every transaction
/// is assigned to exactly one unit. `SegmentedDb` stores, for each unit,
/// the itemsets of the transactions that fall into it.
///
/// Units may be empty (for instance, a shop with no sales on a holiday);
/// by definition no itemset is *large* in an empty unit.
#[derive(Clone, PartialEq, Eq)]
pub struct SegmentedDb {
    units: Vec<Vec<ItemSet>>,
}

impl SegmentedDb {
    /// Creates a segmented database from per-unit transaction itemsets.
    pub fn from_unit_itemsets(units: Vec<Vec<ItemSet>>) -> Self {
        SegmentedDb { units }
    }

    /// Creates an empty database with `n` empty units.
    pub fn with_units(n: usize) -> Self {
        SegmentedDb { units: vec![Vec::new(); n] }
    }

    /// Segments raw timestamped itemsets: transaction `(time, items)` goes
    /// into unit `(time - t0) / unit_len` where `t0` is the smallest time.
    ///
    /// Returns an empty database when the input is empty.
    ///
    /// # Panics
    ///
    /// Panics if `unit_len == 0`.
    pub fn from_timestamps(mut rows: Vec<(u64, ItemSet)>, unit_len: u64) -> Self {
        assert!(unit_len > 0, "unit length must be positive");
        if rows.is_empty() {
            return SegmentedDb { units: Vec::new() };
        }
        rows.sort_by_key(|(t, _)| *t);
        let t0 = rows[0].0;
        let last_unit = ((rows[rows.len() - 1].0 - t0) / unit_len) as usize;
        let mut units: Vec<Vec<ItemSet>> = vec![Vec::new(); last_unit + 1];
        for (t, items) in rows {
            units[((t - t0) / unit_len) as usize].push(items);
        }
        SegmentedDb { units }
    }

    /// Appends a transaction itemset to the given unit, growing the unit
    /// list if needed.
    pub fn push(&mut self, unit: TimeUnit, items: ItemSet) {
        let idx = unit.index();
        if idx >= self.units.len() {
            self.units.resize_with(idx + 1, Vec::new);
        }
        self.units[idx].push(items);
    }

    /// Number of time units (including empty ones).
    #[inline]
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Total number of transactions across all units.
    pub fn num_transactions(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }

    /// The transactions of unit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_units()`.
    #[inline]
    pub fn unit(&self, i: usize) -> &[ItemSet] {
        &self.units[i]
    }

    /// Iterates over `(unit_index, transactions)` pairs.
    pub fn iter_units(&self) -> impl Iterator<Item = (usize, &[ItemSet])> {
        self.units.iter().enumerate().map(|(i, u)| (i, u.as_slice()))
    }

    /// Iterates over every transaction itemset with its unit index.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, &ItemSet)> {
        self.units.iter().enumerate().flat_map(|(i, u)| u.iter().map(move |t| (i, t)))
    }

    /// The largest item id occurring in the database, if any.
    pub fn max_item_id(&self) -> Option<u32> {
        self.iter_all().filter_map(|(_, t)| t.as_slice().last().map(|it| it.id())).max()
    }
}

impl fmt::Debug for SegmentedDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SegmentedDb({} units, {} transactions)",
            self.num_units(),
            self.num_transactions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn from_unit_itemsets_basic() {
        let db = SegmentedDb::from_unit_itemsets(vec![
            vec![set(&[1, 2]), set(&[2])],
            vec![],
            vec![set(&[3])],
        ]);
        assert_eq!(db.num_units(), 3);
        assert_eq!(db.num_transactions(), 3);
        assert_eq!(db.unit(0).len(), 2);
        assert!(db.unit(1).is_empty());
        assert_eq!(db.max_item_id(), Some(3));
    }

    #[test]
    fn from_timestamps_buckets_correctly() {
        let rows =
            vec![(100, set(&[1])), (109, set(&[2])), (110, set(&[3])), (125, set(&[4]))];
        let db = SegmentedDb::from_timestamps(rows, 10);
        assert_eq!(db.num_units(), 3);
        assert_eq!(db.unit(0).len(), 2); // t=100, 109
        assert_eq!(db.unit(1).len(), 1); // t=110
        assert_eq!(db.unit(2).len(), 1); // t=125
    }

    #[test]
    fn from_timestamps_empty_input() {
        let db = SegmentedDb::from_timestamps(Vec::new(), 10);
        assert_eq!(db.num_units(), 0);
        assert_eq!(db.num_transactions(), 0);
        assert_eq!(db.max_item_id(), None);
    }

    #[test]
    #[should_panic(expected = "unit length must be positive")]
    fn from_timestamps_zero_unit_len_panics() {
        let _ = SegmentedDb::from_timestamps(vec![(0, set(&[1]))], 0);
    }

    #[test]
    fn push_grows_units() {
        let mut db = SegmentedDb::with_units(1);
        db.push(TimeUnit::new(4), set(&[1]));
        assert_eq!(db.num_units(), 5);
        assert_eq!(db.unit(4).len(), 1);
        assert!(db.unit(2).is_empty());
    }

    #[test]
    fn iter_all_yields_unit_indices() {
        let db = SegmentedDb::from_unit_itemsets(vec![vec![set(&[1])], vec![set(&[2])]]);
        let pairs: Vec<(usize, ItemSet)> =
            db.iter_all().map(|(i, t)| (i, t.clone())).collect();
        assert_eq!(pairs, vec![(0, set(&[1])), (1, set(&[2]))]);
    }
}
