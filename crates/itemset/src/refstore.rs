//! Flat, `Vec`-backed stores keyed by small dense integers.
//!
//! The mining kernels spend their time in maps whose keys are interned
//! item ids — dense `u32`s handed out sequentially by
//! [`Vocabulary`](crate::Vocabulary) (and by every data generator and
//! test in the workspace). Hashing such keys buys nothing: a flat
//! `Vec` indexed by the key itself is a single predictable load where a
//! `HashMap` is a hash, a probe sequence, and a branch per probe. These
//! stores make that trade explicit, in the spirit of aries'
//! `RefMap`/`IterableRefSet`:
//!
//! * [`RefMap`] — `Vec<Option<V>>` keyed by `usize`; O(1) get/insert,
//!   grows to the largest key touched.
//! * [`RefCounter`] — dense `u64` counters with a touched-key list;
//!   built for the per-unit level-1 scan, where the same buffer is
//!   cleared and refilled once per time unit.
//!
//! Both are panic-free (audited under A1/A3): no indexing, no
//! division, saturating counter arithmetic. Keys are the caller's
//! responsibility to keep *dense*: memory is proportional to the
//! largest key, which is why the counting kernels guard with a
//! density check before choosing a flat store over a hash map.

/// A map from small dense `usize` keys to values, backed by a flat
/// `Vec<Option<V>>`.
#[derive(Clone, Debug, Default)]
pub struct RefMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> RefMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        RefMap { slots: Vec::new() }
    }

    /// An empty map with room for keys `0..capacity` preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(capacity, || None);
        RefMap { slots }
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: usize, value: V) -> Option<V> {
        if self.slots.len() <= key {
            self.slots.resize_with(key.saturating_add(1), || None);
        }
        self.slots.get_mut(key).and_then(|slot| slot.replace(value))
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: usize) -> Option<&V> {
        self.slots.get(key).and_then(Option::as_ref)
    }

    /// Mutable access to the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: usize) -> Option<&mut V> {
        self.slots.get_mut(key).and_then(Option::as_mut)
    }

    /// Whether `key` has a value.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        self.slots.get(key).is_some_and(Option::is_some)
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: usize) -> Option<V> {
        self.slots.get_mut(key).and_then(Option::take)
    }

    /// Iterates `(key, &value)` over present entries in key order.
    ///
    /// Costs O(largest key); prefer [`RefCounter`] when iteration is
    /// hot.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.slots.iter().enumerate().filter_map(|(k, v)| v.as_ref().map(|v| (k, v)))
    }

    /// Number of slots allocated (largest key touched + 1).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Dense `u64` counters over small `usize` keys, with a touched-key
/// list so reading the non-zero entries and resetting cost O(touched).
///
/// This is the level-1 scan's working store: one `add` per item
/// occurrence, one `clear` per time unit, allocations reused across
/// units.
#[derive(Clone, Debug, Default)]
pub struct RefCounter {
    counts: Vec<u64>,
    touched: Vec<usize>,
}

impl RefCounter {
    /// An empty counter.
    pub fn new() -> Self {
        RefCounter::default()
    }

    /// Adds `n` to the counter at `key` (saturating).
    pub fn add(&mut self, key: usize, n: u64) {
        if self.counts.len() <= key {
            self.counts.resize(key.saturating_add(1), 0);
        }
        if let Some(slot) = self.counts.get_mut(key) {
            if *slot == 0 {
                self.touched.push(key);
            }
            *slot = slot.saturating_add(n);
        }
    }

    /// The count at `key` (0 when never touched).
    #[inline]
    pub fn get(&self, key: usize) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of keys with a non-zero count.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no key has been counted.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Iterates `(key, count)` over touched keys in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.touched.iter().map(|&k| (k, self.get(k)))
    }

    /// The touched keys, sorted ascending.
    pub fn keys_sorted(&self) -> Vec<usize> {
        let mut keys = self.touched.clone();
        keys.sort_unstable();
        keys
    }

    /// Zeroes every touched counter in O(touched), keeping allocations.
    pub fn clear(&mut self) {
        for &k in &self.touched {
            if let Some(slot) = self.counts.get_mut(k) {
                *slot = 0;
            }
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refmap_insert_get_remove() {
        let mut m: RefMap<&str> = RefMap::new();
        assert!(m.get(3).is_none());
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.insert(3, "THREE"), Some("three"));
        assert_eq!(m.get(3), Some(&"THREE"));
        assert!(m.contains(3));
        assert!(!m.contains(2));
        assert_eq!(m.remove(3), Some("THREE"));
        assert!(m.get(3).is_none());
        assert_eq!(m.remove(100), None);
    }

    #[test]
    fn refmap_iter_and_capacity() {
        let mut m: RefMap<u64> = RefMap::with_capacity(4);
        m.insert(9, 7);
        if let Some(v) = m.get_mut(9) {
            *v += 1;
        }
        assert_eq!(m.get(9), Some(&8));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(9, &8)]);
        assert!(m.capacity() >= 10);
    }

    #[test]
    fn refcounter_counts_and_clears() {
        let mut c = RefCounter::new();
        c.add(7, 1);
        c.add(7, 2);
        c.add(0, 1);
        assert_eq!(c.get(7), 3);
        assert_eq!(c.get(0), 1);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.keys_sorted(), vec![0, 7]);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(7, 3), (0, 1)]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(7), 0);
        c.add(7, 4);
        assert_eq!(c.get(7), 4);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn refcounter_saturates() {
        let mut c = RefCounter::new();
        c.add(1, u64::MAX);
        c.add(1, 5);
        assert_eq!(c.get(1), u64::MAX);
    }
}
