//! A fast, non-cryptographic hasher and hash-map aliases.
//!
//! The standard library's default SipHash is robust against hash-flooding
//! but slow for the short keys (itemsets of a handful of `u32`s) that
//! dominate Apriori workloads. This module implements the multiply-xor
//! scheme popularised by rustc's `FxHasher`, avoiding an external
//! dependency. Mining inputs are not attacker-controlled hash keys, so the
//! weaker collision guarantees are acceptable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply-rotate hasher (Fx-style), whose [`finish`](Hasher::finish)
/// folds the high bits down.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The state with its high half folded into its low half. Bit `i` of
    /// a product depends only on bits `0..=i` of the word multiplied, so
    /// the raw state's low bits, which pick a hash table's bucket, would
    /// ignore every high bit of a one-word key: keys that differ only
    /// above bit 32 would all share one probe chain. The fold is a
    /// bijection, so it adds no collision.
    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![2u32, 1]));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FastHashMap<u32, u32> = FastHashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(&10));
        let mut s: FastHashSet<&str> = FastHashSet::default();
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
    }

    #[test]
    fn spreads_small_integers() {
        // Not a statistical test — just ensure low bits differ across a
        // small range so bucket distribution is sane.
        let hashes: Vec<u64> = (0u32..64).map(|i| hash_of(&i)).collect();
        let distinct_low: std::collections::HashSet<u64> =
            hashes.iter().map(|h| h & 0xff).collect();
        assert!(distinct_low.len() > 32, "low byte collides too much");
    }

    #[test]
    fn spreads_keys_that_differ_only_in_high_bits() {
        // A hash table picks a bucket from the low bits of the hash.
        let buckets: std::collections::HashSet<u64> =
            (0u64..4096).map(|i| hash_of(&(i << 32)) & 0xfff).collect();
        assert!(buckets.len() > 2048, "{} low-12-bit buckets", buckets.len());
    }

    #[test]
    fn write_handles_unaligned_tails() {
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
