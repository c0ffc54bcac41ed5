use std::fmt;
use std::str::FromStr;

const WORD_BITS: usize = 64;

/// A fixed-length binary sequence, bit-packed into `u64` words.
///
/// In cyclic association rule mining a `BitSeq` records, per time unit,
/// whether a rule held (or an itemset was large) in that unit. Sequences
/// are created all-zero and bits are switched on as units are mined.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSeq {
    len: usize,
    words: Vec<u64>,
}

impl BitSeq {
    /// Creates an all-zero sequence of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitSeq { len, words: vec![0; len.div_ceil(WORD_BITS)] }
    }

    /// Creates an all-one sequence of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut s = BitSeq { len, words: vec![u64::MAX; len.div_ceil(WORD_BITS)] };
        s.clear_tail();
        s
    }

    /// Builds a sequence from booleans.
    pub fn from_bits<I>(bits: I) -> Self
    where
        I: IntoIterator<Item = bool>,
    {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut s = BitSeq::zeros(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                s.set(i, true);
            }
        }
        s
    }

    /// A sequence of `len` bits from its packed words: bit `i` is bit
    /// `i % 64` of `words[i / 64]`. Missing words read as zeros; words
    /// and bits past `len` are dropped.
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        let mut s = BitSeq::zeros(len);
        for (word, &bits) in s.words.iter_mut().zip(words) {
            *word = bits;
        }
        s.clear_tail();
        s
    }

    /// Sequence length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Number of 1-bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of 1-bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + bit)
                }
            })
        })
    }

    /// Iterates the indices of 0-bits in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let start = wi * WORD_BITS;
            let mut w = !w;
            if len - start < WORD_BITS {
                w &= (1u64 << (len - start)) - 1;
            }
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(start + bit)
                }
            })
        })
    }

    /// Iterates all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Whether every bit is 1.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether every bit is 0.
    pub fn none(&self) -> bool {
        self.count_ones() == 0
    }

    fn clear_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSeq({self})")
    }
}

impl fmt::Display for BitSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

/// Parses a `0`/`1` string, e.g. `"0110"`.
impl FromStr for BitSeq {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut seq = BitSeq::zeros(s.len());
        for (i, ch) in s.chars().enumerate() {
            match ch {
                '0' => {}
                '1' => seq.set(i, true),
                other => return Err(format!("invalid bit character `{other}`")),
            }
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitSeq::zeros(70);
        assert_eq!(z.len(), 70);
        assert!(z.none());
        assert!(!z.all());
        let o = BitSeq::ones(70);
        assert!(o.all());
        assert_eq!(o.count_ones(), 70);
    }

    #[test]
    fn ones_clears_tail_bits() {
        // The last word must not contain stray bits past `len`.
        let o = BitSeq::ones(65);
        assert_eq!(o.count_ones(), 65);
        let o = BitSeq::ones(64);
        assert_eq!(o.count_ones(), 64);
    }

    #[test]
    fn set_get_across_word_boundary() {
        let mut s = BitSeq::zeros(130);
        for &i in &[0usize, 63, 64, 127, 128, 129] {
            assert!(!s.get(i));
            s.set(i, true);
            assert!(s.get(i));
        }
        assert_eq!(s.count_ones(), 6);
        s.set(64, false);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitSeq::zeros(3).get(3);
    }

    #[test]
    fn iter_ones_and_zeros() {
        let s: BitSeq = "01101".parse().unwrap();
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(s.iter_zeros().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![false, true, true, false, true]);
    }

    #[test]
    fn from_words_matches_setting_bits() {
        let words = [0b1011, u64::MAX];
        let seq = BitSeq::from_words(70, &words);
        let ones: Vec<usize> = [0, 1, 3].into_iter().chain(64..70).collect();
        assert_eq!(seq, BitSeq::from_bits((0..70).map(|i| ones.contains(&i))));
        assert_eq!(seq.count_ones(), 9);
        // Missing words are zeros.
        assert_eq!(BitSeq::from_words(130, &words).count_ones(), 67);
        assert_eq!(BitSeq::from_words(3, &[]), BitSeq::zeros(3));
    }

    #[test]
    fn iter_zeros_stops_at_len_across_words() {
        for len in [0, 1, 63, 64, 65, 128, 130] {
            let mut s = BitSeq::zeros(len);
            for i in (0..len).step_by(3) {
                s.set(i, true);
            }
            let expect: Vec<usize> = (0..len).filter(|i| i % 3 != 0).collect();
            assert_eq!(s.iter_zeros().collect::<Vec<_>>(), expect, "len {len}");
            assert_eq!(BitSeq::ones(len).iter_zeros().count(), 0, "len {len}");
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for text in ["", "0", "1", "0110", "1010101010101"] {
            let s: BitSeq = text.parse().unwrap();
            assert_eq!(s.to_string(), text);
        }
        assert!("01x".parse::<BitSeq>().is_err());
    }

    #[test]
    fn from_bits_matches_parse() {
        let a = BitSeq::from_bits([true, false, true]);
        let b: BitSeq = "101".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_ones_spans_many_words() {
        let mut s = BitSeq::zeros(200);
        let positions = [0usize, 1, 63, 64, 65, 128, 199];
        for &p in &positions {
            s.set(p, true);
        }
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), positions.to_vec());
    }
}
