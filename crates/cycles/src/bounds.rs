use std::fmt;

use crate::Cycle;

/// User-supplied bounds `l_min ≤ l ≤ l_max` on interesting cycle lengths.
///
/// The ICDE'98 paper restricts attention to cycles whose length lies within
/// these bounds: too-short cycles are trivial (a length-1 cycle just means
/// "the rule always holds"), while cycles longer than the observation
/// window can never be confirmed. `CycleBounds` is carried by every
/// [`CycleSet`](crate::CycleSet) and by the mining configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleBounds {
    l_min: u32,
    l_max: u32,
}

impl CycleBounds {
    /// Creates bounds, requiring `1 ≤ l_min ≤ l_max`.
    pub fn new(l_min: u32, l_max: u32) -> Option<Self> {
        if l_min >= 1 && l_min <= l_max {
            Some(CycleBounds { l_min, l_max })
        } else {
            None
        }
    }

    /// Creates bounds without returning an `Option`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ l_min ≤ l_max`.
    pub fn make(l_min: u32, l_max: u32) -> Self {
        Self::new(l_min, l_max)
            .unwrap_or_else(|| panic!("invalid cycle bounds [{l_min},{l_max}]"))
    }

    /// Minimum cycle length.
    #[inline]
    pub const fn l_min(self) -> u32 {
        self.l_min
    }

    /// Maximum cycle length.
    #[inline]
    pub const fn l_max(self) -> u32 {
        self.l_max
    }

    /// Whether a length lies within the bounds.
    #[inline]
    pub fn contains_length(self, l: u32) -> bool {
        l >= self.l_min && l <= self.l_max
    }

    /// Whether a cycle's length lies within the bounds.
    #[inline]
    pub fn contains(self, c: Cycle) -> bool {
        self.contains_length(c.length())
    }

    /// Iterates the lengths `l_min..=l_max`.
    pub fn lengths(self) -> impl Iterator<Item = u32> {
        self.l_min..=self.l_max
    }

    /// Total number of `(l, o)` cycles within the bounds:
    /// `Σ_{l=l_min}^{l_max} l`.
    pub fn num_cycles(self) -> usize {
        let (a, b) = (self.l_min as usize, self.l_max as usize);
        (a + b) * (b - a + 1) / 2
    }

    /// Enumerates every cycle within the bounds, in `(length, offset)`
    /// lexicographic order.
    pub fn all_cycles(self) -> impl Iterator<Item = Cycle> {
        self.lengths().flat_map(|l| (0..l).map(move |o| Cycle::make(l, o)))
    }

    /// `⌊n / l_max⌋`: the fewest of the units `0..n` that any cycle
    /// within the bounds covers, so a sequence of `n` units with fewer
    /// ones has no cycle, which a popcount settles.
    #[inline]
    pub fn min_holds(self, n: usize) -> usize {
        min_holds(n, self.l_max)
    }
}

/// `⌊n / length⌋`: the fewest of the units `0..n` that lie on any one
/// cycle of `length`, so the fewest ones a sequence of `n` units needs to
/// have a cycle of that length. With `length = l_max` it bounds every
/// length within the bounds ([`CycleBounds::min_holds`]).
pub(crate) fn min_holds(n: usize, length: u32) -> usize {
    n.checked_div(length as usize).unwrap_or(0)
}

impl fmt::Debug for CycleBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.l_min, self.l_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(CycleBounds::new(0, 3).is_none());
        assert!(CycleBounds::new(4, 3).is_none());
        assert!(CycleBounds::new(1, 1).is_some());
        assert!(CycleBounds::new(2, 8).is_some());
    }

    #[test]
    fn num_cycles_counts_offsets() {
        assert_eq!(CycleBounds::make(1, 1).num_cycles(), 1);
        assert_eq!(CycleBounds::make(1, 3).num_cycles(), 6); // 1+2+3
        assert_eq!(CycleBounds::make(2, 4).num_cycles(), 9); // 2+3+4
        for (a, b) in [(1u32, 5u32), (3, 7), (2, 2)] {
            let bounds = CycleBounds::make(a, b);
            assert_eq!(bounds.num_cycles(), bounds.all_cycles().count());
        }
    }

    #[test]
    fn all_cycles_order_and_validity() {
        let cycles: Vec<Cycle> = CycleBounds::make(2, 3).all_cycles().collect();
        assert_eq!(
            cycles,
            vec![
                Cycle::make(2, 0),
                Cycle::make(2, 1),
                Cycle::make(3, 0),
                Cycle::make(3, 1),
                Cycle::make(3, 2),
            ]
        );
    }

    #[test]
    fn min_holds_is_the_smallest_residue_class() {
        for n in 0..40usize {
            for l in 1..12u32 {
                let smallest =
                    (0..l).map(|o| Cycle::make(l, o).num_units(n)).min().unwrap_or(0);
                assert_eq!(min_holds(n, l), smallest, "n {n} length {l}");
                assert_eq!(CycleBounds::make(1, l).min_holds(n), smallest);
            }
        }
    }

    #[test]
    fn containment() {
        let b = CycleBounds::make(2, 4);
        assert!(!b.contains_length(1));
        assert!(b.contains_length(2));
        assert!(b.contains_length(4));
        assert!(!b.contains_length(5));
        assert!(b.contains(Cycle::make(3, 1)));
        assert!(!b.contains(Cycle::make(5, 0)));
    }
}
