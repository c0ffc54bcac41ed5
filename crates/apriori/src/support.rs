use std::fmt;

/// A minimum-support threshold: either an absolute transaction count or a
/// fraction of the database size.
///
/// An itemset is **large** (frequent) in a database of `n` transactions
/// when its count is at least [`MinSupport::threshold`]`(n)`. The
/// threshold is never below 1, so nothing is large in an empty database
/// and zero-count itemsets are never large — the boundary semantics the
/// cyclic miners rely on when a time unit has no transactions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MinSupport {
    /// At least this many transactions must contain the itemset.
    Count(u64),
    /// At least this fraction (in `[0, 1]`) of the database must contain
    /// the itemset.
    Fraction(f64),
}

impl MinSupport {
    /// An absolute count threshold (clamped up to 1).
    pub fn count(c: u64) -> Self {
        MinSupport::Count(c.max(1))
    }

    /// A fractional threshold; `None` unless `0.0 <= f <= 1.0`.
    pub fn fraction(f: f64) -> Option<Self> {
        if (0.0..=1.0).contains(&f) {
            Some(MinSupport::Fraction(f))
        } else {
            None
        }
    }

    /// The absolute count an itemset needs in a database of
    /// `num_transactions` to be large. Always at least 1.
    ///
    /// For a fraction `f` this is the smallest `c ≥ 1` with
    /// `c / num_transactions ≥ f`, compared in `f64`, so an itemset at
    /// exactly the requested support is large. `ceil(f · n)` alone can
    /// overshoot: `0.07 · 100` is `7.000000000000001` in floating point,
    /// which would make 8 the threshold.
    pub fn threshold(self, num_transactions: usize) -> u64 {
        match self {
            MinSupport::Count(c) => c.max(1),
            MinSupport::Fraction(f) => {
                // The rounded product is at most one above the answer,
                // so scan up from one below it; `n` always meets `f`.
                let n = num_transactions as u64;
                let from = ((f * n as f64).ceil() as u64).saturating_sub(1).max(1);
                (from..n).find(|&c| c as f64 / n as f64 >= f).unwrap_or(n.max(1))
            }
        }
    }
}

impl fmt::Display for MinSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinSupport::Count(c) => write!(f, "count>={c}"),
            MinSupport::Fraction(x) => write!(f, "{}%", x * 100.0),
        }
    }
}

/// A minimum-confidence threshold in `[0, 1]`.
///
/// A rule `X ⇒ Y` meets the threshold in a database when
/// `count(X ∪ Y) >= minconf · count(X)`. The comparison is performed in
/// integer arithmetic (`count(X∪Y) · 2^32 >= minconf_fixed · count(X)`)
/// to keep miners deterministic across platforms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinConfidence(f64);

impl MinConfidence {
    /// Creates a threshold; `None` unless `0.0 <= f <= 1.0`.
    pub fn new(f: f64) -> Option<Self> {
        if (0.0..=1.0).contains(&f) {
            Some(MinConfidence(f))
        } else {
            None
        }
    }

    /// The raw fraction.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether a rule with `rule_count` occurrences out of
    /// `antecedent_count` antecedent occurrences meets the threshold.
    ///
    /// Returns `false` when the antecedent never occurs (confidence is
    /// undefined, and such a rule cannot *hold*).
    pub fn accepts(self, rule_count: u64, antecedent_count: u64) -> bool {
        if antecedent_count == 0 {
            return false;
        }
        // Fixed-point comparison: rule_count / antecedent_count >= self.0.
        let lhs = (rule_count as u128) << 32;
        let rhs = (self.0 * 4_294_967_296.0) as u128 * antecedent_count as u128;
        lhs >= rhs
    }
}

impl fmt::Display for MinConfidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn count_threshold_clamps_to_one() {
        assert_eq!(MinSupport::count(0).threshold(100), 1);
        assert_eq!(MinSupport::count(5).threshold(100), 5);
        assert_eq!(MinSupport::Count(0).threshold(100), 1);
    }

    #[test]
    fn fraction_threshold_rounds_up() {
        let ms = MinSupport::fraction(0.5).unwrap();
        assert_eq!(ms.threshold(10), 5);
        assert_eq!(ms.threshold(9), 5); // ceil(4.5)
        assert_eq!(ms.threshold(1), 1);
        assert_eq!(ms.threshold(0), 1); // nothing large in empty db
        let tiny = MinSupport::fraction(0.0).unwrap();
        assert_eq!(tiny.threshold(100), 1); // still requires presence

        // 0.07 · 100 and 0.14 · 50 overshoot 7 in floating point.
        assert_eq!(MinSupport::fraction(0.07).unwrap().threshold(100), 7);
        assert_eq!(MinSupport::fraction(0.14).unwrap().threshold(50), 7);
        let all = MinSupport::fraction(1.0).unwrap();
        assert_eq!(all.threshold(7), 7);
        assert_eq!(all.threshold(0), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn fraction_of_a_count_thresholds_at_that_count(
            cn in (1u64..=10_000).prop_flat_map(|n| (1..=n, Just(n))),
        ) {
            let (c, n) = cn;
            let ms = MinSupport::fraction(c as f64 / n as f64).unwrap();
            prop_assert_eq!(ms.threshold(n as usize), c);
        }
    }

    #[test]
    fn fraction_validation() {
        assert!(MinSupport::fraction(-0.1).is_none());
        assert!(MinSupport::fraction(1.1).is_none());
        assert!(MinSupport::fraction(1.0).is_some());
        assert!(MinConfidence::new(0.5).is_some());
        assert!(MinConfidence::new(-0.5).is_none());
        assert!(MinConfidence::new(2.0).is_none());
    }

    #[test]
    fn confidence_accepts_boundary() {
        let half = MinConfidence::new(0.5).unwrap();
        assert!(half.accepts(1, 2)); // exactly 0.5
        assert!(half.accepts(2, 3));
        assert!(!half.accepts(1, 3));
        assert!(!half.accepts(0, 0)); // undefined confidence
        let one = MinConfidence::new(1.0).unwrap();
        assert!(one.accepts(3, 3));
        assert!(!one.accepts(2, 3));
        let zero = MinConfidence::new(0.0).unwrap();
        assert!(zero.accepts(0, 5));
        assert!(!zero.accepts(0, 0));
    }

    #[test]
    fn confidence_large_counts_do_not_overflow() {
        let c = MinConfidence::new(0.999).unwrap();
        assert!(c.accepts(u64::MAX, u64::MAX));
        assert!(!c.accepts(u64::MAX / 2, u64::MAX));
    }

    #[test]
    fn display_formats() {
        assert_eq!(MinSupport::count(3).to_string(), "count>=3");
        assert_eq!(MinSupport::fraction(0.25).unwrap().to_string(), "25%");
        assert_eq!(MinConfidence::new(0.6).unwrap().to_string(), "60%");
    }
}
