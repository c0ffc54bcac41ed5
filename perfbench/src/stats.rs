//! Order statistics over latency samples.

/// Percentiles a tail metric may fall back to, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (any order); NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest rank) of `samples`; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie beyond the nearest rank of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile, at most `cap`, that leaves at least
/// `min_beyond` of `n` samples beyond it; `None` when even the median
/// lacks that support.
pub fn highest_supported_percentile(
    n: usize,
    cap: f64,
    min_beyond: usize,
) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000, 99.0, 10), Some(99.0));
        // One sample short: p99 leaves 9 beyond, so p98 is the answer.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(999, 99.0, 10), Some(98.0));
    }

    #[test]
    fn cap_and_small_samples() {
        // Plenty of samples, but the workload names p95.
        assert_eq!(highest_supported_percentile(100_000, 95.0, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(200, 99.0, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(40, 99.0, 10), Some(75.0));
        assert_eq!(highest_supported_percentile(20, 99.0, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(19, 99.0, 10), None);
        assert_eq!(highest_supported_percentile(0, 99.0, 10), None);
    }
}
