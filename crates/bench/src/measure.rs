//! Timed runs: every sweep point is timed [`RUNS`] times.

use std::fmt;
use std::time::{Duration, Instant};

use car_core::{Algorithm, CyclicRuleMiner, MiningConfig, MiningStats};
use car_itemset::SegmentedDb;

/// Timed runs per sweep point: five give a median and quartiles, and a
/// base-scale pass of every experiment still takes only minutes.
pub const RUNS: usize = 5;

/// The median of a point's timed runs with its first and third
/// quartiles; it prints as `median [q1, q3]`.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// First quartile.
    pub q1: Duration,
    /// Median.
    pub median: Duration,
    /// Third quartile.
    pub q3: Duration,
}

impl Timing {
    /// The quartiles of `runs`, interpolated linearly between the sorted
    /// runs (with five runs: the second, third and fourth).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn of(runs: &[Duration]) -> Timing {
        assert!(!runs.is_empty(), "a timing needs at least one run");
        let mut sorted = runs.to_vec();
        sorted.sort_unstable();
        let quantile = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]).mul_f64(pos - lo as f64)
        };
        Timing { q1: quantile(0.25), median: quantile(0.5), q3: quantile(0.75) }
    }

    /// The ratio of this median to `other`'s: how many times faster
    /// `other` ran.
    pub fn ratio(&self, other: &Timing) -> f64 {
        self.median.as_secs_f64() / other.median.as_secs_f64()
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (median, q1, q3) = (
            format_duration(self.median),
            format_duration(self.q1),
            format_duration(self.q3),
        );
        write!(f, "{median} [{q1}, {q3}]")
    }
}

/// Formats a duration in the human scale benchmarking output wants. A
/// unit starts where the smaller one would round to 1000.
fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 0.999_95 {
        format!("{secs:.2}s")
    } else if secs >= 0.999_5e-3 {
        format!("{:.1}ms", secs * 1e3)
    } else {
        format!("{:.0}µs", secs * 1e6)
    }
}

/// Runs each of `N` jobs [`RUNS`] times, alternating them run by run
/// (run `r` starts with job `r mod N`), and returns each job's timing
/// with the result of its first run.
///
/// # Panics
///
/// Panics if a later run of a job returns anything but its first
/// result: every job the harness times is deterministic, so a
/// difference is a bug.
pub fn time_runs<T: PartialEq, const N: usize>(
    mut job: impl FnMut(usize) -> T,
) -> [(Timing, T); N] {
    let mut runtimes: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::new());
    let mut results: [Option<T>; N] = std::array::from_fn(|_| None);
    for run in 0..RUNS {
        for i in (run..run + N).map(|k| k % N) {
            let start = Instant::now();
            let result = job(i);
            runtimes[i].push(start.elapsed());
            match &results[i] {
                Some(first) => assert!(*first == result, "run {run} of job {i} differs"),
                None => results[i] = Some(result),
            }
        }
    }
    let mut results = results.into_iter().flatten();
    std::array::from_fn(|i| {
        (Timing::of(&runtimes[i]), results.next().expect("every job ran"))
    })
}

/// One algorithm's runs at one sweep point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock runtime over the point's [`RUNS`] runs.
    pub runtime: Timing,
    /// Number of cyclic rules found.
    pub rules: usize,
    /// The work counters, the same in every run; the phase times are
    /// zero.
    pub stats: MiningStats,
}

/// Mines `db` with each of `algorithms` [`RUNS`] times through
/// [`time_runs`] and returns their measurements in order.
///
/// # Panics
///
/// Panics if the configuration is invalid for the database (scenarios
/// are validated when built), if two runs of an algorithm differ in
/// their rules or in any work counter, or if two algorithms return
/// different rules.
pub fn measure<const N: usize>(
    db: &SegmentedDb,
    config: &MiningConfig,
    algorithms: [Algorithm; N],
) -> [Measurement; N] {
    let miners = algorithms.map(|algorithm| CyclicRuleMiner::new(*config, algorithm));
    let runs = time_runs(|i| {
        let outcome = miners[i].mine(db).expect("scenario must be valid");
        (outcome.rules, counters(outcome.stats))
    });
    let (_, (reference, _)) = &runs[0];
    for (algorithm, (_, (rules, _))) in algorithms.iter().zip(&runs) {
        assert!(rules == reference, "{algorithm:?} and {:?} disagree", algorithms[0]);
    }
    runs.map(|(runtime, (rules, stats))| Measurement {
        runtime,
        rules: rules.len(),
        stats,
    })
}

/// `stats` without its phase times, the only fields that differ from run
/// to run.
fn counters(stats: MiningStats) -> MiningStats {
    MiningStats { phase1: Duration::ZERO, phase2: Duration::ZERO, ..stats }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::{scenario, ScenarioParams};

    #[test]
    fn measure_gives_quartiles_and_the_counters_of_a_single_run() {
        let mut p = ScenarioParams::default();
        p.units = 8;
        p.tx_per_unit = 40;
        p.items = 60;
        p.l_max = 4;
        p.min_support = 0.2;
        let s = scenario("tiny", p);
        let algorithms = [Algorithm::Sequential, Algorithm::interleaved()];
        let measured = measure(&s.db, &s.config, algorithms);
        for (m, algorithm) in measured.iter().zip(algorithms) {
            let t = m.runtime;
            assert!(t.q1 <= t.median && t.median <= t.q3, "{t:?}");
            assert!(t.q1 > Duration::ZERO);
            let single = CyclicRuleMiner::new(s.config, algorithm).mine(&s.db).unwrap();
            assert_eq!(m.rules, single.rules.len());
            assert_eq!(m.stats, counters(single.stats), "{algorithm:?}");
        }
        assert!(measured[0].rules > 0);
        assert!(measured[1].stats.skipped_counts > 0, "INTERLEAVED skipped nothing");
    }

    #[test]
    fn time_runs_alternates_jobs_and_keeps_first_results() {
        let mut order = Vec::new();
        let runs = time_runs(|i| {
            order.push(i);
            i * 10
        });
        assert_eq!(order, [0, 1, 1, 0, 0, 1, 1, 0, 0, 1]);
        assert_eq!(runs.map(|(_, result)| result), [0, 10]);
    }

    #[test]
    #[should_panic(expected = "run 1 of job 0 differs")]
    fn time_runs_panics_when_a_run_differs() {
        let mut calls = 0;
        let _: [(Timing, u32); 1] = time_runs(|_| {
            calls += 1;
            calls
        });
    }

    #[test]
    fn quartiles_interpolate_between_sorted_runs() {
        let ms = Duration::from_millis;
        let t = Timing::of(&[ms(50), ms(10), ms(40), ms(20), ms(30)]);
        assert_eq!((t.q1, t.median, t.q3), (ms(20), ms(30), ms(40)));
        assert_eq!(t.to_string(), "30.0ms [20.0ms, 40.0ms]");
        let t = Timing::of(&[ms(10), ms(20)]);
        assert_eq!(t.median, ms(15));
        assert_eq!(t.to_string(), "15.0ms [12.5ms, 17.5ms]");
        let secs = Duration::from_secs;
        assert_eq!(Timing::of(&[secs(6)]).ratio(&Timing::of(&[secs(2)])), 3.0);
    }

    #[test]
    fn formats_durations() {
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.0ms");
        assert_eq!(format_duration(Duration::from_micros(7)), "7µs");
        assert_eq!(format_duration(Duration::from_nanos(999_600)), "1.0ms");
        assert_eq!(format_duration(Duration::from_nanos(999_400)), "999µs");
        assert_eq!(format_duration(Duration::from_micros(999_960)), "1.00s");
    }
}
