//! Workspace-local stand-in for the `criterion` crate.
//!
//! The build environment has no route to a crates registry, so the real
//! `criterion` can never be fetched. This crate implements the API subset
//! the bench suite uses — [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`bench_with_input`],
//! [`Bencher::iter`], [`BenchmarkId`], [`black_box`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros — as a
//! plain-text wall-clock harness: per benchmark it warms up, runs the
//! configured number of samples, and prints min/median/mean per
//! iteration. No statistical analysis, HTML reports, or baselines.
//!
//! Two environment variables drive CI integration:
//!
//! * `CAR_BENCH_JSON=<path>` — after every completed benchmark, rewrite
//!   `<path>` as a valid JSON array of all results so far (one object
//!   per benchmark: `group`, `name`, `n`, `min_ns`, `median_ns`,
//!   `mean_ns`). Rewriting the whole array each time means the file is
//!   parseable even if the bench binary is interrupted part-way.
//! * `CAR_BENCH_QUICK=1` — clamp warm-up to 50ms, measurement to 200ms,
//!   and samples to 10 per benchmark, regardless of what the bench
//!   source configures. CI smoke runs use this to prove the bench
//!   compiles and runs without paying full measurement time.
//!
//! [`bench_with_input`]: BenchmarkGroup::bench_with_input

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// All results reported so far, pre-rendered as JSON objects; the
/// `CAR_BENCH_JSON` file is rewritten from this registry after every
/// benchmark.
static JSON_RECORDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Whether `CAR_BENCH_QUICK` asks for clamped warm-up and measurement.
fn quick_mode() -> bool {
    std::env::var("CAR_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The `CAR_BENCH_JSON` output path, if set and non-empty.
fn json_path() -> Option<std::path::PathBuf> {
    std::env::var_os("CAR_BENCH_JSON")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends one result to the registry and rewrites the JSON file (when
/// `CAR_BENCH_JSON` is set) as a complete, valid array.
fn record_json(
    group: &str,
    name: &str,
    n: usize,
    min: Duration,
    median: Duration,
    mean: Duration,
) {
    let Some(path) = json_path() else { return };
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let record = format!(
        "{{\"group\":\"{}\",\"name\":\"{}\",\"n\":{},\"min_ns\":{},\"median_ns\":{},\"mean_ns\":{}}}",
        json_escape(group),
        json_escape(name),
        n,
        ns(min),
        ns(median),
        ns(mean)
    );
    let Ok(mut records) = JSON_RECORDS.lock() else { return };
    records.push(record);
    let body = format!("[\n  {}\n]\n", records.join(",\n  "));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("CAR_BENCH_JSON: failed to write {}: {e}", path.display());
    }
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
        }
    }
}

/// A benchmark's identifier: function name plus parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id labelled `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { label: format!("{}/{}", name.into(), parameter) }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// A group of related benchmarks sharing measurement settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time spent warming up before measurement.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Time budget for the measured samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Runs a benchmark with no per-benchmark input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let quick = quick_mode();
        let mut bencher = Bencher {
            sample_size: if quick { self.sample_size.min(10) } else { self.sample_size },
            warm_up_time: if quick {
                self.warm_up_time.min(Duration::from_millis(50))
            } else {
                self.warm_up_time
            },
            measurement_time: if quick {
                self.measurement_time.min(Duration::from_millis(200))
            } else {
                self.measurement_time
            },
            samples: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(&self.name, &id.label);
        self
    }

    /// Runs a benchmark against a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (printing nothing extra; provided for API parity).
    pub fn finish(&mut self) {}
}

/// Collects timed iterations of one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, called repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until the warm-up budget is spent.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
        }
        // Measurement: `sample_size` samples within the time budget.
        let budget = Instant::now();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
            if budget.elapsed() > self.measurement_time {
                break;
            }
        }
    }

    fn report(&self, group: &str, label: &str) {
        if self.samples.is_empty() {
            println!("{group}/{label:<40} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        println!(
            "{group}/{label:<40} min {:>12?}  median {:>12?}  mean {:>12?}  ({} samples)",
            min,
            median,
            mean,
            sorted.len()
        );
        record_json(group, label, sorted.len(), min, median, mean);
    }
}

/// Declares a benchmark group function calling each listed bench fn.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running each listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_test");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(50));
        let mut runs = 0u32;
        group.bench_function("trivial", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.bench_with_input(BenchmarkId::new("with_input", 7), &7u32, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        group.finish();
        assert!(runs > 0);
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("plain/label"), "plain/label");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t"), "x\\n\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn record_json_is_a_noop_without_the_env_var() {
        // No CAR_BENCH_JSON in the test environment: must not write
        // anywhere or grow the registry.
        let before = JSON_RECORDS.lock().unwrap().len();
        record_json(
            "g",
            "n",
            3,
            Duration::from_nanos(1),
            Duration::from_nanos(2),
            Duration::from_nanos(3),
        );
        assert_eq!(JSON_RECORDS.lock().unwrap().len(), before);
    }
}
