//! Markdown tables for experiment series.

use crate::measure::format_duration;
use crate::Measurement;

/// One point of a SEQUENTIAL versus INTERLEAVED sweep.
pub struct SeriesRow {
    /// The swept parameter's value at this point.
    pub x: String,
    /// SEQUENTIAL's measurement.
    pub sequential: Measurement,
    /// INTERLEAVED's measurement.
    pub interleaved: Measurement,
}

/// Renders a sweep as a markdown table under an `== title ==` line:
///
/// ```text
/// == EXP-1: runtime vs number of time units ==
/// | units | SEQUENTIAL | INTERLEAVED | speedup | SEQ phase 1 + 2 | INT phase 1 + 2 | rules | SEQ support computations | SEQ rules checked | INT support computations | INT skipped counts |
/// |---|---|---|---|---|---|---|---|---|---|---|
/// | 16 | 1.23s [1.20s, 1.25s] | 410.0ms [405.1ms, 412.9ms] | 3.00× | 1.17s + 60.2ms | 398.0ms + 11.9ms | 210 | ... |
/// ```
///
/// Runtimes are `median [q1, q3]`, the speedup is the ratio of the
/// medians, and each algorithm's phases are its median phase 1 (mining
/// the units) and phase 2 (turning that into cyclic rules). The
/// counters are the ones that explain the gap: SEQUENTIAL's support
/// computations and rule checks, INTERLEAVED's support computations and
/// the counts its cycles let it skip.
pub fn print_series(title: &str, x_label: &str, rows: &[SeriesRow]) -> String {
    let mut out = format!(
        "== {title} ==\n| {x_label} | SEQUENTIAL | INTERLEAVED | speedup \
         | SEQ phase 1 + 2 | INT phase 1 + 2 | rules \
         | SEQ support computations | SEQ rules checked | INT support computations \
         | INT skipped counts |\n|---|---|---|---|---|---|---|---|---|---|---|\n"
    );
    let phases = |m: &Measurement| {
        format!("{} + {}", format_duration(m.phase1), format_duration(m.phase2))
    };
    for SeriesRow { x, sequential: seq, interleaved: int } in rows {
        out.push_str(&format!(
            "| {x} | {} | {} | {:.2}× | {} | {} | {} | {} | {} | {} | {} |\n",
            seq.runtime,
            int.runtime,
            seq.runtime.ratio(&int.runtime),
            phases(seq),
            phases(int),
            seq.rules,
            seq.stats.support_computations,
            seq.stats.rules_checked,
            int.stats.support_computations,
            int.stats.skipped_counts,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timing;
    use car_core::MiningStats;
    use std::time::Duration;

    fn m(ms: u64, rules: usize, support_computations: u64) -> Measurement {
        let ms = Duration::from_millis(ms);
        Measurement {
            runtime: Timing::of(&[ms, ms, ms + ms]),
            phase1: ms.mul_f64(0.9),
            phase2: ms.mul_f64(0.1),
            rules,
            stats: MiningStats { support_computations, ..MiningStats::default() },
        }
    }

    #[test]
    fn renders_table_with_speedup_and_counters() {
        let rows = vec![
            SeriesRow {
                x: "16".into(),
                sequential: m(100, 5, 70),
                interleaved: m(25, 5, 9),
            },
            SeriesRow {
                x: "32".into(),
                sequential: m(300, 9, 80),
                interleaved: m(60, 9, 8),
            },
        ];
        let text = print_series("EXP-1: test", "units", &rows);
        assert!(text.starts_with("== EXP-1: test ==\n| units | SEQUENTIAL |"), "{text}");
        assert!(text.contains("| 16 | 100.0ms [100.0ms, 150.0ms] | 25.0ms"), "{text}");
        assert!(
            text.contains("| 4.00× | 90.0ms + 10.0ms | 22.5ms + 2.5ms | 5 |"),
            "{text}"
        );
        assert!(text.contains("| 5 | 70 | 0 | 9 | 0 |"), "{text}");
        assert!(text.contains("| 5.00× | 270.0ms + 30.0ms | 54.0ms + 6.0ms |"), "{text}");
        assert!(text.contains("| 9 | 80 | 0 | 8 | 0 |"), "{text}");
        assert_eq!(text.lines().count(), 5);
    }
}
