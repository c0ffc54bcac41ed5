//! `car detect` — cycle detection on raw 0/1 sequences.

use std::io::Write;

use car_cycles::{
    autocorrelation, detect_approx_cycles, detect_cycles, dominant_period,
    minimal_cycles, spectrum, BitSeq, CycleBounds,
};

use crate::args::Args;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &["sequence", "l-min", "l-max", "max-misses", "spectrum"];

/// Runs the `detect` command.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let sequence = args.require("sequence")?;
    let seq: BitSeq = sequence
        .parse()
        .map_err(|e| CliError::Usage(format!("invalid --sequence: {e}")))?;
    if seq.is_empty() {
        return Err(CliError::Usage("--sequence must be non-empty".into()));
    }
    let l_min: u32 = args.parse_or("l-min", 1)?;
    let l_max: u32 = args.parse_or("l-max", (seq.len() as u32).min(16))?;
    let bounds = CycleBounds::new(l_min, l_max).ok_or_else(|| {
        CliError::Usage(format!("invalid cycle bounds [{l_min},{l_max}]"))
    })?;
    if l_max as usize > seq.len() {
        return Err(CliError::Usage(format!(
            "--l-max {l_max} exceeds sequence length {}",
            seq.len()
        )));
    }

    if args.flag("spectrum") {
        writeln!(out, "# periodicity spectrum (best offset per length)")?;
        writeln!(out, "length  offset  hit-rate  occurrences")?;
        for p in spectrum(&seq, bounds) {
            writeln!(
                out,
                "{:<8}{:<8}{:<10.3}{}",
                p.length, p.best_offset, p.hit_rate, p.occurrences
            )?;
        }
        let max_lag = l_max as usize;
        if let Some(period) = dominant_period(&seq, max_lag) {
            writeln!(out, "# autocorrelation (lags 1..={max_lag})")?;
            for (i, v) in autocorrelation(&seq, max_lag).iter().enumerate() {
                writeln!(out, "lag {:<4} {:.3}", i + 1, v)?;
            }
            writeln!(out, "dominant period: {period}")?;
        }
        return Ok(());
    }

    if let Some(m) = args.get("max-misses") {
        let max_misses: u32 = m
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid --max-misses `{m}`")))?;
        let cycles = detect_approx_cycles(&seq, bounds, max_misses);
        writeln!(out, "# {} approximate cycles (<= {max_misses} misses)", cycles.len())?;
        for c in cycles {
            writeln!(
                out,
                "{} misses {}/{} hit-rate {:.3}",
                c.cycle,
                c.misses,
                c.occurrences,
                c.hit_rate()
            )?;
        }
        return Ok(());
    }

    let set = detect_cycles(&seq, bounds);
    let minimal = minimal_cycles(&set);
    writeln!(out, "# {} cycles ({} minimal)", set.len(), minimal.len())?;
    for c in minimal {
        writeln!(out, "{c}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_detect(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(
            &tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            OPTIONS,
        )?;
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn detects_alternating_cycle() {
        let text = run_detect(&["--sequence", "010101", "--l-min", "2", "--l-max", "3"])
            .unwrap();
        assert!(text.contains("(2,1)"), "{text}");
        assert!(text.contains("1 minimal"), "{text}");
    }

    #[test]
    fn approx_mode_reports_hit_rates() {
        let text = run_detect(&[
            "--sequence",
            "0101010001",
            "--l-min",
            "2",
            "--l-max",
            "2",
            "--max-misses",
            "1",
        ])
        .unwrap();
        assert!(text.contains("approximate cycles"), "{text}");
        assert!(text.contains("hit-rate"), "{text}");
    }

    #[test]
    fn spectrum_flag_shows_periodicities() {
        let text = run_detect(&[
            "--sequence",
            "1001001001001",
            "--l-min",
            "2",
            "--l-max",
            "4",
            "--spectrum",
        ])
        .unwrap();
        assert!(text.contains("periodicity spectrum"), "{text}");
        assert!(text.contains("dominant period: 3"), "{text}");
    }

    #[test]
    fn rejects_garbage_sequence() {
        assert!(matches!(run_detect(&["--sequence", "01x"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn rejects_window_overflow() {
        assert!(matches!(
            run_detect(&["--sequence", "0101", "--l-max", "9"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn default_bounds_fit_sequence() {
        let text = run_detect(&["--sequence", "111"]).unwrap();
        assert!(text.contains("(1,0)"), "{text}");
    }
}
