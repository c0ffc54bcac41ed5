//! `car analyze` — per-unit timeline of one rule.

use std::io::Write;

use car_core::analyze::analyze_rule;
use car_core::{MiningConfig, Rule};
use car_itemset::ItemSet;

use crate::args::Args;
use crate::commands::load_db;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &[
    "input",
    "antecedent",
    "consequent",
    "min-support",
    "min-confidence",
    "l-min",
    "l-max",
    "per-unit",
];

/// Runs the `analyze` command.
///
/// `--antecedent` and `--consequent` take comma-separated item ids, e.g.
/// `--antecedent 1,2 --consequent 7`.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let input = args.require("input")?;
    let db = load_db(input)?;

    let antecedent = parse_items(args.require("antecedent")?)?;
    let consequent = parse_items(args.require("consequent")?)?;
    let rule = Rule::new(antecedent, consequent).ok_or_else(|| {
        CliError::Usage("rule sides must be non-empty and disjoint".into())
    })?;

    let min_support: f64 = args.parse_or("min-support", 0.05)?;
    let min_confidence: f64 = args.parse_or("min-confidence", 0.6)?;
    let l_min: u32 = args.parse_or("l-min", 2)?;
    let l_max: u32 = args.parse_or("l-max", 16)?;
    let config = MiningConfig::builder()
        .min_support_fraction(min_support)
        .min_confidence(min_confidence)
        .cycle_bounds(l_min, l_max.min(db.num_units() as u32).max(l_min))
        .build()?;

    let t = analyze_rule(&db, &config, &rule)?;
    writeln!(out, "rule:        {}", t.rule)?;
    writeln!(out, "holds:       {}", t.holds)?;
    writeln!(out, "held in:     {}/{} units", t.units_held(), t.holds.len())?;
    writeln!(
        out,
        "when held:   support {:.3}, confidence {:.3}",
        t.mean_support_when_held(),
        t.mean_confidence_when_held()
    )?;
    if t.is_cyclic() {
        write!(out, "cycles:     ")?;
        for c in &t.cycles {
            write!(out, " {c}")?;
        }
        writeln!(out)?;
    } else {
        writeln!(out, "cycles:      none within bounds")?;
    }
    if args.flag("per-unit") {
        writeln!(out, "unit  holds  support  confidence")?;
        for u in 0..t.holds.len() {
            writeln!(
                out,
                "{:<6}{:<7}{:<9.3}{:<10.3}",
                u,
                if t.holds.get(u) { "yes" } else { "no" },
                t.supports[u],
                t.confidences[u]
            )?;
        }
    }
    Ok(())
}

fn parse_items(raw: &str) -> Result<ItemSet, CliError> {
    let mut ids = Vec::new();
    for tok in raw.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        ids.push(
            tok.parse::<u32>()
                .map_err(|_| CliError::Usage(format!("invalid item id `{tok}`")))?,
        );
    }
    Ok(ItemSet::from_ids(ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "car-analyze-test-{}-{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut text = String::new();
        for u in 0..6 {
            for _ in 0..4 {
                if u % 2 == 0 {
                    text.push_str(&format!("{u} | 1 2\n"));
                } else {
                    text.push_str(&format!("{u} | 3\n"));
                }
            }
        }
        std::fs::write(&path, text).unwrap();
        path
    }

    fn run_analyze(extra: &[&str]) -> Result<String, CliError> {
        let path = fixture();
        let mut tokens: Vec<String> = vec![
            "--input".into(),
            path.to_string_lossy().into_owned(),
            "--min-support".into(),
            "0.5".into(),
            "--min-confidence".into(),
            "0.5".into(),
            "--l-min".into(),
            "2".into(),
            "--l-max".into(),
            "3".into(),
        ];
        tokens.extend(extra.iter().map(|s| s.to_string()));
        let args = Args::parse(&tokens, OPTIONS)?;
        let mut out = Vec::new();
        let result = run(&args, &mut out);
        std::fs::remove_file(&path).ok();
        result?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn analyzes_cyclic_rule() {
        let text = run_analyze(&["--antecedent", "1", "--consequent", "2"]).unwrap();
        assert!(text.contains("holds:       101010"), "{text}");
        assert!(text.contains("(2,0)"), "{text}");
        assert!(text.contains("held in:     3/6"), "{text}");
    }

    #[test]
    fn per_unit_flag_prints_rows() {
        let text = run_analyze(&["--antecedent", "1", "--consequent", "2", "--per-unit"])
            .unwrap();
        assert!(text.contains("unit  holds"), "{text}");
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("yes") || l.starts_with(char::is_numeric))
                .count(),
            6,
            "{text}"
        );
    }

    #[test]
    fn non_cyclic_rule_reports_none() {
        let text = run_analyze(&["--antecedent", "3", "--consequent", "1"]).unwrap();
        assert!(text.contains("none within bounds"), "{text}");
    }

    #[test]
    fn overlapping_sides_rejected() {
        assert!(matches!(
            run_analyze(&["--antecedent", "1", "--consequent", "1,2"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn multi_item_sides_parse() {
        let text = run_analyze(&["--antecedent", "1, 2", "--consequent", "3"]).unwrap();
        assert!(text.contains("{1 2} => {3}"), "{text}");
    }
}
