//! `car stats` — describe a timed transaction file.

use std::io::Write;

use crate::args::Args;
use crate::commands::load_db;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &["input"];

/// Runs the `stats` command.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let input = args.require("input")?;
    let db = load_db(input)?;

    let n = db.num_units();
    let total = db.num_transactions();
    let mut sizes: Vec<usize> = Vec::with_capacity(n);
    let mut item_total = 0usize;
    for (_, unit) in db.iter_units() {
        sizes.push(unit.len());
        item_total += unit.iter().map(|t| t.len()).sum::<usize>();
    }
    let distinct_items = {
        let mut ids: Vec<u32> =
            db.iter_all().flat_map(|(_, t)| t.iter().map(|i| i.id())).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };

    writeln!(out, "units:               {n}")?;
    writeln!(out, "transactions:        {total}")?;
    writeln!(out, "distinct items:      {distinct_items}")?;
    if total > 0 {
        writeln!(out, "avg transaction len: {:.2}", item_total as f64 / total as f64)?;
    }
    if !sizes.is_empty() {
        writeln!(
            out,
            "unit sizes:          min {} / avg {:.1} / max {}",
            sizes.iter().min().expect("non-empty"),
            total as f64 / n as f64,
            sizes.iter().max().expect("non-empty"),
        )?;
        let empty = sizes.iter().filter(|&&s| s == 0).count();
        if empty > 0 {
            writeln!(out, "empty units:         {empty}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_counts() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("car-stats-test-{}.txt", std::process::id()));
        std::fs::write(&path, "0 | 1 2\n0 | 2\n2 | 3 4 5\n").unwrap();
        let tokens = vec!["--input".to_string(), path.to_string_lossy().into_owned()];
        let args = Args::parse(&tokens, OPTIONS).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("units:               3"), "{text}");
        assert!(text.contains("transactions:        3"), "{text}");
        assert!(text.contains("distinct items:      5"), "{text}");
        assert!(text.contains("empty units:         1"), "{text}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let tokens = vec!["--input".to_string(), "/nonexistent/car".to_string()];
        let args = Args::parse(&tokens, OPTIONS).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Io(_))));
    }
}
