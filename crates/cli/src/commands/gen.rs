//! `car gen` — synthetic data generation.

use std::fs::File;
use std::io::Write;

use car_datagen::{generate_cyclic, CyclicConfig, QuestConfig};
use car_itemset::io as car_io;

use crate::args::Args;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &[
    "units",
    "tx-per-unit",
    "items",
    "patterns",
    "cyclic",
    "cycle-min",
    "cycle-max",
    "avg-tx-len",
    "boost",
    "seed",
    "cyclic-len",
    "out",
    "show-planted",
];

/// Runs the `gen` command.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let units: usize = args.parse_or("units", 32)?;
    let tx_per_unit: usize = args.parse_or("tx-per-unit", 500)?;
    let items: u32 = args.parse_or("items", 500)?;
    let patterns: usize = args.parse_or("patterns", 50)?;
    let cyclic: usize = args.parse_or("cyclic", 10)?;
    let cycle_min: u32 = args.parse_or("cycle-min", 2)?;
    let cycle_max: u32 = args.parse_or("cycle-max", 8)?;
    let avg_len: f64 = args.parse_or("avg-tx-len", 5.0)?;
    let boost: f64 = args.parse_or("boost", 0.8)?;
    let seed: u64 = args.parse_or("seed", 0)?;

    if units == 0 || tx_per_unit == 0 {
        return Err(CliError::Usage("--units and --tx-per-unit must be positive".into()));
    }
    if cycle_min < 1 || cycle_min > cycle_max || cycle_max as usize > units {
        return Err(CliError::Usage(format!(
            "cycle range [{cycle_min},{cycle_max}] must satisfy \
             1 <= min <= max <= units ({units})"
        )));
    }

    let config = CyclicConfig {
        quest: QuestConfig::default()
            .with_num_items(items)
            .with_num_patterns(patterns)
            .with_avg_transaction_len(avg_len),
        num_units: units,
        transactions_per_unit: tx_per_unit,
        num_cyclic_patterns: cyclic,
        cyclic_pattern_len: args.parse_or("cyclic-len", 2)?,
        cycle_length_range: (cycle_min, cycle_max),
        boost,
        max_planted_per_transaction: 2,
    };
    let data = generate_cyclic(&config, seed);

    match args.get("out") {
        Some(path) => {
            car_io::write_timed(File::create(path)?, &data.db)?;
            writeln!(
                out,
                "wrote {} transactions in {} units to {path}",
                data.db.num_transactions(),
                data.db.num_units()
            )?;
        }
        None => {
            car_io::write_timed(&mut *out, &data.db)?;
        }
    }

    if args.flag("show-planted") {
        for p in &data.planted {
            writeln!(
                out,
                "# planted {} cycle ({},{}) boost {:.2}",
                p.items, p.length, p.offset, p.boost
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_gen(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(
            &tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            OPTIONS,
        )?;
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn generates_to_stdout() {
        let text = run_gen(&[
            "--units",
            "4",
            "--tx-per-unit",
            "5",
            "--items",
            "20",
            "--cycle-max",
            "3",
            "--seed",
            "1",
        ])
        .unwrap();
        let db = car_io::read_timed(text.as_bytes()).unwrap();
        assert_eq!(db.num_units(), 4);
        assert_eq!(db.num_transactions(), 20);
    }

    #[test]
    fn show_planted_appends_comments() {
        let text = run_gen(&[
            "--units",
            "4",
            "--tx-per-unit",
            "5",
            "--items",
            "20",
            "--cyclic",
            "2",
            "--cycle-max",
            "3",
            "--show-planted",
        ])
        .unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("# planted")).count(), 2);
        // Comments must not break re-reading.
        let db = car_io::read_timed(text.as_bytes()).unwrap();
        assert_eq!(db.num_transactions(), 20);
    }

    #[test]
    fn rejects_zero_units() {
        assert!(matches!(
            run_gen(&["--units", "0", "--tx-per-unit", "5"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_cycle_longer_than_window() {
        assert!(matches!(
            run_gen(&["--units", "4", "--tx-per-unit", "5", "--cycle-max", "9"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let args = [
            "--units",
            "3",
            "--tx-per-unit",
            "4",
            "--cycle-max",
            "3",
            "--items",
            "15",
            "--seed",
            "9",
        ];
        assert_eq!(run_gen(&args).unwrap(), run_gen(&args).unwrap());
    }
}
