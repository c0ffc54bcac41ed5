//! `car mine` — cyclic association rule mining.

use std::io::Write;

use car_core::approx::mine_approx;
use car_core::{Algorithm, CyclicRuleMiner, InterleavedOptions, MiningConfig};

use crate::args::Args;
use crate::commands::load_db;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &[
    "input",
    "min-support",
    "min-confidence",
    "l-min",
    "l-max",
    "max-itemset-size",
    "max-misses",
    "algorithm",
    "no-pruning",
    "no-skipping",
    "no-elimination",
    "threads",
    "report",
    "top",
    "stats",
    "stats-format",
];

/// Runs the `mine` command.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let input = args.require("input")?;
    let db = load_db(input)?;

    let min_support: f64 = args.parse_or("min-support", 0.05)?;
    let min_confidence: f64 = args.parse_or("min-confidence", 0.6)?;
    let l_min: u32 = args.parse_or("l-min", 2)?;
    let l_max: u32 = args.parse_or("l-max", 16)?;
    let mut builder = MiningConfig::builder()
        .min_support_fraction(min_support)
        .min_confidence(min_confidence)
        .cycle_bounds(l_min, l_max);
    if let Some(cap) = args.get("max-itemset-size") {
        let cap: usize = cap.parse().map_err(|_| {
            CliError::Usage(format!("invalid --max-itemset-size `{cap}`"))
        })?;
        builder = builder.max_itemset_size(cap);
    }
    let config = builder.build()?;

    // Approximate mining takes a separate path.
    if let Some(m) = args.get("max-misses") {
        let max_misses: u32 = m
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid --max-misses `{m}`")))?;
        let outcome = mine_approx(&db, &config, max_misses)?;
        writeln!(out, "# {} approximate cyclic rules", outcome.rules.len())?;
        for r in &outcome.rules {
            write!(out, "{} @", r.rule)?;
            for c in &r.cycles {
                write!(out, " {}[{}/{} miss]", c.cycle, c.misses, c.occurrences)?;
            }
            writeln!(out)?;
        }
        return Ok(());
    }

    let algorithm = match args.get("algorithm").unwrap_or("interleaved") {
        "sequential" => Algorithm::Sequential,
        "interleaved" => {
            let mut opts = InterleavedOptions::all();
            if args.flag("no-pruning") {
                opts = opts.without_pruning();
            }
            if args.flag("no-skipping") {
                opts = opts.without_skipping();
            }
            if args.flag("no-elimination") {
                opts = opts.without_elimination();
            }
            Algorithm::Interleaved(opts)
        }
        "parallel" => {
            let threads: usize = args.parse_or("threads", 0)?;
            let outcome =
                car_core::parallel::mine_sequential_parallel(&db, &config, threads)?;
            print_outcome(out, &outcome, stats_mode(args)?)?;
            return Ok(());
        }
        other => {
            return Err(CliError::Usage(format!(
            "unknown algorithm `{other}` (expected interleaved, sequential, or parallel)"
        )))
        }
    };

    let outcome = CyclicRuleMiner::new(config, algorithm).mine(&db)?;
    if args.flag("report") {
        let top: usize = args.parse_or("top", 10)?;
        let report = car_core::MiningReport::new(&outcome, db.num_units(), top);
        write!(out, "{}", report.render())?;
        return Ok(());
    }
    print_outcome(out, &outcome, stats_mode(args)?)
}

/// How (and whether) to report the per-run [`car_core::MiningStats`].
#[derive(Clone, Copy, PartialEq)]
enum StatsMode {
    Off,
    Human,
    Json,
}

fn stats_mode(args: &Args) -> Result<StatsMode, CliError> {
    if !args.flag("stats") {
        return Ok(StatsMode::Off);
    }
    match args.get("stats-format").unwrap_or("human") {
        "human" => Ok(StatsMode::Human),
        "json" => Ok(StatsMode::Json),
        other => Err(CliError::Usage(format!(
            "unknown stats format `{other}` (expected human or json)"
        ))),
    }
}

fn print_outcome<W: Write>(
    out: &mut W,
    outcome: &car_core::MiningOutcome,
    stats: StatsMode,
) -> Result<(), CliError> {
    writeln!(out, "# {} cyclic association rules", outcome.rules.len())?;
    for r in &outcome.rules {
        writeln!(out, "{r}")?;
    }
    let s = &outcome.stats;
    match stats {
        StatsMode::Off => {}
        StatsMode::Human => {
            writeln!(out, "# stats:")?;
            writeln!(out, "#   units                 {}", s.num_units)?;
            writeln!(out, "#   transactions          {}", s.num_transactions)?;
            writeln!(out, "#   support computations  {}", s.support_computations)?;
            writeln!(out, "#   skipped counts        {}", s.skipped_counts)?;
            writeln!(out, "#   skipped unit scans    {}", s.skipped_unit_scans)?;
            writeln!(out, "#   bitmap builds         {}", s.bitmap_builds)?;
            writeln!(out, "#   candidates generated  {}", s.candidates_generated)?;
            writeln!(out, "#   pruned by cycles      {}", s.candidates_pruned_by_cycles)?;
            writeln!(out, "#   cycles eliminated     {}", s.cycles_eliminated)?;
            writeln!(out, "#   cyclic itemsets       {}", s.cyclic_itemsets)?;
            writeln!(out, "#   rules checked         {}", s.rules_checked)?;
            writeln!(out, "#   phase1                {:?}", s.phase1)?;
            writeln!(out, "#   phase2                {:?}", s.phase2)?;
        }
        StatsMode::Json => {
            // One machine-readable line carrying every `MiningStats` counter.
            writeln!(
                out,
                concat!(
                    "{{\"rules\":{},\"units\":{},\"transactions\":{},",
                    "\"support_computations\":{},\"skipped_counts\":{},",
                    "\"skipped_unit_scans\":{},\"bitmap_builds\":{},",
                    "\"candidates_generated\":{},\"candidates_pruned_by_cycles\":{},",
                    "\"cycles_eliminated\":{},\"cyclic_itemsets\":{},",
                    "\"rules_checked\":{},\"phase1_us\":{},\"phase2_us\":{}}}"
                ),
                outcome.rules.len(),
                s.num_units,
                s.num_transactions,
                s.support_computations,
                s.skipped_counts,
                s.skipped_unit_scans,
                s.bitmap_builds,
                s.candidates_generated,
                s.candidates_pruned_by_cycles,
                s.cycles_eliminated,
                s.cyclic_itemsets,
                s.rules_checked,
                s.phase1.as_micros(),
                s.phase2.as_micros(),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_fixture() -> tempfile::TempPath {
        let mut f = tempfile::NamedTempFile::new().expect("temp file");
        // {1,2} in even units, {3} in odd units, 4 tx each, 6 units.
        for u in 0..6 {
            for _ in 0..4 {
                if u % 2 == 0 {
                    writeln!(f, "{u} | 1 2").unwrap();
                } else {
                    writeln!(f, "{u} | 3").unwrap();
                }
            }
        }
        f.into_temp_path()
    }

    mod tempfile {
        //! Minimal stand-in for the `tempfile` crate (not in the approved
        //! dependency set): unique paths under the system temp dir,
        //! removed on drop.
        use std::fs::File;
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct NamedTempFile {
            file: File,
            path: PathBuf,
        }

        pub struct TempPath(PathBuf);

        impl NamedTempFile {
            pub fn new() -> std::io::Result<Self> {
                let id = COUNTER.fetch_add(1, Ordering::Relaxed);
                let path = std::env::temp_dir()
                    .join(format!("car-cli-test-{}-{id}.txt", std::process::id()));
                Ok(NamedTempFile { file: File::create(&path)?, path })
            }

            pub fn into_temp_path(self) -> TempPath {
                TempPath(self.path)
            }
        }

        impl std::io::Write for NamedTempFile {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.file.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.file.flush()
            }
        }

        impl std::ops::Deref for TempPath {
            type Target = std::path::Path;
            fn deref(&self) -> &std::path::Path {
                &self.0
            }
        }

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
    }

    fn run_mine(extra: &[&str]) -> Result<String, CliError> {
        let path = write_fixture();
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
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn mines_interleaved_by_default() {
        let text = run_mine(&[]).unwrap();
        assert!(text.contains("{1} => {2} @ (2,0)"), "{text}");
        assert!(text.contains("{2} => {1} @ (2,0)"), "{text}");
    }

    #[test]
    fn sequential_and_interleaved_print_identically() {
        let a = run_mine(&["--algorithm", "sequential"]).unwrap();
        let b = run_mine(&["--algorithm", "interleaved"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_works() {
        let text = run_mine(&["--algorithm", "parallel", "--threads", "2"]).unwrap();
        assert!(text.contains("{1} => {2} @ (2,0)"), "{text}");
    }

    #[test]
    fn stats_flag_prints_counters() {
        let text = run_mine(&["--stats"]).unwrap();
        assert!(text.contains("support computations"), "{text}");
        assert!(text.contains("skipped unit scans"), "{text}");
        assert!(text.contains("bitmap builds"), "{text}");
    }

    #[test]
    fn stats_json_emits_machine_readable_line() {
        let text = run_mine(&["--stats", "--stats-format", "json"]).unwrap();
        let json_line =
            text.lines().find(|l| l.starts_with("{\"")).expect("a JSON stats line");
        assert!(json_line.contains("\"support_computations\":"), "{json_line}");
        assert!(json_line.contains("\"skipped_counts\":"), "{json_line}");
        assert!(json_line.contains("\"skipped_unit_scans\":"), "{json_line}");
        assert!(json_line.contains("\"bitmap_builds\":"), "{json_line}");
        assert!(json_line.contains("\"candidates_pruned_by_cycles\":"), "{json_line}");
        assert!(json_line.contains("\"cycles_eliminated\":"), "{json_line}");
        assert!(json_line.ends_with('}'), "{json_line}");
    }

    #[test]
    fn unknown_stats_format_rejected() {
        assert!(matches!(
            run_mine(&["--stats", "--stats-format", "xml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn ablation_flags_change_work_not_results() {
        let full = run_mine(&[]).unwrap();
        let none =
            run_mine(&["--no-pruning", "--no-skipping", "--no-elimination"]).unwrap();
        assert_eq!(full, none);
    }

    #[test]
    fn report_flag_renders_summary() {
        let text = run_mine(&["--report", "--top", "5"]).unwrap();
        assert!(text.contains("cyclic rules over 6 units"), "{text}");
        assert!(text.contains("top rules by coverage"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
    }

    #[test]
    fn approx_path_reports_misses() {
        let text = run_mine(&["--max-misses", "1"]).unwrap();
        assert!(text.contains("approximate cyclic rules"), "{text}");
        assert!(text.contains("miss]"), "{text}");
    }

    #[test]
    fn unknown_algorithm_rejected() {
        assert!(matches!(run_mine(&["--algorithm", "quantum"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_input_rejected() {
        let args = Args::parse(&[], OPTIONS).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&args, &mut out), Err(CliError::Usage(_))));
    }
}
