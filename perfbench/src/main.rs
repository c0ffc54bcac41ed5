//! The repository benchmark: boots the real `car serve` / `car shard`
//! binaries (or, for `batch`, mines in process), drives one workload, gates
//! its answers, and prints one JSON result line.
//!
//! ```text
//! perfbench --car <path to car> --out <scratch dir>
//!           --workload ingest|query|cluster|batch|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload, then replays its inputs through each layer's public
//! functions under benchmark-owned spans and reports the per-layer
//! metrics. `perfbench/run.sh` builds both binaries and supplies `--car`
//! and `--out`.

mod daemon;
mod data;
mod http;
mod oracle;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use workloads::{Ctx, Outcome};

/// End-to-end metrics, reported by every workload (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("secondary_ms", "ms"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run; 0 where the workload
/// leaves the layer idle.
const PER_LAYER: [(&str, &str); 58] = [
    ("http.read_request_ms", "ms"),
    ("routes.unit_parse_ms", "ms"),
    ("routes.unit_body_kb", "KB"),
    ("routes.rules_render_ms", "ms"),
    ("routes.rules_body_kb", "KB"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_unit", "bytes"),
    ("wal.bytes_per_body_byte", "ratio"),
    ("snapshot.write_ms", "ms"),
    ("replay.recover_ms", "ms"),
    ("apriori.mine_ms", "ms"),
    ("apriori.candidate_gen_ms", "ms"),
    ("apriori.support_count_ms", "ms"),
    ("rules.gen_ms", "ms"),
    ("apriori.candidates_per_unit", "count"),
    ("apriori.levels_per_unit", "count"),
    ("apriori.bitmap_builds_per_unit", "count"),
    ("rules.held_per_unit", "count"),
    ("window.push_unit_p50_ms", "ms"),
    ("window.push_unit_p95_ms", "ms"),
    ("window.fold_ms", "ms"),
    ("window.tracked_rules", "count"),
    ("window.hold_entries", "count"),
    ("window.assemble_ms", "ms"),
    ("window.detect_ms", "ms"),
    ("window.item_supports_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("ring.split_ms", "ms"),
    ("ring.skew", "ratio"),
    ("ring.impure_tx_frac", "ratio"),
    ("merge.rules_ms", "ms"),
    ("merge.items_ms", "ms"),
    ("router.overhead_ms", "ms"),
    ("interleaved.phase1_ms", "ms"),
    ("interleaved.phase2_ms", "ms"),
    ("sequential.phase1_ms", "ms"),
    ("sequential.phase2_ms", "ms"),
    ("interleaved.support_computations", "count"),
    ("interleaved.skipped_counts", "count"),
    ("interleaved.skipped_unit_scans", "count"),
    ("interleaved.bitmap_builds", "count"),
    ("interleaved.candidates_pruned_by_cycles", "count"),
    ("interleaved.cycles_eliminated", "count"),
    ("interleaved.rules_checked", "count"),
    ("sequential.support_computations", "count"),
    ("oracle.wrong_rules", "rules"),
    ("unattributed.ingest_ms", "ms"),
    ("unattributed.fresh_rules_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.ingest_units_per_s", "units/s"),
    ("loadgen.ingest_p50_ms", "ms"),
    ("loadgen.ingest_p95_ms", "ms"),
    ("loadgen.recovery_s", "s"),
    ("loadgen.rules_p50_ms", "ms"),
    ("loadgen.rules_p99_ms", "ms"),
    ("loadgen.fresh_rules_p50_ms", "ms"),
    ("loadgen.escalated_p50_ms", "ms"),
    ("loadgen.items_p50_ms", "ms"),
];

/// A run must end well inside the 180 s the benchmark contract allows.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    car: PathBuf,
    out: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let take =
        |name: &str| map.get(name).cloned().ok_or_else(|| format!("missing --{name}"));
    let seconds: f64 = take("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(Args {
        car: PathBuf::from(take("car")?),
        out: PathBuf::from(take("out")?),
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "ingest" => workloads::ingest(ctx),
        "query" => workloads::query(ctx),
        "cluster" => workloads::cluster(ctx),
        "batch" => workloads::batch(ctx),
        other => {
            Err(format!("unknown workload `{other}` (ingest|query|cluster|batch|all)"))
        }
    }
}

/// Cheap identity of the binaries under test, so stored counters are
/// only compared against runs of the same build.
fn build_fingerprint(car: &Path) -> String {
    [Some(car.to_path_buf()), std::env::current_exe().ok()]
        .into_iter()
        .flatten()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
            format!("{}-{}", m.len(), mtime.map_or(0, |d| d.as_nanos()))
        })
        .collect::<Vec<_>>()
        .join("-")
}

/// Compares the run's deterministic counters with those stored by an
/// earlier run of the same build, workload, seed and length; stores them
/// when none exist. Returns one fault per mismatch.
fn check_deterministic(
    dir: &Path,
    key: &str,
    counters: &BTreeMap<&'static str, f64>,
) -> Vec<String> {
    if counters.is_empty() {
        return Vec::new();
    }
    let path = dir.join(format!("{key}.txt"));
    let text: String = counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let old: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once(' ')).collect();
            let mut faults = Vec::new();
            for (name, value) in counters {
                if let Some(before) = old.get(name) {
                    if *before != value.to_string() {
                        faults.push(format!("benchmark fault: deterministic counter {name} was {before}, now {value}"));
                    }
                }
            }
            if faults.is_empty() {
                let merged: BTreeMap<&str, String> = old
                    .iter()
                    .map(|(k, v)| (*k, v.to_string()))
                    .chain(counters.iter().map(|(k, v)| (*k, v.to_string())))
                    .collect();
                let _ = std::fs::write(
                    &path,
                    merged.iter().map(|(k, v)| format!("{k} {v}\n")).collect::<String>(),
                );
            }
            faults
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&path, text);
            Vec::new()
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints the human summary and returns the JSON result line.
fn report(workload: &str, args: &Args, out: &Outcome) -> (String, bool) {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace { &out.layer } else { &out.e2e };
    let mut correct = out.faults.is_empty();
    println!(
        "# workload {workload}, seed {}, {} s, trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for d in &out.details {
        println!("#   {:<34} {:>14.4} {:<8} n={}", d.name, d.value, d.unit, d.samples);
    }
    println!(
        "#   ops: {} attempted, {} answered, failed {:?}",
        out.ops.attempted,
        out.ops.answered,
        out.ops.failed.iter().map(|(k, v)| (k.label(), *v)).collect::<Vec<_>>()
    );
    for f in &out.faults {
        println!("#   FAULT: {f}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            // A layer the workload leaves idle reads 0; an end-to-end
            // metric is always measured.
            let idle = if args.trace { 0.0 } else { f64::NAN };
            let value = values.get(name).copied().unwrap_or(idle);
            if !value.is_finite() {
                println!("#   FAULT: metric {name} was not measured");
                correct = false;
            }
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.attempted.max(1),
        out.ops.failed_total(),
        metrics.join(", ")
    );
    (line, correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog expired; stopping every server and giving up");
        daemon::kill_registered();
        std::process::exit(3);
    });
    let names: Vec<&str> = if args.workload == "all" {
        vec!["ingest", "query", "cluster", "batch"]
    } else {
        vec![args.workload.as_str()]
    };
    let fingerprint = build_fingerprint(&args.car);
    let mut last = String::new();
    for name in names {
        let dir = args.out.join(format!("run-{}-{name}", std::process::id()));
        let ctx = Ctx {
            car: args.car.clone(),
            dir: dir.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            probe: false,
        };
        let mut outcome = match run_workload(name, &ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                daemon::kill_registered();
                std::process::exit(1);
            }
        };
        let key = format!("{name}-seed{}-{}s-{fingerprint}", args.seed, args.seconds);
        outcome.faults.extend(check_deterministic(
            &args.out.join("counters"),
            &key,
            &outcome.deterministic,
        ));
        for (label, spans) in &outcome.spans {
            let path =
                args.out.join(format!("spans-{name}-{label}-seed{}.jsonl", args.seed));
            if let Err(e) =
                std::fs::File::create(&path).and_then(|f| spans.write_jsonl(f))
            {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        workloads::progress("done");
        let (line, _) = report(name, &args, &outcome);
        if args.workload == "all" {
            println!("{line}");
        }
        last = line;
    }
    if args.workload != "all" {
        println!("{last}");
    }
}
