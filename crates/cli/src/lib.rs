//! # car-cli
//!
//! The `car` command line tool: generate temporal transaction data, mine
//! cyclic association rules with either of the ICDE'98 algorithms,
//! inspect databases, and detect cycles in raw binary sequences.
//!
//! The logic lives in this library crate (with the binary a thin wrapper)
//! so integration tests can drive every command in-process.
//!
//! ```text
//! car gen    --units 32 --tx-per-unit 500 --out data.txt --seed 7
//! car mine   --input data.txt --min-support 0.1 --l-min 2 --l-max 8
//! car detect --sequence 011011011 --l-min 2 --l-max 4
//! car stats  --input data.txt
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod error;

pub use args::Args;
pub use error::CliError;

use std::io::Write;

/// Runs the CLI against `argv` (excluding the program name), writing
/// output to `out`. Returns the process exit code.
///
/// # Errors
///
/// Returns a [`CliError`] describing invalid usage or I/O failures.
pub fn run<W: Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    if argv.is_empty() {
        return Err(CliError::Usage(USAGE.to_string()));
    }
    let command = argv[0].as_str();
    let rest = &argv[1..];
    // Each command's options are checked before it does any work.
    let args = |options| Args::parse(rest, options);
    match command {
        // The audit engine owns its flag grammar (e.g. `--format json`);
        // pass everything after `audit` through verbatim.
        "audit" => commands::audit::run(rest, out),
        "gen" => commands::gen::run(&args(commands::gen::OPTIONS)?, out),
        "analyze" => commands::analyze::run(&args(commands::analyze::OPTIONS)?, out),
        "mine" => commands::mine::run(&args(commands::mine::OPTIONS)?, out),
        "detect" => commands::detect::run(&args(commands::detect::OPTIONS)?, out),
        "stats" => commands::stats::run(&args(commands::stats::OPTIONS)?, out),
        "serve" => commands::serve::run(&args(commands::serve::OPTIONS)?, out),
        "shard" => commands::shard::run(&args(commands::shard::OPTIONS)?, out),
        "chaos" => commands::chaos::run(&args(commands::chaos::OPTIONS)?, out),
        "trace" => commands::trace::run(&args(commands::trace::OPTIONS)?, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
car — cyclic association rules (Özden, Ramaswamy, Silberschatz; ICDE 1998)

USAGE:
    car <COMMAND> [OPTIONS]

COMMANDS:
    gen      Generate a synthetic time-segmented database with planted cycles
             --units N --tx-per-unit N [--items N] [--patterns N]
             [--avg-tx-len F] [--cyclic N] [--cyclic-len N]
             [--cycle-min L] [--cycle-max L] [--boost F] [--seed S]
             [--out FILE] (stdout if omitted) [--show-planted]
    mine     Mine cyclic association rules from a timed transaction file
             --input FILE [--min-support F] [--min-confidence F]
             [--l-min L] [--l-max L] [--max-itemset-size N]
             [--algorithm interleaved|sequential|parallel [--threads N]]
             [--no-pruning] [--no-skipping] [--no-elimination]
             [--max-misses M] [--stats [--stats-format human|json]]
             [--report [--top N]]
    detect   Detect cycles in a 0/1 sequence
             --sequence BITS [--l-min L] [--l-max L] [--max-misses M]
             [--spectrum]
    analyze  Per-unit timeline of one rule
             --input FILE --antecedent IDS --consequent IDS
             [--min-support F] [--min-confidence F] [--l-min L] [--l-max L]
             [--per-unit]
    stats    Describe a timed transaction file
             --input FILE
    serve    Run the online rule-serving HTTP daemon
             [--host H] [--port P] [--threads N] [--window N]
             [--queue-capacity N] [--min-support F] [--min-support-count N]
             [--min-confidence F] [--l-min L] [--l-max L]
             [--io-timeout-secs S] [--header-timeout-ms MS] [--max-inflight N]
             [--data-dir DIR]
             [--fsync always|never|every=N] [--snapshot-every N]
             [--shard-id I --shard-count N]  (2+ shards need --min-support-count)
    shard    Run the sharded-cluster router over car-serve workers
             (--workers a:p,b:p,... | --shards N)
             [--host H] [--port P] [--threads N]
             [--partition-key min-item|max-item] [--probe-interval-ms MS]
             [--replay-capacity N] [--retry N] [--timeout-secs S]
             [--breaker-failures N] [--breaker-cooldown-ms MS]
             [--request-budget-ms MS]
             spawn mode forwards: [--min-support-count N] [--min-confidence F]
             [--l-min L] [--l-max L] [--window N] [--queue-capacity N]
             (--min-support is rejected: shards need a count)
    chaos    Run the deterministic fault-injecting TCP proxy
             --listen HOST:PORT --upstream HOST:PORT
             [--seed S] [--schedule FILE]
    trace    Inspect distributed traces retained by a shard router
             --addr HOST:PORT           list retained traces
             --addr HOST:PORT --id HEX  render one trace as an ASCII tree
             [--format tree|chrome] [--out FILE]  (chrome needs --id)
    audit    Run the project's static-analysis lints (panic-freedom,
             lock-order, checked arithmetic, discarded Results,
             taint-to-sink dataflow, atomics discipline)
             [--root DIR] [--format human|json|sarif] [--jobs N]
             [--allow-stale-allows] [--baseline FILE]
             [--write-baseline FILE]
    help     Show this message

Any option a command does not list is a usage error.

ENVIRONMENT:
    CAR_LOG         log filter, e.g. `info` or `mine=debug,wal=info` (default warn)
    CAR_LOG_FORMAT  `logfmt` (default) or `json`
    CAR_SPANS       `1` to enable span timing (see /v1/debug/profile under serve)
";
