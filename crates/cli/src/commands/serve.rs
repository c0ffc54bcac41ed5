//! `car serve` — run the online rule-serving daemon.

use std::io::Write;
use std::time::Duration;

use car_core::MiningConfig;
use car_serve::{serve, FsyncPolicy, PersistConfig, ServerConfig, ShardIdentity};

use crate::args::Args;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &[
    "host",
    "port",
    "threads",
    "window",
    "queue-capacity",
    "io-timeout-secs",
    "header-timeout-ms",
    "max-inflight",
    "min-support",
    "min-support-count",
    "min-confidence",
    "l-min",
    "l-max",
    "shard-id",
    "shard-count",
    "data-dir",
    "fsync",
    "snapshot-every",
];

/// Runs the `serve` command: boots the daemon and blocks until it shuts
/// down (Ctrl-C or `POST /v1/shutdown`), then prints final statistics.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.parse_or("port", 7878)?;
    let threads: usize = args.parse_or("threads", 4)?;
    let window: usize = args.parse_or("window", 64)?;
    let queue_capacity: usize = args.parse_or("queue-capacity", 256)?;
    let io_timeout_secs: u64 = args.parse_or("io-timeout-secs", 10)?;
    // Overload protection: 0 disables the respective guard.
    let header_timeout_ms: u64 = args.parse_or("header-timeout-ms", 5_000)?;
    let max_inflight: usize = args.parse_or("max-inflight", 128)?;

    let min_support: f64 = args.parse_or("min-support", 0.05)?;
    let min_confidence: f64 = args.parse_or("min-confidence", 0.6)?;
    let l_min: u32 = args.parse_or("l-min", 2)?;
    let l_max: u32 = args.parse_or("l-max", 16)?;
    let mut builder = MiningConfig::builder()
        .min_support_fraction(min_support)
        .min_confidence(min_confidence)
        .cycle_bounds(l_min, l_max);
    // An absolute support count partitions exactly across shards (a
    // fraction of per-shard transaction volume does not), so a worker of
    // a cluster must run with --min-support-count (checked below).
    if let Some(raw) = args.get("min-support-count") {
        let count: u64 = raw.parse().map_err(|_| {
            CliError::Usage(format!("invalid value `{raw}` for --min-support-count"))
        })?;
        builder = builder.min_support_count(count);
    }
    let mining = builder.build()?;

    let shard = match (args.get("shard-id"), args.get("shard-count")) {
        (None, None) => None,
        (Some(_), None) | (None, Some(_)) => {
            return Err(CliError::Usage(
                "--shard-id and --shard-count must be given together".into(),
            ));
        }
        (Some(_), Some(_)) => {
            let shard_id: u32 = args.parse_or("shard-id", 0)?;
            let shard_count: u32 = args.parse_or("shard-count", 1)?;
            if shard_id >= shard_count {
                return Err(CliError::Usage(format!(
                    "--shard-id {shard_id} out of range for --shard-count {shard_count}"
                )));
            }
            if shard_count >= 2 && args.get("min-support-count").is_none() {
                return Err(CliError::Usage(format!(
                    "--shard-count {shard_count} needs --min-support-count: each shard \
                     sees only its partition, so a support fraction of per-shard \
                     volume does not add up to the single-node answer"
                )));
            }
            Some(ShardIdentity { shard_id, shard_count })
        }
    };

    let persist = match args.get("data-dir") {
        Some(dir) => {
            let mut persist = PersistConfig::new(dir);
            if let Some(raw) = args.get("fsync") {
                persist.fsync = raw
                    .parse::<FsyncPolicy>()
                    .map_err(|msg| CliError::Usage(format!("--fsync: {msg}")))?;
            }
            persist.snapshot_every = args.parse_or("snapshot-every", 64)?;
            Some(persist)
        }
        None => {
            if args.get("fsync").is_some() || args.get("snapshot-every").is_some() {
                return Err(CliError::Usage(
                    "--fsync/--snapshot-every require --data-dir".into(),
                ));
            }
            None
        }
    };

    let durability = persist.as_ref().map(|p| {
        format!(
            "  durable: data dir {}, fsync {}, snapshot every {} units",
            p.data_dir.display(),
            p.fsync,
            p.snapshot_every
        )
    });

    let config = ServerConfig {
        addr: format!("{host}:{port}"),
        threads,
        window,
        queue_capacity,
        mining,
        io_timeout: Duration::from_secs(io_timeout_secs.max(1)),
        header_timeout: (header_timeout_ms > 0)
            .then(|| Duration::from_millis(header_timeout_ms)),
        max_inflight,
        handle_signals: true,
        persist,
        shard,
        ..ServerConfig::default()
    };

    let handle = serve(config).map_err(|e| match e {
        car_serve::ServeError::Config(c) => CliError::Config(c),
        car_serve::ServeError::Io(io) => CliError::Io(io),
    })?;
    writeln!(out, "car-serve listening on http://{}", handle.addr)?;
    writeln!(
        out,
        "  window {window} units, {threads} workers, queue capacity {queue_capacity}"
    )?;
    if let Some(s) = shard {
        writeln!(out, "  shard {} of {}", s.shard_id, s.shard_count)?;
    }
    if let Some(line) = &durability {
        writeln!(out, "{line}")?;
    }
    writeln!(
        out,
        "  endpoints: POST /v1/units  GET /v1/rules  GET /v1/health  GET /metrics"
    )?;
    writeln!(out, "  debug: GET /v1/debug/profile  GET /v1/debug/events")?;
    writeln!(out, "  stop with Ctrl-C or POST /v1/shutdown")?;
    out.flush()?;

    let stats = handle.wait();
    writeln!(out, "car-serve drained and stopped")?;
    writeln!(
        out,
        "  served {} requests in {:.1}s; ingested {} units ({} evicted, {} retained)",
        stats.requests,
        stats.uptime.as_secs_f64(),
        stats.units_ingested,
        stats.evictions,
        stats.units_retained
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_serve_without_a_support_count_is_refused() {
        // The bad --fsync is parsed after the check, so a regression
        // fails on that usage error instead of booting a daemon.
        let tokens: Vec<String> = [
            "--shard-id",
            "0",
            "--shard-count",
            "2",
            "--min-support",
            "0.05",
            "--data-dir",
            "unused",
            "--fsync",
            "bogus",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let result = run(&Args::parse(&tokens, OPTIONS).unwrap(), &mut Vec::new());
        let Err(CliError::Usage(msg)) = result else {
            panic!("expected a usage error, got {result:?}");
        };
        assert!(msg.contains("--shard-count 2 needs --min-support-count"), "{msg}");
    }
}
