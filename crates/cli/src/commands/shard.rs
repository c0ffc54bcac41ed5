//! `car shard` — run the sharded-cluster router.
//!
//! Two modes:
//!
//! * **Attach** (`--workers a:p,b:p,...`): front an already-running set
//!   of `car-serve` workers. The worker list order defines shard ids.
//! * **Spawn** (`--shards N`): launch N `car serve` child processes
//!   (ephemeral ports, `--shard-id i --shard-count N`), parse their
//!   startup banners for addresses, and shut them down when the router
//!   stops.
//!
//! Workers of a sharded cluster must mine with an absolute support
//! count (`--min-support-count`): each shard sees only its partition's
//! transactions, so a support *fraction* would be taken of per-shard
//! volume and shards would disagree with a single node. Spawn mode
//! forwards only the count, so `car shard` rejects `--min-support`
//! rather than ignore it; a `car serve` worker given `--shard-count` of
//! 2 or more refuses to boot without `--min-support-count`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use car_serve::RetryPolicy;
use car_shard::{run_router, BreakerConfig, PartitionKey, RouterConfig, RouterError};

use crate::args::Args;
use crate::error::CliError;

/// A spawned worker process, killed on drop unless it already exited.
struct WorkerChild {
    child: Child,
    addr: String,
}

impl Drop for WorkerChild {
    fn drop(&mut self) {
        // Give a shut-down worker a moment to exit cleanly, then stop
        // waiting politely.
        for _ in 0..100 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns one `car serve` worker and reads its banner for the address.
fn spawn_worker(
    shard_id: u32,
    shard_count: u32,
    forwarded: &[String],
) -> Result<WorkerChild, CliError> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .arg("--port")
        .arg("0")
        .arg("--shard-id")
        .arg(shard_id.to_string())
        .arg("--shard-count")
        .arg(shard_count.to_string())
        .args(forwarded)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(CliError::Usage(format!(
            "worker {shard_id}: could not capture stdout"
        )));
    };
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(CliError::Usage(format!(
                    "worker {shard_id} exited before announcing its address"
                )));
            }
            Ok(_) => {
                if let Some(rest) =
                    line.trim().strip_prefix("car-serve listening on http://")
                {
                    let addr = rest.to_string();
                    // Keep draining the worker's stdout so it never
                    // blocks on a full pipe.
                    std::thread::spawn(move || {
                        let mut sink = String::new();
                        loop {
                            sink.clear();
                            match reader.read_line(&mut sink) {
                                Ok(0) | Err(_) => break,
                                Ok(_) => {}
                            }
                        }
                    });
                    return Ok(WorkerChild { child, addr });
                }
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(CliError::Io(e));
            }
        }
    }
}

/// Builds the `car serve` options forwarded to every spawned worker.
fn forwarded_worker_args(args: &Args) -> Vec<String> {
    let mut forwarded = Vec::new();
    let mut push = |name: &str, value: &str| {
        forwarded.push(format!("--{name}"));
        forwarded.push(value.to_string());
    };
    // Mining parameters: support is forced to an absolute count.
    let count = args.get("min-support-count").unwrap_or("2");
    push("min-support-count", count);
    for name in ["min-confidence", "l-min", "l-max", "window", "queue-capacity"] {
        if let Some(value) = args.get(name) {
            push(name, value);
        }
    }
    forwarded
}

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &[
    "workers",
    "shards",
    "host",
    "port",
    "threads",
    "partition-key",
    "probe-interval-ms",
    "replay-capacity",
    "retry",
    "timeout-secs",
    "breaker-failures",
    "breaker-cooldown-ms",
    "request-budget-ms",
    "min-support",
    "min-support-count",
    "min-confidence",
    "l-min",
    "l-max",
    "window",
    "queue-capacity",
];

/// Runs the `shard` command: boots (or attaches to) the workers, starts
/// the router, and blocks until it shuts down (`POST /v1/shutdown`).
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    if args.get("min-support").is_some() {
        return Err(CliError::Usage(
            "car shard takes --min-support-count, not --min-support: each shard \
             sees only its partition, so a support fraction of per-shard volume \
             does not add up to the single-node answer"
                .into(),
        ));
    }
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.parse_or("port", 7979)?;
    let threads: usize = args.parse_or("threads", 4)?;
    let key: PartitionKey = match args.get("partition-key") {
        None => PartitionKey::MinItem,
        Some(raw) => raw
            .parse()
            .map_err(|msg| CliError::Usage(format!("--partition-key: {msg}")))?,
    };
    let probe_interval_ms: u64 = args.parse_or("probe-interval-ms", 250)?;
    let replay_capacity: usize = args.parse_or("replay-capacity", 512)?;
    let max_retries: u32 = args.parse_or("retry", 2)?;
    let timeout_secs: u64 = args.parse_or("timeout-secs", 2)?;
    // Resilience knobs: breaker trip threshold/cooldown and the default
    // per-request deadline budget propagated to fan-out legs.
    let breaker_defaults = BreakerConfig::default();
    let breaker_failures: u32 =
        args.parse_or("breaker-failures", breaker_defaults.failure_threshold)?;
    let breaker_cooldown_ms: u64 = args.parse_or(
        "breaker-cooldown-ms",
        u64::try_from(breaker_defaults.cooldown.as_millis()).unwrap_or(500),
    )?;
    let request_budget_ms: u64 = args.parse_or("request-budget-ms", 10_000)?;

    // Attach mode takes precedence; spawn mode launches its own workers.
    let mut children: Vec<WorkerChild> = Vec::new();
    let (workers, shutdown_workers) = match args.get("workers") {
        Some(list) => {
            let workers: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if workers.is_empty() {
                return Err(CliError::Usage("--workers lists no addresses".into()));
            }
            (workers, false)
        }
        None => {
            let shards: u32 = args.parse_or("shards", 0)?;
            if shards == 0 {
                return Err(CliError::Usage(
                    "need --workers a:p,b:p,... (attach) or --shards N (spawn)".into(),
                ));
            }
            let forwarded = forwarded_worker_args(args);
            for shard_id in 0..shards {
                let child = spawn_worker(shard_id, shards, &forwarded)?;
                writeln!(out, "  shard {shard_id} worker on http://{}", child.addr)?;
                children.push(child);
            }
            (children.iter().map(|c| c.addr.clone()).collect(), true)
        }
    };

    let config = RouterConfig {
        addr: format!("{host}:{port}"),
        workers,
        threads,
        key,
        retry: RetryPolicy {
            max_retries,
            timeout: Duration::from_secs(timeout_secs.max(1)),
        },
        probe_interval: Duration::from_millis(probe_interval_ms.max(25)),
        replay_capacity: replay_capacity.max(1),
        shutdown_workers,
        breaker: BreakerConfig {
            failure_threshold: breaker_failures.max(1),
            cooldown: Duration::from_millis(breaker_cooldown_ms.max(1)),
            ..breaker_defaults
        },
        request_budget: Duration::from_millis(request_budget_ms.max(1)),
        ..RouterConfig::default()
    };
    let shard_count = config.workers.len();

    let handle = run_router(config).map_err(|e| match e {
        RouterError::Config(msg) => CliError::Usage(msg),
        RouterError::Io(io) => CliError::Io(io),
    })?;
    writeln!(out, "car-shard router listening on http://{}", handle.addr)?;
    writeln!(
        out,
        "  {shard_count} shards, partition key {key}, replay ring {replay_capacity} units"
    )?;
    writeln!(
        out,
        "  endpoints: POST /v1/units  GET /v1/rules  GET /v1/items  GET /v1/health  \
         GET /metrics  GET /v1/debug/traces"
    )?;
    writeln!(out, "  stop with POST /v1/shutdown")?;
    out.flush()?;

    let stats = handle.wait();
    drop(children);
    writeln!(out, "car-shard router stopped")?;
    writeln!(
        out,
        "  served {} requests in {:.1}s; routed {} units",
        stats.requests,
        stats.uptime.as_secs_f64(),
        stats.units_routed
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_router_refuses_a_support_fraction() {
        // The bad --partition-key is parsed after the check, so a
        // regression fails on that usage error instead of spawning
        // workers.
        let tokens: Vec<String> =
            ["--shards", "2", "--min-support", "0.05", "--partition-key", "bogus"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let result = run(&Args::parse(&tokens, OPTIONS).unwrap(), &mut Vec::new());
        let Err(CliError::Usage(msg)) = result else {
            panic!("expected a usage error, got {result:?}");
        };
        assert!(msg.contains("takes --min-support-count, not --min-support"), "{msg}");
    }
}
