//! `car chaos` — run the deterministic fault-injecting TCP proxy.

use std::fs;
use std::io::Write;

use car_chaos::{run_proxy, ChaosConfig, ScheduleConfig};

use crate::args::Args;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &["listen", "upstream", "seed", "schedule"];

/// Runs the `chaos` command: boots the proxy between `--listen` and
/// `--upstream` with the seeded fault schedule and blocks until the
/// process is killed.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let listen = args
        .get("listen")
        .ok_or_else(|| CliError::Usage("chaos requires --listen HOST:PORT".into()))?
        .to_string();
    let upstream = args
        .get("upstream")
        .ok_or_else(|| CliError::Usage("chaos requires --upstream HOST:PORT".into()))?
        .to_string();
    let seed: u64 = args.parse_or("seed", 42)?;

    let schedule = match args.get("schedule") {
        Some(path) => {
            let text = fs::read_to_string(path)?;
            ScheduleConfig::parse(&text)
                .map_err(|msg| CliError::Usage(format!("--schedule {path}: {msg}")))?
        }
        // No schedule: a transparent proxy (useful as the no-fault leg
        // of an A/B chaos run).
        None => ScheduleConfig::default(),
    };
    let partitions = schedule.partitions.len();

    let mut handle = run_proxy(ChaosConfig {
        listen,
        upstream: upstream.clone(),
        seed,
        schedule,
        arm_on_start: true,
    })?;

    writeln!(
        out,
        "car-chaos proxying {} -> {upstream} (seed {seed}, {partitions} partition window(s) armed)",
        handle.addr()
    )?;
    writeln!(out, "  same seed + schedule replays the same fault trace")?;
    out.flush()?;

    handle.wait();
    Ok(())
}
