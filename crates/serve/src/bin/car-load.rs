//! `car-load` — a load generator for the car-serve daemon.
//!
//! Drives a running daemon over real sockets with N concurrent
//! keep-alive connections and reports throughput and latency
//! percentiles:
//!
//! ```text
//! car-load --addr 127.0.0.1:7878 --connections 8 --requests 500 --mode mixed
//! ```
//!
//! Modes: `rules` (GET /v1/rules), `health` (GET /v1/health), `ingest`
//! (POST /v1/units with synthetic cyclic baskets), `mixed` (random mix,
//! ingest-light). Synthetic ingest bodies alternate two basket
//! populations so the daemon actually finds cyclic rules under load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use car_serve::{FailureClass, RetryPolicy, RetryingClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Options {
    addr: String,
    connections: usize,
    requests_per_connection: usize,
    mode: Mode,
    seed: u64,
    max_retries: u32,
    timeout: Duration,
    /// Print the trace ids of the N slowest answered requests at the
    /// summary (0 disables). Feed them to `car trace --id` or
    /// `/v1/debug/traces?trace_id=` to see where the time went.
    trace_slowest: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Rules,
    Health,
    Ingest,
    Mixed,
}

const USAGE: &str = "\
car-load — load generator for the car-serve daemon

USAGE:
    car-load --addr HOST:PORT [--connections N] [--requests N]
             [--mode rules|health|ingest|mixed] [--seed S]
             [--max-retries N] [--timeout-ms MS] [--trace-slowest N]

    --addr         daemon address (required)
    --connections  concurrent keep-alive connections   [default: 4]
    --requests     requests per connection             [default: 250]
    --mode         request mix                         [default: mixed]
    --seed         RNG seed for bodies and mixing      [default: 7]
    --max-retries  retries per request on 503 or a     [default: 4]
                   broken connection (exponential
                   backoff with jitter)
    --timeout-ms   per-request connect/read/write      [default: 5000]
                   timeout, in milliseconds
    --trace-slowest  print the trace ids of the N      [default: 0]
                   slowest answered requests (from the
                   x-car-trace-id response header) for
                   `car trace --id` / /v1/debug/traces
";

fn parse_options() -> Result<Options, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        addr: String::new(),
        connections: 4,
        requests_per_connection: 250,
        mode: Mode::Mixed,
        seed: 7,
        max_retries: 4,
        timeout: Duration::from_millis(5_000),
        trace_slowest: 0,
    };
    let mut i = 0;
    while i < argv.len() {
        let need_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {}", argv[i]))
        };
        match argv[i].as_str() {
            "--addr" => opts.addr = need_value(i)?.to_string(),
            "--connections" => {
                opts.connections = need_value(i)?
                    .parse()
                    .map_err(|_| "invalid --connections".to_string())?;
            }
            "--requests" => {
                opts.requests_per_connection = need_value(i)?
                    .parse()
                    .map_err(|_| "invalid --requests".to_string())?;
            }
            "--mode" => {
                opts.mode = match need_value(i)? {
                    "rules" => Mode::Rules,
                    "health" => Mode::Health,
                    "ingest" => Mode::Ingest,
                    "mixed" => Mode::Mixed,
                    other => return Err(format!("unknown mode `{other}`")),
                };
            }
            "--seed" => {
                opts.seed =
                    need_value(i)?.parse().map_err(|_| "invalid --seed".to_string())?;
            }
            "--max-retries" => {
                opts.max_retries = need_value(i)?
                    .parse()
                    .map_err(|_| "invalid --max-retries".to_string())?;
            }
            "--timeout-ms" => {
                let ms: u64 = need_value(i)?
                    .parse()
                    .map_err(|_| "invalid --timeout-ms".to_string())?;
                if ms == 0 {
                    return Err("--timeout-ms must be positive".to_string());
                }
                opts.timeout = Duration::from_millis(ms);
            }
            "--trace-slowest" => {
                opts.trace_slowest = need_value(i)?
                    .parse()
                    .map_err(|_| "invalid --trace-slowest".to_string())?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 2;
    }
    if opts.addr.is_empty() {
        return Err("missing required --addr".to_string());
    }
    if opts.connections == 0 || opts.requests_per_connection == 0 {
        return Err("--connections and --requests must be positive".to_string());
    }
    Ok(opts)
}

/// A synthetic time unit: even units sell {1,2,3} baskets, odd units
/// {7,8}. Some noise items keep the body realistic.
fn unit_body(rng: &mut StdRng, unit_index: u64) -> Vec<u8> {
    let mut body = String::from("{\"transactions\": [");
    let baskets = 20 + rng.gen_range(0usize..10);
    for b in 0..baskets {
        if b > 0 {
            body.push(',');
        }
        if unit_index % 2 == 0 {
            body.push_str("[1,2,3");
        } else {
            body.push_str("[7,8");
        }
        let noise = rng.gen_range(0usize..3);
        for _ in 0..noise {
            body.push_str(&format!(",{}", rng.gen_range(100u32..200)));
        }
        body.push(']');
    }
    body.push_str("]}");
    body.into_bytes()
}

/// Final outcomes bucketed by failure class, so a chaos or overload run
/// reads as *what* went wrong — connections refused, deadlines blown,
/// server errors, or deliberate shedding — not a single error count.
#[derive(Default)]
struct FailureCounts {
    /// Connect/read/write deadline expired (transport).
    timeout: u64,
    /// TCP connection could not be established (transport).
    connect: u64,
    /// Other transport failure: reset mid-exchange, bad response.
    transport: u64,
    /// 5xx answer that was not a shed (includes 503s without
    /// `retry-after`).
    http_5xx: u64,
    /// Admission-gate shed: `503` carrying `retry-after`.
    shed: u64,
}

impl FailureCounts {
    fn total(&self) -> u64 {
        self.timeout + self.connect + self.transport + self.http_5xx + self.shed
    }

    fn merge(&mut self, other: &FailureCounts) {
        self.timeout += other.timeout;
        self.connect += other.connect;
        self.transport += other.transport;
        self.http_5xx += other.http_5xx;
        self.shed += other.shed;
    }
}

struct WorkerReport {
    latencies_us: Vec<u64>,
    failed_latencies_us: Vec<u64>,
    failures: FailureCounts,
    non_2xx: u64,
    retries: u64,
    /// `(latency, trace id)` for each answered request whose response
    /// carried an `x-car-trace-id` header — feeds `--trace-slowest`.
    traced: Vec<(u64, String)>,
}

fn run_worker(opts: &Options, worker: usize, ingest_counter: &AtomicU64) -> WorkerReport {
    let worker_seed = opts.seed ^ (worker as u64).wrapping_mul(0x9E37);
    let mut rng = StdRng::seed_from_u64(worker_seed);
    let mut report = WorkerReport {
        latencies_us: Vec::with_capacity(opts.requests_per_connection),
        failed_latencies_us: Vec::new(),
        failures: FailureCounts::default(),
        non_2xx: 0,
        retries: 0,
        traced: Vec::new(),
    };
    let policy = RetryPolicy { max_retries: opts.max_retries, timeout: opts.timeout };
    let mut client = RetryingClient::with_seed(&opts.addr, policy, worker_seed);
    for _ in 0..opts.requests_per_connection {
        let mode = match opts.mode {
            Mode::Mixed => match rng.gen_range(0u32..10) {
                0..=5 => Mode::Rules,
                6..=7 => Mode::Health,
                8 => Mode::Ingest,
                _ => Mode::Health,
            },
            fixed => fixed,
        };
        let started = Instant::now();
        let result = match mode {
            Mode::Rules => client.request("GET", "/v1/rules", None),
            Mode::Health => client.request("GET", "/v1/health", None),
            Mode::Ingest => {
                let n = ingest_counter.fetch_add(1, Ordering::Relaxed);
                let body = unit_body(&mut rng, n);
                client.request("POST", "/v1/units", Some(&body))
            }
            Mode::Mixed => unreachable!(),
        };
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        match result {
            Some(resp) if (200..300).contains(&resp.status) => {
                report.latencies_us.push(us);
                if opts.trace_slowest > 0 {
                    if let Some(id) = resp.header("x-car-trace-id") {
                        report.traced.push((us, id.to_string()));
                    }
                }
            }
            // A 503 carrying `retry-after` is the admission gate
            // shedding; other 5xx are server failures. Anything else
            // non-2xx (409 warming up, 4xx) is a daemon answer, not a
            // failure — it still measures a served round-trip.
            Some(resp) if resp.status == 503 && resp.header("retry-after").is_some() => {
                report.failed_latencies_us.push(us);
                report.failures.shed += 1;
            }
            Some(resp) if (500..600).contains(&resp.status) => {
                report.failed_latencies_us.push(us);
                report.failures.http_5xx += 1;
            }
            Some(_) => {
                report.latencies_us.push(us);
                report.non_2xx += 1;
            }
            None => {
                report.failed_latencies_us.push(us);
                match client.last_failure() {
                    Some(FailureClass::Timeout) => report.failures.timeout += 1,
                    Some(FailureClass::Connect) => report.failures.connect += 1,
                    Some(FailureClass::Transport) | None => {
                        report.failures.transport += 1;
                    }
                }
            }
        }
    }
    report.retries = client.retries();
    report
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Client-side latency histogram over the same bucket bounds as the
/// daemon's `car_http_request_duration_seconds` (the shared const in
/// car-obs), so the two distributions can be compared bucket for
/// bucket. Returns one count per bound plus the overflow bucket.
fn client_histogram(
    latencies_us: &[u64],
) -> [u64; car_obs::LATENCY_BUCKET_BOUNDS_US.len() + 1] {
    let mut counts = [0u64; car_obs::LATENCY_BUCKET_BOUNDS_US.len() + 1];
    for &us in latencies_us {
        let bucket = car_obs::LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(car_obs::LATENCY_BUCKET_BOUNDS_US.len());
        counts[bucket] += 1;
    }
    counts
}

fn print_histogram(label: &str, latencies_us: &[u64]) {
    let counts = client_histogram(latencies_us);
    println!("  {label} latency histogram (daemon-shared bucket bounds):");
    let mut cumulative = 0u64;
    for (count, bound) in counts.iter().zip(car_obs::LATENCY_BUCKET_BOUNDS_US.iter()) {
        cumulative += count;
        println!("    le {:>9}µs  {:>7}  (cumulative {cumulative})", bound, count);
    }
    let overflow = counts[car_obs::LATENCY_BUCKET_BOUNDS_US.len()];
    cumulative += overflow;
    println!("    le      +Inf   {overflow:>7}  (cumulative {cumulative})");
}

fn main() {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let ingest_counter = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|w| {
                let opts = &opts;
                let counter = Arc::clone(&ingest_counter);
                scope.spawn(move || run_worker(opts, w, &counter))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> =
        reports.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    latencies.sort_unstable();
    let mut failed_latencies: Vec<u64> =
        reports.iter().flat_map(|r| r.failed_latencies_us.iter().copied()).collect();
    failed_latencies.sort_unstable();
    let answered = latencies.len() as u64;
    let mut failures = FailureCounts::default();
    for report in &reports {
        failures.merge(&report.failures);
    }
    let non_2xx: u64 = reports.iter().map(|r| r.non_2xx).sum();
    let retries: u64 = reports.iter().map(|r| r.retries).sum();
    let throughput = answered as f64 / elapsed.as_secs_f64().max(1e-9);

    println!("car-load against {}", opts.addr);
    println!(
        "  connections: {}   requests/conn: {}",
        opts.connections, opts.requests_per_connection
    );
    println!(
        "  ok (2xx): {}   failed: {}   other answers: {non_2xx}   retries: {retries}",
        answered.saturating_sub(non_2xx),
        failures.total()
    );
    println!(
        "  failures: timeout {}   connect {}   transport {}   5xx {}   shed {}",
        failures.timeout,
        failures.connect,
        failures.transport,
        failures.http_5xx,
        failures.shed
    );
    println!(
        "  wall time: {:.3}s   throughput: {throughput:.0} req/s",
        elapsed.as_secs_f64()
    );
    if !latencies.is_empty() {
        println!(
            "  latency: p50 {}µs   p95 {}µs   p99 {}µs   max {}µs",
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.95),
            percentile(&latencies, 0.99),
            latencies[latencies.len() - 1]
        );
        print_histogram("answered", &latencies);
    }
    if !failed_latencies.is_empty() {
        print_histogram("failed", &failed_latencies);
    }
    if opts.trace_slowest > 0 {
        let mut traced: Vec<(u64, String)> =
            reports.into_iter().flat_map(|r| r.traced).collect();
        traced.sort_unstable_by_key(|t| std::cmp::Reverse(t.0));
        traced.truncate(opts.trace_slowest);
        if traced.is_empty() {
            println!("  no answered request carried an x-car-trace-id header");
        } else {
            println!(
                "  slowest traced requests (car trace --addr {} --id HEX):",
                opts.addr
            );
            for (us, id) in &traced {
                println!("    {us:>9}µs  {id}");
            }
        }
    }
    // Sheds and 5xx are daemon answers under stress — the run still
    // measured something. Transport-level failure means the run could
    // not talk to the daemon at all; that is the failing exit.
    if failures.timeout + failures.connect + failures.transport > 0 {
        std::process::exit(1);
    }
}
