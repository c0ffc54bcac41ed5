//! The four workloads: traffic, correctness gates and measurements.
//!
//! * `ingest`: one durable `car serve` at the paper's base support, one
//!   producer in a closed loop, then a SIGKILL and a recovery.
//! * `query`: one memory-only `car serve` at the daemon defaults, a writer
//!   on a fixed schedule plus an open-loop reader mix.
//! * `cluster`: `car shard --shards 3`, a closed-loop backfill, then the
//!   `query` mix through the router.
//! * `batch`: `CyclicRuleMiner::mine` in process, SEQUENTIAL and
//!   INTERLEAVED, over the paper's base database.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use car_core::{Algorithm, CyclicRuleMiner, MiningConfig, MiningStats};
use car_itemset::{ItemSet, SegmentedDb};

use crate::daemon::{fresh_dir, own_peak_rss_mb, reset_own_peak_rss, Daemon};
use crate::data::{base_units, text_database, Mix, Pool};
use crate::http::{Conn, OpCount, Response};
use crate::oracle::{oracle_rules, served_rules, symmetric_difference};
use crate::replay::{self, PipelineCounts, Sink, WAL_TAIL_UNITS, WARMUP_UNITS};
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, median, percentile};

/// Units every window holds; the daemon default.
const WINDOW: usize = 64;
/// Set-ups per run (one on a probe); `setup_s` is their median.
const SETUPS: usize = 5;
/// Units the traced write-path replay measures after its warm-up window:
/// whole passes over the base database, and enough for a p95 with ten
/// samples beyond it.
const TRACED_UNITS: usize = 256;
/// Repetitions of each traced read-path call.
const READ_REPS: u64 = 20;
/// Writer period on `query` and `cluster`.
const WRITE_PERIOD: Duration = Duration::from_millis(500);
/// Open-loop rules reads per second on `query` and `cluster`. A 30 s run
/// sends 1500, which leaves 15 beyond p99; a shorter run reports the
/// highest percentile that keeps ten beyond it. Faster readers fell
/// behind the server and made the median wander.
const READ_RATE: f64 = 50.0;
/// SEQUENTIAL `mine` calls per `batch` run; `batch_sequential_s` is their
/// median.
const SEQUENTIAL_CALLS: usize = 5;
/// Units posted in the cluster's closed-loop backfill.
const BACKFILL_UNITS: usize = 256;
/// A run whose open-loop generator started requests later than this at
/// p99 is invalid, not slow.
const LATE_BOUND_MS: f64 = 10.0;
/// The base scenario's support threshold (the paper's 1.5%).
const BASE_SUPPORT: f64 = 0.015;
/// The daemon's default support threshold.
const DEFAULT_SUPPORT: f64 = 0.05;
/// `--min-support-count` on the cluster: 5% of a 1000-transaction unit.
const CLUSTER_SUPPORT_COUNT: u64 = 50;
const SHARDS: u32 = 3;

/// Where and how one run executes.
pub struct Ctx {
    pub car: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A short run inside another workload's traced run, for its layer
    /// metrics only: it boots its server once, and the generator's
    /// lateness does not invalidate it.
    pub probe: bool,
}

/// One measured quantity under its design name, for the summary.
pub struct Detail {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Gate failures; any makes the run incorrect.
    pub faults: Vec<String>,
    pub ops: OpCount,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub details: Vec<Detail>,
    /// Counters that must repeat exactly under the same seed.
    pub deterministic: BTreeMap<&'static str, f64>,
    /// Each traced replay's spans, by label.
    pub spans: Vec<(&'static str, Recorder)>,
}

impl Outcome {
    fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.details.push(Detail { name: name.to_string(), value, unit, samples });
    }

    /// Median and tail of `samples`: the tail is the workload's named
    /// percentile `cap`, lowered if need be until ten samples lie beyond
    /// it; the summary names the percentile used.
    fn latency(&mut self, name: &str, samples: &[f64], cap: f64) -> (f64, f64) {
        let p50 = median(samples);
        self.detail(&format!("{name}_p50_ms"), p50, "ms", samples.len());
        let Some(p) = highest_supported_percentile(samples.len(), cap, 10) else {
            self.faults
                .push(format!("{name}: {} samples cannot support a tail", samples.len()));
            return (p50, f64::NAN);
        };
        let tail = percentile(samples, p);
        self.detail(&format!("{name}_p{p}_ms"), tail, "ms", samples.len());
        (p50, tail)
    }
}

/// A progress line on stderr, stamped with the time since the process
/// started.
pub fn progress(msg: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[perfbench +{t:.1}s] {msg}");
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The `unit_seq` of a single-node ingest ack.
fn unit_seq(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"unit_seq\":")? + 11..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

fn mining(support: Support) -> MiningConfig {
    let builder = MiningConfig::builder().min_confidence(0.6).cycle_bounds(2, 16);
    let builder = match support {
        Support::Fraction(f) => builder.min_support_fraction(f),
        Support::Count(c) => builder.min_support_count(c),
    };
    builder.build().expect("benchmark mining configuration is valid")
}

#[derive(Clone, Copy)]
enum Support {
    Fraction(f64),
    Count(u64),
}

/// Size of the symmetric difference between the served rules and an
/// INTERLEAVED batch mine of the same window (oldest unit first).
fn wrong_rules(
    served_body: &[u8],
    window: &[Vec<ItemSet>],
    config: MiningConfig,
) -> Result<usize, String> {
    let served = served_rules(served_body)?;
    let db = SegmentedDb::from_unit_itemsets(window.to_vec());
    let oracle = CyclicRuleMiner::new(config, Algorithm::interleaved())
        .mine(&db)
        .map_err(|e| e.to_string())?;
    Ok(symmetric_difference(&served, &oracle_rules(&oracle.rules)))
}

fn get(conn: &mut Conn, target: &str, ops: &mut OpCount) -> Result<Response, String> {
    let r = conn.request("GET", target, b"");
    ops.record(&r);
    r.map_err(|f| format!("GET {target}: {}", f.label()))
}

// ---------------------------------------------------------------------
// Shared traffic
// ---------------------------------------------------------------------

/// Boots a server and fills its window with units `0..WINDOW`, one
/// closed-loop `?wait=true` POST per unit. Returns the daemon, the set-up
/// time and the fill's unit sequence numbers.
fn boot_and_fill(
    ctx: &Ctx,
    name: &str,
    args: &[String],
    shards: usize,
    pool: &Pool,
    ops: &mut OpCount,
) -> Result<(Daemon, f64, Vec<Option<u64>>), String> {
    let start = Instant::now();
    let mut daemon = Daemon::spawn(&ctx.car, args, &ctx.dir.join("logs"), name, shards)?;
    daemon.wait_ready()?;
    let mut conn = Conn::new(&daemon.addr);
    let mut seqs = Vec::with_capacity(WINDOW);
    for i in 0..WINDOW {
        let r = conn.request("POST", "/v1/units?wait=true", &pool.bodies[pool.index(i)]);
        ops.record(&r);
        seqs.push(unit_seq(
            &r.map_err(|f| format!("fill unit {i}: {}", f.label()))?.body,
        ));
    }
    Ok((daemon, start.elapsed().as_secs_f64(), seqs))
}

/// [`SETUPS`] boots (one for a probe); keeps the last server running.
fn setup(
    ctx: &Ctx,
    name: &str,
    args_for: impl Fn(usize) -> Result<Vec<String>, String>,
    shards: usize,
    pool: &Pool,
    out: &mut Outcome,
) -> Result<(Daemon, Vec<Option<u64>>), String> {
    let setups = if ctx.probe { 1 } else { SETUPS };
    let mut times = Vec::new();
    for k in 0..setups {
        progress(&format!("set-up {k}"));
        let (daemon, t, seqs) = boot_and_fill(
            ctx,
            &format!("{name}-{k}"),
            &args_for(k)?,
            shards,
            pool,
            &mut out.ops,
        )?;
        times.push(t);
        if k + 1 == setups {
            let setup_s = median(&times);
            out.e2e.insert("setup_s", setup_s);
            out.detail("setup_s", setup_s, "s", times.len());
            progress("measuring");
            return Ok((daemon, seqs));
        }
        daemon.stop();
    }
    Err("no set-up ran".into())
}

/// What a closed loop measured: per-ack latencies, the acked stream
/// units and their sequence numbers, the elapsed time and the failures.
struct Closed {
    latency_ms: Vec<f64>,
    applied: Vec<usize>,
    seqs: Vec<Option<u64>>,
    elapsed: f64,
    failures: u64,
}

/// Closed-loop ingest, one producer: posts the stream units `units` in
/// order until they run out or `deadline` passes.
fn closed_loop(
    addr: &str,
    pool: &Pool,
    units: impl Iterator<Item = usize>,
    deadline: Option<Instant>,
    ops: &mut OpCount,
) -> Closed {
    let mut conn = Conn::new(addr);
    let start = Instant::now();
    let mut c = Closed {
        latency_ms: Vec::new(),
        applied: Vec::new(),
        seqs: Vec::new(),
        elapsed: 0.0,
        failures: 0,
    };
    for u in units {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let sent = Instant::now();
        let r = conn.request("POST", "/v1/units?wait=true", &pool.bodies[u]);
        ops.record(&r);
        match r {
            Ok(resp) => {
                c.latency_ms.push(ms(sent.elapsed()));
                c.applied.push(u);
                c.seqs.push(unit_seq(&resp.body));
            }
            Err(_) => c.failures += 1,
        }
    }
    c.elapsed = start.elapsed().as_secs_f64();
    c
}

/// Units the writer posts in a mix of `seconds`.
fn writes(seconds: f64) -> usize {
    (seconds / WRITE_PERIOD.as_secs_f64()).floor() as usize
}

/// One operation of the writer/reader mix.
#[derive(Clone)]
enum Op {
    /// `POST /v1/units?wait=true` of run position `i`, then a read-back
    /// of `/v1/rules`: the first query of the new epoch.
    Write(usize),
    /// Plain or `length`/`offset`-filtered `GET /v1/rules`.
    Rules(String),
    /// `GET /v1/rules?min_confidence=q` above the mining threshold.
    Escalated(f64),
    Items,
}

/// An open-loop schedule: each op with its due time after the start.
type Schedule = Vec<(Duration, Op)>;

/// The mix for `seconds`, split over the two connections the load
/// generator may use. The reader connection sends [`READ_RATE`] rules
/// reads per second, 89% plain and 11% with `length`/`offset` filters.
/// The writer's connection posts a unit every [`WRITE_PERIOD`] (run
/// positions from `first`) and, half a period after each, one other read:
/// `/v1/items` or an escalated `min_confidence` drawn from 399 values so
/// most miss the epoch cache. Keeping the slow escalated reads off the reader's
/// connection keeps them from queueing the plain reads behind them, and
/// keeping them half a period from the writes keeps a re-detection from
/// competing for the processors with the new epoch's view assembly.
fn schedules(seed: u64, seconds: f64, first: usize) -> (Schedule, Schedule) {
    let mut mix = Mix::new(seed);
    let span = Duration::from_secs_f64(seconds);
    let reads = (0..)
        .map(|i| Duration::from_secs_f64(f64::from(i) / READ_RATE))
        .take_while(|&t| t < span);
    let reader = reads
        .map(|due| {
            let op = if mix.below(94) < 10 {
                let length = 2 + mix.below(15);
                if mix.below(2) == 0 {
                    Op::Rules(format!("/v1/rules?length={length}"))
                } else {
                    Op::Rules(format!(
                        "/v1/rules?length={length}&offset={}",
                        mix.below(length)
                    ))
                }
            } else {
                Op::Rules("/v1/rules".into())
            };
            (due, op)
        })
        .collect();
    let mut writer: Schedule = (0..writes(seconds))
        .map(|k| (WRITE_PERIOD * k as u32, Op::Write(first + k)))
        .collect();
    let heavy =
        (0..).map(|k| WRITE_PERIOD * k + WRITE_PERIOD / 2).take_while(|&t| t < span);
    for due in heavy {
        let op = if mix.below(2) == 0 {
            Op::Items
        } else {
            Op::Escalated(0.601 + mix.below(399) as f64 / 1000.0)
        };
        writer.push((due, op));
    }
    writer.sort_by_key(|(due, _)| *due);
    (writer, reader)
}

#[derive(Default)]
struct MixOut {
    rules_ms: Vec<f64>,
    escalated_ms: Vec<f64>,
    items_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// The stream unit each `ingest_ms` sample posted.
    ingest_units: Vec<usize>,
    fresh_ms: Vec<f64>,
    late_ms: Vec<f64>,
    seqs: Vec<Option<u64>>,
    writes_acked: usize,
    ops: OpCount,
}

impl MixOut {
    fn merge(&mut self, o: MixOut) {
        self.rules_ms.extend(o.rules_ms);
        self.escalated_ms.extend(o.escalated_ms);
        self.items_ms.extend(o.items_ms);
        self.ingest_ms.extend(o.ingest_ms);
        self.ingest_units.extend(o.ingest_units);
        self.fresh_ms.extend(o.fresh_ms);
        self.late_ms.extend(o.late_ms);
        self.seqs.extend(o.seqs);
        self.writes_acked += o.writes_acked;
        self.ops.merge(&o.ops);
    }
}

/// Runs one connection's schedule open loop from `t0`. Each op is timed
/// from its due time (a write's read-back from the ack); lateness is how
/// long after max(due, previous answer) the op actually started.
fn run_client(
    addr: &str,
    pool: &Pool,
    t0: Instant,
    schedule: &[(Duration, Op)],
) -> MixOut {
    let mut out = MixOut::default();
    let mut conn = Conn::new(addr);
    let mut prev_done = t0;
    for (offset, op) in schedule {
        let due = t0 + *offset;
        sleep_until(due);
        out.late_ms
            .push(ms(Instant::now().saturating_duration_since(due.max(prev_done))));
        let (target, bucket) = match op {
            Op::Write(i) => {
                let r = conn.request(
                    "POST",
                    "/v1/units?wait=true",
                    &pool.bodies[pool.index(*i)],
                );
                out.ops.record(&r);
                let Ok(resp) = r else { continue };
                out.ingest_ms.push(ms(due.elapsed()));
                out.ingest_units.push(pool.index(*i));
                out.seqs.push(unit_seq(&resp.body));
                out.writes_acked += 1;
                let sent = Instant::now();
                let back = conn.request("GET", "/v1/rules", b"");
                out.ops.record(&back);
                prev_done = Instant::now();
                if back.is_ok() {
                    out.fresh_ms.push(ms(sent.elapsed()));
                }
                continue;
            }
            Op::Rules(t) => (t.clone(), &mut out.rules_ms),
            Op::Escalated(q) => {
                (format!("/v1/rules?min_confidence={q:.3}"), &mut out.escalated_ms)
            }
            Op::Items => ("/v1/items".to_string(), &mut out.items_ms),
        };
        let result = conn.request("GET", &target, b"");
        prev_done = Instant::now();
        if result.is_ok() {
            bucket.push(ms(due.elapsed()));
        }
        out.ops.record(&result);
    }
    out
}

/// The writer/reader mix: two threads, one connection each.
fn mix(
    addr: &str,
    pool: &Pool,
    writer: &[(Duration, Op)],
    reader: &[(Duration, Op)],
) -> MixOut {
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let w = scope.spawn(move || run_client(addr, pool, t0, writer));
        let mut out = run_client(addr, pool, t0, reader);
        out.merge(w.join().unwrap_or_default());
        out
    })
}

/// Applied order check: the acks' sequence numbers must run 1, 2, 3, …
fn check_seqs(seqs: &[Option<u64>], out: &mut Outcome) {
    let consecutive = seqs.iter().enumerate().all(|(i, s)| *s == Some(i as u64 + 1));
    if !consecutive {
        out.faults
            .push("unit_seq values are not the order the units were posted in".into());
    }
}

/// Scrapes `name` (a bare counter line) from a `/metrics` body.
fn prometheus_value(body: &[u8], name: &str) -> f64 {
    String::from_utf8_lossy(body)
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

fn cache_hit_ratio(addrs: &[String], ops: &mut OpCount) -> Result<f64, String> {
    let (mut hits, mut misses) = (0.0, 0.0);
    for addr in addrs {
        let body = get(&mut Conn::new(addr), "/metrics", ops)?.body;
        hits += prometheus_value(&body, "car_query_cache_hits");
        misses += prometheus_value(&body, "car_query_cache_misses");
    }
    Ok(if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 })
}

fn failed_frac(ops: &OpCount) -> f64 {
    ops.failed_total() as f64 / ops.attempted.max(1) as f64
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// `ingest`: durable `car serve` (`fsync always`, snapshot every 64
/// units, window 64) at `min-support 0.015`; one producer, closed loop.
pub fn ingest(ctx: &Ctx) -> Result<Outcome, String> {
    progress("generating units");
    let pool = Pool::generate();
    let config = mining(Support::Fraction(BASE_SUPPORT));
    let mut out = Outcome::default();
    let data_dir = |k: usize| ctx.dir.join(format!("ingest-data-{k}"));
    let args = |dir: &Path| -> Vec<String> {
        [
            "serve",
            "--port",
            "0",
            "--window",
            "64",
            "--snapshot-every",
            "64",
            "--min-support",
            "0.015",
            "--data-dir",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([dir.display().to_string()])
        .collect()
    };
    let (daemon, fill_seqs) =
        setup(ctx, "ingest", |k| Ok(args(&fresh_dir(data_dir(k))?)), 0, &pool, &mut out)?;

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let closed = closed_loop(
        &daemon.addr,
        &pool,
        (WINDOW..).map(|i| pool.index(i)),
        Some(deadline),
        &mut out.ops,
    );
    // Close on the snapshot every 64th unit writes (it then holds all 64
    // base units, the loop being cyclic over them), then post the base
    // database's first 32 units: recovery always loads the same units and
    // replays the same WAL tail, whatever the seed and however many units
    // the loop managed.
    let posted = WINDOW + closed.applied.len();
    let pad = (posted..).take((WINDOW - posted % WINDOW) % WINDOW).map(|i| pool.index(i));
    let padding = closed_loop(&daemon.addr, &pool, pad, None, &mut out.ops);
    let closing = closed_loop(&daemon.addr, &pool, 0..WAL_TAIL_UNITS, None, &mut out.ops);
    let rss = daemon.peak_rss_mb();
    // Per-unit cost differs several-fold between base units, so the
    // latencies cover the timed loop plus its padding: whole passes over
    // the database, each base unit weighed equally whatever the deadline
    // cut. Throughput is the timed loop's alone.
    let latency_ms: Vec<f64> =
        [&closed, &padding].iter().flat_map(|c| c.latency_ms.iter().copied()).collect();
    let (p50, tail) = out.latency("ingest", &latency_ms, 95.0);
    let units_per_s = closed.applied.len() as f64 / closed.elapsed;
    out.detail("ingest_units_per_s", units_per_s, "units/s", closed.applied.len());

    progress("checking answers");
    // Correctness: served rules equal batch-mining the retained units in
    // the order their sequence numbers say they were applied.
    let before = get(&mut Conn::new(&daemon.addr), "/v1/rules", &mut out.ops)?.body;
    check_seqs(
        &[fill_seqs, closed.seqs.clone(), padding.seqs, closing.seqs].concat(),
        &mut out,
    );
    let fill: Vec<usize> = (0..WINDOW).collect();
    let applied =
        [fill.as_slice(), &closed.applied, &padding.applied, &closing.applied].concat();
    let window: Vec<Vec<ItemSet>> = applied[applied.len() - WINDOW..]
        .iter()
        .map(|&u| pool.units[u].clone())
        .collect();
    let failures = closed.failures + padding.failures + closing.failures;
    let wrong = if failures > 0 {
        out.faults.push(format!(
            "{failures} ingest requests failed; the applied order is unknown"
        ));
        0
    } else {
        wrong_rules(&before, &window, config)?
    };
    if wrong != 0 {
        out.faults.push(format!("served rules differ from the batch oracle by {wrong}"));
    }

    progress("killing and recovering");
    // Crash and recover on the same data directory.
    daemon.kill();
    let restart = Instant::now();
    let mut recovered = Daemon::spawn(
        &ctx.car,
        &args(&data_dir(SETUPS - 1)),
        &ctx.dir.join("logs"),
        "ingest-recovered",
        0,
    )?;
    recovered.wait_ready()?;
    let recovery = restart.elapsed();
    let after = get(&mut Conn::new(&recovered.addr), "/v1/rules", &mut out.ops)?.body;
    if after != before {
        out.faults.push(
            "rules after recovery are not byte-identical to those before the kill".into(),
        );
    }

    out.e2e.insert("p50_ms", p50);
    out.e2e.insert("tail_ms", tail);
    out.e2e.insert("secondary_ms", ms(recovery));
    out.e2e.insert("server_rss_mb", rss);
    out.detail("recovery_s", recovery.as_secs_f64(), "s", 1);
    out.detail("server_rss_mb", rss, "MB", 1);
    out.detail("wrong_rules", wrong as f64, "rules", 1);
    out.detail(
        "failed_ops_frac",
        failed_frac(&out.ops),
        "ratio",
        out.ops.attempted as usize,
    );
    out.layer.insert("oracle.wrong_rules", wrong as f64);

    if ctx.trace {
        progress("traced replay");
        let mut rec = Recorder::new();
        let wal_dir = fresh_dir(ctx.dir.join("ingest-replay"))?;
        // Each replayed unit follows a post of the same unit to the
        // recovered daemon, so the residual compares client and layer
        // times taken milliseconds apart; the host's speed drifts between
        // the timed loop and a replay run after it.
        let mut conn = Conn::new(&recovered.addr);
        let mut paired = Vec::new();
        let ops = &mut out.ops;
        let counts = replay::write_path(
            &mut rec,
            config,
            &Sink::Node,
            Some(&wal_dir),
            &pool,
            WARMUP_UNITS..WARMUP_UNITS + TRACED_UNITS,
            |i| {
                let sent = Instant::now();
                let r = conn.request(
                    "POST",
                    "/v1/units?wait=true",
                    &pool.bodies[pool.index(i)],
                );
                ops.record(&r);
                if r.is_ok() {
                    paired.push((pool.index(i), ms(sent.elapsed())));
                }
            },
        )?;
        let client = Client {
            ingest_by_unit: paired,
            ingest_p50: p50,
            units_per_s,
            ingest_tail: tail,
            recovery_s: recovery.as_secs_f64(),
            ..Client::default()
        };
        layers(&mut out, &rec, &counts, &client, &pool);
        out.spans.push(("main", rec));
    }
    recovered.stop();
    Ok(out)
}

/// `query`: memory-only `car serve` at the daemon defaults; a writer
/// every 500 ms with a read-back, and an open-loop reader mix.
pub fn query(ctx: &Ctx) -> Result<Outcome, String> {
    progress("generating units");
    let pool = Pool::generate();
    let config = mining(Support::Fraction(DEFAULT_SUPPORT));
    let mut out = Outcome::default();
    let args: Vec<String> =
        ["serve", "--port", "0"].iter().map(|s| s.to_string()).collect();
    let (daemon, fill_seqs) =
        setup(ctx, "query", |_| Ok(args.clone()), 0, &pool, &mut out)?;

    let (writer, reader) = schedules(ctx.seed, ctx.seconds, WINDOW);
    let m = mix(&daemon.addr, &pool, &writer, &reader);
    out.ops.merge(&m.ops);
    let rss = daemon.peak_rss_mb();
    progress("checking answers");
    let served = get(&mut Conn::new(&daemon.addr), "/v1/rules", &mut out.ops)?.body;
    let hit_ratio = cache_hit_ratio(std::slice::from_ref(&daemon.addr), &mut out.ops)?;
    daemon.stop();

    check_seqs(&[fill_seqs, m.seqs.clone()].concat(), &mut out);
    if m.writes_acked != writes(ctx.seconds) {
        out.faults
            .push("some ingest requests failed; the applied window is unknown".into());
    }
    let applied = WINDOW + m.writes_acked;
    let window: Vec<Vec<ItemSet>> =
        (applied - WINDOW..applied).map(|i| pool.units[pool.index(i)].clone()).collect();
    let wrong = wrong_rules(&served, &window, config)?;
    if wrong != 0 {
        out.faults.push(format!("served rules differ from the batch oracle by {wrong}"));
    }
    let (p50, tail) = out.latency("rules", &m.rules_ms, 99.0);
    let client = mix_details(&mut out, &m, hit_ratio, ctx.probe);
    out.e2e.insert("p50_ms", p50);
    out.e2e.insert("tail_ms", tail);
    out.e2e.insert("secondary_ms", client.fresh_p50);
    out.e2e.insert("server_rss_mb", rss);
    out.detail("server_rss_mb", rss, "MB", 1);
    out.detail("wrong_rules", wrong as f64, "rules", 1);
    out.detail(
        "failed_ops_frac",
        failed_frac(&out.ops),
        "ratio",
        out.ops.attempted as usize,
    );
    out.layer.insert("oracle.wrong_rules", wrong as f64);

    if ctx.trace {
        progress("traced replay");
        let mut rec = Recorder::new();
        // A probe keeps only read-path layers; the write path is `ingest`'s.
        let counts = if ctx.probe {
            PipelineCounts::default()
        } else {
            replay::write_path(
                &mut rec,
                config,
                &Sink::Node,
                None,
                &pool,
                WARMUP_UNITS..WARMUP_UNITS + TRACED_UNITS,
                |_| {},
            )?
        };
        let body = replay::read_path(
            &mut rec,
            config,
            1,
            &window,
            &escalations(&writer),
            READ_REPS,
        )?;
        out.layer.insert("routes.rules_body_kb", body as f64 / 1024.0);
        layers(
            &mut out,
            &rec,
            &counts,
            &Client { rules_p50: p50, rules_tail: tail, ..client },
            &pool,
        );
        out.spans.push(("main", rec));
    }
    Ok(out)
}

fn escalations(schedule: &[(Duration, Op)]) -> Vec<f64> {
    schedule
        .iter()
        .filter_map(|(_, op)| if let Op::Escalated(q) = op { Some(*q) } else { None })
        .collect()
}

fn mix_details(out: &mut Outcome, m: &MixOut, hit_ratio: f64, probe: bool) -> Client {
    let ingest_p50 = median(&m.ingest_ms);
    let fresh_p50 = median(&m.fresh_ms);
    let escalated_p50 = median(&m.escalated_ms);
    let items_p50 = median(&m.items_ms);
    let late_p99 = percentile(&m.late_ms, 99.0);
    out.detail("ingest_p50_ms", ingest_p50, "ms", m.ingest_ms.len());
    out.detail("fresh_rules_p50_ms", fresh_p50, "ms", m.fresh_ms.len());
    out.detail("escalated_p50_ms", escalated_p50, "ms", m.escalated_ms.len());
    out.detail("items_p50_ms", items_p50, "ms", m.items_ms.len());
    out.detail("loadgen_late_p99_ms", late_p99, "ms", m.late_ms.len());
    if !probe && (late_p99.is_nan() || late_p99 > LATE_BOUND_MS) {
        out.faults.push(format!("the open-loop generator ran {late_p99:.2} ms late at p99 (bound {LATE_BOUND_MS} ms): run invalid"));
    }
    Client {
        ingest_by_unit: m
            .ingest_units
            .iter()
            .copied()
            .zip(m.ingest_ms.iter().copied())
            .collect(),
        ingest_p50,
        fresh_p50,
        escalated_p50,
        items_p50,
        late_p99,
        hit_ratio,
        ..Client::default()
    }
}

/// `cluster`: `car shard --shards 3 --min-support-count 50`, a
/// closed-loop backfill, then the `query` mix through the router.
pub fn cluster(ctx: &Ctx) -> Result<Outcome, String> {
    progress("generating units");
    let pool = Pool::generate();
    let config = mining(Support::Count(CLUSTER_SUPPORT_COUNT));
    let mut out = Outcome::default();
    let args: Vec<String> =
        ["shard", "--port", "0", "--shards", "3", "--min-support-count", "50"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let (daemon, _) =
        setup(ctx, "cluster", |_| Ok(args.clone()), SHARDS as usize, &pool, &mut out)?;

    let backfill = closed_loop(
        &daemon.addr,
        &pool,
        (WINDOW..WINDOW + BACKFILL_UNITS).map(|i| pool.index(i)),
        None,
        &mut out.ops,
    );
    let backfill_p50 = median(&backfill.latency_ms);
    let units_per_s = backfill.applied.len() as f64 / backfill.elapsed;
    out.detail("backfill_ingest_p50_ms", backfill_p50, "ms", backfill.latency_ms.len());
    out.detail("ingest_units_per_s", units_per_s, "units/s", backfill.applied.len());
    let first_write = WINDOW + BACKFILL_UNITS;
    let (writer, reader) = schedules(ctx.seed, ctx.seconds, first_write);
    let m = mix(&daemon.addr, &pool, &writer, &reader);
    out.ops.merge(&m.ops);
    let rss = daemon.peak_rss_mb();

    progress("checking answers");
    // The router's answer must be the merge of its workers' own answers.
    let routed = get(&mut Conn::new(&daemon.addr), "/v1/rules", &mut out.ops)?.body;
    let mut worker_rules = Vec::new();
    let mut worker_items = Vec::new();
    for addr in &daemon.workers {
        let mut c = Conn::new(addr);
        worker_rules.push(get(&mut c, "/v1/rules", &mut out.ops)?.body);
        worker_items.push(get(&mut c, "/v1/items", &mut out.ops)?.body);
    }
    let views = worker_rules
        .iter()
        .map(|b| {
            car_shard::parse_rules_body(&String::from_utf8_lossy(b)).map(|v| v.rules)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = car_shard::merge_rule_views(views);
    let merge_diff =
        symmetric_difference(&served_rules(&routed)?, &oracle_rules(&merged));
    if merge_diff != 0 {
        out.faults.push(format!(
            "router rules differ from the merge of its workers' rules by {merge_diff}"
        ));
    }
    if backfill.failures > 0 || m.writes_acked != writes(ctx.seconds) {
        out.faults
            .push("some ingest requests failed; the applied window is unknown".into());
    }
    let applied = first_write + m.writes_acked;
    let window: Vec<Vec<ItemSet>> =
        (applied - WINDOW..applied).map(|i| pool.units[pool.index(i)].clone()).collect();
    // Reported, not gated: plain QUEST transactions are not partition
    // pure, so the cluster undercounts itemsets that span shards.
    let wrong = wrong_rules(&routed, &window, config)?;
    out.deterministic.insert("oracle.wrong_rules", wrong as f64);
    out.layer.insert("oracle.wrong_rules", wrong as f64);

    let (p50, tail) = out.latency("rules", &m.rules_ms, 99.0);
    let mut client = mix_details(&mut out, &m, 0.0, ctx.probe);
    client.hit_ratio = cache_hit_ratio(&daemon.workers, &mut out.ops)?;
    // The routed plain read is a few milliseconds of thread hand-offs
    // across router and workers; on identical inputs its median swung
    // between 1.9 and 4.4 ms from run to run, so the headline median is
    // the backfill ingest (the cost a cluster exactness fix trades
    // against) and the read p50 stays in the summary and per-layer view.
    out.e2e.insert("p50_ms", backfill_p50);
    out.e2e.insert("tail_ms", tail);
    out.e2e.insert("secondary_ms", client.fresh_p50);
    out.e2e.insert("server_rss_mb", rss);
    out.detail("server_rss_mb", rss, "MB", 1);
    out.detail("wrong_rules", wrong as f64, "rules", 1);
    out.detail(
        "failed_ops_frac",
        failed_frac(&out.ops),
        "ratio",
        out.ops.attempted as usize,
    );

    if ctx.trace {
        progress("traced replay");
        let mut rec = Recorder::new();
        let counts = replay::write_path(
            &mut rec,
            config,
            &Sink::Cluster(SHARDS),
            None,
            &pool,
            WARMUP_UNITS..WARMUP_UNITS + TRACED_UNITS,
            |_| {},
        )?;
        let body = replay::read_path(
            &mut rec,
            config,
            SHARDS,
            &window,
            &escalations(&writer),
            READ_REPS,
        )?;
        out.layer.insert("routes.rules_body_kb", body as f64 / 1024.0);
        merge_and_router(&mut rec, &daemon, &worker_rules, &worker_items, &mut out)?;
        client.ingest_by_unit = backfill
            .applied
            .iter()
            .copied()
            .zip(backfill.latency_ms.iter().copied())
            .collect();
        client.ingest_p50 = backfill_p50;
        client.units_per_s = units_per_s;
        client.rules_p50 = p50;
        client.rules_tail = tail;
        layers(&mut out, &rec, &counts, &client, &pool);
        out.spans.push(("main", rec));
    }
    daemon.stop();
    Ok(out)
}

/// Times the router's merge step on the workers' real bodies, and the
/// router's overhead over the slowest direct worker answer.
fn merge_and_router(
    rec: &mut Recorder,
    daemon: &Daemon,
    rules: &[Vec<u8>],
    items: &[Vec<u8>],
    out: &mut Outcome,
) -> Result<(), String> {
    for rep in 0..READ_REPS {
        rec.time("merge.rules", rep, None, || -> Result<Vec<u8>, String> {
            let views = rules
                .iter()
                .map(|b| car_shard::parse_rules_body(&String::from_utf8_lossy(b)))
                .collect::<Result<Vec<_>, _>>()?;
            let retained =
                views.iter().map(|v| v.units_retained).max().unwrap_or(0) as usize;
            let window = views.iter().map(|v| v.window).max().unwrap_or(0) as usize;
            let merged = car_shard::merge_rule_views(views.into_iter().map(|v| v.rules));
            Ok(replay::render_rules(&merged, retained, window))
        })?;
        rec.time("merge.items", rep, None, || -> Result<Vec<(u32, u64)>, String> {
            let views = items
                .iter()
                .map(|b| {
                    car_shard::merge::parse_items_body(&String::from_utf8_lossy(b))
                        .map(|v| v.items)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(car_shard::merge::merge_item_supports(views))
        })?;
    }
    let mut router = Conn::new(&daemon.addr);
    let mut workers: Vec<Conn> = daemon.workers.iter().map(|a| Conn::new(a)).collect();
    let mut overhead = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        get(&mut router, "/v1/rules", &mut out.ops)?;
        let routed = t.elapsed();
        let mut slowest = Duration::ZERO;
        for w in &mut workers {
            let t = Instant::now();
            get(w, "/v1/rules", &mut out.ops)?;
            slowest = slowest.max(t.elapsed());
        }
        overhead.push(ms(routed) - ms(slowest));
    }
    out.layer.insert("router.overhead_ms", median(&overhead));
    Ok(())
}

/// Loads the `car mine` text database, the set-up of one `batch` call,
/// and records how long the load took.
fn load_database(text: &str, loads: &mut Vec<f64>) -> Result<SegmentedDb, String> {
    let start = Instant::now();
    let db = car_itemset::io::read_timed(text.as_bytes()).map_err(|e| e.to_string())?;
    loads.push(start.elapsed().as_secs_f64());
    if db.num_units() != WINDOW {
        return Err(format!("loaded {} units, expected {WINDOW}", db.num_units()));
    }
    Ok(db)
}

/// `batch`: SEQUENTIAL [`SEQUENTIAL_CALLS`] times and INTERLEAVED
/// repeatedly over the paper's base database (64 units, min-support
/// 0.015, cycles 2..16). Each `mine` call first loads the database from
/// the `car mine` text format; `setup_s` is the median load, so, like the
/// mining times, it samples the whole run rather than its first second.
pub fn batch(ctx: &Ctx) -> Result<Outcome, String> {
    let units = base_units();
    let text = text_database(&units);
    let config = mining(Support::Fraction(BASE_SUPPORT));
    let mut out = Outcome::default();
    reset_own_peak_rss();
    let mut loads = Vec::new();

    let start = Instant::now();
    let mut run = |algorithm| -> Result<(car_core::MiningOutcome, f64), String> {
        let db = load_database(&text, &mut loads)?;
        let t = Instant::now();
        let o = CyclicRuleMiner::new(config, algorithm)
            .mine(&db)
            .map_err(|e| e.to_string())?;
        Ok((o, t.elapsed().as_secs_f64()))
    };
    // SEQUENTIAL runs at the start and after each equal part of the run,
    // so its median, like INTERLEAVED's, samples the whole run.
    let (sequential, first_s) = run(Algorithm::Sequential)?;
    out.ops.record::<()>(&Ok(()));
    let expected = oracle_rules(&sequential.rules);
    let mut sequential_s = vec![first_s];
    let mut interleaved_s = Vec::new();
    let mut interleaved = Vec::new();
    while interleaved_s.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let part = start.elapsed().as_secs_f64() * SEQUENTIAL_CALLS as f64 / ctx.seconds;
        let due =
            sequential_s.len() < SEQUENTIAL_CALLS && part >= sequential_s.len() as f64;
        let (o, s) = if due {
            let (o, s) = run(Algorithm::Sequential)?;
            sequential_s.push(s);
            (o, None)
        } else {
            let (o, s) = run(Algorithm::interleaved())?;
            (o, Some(s))
        };
        out.ops.record::<()>(&Ok(()));
        let wrong = symmetric_difference(&oracle_rules(&o.rules), &expected);
        if wrong != 0 {
            out.faults
                .push(format!("INTERLEAVED and SEQUENTIAL rules differ by {wrong}"));
        }
        out.layer.insert("oracle.wrong_rules", wrong as f64);
        if let Some(s) = s {
            interleaved_s.push(s);
            interleaved.push(o.stats);
        }
    }
    let sequential_calls = sequential_s.len();
    let sequential_s = median(&sequential_s);
    let setup_s = median(&loads);
    out.e2e.insert("setup_s", setup_s);
    out.detail("setup_s", setup_s, "s", loads.len());
    let rss = own_peak_rss_mb();
    let calls_ms: Vec<f64> = interleaved_s.iter().map(|s| s * 1e3).collect();
    let (p50, tail) = out.latency("batch_interleaved", &calls_ms, 75.0);
    out.detail("batch_sequential_s", sequential_s, "s", sequential_calls);
    out.detail("server_rss_mb", rss, "MB", 1);
    out.e2e.insert("p50_ms", p50);
    out.e2e.insert("tail_ms", tail);
    out.e2e.insert("secondary_ms", sequential_s * 1e3);
    out.e2e.insert("server_rss_mb", rss);

    if ctx.trace {
        progress("traced replay");
        let mut rec = Recorder::new();
        let pool = Pool::generate();
        let counts = replay::write_path(
            &mut rec,
            config,
            &Sink::Batch,
            None,
            &pool,
            0..WINDOW,
            |_| {},
        )?;
        // Phase timings from the median INTERLEAVED call; counts repeat.
        let mut by_time: Vec<(f64, &MiningStats)> =
            interleaved_s.iter().copied().zip(&interleaved).collect();
        by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
        let inter = by_time[by_time.len() / 2].1;
        let seq = &sequential.stats;
        for (name, v) in [
            ("interleaved.phase1_ms", ms(inter.phase1)),
            ("interleaved.phase2_ms", ms(inter.phase2)),
            ("sequential.phase1_ms", ms(seq.phase1)),
            ("sequential.phase2_ms", ms(seq.phase2)),
        ] {
            out.layer.insert(name, v);
        }
        for (name, v) in [
            ("interleaved.support_computations", inter.support_computations),
            ("interleaved.skipped_counts", inter.skipped_counts),
            ("interleaved.skipped_unit_scans", inter.skipped_unit_scans),
            ("interleaved.bitmap_builds", inter.bitmap_builds),
            (
                "interleaved.candidates_pruned_by_cycles",
                inter.candidates_pruned_by_cycles,
            ),
            ("interleaved.cycles_eliminated", inter.cycles_eliminated),
            ("interleaved.rules_checked", inter.rules_checked),
            ("sequential.support_computations", seq.support_computations),
        ] {
            out.layer.insert(name, v as f64);
            out.deterministic.insert(name, v as f64);
        }
        layers(&mut out, &rec, &counts, &Client::default(), &pool);
        out.spans.push(("main", rec));
        probe_serving_layers(ctx, &mut out)?;
    }
    Ok(out)
}

/// Seconds each serving probe of the traced `batch` run lasts.
const PROBE_SECONDS: f64 = 10.0;

/// Layers measured by the `query` probe of the traced `batch` run.
const QUERY_PROBE_LAYERS: [&str; 13] = [
    "routes.rules_render_ms",
    "routes.rules_body_kb",
    "window.assemble_ms",
    "window.detect_ms",
    "window.item_supports_ms",
    "cache.hit_ratio",
    "unattributed.fresh_rules_ms",
    "loadgen.late_p99_ms",
    "loadgen.rules_p50_ms",
    "loadgen.rules_p99_ms",
    "loadgen.fresh_rules_p50_ms",
    "loadgen.escalated_p50_ms",
    "loadgen.items_p50_ms",
];

/// Layers measured by the `cluster` probe of the traced `batch` run.
const CLUSTER_PROBE_LAYERS: [&str; 7] = [
    "ring.split_ms",
    "ring.skew",
    "ring.impure_tx_frac",
    "merge.rules_ms",
    "merge.items_ms",
    "router.overhead_ms",
    "oracle.wrong_rules",
];

/// The read path, the cache, the ring, the merge and the router run only
/// under the `query` and `cluster` traffic, whose open-loop tails swing
/// too much between identical runs on a shared host to hold a bound. The
/// traced `batch` run therefore runs both for [`PROBE_SECONDS`] and
/// reports their layer metrics; their correctness gates still apply.
fn probe_serving_layers(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    type Workload = fn(&Ctx) -> Result<Outcome, String>;
    let probes: [(&str, Workload, &[&'static str]); 2] = [
        ("query", query, &QUERY_PROBE_LAYERS),
        ("cluster", cluster, &CLUSTER_PROBE_LAYERS),
    ];
    for (name, run, layers) in probes {
        progress(&format!("{name} probe"));
        let probe_ctx = Ctx {
            car: ctx.car.clone(),
            dir: ctx.dir.join(name),
            seed: ctx.seed,
            seconds: PROBE_SECONDS,
            trace: true,
            probe: true,
        };
        let probe = run(&probe_ctx)?;
        for &layer in layers {
            let value = probe.layer.get(layer).copied().unwrap_or(0.0);
            out.layer.insert(layer, value);
            if let Some(&v) = probe.deterministic.get(layer) {
                out.deterministic.insert(layer, v);
            }
        }
        out.faults.extend(probe.faults.into_iter().map(|f| format!("{name} probe: {f}")));
        out.ops.merge(&probe.ops);
        out.spans.extend(probe.spans.into_iter().map(|(_, rec)| (name, rec)));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

/// Client-side numbers the residuals are taken against.
#[derive(Default)]
struct Client {
    /// `(stream unit, latency)` of every acked ingest request.
    ingest_by_unit: Vec<(usize, f64)>,
    ingest_p50: f64,
    ingest_tail: f64,
    units_per_s: f64,
    recovery_s: f64,
    rules_p50: f64,
    rules_tail: f64,
    fresh_p50: f64,
    escalated_p50: f64,
    items_p50: f64,
    late_p99: f64,
    hit_ratio: f64,
}

fn or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The median, over units, of the part of a unit's client ingest latency
/// its layer spans do not explain: per unit, the median client latency
/// minus the median summed span time of the replayed ops that carried
/// the same unit (HTTP parse, body parse, WAL, ring split and the
/// slowest shard's `push_unit`). Matching units matters: per-unit cost
/// is strongly bimodal, so a difference of overall medians would mostly
/// measure where each median falls between the modes.
fn ingest_residual(rec: &Recorder, from: u64, client: &Client, pool: &Pool) -> f64 {
    let mut layer_ms: BTreeMap<u64, f64> = rec.per_op("window.push_unit", from, true);
    for name in ["http.read_request", "routes.unit_parse", "wal.append", "ring.split"] {
        for (op, v) in rec.per_op(name, from, false) {
            *layer_ms.entry(op).or_default() += v;
        }
    }
    let mut replayed: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (op, v) in layer_ms {
        replayed.entry(pool.index(op as usize)).or_default().push(v);
    }
    let mut served: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(unit, v) in &client.ingest_by_unit {
        served.entry(unit).or_default().push(v);
    }
    let residuals: Vec<f64> = served
        .iter()
        .filter_map(|(unit, v)| Some(median(v) - median(replayed.get(unit)?)))
        .collect();
    or_zero(median(&residuals))
}

/// Fills the per-layer metrics from the traced replay and the client's
/// view; a layer the workload leaves idle reads 0.
fn layers(
    out: &mut Outcome,
    rec: &Recorder,
    c: &PipelineCounts,
    client: &Client,
    pool: &Pool,
) {
    let from = c.from;
    let med = |name: &str, from: u64| or_zero(median(&rec.per_op_ms(name, from, false)));
    let units = c.units.max(1) as f64;
    let per_unit = |v: u64| v as f64 / units;
    let pushes = rec.per_op_ms("window.push_unit", from, false);
    let http = med("http.read_request", from);
    let parse = med("routes.unit_parse", from);
    let wal = med("wal.append", from);
    let split = med("ring.split", from);
    let unattributed = ingest_residual(rec, from, client, pool);
    let assemble = or_zero(median(&rec.per_op_ms("window.assemble", 0, true)));
    let render = or_zero(median(&rec.per_op_ms("routes.rules_render", 0, true)));
    let merge_rules = med("merge.rules", 0);
    let cluster = c.shard_tx.len() > 1;
    let mean_tx = c.shard_tx.iter().sum::<u64>() as f64 / c.shard_tx.len().max(1) as f64;

    let mut set = |name: &'static str, v: f64| {
        out.layer.insert(name, or_zero(v));
    };
    set("http.read_request_ms", http);
    set("routes.unit_parse_ms", parse);
    set("routes.unit_body_kb", c.body_bytes as f64 / units / 1024.0);
    set("routes.rules_render_ms", render);
    set("wal.append_ms", wal);
    set("wal.bytes_per_unit", per_unit(c.wal_bytes));
    set("wal.bytes_per_body_byte", c.wal_bytes as f64 / c.body_bytes.max(1) as f64);
    set("snapshot.write_ms", med("snapshot.write", 0));
    set("replay.recover_ms", med("replay.recover", 0));
    set("apriori.mine_ms", med("apriori.mine", from));
    set("apriori.candidate_gen_ms", med("apriori.candidate_gen", from));
    set("apriori.support_count_ms", med("apriori.support_count", from));
    set("rules.gen_ms", med("rules.gen", from));
    set("apriori.candidates_per_unit", per_unit(c.candidates));
    set("apriori.levels_per_unit", per_unit(c.levels));
    set("apriori.bitmap_builds_per_unit", per_unit(c.bitmap_builds));
    set("rules.held_per_unit", per_unit(c.rules_held));
    set("window.push_unit_p50_ms", median(&pushes));
    set("window.push_unit_p95_ms", percentile(&pushes, 95.0));
    set("window.fold_ms", median(&rec.per_op_self_ms("window.push_unit", from)));
    set("window.tracked_rules", c.tracked_rules as f64);
    set("window.hold_entries", c.hold_entries as f64);
    set("window.assemble_ms", assemble);
    set("window.detect_ms", or_zero(median(&rec.per_op_ms("window.detect", 0, true))));
    set(
        "window.item_supports_ms",
        or_zero(median(&rec.per_op_ms("window.item_supports", 0, true))),
    );
    set("cache.hit_ratio", client.hit_ratio);
    set("ring.split_ms", split);
    set(
        "ring.skew",
        if cluster {
            c.shard_tx.iter().copied().max().unwrap_or(0) as f64 / mean_tx.max(1.0)
        } else {
            0.0
        },
    );
    set(
        "ring.impure_tx_frac",
        if cluster { c.impure_tx as f64 / c.tx.max(1) as f64 } else { 0.0 },
    );
    set("merge.rules_ms", merge_rules);
    set("merge.items_ms", med("merge.items", 0));
    set("unattributed.ingest_ms", unattributed);
    set(
        "unattributed.fresh_rules_ms",
        if client.fresh_p50 > 0.0 {
            client.fresh_p50 - assemble - render - merge_rules
        } else {
            0.0
        },
    );
    set("loadgen.late_p99_ms", client.late_p99);
    set("loadgen.ingest_p50_ms", client.ingest_p50);
    set("loadgen.ingest_p95_ms", client.ingest_tail);
    set("loadgen.ingest_units_per_s", client.units_per_s);
    set("loadgen.recovery_s", client.recovery_s);
    set("loadgen.rules_p50_ms", client.rules_p50);
    set("loadgen.rules_p99_ms", client.rules_tail);
    set("loadgen.fresh_rules_p50_ms", client.fresh_p50);
    set("loadgen.escalated_p50_ms", client.escalated_p50);
    set("loadgen.items_p50_ms", client.items_p50);
    if !client.ingest_by_unit.is_empty() {
        let matched: Vec<f64> = client.ingest_by_unit.iter().map(|&(_, v)| v).collect();
        let explained = 1.0 - unattributed / median(&matched);
        out.detail("layers_explain_ingest_frac", explained, "ratio", matched.len());
    }
    for name in [
        "apriori.candidates_per_unit",
        "apriori.levels_per_unit",
        "apriori.bitmap_builds_per_unit",
        "rules.held_per_unit",
        "window.tracked_rules",
        "window.hold_entries",
        "wal.bytes_per_unit",
        "wal.bytes_per_body_byte",
        "ring.impure_tx_frac",
    ] {
        let v = out.layer[name];
        out.deterministic.insert(name, v);
    }
}
