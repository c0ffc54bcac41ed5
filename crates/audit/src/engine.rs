//! The audit engine: scope configuration, file walking, parallel lint
//! dispatch, and `audit:allow` suppression.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::findings::{lints, Finding};
use crate::lexer::{lex, strip_test_code, Allow, Lexed};
use crate::{arith, atomics, discard, index, locks, panic_free, taint};

/// Which files each lint family applies to. Entries are root-relative
/// paths; a directory means "every `.rs` file underneath it".
/// Missing entries are skipped silently so the config stays valid as
/// files move.
#[derive(Clone, Debug, Default)]
pub struct AuditConfig {
    /// A1 panic-freedom scope (hot-path files).
    pub a1: Vec<String>,
    /// A2 lock-order scope (everything that touches shared state).
    pub a2: Vec<String>,
    /// A3 checked-arithmetic scope (counting kernels).
    pub a3: Vec<String>,
    /// A4 discarded-Result scope (the daemon's I/O paths).
    pub a4: Vec<String>,
    /// A5 taint-to-sink scope (network-facing request/fan-out paths).
    pub a5: Vec<String>,
    /// A6 atomics-discipline scope (lock-free gauges and flags).
    pub a6: Vec<String>,
}

/// The project's lint scopes, mirroring ISSUE/DESIGN docs: panic
/// freedom on the request-handling and mining hot paths, lock analysis
/// across the daemon and miner state, arithmetic checks on the counting
/// kernels, and Result-discard checks on the whole daemon.
pub fn default_config() -> AuditConfig {
    let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
    AuditConfig {
        a1: s(&[
            "crates/serve/src/routes.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/http.rs",
            "crates/serve/src/json.rs",
            "crates/serve/src/state.rs",
            "crates/serve/src/persist",
            "crates/serve/src/cache.rs",
            "crates/core/src/window.rs",
            "crates/core/src/interleaved.rs",
            "crates/core/src/sequential.rs",
            "crates/core/src/parallel.rs",
            "crates/apriori/src/bitmap.rs",
            "crates/apriori/src/eclat.rs",
            "crates/cycles/src/cycleset.rs",
            "crates/cycles/src/detect.rs",
            "crates/itemset/src/refstore.rs",
            "crates/obs/src",
            "crates/shard/src",
            "crates/chaos/src",
            "crates/cli/src/commands/trace.rs",
        ]),
        a2: s(&["crates/serve/src", "crates/core/src"]),
        a3: s(&[
            "crates/apriori/src/count.rs",
            "crates/apriori/src/hash_tree.rs",
            "crates/apriori/src/apriori.rs",
            "crates/apriori/src/bitmap.rs",
            "crates/apriori/src/eclat.rs",
            "crates/itemset/src/refstore.rs",
            "crates/obs/src",
        ]),
        a4: s(&[
            "crates/serve/src",
            "crates/shard/src",
            "crates/chaos/src",
            "crates/cli/src/commands/trace.rs",
        ]),
        a5: s(&["crates/serve/src", "crates/shard/src"]),
        a6: s(&["crates/shard/src", "crates/serve/src", "crates/obs/src"]),
    }
}

/// Engine tuning knobs, separate from the lint scopes.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Worker threads for per-file passes; `0` means auto-detect,
    /// `1` runs fully serial (used to verify deterministic order).
    pub threads: usize,
    /// Suppress `a0-stale-allow` reporting (transition escape hatch).
    pub allow_stale_allows: bool,
}

/// The result of an audit run: findings plus engine timing.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Sorted, allow-filtered findings.
    pub findings: Vec<Finding>,
    /// End-to-end wall clock of the run in milliseconds.
    pub wall_clock_ms: u64,
}

/// A lexed file, cached so overlapping scopes lex once.
struct FileUnit {
    rel: String,
    lexed: Lexed,
}

/// Runs every lint pass over `root` with default options and returns
/// findings sorted by (file, line, lint), with `audit:allow`
/// suppression applied.
pub fn run_audit(root: &Path, config: &AuditConfig) -> io::Result<Vec<Finding>> {
    run_audit_with(root, config, &RunOptions::default()).map(|r| r.findings)
}

/// Runs the audit with explicit [`RunOptions`], returning findings and
/// timing. The run is phased: serial scope resolution and whole-scope
/// collection (lock fields, call summaries, the A5 symbol index and
/// two-pass taint summaries, the A6 atomic write classification), then
/// the per-file passes fan out across worker threads, and the per-file
/// results merge back in scope order — so the finding order is
/// byte-identical whatever the thread count.
pub fn run_audit_with(
    root: &Path,
    config: &AuditConfig,
    opts: &RunOptions,
) -> io::Result<AuditReport> {
    let started = Instant::now();
    let mut cache: BTreeMap<String, FileUnit> = BTreeMap::new();
    let a1 = resolve_scope(root, &config.a1, &mut cache)?;
    let a2 = resolve_scope(root, &config.a2, &mut cache)?;
    let a3 = resolve_scope(root, &config.a3, &mut cache)?;
    let a4 = resolve_scope(root, &config.a4, &mut cache)?;
    let a5 = resolve_scope(root, &config.a5, &mut cache)?;
    let a6 = resolve_scope(root, &config.a6, &mut cache)?;

    let mut findings = Vec::new();

    // ---- Whole-scope collection (serial, order-defining) ----

    // A2: lock fields and per-function acquisition summaries.
    let mut lock_names = BTreeSet::new();
    for rel in &a2 {
        locks::collect_lock_fields(&cache[rel].lexed.tokens, &mut lock_names);
    }
    let mut lock_summaries = BTreeMap::new();
    for rel in &a2 {
        locks::function_summaries(
            &cache[rel].lexed.tokens,
            &lock_names,
            &mut lock_summaries,
        );
    }

    // A5: symbol index per file, then two summary passes so one level
    // of call propagation is available to the checker.
    let mut fn_index: BTreeMap<&str, index::FileIndex> = BTreeMap::new();
    for rel in &a5 {
        fn_index.insert(rel.as_str(), index::index_file(&cache[rel].lexed.tokens));
    }
    let mut taint_s1 = taint::Summaries::new();
    for rel in &a5 {
        taint::summarize(
            &cache[rel].lexed.tokens,
            &fn_index[rel.as_str()],
            &taint::Summaries::new(),
            &mut taint_s1,
        );
    }
    let mut taint_summaries = taint::Summaries::new();
    for rel in &a5 {
        taint::summarize(
            &cache[rel].lexed.tokens,
            &fn_index[rel.as_str()],
            &taint_s1,
            &mut taint_summaries,
        );
    }

    // A6: atomic names, the locks guarding them, the whole-scope write
    // classification (which atomics mirror lock-guarded state), and the
    // closures and functions that load a parameter `Relaxed`.
    let mut atomic_names = BTreeSet::new();
    let mut a6_locks = BTreeSet::new();
    for rel in &a6 {
        atomics::collect_atomics(&cache[rel].lexed.tokens, &mut atomic_names);
        locks::collect_lock_fields(&cache[rel].lexed.tokens, &mut a6_locks);
    }
    let mut usage = atomics::AtomicUsage::default();
    let mut relaxed_helpers = atomics::RelaxedHelpers::new();
    for rel in &a6 {
        atomics::collect_usage(
            &cache[rel].lexed.tokens,
            &atomic_names,
            &a6_locks,
            &mut usage,
        );
        atomics::collect_relaxed_helpers(&cache[rel].lexed.tokens, &mut relaxed_helpers);
    }

    // ---- Per-file passes (parallel, merged in scope order) ----

    let in_scope = |scope: &[String], rel: &str| scope.iter().any(|s| s == rel);
    let mut files: Vec<&str> = Vec::new();
    for rel in a1.iter().chain(&a3).chain(&a4).chain(&a5).chain(&a6) {
        if !files.contains(&rel.as_str()) {
            files.push(rel.as_str());
        }
    }

    let per_file = |rel: &str| -> Vec<Finding> {
        let unit = &cache[rel];
        let mut out = Vec::new();
        if in_scope(&a1, rel) {
            panic_free::check(rel, &unit.lexed.tokens, &mut out);
        }
        if in_scope(&a3, rel) {
            arith::check(rel, &unit.lexed.tokens, &mut out);
        }
        if in_scope(&a4, rel) {
            discard::check(rel, &unit.lexed.tokens, &mut out);
        }
        if in_scope(&a5, rel) {
            taint::check(
                rel,
                &unit.lexed.tokens,
                &fn_index[rel],
                &taint_summaries,
                &mut out,
            );
        }
        if in_scope(&a6, rel) {
            atomics::check(
                rel,
                &unit.lexed.tokens,
                &atomic_names,
                &a6_locks,
                &usage,
                &relaxed_helpers,
                &mut out,
            );
        }
        out
    };

    let threads = match opts.threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
        n => n,
    };
    for mut batch in par_map(&files, threads, per_file) {
        findings.append(&mut batch);
    }

    // A2 stays serial: its edges feed one global cycle detection.
    let mut edges = Vec::new();
    for rel in &a2 {
        locks::check(
            rel,
            &cache[rel].lexed.tokens,
            &lock_names,
            &lock_summaries,
            &mut edges,
            &mut findings,
        );
    }
    if std::env::var_os("CAR_AUDIT_DEBUG_EDGES").is_some() {
        for e in &edges {
            eprintln!("edge {} -> {} at {}:{}", e.from, e.to, e.file, e.line);
        }
    }
    findings.extend(locks::detect_cycles(&edges));

    let mut findings = apply_allows(findings, &cache, !opts.allow_stale_allows);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    let wall_clock_ms = started.elapsed().as_millis() as u64;
    Ok(AuditReport { findings, wall_clock_ms })
}

/// Applies `f` to every item index-stripewise across `threads` scoped
/// worker threads, returning results in input order (same join-all
/// discipline as `car_core::parallel`: every handle is joined before a
/// stashed panic resumes, so no worker outlives the scope).
fn par_map<'x, T: Send>(
    items: &[&'x str],
    threads: usize,
    f: impl Fn(&'x str) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(|rel| f(rel)).collect();
    }
    let workers = threads.min(n);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = w;
                    while i < n {
                        out.push((i, f(items[i])));
                        i += workers;
                    }
                    out
                })
            })
            .collect();
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(batch) => {
                    for (i, v) in batch {
                        slots[i] = Some(v);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots.into_iter().map(|s| s.expect("par_map slot filled")).collect()
}

/// Expands scope entries to root-relative `.rs` file paths, lexing and
/// caching each file the first time it is seen.
fn resolve_scope(
    root: &Path,
    entries: &[String],
    cache: &mut BTreeMap<String, FileUnit>,
) -> io::Result<Vec<String>> {
    let mut rels = Vec::new();
    for entry in entries {
        let abs = root.join(entry);
        if abs.is_dir() {
            let mut files = Vec::new();
            walk_rs(&abs, &mut files)?;
            files.sort();
            for f in files {
                if let Some(rel) = relative(root, &f) {
                    rels.push(rel);
                }
            }
        } else if abs.is_file() {
            rels.push(entry.replace('\\', "/"));
        }
        // Missing paths are skipped: scopes describe intent, and the
        // acceptance gate (zero findings) is unaffected by absences.
    }
    for rel in &rels {
        if !cache.contains_key(rel) {
            let source = fs::read_to_string(root.join(rel))?;
            let mut lexed = lex(&source);
            lexed.tokens = strip_test_code(lexed.tokens);
            cache.insert(rel.clone(), FileUnit { rel: rel.clone(), lexed });
        }
    }
    rels.dedup();
    Ok(rels)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> Option<String> {
    path.strip_prefix(root).ok().map(|p| p.to_string_lossy().replace('\\', "/"))
}

/// Applies `audit:allow` directives: a directive suppresses matching
/// findings on its own line and on the next line, but only when it
/// carries a non-empty reason — a reasonless directive suppresses
/// nothing and is itself reported as `allow-no-reason`. When
/// `report_stale` is set, a *reasoned* directive that suppressed zero
/// findings is reported as `a0-stale-allow` so dead escape hatches
/// can't accumulate.
fn apply_allows(
    findings: Vec<Finding>,
    cache: &BTreeMap<String, FileUnit>,
    report_stale: bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut used: BTreeSet<(&str, u32)> = BTreeSet::new();
    for f in findings {
        let allows: &[Allow] =
            cache.get(&f.file).map(|u| u.lexed.allows.as_slice()).unwrap_or(&[]);
        let hit = allows.iter().find(|a| {
            !a.reason.is_empty()
                && (a.line == f.line || a.line + 1 == f.line)
                && a.lints.iter().any(|l| l == f.lint)
        });
        match hit {
            Some(a) => {
                let key = cache.get_key_value(&f.file).map(|(k, _)| k.as_str());
                if let Some(file) = key {
                    used.insert((file, a.line));
                }
            }
            None => out.push(f),
        }
    }
    for unit in cache.values() {
        for a in &unit.lexed.allows {
            if a.reason.is_empty() {
                // Reasonless directives become findings of their own.
                out.push(Finding {
                    file: unit.rel.clone(),
                    line: a.line,
                    lint: lints::ALLOW_NO_REASON,
                    snippet: format!("audit:allow({})", a.lints.join(", ")),
                    message: "audit:allow requires a non-empty reason=\"...\""
                        .to_string(),
                });
            } else if report_stale && !used.contains(&(unit.rel.as_str(), a.line)) {
                out.push(Finding {
                    file: unit.rel.clone(),
                    line: a.line,
                    lint: lints::A0_STALE_ALLOW,
                    snippet: format!("audit:allow({})", a.lints.join(", ")),
                    message: "reasoned audit:allow suppresses no findings; remove \
                              it or re-justify (transition: --allow-stale-allows)"
                        .to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end on a synthetic tree written to a temp dir.
    fn with_tree(files: &[(&str, &str)], f: impl FnOnce(&Path)) {
        let dir = std::env::temp_dir().join(format!(
            "car-audit-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        for (rel, content) in files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            fs::write(&path, content).expect("write");
        }
        f(&dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        with_tree(
            &[(
                "src/hot.rs",
                "fn f(x: Option<u32>) -> u32 {\n\
                 // audit:allow(a1-unwrap) reason=\"checked by caller\"\n\
                 x.unwrap()\n\
                 }\n",
            )],
            |root| {
                let config =
                    AuditConfig { a1: vec!["src/hot.rs".into()], ..Default::default() };
                let findings = run_audit(root, &config).expect("audit");
                assert!(findings.is_empty(), "unexpected: {findings:?}");
            },
        );
    }

    #[test]
    fn allow_without_reason_reports_both() {
        with_tree(
            &[(
                "src/hot.rs",
                "fn f(x: Option<u32>) -> u32 {\n\
                 x.unwrap() // audit:allow(a1-unwrap)\n\
                 }\n",
            )],
            |root| {
                let config =
                    AuditConfig { a1: vec!["src/hot.rs".into()], ..Default::default() };
                let findings = run_audit(root, &config).expect("audit");
                let lints_found: Vec<_> = findings.iter().map(|f| f.lint).collect();
                assert!(lints_found.contains(&lints::A1_UNWRAP));
                assert!(lints_found.contains(&lints::ALLOW_NO_REASON));
            },
        );
    }

    #[test]
    fn directory_scope_walks_recursively() {
        with_tree(
            &[
                ("src/a.rs", "struct S { a: Mutex<u64>, b: Mutex<u64> }\n"),
                (
                    "src/sub/b.rs",
                    "fn f(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); }\n",
                ),
                (
                    "src/sub/c.rs",
                    "fn g(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); }\n",
                ),
            ],
            |root| {
                let config = AuditConfig { a2: vec!["src".into()], ..Default::default() };
                let findings = run_audit(root, &config).expect("audit");
                assert!(
                    findings.iter().any(|f| f.lint == lints::A2_ORDER),
                    "expected a lock-order cycle, got {findings:?}"
                );
            },
        );
    }

    #[test]
    fn missing_scope_entries_are_skipped() {
        with_tree(&[("src/real.rs", "fn ok() {}\n")], |root| {
            let config = AuditConfig {
                a1: vec!["src/real.rs".into(), "src/not_there.rs".into()],
                ..Default::default()
            };
            let findings = run_audit(root, &config).expect("audit");
            assert!(findings.is_empty());
        });
    }
}
