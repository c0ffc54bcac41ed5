//! A6: lock-free/atomics discipline (`a6-relaxed-control`,
//! `a6-relaxed-mirror`, `a6-torn-write`).
//!
//! The PR 6 router publishes `units_routed`/replay-depth gauges as
//! `AtomicU64` mirrors of state mutated under the ingest lock: writes
//! happen inside the critical section, reads happen lock-free on the
//! metrics path. That pattern is *fine* — as long as everyone knows the
//! mirror is advisory. It stops being fine silently: someone reads the
//! mirror with `Ordering::Relaxed` and branches on it, or adds a second
//! writer outside the lock, and the "advisory copy" has become an
//! unsynchronised source of truth. These lints make each step explicit:
//!
//! * `a6-relaxed-control` — a `Relaxed` load feeding an `if`/`while`/
//!   `match` decision (directly, or via a `let` binding later used in a
//!   condition in the same function). Relaxed loads order nothing; a
//!   control decision based on one usually wants `Acquire` or a note
//!   explaining why staleness is acceptable.
//! * `a6-relaxed-mirror` — a `Relaxed` load, outside any lock, of an
//!   atomic that is written under a lock somewhere in the A6 scope
//!   (name-keyed, whole-scope, like the A2 lock graph). The load may sit
//!   one call level away: passing the atomic by reference to a closure
//!   bound with `let` or to a function whose body loads that parameter
//!   `Relaxed` (a [`RelaxedHelpers`] summary) counts as loading it at
//!   the call site, so a `let relaxed = |g: &AtomicU64|
//!   g.load(Ordering::Relaxed);` wrapper hides nothing.
//! * `a6-torn-write` — an atomic written both under a lock and outside
//!   one (any ordering): the lock-guarded invariant the in-lock writer
//!   maintains can be torn by the free writer.
//!
//! All three are suppressible with a reasoned `audit:allow`, which is
//! the point: the annotation documents the staleness contract at the
//! exact read/write site.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::{lints, Finding};
use crate::index::index_file;
use crate::lexer::{Token, TokenKind};
use crate::locks::{acquisition_at, binding_of, for_each_function};

/// Atomic operations that mutate the value.
const WRITE_OPS: [&str; 12] = [
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Collects names declared as `Atomic*` fields/statics/parameters:
/// `name : [Arc<][std::sync::atomic::]AtomicU64`, same backwalk idiom
/// as the A2 lock-field discovery.
pub fn collect_atomics(tokens: &[Token], out: &mut BTreeSet<String>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !t.text.starts_with("Atomic")
            || t.text.len() <= "Atomic".len()
        {
            continue;
        }
        let mut k = i;
        while k > 0 {
            let p = &tokens[k - 1];
            let wrapper = (p.is_ident("Arc")
                || p.is_ident("std")
                || p.is_ident("sync")
                || p.is_ident("atomic"))
                || p.is_punct("::")
                || p.is_punct("<")
                || p.is_punct("&");
            if !wrapper {
                break;
            }
            k -= 1;
        }
        if k >= 2 && tokens[k - 1].is_punct(":") {
            let name = &tokens[k - 2];
            if name.kind == TokenKind::Ident {
                out.insert(name.text.clone());
            }
        }
    }
}

/// One-level call summaries: closure or function name → the positions
/// of the parameters its body loads with `Ordering::Relaxed`.
/// Name-keyed like the A2 lock summaries; colliding names union.
pub type RelaxedHelpers = BTreeMap<String, BTreeSet<usize>>;

/// Whether `[start, end)` holds `name . load (` with a `Relaxed`
/// argument.
fn loads_relaxed(tokens: &[Token], start: usize, end: usize, name: &str) -> bool {
    (start..end).any(|i| {
        tokens[i].is_ident(name)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("."))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("load"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
            && call_args(tokens, i + 3, end)
                .into_iter()
                .flatten()
                .any(|t| t.is_ident("Relaxed"))
    })
}

/// The argument token slices of the call whose `(` is at `open`, split
/// at depth-1 commas.
fn call_args(tokens: &[Token], open: usize, end: usize) -> Vec<&[Token]> {
    let mut args = Vec::new();
    let mut depth = 0usize;
    let mut from = open + 1;
    for j in open..end {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                if j > from {
                    args.push(&tokens[from..j]);
                }
                break;
            }
        } else if depth == 1 && t.is_punct(",") {
            args.push(&tokens[from..j]);
            from = j + 1;
        }
    }
    args
}

/// Adds to `out` every function of the file, and every closure bound
/// with `let NAME = [move] |params| body`, whose body loads one of its
/// parameters `Relaxed`.
pub fn collect_relaxed_helpers(tokens: &[Token], out: &mut RelaxedHelpers) {
    let mut add = |name: &str, params: &[String], start: usize, end: usize| {
        for (k, p) in params.iter().enumerate() {
            if loads_relaxed(tokens, start, end, p) {
                out.entry(name.to_string()).or_default().insert(k);
            }
        }
    };
    for f in index_file(tokens).fns {
        add(&f.name, &f.params, f.body_start, f.body_end);
    }
    for i in 0..tokens.len() {
        let Some(closure) = closure_at(tokens, i) else { continue };
        add(&closure.name, &closure.params, closure.body_start, closure.body_end);
    }
}

/// A closure bound with `let`: its name, parameter names and body.
struct Closure {
    name: String,
    params: Vec<String>,
    body_start: usize,
    body_end: usize,
}

/// Parses `let [mut] NAME = [move] | params | body ;` at the `let` at
/// `i`. Each parameter contributes its first ident (`g` in `g:
/// &AtomicU64` and in an untyped `g`); the body runs to the `;` that
/// ends the statement.
fn closure_at(tokens: &[Token], i: usize) -> Option<Closure> {
    if !tokens[i].is_ident("let") {
        return None;
    }
    let mut j = i + 1;
    if tokens.get(j)?.is_ident("mut") {
        j += 1;
    }
    let name = tokens.get(j).filter(|t| t.kind == TokenKind::Ident)?.text.clone();
    if !tokens.get(j + 1)?.is_punct("=") {
        return None;
    }
    j += 2;
    if tokens.get(j)?.is_ident("move") {
        j += 1;
    }
    if !tokens.get(j)?.is_punct("|") {
        return None;
    }
    let mut params = Vec::new();
    let mut named = false;
    let mut depth = 0usize;
    j += 1;
    while !(depth == 0 && tokens.get(j)?.is_punct("|")) {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("<") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct(">") || t.is_punct("]") {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(",") {
            named = false;
        } else if !named && t.kind == TokenKind::Ident && !t.is_ident("mut") {
            params.push(t.text.clone());
            named = true;
        }
        j += 1;
    }
    let body_start = j + 1;
    let mut depth = 0usize;
    let mut k = body_start;
    while k < tokens.len() && !(depth == 0 && tokens[k].is_punct(";")) {
        if tokens[k].is_punct("(") || tokens[k].is_punct("[") || tokens[k].is_punct("{") {
            depth += 1;
        } else if tokens[k].is_punct(")")
            || tokens[k].is_punct("]")
            || tokens[k].is_punct("}")
        {
            if depth == 0 {
                break;
            }
            depth -= 1;
        }
        k += 1;
    }
    Some(Closure { name, params, body_start, body_end: k })
}

/// Whole-scope write classification: which atomics are written under a
/// lock, and which are written outside any lock.
#[derive(Clone, Debug, Default)]
pub struct AtomicUsage {
    /// Atomics with at least one write while a tracked lock is held.
    pub locked_writes: BTreeSet<String>,
    /// Atomics with at least one write outside any tracked lock.
    pub unlocked_writes: BTreeSet<String>,
}

/// An atomic operation site observed while scanning a function body.
struct OpSite {
    /// Token index of the atomic's name.
    idx: usize,
    /// The atomic's name.
    name: String,
    /// `true` for the `WRITE_OPS` family, `false` for `load`.
    is_write: bool,
    /// An `Ordering::Relaxed` argument appears in the call.
    relaxed: bool,
    /// A tracked lock is held at the site.
    under_lock: bool,
    /// 1-based line of the operation.
    line: u32,
    /// The closure or function that performs the load, when the atomic
    /// is passed by reference to a [`RelaxedHelpers`] entry.
    via: Option<String>,
}

/// Scans one function body for atomic ops, tracking held locks with
/// the same rules as the A2 pass (block scope, `drop`, statement-end
/// for temporaries). A call to one of `helpers` with an atomic passed
/// by reference (`&a.b.gauge`) at a position the helper loads `Relaxed`
/// is reported as a `Relaxed` load of that atomic at the call.
fn for_each_op(
    tokens: &[Token],
    start: usize,
    end: usize,
    atomics: &BTreeSet<String>,
    lock_names: &BTreeSet<String>,
    helpers: &RelaxedHelpers,
    mut cb: impl FnMut(OpSite),
) {
    struct Held {
        binding: Option<String>,
        depth: usize,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            held.retain(|h| h.depth <= depth);
        } else if t.is_punct(";") {
            held.retain(|h| h.binding.is_some());
        } else if t.is_ident("drop") && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            if let Some(arg) = tokens.get(i + 2) {
                held.retain(|h| h.binding.as_deref() != Some(arg.text.as_str()));
            }
        } else if acquisition_at(tokens, i, lock_names).is_some() {
            held.push(Held { binding: binding_of(tokens, i), depth });
            i += 5;
            continue;
        } else if let Some(positions) = helpers.get(&t.text).filter(|_| {
            tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
                && !(i > 0 && tokens[i - 1].is_ident("fn"))
        }) {
            let args = call_args(tokens, i + 1, end);
            for (k, arg) in args.iter().enumerate() {
                let by_ref = arg.first().is_some_and(|a| a.is_punct("&"))
                    && arg.iter().all(|a| {
                        a.kind == TokenKind::Ident || a.is_punct(".") || a.is_punct("&")
                    });
                let atomic = arg.last().filter(|a| by_ref && atomics.contains(&a.text));
                if let Some(atomic) = atomic.filter(|_| positions.contains(&k)) {
                    cb(OpSite {
                        idx: i,
                        name: atomic.text.clone(),
                        is_write: false,
                        relaxed: true,
                        under_lock: !held.is_empty(),
                        line: atomic.line,
                        via: Some(t.text.clone()),
                    });
                }
            }
        } else if t.kind == TokenKind::Ident
            && atomics.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("."))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            let method = &tokens[i + 2];
            let is_write = WRITE_OPS.contains(&method.text.as_str());
            if is_write || method.is_ident("load") {
                // Find the matching `)` and look for `Relaxed` inside.
                let mut pd = 0i32;
                let mut j = i + 3;
                let mut relaxed = false;
                while j < end {
                    let p = &tokens[j];
                    if p.is_punct("(") {
                        pd += 1;
                    } else if p.is_punct(")") {
                        pd -= 1;
                        if pd == 0 {
                            break;
                        }
                    } else if p.is_ident("Relaxed") {
                        relaxed = true;
                    }
                    j += 1;
                }
                cb(OpSite {
                    idx: i,
                    name: t.text.clone(),
                    is_write,
                    relaxed,
                    under_lock: !held.is_empty(),
                    line: t.line,
                    via: None,
                });
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Aggregates write classification for one file into `usage`.
pub fn collect_usage(
    tokens: &[Token],
    atomics: &BTreeSet<String>,
    lock_names: &BTreeSet<String>,
    usage: &mut AtomicUsage,
) {
    let no_helpers = RelaxedHelpers::new();
    for_each_function(tokens, |_, start, end| {
        for_each_op(tokens, start, end, atomics, lock_names, &no_helpers, |op| {
            if op.is_write {
                if op.under_lock {
                    usage.locked_writes.insert(op.name.clone());
                } else {
                    usage.unlocked_writes.insert(op.name.clone());
                }
            }
        });
    });
}

/// Token ranges of `if`/`while`/`match` condition expressions (keyword
/// to the opening `{` at depth 0) within `[start, end)`.
fn condition_ranges(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in start..end {
        let t = &tokens[i];
        if !(t.is_ident("if") || t.is_ident("while") || t.is_ident("match")) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < end {
            let p = &tokens[j];
            if p.is_punct("(") || p.is_punct("[") {
                depth += 1;
            } else if p.is_punct(")") || p.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && (p.is_punct("{") || p.is_punct(";")) {
                break;
            }
            j += 1;
        }
        out.push((i + 1, j));
    }
    out
}

/// Runs the A6 checks over one file. `usage` and `helpers` must be the
/// whole-scope aggregates from [`collect_usage`] and
/// [`collect_relaxed_helpers`].
pub fn check(
    file: &str,
    tokens: &[Token],
    atomics: &BTreeSet<String>,
    lock_names: &BTreeSet<String>,
    usage: &AtomicUsage,
    helpers: &RelaxedHelpers,
    findings: &mut Vec<Finding>,
) {
    for_each_function(tokens, |fn_name, start, end| {
        let conds = condition_ranges(tokens, start, end);
        let in_cond = |idx: usize| conds.iter().any(|&(s, e)| idx >= s && idx < e);
        // `let x = FLAG.load(Relaxed);` followed by `if x ...` later in
        // the same function also counts as control-feeding.
        let feeds_later_cond = |idx: usize, binding: &str| {
            conds.iter().any(|&(s, e)| {
                s > idx
                    && tokens[s..e]
                        .iter()
                        .any(|t| t.kind == TokenKind::Ident && t.text == binding)
            })
        };
        for_each_op(tokens, start, end, atomics, lock_names, helpers, |op| {
            if op.is_write {
                if !op.under_lock && usage.locked_writes.contains(&op.name) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: op.line,
                        lint: lints::A6_TORN_WRITE,
                        snippet: format!("{}.<write>", op.name),
                        message: format!(
                            "atomic `{}` is written outside a lock in `{}` but also \
                             written under a lock elsewhere; the in-lock invariant \
                             can be torn",
                            op.name, fn_name
                        ),
                    });
                }
                return;
            }
            if !op.relaxed {
                return;
            }
            let (snippet, load) = match &op.via {
                Some(helper) => (
                    format!("{helper}(&{})", op.name),
                    format!("Relaxed load of `{}` through `{helper}`", op.name),
                ),
                None => (
                    format!("{}.load(Relaxed)", op.name),
                    format!("Relaxed load of `{}`", op.name),
                ),
            };
            let control = in_cond(op.idx)
                || binding_of(tokens, op.idx)
                    .is_some_and(|b| feeds_later_cond(op.idx, &b));
            if control {
                findings.push(Finding {
                    file: file.to_string(),
                    line: op.line,
                    lint: lints::A6_RELAXED_CONTROL,
                    snippet,
                    message: format!(
                        "{load} feeds a control-flow decision in `{fn_name}`; \
                         use Acquire or document why staleness is safe"
                    ),
                });
            } else if !op.under_lock && usage.locked_writes.contains(&op.name) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: op.line,
                    lint: lints::A6_RELAXED_MIRROR,
                    snippet,
                    message: format!(
                        "{load} in `{fn_name}` reads a mirror of lock-guarded \
                         state; document the staleness contract or read under the lock"
                    ),
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::locks::collect_lock_fields;

    fn run(src: &str) -> Vec<Finding> {
        let tokens = strip_test_code(lex(src).tokens);
        let mut atomics = BTreeSet::new();
        collect_atomics(&tokens, &mut atomics);
        let mut lock_names = BTreeSet::new();
        collect_lock_fields(&tokens, &mut lock_names);
        let mut usage = AtomicUsage::default();
        collect_usage(&tokens, &atomics, &lock_names, &mut usage);
        let mut helpers = RelaxedHelpers::new();
        collect_relaxed_helpers(&tokens, &mut helpers);
        let mut findings = Vec::new();
        check("f.rs", &tokens, &atomics, &lock_names, &usage, &helpers, &mut findings);
        findings
    }

    #[test]
    fn discovers_fields_and_statics() {
        let src = "static MAX: AtomicU8 = AtomicU8::new(0);\n\
                   struct S { gauge: Arc<AtomicU64>, n: u64 }\n";
        let tokens = lex(src).tokens;
        let mut atomics = BTreeSet::new();
        collect_atomics(&tokens, &mut atomics);
        assert!(atomics.contains("MAX"));
        assert!(atomics.contains("gauge"));
        assert!(!atomics.contains("n"));
    }

    #[test]
    fn relaxed_load_in_condition_is_control() {
        let f = run("struct S { shutdown: AtomicBool }\n\
                     fn f(s: &S) {\n\
                     if s.shutdown.load(Ordering::Relaxed) { return; }\n\
                     }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].lint, f[0].line), (lints::A6_RELAXED_CONTROL, 3));
    }

    #[test]
    fn relaxed_load_bound_then_branched_is_control() {
        let f = run("struct S { ceiling: AtomicU8 }\n\
                     fn f(s: &S, level: u8) {\n\
                     let c = s.ceiling.load(Ordering::Relaxed);\n\
                     if level > c { return; }\n\
                     }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].lint, f[0].line), (lints::A6_RELAXED_CONTROL, 3));
    }

    #[test]
    fn acquire_load_in_condition_is_clean() {
        let f = run("struct S { shutdown: AtomicBool }\n\
                     fn f(s: &S) {\n\
                     if s.shutdown.load(Ordering::Acquire) { return; }\n\
                     }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mirror_read_outside_lock_is_flagged() {
        let f = run("struct S { inner: Mutex<u64>, gauge: AtomicU64 }\n\
                     fn update(s: &S) {\n\
                     let g = s.inner.lock();\n\
                     s.gauge.store(1, Ordering::Relaxed);\n\
                     }\n\
                     fn metrics(s: &S) -> u64 {\n\
                     s.gauge.load(Ordering::Relaxed)\n\
                     }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].lint, f[0].line), (lints::A6_RELAXED_MIRROR, 7));
    }

    #[test]
    fn pure_counter_without_lock_writes_is_clean() {
        let f = run("struct S { hits: AtomicU64 }\n\
                     fn bump(s: &S) { s.hits.fetch_add(1, Ordering::Relaxed); }\n\
                     fn read(s: &S) -> u64 { s.hits.load(Ordering::Relaxed) }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn write_both_under_and_outside_lock_is_torn() {
        let f = run("struct S { inner: Mutex<u64>, gauge: AtomicU64 }\n\
                     fn a(s: &S) {\n\
                     let g = s.inner.lock();\n\
                     s.gauge.store(1, Ordering::Release);\n\
                     }\n\
                     fn b(s: &S) {\n\
                     s.gauge.store(0, Ordering::Release);\n\
                     }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].lint, f[0].line), (lints::A6_TORN_WRITE, 7));
    }

    #[test]
    fn mirror_read_through_a_closure_or_helper_is_flagged_at_the_call() {
        let writer =
            "struct S { inner: Mutex<u64>, gauge: AtomicU64, hits: AtomicU64 }\n\
                      fn update(s: &S) { let g = s.inner.lock(); \
                      s.gauge.store(1, Ordering::Relaxed); }\n";
        let closure = format!(
            "{writer}fn metrics(s: &S) -> u64 {{\n\
             let relaxed = |g: &AtomicU64| g.load(Ordering::Relaxed);\n\
             relaxed(&s.hits) + relaxed(&s.gauge)\n}}\n"
        );
        let f = run(&closure);
        assert_eq!(lint_lines(&f), [(lints::A6_RELAXED_MIRROR, 5)], "{f:?}");
        assert_eq!(f[0].snippet, "relaxed(&gauge)");
        let helper = format!(
            "{writer}fn read(n: u64, g: &AtomicU64) -> u64 {{ g.load(Ordering::Relaxed) + n }}\n\
             fn metrics(s: &S) -> u64 {{\n\
             read(1, &s.gauge)\n}}\n"
        );
        assert_eq!(lint_lines(&run(&helper)), [(lints::A6_RELAXED_MIRROR, 5)]);
        // The value, not a reference to the atomic, and a helper that
        // loads with Acquire, are not mirror reads.
        let clean = format!(
            "{writer}fn read(g: &AtomicU64) -> u64 {{ g.load(Ordering::Acquire) }}\n\
             fn pass(n: u64) -> u64 {{ let relaxed = |v: u64| v; relaxed(n) }}\n\
             fn metrics(s: &S) -> u64 {{ read(&s.gauge) }}\n"
        );
        assert!(run(&clean).is_empty());
    }

    fn lint_lines(findings: &[Finding]) -> Vec<(&'static str, u32)> {
        findings.iter().map(|f| (f.lint, f.line)).collect()
    }

    #[test]
    fn mirror_read_under_the_lock_is_clean() {
        let f = run("struct S { inner: Mutex<u64>, gauge: AtomicU64 }\n\
                     fn update(s: &S) {\n\
                     let g = s.inner.lock();\n\
                     s.gauge.store(1, Ordering::Relaxed);\n\
                     let now = s.gauge.load(Ordering::Relaxed);\n\
                     }\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
