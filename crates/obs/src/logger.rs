//! Leveled, per-target structured logging with a runtime filter.
//!
//! Events carry a level, a target (`"serve"`, `"wal"`, `"mine"`,
//! `"recovery"`, …), a message, and optional key=value fields. They are
//! rendered to stderr as logfmt (default) or JSON lines, and optionally
//! captured into a bounded ring buffer for `GET /v1/debug/events`.
//!
//! ## Filtering
//!
//! The filter is a comma-separated spec, each clause either a bare
//! level (the default for unnamed targets) or `target=level`:
//!
//! ```text
//! CAR_LOG=warn                   # default: warnings and errors only
//! CAR_LOG=mine=debug,wal=info    # per-target overrides
//! CAR_LOG=off                    # nothing at all
//! ```
//!
//! Unknown clauses are ignored rather than fatal — a typo in an env var
//! must never take the daemon down.
//!
//! ## Hot-path cost
//!
//! [`log_enabled`] first compares the event's level against a global
//! maximum held in one `AtomicU8` (relaxed load). Only events that
//! could pass the filter take the short critical section that consults
//! per-target levels, so a disabled `debug!` in a mining kernel costs
//! one atomic load and no formatting.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed and data or availability may be affected.
    Error = 1,
    /// Something surprising happened but the daemon carries on.
    Warn = 2,
    /// High-level lifecycle events (boot, recovery, shutdown).
    Info = 3,
    /// Per-request / per-unit detail.
    Debug = 4,
    /// Inner-loop detail; expensive, off except when chasing a bug.
    Trace = 5,
}

impl Level {
    /// The lowercase name used in filters and rendered events.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    #[cfg(test)]
    fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            5 => Some(Level::Trace),
            _ => None,
        }
    }
}

/// `0` disables the target entirely; `1..=5` map to [`Level`].
fn parse_level(s: &str) -> Option<u8> {
    match s.trim() {
        "off" | "none" => Some(0),
        "error" => Some(Level::Error as u8),
        "warn" | "warning" => Some(Level::Warn as u8),
        "info" => Some(Level::Info as u8),
        "debug" => Some(Level::Debug as u8),
        "trace" => Some(Level::Trace as u8),
        _ => None,
    }
}

/// The default ceiling when `CAR_LOG` is unset: operational warnings
/// stay visible, everything chattier is off.
const DEFAULT_LEVEL: u8 = Level::Warn as u8;

struct Filter {
    default: u8,
    targets: Vec<(String, u8)>,
}

impl Filter {
    const fn unset() -> Filter {
        Filter { default: DEFAULT_LEVEL, targets: Vec::new() }
    }

    fn level_for(&self, target: &str) -> u8 {
        for (name, level) in &self.targets {
            if name == target {
                return *level;
            }
        }
        self.default
    }

    fn max_level(&self) -> u8 {
        let mut max = self.default;
        for (_, level) in &self.targets {
            max = max.max(*level);
        }
        max
    }
}

/// Global ceiling consulted before anything else; kept equal to the
/// filter's most verbose level so one relaxed load rejects events no
/// target could accept.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(DEFAULT_LEVEL);
static FILTER: Mutex<Filter> = Mutex::new(Filter::unset());
static JSON_FORMAT: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Initializes the logger from the environment: `CAR_LOG` (filter
/// spec), `CAR_LOG_FORMAT=json|logfmt`, and `CAR_SPANS=1` (span
/// profiling). Idempotent — later calls are no-ops, so every entry
/// point (CLI, daemon, tests) may call it unconditionally.
pub fn init_from_env() {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("CAR_LOG") {
            set_filter(&spec);
        }
        if let Ok(fmt) = std::env::var("CAR_LOG_FORMAT") {
            set_json_format(fmt.trim() == "json");
        }
        if let Ok(spans) = std::env::var("CAR_SPANS") {
            let v = spans.trim();
            crate::span::set_spans_enabled(v == "1" || v == "true" || v == "on");
        }
    });
}

/// Installs a filter spec (`"mine=debug,wal=info"`, `"debug"`,
/// `"off"`). Clauses that fail to parse are skipped; an empty spec
/// leaves the warn-by-default filter in place.
pub fn set_filter(spec: &str) {
    let mut filter = Filter::unset();
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        match clause.split_once('=') {
            Some((target, level)) => {
                if let Some(level) = parse_level(level) {
                    let target = target.trim().to_string();
                    filter.targets.retain(|(name, _)| *name != target);
                    filter.targets.push((target, level));
                }
            }
            None => {
                if let Some(level) = parse_level(clause) {
                    filter.default = level;
                }
            }
        }
    }
    let max = filter.max_level();
    *lock_recovering(&FILTER) = filter;
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Switches event rendering between logfmt (`false`, default) and JSON
/// lines (`true`).
pub fn set_json_format(json: bool) {
    JSON_FORMAT.store(json, Ordering::Relaxed);
}

/// Whether an event at `level` for `target` would be emitted. The fast
/// path is one relaxed atomic load.
pub fn log_enabled(target: &str, level: Level) -> bool {
    // audit:allow(a6-relaxed-control) reason="level filter is advisory by design: a stale ceiling drops or admits a handful of events around a set_max_level call, never corrupts state"
    let ceiling = MAX_LEVEL.load(Ordering::Relaxed);
    if (level as u8) > ceiling {
        return false;
    }
    (level as u8) <= lock_recovering(&FILTER).level_for(target)
}

// ---------------------------------------------------------------------
// Event capture ring
// ---------------------------------------------------------------------

/// Events retained for `GET /v1/debug/events`.
const RING_CAPACITY: usize = 256;

/// One captured log event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Microseconds since the Unix epoch at emission.
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Target subsystem.
    pub target: String,
    /// The formatted message.
    pub message: String,
    /// Structured fields, in emission order.
    pub fields: Vec<(String, String)>,
}

static CAPTURE: AtomicBool = AtomicBool::new(false);
static RING: Mutex<VecDeque<EventRecord>> = Mutex::new(VecDeque::new());
#[cfg(test)]
static SILENCE_STDERR: AtomicBool = AtomicBool::new(false);

/// Turns ring-buffer capture on or off (the daemon turns it on at
/// boot). Disabling does not clear already-captured events.
pub fn set_capture(capture: bool) {
    CAPTURE.store(capture, Ordering::Relaxed);
}

/// The captured events, oldest first (at most the ring capacity).
pub fn recent_events() -> Vec<EventRecord> {
    lock_recovering(&RING).iter().cloned().collect()
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Appends `value` with logfmt quoting: bare when it is a simple
/// token, double-quoted with `\`-escapes otherwise.
fn push_logfmt_value(out: &mut String, value: &str) {
    let bare = !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | ':'));
    if bare {
        out.push_str(value);
        return;
    }
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` as a JSON string literal: the one escaper of the
/// logger's JSON format and the Chrome trace export.
pub(crate) fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats and writes one event. Callers go through the level macros,
/// which check [`log_enabled`] first — `emit` itself does not filter.
pub fn emit(
    target: &str,
    level: Level,
    fields: &[(&str, &dyn fmt::Display)],
    args: fmt::Arguments<'_>,
) {
    let ts_us = unix_micros();
    let message = args.to_string();
    let thread = std::thread::current();
    let thread_name = thread.name().unwrap_or("?").to_string();

    let mut line = String::with_capacity(96);
    // audit:allow(a6-relaxed-control) reason="format flag is set once at init; a racing reader at worst emits one line in the old format"
    if JSON_FORMAT.load(Ordering::Relaxed) {
        line.push_str("{\"ts_us\":");
        line.push_str(&ts_us.to_string());
        line.push_str(",\"level\":");
        push_json_string(&mut line, level.as_str());
        line.push_str(",\"target\":");
        push_json_string(&mut line, target);
        line.push_str(",\"thread\":");
        push_json_string(&mut line, &thread_name);
        line.push_str(",\"msg\":");
        push_json_string(&mut line, &message);
        for (key, value) in fields {
            line.push(',');
            push_json_string(&mut line, key);
            line.push(':');
            push_json_string(&mut line, &value.to_string());
        }
        line.push('}');
    } else {
        line.push_str("ts_us=");
        line.push_str(&ts_us.to_string());
        line.push_str(" level=");
        line.push_str(level.as_str());
        line.push_str(" target=");
        push_logfmt_value(&mut line, target);
        line.push_str(" thread=");
        push_logfmt_value(&mut line, &thread_name);
        line.push_str(" msg=");
        push_logfmt_value(&mut line, &message);
        for (key, value) in fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            push_logfmt_value(&mut line, &value.to_string());
        }
    }
    line.push('\n');

    // A full stderr (or a closed pipe) must not take the caller down;
    // the event is simply lost. Unit tests write straight to the real
    // stderr fd (libtest cannot capture it), so they may silence it.
    #[cfg(test)]
    let silenced = SILENCE_STDERR.load(Ordering::Relaxed);
    #[cfg(not(test))]
    let silenced = false;
    if !silenced {
        let stderr = std::io::stderr();
        let _ = stderr.lock().write_all(line.as_bytes());
    }

    // audit:allow(a6-relaxed-control) reason="capture toggle is test-harness plumbing; missing one event around the flip is acceptable and the ring buffer itself is lock-guarded"
    if CAPTURE.load(Ordering::Relaxed) {
        let record = EventRecord {
            ts_us,
            level,
            target: target.to_string(),
            message,
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        };
        let mut ring = lock_recovering(&RING);
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

/// The shared body of the level macros: filter check, then emission.
/// Fields come first (optional, in brackets), then the format string:
///
/// ```
/// car_obs::log_event!(car_obs::Level::Info, "wal", [seq = 7], "append ok");
/// car_obs::log_event!(car_obs::Level::Warn, "serve", "queue full");
/// ```
#[macro_export]
macro_rules! log_event {
    ($level:expr, $target:expr, [$($key:ident = $value:expr),* $(,)?], $($arg:tt)+) => {{
        let level = $level;
        let target = $target;
        if $crate::log_enabled(target, level) {
            $crate::logger::emit(
                target,
                level,
                &[$((stringify!($key), &$value as &dyn ::std::fmt::Display)),*],
                ::std::format_args!($($arg)+),
            );
        }
    }};
    ($level:expr, $target:expr, $($arg:tt)+) => {
        $crate::log_event!($level, $target, [], $($arg)+)
    };
}

/// Logs at [`Level::Error`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! error {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::Level::Error, $target, $($rest)+)
    };
}

/// Logs at [`Level::Warn`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::Level::Warn, $target, $($rest)+)
    };
}

/// Logs at [`Level::Info`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! info {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::Level::Info, $target, $($rest)+)
    };
}

/// Logs at [`Level::Debug`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::Level::Debug, $target, $($rest)+)
    };
}

/// Logs at [`Level::Trace`]; see [`log_event!`] for the field syntax.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::Level::Trace, $target, $($rest)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The filter, ring, and format switches are process globals, so the
    // tests below run under one lock to avoid interleaving.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn reset() {
        set_filter("warn");
        set_json_format(false);
        set_capture(false);
        SILENCE_STDERR.store(true, Ordering::Relaxed);
        lock_recovering(&RING).clear();
    }

    #[test]
    fn default_filter_admits_warn_rejects_info() {
        let _g = guard();
        reset();
        assert!(log_enabled("serve", Level::Warn));
        assert!(log_enabled("serve", Level::Error));
        assert!(!log_enabled("serve", Level::Info));
        assert!(!log_enabled("mine", Level::Debug));
    }

    #[test]
    fn per_target_spec_overrides_default() {
        let _g = guard();
        reset();
        set_filter("mine=debug,wal=info");
        assert!(log_enabled("mine", Level::Debug));
        assert!(!log_enabled("mine", Level::Trace));
        assert!(log_enabled("wal", Level::Info));
        assert!(!log_enabled("wal", Level::Debug));
        // Unnamed targets keep the warn default.
        assert!(log_enabled("serve", Level::Warn));
        assert!(!log_enabled("serve", Level::Info));
        reset();
    }

    #[test]
    fn bare_level_sets_the_default_and_off_silences() {
        let _g = guard();
        reset();
        set_filter("debug");
        assert!(log_enabled("anything", Level::Debug));
        set_filter("off");
        assert!(!log_enabled("anything", Level::Error));
        set_filter("serve=off,error");
        assert!(!log_enabled("serve", Level::Error));
        assert!(log_enabled("other", Level::Error));
        reset();
    }

    #[test]
    fn malformed_clauses_are_ignored() {
        let _g = guard();
        reset();
        set_filter("bogus-level,mine=nope,,wal=info");
        assert!(log_enabled("wal", Level::Info));
        assert!(log_enabled("mine", Level::Warn)); // fell back to default
        reset();
    }

    #[test]
    fn ring_captures_with_fields_and_is_bounded() {
        let _g = guard();
        reset();
        set_filter("trace");
        set_capture(true);
        for i in 0..(RING_CAPACITY + 10) {
            crate::info!("test", [seq = i], "event number {i}");
        }
        let events = recent_events();
        assert_eq!(events.len(), RING_CAPACITY);
        let last = events.last().expect("ring is non-empty");
        assert_eq!(last.target, "test");
        assert_eq!(last.level, Level::Info);
        assert_eq!(last.message, format!("event number {}", RING_CAPACITY + 9));
        assert_eq!(
            last.fields,
            vec![("seq".to_string(), (RING_CAPACITY + 9).to_string())]
        );
        assert!(last.ts_us > 0);
        reset();
    }

    #[test]
    fn disabled_events_are_not_captured() {
        let _g = guard();
        reset();
        set_capture(true);
        crate::debug!("test", "should be filtered out");
        assert!(recent_events().is_empty());
        reset();
    }

    #[test]
    fn logfmt_quoting() {
        let mut out = String::new();
        push_logfmt_value(&mut out, "simple-token_1.0");
        assert_eq!(out, "simple-token_1.0");
        let mut out = String::new();
        push_logfmt_value(&mut out, "two words \"quoted\"");
        assert_eq!(out, "\"two words \\\"quoted\\\"\"");
        let mut out = String::new();
        push_logfmt_value(&mut out, "");
        assert_eq!(out, "\"\"");
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn level_parsing_round_trips() {
        for level in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace]
        {
            assert_eq!(parse_level(level.as_str()), Some(level as u8));
            assert_eq!(Level::from_u8(level as u8), Some(level));
        }
        assert_eq!(parse_level("off"), Some(0));
        assert_eq!(parse_level("garbage"), None);
        assert_eq!(Level::from_u8(0), None);
    }
}
