//! RAII span timing backed by a lock-free flat profile.
//!
//! A *span* is a named region of code. Entering it (via [`time_span!`](crate::time_span!)
//! or [`span`]) returns a guard; when the guard drops, the elapsed
//! wall-clock time is folded into a fixed-size table of
//! `(count, total ns, max ns)` slots keyed by span id. Recording is
//! three relaxed atomic RMWs on pre-registered slots — no allocation,
//! no locks — so spans are safe inside the mining kernels and the
//! daemon's request path.
//!
//! The name registry *is* behind a mutex, but it is only touched the
//! first time each call site runs ([`time_span!`](crate::time_span!) caches the id in a
//! `OnceLock`) and when a snapshot is taken.
//!
//! Spans are globally disabled by default: [`span`] checks one relaxed
//! `AtomicBool` and, when disabled, returns an inert guard without even
//! reading the clock. The daemon enables them at boot; the CLI enables
//! them for `--stats` runs; `CAR_SPANS=1` enables them anywhere.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Capacity of the flat profile. Registrations past this return a
/// sentinel id whose guards record nothing; with a handful of spans per
/// crate this is generous.
pub const MAX_SPANS: usize = 64;

/// Sentinel for "registry full" — guards with this id are inert.
const OVERFLOW: u32 = u32::MAX;

/// Identifies a registered span. Obtained from [`register_span`] and
/// cheap to copy; [`time_span!`](crate::time_span!) manages one per call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

struct Slot {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // template for array init only
const EMPTY_SLOT: Slot = Slot {
    count: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    max_ns: AtomicU64::new(0),
};

static SLOTS: [Slot; MAX_SPANS] = [EMPTY_SLOT; MAX_SPANS];
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

fn names_lock() -> std::sync::MutexGuard<'static, Vec<&'static str>> {
    NAMES.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Turns span recording on or off process-wide. Guards created while
/// disabled stay inert even if recording is enabled before they drop.
pub fn set_spans_enabled(enabled: bool) {
    SPANS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// Registers `name` in the profile (idempotent — the same name returns
/// the same id). Cold path: takes the registry mutex. Prefer
/// [`time_span!`](crate::time_span!), which calls this once per call site.
pub fn register_span(name: &'static str) -> SpanId {
    let mut names = names_lock();
    if let Some(pos) = names.iter().position(|n| *n == name) {
        return SpanId(u32::try_from(pos).unwrap_or(OVERFLOW));
    }
    if names.len() >= MAX_SPANS {
        return SpanId(OVERFLOW);
    }
    names.push(name);
    let pos = names.len().saturating_sub(1);
    SpanId(u32::try_from(pos).unwrap_or(OVERFLOW))
}

/// Enters the span: returns a guard that records elapsed time into
/// `id`'s slot when dropped. When spans are disabled (or `id` overflowed
/// the registry) the guard is inert and the clock is never read.
#[must_use = "the span ends when the guard drops; binding to _ ends it immediately"]
pub fn span(id: SpanId) -> SpanGuard {
    // audit:allow(a6-relaxed-control) reason="span capture is sampling-tolerant: a stale enabled flag loses or adds one span around the toggle, and the slot counters are monotonic atomics"
    if !SPANS_ENABLED.load(Ordering::Relaxed) || id.0 == OVERFLOW {
        return SpanGuard { flat: None, traced: None, started: None };
    }
    SpanGuard { flat: Some(id), traced: None, started: Some(Instant::now()) }
}

/// Enters a span that records into the flat profile (when spans are
/// enabled) *and* into this thread's live request trace (when one is
/// active — see [`crate::trace::begin_request`]). Either sink may be
/// armed independently; with both disarmed the guard is inert and the
/// clock is never read, so the cost is one relaxed atomic load plus one
/// thread-local flag read. This is what [`time_span!`](crate::time_span!) expands to.
#[must_use = "the span ends when the guard drops; binding to _ ends it immediately"]
pub fn span_site(id: SpanId, name: &'static str) -> SpanGuard {
    // audit:allow(a6-relaxed-control) reason="span capture is sampling-tolerant: a stale enabled flag loses or adds one span around the toggle, and the slot counters are monotonic atomics"
    let enabled = SPANS_ENABLED.load(Ordering::Relaxed);
    let flat = if enabled && id.0 != OVERFLOW { Some(id) } else { None };
    let traced =
        if crate::trace::trace_active() { crate::trace::start_child(name) } else { None };
    if flat.is_none() && traced.is_none() {
        return SpanGuard { flat: None, traced: None, started: None };
    }
    SpanGuard { flat, traced, started: Some(Instant::now()) }
}

/// RAII guard returned by [`span`] / [`span_site`]; records on drop.
pub struct SpanGuard {
    flat: Option<SpanId>,
    traced: Option<crate::trace::SpanUid>,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started.take() else { return };
        let elapsed = started.elapsed();
        if let Some(id) = self.flat.take() {
            if let Some(slot) = SLOTS.get(id.0 as usize) {
                let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                slot.count.fetch_add(1, Ordering::Relaxed);
                slot.total_ns.fetch_add(ns, Ordering::Relaxed);
                slot.max_ns.fetch_max(ns, Ordering::Relaxed);
            }
        }
        if let Some(uid) = self.traced.take() {
            crate::trace::end_child(uid, elapsed);
        }
    }
}

/// One row of the flat profile.
#[derive(Clone, Debug)]
pub struct SpanStat {
    /// The span name as registered.
    pub name: &'static str,
    /// How many guards for this span have dropped.
    pub count: u64,
    /// Total elapsed nanoseconds across all drops.
    pub total_ns: u64,
    /// The single longest recorded duration, in nanoseconds.
    pub max_ns: u64,
}

/// A snapshot of every registered span, in registration order. Rows
/// with `count == 0` are included so callers can see which spans exist
/// even before they fire.
pub fn profile_snapshot() -> Vec<SpanStat> {
    let names = names_lock();
    let mut out = Vec::with_capacity(names.len());
    for (pos, name) in names.iter().enumerate() {
        let Some(slot) = SLOTS.get(pos) else { break };
        out.push(SpanStat {
            name,
            count: slot.count.load(Ordering::Relaxed),
            total_ns: slot.total_ns.load(Ordering::Relaxed),
            max_ns: slot.max_ns.load(Ordering::Relaxed),
        });
    }
    out
}

/// Zeroes every slot's statistics. Registered names are kept (ids
/// remain valid). Guards in flight may still record into the zeroed
/// slots; the profile is diagnostic, not transactional.
pub fn reset_profile() {
    for slot in &SLOTS {
        slot.count.store(0, Ordering::Relaxed);
        slot.total_ns.store(0, Ordering::Relaxed);
        slot.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Times the enclosing scope under `name` (a `&'static str`). Expands
/// to a guard binding, so assign it: `let _span = time_span!("wal.append");`.
/// The span id is resolved once per call site via a `OnceLock`. The
/// guard feeds the flat profile and, when this thread carries a live
/// request trace, a named child span of that trace.
#[macro_export]
macro_rules! time_span {
    ($name:expr) => {{
        static SPAN_ID: ::std::sync::OnceLock<$crate::SpanId> =
            ::std::sync::OnceLock::new();
        $crate::span_site(*SPAN_ID.get_or_init(|| $crate::register_span($name)), $name)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // SPANS_ENABLED is a process global; tests that toggle it hold this
    // lock so they cannot observe each other's state.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn register_is_idempotent() {
        let a = register_span("test.idempotent");
        let b = register_span("test.idempotent");
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = guard();
        let id = register_span("test.disabled");
        set_spans_enabled(false);
        drop(span(id));
        let stat = profile_snapshot()
            .into_iter()
            .find(|s| s.name == "test.disabled")
            .expect("registered span appears in snapshot");
        assert_eq!(stat.count, 0);
    }

    #[test]
    fn enabled_spans_accumulate_count_total_and_max() {
        let _g = guard();
        let id = register_span("test.enabled");
        set_spans_enabled(true);
        for _ in 0..3 {
            let guard = span(id);
            std::thread::sleep(std::time::Duration::from_millis(1));
            drop(guard);
        }
        set_spans_enabled(false);
        let stat = profile_snapshot()
            .into_iter()
            .find(|s| s.name == "test.enabled")
            .expect("span registered");
        assert!(stat.count >= 3);
        assert!(stat.total_ns > 0);
        assert!(stat.max_ns > 0);
        assert!(stat.max_ns <= stat.total_ns);
    }

    #[test]
    fn time_span_macro_times_a_scope() {
        let _g = guard();
        set_spans_enabled(true);
        {
            let _span = crate::time_span!("test.macro");
        }
        set_spans_enabled(false);
        let stat = profile_snapshot()
            .into_iter()
            .find(|s| s.name == "test.macro")
            .expect("macro registered the span");
        assert!(stat.count >= 1);
    }

    #[test]
    fn overflow_ids_are_inert() {
        drop(span(SpanId(OVERFLOW)));
    }

    #[test]
    fn span_site_records_into_a_live_trace_even_with_flat_profile_off() {
        let _g = guard();
        set_spans_enabled(false);
        let trace = crate::trace::begin_request(None, "test.trace.root");
        {
            let _span = crate::time_span!("test.trace.child");
        }
        let finished = trace.finish().expect("trace finishes");
        assert!(
            finished.spans.iter().any(|s| s.name == "test.trace.child"),
            "time_span! must feed the live trace"
        );
    }
}
