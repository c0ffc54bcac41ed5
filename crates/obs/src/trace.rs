//! car-trace: per-request distributed trace trees.
//!
//! A *trace* follows one client request across the cluster: the router
//! mints a 128-bit trace id plus a root span, forwards the context on
//! every fan-out leg as `X-Car-Trace-Id` / `X-Car-Parent-Span`, and
//! each worker adopts it, records its own child spans, and returns them
//! in a compact `X-Car-Spans` response header. The router assembles the
//! per-leg payloads into one rooted tree and applies tail-based
//! retention: every errored or slow trace is kept, plus a deterministic
//! 1-in-N sample of the rest.
//!
//! The per-request machinery is thread-local: [`begin_request`] arms a
//! `Cell<bool>` fast flag and an `Option<ActiveTrace>`; `time_span!`
//! call sites check the flag (one thread-local read) and, when a trace
//! is live, append a child span to the active tree. When no trace is
//! live and the flat profile is disabled, span sites stay inert — one
//! relaxed atomic load plus one `Cell` read, preserving the <2%
//! disarmed-overhead budget of the flat profile.
//!
//! Finished spans are also published into a fixed-capacity per-process
//! ring ([`publish_spans`]) so a debug endpoint can answer "what did
//! this process record for trace T" even when the response header was
//! truncated.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::logger::push_json_string;

/// Request header carrying the 128-bit trace id as 32 lowercase hex.
pub const TRACE_ID_HEADER: &str = "x-car-trace-id";
/// Request header carrying the parent span uid as 16 lowercase hex.
pub const PARENT_SPAN_HEADER: &str = "x-car-parent-span";
/// Response header carrying the process's spans for the request.
pub const SPANS_HEADER: &str = "x-car-spans";

/// Spans a single process may attach to one trace; excess spans are
/// dropped at the recorder, never mid-tree.
pub const MAX_TRACE_SPANS: usize = 128;
/// Records encoded into / decoded from one `X-Car-Spans` header.
pub const MAX_WIRE_SPANS: usize = 48;
/// Byte budget for one `X-Car-Spans` header value.
pub const MAX_WIRE_BYTES: usize = 8 * 1024;
/// Attributes one span may carry.
pub const MAX_SPAN_ATTRS: usize = 16;
/// Cross-process clock-skew tolerance applied when nesting child spans
/// into their parents at assembly time, in microseconds.
pub const CLOCK_SKEW_TOLERANCE_US: u64 = 2_000;
/// Capacity of the per-process finished-span ring.
pub const SPAN_RING_CAPACITY: usize = 512;

/// A 128-bit trace identifier, never zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u128);

impl TraceId {
    /// Parses exactly 32 lowercase hex digits; anything else (wrong
    /// length, uppercase, stray bytes, all-zero) is rejected so a
    /// hostile header starts a fresh trace instead of poisoning one.
    pub fn from_hex(raw: &str) -> Option<TraceId> {
        if raw.len() != 32 {
            return None;
        }
        let mut value: u128 = 0;
        for byte in raw.bytes() {
            let digit = hex_digit(byte)?;
            value = value.wrapping_shl(4) | u128::from(digit);
        }
        if value == 0 {
            None
        } else {
            Some(TraceId(value))
        }
    }

    /// The canonical 32-digit lowercase hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// The low 64 bits, used for deterministic 1-in-N sampling.
    pub fn low64(self) -> u64 {
        (self.0 & u128::from(u64::MAX)) as u64
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 64-bit span identifier, unique within a trace, never zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanUid(u64);

impl SpanUid {
    /// Parses exactly 16 lowercase hex digits, rejecting zero.
    pub fn from_hex(raw: &str) -> Option<SpanUid> {
        if raw.len() != 16 {
            return None;
        }
        let mut value: u64 = 0;
        for byte in raw.bytes() {
            let digit = hex_digit(byte)?;
            value = value.wrapping_shl(4) | u64::from(digit);
        }
        if value == 0 {
            None
        } else {
            Some(SpanUid(value))
        }
    }

    /// The canonical 16-digit lowercase hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for SpanUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn hex_digit(byte: u8) -> Option<u8> {
    match byte {
        b'0'..=b'9' => Some(byte.wrapping_sub(b'0')),
        b'a'..=b'f' => Some(byte.wrapping_sub(b'a').wrapping_add(10)),
        _ => None,
    }
}

/// splitmix64: a tiny, well-mixed permutation used to derive ids from
/// the wall clock, the pid, and a process-local counter. Not secret,
/// not cryptographic — ids only need to be unique in practice.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static MINT_COUNTER: AtomicU64 = AtomicU64::new(0);

fn mint_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
        .unwrap_or(0);
    // Relaxed: the counter only feeds id uniqueness.
    let count = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
    nanos ^ u64::from(std::process::id()).rotate_left(32) ^ count.rotate_left(17)
}

/// Mints a fresh, non-zero 128-bit trace id.
pub fn mint_trace_id() -> TraceId {
    let hi = splitmix64(mint_seed());
    let lo = splitmix64(hi ^ mint_seed());
    let value = (u128::from(hi) << 64) | u128::from(lo);
    if value == 0 {
        TraceId(1)
    } else {
        TraceId(value)
    }
}

/// Mints a fresh, non-zero span uid.
pub fn mint_span_uid() -> SpanUid {
    let value = splitmix64(mint_seed());
    if value == 0 {
        SpanUid(1)
    } else {
        SpanUid(value)
    }
}

/// An adopted propagation context: the trace this request belongs to
/// and, when the caller recorded a span for this leg, its uid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span of this request joins.
    pub trace_id: TraceId,
    /// The caller's span for this leg; the adopting process's root span
    /// becomes its child.
    pub parent: Option<SpanUid>,
}

impl TraceContext {
    /// Parses the propagation headers. Any malformation — bad length,
    /// non-hex bytes, a parent that fails to parse — rejects the whole
    /// context, so the server starts a fresh trace rather than grafting
    /// spans onto a hostile id.
    pub fn from_headers(
        trace_id: Option<&str>,
        parent: Option<&str>,
    ) -> Option<TraceContext> {
        let trace_id = TraceId::from_hex(trace_id?.trim())?;
        let parent = match parent {
            None => None,
            Some(raw) => Some(SpanUid::from_hex(raw.trim())?),
        };
        Some(TraceContext { trace_id, parent })
    }
}

/// One finished span: a named interval with wall-clock start, duration,
/// parent linkage, and free-form string attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's uid.
    pub uid: SpanUid,
    /// The enclosing span, `None` for a root.
    pub parent: Option<SpanUid>,
    /// The span name, e.g. `serve.request` or `router.leg.rules`.
    pub name: String,
    /// Wall-clock start in microseconds since the Unix epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attribute pairs, e.g. `("shard", "2")`, `("cache", "hit")`.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// End of the span (`start + dur`), saturating.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

struct OpenSpan {
    uid: SpanUid,
    parent: SpanUid,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(String, String)>,
}

struct ActiveTrace {
    trace_id: TraceId,
    root_uid: SpanUid,
    root_name: &'static str,
    root_parent: Option<SpanUid>,
    root_start_us: u64,
    started: Instant,
    root_attrs: Vec<(String, String)>,
    open: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

thread_local! {
    static TRACE_ON: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Whether this thread currently has a live request trace. One `Cell`
/// read; the span-site fast path.
pub fn trace_active() -> bool {
    TRACE_ON.with(Cell::get)
}

fn with_active<R>(f: impl FnOnce(&mut ActiveTrace) -> R) -> Option<R> {
    ACTIVE.with(|slot| {
        let mut guard = slot.try_borrow_mut().ok()?;
        guard.as_mut().map(f)
    })
}

/// Wall-clock now in microseconds since the Unix epoch (0 if the clock
/// is before the epoch).
pub fn wall_now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Guard for one request's trace. Obtained from [`begin_request`];
/// consumed by [`RequestTrace::finish`]. Dropping without finishing
/// discards the trace and disarms the thread.
#[must_use = "the trace ends when the guard is finished or dropped"]
pub struct RequestTrace {
    finished: bool,
}

/// Begins a request trace on this thread. With a context the request
/// joins the caller's trace (the new root span is a child of
/// `ctx.parent`); without one a fresh trace id is minted.
pub fn begin_request(ctx: Option<TraceContext>, root_name: &'static str) -> RequestTrace {
    let (trace_id, parent) = match ctx {
        Some(ctx) => (ctx.trace_id, ctx.parent),
        None => (mint_trace_id(), None),
    };
    let trace = ActiveTrace {
        trace_id,
        root_uid: mint_span_uid(),
        root_name,
        root_parent: parent,
        root_start_us: wall_now_us(),
        started: Instant::now(),
        root_attrs: Vec::new(),
        open: Vec::new(),
        done: Vec::new(),
    };
    ACTIVE.with(|slot| {
        if let Ok(mut guard) = slot.try_borrow_mut() {
            *guard = Some(trace);
        }
    });
    TRACE_ON.with(|flag| flag.set(true));
    RequestTrace { finished: false }
}

/// A request's finished trace: every span this process recorded, root
/// first.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// The trace id all spans share.
    pub trace_id: TraceId,
    /// The root span's uid.
    pub root_uid: SpanUid,
    /// All spans, the root span first.
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// The live trace's id, for response headers and log fields.
    pub fn trace_id(&self) -> Option<TraceId> {
        with_active(|t| t.trace_id)
    }

    /// The root span's uid, the default parent for externally timed
    /// child spans.
    pub fn root_uid(&self) -> Option<SpanUid> {
        with_active(|t| t.root_uid)
    }

    /// Closes the root span and returns everything recorded. Spans
    /// still open (a guard leaked across the finish) are closed as of
    /// now.
    pub fn finish(mut self) -> Option<FinishedTrace> {
        self.finished = true;
        TRACE_ON.with(|flag| flag.set(false));
        let trace =
            ACTIVE.with(|slot| slot.try_borrow_mut().ok().and_then(|mut g| g.take()))?;
        let root_dur_us =
            u64::try_from(trace.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let now_us = wall_now_us();
        let mut spans = Vec::with_capacity(
            trace.done.len().saturating_add(trace.open.len()).saturating_add(1),
        );
        spans.push(SpanRecord {
            trace_id: trace.trace_id,
            uid: trace.root_uid,
            parent: trace.root_parent,
            name: trace.root_name.to_string(),
            start_us: trace.root_start_us,
            dur_us: root_dur_us,
            attrs: trace.root_attrs,
        });
        spans.extend(trace.done);
        for open in trace.open {
            spans.push(SpanRecord {
                trace_id: trace.trace_id,
                uid: open.uid,
                parent: Some(open.parent),
                name: open.name.to_string(),
                start_us: open.start_us,
                dur_us: now_us.saturating_sub(open.start_us),
                attrs: open.attrs,
            });
        }
        Some(FinishedTrace { trace_id: trace.trace_id, root_uid: trace.root_uid, spans })
    }
}

impl Drop for RequestTrace {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        TRACE_ON.with(|flag| flag.set(false));
        ACTIVE.with(|slot| {
            if let Ok(mut guard) = slot.try_borrow_mut() {
                *guard = None;
            }
        });
    }
}

/// Opens a child span under the innermost open span (or the root).
/// Returns `None` when no trace is live or the per-trace span budget is
/// spent. Called by `time_span!` sites via `span_site`.
pub(crate) fn start_child(name: &'static str) -> Option<SpanUid> {
    if !trace_active() {
        return None;
    }
    with_active(|trace| {
        if trace.done.len().saturating_add(trace.open.len()) >= MAX_TRACE_SPANS {
            return None;
        }
        let uid = mint_span_uid();
        let parent = trace.open.last().map(|o| o.uid).unwrap_or(trace.root_uid);
        trace.open.push(OpenSpan {
            uid,
            parent,
            name,
            start_us: wall_now_us(),
            attrs: Vec::new(),
        });
        Some(uid)
    })
    .flatten()
}

/// Closes the child span `uid` with the guard-measured `elapsed`.
pub(crate) fn end_child(uid: SpanUid, elapsed: Duration) {
    with_active(|trace| {
        let Some(pos) = trace.open.iter().rposition(|o| o.uid == uid) else {
            return;
        };
        let open = trace.open.remove(pos);
        if trace.done.len() >= MAX_TRACE_SPANS {
            return;
        }
        trace.done.push(SpanRecord {
            trace_id: trace.trace_id,
            uid: open.uid,
            parent: Some(open.parent),
            name: open.name.to_string(),
            start_us: open.start_us,
            dur_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            attrs: open.attrs,
        });
    });
}

/// Attaches `key=value` to the innermost open span, or to the root when
/// no child is open. No-op without a live trace; attribute count per
/// span is bounded.
pub fn annotate(key: &str, value: &str) {
    if !trace_active() {
        return;
    }
    with_active(|trace| {
        let attrs = match trace.open.last_mut() {
            Some(open) => &mut open.attrs,
            None => &mut trace.root_attrs,
        };
        if attrs.len() < MAX_SPAN_ATTRS {
            attrs.push((key.to_string(), value.to_string()));
        }
    });
}

/// The live trace id and innermost span uid on this thread — what an
/// outgoing request should propagate as `X-Car-Trace-Id` /
/// `X-Car-Parent-Span`.
pub fn current_context() -> Option<(TraceId, SpanUid)> {
    if !trace_active() {
        return None;
    }
    with_active(|trace| {
        let parent = trace.open.last().map(|o| o.uid).unwrap_or(trace.root_uid);
        (trace.trace_id, parent)
    })
}

/// Appends an externally timed span (e.g. a router fan-out leg measured
/// on a worker thread, or spans decoded from a leg's `X-Car-Spans`
/// header) to this thread's live trace. No-op without one.
pub fn record_span(record: SpanRecord) {
    with_active(|trace| {
        if trace.done.len() < MAX_TRACE_SPANS {
            trace.done.push(record);
        }
    });
}

// ---------------------------------------------------------------------
// Wire codec: the `X-Car-Spans` header value.
//
// Records are joined by `|`; fields within a record by `;`:
//
//   uid;parent;name;start_us;dur_us;k=v,k=v
//
// `parent` is `-` for a root. Names, keys, and values are sanitized to
// a header-safe alphabet (the delimiters and control bytes map to `_`),
// so the value never needs quoting and can never smuggle CR/LF.
// ---------------------------------------------------------------------

fn sanitize(raw: &str, out: &mut String) {
    for ch in raw.chars() {
        let ok = ch.is_ascii_alphanumeric() || matches!(ch, '.' | '_' | '-' | ':' | '/');
        out.push(if ok { ch } else { '_' });
    }
}

/// Encodes `spans` as an `X-Car-Spans` header value, truncating at
/// [`MAX_WIRE_SPANS`] records or [`MAX_WIRE_BYTES`] bytes — whichever
/// comes first. The trace id is not repeated per record; it rides in
/// `X-Car-Trace-Id`.
pub fn encode_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for record in spans.iter().take(MAX_WIRE_SPANS) {
        let mut piece = String::new();
        piece.push_str(&record.uid.to_hex());
        piece.push(';');
        match record.parent {
            Some(parent) => piece.push_str(&parent.to_hex()),
            None => piece.push('-'),
        }
        piece.push(';');
        sanitize(&record.name, &mut piece);
        piece.push(';');
        piece.push_str(&record.start_us.to_string());
        piece.push(';');
        piece.push_str(&record.dur_us.to_string());
        piece.push(';');
        for (i, (key, value)) in record.attrs.iter().enumerate() {
            if i > 0 {
                piece.push(',');
            }
            sanitize(key, &mut piece);
            piece.push('=');
            sanitize(value, &mut piece);
        }
        let sep = usize::from(!out.is_empty());
        if out.len().saturating_add(piece.len()).saturating_add(sep) > MAX_WIRE_BYTES {
            break;
        }
        if !out.is_empty() {
            out.push('|');
        }
        out.push_str(&piece);
    }
    out
}

/// Decodes an `X-Car-Spans` header value. Malformed records are skipped
/// (never an error — the header crosses a trust boundary); at most
/// [`MAX_WIRE_SPANS`] records are returned, stamped with `trace_id`.
pub fn decode_spans(trace_id: TraceId, raw: &str) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for piece in raw.split('|') {
        if out.len() >= MAX_WIRE_SPANS {
            break;
        }
        let mut fields = piece.splitn(6, ';');
        let Some(uid) = fields.next().and_then(SpanUid::from_hex) else {
            continue;
        };
        let parent = match fields.next() {
            Some("-") => None,
            Some(raw_parent) => match SpanUid::from_hex(raw_parent) {
                Some(parent) => Some(parent),
                None => continue,
            },
            None => continue,
        };
        let Some(name) = fields.next() else { continue };
        let Some(start_us) = fields.next().and_then(|f| f.parse::<u64>().ok()) else {
            continue;
        };
        let Some(dur_us) = fields.next().and_then(|f| f.parse::<u64>().ok()) else {
            continue;
        };
        let mut attrs = Vec::new();
        if let Some(raw_attrs) = fields.next() {
            for pair in raw_attrs.split(',') {
                if pair.is_empty() || attrs.len() >= MAX_SPAN_ATTRS {
                    break;
                }
                if let Some((key, value)) = pair.split_once('=') {
                    attrs.push((key.to_string(), value.to_string()));
                }
            }
        }
        out.push(SpanRecord {
            trace_id,
            uid,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
            attrs,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Assembly: raw span soup -> one rooted tree.
// ---------------------------------------------------------------------

/// A fully assembled trace: a single rooted tree of spans.
#[derive(Clone, Debug)]
pub struct AssembledTrace {
    /// The trace id all spans share.
    pub trace_id: TraceId,
    /// The root span's uid; its record is `spans[0]`.
    pub root: SpanUid,
    /// All spans, root first, the rest ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// The root span's duration — the end-to-end request latency.
    pub duration_us: u64,
}

/// Assembles `spans` into a single rooted tree under `root_uid`:
/// duplicate uids collapse (first wins), unresolvable or missing
/// parents re-parent to the root, parent cycles break to the root, and
/// child intervals are clamped into their parent's window whenever they
/// overhang by more than [`CLOCK_SKEW_TOLERANCE_US`] (cross-process
/// clocks are only loosely aligned). If no record carries `root_uid` a
/// synthetic root envelope is created, so the result is always a tree.
pub fn assemble(
    trace_id: TraceId,
    root_uid: SpanUid,
    spans: Vec<SpanRecord>,
) -> AssembledTrace {
    // Deduplicate by uid, first record wins; drop zero uids outright.
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut unique: Vec<SpanRecord> = Vec::with_capacity(spans.len());
    for span in spans {
        if span.uid.0 == 0 || !seen.insert(span.uid.0) {
            continue;
        }
        unique.push(span);
    }

    // Ensure the root record exists and is a true root.
    let root_pos = unique.iter().position(|s| s.uid == root_uid);
    let mut root = match root_pos {
        Some(pos) => unique.remove(pos),
        None => {
            let start = unique.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end = unique.iter().map(SpanRecord::end_us).max().unwrap_or(start);
            SpanRecord {
                trace_id,
                uid: root_uid,
                parent: None,
                name: "(root)".to_string(),
                start_us: start,
                dur_us: end.saturating_sub(start),
                attrs: Vec::new(),
            }
        }
    };
    root.trace_id = trace_id;
    root.parent = None;

    // Re-parent: every non-root span must name a resolvable parent, and
    // walking parents must reach the root without cycling.
    for span in unique.iter_mut() {
        span.trace_id = trace_id;
        if span.parent.is_none() {
            span.parent = Some(root_uid);
        }
    }
    let uids: BTreeSet<u64> = unique.iter().map(|s| s.uid.0).collect();
    for span in unique.iter_mut() {
        if let Some(parent) = span.parent {
            if parent != root_uid && !uids.contains(&parent.0) {
                span.parent = Some(root_uid);
            }
        }
    }
    // Break cycles: follow each span's parent chain; a chain that does
    // not reach the root within the span count is cyclic, and the span
    // at its head re-parents to the root.
    let parent_of = |list: &[SpanRecord], uid: SpanUid| -> Option<SpanUid> {
        list.iter().find(|s| s.uid == uid).and_then(|s| s.parent)
    };
    for i in 0..unique.len() {
        let Some(start) = unique.get(i).map(|s| s.uid) else { break };
        let mut cursor = start;
        let mut steps = 0usize;
        let cyclic = loop {
            let Some(parent) = parent_of(&unique, cursor) else {
                break false;
            };
            if parent == root_uid {
                break false;
            }
            steps = steps.saturating_add(1);
            if steps > unique.len() {
                break true;
            }
            cursor = parent;
        };
        if cyclic {
            if let Some(span) = unique.get_mut(i) {
                span.parent = Some(root_uid);
            }
        }
    }

    // Clamp children into their parent's window, parents before
    // children (BFS from the root), tolerating small cross-process
    // clock skew: only overhangs beyond the tolerance are clamped.
    let mut ordered: Vec<SpanRecord> = Vec::with_capacity(unique.len().saturating_add(1));
    ordered.push(root);
    let mut frontier = vec![root_uid];
    let mut remaining = unique;
    while let Some(parent_uid) = frontier.pop() {
        let (parent_start, parent_end) = ordered
            .iter()
            .find(|s| s.uid == parent_uid)
            .map(|s| (s.start_us, s.end_us()))
            .unwrap_or((0, u64::MAX));
        let mut rest = Vec::with_capacity(remaining.len());
        for mut span in remaining {
            if span.parent == Some(parent_uid) {
                if span.start_us.saturating_add(CLOCK_SKEW_TOLERANCE_US) < parent_start {
                    span.start_us = parent_start;
                }
                if span.start_us > parent_end {
                    span.start_us = parent_end;
                }
                if span.end_us() > parent_end.saturating_add(CLOCK_SKEW_TOLERANCE_US) {
                    span.dur_us = parent_end.saturating_sub(span.start_us);
                }
                frontier.push(span.uid);
                ordered.push(span);
            } else {
                rest.push(span);
            }
        }
        remaining = rest;
    }
    // Anything left is unreachable (its parent chain was dropped with a
    // duplicate); attach directly to the root rather than losing it,
    // clamped into the root envelope like any other child.
    let (root_start, root_end) =
        ordered.first().map(|s| (s.start_us, s.end_us())).unwrap_or((0, u64::MAX));
    for mut span in remaining {
        span.parent = Some(root_uid);
        if span.start_us.saturating_add(CLOCK_SKEW_TOLERANCE_US) < root_start {
            span.start_us = root_start;
        }
        if span.start_us > root_end {
            span.start_us = root_end;
        }
        if span.end_us() > root_end.saturating_add(CLOCK_SKEW_TOLERANCE_US) {
            span.dur_us = root_end.saturating_sub(span.start_us);
        }
        ordered.push(span);
    }

    let duration_us = ordered.first().map(|s| s.dur_us).unwrap_or(0);
    if let Some(tail) = ordered.get_mut(1..) {
        tail.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(a.uid.0.cmp(&b.uid.0)));
    }
    AssembledTrace { trace_id, root: root_uid, spans: ordered, duration_us }
}

// ---------------------------------------------------------------------
// Tail-based retention.
// ---------------------------------------------------------------------

/// Why a trace was kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainReason {
    /// The request errored, tripped a breaker, or was deadline-aborted.
    Error,
    /// End-to-end latency exceeded the slow threshold.
    Slow,
    /// Kept by the deterministic 1-in-N sample.
    Sampled,
}

impl RetainReason {
    /// The metrics label for this reason.
    pub fn label(self) -> &'static str {
        match self {
            RetainReason::Error => "error",
            RetainReason::Slow => "slow",
            RetainReason::Sampled => "sampled",
        }
    }
}

/// Tail-sampling policy knobs for a [`TraceStore`].
#[derive(Clone, Copy, Debug)]
pub struct TraceStorePolicy {
    /// Retained traces kept (FIFO eviction beyond this).
    pub capacity: usize,
    /// Keep 1 in this many healthy traces (`0` disables sampling).
    pub sample_every: u64,
    /// Traces at or above this end-to-end latency are always kept.
    pub slow_threshold_us: u64,
}

impl Default for TraceStorePolicy {
    fn default() -> Self {
        TraceStorePolicy { capacity: 256, sample_every: 16, slow_threshold_us: 250_000 }
    }
}

/// A retained trace with the reason it survived tail sampling.
#[derive(Clone, Debug)]
pub struct StoredTrace {
    /// The assembled tree.
    pub trace: AssembledTrace,
    /// Why it was kept.
    pub reason: RetainReason,
}

/// Bounded store of retained traces with tail-based retention: errored
/// and slow traces always survive; the rest survive 1-in-N, decided by
/// the trace id's low bits so every process samples identically. The
/// store counts every outcome it decides, for `/metrics`.
pub struct TraceStore {
    policy: TraceStorePolicy,
    inner: Mutex<std::collections::VecDeque<StoredTrace>>,
    retained_error: AtomicU64,
    retained_slow: AtomicU64,
    retained_sampled: AtomicU64,
    discarded: AtomicU64,
}

impl TraceStore {
    /// A store with the given policy.
    pub fn new(policy: TraceStorePolicy) -> TraceStore {
        TraceStore {
            policy,
            inner: Mutex::new(std::collections::VecDeque::new()),
            retained_error: AtomicU64::new(0),
            retained_slow: AtomicU64::new(0),
            retained_sampled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, std::collections::VecDeque<StoredTrace>> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The store's policy.
    pub fn policy(&self) -> TraceStorePolicy {
        self.policy
    }

    /// Offers a finished trace. `errored` marks a trace that must be
    /// kept (5xx, breaker trip, deadline abort). Returns the retention
    /// reason, or `None` when the trace was sampled out; the store
    /// counts the outcome either way.
    pub fn offer(&self, trace: AssembledTrace, errored: bool) -> Option<RetainReason> {
        let reason = if errored {
            RetainReason::Error
        } else if self.policy.slow_threshold_us > 0
            && trace.duration_us >= self.policy.slow_threshold_us
        {
            RetainReason::Slow
        } else if self.policy.sample_every > 0
            && trace.trace_id.low64().checked_rem(self.policy.sample_every).unwrap_or(1)
                == 0
        {
            RetainReason::Sampled
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.retained_counter(reason).fetch_add(1, Ordering::Relaxed);
        let mut traces = self.lock();
        traces.push_back(StoredTrace { trace, reason });
        while traces.len() > self.policy.capacity {
            traces.pop_front();
        }
        Some(reason)
    }

    /// Traces this store has retained for `reason`, including those
    /// since evicted beyond capacity.
    pub fn retained(&self, reason: RetainReason) -> u64 {
        self.retained_counter(reason).load(Ordering::Relaxed)
    }

    /// Healthy traces this store's sampler let go.
    pub fn discarded(&self) -> u64 {
        self.discarded.load(Ordering::Relaxed)
    }

    fn retained_counter(&self, reason: RetainReason) -> &AtomicU64 {
        match reason {
            RetainReason::Error => &self.retained_error,
            RetainReason::Slow => &self.retained_slow,
            RetainReason::Sampled => &self.retained_sampled,
        }
    }

    /// Summaries of every retained trace, newest first.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        self.lock()
            .iter()
            .rev()
            .map(|stored| TraceSummary {
                trace_id: stored.trace.trace_id,
                duration_us: stored.trace.duration_us,
                spans: stored.trace.spans.len(),
                reason: stored.reason,
            })
            .collect()
    }

    /// The retained trace with this id, if any.
    pub fn get(&self, trace_id: TraceId) -> Option<StoredTrace> {
        self.lock().iter().find(|s| s.trace.trace_id == trace_id).cloned()
    }
}

/// One row of [`TraceStore::summaries`].
#[derive(Clone, Copy, Debug)]
pub struct TraceSummary {
    /// The trace id.
    pub trace_id: TraceId,
    /// End-to-end latency (root span duration), microseconds.
    pub duration_us: u64,
    /// Spans in the assembled tree.
    pub spans: usize,
    /// Why the trace was retained.
    pub reason: RetainReason,
}

// ---------------------------------------------------------------------
// Chrome trace_event export.
// ---------------------------------------------------------------------

/// Renders an assembled trace as Chrome `trace_event` JSON — complete
/// `X`-phase events loadable in `about:tracing` or Perfetto. Spans map
/// to one event each; the uid, parent, and attributes ride in `args`.
pub fn chrome_trace_json(trace: &AssembledTrace) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, &span.name);
        out.push_str(",\"cat\":\"car\",\"ph\":\"X\",\"ts\":");
        out.push_str(&span.start_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&span.dur_us.to_string());
        let tid = span
            .attrs
            .iter()
            .find(|(k, _)| k == "shard")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .map(|shard| shard.saturating_add(1))
            .unwrap_or(0);
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&tid.to_string());
        out.push_str(",\"args\":{\"uid\":");
        push_json_string(&mut out, &span.uid.to_hex());
        out.push_str(",\"parent\":");
        match span.parent {
            Some(parent) => push_json_string(&mut out, &parent.to_hex()),
            None => out.push_str("\"-\""),
        }
        for (key, value) in &span.attrs {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            push_json_string(&mut out, value);
        }
        out.push_str("}}");
    }
    out.push_str("],\"otherData\":{\"trace_id\":");
    push_json_string(&mut out, &trace.trace_id.to_hex());
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------
// Per-process finished-span ring.
// ---------------------------------------------------------------------

#[allow(clippy::declare_interior_mutable_const)] // template for array init only
const EMPTY_RING_SLOT: Mutex<Option<SpanRecord>> = Mutex::new(None);
static RING: [Mutex<Option<SpanRecord>>; SPAN_RING_CAPACITY] =
    [EMPTY_RING_SLOT; SPAN_RING_CAPACITY];
static RING_HEAD: AtomicUsize = AtomicUsize::new(0);

/// Publishes finished spans into the per-process ring, overwriting the
/// oldest entries. Slot reservation is a wait-free `fetch_add`; each
/// slot copy holds an uncontended per-slot mutex for the clone only.
pub fn publish_spans(spans: &[SpanRecord]) {
    for span in spans {
        // Relaxed: the head only reserves a slot index; slot contents
        // are guarded by the per-slot mutex.
        let index = RING_HEAD
            .fetch_add(1, Ordering::Relaxed)
            .checked_rem(SPAN_RING_CAPACITY)
            .unwrap_or(0);
        if let Some(slot) = RING.get(index) {
            let mut guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            *guard = Some(span.clone());
        }
    }
}

/// Every span in the ring belonging to `trace_id`, oldest first.
pub fn spans_for_trace(trace_id: TraceId) -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for slot in &RING {
        let guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(span) = guard.as_ref() {
            if span.trace_id == trace_id {
                out.push(span.clone());
            }
        }
    }
    out.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(a.uid.0.cmp(&b.uid.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_hex_round_trips() {
        let id = mint_trace_id();
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        let uid = mint_span_uid();
        assert_eq!(SpanUid::from_hex(&uid.to_hex()), Some(uid));
    }

    #[test]
    fn hostile_headers_are_rejected() {
        for bad in [
            "",
            "00000000000000000000000000000000",  // zero
            "0123456789abcdef0123456789abcde",   // short
            "0123456789abcdef0123456789abcdef0", // long
            "0123456789ABCDEF0123456789abcdef",  // uppercase
            "0123456789abcdef0123456789abcdeg",  // non-hex
            "0123456789abcdef0123456789abcde\u{7f}", // control
            "'; DROP TABLE traces; --",          // garbage
        ] {
            assert_eq!(TraceId::from_hex(bad), None, "{bad:?}");
            assert!(TraceContext::from_headers(Some(bad), None).is_none(), "{bad:?}");
        }
        let good = mint_trace_id().to_hex();
        assert!(TraceContext::from_headers(Some(&good), Some("xyz")).is_none());
        assert!(TraceContext::from_headers(Some(&good), Some("")).is_none());
        let ctx = TraceContext::from_headers(Some(&good), None).expect("valid id");
        assert_eq!(ctx.parent, None);
    }

    #[test]
    fn context_round_trips_through_headers() {
        let trace_id = mint_trace_id();
        let parent = mint_span_uid();
        let ctx =
            TraceContext::from_headers(Some(&trace_id.to_hex()), Some(&parent.to_hex()))
                .expect("well-formed context");
        assert_eq!(ctx, TraceContext { trace_id, parent: Some(parent) });
    }

    #[test]
    fn begin_finish_produces_rooted_spans() {
        let trace = begin_request(None, "test.root");
        assert!(trace_active());
        let trace_id = trace.trace_id().expect("live trace");
        {
            let uid = start_child("test.child").expect("child opens");
            annotate("k", "v");
            end_child(uid, Duration::from_micros(5));
        }
        let finished = trace.finish().expect("finishes");
        assert!(!trace_active());
        assert_eq!(finished.trace_id, trace_id);
        assert_eq!(finished.spans.len(), 2);
        let root = &finished.spans[0];
        assert_eq!(root.uid, finished.root_uid);
        assert_eq!(root.parent, None);
        let child = &finished.spans[1];
        assert_eq!(child.parent, Some(finished.root_uid));
        assert_eq!(child.attrs, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn adopted_context_parents_the_root() {
        let upstream = mint_trace_id();
        let leg = mint_span_uid();
        let trace = begin_request(
            Some(TraceContext { trace_id: upstream, parent: Some(leg) }),
            "test.adopted",
        );
        let finished = trace.finish().expect("finishes");
        assert_eq!(finished.trace_id, upstream);
        assert_eq!(finished.spans[0].parent, Some(leg));
    }

    #[test]
    fn dropping_unfinished_disarms_the_thread() {
        let trace = begin_request(None, "test.dropped");
        assert!(trace_active());
        drop(trace);
        assert!(!trace_active());
        assert!(current_context().is_none());
    }

    #[test]
    fn wire_codec_round_trips() {
        let trace_id = mint_trace_id();
        let spans = vec![
            SpanRecord {
                trace_id,
                uid: mint_span_uid(),
                parent: None,
                name: "serve.request".to_string(),
                start_us: 1_000,
                dur_us: 50,
                attrs: vec![("shard".to_string(), "2".to_string())],
            },
            SpanRecord {
                trace_id,
                uid: mint_span_uid(),
                parent: Some(mint_span_uid()),
                name: "wal.append".to_string(),
                start_us: 1_010,
                dur_us: 7,
                attrs: Vec::new(),
            },
        ];
        let encoded = encode_spans(&spans);
        assert!(!encoded.contains('\r') && !encoded.contains('\n'));
        let decoded = decode_spans(trace_id, &encoded);
        assert_eq!(decoded, spans);
    }

    #[test]
    fn wire_codec_sanitizes_hostile_names() {
        let trace_id = mint_trace_id();
        let spans = vec![SpanRecord {
            trace_id,
            uid: mint_span_uid(),
            parent: None,
            name: "evil|;=\r\nname".to_string(),
            start_us: 0,
            dur_us: 0,
            attrs: vec![("a|b".to_string(), "c\r\nd".to_string())],
        }];
        let encoded = encode_spans(&spans);
        assert!(!encoded.contains('\r') && !encoded.contains('\n'));
        let decoded = decode_spans(trace_id, &encoded);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].name, "evil_____name");
        assert_eq!(decoded[0].attrs, vec![("a_b".to_string(), "c__d".to_string())]);
    }

    #[test]
    fn wire_codec_skips_malformed_records() {
        let trace_id = mint_trace_id();
        let uid = mint_span_uid();
        let raw = format!(
            "garbage|{};-;ok;5;6;|;;;;|{};zz;bad;1;2;",
            uid.to_hex(),
            mint_span_uid().to_hex()
        );
        let decoded = decode_spans(trace_id, &raw);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].uid, uid);
        assert_eq!(decoded[0].name, "ok");
    }

    #[test]
    fn assemble_repairs_orphans_and_cycles() {
        let trace_id = mint_trace_id();
        let root = mint_span_uid();
        let (a, b, c) = (mint_span_uid(), mint_span_uid(), mint_span_uid());
        let make = |uid: SpanUid, parent: Option<SpanUid>| SpanRecord {
            trace_id,
            uid,
            parent,
            name: "s".to_string(),
            start_us: 10,
            dur_us: 5,
            attrs: Vec::new(),
        };
        let spans = vec![
            SpanRecord { start_us: 0, dur_us: 100, ..make(root, None) },
            make(a, Some(b)), // cycle a <-> b
            make(b, Some(a)),
            make(c, Some(mint_span_uid())), // unresolvable parent
        ];
        let assembled = assemble(trace_id, root, spans);
        assert_eq!(assembled.spans.len(), 4);
        assert_eq!(assembled.spans[0].uid, root);
        // Every span reaches the root without cycling.
        for span in &assembled.spans[1..] {
            let mut cursor = span.uid;
            let mut steps = 0;
            while cursor != root {
                let parent = assembled
                    .spans
                    .iter()
                    .find(|s| s.uid == cursor)
                    .and_then(|s| s.parent)
                    .expect("parent resolves");
                cursor = parent;
                steps += 1;
                assert!(steps <= assembled.spans.len(), "cycle survived assembly");
            }
        }
    }

    #[test]
    fn assemble_synthesizes_a_missing_root() {
        let trace_id = mint_trace_id();
        let root = mint_span_uid();
        let child = SpanRecord {
            trace_id,
            uid: mint_span_uid(),
            parent: None,
            name: "only".to_string(),
            start_us: 40,
            dur_us: 10,
            attrs: Vec::new(),
        };
        let assembled = assemble(trace_id, root, vec![child]);
        assert_eq!(assembled.spans[0].uid, root);
        assert_eq!(assembled.spans[0].name, "(root)");
        assert_eq!(assembled.spans[0].start_us, 40);
        assert_eq!(assembled.spans[0].dur_us, 10);
        assert_eq!(assembled.spans[1].parent, Some(root));
    }

    #[test]
    fn assemble_clamps_children_beyond_skew_tolerance() {
        let trace_id = mint_trace_id();
        let root = mint_span_uid();
        let child_uid = mint_span_uid();
        let spans = vec![
            SpanRecord {
                trace_id,
                uid: root,
                parent: None,
                name: "root".to_string(),
                start_us: 100_000,
                dur_us: 10_000,
                attrs: Vec::new(),
            },
            SpanRecord {
                trace_id,
                uid: child_uid,
                parent: Some(root),
                name: "child".to_string(),
                start_us: 10_000, // 90ms before the root: beyond tolerance
                dur_us: 500_000,  // and far past its end
                attrs: Vec::new(),
            },
        ];
        let assembled = assemble(trace_id, root, spans);
        let child = &assembled.spans[1];
        assert_eq!(child.start_us, 100_000);
        assert!(child.end_us() <= 110_000 + CLOCK_SKEW_TOLERANCE_US);
    }

    #[test]
    fn tail_retention_keeps_errors_slow_and_samples() {
        let store = TraceStore::new(TraceStorePolicy {
            capacity: 8,
            sample_every: 1, // keep every healthy trace
            slow_threshold_us: 1_000,
        });
        let make = |dur_us: u64| {
            let trace_id = mint_trace_id();
            let root = mint_span_uid();
            assemble(
                trace_id,
                root,
                vec![SpanRecord {
                    trace_id,
                    uid: root,
                    parent: None,
                    name: "r".to_string(),
                    start_us: 0,
                    dur_us,
                    attrs: Vec::new(),
                }],
            )
        };
        assert_eq!(store.offer(make(10), true), Some(RetainReason::Error));
        assert_eq!(store.offer(make(5_000), false), Some(RetainReason::Slow));
        assert_eq!(store.offer(make(10), false), Some(RetainReason::Sampled));
        for reason in [RetainReason::Error, RetainReason::Slow, RetainReason::Sampled] {
            assert_eq!(store.retained(reason), 1, "{reason:?}");
        }
        assert_eq!(store.discarded(), 0);
        let summaries = store.summaries();
        assert_eq!(summaries.len(), 3);
        // Newest first.
        assert_eq!(summaries[0].reason, RetainReason::Sampled);
        let id = summaries[0].trace_id;
        assert!(store.get(id).is_some());
        assert!(store.get(mint_trace_id()).is_none());
    }

    #[test]
    fn tail_retention_samples_deterministically() {
        let store = TraceStore::new(TraceStorePolicy {
            capacity: 64,
            sample_every: 4,
            slow_threshold_us: u64::MAX,
        });
        let mut sampled = 0;
        for _ in 0..64 {
            let trace_id = mint_trace_id();
            let root = mint_span_uid();
            let trace = assemble(
                trace_id,
                root,
                vec![SpanRecord {
                    trace_id,
                    uid: root,
                    parent: None,
                    name: "r".to_string(),
                    start_us: 0,
                    dur_us: 1,
                    attrs: Vec::new(),
                }],
            );
            let expected = trace_id.low64() % 4 == 0;
            let kept = store.offer(trace, false).is_some();
            assert_eq!(kept, expected, "sampling must be a pure function of the id");
            sampled += u64::from(kept);
        }
        assert_eq!(store.retained(RetainReason::Sampled), sampled);
        assert_eq!(store.discarded(), 64 - sampled);
    }

    #[test]
    fn store_evicts_beyond_capacity() {
        let store = TraceStore::new(TraceStorePolicy {
            capacity: 2,
            sample_every: 1,
            slow_threshold_us: u64::MAX,
        });
        for _ in 0..5 {
            let trace_id = mint_trace_id();
            let root = mint_span_uid();
            store.offer(assemble(trace_id, root, Vec::new()), false);
        }
        assert_eq!(store.summaries().len(), 2);
        // The count keeps the evicted ones.
        assert_eq!(store.retained(RetainReason::Sampled), 5);
    }

    #[test]
    fn chrome_export_shape() {
        let trace_id = mint_trace_id();
        let root = mint_span_uid();
        let trace = assemble(
            trace_id,
            root,
            vec![SpanRecord {
                trace_id,
                uid: root,
                parent: None,
                name: "router.request \"q\"".to_string(),
                start_us: 7,
                dur_us: 3,
                attrs: vec![("shard".to_string(), "1".to_string())],
            }],
        );
        let json = chrome_trace_json(&trace);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"q\\\""));
        assert!(json.contains(&trace_id.to_hex()));
        assert!(json.contains("\"tid\":2"));
    }

    #[test]
    fn span_ring_publishes_and_filters_by_trace() {
        let trace_id = mint_trace_id();
        let other = mint_trace_id();
        let make = |tid: TraceId, start_us: u64| SpanRecord {
            trace_id: tid,
            uid: mint_span_uid(),
            parent: None,
            name: "ring".to_string(),
            start_us,
            dur_us: 1,
            attrs: Vec::new(),
        };
        publish_spans(&[make(trace_id, 2), make(other, 1), make(trace_id, 1)]);
        let got = spans_for_trace(trace_id);
        assert!(got.len() >= 2);
        assert!(got.iter().all(|s| s.trace_id == trace_id));
        let starts: Vec<u64> = got.iter().map(|s| s.start_us).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted, "oldest (by start) first");
    }

    #[test]
    fn ring_wraps_without_losing_the_newest() {
        let trace_id = mint_trace_id();
        let spans: Vec<SpanRecord> = (0..SPAN_RING_CAPACITY + 8)
            .map(|i| SpanRecord {
                trace_id,
                uid: mint_span_uid(),
                parent: None,
                name: "wrap".to_string(),
                start_us: i as u64,
                dur_us: 1,
                attrs: Vec::new(),
            })
            .collect();
        publish_spans(&spans);
        let got = spans_for_trace(trace_id);
        assert!(!got.is_empty());
        let newest = spans.last().map(|s| s.uid).expect("nonempty");
        assert!(got.iter().any(|s| s.uid == newest), "newest span survives the wrap");
    }

    #[test]
    fn span_budget_is_bounded() {
        let trace = begin_request(None, "test.budget");
        for _ in 0..MAX_TRACE_SPANS + 10 {
            if let Some(uid) = start_child("test.budget.child") {
                end_child(uid, Duration::from_micros(1));
            }
        }
        let finished = trace.finish().expect("finishes");
        assert!(finished.spans.len() <= MAX_TRACE_SPANS + 1);
    }
}
