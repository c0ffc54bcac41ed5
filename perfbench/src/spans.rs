//! Benchmark-owned spans around calls into the program's layers.
//!
//! The traced run wraps each public layer function it replays in a span
//! (name, start, end, parent span, per-op id) and records work counts at
//! the same boundaries. Spans stay in memory until the run ends, then are
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `window.push_unit`.
    pub name: &'static str,
    /// The operation (unit or request) the span belongs to.
    pub op: u64,
    /// The span this call was made on behalf of.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span and counter store for one traced run.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Work counts attached to spans: `(span, counter, value)`.
    counts: Vec<(SpanId, &'static str, u64)>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { t0: Instant::now(), spans: Vec::new(), counts: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn start(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, op, parent);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Attaches a work count to span `id`, recorded where the work ran.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: u64) {
        self.counts.push((id, name, value));
    }

    /// Per-op milliseconds of the spans named `name`, for ops at or
    /// after `from`. A layer called several times for one op is summed
    /// (support counting runs once per Apriori level) or, with `max`, the
    /// slowest call counts (shard legs run in parallel).
    pub fn per_op(&self, name: &str, from: u64, max: bool) -> BTreeMap<u64, f64> {
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name && s.op >= from) {
            let slot = by_op.entry(span.op).or_default();
            *slot = if max {
                (*slot).max(span.duration_ns())
            } else {
                *slot + span.duration_ns()
            };
        }
        by_op.into_iter().map(|(op, ns)| (op, ns_to_ms(ns))).collect()
    }

    /// [`Recorder::per_op`] without the op ids.
    pub fn per_op_ms(&self, name: &str, from: u64, max: bool) -> Vec<f64> {
        self.per_op(name, from, max).into_values().collect()
    }

    /// Per-op self time in milliseconds of the spans named `name`, for
    /// ops at or after `from`, summed within an op.
    pub fn per_op_self_ms(&self, name: &str, from: u64) -> Vec<f64> {
        let spans = &self.spans;
        let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (id, span) in
            spans.iter().enumerate().filter(|(_, s)| s.name == name && s.op >= from)
        {
            *by_op.entry(span.op).or_default() += self_time_ns(spans, id);
        }
        by_op.into_values().map(ns_to_ms).collect()
    }

    /// Writes every span, with its counts, as one JSON object per line.
    pub fn write_jsonl(&self, out: impl Write) -> io::Result<()> {
        let mut counts: BTreeMap<SpanId, String> = BTreeMap::new();
        for (id, name, value) in &self.counts {
            let slot = counts.entry(*id).or_default();
            slot.push_str(&format!(",\"{name}\":{value}"));
        }
        let mut out = io::BufWriter::new(out);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}{}}}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                counts.get(&id).map_or("", String::as_str)
            )?;
        }
        out.flush()
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A span's self time: its duration minus the durations of its direct
/// children, never below zero. Children are recorded on the same thread
/// one after another, so they never overlap; a child replayed after its
/// parent closed (the same inputs pushed through the inner layer on its
/// own) is charged to the parent all the same.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let Some(span) = spans.get(id) else { return 0 };
    let children: u64 =
        spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
    span.duration_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span { name, op: 7, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("window.push_unit", None, 0, 100),
            span("apriori.mine", Some(0), 10, 40),
            span("apriori.support_count", Some(1), 12, 30),
            span("rules.gen", Some(0), 50, 70),
        ];
        // 100 - (30 + 20); the grandchild is inside apriori.mine.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 12);
        assert_eq!(self_time_ns(&spans, 3), 20);
    }

    #[test]
    fn replayed_children_count_and_self_time_clamps_at_zero() {
        let spans = vec![
            span("window.push_unit", None, 0, 30),
            // Replayed after the parent closed, longer than the parent.
            span("apriori.mine", Some(0), 40, 75),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert_eq!(self_time_ns(&spans, 9), 0);
    }

    #[test]
    fn recorder_sums_per_op() {
        let mut r = Recorder::new();
        for op in 0..3 {
            let parent = r.start("window.push_unit", op, None);
            r.time("apriori.support_count", op, Some(parent), || ());
            r.time("apriori.support_count", op, Some(parent), || ());
            r.end(parent);
        }
        assert_eq!(r.per_op_ms("apriori.support_count", 0, false).len(), 3);
        assert_eq!(r.per_op_ms("apriori.support_count", 1, true).len(), 2);
        assert_eq!(r.per_op_self_ms("window.push_unit", 0).len(), 3);
        r.count(0, "levels", 3);
        let mut bytes = Vec::new();
        r.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 9);
        assert!(text.lines().next().unwrap().ends_with(",\"levels\":3}"));
    }
}
