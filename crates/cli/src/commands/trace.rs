//! `car trace` — inspect distributed traces retained by a shard router.
//!
//! * `car trace --addr HOST:PORT` lists every retained trace (newest
//!   first) with its duration, span count, and retention reason.
//! * `car trace --addr HOST:PORT --id HEX` renders one assembled trace
//!   as an ASCII tree with per-span durations and attributes.
//! * `... --format chrome [--out FILE]` fetches the same trace as
//!   Chrome `trace_event` JSON, loadable in `chrome://tracing` or
//!   Perfetto.

use std::io::Write;

use car_serve::json::Json;
use car_serve::Client;

use crate::args::Args;
use crate::error::CliError;

/// The options [`run`] reads; any other is a usage error.
pub const OPTIONS: &[&str] = &["addr", "id", "format", "out"];

/// Runs the `trace` command against a router's `/v1/debug/traces`.
pub fn run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let addr = args
        .get("addr")
        .ok_or_else(|| CliError::Usage("trace requires --addr HOST:PORT".into()))?;
    let format = args.get("format").unwrap_or("tree");
    if !matches!(format, "tree" | "chrome") {
        return Err(CliError::Usage(format!(
            "invalid --format `{format}` (need tree or chrome)"
        )));
    }

    let mut client = Client::connect(addr)
        .map_err(|e| CliError::Usage(format!("cannot connect to {addr}: {e}")))?;
    let Some(id) = args.get("id") else {
        if format == "chrome" {
            return Err(CliError::Usage(
                "--format chrome requires --id HEX (one trace per export)".into(),
            ));
        }
        return list_traces(&mut client, out);
    };

    let target = if format == "chrome" {
        format!("/v1/debug/traces?trace_id={id}&format=chrome")
    } else {
        format!("/v1/debug/traces?trace_id={id}")
    };
    let resp = client
        .request("GET", &target, None)
        .map_err(|e| CliError::Usage(format!("request to {addr} failed: {e}")))?;
    if resp.status != 200 {
        return Err(CliError::Usage(format!(
            "router answered {}: {}",
            resp.status,
            resp.body_text().trim()
        )));
    }
    if format == "chrome" {
        let body = resp.body_text();
        match args.get("out") {
            Some(path) => {
                std::fs::write(path, &body)?;
                writeln!(
                    out,
                    "wrote {} bytes of trace_event JSON to {path}",
                    body.len()
                )?;
            }
            None => writeln!(out, "{body}")?,
        }
        return Ok(());
    }
    render_tree(&resp.body_text(), out)
}

/// Renders the trace listing as a table.
fn list_traces<W: Write>(client: &mut Client, out: &mut W) -> Result<(), CliError> {
    let resp = client
        .request("GET", "/v1/debug/traces", None)
        .map_err(|e| CliError::Usage(format!("request failed: {e}")))?;
    if resp.status != 200 {
        return Err(CliError::Usage(format!(
            "router answered {}: {}",
            resp.status,
            resp.body_text().trim()
        )));
    }
    let doc = Json::parse(&resp.body_text())
        .map_err(|e| CliError::Usage(format!("unparsable trace listing: {e}")))?;
    let traces: &[Json] = doc.get("traces").and_then(Json::as_array).unwrap_or(&[]);
    writeln!(out, "{} retained trace(s)", traces.len())?;
    if traces.is_empty() {
        return Ok(());
    }
    writeln!(out, "{:<34}{:>12}{:>7}  REASON", "TRACE ID", "DURATION", "SPANS")?;
    for t in traces {
        writeln!(
            out,
            "{:<34}{:>12}{:>7}  {}",
            t.get("trace_id").and_then(Json::as_str).unwrap_or("?"),
            format_us(t.get("duration_us").and_then(Json::as_u64).unwrap_or(0)),
            t.get("spans").and_then(Json::as_u64).unwrap_or(0),
            t.get("reason").and_then(Json::as_str).unwrap_or("?"),
        )?;
    }
    Ok(())
}

/// One span, reduced to what the tree renderer needs.
struct SpanRow {
    uid: String,
    parent: Option<String>,
    name: String,
    dur_us: u64,
    attrs: Vec<(String, String)>,
}

/// Renders one assembled trace as an ASCII tree.
fn render_tree<W: Write>(body: &str, out: &mut W) -> Result<(), CliError> {
    let doc = Json::parse(body)
        .map_err(|e| CliError::Usage(format!("unparsable trace body: {e}")))?;
    let trace_id = doc.get("trace_id").and_then(Json::as_str).unwrap_or("?");
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("?");
    let duration_us = doc.get("duration_us").and_then(Json::as_u64).unwrap_or(0);
    let spans: Vec<SpanRow> = doc
        .get("spans")
        .and_then(Json::as_array)
        .map(|spans| spans.iter().filter_map(parse_span).collect())
        .unwrap_or_default();
    writeln!(
        out,
        "trace {trace_id} ({reason}, {}, {} span(s))",
        format_us(duration_us),
        spans.len()
    )?;
    let Some(root) = spans.first() else {
        return Ok(());
    };
    print_subtree(&spans, &root.uid, "", out)
}

/// Prints `uid`'s span and, recursively, its children. Depth is bounded
/// by the span budget (assembly guarantees an acyclic tree).
fn print_subtree<W: Write>(
    spans: &[SpanRow],
    uid: &str,
    prefix: &str,
    out: &mut W,
) -> Result<(), CliError> {
    let Some(span) = spans.iter().find(|s| s.uid == uid) else {
        return Ok(());
    };
    let mut attrs = String::new();
    for (k, v) in &span.attrs {
        attrs.push_str("  ");
        attrs.push_str(k);
        attrs.push('=');
        attrs.push_str(v);
    }
    writeln!(out, "{prefix}{} {}{attrs}", span.name, format_us(span.dur_us))?;
    let children: Vec<&SpanRow> =
        spans.iter().filter(|s| s.parent.as_deref() == Some(uid)).collect();
    let child_prefix = child_indent(prefix);
    for (i, child) in children.iter().enumerate() {
        let connector = if i + 1 == children.len() { "└─ " } else { "├─ " };
        let pipe = if i + 1 == children.len() { "   " } else { "│  " };
        let head = format!("{child_prefix}{connector}");
        // Render the child line, then recurse with a prefix that keeps
        // the tree rails aligned under this connector.
        print_child(spans, &child.uid, &head, &format!("{child_prefix}{pipe}"), out)?;
    }
    Ok(())
}

/// Renders one child line and recurses into its children.
fn print_child<W: Write>(
    spans: &[SpanRow],
    uid: &str,
    head: &str,
    rail: &str,
    out: &mut W,
) -> Result<(), CliError> {
    let Some(span) = spans.iter().find(|s| s.uid == uid) else {
        return Ok(());
    };
    let mut attrs = String::new();
    for (k, v) in &span.attrs {
        attrs.push_str("  ");
        attrs.push_str(k);
        attrs.push('=');
        attrs.push_str(v);
    }
    writeln!(out, "{head}{} {}{attrs}", span.name, format_us(span.dur_us))?;
    let children: Vec<&SpanRow> =
        spans.iter().filter(|s| s.parent.as_deref() == Some(uid)).collect();
    for (i, child) in children.iter().enumerate() {
        let connector = if i + 1 == children.len() { "└─ " } else { "├─ " };
        let pipe = if i + 1 == children.len() { "   " } else { "│  " };
        print_child(
            spans,
            &child.uid,
            &format!("{rail}{connector}"),
            &format!("{rail}{pipe}"),
            out,
        )?;
    }
    Ok(())
}

/// The root's children indent from an empty prefix.
fn child_indent(prefix: &str) -> String {
    if prefix.is_empty() {
        String::new()
    } else {
        format!("{prefix}   ")
    }
}

fn parse_span(doc: &Json) -> Option<SpanRow> {
    Some(SpanRow {
        uid: doc.get("uid").and_then(Json::as_str)?.to_string(),
        parent: doc.get("parent").and_then(Json::as_str).map(str::to_string),
        name: doc.get("name").and_then(Json::as_str)?.to_string(),
        dur_us: doc.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
        attrs: doc
            .get("attrs")
            .and_then(|a| match a {
                Json::Object(fields) => Some(
                    fields
                        .iter()
                        .filter_map(|(k, v)| {
                            v.as_str().map(|v| (k.clone(), v.to_string()))
                        })
                        .collect(),
                ),
                _ => None,
            })
            .unwrap_or_default(),
    })
}

/// Human-readable microseconds: `17µs`, `4.2ms`, `1.78s`.
fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        // audit:allow(a1-div) reason="float division by a non-zero literal cannot panic"
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        // audit:allow(a1-div) reason="float division by a non-zero literal cannot panic"
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_us_picks_sensible_units() {
        assert_eq!(format_us(17), "17µs");
        assert_eq!(format_us(4_200), "4.2ms");
        assert_eq!(format_us(1_780_000), "1.78s");
    }

    #[test]
    fn tree_renders_nested_spans() {
        let body = r#"{
            "trace_id": "00000000000000000000000000000010",
            "reason": "sampled",
            "duration_us": 5000,
            "count": 3,
            "spans": [
                {"uid": "0000000000000001", "parent": null,
                 "name": "router.request", "start_us": 0, "dur_us": 5000,
                 "attrs": {"route": "rules"}},
                {"uid": "0000000000000002", "parent": "0000000000000001",
                 "name": "router.leg.rules", "start_us": 100, "dur_us": 4000,
                 "attrs": {"shard": "0", "outcome": "ok"}},
                {"uid": "0000000000000003", "parent": "0000000000000002",
                 "name": "serve.request", "start_us": 200, "dur_us": 3800,
                 "attrs": {}}
            ]
        }"#;
        let mut out = Vec::new();
        render_tree(body, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("trace 00000000000000000000000000000010"));
        assert!(text.contains("router.request 5.0ms  route=rules"));
        assert!(text.contains("└─ router.leg.rules 4.0ms  shard=0  outcome=ok"));
        assert!(text.contains("   └─ serve.request 3.8ms"));
    }

    #[test]
    fn sibling_rails_stay_aligned() {
        let body = r#"{
            "trace_id": "00000000000000000000000000000010",
            "reason": "slow", "duration_us": 100, "count": 3,
            "spans": [
                {"uid": "000000000000000a", "parent": null, "name": "root",
                 "start_us": 0, "dur_us": 100, "attrs": {}},
                {"uid": "000000000000000b", "parent": "000000000000000a",
                 "name": "first", "start_us": 0, "dur_us": 40, "attrs": {}},
                {"uid": "000000000000000c", "parent": "000000000000000a",
                 "name": "second", "start_us": 50, "dur_us": 40, "attrs": {}}
            ]
        }"#;
        let mut out = Vec::new();
        render_tree(body, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("├─ first"), "{text}");
        assert!(text.contains("└─ second"), "{text}");
    }
}
