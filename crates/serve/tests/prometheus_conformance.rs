//! Prometheus text-exposition conformance for `/metrics`.
//!
//! Scrapes a live daemon under load and checks the properties a real
//! Prometheus server relies on: each metric family is declared exactly
//! once, every sample belongs to a declared family and uses only the
//! sample shapes its type allows, every value parses, counters are
//! monotone across consecutive scrapes, and counters, and only counters,
//! end in `_total`.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use car_serve::json::Json;
use car_serve::{serve, Client, ServerConfig};

fn test_server() -> car_serve::ServerHandle {
    let mining = car_core::MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(0.6)
        .cycle_bounds(2, 4)
        .build()
        .expect("valid mining config");
    serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        window: 8,
        queue_capacity: 32,
        mining,
        io_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("server boots on an ephemeral port")
}

/// One parsed exposition: family name → declared type, and full sample
/// key (name + labels) → value.
struct Exposition {
    types: BTreeMap<String, String>,
    samples: BTreeMap<String, f64>,
}

/// Parses the exposition text, failing the test on any malformed line,
/// duplicate declaration, or sample that does not fit its family's type.
fn parse_and_check(text: &str) -> Exposition {
    let mut helps = BTreeSet::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a metric");
            assert!(helps.insert(name.to_string()), "duplicate HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a metric").to_string();
            let kind = parts.next().expect("TYPE declares a kind").to_string();
            assert!(
                ["counter", "gauge", "histogram", "summary"].contains(&kind.as_str()),
                "unknown metric type `{kind}` for {name}"
            );
            assert!(
                types.insert(name.clone(), kind).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unrecognised comment line: {line}");

        // Sample: `name value` or `name{labels} value`.
        let (key, value_text) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed sample: {line}"));
        let value: f64 =
            value_text.parse().unwrap_or_else(|_| panic!("unparseable value in: {line}"));
        let base = key.split('{').next().expect("sample has a name");

        // Resolve the owning family and check the sample shape fits the
        // declared type.
        let family = family_candidates(base)
            .find(|candidate| types.contains_key(candidate))
            .unwrap_or_else(|| panic!("sample `{base}` has no TYPE declaration"));
        let kind = types.get(&family).expect("family resolved above").as_str();
        let suffix = base.strip_prefix(family.as_str()).expect("family is a prefix");
        let allowed: &[&str] = match kind {
            "counter" | "gauge" => &[""],
            "histogram" => &["_bucket", "_sum", "_count"],
            "summary" => &["", "_sum", "_count"],
            _ => unreachable!(),
        };
        assert!(
            allowed.contains(&suffix),
            "sample `{base}` (suffix `{suffix}`) not allowed for {kind} `{family}`"
        );
        if kind == "counter" {
            assert!(value >= 0.0, "negative counter in: {line}");
        }
        assert!(
            samples.insert(key.to_string(), value).is_none(),
            "duplicate sample key: {key}"
        );
    }

    // Every declared family has a matching HELP (and vice versa).
    let type_names: BTreeSet<String> = types.keys().cloned().collect();
    assert_eq!(helps, type_names, "HELP and TYPE declarations must pair up");
    Exposition { types, samples }
}

/// Counters exported without the `_total` suffix, under the names the
/// benchmark reads; renaming them changes the benchmark too.
const BARE_COUNTERS: [&str; 2] = ["car_query_cache_hits", "car_query_cache_misses"];

/// Counters, and only counters, end in `_total`, except the
/// [`BARE_COUNTERS`], which stay exported under their bare names.
fn assert_total_suffix_rule(types: &BTreeMap<String, String>) {
    for (name, kind) in types {
        let suffixed = name.ends_with("_total") || BARE_COUNTERS.contains(&name.as_str());
        assert_eq!(
            kind == "counter",
            suffixed,
            "{kind} `{name}`: counters, and only counters, end in `_total`"
        );
    }
    for name in BARE_COUNTERS {
        assert_eq!(
            types.get(name).map(String::as_str),
            Some("counter"),
            "`{name}` is no longer exported under its bare name"
        );
    }
}

/// Family names a sample base name could belong to: itself, then itself
/// minus each cumulative-sample suffix.
fn family_candidates(base: &str) -> impl Iterator<Item = String> + '_ {
    std::iter::once(base.to_string()).chain(
        ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(move |s| base.strip_suffix(s).map(str::to_string)),
    )
}

/// The family a sample key belongs to, resolved against declared types.
fn family_of<'a>(key: &str, types: &'a BTreeMap<String, String>) -> (&'a str, &'a str) {
    let base = key.split('{').next().expect("sample has a name");
    for candidate in family_candidates(base) {
        if let Some((name, kind)) = types.get_key_value(&candidate) {
            return (name.as_str(), kind.as_str());
        }
    }
    panic!("sample `{key}` has no family");
}

fn scrape(client: &mut Client) -> String {
    let resp = client.request("GET", "/metrics", None).expect("scrape /metrics");
    assert_eq!(resp.status, 200);
    resp.body_text()
}

fn drive_load(client: &mut Client, addr: &str, units: std::ops::Range<u64>) {
    for seq in units {
        let tx = Json::Array(vec![
            Json::Array(vec![Json::from(1u64), Json::from(2u64)]),
            Json::Array(vec![Json::from(3u64)]),
        ]);
        let body =
            Json::Object(vec![("transactions".to_string(), tx)]).render().into_bytes();
        let resp = client
            .request("POST", "/v1/units?wait=true", Some(&body))
            .expect("ingest unit");
        assert_eq!(resp.status, 200, "unit {seq}: {}", resp.body_text());
    }
    for path in ["/v1/health", "/v1/rules", "/v1/debug/profile", "/v1/debug/events"] {
        let resp = client.request("GET", path, None).expect("query");
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_text());
    }
    // One malformed request, so the parse-error path shows up in the
    // request counters too (satellite S1).
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"garbage\r\n\r\n").expect("write garbage");
    let mut reply = String::new();
    let _ = raw.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
}

#[test]
fn metrics_exposition_is_conformant_and_counters_are_monotonic() {
    let handle = test_server();
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr).expect("client connects");

    drive_load(&mut client, &addr, 0..6);
    let first = parse_and_check(&scrape(&mut client));
    drive_load(&mut client, &addr, 6..12);
    let second = parse_and_check(&scrape(&mut client));

    assert_eq!(first.types, second.types, "family declarations must be stable");
    assert_total_suffix_rule(&second.types);

    // Counters (and histogram/summary cumulative samples) never move
    // backwards between scrapes.
    for (key, &v1) in &first.samples {
        let (family, kind) = family_of(key, &first.types);
        if kind == "gauge" {
            continue;
        }
        let v2 = *second
            .samples
            .get(key)
            .unwrap_or_else(|| panic!("{kind} sample `{key}` vanished"));
        assert!(
            v2 >= v1,
            "{kind} `{family}` sample `{key}` went backwards: {v1} -> {v2}"
        );
    }

    // The load must actually be visible: requests counted (including the
    // malformed one under the catch-all route), units ingested, and the
    // window's online-maintenance counter families present.
    let served: f64 = second
        .samples
        .iter()
        .filter(|(k, _)| k.starts_with("car_http_requests_total"))
        .map(|(_, v)| *v)
        .sum();
    assert!(served >= 20.0, "expected the driven load in request totals: {served}");
    assert!(second.samples.get("car_http_parse_errors_total") > Some(&0.0));
    assert!(
        second.samples.get("car_http_requests_total{route=\"other\",status=\"4xx\"}")
            > Some(&0.0),
        "parse failures must appear under the catch-all route"
    );
    assert!(second.samples.get("car_units_ingested_total") >= Some(&12.0));
    for family in [
        "car_mine_online_holds_total",
        "car_mine_online_eliminations_total",
        "car_span_duration_seconds",
    ] {
        assert!(second.types.contains_key(family), "missing family {family}");
    }
    // Each driven unit, {1,2} and {3}, folds 4 large itemsets: {1}, {2},
    // {3} and {1,2}.
    assert_eq!(
        second.samples.get("car_mine_online_holds_total"),
        Some(&48.0),
        "12 units fold 48 holds"
    );

    handle.trigger_shutdown();
    handle.wait();
}
