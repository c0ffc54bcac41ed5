//! Property tests for the split ingest-body parser.
//!
//! `parse_units_body` reads a canonical body in one pass
//! (`scan_units_body`) and hands every other body to the JSON tree
//! (`parse_units_json`). The split is only sound if it is invisible:
//! the scanner must take every canonical body and return exactly what
//! the tree returns, and on every other body — odd but valid, or
//! hostile — `parse_units_body` must return exactly what the tree
//! returns, the same units or an error with the same message. The
//! scanner never rejects; only the tree does.

use car_itemset::ItemSet;
use car_serve::routes::{parse_units_body, parse_units_json, scan_units_body};
use proptest::prelude::*;

/// Units as id tokens, so a hostile token can replace any id.
type Tokens = Vec<Vec<Vec<String>>>;

fn arb_id() -> impl Strategy<Value = u32> {
    // Small ids repeat within a transaction; the rest reach u32::MAX.
    (0u32..3, any::<u32>()).prop_map(|(kind, id)| match kind {
        0 => id % 8,
        1 => u32::MAX,
        _ => id,
    })
}

fn arb_units() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    let tx = proptest::collection::vec(arb_id(), 0..5);
    let unit = proptest::collection::vec(tx, 0..4);
    proptest::collection::vec(unit, 1..4)
}

/// Runs of JSON whitespace, taken in turn before every token.
fn arb_ws() -> impl Strategy<Value = Vec<String>> {
    let piece = proptest::collection::vec(0usize..4, 0..3).prop_map(|picks| {
        picks.into_iter().map(|i| [' ', '\t', '\n', '\r'][i]).collect()
    });
    proptest::collection::vec(piece, 1..16)
}

/// The id tokens of the units a body shows: all of them in the batch
/// form, the first alone in the single form.
fn tokens(units: &[Vec<Vec<u32>>], batch: bool) -> Tokens {
    let shown = if batch { units.len() } else { 1 };
    units
        .iter()
        .take(shown)
        .map(|unit| {
            unit.iter().map(|tx| tx.iter().map(u32::to_string).collect()).collect()
        })
        .collect()
}

/// Renders `units` (as a batch, or the first one alone) with the
/// whitespace runs of `ws` between tokens and `key` as each unit's key.
fn render(units: &Tokens, batch: bool, ws: &[String], key: &str) -> Vec<u8> {
    let mut gaps = ws.iter().cycle();
    let mut out = String::new();
    let mut put = |token: &str| {
        out.push_str(gaps.next().map_or("", String::as_str));
        out.push_str(token);
    };
    if batch {
        put("[");
    }
    for (u, unit) in units.iter().enumerate() {
        if u > 0 {
            put(",");
        }
        put("{");
        put(key);
        put(":");
        put("[");
        for (t, tx) in unit.iter().enumerate() {
            if t > 0 {
                put(",");
            }
            put("[");
            for (i, id) in tx.iter().enumerate() {
                if i > 0 {
                    put(",");
                }
                put(id);
            }
            put("]");
        }
        put("]");
        put("}");
    }
    if batch {
        put("]");
    }
    put("");
    out.into_bytes()
}

const KEY: &str = "\"transactions\"";

/// Replaces the `pick`-th id token (mod the id count) with `token`, or
/// adds a transaction holding only `token` when there is no id.
fn inject(mut units: Tokens, pick: usize, token: &str) -> Tokens {
    let ids: usize = units.iter().flatten().map(Vec::len).sum();
    if ids == 0 {
        if let Some(first) = units.first_mut() {
            first.push(vec![token.to_string()]);
        }
        return units;
    }
    let mut left = pick % ids;
    for tx in units.iter_mut().flatten() {
        if left < tx.len() {
            if let Some(id) = tx.get_mut(left) {
                *id = token.to_string();
            }
            return units;
        }
        left -= tx.len();
    }
    units
}

/// The split's contract on any body: the scanner returns the tree's
/// units or steps aside, and `parse_units_body` answers as the tree.
fn assert_split_agrees(body: &[u8]) -> Result<(), TestCaseError> {
    let tree = parse_units_json(body);
    if let Some(scanned) = scan_units_body(body) {
        prop_assert_eq!(Ok(scanned), tree.clone(), "{}", String::from_utf8_lossy(body));
    }
    prop_assert_eq!(parse_units_body(body), tree, "{}", String::from_utf8_lossy(body));
    Ok(())
}

/// Ids the tree reads (`-0`, `1.0`, `1e2`) or rejects (the rest), none
/// of which the scanner takes.
const HOSTILE_IDS: [&str; 6] =
    ["-0", "1.0", "1e2", "-1", "4294967296", "1234567890123456789012345"];

fn hostile_id() -> impl Strategy<Value = String> {
    (0..HOSTILE_IDS.len()).prop_map(|i| HOSTILE_IDS[i].to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scanner_takes_every_canonical_body_and_agrees_with_the_tree(
        units in arb_units(),
        batch in any::<bool>(),
        ws in arb_ws(),
    ) {
        let body = render(&tokens(&units, batch), batch, &ws, KEY);
        let tree = parse_units_json(&body);
        let scanned = scan_units_body(&body);
        prop_assert!(scanned.is_some(), "{}", String::from_utf8_lossy(&body));
        prop_assert_eq!(Ok(scanned.clone().unwrap_or_default()), tree.clone());
        prop_assert_eq!(parse_units_body(&body), tree);
        // The units are the ids as sent, one item set per transaction.
        let shown = if batch { units.len() } else { 1 };
        let expected: Vec<Vec<ItemSet>> = units
            .iter()
            .take(shown)
            .map(|unit| unit.iter().map(|tx| ItemSet::from_ids(tx.clone())).collect())
            .collect();
        prop_assert_eq!(scanned, Some((expected, batch)));
    }

    #[test]
    fn hostile_ids_get_the_trees_answer(
        units in arb_units(),
        batch in any::<bool>(),
        ws in arb_ws(),
        pick in any::<usize>(),
        token in hostile_id(),
    ) {
        let body = render(&inject(tokens(&units, batch), pick, &token), batch, &ws, KEY);
        prop_assert_eq!(scan_units_body(&body), None, "{}", String::from_utf8_lossy(&body));
        assert_split_agrees(&body)?;
    }

    #[test]
    fn odd_keys_get_the_trees_answer(
        units in arb_units(),
        batch in any::<bool>(),
        ws in arb_ws(),
        variant in 0usize..3,
    ) {
        let canonical = render(&tokens(&units, batch), batch, &ws, KEY);
        let text = String::from_utf8(canonical).unwrap();
        let body = match variant {
            // An extra key after the transactions.
            0 => text.replacen('}', ",\"note\":\"x\"}", 1),
            // A duplicate key: the tree keeps the first.
            1 => text.replacen('}', ",\"transactions\":[[9]]}", 1),
            // The key spelled with an escape.
            _ => text.replacen(KEY, "\"\\u0074ransactions\"", 1),
        };
        prop_assert_eq!(scan_units_body(body.as_bytes()), None, "{}", body);
        assert_split_agrees(body.as_bytes())?;
    }

    #[test]
    fn truncations_and_stray_bytes_get_the_trees_answer(
        units in arb_units(),
        batch in any::<bool>(),
        ws in arb_ws(),
        at in any::<usize>(),
    ) {
        let body = render(&tokens(&units, batch), batch, &ws, KEY);
        for cut in 0..body.len() {
            assert_split_agrees(&body[..cut])?;
        }
        let mut stray = body.clone();
        stray.insert(at % (body.len() + 1), 0xff);
        prop_assert_eq!(scan_units_body(&stray), None);
        assert_split_agrees(&stray)?;
    }
}

#[test]
fn odd_but_valid_bodies_keep_their_meaning() {
    let cases: [(&str, Vec<ItemSet>); 6] = [
        (r#"{"transactions":[[-0,1.0,1e2]]}"#, vec![ItemSet::from_ids([0, 1, 100])]),
        (r#"{"transactions":[[007]]}"#, vec![ItemSet::from_ids([7])]),
        (r#"{"transactions":[[1,1,2]],"note":"x"}"#, vec![ItemSet::from_ids([1, 2])]),
        (r#"{"transactions":[[1]],"transactions":[[2]]}"#, vec![ItemSet::from_ids([1])]),
        (r#"{"\u0074ransactions":[[3]]}"#, vec![ItemSet::from_ids([3])]),
        (
            r#" { "transactions" : [ [ 4294967295 ] , [ ] ] } "#,
            vec![ItemSet::from_ids([u32::MAX]), ItemSet::from_ids(Vec::<u32>::new())],
        ),
    ];
    for (body, unit) in cases {
        assert_eq!(parse_units_body(body.as_bytes()), Ok((vec![unit], false)), "{body}");
    }
}

#[test]
fn every_rejection_comes_from_the_tree() {
    let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
    let deep_tx =
        format!(r#"{{"transactions":[{}1{}]}}"#, "[".repeat(200), "]".repeat(200));
    let bodies: Vec<Vec<u8>> = vec![
        br#"{"transactions":[[-1]]}"#.to_vec(),
        br#"{"transactions":[[4294967296]]}"#.to_vec(),
        br#"{"transactions":[[1234567890123456789012345]]}"#.to_vec(),
        br#"{"transactions":[[1]]"#.to_vec(),
        br#"{"transactions":[[1]]} x"#.to_vec(),
        b"{\"transactions\":[[1\xff]]}".to_vec(),
        deep.into_bytes(),
        deep_tx.into_bytes(),
        b"".to_vec(),
        b"{}".to_vec(),
    ];
    for body in bodies {
        assert_eq!(scan_units_body(&body), None, "{}", String::from_utf8_lossy(&body));
        let answer = parse_units_body(&body);
        assert!(answer.is_err(), "{}", String::from_utf8_lossy(&body));
        assert_eq!(answer, parse_units_json(&body));
    }
}
