//! Helpers shared by the daemon's integration tests: the mining
//! configuration they serve, the ingest wire format, and the canonical
//! rule sets that compare a served answer with batch mining.

use std::collections::BTreeSet;

use car_core::{CyclicRule, MiningConfig};
use car_itemset::ItemSet;
use car_serve::json::Json;

/// Units the test daemons retain.
pub const WINDOW: usize = 8;

/// A rule as `(rendered rule, [(length, offset)])`, comparable across a
/// served body and a batch mine.
pub type RuleSet = BTreeSet<(String, Vec<(u64, u64)>)>;

/// Support 0.2 and cycles 2..4 at `min_confidence`.
pub fn mining_config(min_confidence: f64) -> MiningConfig {
    MiningConfig::builder()
        .min_support_fraction(0.2)
        .min_confidence(min_confidence)
        .cycle_bounds(2, 4)
        .build()
        .unwrap()
}

/// One time unit as the ingest wire format's JSON.
pub fn unit_json(unit: &[ItemSet]) -> Json {
    let transactions = Json::Array(
        unit.iter()
            .map(|tx| Json::Array(tx.iter().map(|item| Json::from(item.id())).collect()))
            .collect(),
    );
    Json::Object(vec![("transactions".to_string(), transactions)])
}

/// One time unit as an ingest body.
pub fn unit_body(unit: &[ItemSet]) -> Vec<u8> {
    unit_json(unit).render().into_bytes()
}

/// Canonicalises a rules payload (server JSON) for comparison.
pub fn served_rules(doc: &Json) -> RuleSet {
    doc.get("rules")
        .and_then(Json::as_array)
        .expect("rules array")
        .iter()
        .map(|r| {
            let name = r.get("rule").and_then(Json::as_str).unwrap().to_string();
            let cycles = r
                .get("cycles")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|c| {
                    (
                        c.get("length").and_then(Json::as_u64).unwrap(),
                        c.get("offset").and_then(Json::as_u64).unwrap(),
                    )
                })
                .collect();
            (name, cycles)
        })
        .collect()
}

/// Canonicalises batch-mined rules the same way.
pub fn batch_rules(rules: &[CyclicRule]) -> RuleSet {
    rules
        .iter()
        .map(|r| {
            (
                r.rule.to_string(),
                r.cycles
                    .iter()
                    .map(|c| (u64::from(c.length()), u64::from(c.offset())))
                    .collect(),
            )
        })
        .collect()
}
