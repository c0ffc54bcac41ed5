//! Comparing served rule sets with the batch oracle.
//!
//! Served bodies are read with the small JSON reader below rather than
//! the program's own parser, so the check neither depends on nor pays
//! for the code under test.

use std::collections::BTreeSet;

use car_core::CyclicRule;

/// A rule with its minimal cycles, as plain ids: `(antecedent,
/// consequent, [(length, offset)])`.
pub type RuleKey = (Vec<u32>, Vec<u32>, Vec<(u32, u32)>);

/// A parsed JSON value; only what rule bodies need.
enum Value {
    Number(f64),
    Text,
    Other,
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn id(&self) -> Option<u32> {
        match self {
            Value::Number(n)
                if n.fract() == 0.0 && *n >= 0.0 && *n <= f64::from(u32::MAX) =>
            {
                Some(*n as u32)
            }
            _ => None,
        }
    }
}

/// A linear-time reader for the subset of JSON the daemon emits
/// (strings are skipped except object keys, which carry no escapes).
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(String::from_utf8_lossy(&self.bytes[start..self.pos - 1])
                        .into_owned());
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.eat(b'}') {
                    return Ok(Value::Object(pairs));
                }
                loop {
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected `:` at byte {}", self.pos));
                    }
                    pairs.push((key, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Value::Object(pairs));
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected `,` at byte {}", self.pos));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected `,` at byte {}", self.pos));
                    }
                }
            }
            Some(b'"') => self.string().map(|_| Value::Text),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| !b",]} \t\r\n".contains(b))
                {
                    self.pos += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?;
                match token {
                    "true" | "false" | "null" => Ok(Value::Other),
                    _ => token
                        .parse()
                        .map(Value::Number)
                        .map_err(|_| format!("bad token `{token}`")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn parse(body: &[u8]) -> Result<Value, String> {
    let mut reader = Reader { bytes: body, pos: 0 };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != body.len() {
        return Err(format!("trailing bytes after byte {}", reader.pos));
    }
    Ok(value)
}

/// The rules of a `GET /v1/rules` body (single node or router).
///
/// # Errors
///
/// A message naming the first malformed field.
pub fn served_rules(body: &[u8]) -> Result<Vec<RuleKey>, String> {
    let doc = parse(body)?;
    let rules = doc.get("rules").and_then(Value::array).ok_or("missing rules")?;
    rules.iter().map(rule_key).collect()
}

fn ids(value: Option<&Value>) -> Result<Vec<u32>, String> {
    value
        .and_then(Value::array)
        .ok_or("missing id array")?
        .iter()
        .map(|v| v.id().ok_or_else(|| "bad id".to_string()))
        .collect()
}

fn rule_key(entry: &Value) -> Result<RuleKey, String> {
    let cycles = entry
        .get("cycles")
        .and_then(Value::array)
        .ok_or("missing cycles")?
        .iter()
        .map(|c| {
            let field = |name| c.get(name).and_then(Value::id);
            field("length").zip(field("offset")).ok_or_else(|| "bad cycle".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((ids(entry.get("antecedent"))?, ids(entry.get("consequent"))?, cycles))
}

/// The oracle's rules in the same shape as [`served_rules`].
pub fn oracle_rules(rules: &[CyclicRule]) -> Vec<RuleKey> {
    rules
        .iter()
        .map(|r| {
            let ids = |s: &car_itemset::ItemSet| s.iter().map(|i| i.id()).collect();
            let cycles = r.cycles.iter().map(|c| (c.length(), c.offset())).collect();
            (ids(&r.rule.antecedent), ids(&r.rule.consequent), cycles)
        })
        .collect()
}

/// Size of the symmetric difference of two rule sets. A rule served
/// with the wrong cycles counts twice: once as missing, once as extra.
pub fn symmetric_difference(served: &[RuleKey], oracle: &[RuleKey]) -> usize {
    let a: BTreeSet<&RuleKey> = served.iter().collect();
    let b: BTreeSet<&RuleKey> = oracle.iter().collect();
    a.symmetric_difference(&b).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: &[u32], c: &[u32], cycles: &[(u32, u32)]) -> RuleKey {
        (a.to_vec(), c.to_vec(), cycles.to_vec())
    }

    #[test]
    fn diff_counts_missing_extra_and_changed_rules() {
        let oracle = vec![key(&[1], &[2], &[(2, 0)]), key(&[3], &[4], &[(3, 1)])];
        assert_eq!(symmetric_difference(&oracle, &oracle), 0);
        assert_eq!(symmetric_difference(&oracle[..1], &oracle), 1);
        let extra = [oracle.clone(), vec![key(&[5], &[6], &[(4, 0)])]].concat();
        assert_eq!(symmetric_difference(&extra, &oracle), 1);
        let changed = vec![key(&[1], &[2], &[(2, 1)]), oracle[1].clone()];
        assert_eq!(symmetric_difference(&changed, &oracle), 2);
        // Order does not matter.
        let reversed: Vec<RuleKey> = oracle.iter().rev().cloned().collect();
        assert_eq!(symmetric_difference(&reversed, &oracle), 0);
    }

    #[test]
    fn served_body_parses_into_keys() {
        let body = br#"{"units_retained":64,"count":1,"rules":[{"rule":"{1} => {2}",
            "antecedent":[1],"consequent":[2],"cycles":[{"length":2,"offset":0}]}]}"#;
        assert_eq!(served_rules(body).unwrap(), vec![key(&[1], &[2], &[(2, 0)])]);
        assert!(served_rules(b"{\"count\":0}").is_err());
        assert!(served_rules(b"not json").is_err());
        assert!(served_rules(b"{\"rules\":[]} x").is_err());
        let escaped = br#"{"rules":[{"rule":"a\"b","antecedent":[3],"consequent":[4],"cycles":[]}],"ok":true}"#;
        assert_eq!(served_rules(escaped).unwrap(), vec![key(&[3], &[4], &[])]);
    }
}
