//! A minimal JSON value type with a recursive-descent parser and a
//! renderer.
//!
//! The serving layer needs JSON for request bodies and responses, and
//! the build environment has no route to a crates registry, so this is
//! hand-rolled: a small, strict subset-of-nothing implementation of RFC
//! 8259 sufficient for the daemon's wire format. Objects preserve
//! insertion order (rendered output is deterministic), numbers are
//! `f64`, and parsing enforces a nesting-depth limit so adversarial
//! bodies cannot blow the stack.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]. Deeper documents
/// are rejected with a parse error (the daemon maps it to a 400) well
/// before the recursive parser could exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Parse failures, with enough context for a useful 400 body.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: input, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => render_number(*n, out),
            Json::String(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Number(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Number(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Number(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Number(f64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::String(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::String(v)
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn object<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-bad encoding.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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

/// Whether `text` is one number under RFC 8259's grammar,
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`. It rules out
/// what `f64::from_str` would also take: leading zeros (`007`), a bare
/// point (`1.`, `.5`) and a missing integer part.
fn is_number(text: &[u8]) -> bool {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let rest = text.strip_prefix(b"-").unwrap_or(text);
    let int = match rest.first() {
        Some(b'0') => 1,
        Some(b'1'..=b'9') => digits(rest),
        _ => return false,
    };
    let mut rest = rest.get(int..).unwrap_or_default();
    if let Some(fraction) = rest.strip_prefix(b".") {
        let n = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = fraction.get(n..).unwrap_or_default();
    }
    if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exponent = exponent
            .strip_prefix(b"+")
            .or_else(|| exponent.strip_prefix(b"-"))
            .unwrap_or(exponent);
        let n = digits(exponent);
        if n == 0 {
            return false;
        }
        rest = exponent.get(n..).unwrap_or_default();
    }
    rest.is_empty()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Everything from the cursor to the end of input (empty once past
    /// the end, so callers never index out of bounds).
    fn rest(&self) -> &'a [u8] {
        self.bytes().get(self.pos..).unwrap_or(&[])
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.rest().starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected `{text}`)")))
        }
    }

    /// A number: the run of number bytes at the cursor, which must match
    /// the grammar in full (see [`is_number`]).
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = self.bytes().get(start..self.pos).unwrap_or(&[]);
        let text = std::str::from_utf8(raw).map_err(|_| self.err("invalid number"))?;
        let invalid =
            || JsonError { offset: start, message: format!("invalid number `{text}`") };
        if !is_number(raw) {
            return Err(invalid());
        }
        let n: f64 = text.parse().map_err(|_| invalid())?;
        if !n.is_finite() {
            return Err(JsonError {
                offset: start,
                message: format!("number `{text}` overflows"),
            });
        }
        Ok(Json::Number(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. Those bytes are all ASCII,
                    // so the run ends on a char boundary of the input.
                    let run = self
                        .rest()
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.rest().len());
                    let end = self.pos + run;
                    let Some(chunk) = self.text.get(self.pos..end) else {
                        return Err(self.err("invalid UTF-8"));
                    };
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Combine surrogate pairs; unpaired surrogates are an error.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.rest().starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let cp = 0x10000
                        + ((u32::from(first) - 0xD800) << 10)
                        + (u32::from(second) - 0xDC00);
                    return char::from_u32(cp)
                        .ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(u32::from(first)).ok_or_else(|| self.err("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        let Some(raw) = self.bytes().get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        let text =
            std::str::from_utf8(raw).map_err(|_| self.err("invalid \\u escape"))?;
        let v =
            u16::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (good, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("1.5", 1.5),
            ("1e2", 100.0),
            ("1E+2", 100.0),
            ("-0.5e-3", -0.0005),
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Number(value)), "{good}");
        }
        for bad in ["007", "-01", "00", "1.", "1.e5", "-.5", "1e", "-"] {
            let err = Json::parse(bad).expect_err(bad);
            assert_eq!(err.message, format!("invalid number `{bad}`"));
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""line\n\ttab \"q\" \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("line\n\ttab \"q\" é 😀"));
        let rendered = Json::String("a\"b\\c\nd\u{1}".into()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\" 1}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 10) + &"]".repeat(MAX_DEPTH + 10);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn renders_deterministically() {
        let v = object([
            ("b", Json::from(1u64)),
            ("a", Json::Array(vec![Json::Null, Json::from(true)])),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[null,true]}"#);
    }

    #[test]
    fn number_accessors() {
        assert_eq!(Json::Number(3.0).as_u64(), Some(3));
        assert_eq!(Json::Number(3.5).as_u64(), None);
        assert_eq!(Json::Number(-1.0).as_u64(), None);
        assert_eq!(Json::Number(0.25).as_f64(), Some(0.25));
        assert_eq!(Json::Bool(true).as_u64(), None);
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // Multi-byte characters and escapes spread through a 1 MiB value:
        // the parser once re-validated the rest of the input per
        // character, which took tens of seconds at this size.
        let chunk = "rule {1} => {2} é 😀 \\n";
        let value: String = chunk.repeat((1 << 20) / chunk.len() + 1);
        assert!(value.len() >= 1 << 20);
        let body = Json::String(value.clone()).render();
        let started = std::time::Instant::now();
        assert_eq!(Json::parse(&body).unwrap().as_str(), Some(value.as_str()));
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn megabyte_rules_body_parses_in_linear_time() {
        // A `/v1/rules`-shaped body the router parses on every fan-out.
        let rule = |i: u64| {
            object([
                ("rule", Json::from(format!("{{{i}}} => {{{}}}", i + 1))),
                ("antecedent", Json::Array(vec![Json::from(i)])),
                ("consequent", Json::Array(vec![Json::from(i + 1)])),
                (
                    "cycles",
                    Json::Array(vec![object([
                        ("length", Json::from(2u64)),
                        ("offset", Json::from(i % 2)),
                    ])]),
                ),
            ])
        };
        let rules: Vec<Json> = (0..12_000).map(rule).collect();
        let count = rules.len() as u64;
        let body = object([
            ("units_retained", Json::from(64u64)),
            ("window", Json::from(64u64)),
            ("count", Json::from(count)),
            ("rules", Json::Array(rules)),
        ])
        .render();
        assert!(body.len() >= 1 << 20, "body is only {} bytes", body.len());
        let started = std::time::Instant::now();
        let parsed = Json::parse(&body).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(count));
        assert_eq!(parsed.render(), body);
    }

    #[test]
    fn render_parse_round_trip() {
        let v = object([
            (
                "rules",
                Json::Array(vec![object([
                    ("rule", Json::from("{1} => {2}")),
                    ("confidence", Json::from(0.75)),
                ])]),
            ),
            ("count", Json::from(1u64)),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
