//! A3: checked-arithmetic lint for counting kernels.
//!
//! Support and confidence in the mining kernels are `u32`/`u64`
//! accumulators incremented once per matching transaction. On debug
//! builds an overflow panics; on release it silently wraps, which turns
//! a hot itemset's support into garbage — exactly the kind of error the
//! cycle detectors would then faithfully propagate. The lint therefore
//! requires `saturating_*` / `checked_*` forms for arithmetic on
//! counter-flavoured bindings.
//!
//! The pass is name-driven (no type information): a `+=` / `*=` /
//! binary `+` / `*` statement is flagged only when an identifier on its
//! left-hand side looks like a counter — its name contains one of
//! `COUNTER_MARKERS` (case-insensitive). Loop indices (`i += 1`,
//! `j += 1`) never match and stay idiomatic.

use crate::findings::{lints, Finding};
use crate::lexer::{Token, TokenKind};

/// Substrings that mark an identifier as a support/confidence counter.
const COUNTER_MARKERS: [&str; 8] =
    ["count", "support", "total", "sum", "freq", "stamp", "level", "pushed"];

fn is_counter_ident(t: &Token) -> bool {
    if t.kind != TokenKind::Ident {
        return false;
    }
    let lower = t.text.to_ascii_lowercase();
    COUNTER_MARKERS.iter().any(|m| lower.contains(m))
}

/// Runs the A3 pass over a test-stripped token stream.
pub fn check(file: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_punct("+=") || t.is_punct("*=") || t.is_punct("+") || t.is_punct("*")) {
            continue;
        }
        // Binary `+`/`*` only: `*` as deref/raw-pointer sigil and unary
        // `+` don't exist after an expression-ending token.
        if t.is_punct("+") || t.is_punct("*") {
            let prev_ends_expr =
                i.checked_sub(1).and_then(|p| tokens.get(p)).is_some_and(|p| {
                    matches!(p.kind, TokenKind::Ident | TokenKind::Num)
                        || p.is_punct(")")
                        || p.is_punct("]")
                });
            if !prev_ends_expr {
                continue;
            }
            // `$(...)+` / `$(...)*` are macro-rules repetition operators,
            // not arithmetic: skip a `+`/`*` whose preceding `)` closes a
            // group opened by `$(`.
            if tokens.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(")"))
                && is_macro_repetition(tokens, i - 1)
            {
                continue;
            }
        }
        // Look back across the statement's left-hand side for a
        // counter-flavoured identifier.
        let mut k = i;
        let mut lhs_is_counter = false;
        while k > 0 {
            let p = &tokens[k - 1];
            if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") || p.is_punct("=") {
                break;
            }
            if is_counter_ident(p) {
                lhs_is_counter = true;
                break;
            }
            k -= 1;
        }
        if !lhs_is_counter {
            continue;
        }
        out.push(Finding {
            file: file.to_string(),
            line: t.line,
            lint: lints::A3_UNCHECKED,
            snippet: t.text.clone(),
            message: format!(
                "unchecked `{}` on a counter; use saturating_add/saturating_mul (or checked_*)",
                t.text
            ),
        });
    }
}

/// Whether the `)` at `close` ends a macro repetition group, i.e. its
/// matching `(` is immediately preceded by `$`.
fn is_macro_repetition(tokens: &[Token], close: usize) -> bool {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        let t = &tokens[j];
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            depth -= 1;
            if depth == 0 {
                return j > 0 && tokens[j - 1].is_punct("$");
            }
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};

    fn lints_of(src: &str) -> Vec<&'static str> {
        let mut out = Vec::new();
        check("f.rs", &strip_test_code(lex(src).tokens), &mut out);
        out.into_iter().map(|f| f.lint).collect()
    }

    #[test]
    fn flags_counter_increments() {
        assert_eq!(lints_of("counts[i] += 1;"), [lints::A3_UNCHECKED]);
        assert_eq!(lints_of("stats.support_total += n;"), [lints::A3_UNCHECKED]);
        assert_eq!(lints_of("self.next_stamp += 1;"), [lints::A3_UNCHECKED]);
    }

    #[test]
    fn loop_indices_are_exempt() {
        assert!(lints_of("i += 1; j += 1; k += 1;").is_empty());
        assert!(lints_of("offset += stride;").is_empty());
    }

    #[test]
    fn flags_binary_plus_on_counters() {
        assert_eq!(lints_of("let t = count + extra;"), [lints::A3_UNCHECKED]);
        assert!(lints_of("let t = count.saturating_add(extra);").is_empty());
    }

    #[test]
    fn macro_repetition_operators_are_not_arithmetic() {
        assert!(lints_of(
            "macro_rules! m { ($level:expr, $($arg:tt)+) => { f($($arg)+) }; }"
        )
        .is_empty());
        assert!(lints_of("macro_rules! m { ($($count:expr),*) => { g($($count),*) }; }")
            .is_empty());
        // A real addition whose right operand is parenthesised still trips.
        assert_eq!(lints_of("let t = (count) + extra;"), [lints::A3_UNCHECKED]);
    }

    #[test]
    fn deref_and_generics_do_not_trip_star() {
        assert!(lints_of("let v = *ptr;").is_empty());
        assert!(lints_of("fn f(x: &mut u64) { *x = 1; }").is_empty());
        // `a * b` with non-counter names is fine too
        assert!(lints_of("let area = w * h;").is_empty());
    }

    #[test]
    fn flags_multiplication_of_counters() {
        assert_eq!(lints_of("let c = freq * weight;"), [lints::A3_UNCHECKED]);
    }
}
