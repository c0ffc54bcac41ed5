//! Fixture corpus tests: every seeded violation is reported with the
//! expected lint id and line, and every clean counterpart audits clean.
//!
//! The fixtures live under `tests/fixtures/` (not compiled by cargo)
//! and are audited with a config scoping exactly one lint family at the
//! file under test, mirroring how the real scopes pin lints to paths.

use std::path::Path;

use car_audit::{run_audit, run_audit_with, AuditConfig, Finding, RunOptions};

fn audit_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    format!("tests/fixtures/{name}")
}

fn audit_a1(name: &str) -> Vec<Finding> {
    let config = AuditConfig { a1: vec![fixture(name)], ..Default::default() };
    run_audit(audit_root(), &config).expect("audit runs")
}

fn audit_a2(name: &str) -> Vec<Finding> {
    let config = AuditConfig { a2: vec![fixture(name)], ..Default::default() };
    run_audit(audit_root(), &config).expect("audit runs")
}

fn audit_a3(name: &str) -> Vec<Finding> {
    let config = AuditConfig { a3: vec![fixture(name)], ..Default::default() };
    run_audit(audit_root(), &config).expect("audit runs")
}

fn audit_a4(name: &str) -> Vec<Finding> {
    let config = AuditConfig { a4: vec![fixture(name)], ..Default::default() };
    run_audit(audit_root(), &config).expect("audit runs")
}

fn audit_a5(name: &str) -> Vec<Finding> {
    let config = AuditConfig { a5: vec![fixture(name)], ..Default::default() };
    run_audit(audit_root(), &config).expect("audit runs")
}

fn audit_a6(name: &str) -> Vec<Finding> {
    let config = AuditConfig { a6: vec![fixture(name)], ..Default::default() };
    run_audit(audit_root(), &config).expect("audit runs")
}

fn lint_lines(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.lint, f.line)).collect()
}

#[test]
fn a1_bad_reports_every_panicking_construct_with_exact_lines() {
    let findings = audit_a1("a1_bad.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![
            ("a1-unwrap", 5),
            ("a1-expect", 9),
            ("a1-panic", 13),
            ("a1-todo", 17),
            ("a1-index", 21),
            ("a1-div", 25),
        ],
        "findings: {findings:#?}"
    );
}

#[test]
fn a1_clean_audits_clean() {
    let findings = audit_a1("a1_clean.rs");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn a2_bad_reports_cycle_and_blocking_with_exact_lines() {
    let findings = audit_a2("a2_bad.rs");
    let lints = lint_lines(&findings);
    assert!(
        lints.contains(&("a2-order", 16)),
        "expected the reverse acquisition on line 16 to close the cycle: {findings:#?}"
    );
    assert!(
        lints.contains(&("a2-blocking", 21)),
        "expected recv() under lock on line 21: {findings:#?}"
    );
    assert_eq!(findings.len(), 2, "findings: {findings:#?}");
    let order = findings.iter().find(|f| f.lint == "a2-order").expect("order finding");
    assert!(order.snippet.contains("first") && order.snippet.contains("second"));
}

#[test]
fn a2_clean_audits_clean() {
    let findings = audit_a2("a2_clean.rs");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn a3_bad_reports_unchecked_counter_arithmetic_with_exact_lines() {
    let findings = audit_a3("a3_bad.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![("a3-unchecked", 6), ("a3-unchecked", 7), ("a3-unchecked", 11)],
        "findings: {findings:#?}"
    );
}

#[test]
fn a3_clean_audits_clean() {
    let findings = audit_a3("a3_clean.rs");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn a4_bad_reports_discarded_io_with_exact_lines() {
    let findings = audit_a4("a4_bad.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![("a4-discard", 4), ("a4-discard", 8)],
        "findings: {findings:#?}"
    );
}

#[test]
fn a4_clean_audits_clean() {
    let findings = audit_a4("a4_clean.rs");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn a5_bad_reports_every_tainted_sink_with_exact_lines() {
    let findings = audit_a5("a5_bad.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![
            ("a5-taint-to-sink", 16),
            ("a5-taint-to-sink", 21),
            ("a5-taint-to-sink", 26),
        ],
        "findings: {findings:#?}"
    );
}

#[test]
fn a5_clean_audits_clean() {
    let findings = audit_a5("a5_clean.rs");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn a5_summary_taints_only_the_call_site_with_a_tainted_argument() {
    let findings = audit_a5("a5_summary.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![("a5-taint-to-sink", 14)],
        "findings: {findings:#?}"
    );
}

#[test]
fn a6_bad_reports_control_mirror_and_torn_with_exact_lines() {
    let findings = audit_a6("a6_bad.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![
            ("a6-relaxed-mirror", 17),
            ("a6-relaxed-control", 21),
            ("a6-torn-write", 27),
            // The same mirror read, passed by reference to a closure and
            // to a function that load it `Relaxed`: flagged at the call.
            ("a6-relaxed-mirror", 32),
            ("a6-relaxed-mirror", 40),
        ],
        "findings: {findings:#?}"
    );
}

#[test]
fn a6_allowed_audits_clean_and_no_allow_is_stale() {
    let findings = audit_a6("a6_allowed.rs");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn a0_stale_allow_is_reported_and_flag_silences_it() {
    let findings = audit_a1("a0_stale.rs");
    assert_eq!(
        lint_lines(&findings),
        vec![("a0-stale-allow", 5)],
        "findings: {findings:#?}"
    );

    let config = AuditConfig { a1: vec![fixture("a0_stale.rs")], ..Default::default() };
    let opts = RunOptions { allow_stale_allows: true, ..Default::default() };
    let report = run_audit_with(audit_root(), &config, &opts).expect("audit runs");
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
}

#[test]
fn parallel_engine_matches_serial_on_the_full_fixture_corpus() {
    let all = |names: &[&str]| names.iter().map(|n| fixture(n)).collect::<Vec<_>>();
    let config = AuditConfig {
        a1: all(&["a1_bad.rs", "a1_clean.rs", "allow_no_reason.rs", "a0_stale.rs"]),
        a2: all(&["a2_bad.rs", "a2_clean.rs"]),
        a3: all(&["a3_bad.rs", "a3_clean.rs"]),
        a4: all(&["a4_bad.rs", "a4_clean.rs"]),
        a5: all(&["a5_bad.rs", "a5_clean.rs", "a5_summary.rs"]),
        a6: all(&["a6_bad.rs", "a6_allowed.rs"]),
    };
    let serial = run_audit_with(
        audit_root(),
        &config,
        &RunOptions { threads: 1, ..Default::default() },
    )
    .expect("serial audit runs");
    let parallel = run_audit_with(
        audit_root(),
        &config,
        &RunOptions { threads: 4, ..Default::default() },
    )
    .expect("parallel audit runs");
    assert_eq!(serial.findings, parallel.findings);
    assert!(!serial.findings.is_empty(), "corpus should produce findings");
}

#[test]
fn reasonless_allow_reports_both_lints() {
    let findings = audit_a1("allow_no_reason.rs");
    let lints = lint_lines(&findings);
    assert!(lints.contains(&("a1-unwrap", 5)), "findings: {findings:#?}");
    assert!(lints.contains(&("allow-no-reason", 5)), "findings: {findings:#?}");
    assert_eq!(findings.len(), 2);
}
