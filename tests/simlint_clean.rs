//! Tier-1 gate: the workspace must be simlint-clean.
//!
//! Runs the same pass as `cargo run -p simlint` in-process — workspace
//! discovery, `simlint.toml` scoping, rule engine — and fails the test
//! suite on any finding, so a determinism or robustness regression cannot
//! merge even if `scripts/check.sh` is skipped. It also keeps the shipped
//! `simlint.toml` equal to the linter's built-in defaults.

use std::path::Path;

#[test]
fn gate_covers_all_nine_rules() {
    // The clean gate is only as strong as the rule set behind it: pin the
    // shipped rule ids (r7 = dead config, r8 = stale suppressions, r9 =
    // exact float equality) and that every one of them is enabled by
    // default, with r8 demanding justification strings.
    assert_eq!(
        simlint::rules::RULE_IDS,
        ["r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"]
    );
    let cfg = simlint::LintConfig::default_config();
    for (id, rule) in &cfg.rules {
        assert!(rule.enabled, "rule {id} must be enabled by default");
        if id == "r8" {
            assert!(rule.require_reason, "suppressions must stay justified");
        }
    }
    assert_eq!(cfg.rules.len(), simlint::rules::RULE_IDS.len());
}

#[test]
fn workspace_has_zero_simlint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::run_workspace(root).expect("simlint walk must succeed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}): discovery is broken",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "simlint found {} violation(s):\n{}",
        report.findings.len(),
        simlint::render_human(&report)
    );
}

/// The shipped `simlint.toml` scopes every rule exactly as the built-in
/// defaults do, so a lint run without it checks no crate less.
#[test]
fn shipped_toml_mirrors_the_built_in_defaults() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(root.join("simlint.toml").is_file(), "the workspace ships a simlint.toml");
    let shipped = simlint::LintConfig::load(root).expect("simlint.toml must parse");
    assert_eq!(shipped, simlint::LintConfig::default_config());
}
