//! Rule configuration and the `simlint.toml` loader.
//!
//! The defaults encode the workspace invariants (see the README's
//! "Determinism invariants" section); a `simlint.toml` at the workspace
//! root can re-scope rules per crate without recompiling. Only the tiny
//! TOML subset the config needs is parsed: `[rules.<id>]` sections with
//! boolean and string-array values.

use std::collections::BTreeSet;

/// What kind of target a source file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/**` of a crate — the code other crates link against.
    Lib,
    /// `src/bin/**` or `src/main.rs` — application entry points.
    Bin,
    /// `tests/**` — integration tests.
    TestFile,
    /// `benches/**` — benchmark harnesses.
    Bench,
    /// `examples/**` — documentation-grade demos.
    Example,
}

/// Per-rule scope and behavior.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// Crate directory names the rule applies to; `None` = every
    /// non-vendored crate.
    pub crates: Option<BTreeSet<String>>,
    /// Skip `#[cfg(test)]` / `#[test]` regions.
    pub skip_test_code: bool,
    /// Apply only to [`FileClass::Lib`] files.
    pub lib_only: bool,
    /// Rule master switch.
    pub enabled: bool,
    /// Suppression directives must carry a justification string to take
    /// effect (read from the `r8` entry; meaningless on other rules).
    pub require_reason: bool,
}

impl RuleCfg {
    /// Whether the rule covers `crate_key` (a crate directory name).
    pub fn applies_to_crate(&self, crate_key: &str) -> bool {
        match &self.crates {
            None => true,
            Some(set) => set.contains(crate_key),
        }
    }

    /// Whether the rule covers this file class.
    pub fn applies_to_class(&self, class: FileClass) -> bool {
        !self.lib_only || class == FileClass::Lib
    }
}

/// The full lint configuration: an ordered list of (rule id, config).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Rules in evaluation order.
    pub rules: Vec<(String, RuleCfg)>,
}

fn set(names: &[&str]) -> Option<BTreeSet<String>> {
    Some(names.iter().map(|s| s.to_string()).collect())
}

impl LintConfig {
    /// The built-in defaults (mirrored by the shipped `simlint.toml`):
    ///
    /// | rule | scope | test code | classes |
    /// |------|-------|-----------|---------|
    /// | r1 containers/rng | sim, disk, alloc, workloads, fs | linted | all |
    /// | r2 wall clock     | sim, disk, alloc, workloads, fs | linted | all |
    /// | r3 unwrap/panic   | all but `core` (the runner/app layer) | skipped | lib |
    /// | r4 unsafe         | everywhere | linted | all |
    /// | r5 narrowing `as` | disk, alloc, sim | skipped | lib |
    /// | r6 f64 `sum()`    | sim, disk, alloc, workloads, fs | skipped | all |
    /// | r7 dead config    | sim, disk, alloc, workloads, fs | skipped | lib |
    /// | r8 stale allow    | everywhere | linted | all |
    /// | r9 float `==`     | sim, disk, alloc, workloads, fs | skipped | lib |
    pub fn default_config() -> Self {
        let sim_crates = ["sim", "disk", "alloc", "workloads", "fs"];
        let rule = |crates: Option<std::collections::BTreeSet<String>>,
                    skip_test_code: bool,
                    lib_only: bool| RuleCfg {
            crates,
            skip_test_code,
            lib_only,
            enabled: true,
            require_reason: true,
        };
        let rules = vec![
            ("r1".to_string(), rule(set(&sim_crates), false, false)),
            ("r2".to_string(), rule(set(&sim_crates), false, false)),
            (
                "r3".to_string(),
                rule(
                    set(&["sim", "disk", "alloc", "workloads", "fs", "simlint", "readopt"]),
                    true,
                    true,
                ),
            ),
            ("r4".to_string(), rule(None, false, false)),
            ("r5".to_string(), rule(set(&["disk", "alloc", "sim"]), true, true)),
            ("r6".to_string(), rule(set(&sim_crates), true, false)),
            ("r7".to_string(), rule(set(&sim_crates), true, true)),
            ("r8".to_string(), rule(None, false, false)),
            ("r9".to_string(), rule(set(&sim_crates), true, true)),
        ];
        LintConfig { rules }
    }

    /// Applies `simlint.toml` text over the defaults. Unknown sections or
    /// keys are errors — a config that silently does nothing is worse than
    /// a loud one.
    pub fn apply_toml(&mut self, text: &str) -> Result<(), String> {
        let mut current: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let section = section.trim();
                let Some(rule) = section.strip_prefix("rules.") else {
                    return Err(format!("simlint.toml:{}: unknown section [{section}]", lineno + 1));
                };
                if !self.rules.iter().any(|(id, _)| id == rule) {
                    return Err(format!("simlint.toml:{}: unknown rule `{rule}`", lineno + 1));
                }
                current = Some(rule.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("simlint.toml:{}: expected `key = value`", lineno + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(rule_id) = current.clone() else {
                return Err(format!("simlint.toml:{}: `{key}` outside a [rules.*] section", lineno + 1));
            };
            let Some(cfg) = self
                .rules
                .iter_mut()
                .find(|(id, _)| *id == rule_id)
                .map(|(_, c)| c)
            else {
                return Err(format!("simlint.toml:{}: unknown rule `{rule_id}`", lineno + 1));
            };
            match key {
                "crates" => cfg.crates = Some(parse_string_array(value, lineno + 1)?),
                "all_crates" => {
                    if parse_bool(value, lineno + 1)? {
                        cfg.crates = None;
                    }
                }
                "skip_test_code" => cfg.skip_test_code = parse_bool(value, lineno + 1)?,
                "lib_only" => cfg.lib_only = parse_bool(value, lineno + 1)?,
                "enabled" => cfg.enabled = parse_bool(value, lineno + 1)?,
                "require_reason" => cfg.require_reason = parse_bool(value, lineno + 1)?,
                other => {
                    return Err(format!("simlint.toml:{}: unknown key `{other}`", lineno + 1));
                }
            }
        }
        Ok(())
    }
}

fn strip_toml_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_bool(v: &str, lineno: usize) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("simlint.toml:{lineno}: expected true/false, got `{other}`")),
    }
}

fn parse_string_array(v: &str, lineno: usize) -> Result<BTreeSet<String>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("simlint.toml:{lineno}: expected [\"a\", \"b\"], got `{v}`"))?;
    let mut out = BTreeSet::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("simlint.toml:{lineno}: array items must be quoted strings"))?;
        out.insert(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_have_all_nine_rules_enabled() {
        let cfg = LintConfig::default_config();
        let ids: Vec<&str> = cfg.rules.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"]);
        assert!(cfg.rules.iter().all(|(_, c)| c.enabled));
        assert!(cfg.rules.iter().all(|(_, c)| c.require_reason));
    }

    #[test]
    fn toml_rescopes_a_rule() {
        let mut cfg = LintConfig::default_config();
        cfg.apply_toml("# comment\n[rules.r5]\ncrates = [\"disk\"] # trailing\nskip_test_code = false\n")
            .unwrap();
        let r5 = &cfg.rules.iter().find(|(id, _)| id == "r5").unwrap().1;
        assert!(r5.applies_to_crate("disk"));
        assert!(!r5.applies_to_crate("alloc"));
        assert!(!r5.skip_test_code);
    }

    #[test]
    fn toml_can_disable_and_widen() {
        let mut cfg = LintConfig::default_config();
        cfg.apply_toml("[rules.r2]\nenabled = false\n[rules.r3]\nall_crates = true\n").unwrap();
        assert!(!cfg.rules.iter().find(|(id, _)| id == "r2").unwrap().1.enabled);
        assert!(cfg.rules.iter().find(|(id, _)| id == "r3").unwrap().1.applies_to_crate("core"));
    }

    #[test]
    fn toml_rejects_unknown_rules_keys_and_sections() {
        let mut cfg = LintConfig::default_config();
        assert!(cfg.apply_toml("[rules.r12]\n").is_err());
        assert!(cfg.apply_toml("[rules.r1]\nfrobnicate = true\n").is_err());
        assert!(cfg.apply_toml("[weird]\n").is_err());
        assert!(cfg.apply_toml("orphan = true\n").is_err());
    }

    #[test]
    fn toml_can_waive_reasons_on_r8() {
        let mut cfg = LintConfig::default_config();
        cfg.apply_toml("[rules.r8]\nrequire_reason = false\n").unwrap();
        assert!(!cfg.rules.iter().find(|(id, _)| id == "r8").unwrap().1.require_reason);
    }

    #[test]
    fn new_rule_scopes_match_their_purpose() {
        let cfg = LintConfig::default_config();
        let get = |id: &str| &cfg.rules.iter().find(|(rid, _)| rid == id).unwrap().1;
        assert!(get("r7").applies_to_crate("sim") && !get("r7").applies_to_crate("core"));
        assert!(get("r7").lib_only && get("r9").lib_only);
        assert!(get("r8").applies_to_crate("core"), "the audit covers every crate");
        assert!(get("r8").applies_to_class(FileClass::TestFile));
        assert!(!get("r9").applies_to_crate("simlint"), "the linter compares token text, not sim floats");
    }

    #[test]
    fn class_and_crate_scoping() {
        let cfg = LintConfig::default_config();
        let r3 = &cfg.rules.iter().find(|(id, _)| id == "r3").unwrap().1;
        assert!(r3.applies_to_crate("alloc"));
        assert!(!r3.applies_to_crate("core"), "core is the runner/app layer");
        assert!(r3.applies_to_class(FileClass::Lib));
        assert!(!r3.applies_to_class(FileClass::Bin));
        let r4 = &cfg.rules.iter().find(|(id, _)| id == "r4").unwrap().1;
        assert!(r4.applies_to_crate("core"));
        assert!(r4.applies_to_class(FileClass::TestFile));
    }
}
