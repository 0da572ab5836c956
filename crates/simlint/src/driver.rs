//! Workspace discovery and the top-level lint run.
//!
//! Walks every non-vendored workspace crate (`crates/*` except
//! `crates/vendor`, plus the root `readopt` facade package with its
//! `tests/` and `examples/`), classifies each `.rs` file by target kind,
//! and runs the two-layer rule engine over it:
//!
//! 1. every file is read, lexed, and parsed **once**; the parsed items
//!    feed the workspace symbol table ([`crate::symbols`]) and the
//!    use-graph ([`crate::usage`]);
//! 2. each file's local rules produce pre-suppression hits
//!    ([`crate::rules::analyze_file`]), the cross-file r7 hits are merged
//!    in, and [`crate::rules::finalize`] applies suppressions and the r8
//!    staleness audit.
//!
//! Directory walks are sorted so output order — and the JSON snapshot —
//! is itself deterministic. Directories named `fixtures` are never
//! entered: `crates/simlint/tests/fixtures/` holds *deliberately* dirty
//! sources for the linter's own integration tests.

use crate::config::{FileClass, LintConfig};
use crate::lexer::lex;
use crate::parse::parse_file;
use crate::rules::{analyze_file, dead_config_hits, finalize, FileInput, Finding};
use crate::symbols::{build_symbols, FileSyms};
use crate::usage::collect_reads;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Result of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files linted (with a crate filter, the filtered
    /// count — symbol/usage collection always covers the whole workspace).
    pub files_scanned: usize,
}

impl Report {
    /// True when the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One file scheduled for linting.
#[derive(Debug)]
struct WorkItem {
    path: PathBuf,
    rel: String,
    crate_key: String,
    class: FileClass,
}

/// Runs the lint over the workspace rooted at `root`, honoring an optional
/// `simlint.toml` at the root.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    run_workspace_with(root, &LintConfig::load(root)?)
}

/// Like [`run_workspace`] but with an explicit configuration.
pub fn run_workspace_with(root: &Path, config: &LintConfig) -> Result<Report, String> {
    run_workspace_filtered(root, config, None)
}

/// Like [`run_workspace_with`], optionally restricted to a set of crate
/// keys. The restriction applies to which files are *linted* (and counted
/// in `files_scanned`); symbol-table and use-graph collection always spans
/// the full workspace, so r7's "read anywhere" stays accurate under a
/// filter.
pub fn run_workspace_filtered(
    root: &Path,
    config: &LintConfig,
    only_crates: Option<&BTreeSet<String>>,
) -> Result<Report, String> {
    let items = discover(root)?;

    // Pass 1: read + lex + parse everything once.
    let mut sources = Vec::with_capacity(items.len());
    for item in &items {
        let src = fs::read_to_string(&item.path)
            .map_err(|e| format!("read {}: {e}", item.path.display()))?;
        sources.push(src);
    }
    let lexed: Vec<_> = sources.iter().map(|s| lex(s)).collect();
    let parsed: Vec<_> = lexed.iter().map(|t| parse_file(t)).collect();

    // Workspace-wide symbol table and read set.
    let syms_input: Vec<FileSyms<'_>> = items
        .iter()
        .zip(&parsed)
        .map(|(item, p)| FileSyms {
            path: &item.rel,
            crate_key: &item.crate_key,
            class: item.class,
            parsed: p,
        })
        .collect();
    let symbols = build_symbols(&syms_input);
    let mut reads = BTreeSet::new();
    for ((item, toks), p) in items.iter().zip(&lexed).zip(&parsed) {
        reads.extend(collect_reads(toks, p, item.class));
    }

    // Cross-file r7 hits, grouped by declaring file.
    let mut r7_by_path: BTreeMap<String, Vec<_>> = BTreeMap::new();
    for (path, hit) in dead_config_hits(&symbols, &reads, &config.rules) {
        r7_by_path.entry(path).or_default().push(hit);
    }

    // Pass 2: per-file local analysis, r7 merge, finalize.
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for (i, item) in items.iter().enumerate() {
        if only_crates.is_some_and(|set| !set.contains(&item.crate_key)) {
            continue;
        }
        files_scanned += 1;
        let input = FileInput {
            path: &item.rel,
            crate_key: &item.crate_key,
            class: item.class,
            src: &sources[i],
        };
        let mut analysis = analyze_file(&input, &lexed[i], &parsed[i], &config.rules, &symbols);
        if let Some(hits) = r7_by_path.remove(&item.rel) {
            analysis.raw.extend(hits);
        }
        findings.extend(finalize(&item.rel, &item.crate_key, item.class, &analysis, &config.rules));
    }
    findings.sort();
    Ok(Report { findings, files_scanned })
}

/// Enumerates every file to lint, sorted for deterministic output.
fn discover(root: &Path) -> Result<Vec<WorkItem>, String> {
    let mut items = Vec::new();

    // Member crates: crates/* with a Cargo.toml, minus the vendored tree.
    let crates_dir = root.join("crates");
    for dir in sorted_dirs(&crates_dir)? {
        let key = file_name(&dir);
        if key == "vendor" || !dir.join("Cargo.toml").is_file() {
            continue;
        }
        collect_crate(&dir, root, &key, &mut items)?;
    }

    // The root facade package.
    if root.join("Cargo.toml").is_file() {
        collect_crate(root, root, "readopt", &mut items)?;
    }

    items.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(items)
}

/// Collects src/tests/benches/examples of one crate directory.
fn collect_crate(
    dir: &Path,
    root: &Path,
    key: &str,
    items: &mut Vec<WorkItem>,
) -> Result<(), String> {
    let groups: [(&str, FileClass); 4] = [
        ("src", FileClass::Lib),
        ("tests", FileClass::TestFile),
        ("benches", FileClass::Bench),
        ("examples", FileClass::Example),
    ];
    for (sub, default_class) in groups {
        let base = dir.join(sub);
        if !base.is_dir() {
            continue;
        }
        // The root package's crates/ subtree is covered by the member walk.
        collect_rs_files(&base, root, key, default_class, items)?;
    }
    Ok(())
}

fn collect_rs_files(
    base: &Path,
    root: &Path,
    key: &str,
    default_class: FileClass,
    items: &mut Vec<WorkItem>,
) -> Result<(), String> {
    let mut stack = vec![base.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in sorted_entries(&dir)? {
            let name = file_name(&entry);
            if entry.is_dir() {
                // Never descend into nested crates, build output, the
                // vendored tree from the root package walk, or the lint
                // test fixtures (deliberately violation-seeded sources).
                if name == "target" || name == "vendor" || name == "crates" || name == "fixtures" {
                    continue;
                }
                stack.push(entry);
                continue;
            }
            if entry.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let rel = entry
                .strip_prefix(root)
                .map_err(|e| format!("strip {}: {e}", entry.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let class = classify(&rel, default_class);
            items.push(WorkItem { path: entry, rel, crate_key: key.to_string(), class });
        }
    }
    Ok(())
}

/// Refines the directory-derived class: `src/bin/**` and `src/main.rs` are
/// binaries, not library code.
fn classify(rel: &str, default_class: FileClass) -> FileClass {
    if default_class == FileClass::Lib && (rel.contains("/src/bin/") || rel.ends_with("/src/main.rs"))
    {
        FileClass::Bin
    } else {
        default_class
    }
}

fn file_name(p: &Path) -> String {
    p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    Ok(sorted_entries(dir)?.into_iter().filter(|p| p.is_dir()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_refines_lib_to_bin() {
        assert_eq!(classify("crates/core/src/bin/repro.rs", FileClass::Lib), FileClass::Bin);
        assert_eq!(classify("crates/simlint/src/main.rs", FileClass::Lib), FileClass::Bin);
        assert_eq!(classify("crates/sim/src/engine.rs", FileClass::Lib), FileClass::Lib);
        assert_eq!(classify("tests/x.rs", FileClass::TestFile), FileClass::TestFile);
    }
}
