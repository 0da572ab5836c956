//! The `simlint` gate binary.
//!
//! ```text
//! simlint [--root DIR] [--json FILE] [--crates LIST] [--quiet]
//! ```
//!
//! Exit status: 0 when clean, 1 on findings, 2 on usage or I/O errors.
//! With no `--root`, walks upward from the current directory to the first
//! directory holding both a `Cargo.toml` and a `crates/` tree (so it works
//! from any workspace subdirectory).
//!
//! `--crates sim,disk` restricts which crates are *linted* (the check.sh
//! self-lint leg uses `--crates simlint`); symbol-table and use-graph
//! collection still spans the whole workspace, so r7's cross-crate read
//! analysis stays accurate under a filter.

#![forbid(unsafe_code)]

use simlint::{render_human, render_json, run_workspace_filtered, LintConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    crates: Option<BTreeSet<String>>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, json: None, crates: None, quiet: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--root needs a directory".to_string())?,
                ));
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--json needs a file path".to_string())?,
                ));
            }
            "--crates" => {
                let list = it.next().ok_or_else(|| "--crates needs a comma-separated list".to_string())?;
                let set: BTreeSet<String> =
                    list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
                if set.is_empty() {
                    return Err("--crates needs at least one crate name".to_string());
                }
                args.crates = Some(set);
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: simlint [--root DIR] [--json FILE] [--crates LIST] [--quiet]".to_string()
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Finds the workspace root: `--root`, or the nearest ancestor of the
/// current directory with both `Cargo.toml` and `crates/`.
fn find_root(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(root) = explicit {
        if root.is_dir() {
            return Ok(root);
        }
        return Err(format!("--root {}: not a directory", root.display()));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace root (Cargo.toml + crates/) above {}",
                    cwd.display()
                ))
            }
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = find_root(args.root)?;
    let config = LintConfig::load(&root)?;
    let report = run_workspace_filtered(&root, &config, args.crates.as_ref())?;
    if let Some(json_path) = &args.json {
        if let Some(parent) = json_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(json_path, render_json(&report))
            .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    }
    if !args.quiet || !report.is_clean() {
        print!("{}", render_human(&report));
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("simlint: {msg}");
            ExitCode::from(2)
        }
    }
}
