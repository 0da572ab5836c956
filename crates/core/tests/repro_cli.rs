//! Argument validation of the real `repro` binary: a bad flag value, an
//! unknown option or experiment name, a `--json` directory that cannot be
//! created or a malformed `REPRO_*` environment value is an error (exit 2)
//! reported before any experiment starts, never a panic inside a runner
//! thread and never a silent default.

use readopt_alloc::PolicyConfig;
use readopt_core::ExperimentContext;
use readopt_workloads::WorkloadKind;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

/// The fewest measured intervals a simulation accepts: its stabilization
/// window, as `SimConfig::validate` enforces it.
fn stabilize_window() -> usize {
    ExperimentContext::fast(64)
        .sim_config(WorkloadKind::Timesharing, PolicyConfig::paper_restricted())
        .stabilize_window
}

#[test]
fn intervals_below_the_stabilization_window_are_usage_errors() {
    let window = stabilize_window();
    for k in [0, window - 1] {
        for experiment in ["table4", "fig5"] {
            let k = k.to_string();
            let out = repro(&[experiment, "--scale", "64", "--intervals", &k]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{experiment} --intervals {k}:\n{stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{experiment} --intervals {k} panicked:\n{stderr}"
            );
            assert!(
                stderr.contains(&format!("--intervals must be at least {window}")),
                "the message names the minimum:\n{stderr}"
            );
            assert!(stderr.contains("usage: repro"), "usage text follows the error:\n{stderr}");
            assert!(out.stdout.is_empty(), "no experiment started before the rejection");
        }
    }
}

#[test]
fn intervals_at_the_stabilization_window_run() {
    let k = stabilize_window().to_string();
    for experiment in ["table4", "fig5"] {
        let out = repro(&[experiment, "--scale", "64", "--intervals", &k, "--jobs", "1"]);
        assert!(
            out.status.success(),
            "{experiment} --intervals {k} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn bad_flag_values_are_usage_errors() {
    // Each case names a cheap experiment first, so a flag that is wrongly
    // accepted fails the test at once instead of running a full sweep.
    let cases: [(&[&str], &str); 12] = [
        (&["--scale", "0"], "--scale must be at least 1"),
        (&["--scale", "401"], "--scale must be at most 400"),
        (&["--jobs", "0"], "--jobs must be at least 1"),
        (&["--jobs", "abc"], "--jobs: invalid digit"),
        (&["--jobs"], "--jobs needs a value"),
        (&["--shards", "2"], "unknown option --shards"),
        (&["--store", "run.rrs"], "unknown option --store"),
        (&["--event-queue", "heap"], "unknown option --event-queue"),
        (&["--workers", "2"], "unknown option --workers"),
        (&["fgi1"], "unknown experiment fgi1"),
        (&["shard_scaling"], "unknown experiment shard_scaling"),
        (&["export"], "unknown experiment export"),
    ];
    for (flags, message) in cases {
        let args: Vec<&str> = ["table2"].iter().chain(flags).copied().collect();
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(stderr.contains(message), "{args:?} names the problem:\n{stderr}");
        assert!(
            stderr.contains("usage: repro"),
            "{args:?}: usage text follows the error:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: no experiment started before the rejection");
    }
}

#[test]
fn malformed_repro_env_values_are_rejected() {
    let var = "REPRO_USERS_LADDER";
    for value in ["64,abc", "0", "64,", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["users_1e6", "--scale", "64", "--intervals", "4"])
            .env(var, value)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{var}={value:?} panicked:\n{stderr}");
        assert!(stderr.contains(var), "{var}={value:?}: the message names the variable:\n{stderr}");
        assert!(out.stdout.is_empty(), "{var}={value:?}: no experiment started before the rejection");
    }
}

/// `--scale N` keeps 1 600 / N cylinders per drive, rounded down, so 321
/// and 400 build the same 4-cylinder array; the banner names the cylinder
/// count instead of claiming a `1/N` array.
#[test]
fn the_banner_names_the_cylinders_each_drive_has() {
    let banner = |scale: &str| {
        let out = repro(&["table2", "--scale", scale, "--jobs", "1"]);
        assert!(out.status.success(), "--scale {scale}:\n{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        stdout.lines().next().expect("a banner line").to_string()
    };
    let (at_321, at_400) = (banner("321"), banner("400"));
    assert!(at_321.contains("8 disks × 4 cylinders"), "{at_321}");
    assert_eq!(at_321, at_400, "the same array, the same banner");
    assert!(!at_321.contains("321"), "{at_321}");
    assert!(banner("64").contains("8 disks × 25 cylinders"));
}

/// `--json DIR` naming something that cannot be a directory (here an
/// existing regular file) is rejected before anything runs, not with a
/// panic after the first experiment.
#[test]
fn a_json_dir_that_cannot_be_created_is_a_usage_error() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_json_file");
    std::fs::write(&file, "a file, not a directory").expect("write the file");
    let path = file.to_str().expect("utf-8 path");
    let out = repro(&["table1", "--scale", "64", "--json", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains(path), "the message names the path:\n{stderr}");
    assert!(out.stdout.is_empty(), "no experiment started before the rejection");
}
