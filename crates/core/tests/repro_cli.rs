//! Argument validation of the real `repro` binary: a bad flag value, an
//! unknown experiment name or a malformed `REPRO_*` environment value is
//! an error (exit 2) reported before any experiment starts, never a panic
//! inside a runner thread and never a silent default.

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
    let cases: [(&[&str], &str); 9] = [
        (&["--scale", "0"], "--scale must be at least 1"),
        (&["--jobs", "0"], "--jobs must be at least 1"),
        (&["--jobs", "abc"], "--jobs: invalid digit"),
        (&["--jobs"], "--jobs needs a value"),
        (&["--shards", "2"], "unknown option --shards"),
        (&["--event-queue", "heap"], "unknown option --event-queue"),
        (&["--workers", "2"], "unknown option --workers"),
        (&["fgi1"], "unknown experiment fgi1"),
        (&["shard_scaling"], "unknown experiment shard_scaling"),
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
    const VARS: [&str; 4] =
        ["REPRO_USERS_LADDER", "REPRO_CKPT_DIR", "REPRO_CKPT_EVERY", "REPRO_CKPT_KILL"];
    let cases: [(&str, &str); 9] = [
        ("REPRO_USERS_LADDER", "64,abc"),
        ("REPRO_USERS_LADDER", "0"),
        ("REPRO_USERS_LADDER", "64,"),
        ("REPRO_USERS_LADDER", ""),
        ("REPRO_CKPT_DIR", ""),
        ("REPRO_CKPT_EVERY", "abc"),
        ("REPRO_CKPT_EVERY", "-1"),
        ("REPRO_CKPT_KILL", "abc"),
        ("REPRO_CKPT_KILL", "0"),
    ];
    for (var, value) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        for v in VARS {
            cmd.env_remove(v);
        }
        let out = cmd
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
