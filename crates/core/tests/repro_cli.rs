//! Argument validation of the real `repro` binary: a bad flag value is a
//! usage error (exit 2) reported before any experiment starts, never a
//! panic inside a runner thread.

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
    let cases: [(&[&str], &str); 7] = [
        (&["--scale", "0"], "--scale must be at least 1"),
        (&["--jobs", "0"], "--jobs must be at least 1"),
        (&["--jobs", "abc"], "--jobs: invalid digit"),
        (&["--jobs"], "--jobs needs a value"),
        (&["--shards", "0"], "--shards must be at least 1"),
        (&["--event-queue", "bogus"], "--event-queue: unknown backend bogus"),
        (&["--workers", "2"], "unknown option --workers"),
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
