//! Golden-value regression suite: `--scale 64` snapshots of fig1, fig2,
//! fig5, fig6, table3, table4, diag, the seven ablations and a `users_1e6`
//! ladder pinned as JSON under `tests/golden/`. Next to each, a
//! `<experiment>.sidecars.json` golden pins the names its metrics and
//! histogram sidecars carry, without their values: the experiment name,
//! every point's label and the tests each point holds a snapshot of (fig3
//! and fig4 included). The fig6 snapshot also
//! pins each test's array-combined disk-time decomposition (seek,
//! rotational, transfer, head-switch, busy and queue-wait ms, requests,
//! seeks), so a change to the disk service model shows even where the
//! throughput percentages round it away. The `users_1e6` snapshot is the
//! deepest event queue any of them drives.
//! The simulator is deterministic, so any byte of drift in these results
//! is a behavior change — intended changes are re-snapshotted with
//! `REPRO_UPDATE_GOLDEN=1 cargo test --test golden_results`.
//!
//! Failures print every differing JSON path with the golden and current
//! values, so a perturbation shows up as (say) `points[3].app_pct` rather
//! than an opaque string mismatch.

use readopt::experiments::fig6::Fig6;
use readopt::experiments::metrics::{ExperimentHist, PointHist};
use readopt::experiments::runner::Profiled;
use readopt::experiments::{
    ablations, diag, fig1, fig2, fig3, fig4, fig5, fig6, table3, table4, users_scale,
    ExperimentContext, ExperimentMetrics,
};
use readopt::sim::DiskPhaseMetrics;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

fn ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::fast(64).with_jobs(2);
    ctx.max_intervals = 4;
    ctx
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unrenderable>".into())
}

/// Recursively collects the JSON paths where `golden` and `current`
/// disagree (value mismatches, missing keys, length changes).
fn diff_paths(path: &str, golden: &Value, current: &Value, out: &mut Vec<String>) {
    match (golden, current) {
        (Value::Object(g), Value::Object(c)) => {
            for (k, gv) in g {
                match c.iter().find(|(ck, _)| ck == k) {
                    Some((_, cv)) => diff_paths(&format!("{path}.{k}"), gv, cv, out),
                    None => out.push(format!("{path}.{k}: missing (golden {})", render(gv))),
                }
            }
            for (k, _) in c {
                if !g.iter().any(|(gk, _)| gk == k) {
                    out.push(format!("{path}.{k}: unexpected new field"));
                }
            }
        }
        (Value::Array(g), Value::Array(c)) => {
            if g.len() != c.len() {
                out.push(format!("{path}: length {} -> {}", g.len(), c.len()));
            }
            for (i, (gv, cv)) in g.iter().zip(c).enumerate() {
                diff_paths(&format!("{path}[{i}]"), gv, cv, out);
            }
        }
        _ if golden != current => out.push(format!(
            "{path}: golden {} != current {}",
            render(golden),
            render(current)
        )),
        _ => {}
    }
}

fn check_golden<T: Serialize>(name: &str, result: &T) {
    let current: Value = serde_json::from_str(&serde_json::to_string(result).unwrap()).unwrap();
    let path = golden_path(name);
    if std::env::var_os("REPRO_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let pretty = serde_json::to_string_pretty(&current).unwrap();
        std::fs::write(&path, pretty + "\n").unwrap();
        return;
    }
    let bytes = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(regenerate with REPRO_UPDATE_GOLDEN=1 \
             cargo test --test golden_results)",
            path.display()
        )
    });
    let golden: Value = serde_json::from_str(&bytes).unwrap();
    let mut diffs = Vec::new();
    diff_paths(name, &golden, &current, &mut diffs);
    assert!(
        diffs.is_empty(),
        "{name} drifted from tests/golden/{name}.json in {} field(s):\n  {}\n\
         If the change is intended, regenerate with REPRO_UPDATE_GOLDEN=1 \
         cargo test --test golden_results",
        diffs.len(),
        diffs.join("\n  ")
    );
}

/// What one sidecar names, without its values.
#[derive(Serialize)]
struct SidecarShape {
    experiment: String,
    /// `(label, test names)` per point, in sweep order.
    points: Vec<(String, Vec<String>)>,
}

/// The shapes of an experiment's metrics and histogram sidecars (`None`
/// for a sidecar the driver does not produce).
#[derive(Serialize)]
struct Sidecars {
    metrics: Option<SidecarShape>,
    hist: Option<SidecarShape>,
}

fn check_sidecars(name: &str, metrics: Option<&ExperimentMetrics>, hist: Option<&ExperimentHist>) {
    let shape = Sidecars {
        metrics: metrics.map(|m| SidecarShape {
            experiment: m.experiment.clone(),
            points: m
                .points
                .iter()
                .map(|p| (p.label.clone(), p.tests.iter().map(|t| t.test.clone()).collect()))
                .collect(),
        }),
        hist: hist.map(|h| SidecarShape {
            experiment: h.experiment.clone(),
            points: h
                .points
                .iter()
                .map(|p| (p.label.clone(), p.tests.iter().map(|t| t.test.clone()).collect()))
                .collect(),
        }),
    };
    check_golden(&format!("{name}.sidecars"), &shape);
}

/// Checks a profiled run's result and its sidecars' names.
fn check_profiled<R: Serialize>(name: &str, (result, _, metrics, hists): Profiled<R>) {
    check_golden(name, &result);
    check_sidecars(name, Some(&metrics), Some(&hists));
}

#[test]
fn fig1_matches_golden_snapshot() {
    check_profiled("fig1", fig1::run_profiled(&ctx()));
}

#[test]
fn fig2_matches_golden_snapshot() {
    check_profiled("fig2", fig2::run_profiled(&ctx()));
}

#[test]
fn fig5_matches_golden_snapshot() {
    check_profiled("fig5", fig5::run_profiled(&ctx()));
}

/// The ablations are the only runs of the FFS policy, buddy's reallocator
/// and the mirrored, RAID-5 and parity-striped arrays.
#[test]
fn ablations_match_golden_snapshots() {
    let ctx = ctx();
    check_profiled("ablation_raid", ablations::run_raid_profiled(&ctx));
    check_profiled("ablation_stripe", ablations::run_stripe_unit_profiled(&ctx));
    check_profiled("ablation_file_mix", ablations::run_file_mix_profiled(&ctx));
    check_profiled("ablation_realloc", ablations::run_reallocation_profiled(&ctx));
    check_profiled("ablation_ffs", ablations::run_ffs_comparison_profiled(&ctx));
    check_profiled("ablation_degraded_raid", ablations::run_degraded_raid_profiled(&ctx));
    check_profiled("ablation_disk_generations", ablations::run_disk_generations_profiled(&ctx));
}

/// The disk-time decomposition of one test, array-combined.
#[derive(Serialize)]
struct DiskTime {
    test: String,
    requests: u64,
    seeks: u64,
    seek_ms: f64,
    rotational_ms: f64,
    transfer_ms: f64,
    head_switch_ms: f64,
    busy_ms: f64,
    queue_wait_ms: f64,
}

impl DiskTime {
    fn new(test: &str, c: &DiskPhaseMetrics) -> Self {
        DiskTime {
            test: test.to_string(),
            requests: c.requests,
            seeks: c.seeks,
            seek_ms: c.seek_ms,
            rotational_ms: c.rotational_ms,
            transfer_ms: c.transfer_ms,
            head_switch_ms: c.head_switch_ms,
            busy_ms: c.busy_ms,
            queue_wait_ms: c.queue_wait_ms,
        }
    }
}

#[derive(Serialize)]
struct PointDiskTime {
    label: String,
    tests: Vec<DiskTime>,
}

#[derive(Serialize)]
struct Fig6Golden {
    results: Fig6,
    disk: Vec<PointDiskTime>,
}

#[test]
fn fig6_matches_golden_snapshot() {
    let (results, _, metrics, hists) = fig6::run_profiled(&ctx());
    check_sidecars("fig6", Some(&metrics), Some(&hists));
    let disk = metrics
        .points
        .iter()
        .map(|p| PointDiskTime {
            label: p.label.clone(),
            tests: p
                .tests
                .iter()
                .map(|t| DiskTime::new(&t.test, &t.storage.combined))
                .collect(),
        })
        .collect();
    check_golden("fig6", &Fig6Golden { results, disk });
}

#[test]
fn table4_matches_golden_snapshot() {
    check_profiled("table4", table4::run_profiled(&ctx()));
}

/// fig3 and fig4 have no value golden; this pins their sidecars' names.
/// fig3 traces a bare array and writes no histogram sidecar.
#[test]
fn fig3_and_fig4_sidecar_names_match_golden() {
    let (_, _, metrics) = fig3::run_profiled(2);
    check_sidecars("fig3", Some(&metrics), None);
    let (_, _, metrics, hists) = fig4::run_profiled(&ctx());
    check_sidecars("fig4", Some(&metrics), Some(&hists));
}

/// table3 and diag read their throughput and disk-time columns off fig6's
/// cells; these pin what they read.
#[test]
fn table3_and_diag_match_golden_snapshots() {
    check_profiled("table3", table3::run_profiled(&ctx()));
    check_profiled("diag", diag::run_profiled(&ctx()));
}

/// One `users_1e6` rung without its wall clock.
#[derive(Serialize)]
struct RungGolden {
    users: u32,
    events: u64,
    application_pct: f64,
    hist: PointHist,
}

/// The 100 k rung holds ~10⁵ pending events against at most 71 in the
/// paper sweeps above. It is the only rung large enough to exercise the
/// event queue's split into a heap and a suffix of later events
/// (`crates/sim/src/event.rs`), so a defect far below the heap's root, or
/// in the spills and refills between heap and suffix, changes the pop
/// order and with it these values.
#[test]
fn users_1e6_matches_golden_snapshot() {
    let ladder = [1_000, 4_000, 16_000, 100_000];
    let (result, _, metrics, hists) =
        users_scale::run_profiled(&ExperimentContext::fast(64), false, Some(&ladder));
    // Its metrics sidecar is empty, so `repro` writes none.
    assert!(metrics.points.is_empty());
    check_sidecars("users_1e6", None, Some(&hists));
    let points = result.points;
    assert_eq!(points.len(), ladder.len(), "every rung ran");
    let rungs: Vec<RungGolden> = points
        .into_iter()
        .zip(hists.points)
        .map(|(p, hist)| RungGolden {
            users: p.users,
            events: p.events,
            application_pct: p.application_pct,
            hist,
        })
        .collect();
    check_golden("users_1e6", &rungs);
}

#[test]
fn diff_reporting_names_the_exact_field() {
    let golden: Value = serde_json::from_str(r#"{"points": [{"a": 1.5, "b": 2.5}], "n": 3}"#).unwrap();
    let current: Value = serde_json::from_str(r#"{"points": [{"a": 1.5, "b": 9.5}], "n": 3}"#).unwrap();
    let mut diffs = Vec::new();
    diff_paths("fig", &golden, &current, &mut diffs);
    assert_eq!(diffs, vec!["fig.points[0].b: golden 2.5 != current 9.5".to_string()]);
}
