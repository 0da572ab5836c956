//! table4, diag and table3's throughput columns are projections of the
//! Figure 4 and Figure 6 outputs. Run on their own, they simulate only the
//! source points they read, through the source's own job builder; the
//! sidecars must come out byte for byte as when they are projected from a
//! full run of the source.

use readopt::experiments::{diag, fig4, fig6, table3, table4, ExperimentContext};
use serde::Serialize;

fn ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::fast(64).with_jobs(2);
    ctx.max_intervals = 4;
    ctx
}

/// The bytes `repro --json` writes for one artifact.
fn pretty<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializes")
}

fn assert_same<A: Serialize, B: Serialize, C: Serialize>(
    name: &str,
    standalone: (&A, &B, &C),
    projected: (&A, &B, &C),
) {
    assert_eq!(pretty(standalone.0), pretty(projected.0), "{name}.json");
    assert_eq!(pretty(standalone.1), pretty(projected.1), "{name}.metrics.json");
    assert_eq!(pretty(standalone.2), pretty(projected.2), "{name}.hist.json");
}

#[test]
fn table4_on_its_own_matches_its_projection_of_fig4() {
    let ctx = ctx();
    let (t, timings, m, h) = table4::run_profiled(&ctx);
    assert_eq!(timings.len(), 15, "the 15 first-fit points and no other");
    assert!(timings.iter().all(|t| t.label.starts_with("fig4/") && t.label.ends_with("-FirstFit")));
    let (f, _, fm, fh) = fig4::run_profiled(&ctx);
    let (pt, pm, ph) = table4::from_fig4(&f, &fm, &fh);
    assert_same("table4", (&t, &m, &h), (&pt, &pm, &ph));
}

#[test]
fn table3_and_diag_on_their_own_match_their_projections_of_fig6() {
    let ctx = ctx();
    let (f, _, fm, fh) = fig6::run_profiled(&ctx);

    let (t, timings, m, h) = table3::run_profiled(&ctx);
    let labels: Vec<&str> = timings.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "fig6/SC/buddy",
            "fig6/TP/buddy",
            "fig6/TS/buddy",
            "table3/SC/alloc",
            "table3/TP/alloc",
            "table3/TS/alloc"
        ],
        "the 3 buddy cells and table3's own allocation tests"
    );
    let (pt, own, pm, ph) = table3::from_fig6(&ctx, &f, &fm, &fh);
    assert_eq!(own.len(), 3, "projecting simulates only the allocation tests");
    assert_same("table3", (&t, &m, &h), (&pt, &pm, &ph));

    let (d, timings, m, h) = diag::run_profiled(&ctx);
    assert_eq!(timings.len(), 12, "all 12 fig6 cells");
    let (pd, pm, ph) = diag::from_fig6(&f, &fm, &fh);
    assert_same("diag", (&d, &m, &h), (&pd, &pm, &ph));
}
