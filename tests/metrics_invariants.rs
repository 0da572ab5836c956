//! Cross-driver invariants of the observability layer.
//!
//! The metrics sidecar is derived from the same counters the simulator has
//! always kept, so three things must hold everywhere, for every driver:
//!
//! 1. The service-time decomposition is exact: per disk,
//!    `seek_ms + rotational_ms + transfer_ms == busy_ms` (head-switch time
//!    is a subset of transfer, not a fourth phase).
//! 2. Derived gauges are sane: utilization in [0, 1] per disk and combined,
//!    histogram counts equal queued request counts.
//! 3. The layer is an observer, not a participant: metered entry points
//!    return byte-identical results to their unmetered counterparts, and
//!    sidecars are byte-identical at any worker count.

use readopt::experiments::{diag, fig4, fig5, fig6, table3, ExperimentContext, ExperimentMetrics};
use readopt_sim::DiskPhaseMetrics;

fn ctx_with_jobs(jobs: usize) -> ExperimentContext {
    let mut ctx = ExperimentContext::fast(64).with_jobs(jobs);
    ctx.max_intervals = 4;
    ctx
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn assert_disk_invariants(where_: &str, d: &DiskPhaseMetrics) {
    let phases = d.seek_ms + d.rotational_ms + d.transfer_ms;
    assert!(
        (phases - d.busy_ms).abs() <= 1e-6 * d.busy_ms.max(1.0),
        "{where_}: seek {} + rot {} + xfer {} = {phases} != busy {}",
        d.seek_ms,
        d.rotational_ms,
        d.transfer_ms,
        d.busy_ms
    );
    assert!(
        d.head_switch_ms <= d.transfer_ms + 1e-9,
        "{where_}: head-switch {} exceeds transfer {}",
        d.head_switch_ms,
        d.transfer_ms
    );
    assert!(
        (0.0..=1.0).contains(&d.utilization),
        "{where_}: utilization {}",
        d.utilization
    );
    let hist_total: u64 = {
        let mut t = 0u64;
        for &b in &d.queue_depth_hist {
            t += b;
        }
        t
    };
    assert_eq!(
        hist_total, d.requests,
        "{where_}: queue-depth histogram must observe every request arrival"
    );
    assert!(
        d.queued_requests <= d.requests,
        "{where_}: {} waited but only {} arrived",
        d.queued_requests,
        d.requests
    );
    if d.requests == 0 {
        assert_eq!(d.busy_ms, 0.0, "{where_}: busy time with zero requests");
    }
}

fn assert_metrics_invariants(m: &ExperimentMetrics) {
    let mut snapshots = 0usize;
    for p in &m.points {
        for t in &p.tests {
            snapshots += 1;
            for (i, d) in t.storage.per_disk.iter().enumerate() {
                assert_disk_invariants(&format!("{}/{}/{}/disk{i}", m.experiment, p.label, t.test), d);
            }
            let c = &t.storage.combined;
            assert!(
                (0.0..=1.0).contains(&c.utilization),
                "{}/{}: combined utilization {}",
                m.experiment,
                p.label,
                c.utilization
            );
            // Combined phase times are the sums over the array's disks.
            let per_disk_busy: f64 = {
                let mut s = 0.0;
                for d in &t.storage.per_disk {
                    s += d.busy_ms;
                }
                s
            };
            assert!(
                (per_disk_busy - c.busy_ms).abs() <= 1e-6 * c.busy_ms.max(1.0),
                "{}/{}: combined busy {} vs per-disk sum {per_disk_busy}",
                m.experiment,
                p.label,
                c.busy_ms
            );
        }
    }
    assert!(snapshots > 0, "{}: sidecar carries no snapshots", m.experiment);
}

#[test]
fn decomposition_holds_across_drivers() {
    let ctx = ctx_with_jobs(2);
    let (_, _, m4, _) = fig4::run_profiled(&ctx);
    assert_metrics_invariants(&m4);
    let (_, _, m5, _) = fig5::run_profiled(&ctx);
    assert_metrics_invariants(&m5);
    let (_, _, m3, _) = table3::run_profiled(&ctx);
    assert_metrics_invariants(&m3);
    let (_, _, md, _) = diag::run_profiled(&ctx);
    assert_metrics_invariants(&md);
}

#[test]
fn sidecars_are_byte_identical_across_worker_counts() {
    let (_, _, seq, seq_h) = table3::run_profiled(&ctx_with_jobs(1));
    let (_, _, par, par_h) = table3::run_profiled(&ctx_with_jobs(4));
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "table3 sidecar must not depend on the worker count"
    );
    assert_eq!(
        serde_json::to_string(&seq_h).unwrap(),
        serde_json::to_string(&par_h).unwrap(),
        "table3 histogram sidecar must not depend on the worker count"
    );
    let (_, _, seq, seq_h) = diag::run_profiled(&ctx_with_jobs(1));
    let (_, _, par, par_h) = diag::run_profiled(&ctx_with_jobs(4));
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "diag sidecar must not depend on the worker count"
    );
    assert_eq!(
        serde_json::to_string(&seq_h).unwrap(),
        serde_json::to_string(&par_h).unwrap(),
        "diag histogram sidecar must not depend on the worker count"
    );
}

/// diag decomposes each Figure 6 cell's application test, so its per-cell
/// metrics and histogram are fig6's application snapshots, counters
/// included: no disk-full event from set-up may leak into them.
#[test]
fn diag_application_metrics_equal_fig6s() {
    let ctx = ctx_with_jobs(2);
    let (_, _, diag_m, diag_h) = diag::run_profiled(&ctx);
    let (_, _, fig6_m, fig6_h) = fig6::run_profiled(&ctx);
    assert_eq!(diag_m.points.len(), 12);
    assert_eq!(diag_m.points.len(), fig6_m.points.len());
    for ((d, f), (dh, fh)) in
        diag_m.points.iter().zip(&fig6_m.points).zip(diag_h.points.iter().zip(&fig6_h.points))
    {
        assert_eq!(d.label, f.label.replacen("fig6/", "diag/", 1));
        assert_eq!(d.tests.len(), 1, "{}: the application test only", d.label);
        assert_eq!(f.tests[0].test, "application");
        assert_eq!(
            json(&d.tests[0]),
            json(&f.tests[0]),
            "{}: application metrics differ from {}'s",
            d.label,
            f.label
        );
        assert_eq!(json(&dh.tests[0]), json(&fh.tests[0]), "{}: histogram differs", dh.label);
    }
}

/// The observed entry points (`run_*_observed`, and the plain
/// `run_allocation`/`run_performance` built on them) take snapshots and
/// reset counters between tests; a bare simulation of the same
/// configuration and seed, running the §3 tests with neither, must report
/// the same bytes.
#[test]
fn metered_runs_return_unmetered_results() {
    use readopt::sim::Simulation;
    use readopt_alloc::PolicyConfig;
    use readopt_workloads::WorkloadKind;
    let ctx = ctx_with_jobs(1);
    let wl = WorkloadKind::Timesharing;
    let policy = PolicyConfig::paper_restricted();
    let cfg = ctx.sim_config(wl, policy.clone());

    let bare = Simulation::new(&cfg, ctx.seed).run_allocation_test();
    let (metered, tm, _) = ctx.run_allocation_observed(wl, policy.clone());
    assert_eq!(json(&bare), json(&metered), "metering must not perturb the allocation result");
    assert_eq!(json(&bare), json(&ctx.run_allocation(wl, policy.clone())));
    assert_eq!(tm.test, "allocation");

    // The performance tests run on seed + 1, application first.
    let mut sim = Simulation::new(&cfg, ctx.seed.wrapping_add(1));
    let bare = (sim.run_application_test(), sim.run_sequential_test());
    let (metered, tms, _) = ctx.run_performance_observed(wl, policy.clone());
    assert_eq!(json(&bare), json(&metered), "metering must not perturb the performance results");
    assert_eq!(json(&bare), json(&ctx.run_performance(wl, policy)));
    assert_eq!(tms.len(), 2);
}
