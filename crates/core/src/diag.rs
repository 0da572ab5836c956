//! Diagnostics: where does the disk time go?
//!
//! Not a paper artifact — this decomposes each (workload, policy)
//! application run into seek / rotational-latency / transfer shares of disk
//! busy time, plus utilization. It is the quantitative backing for the
//! throughput discussion in EXPERIMENTS.md: read-optimized layouts win by
//! converting seek time into transfer time, and this table shows exactly
//! how much of each the policies buy.
//!
//! The application tests it decomposes are Figure 6's, so the table is a
//! projection of Figure 6's outputs ([`from_fig6`]) and simulates nothing
//! of its own.

use crate::context::ExperimentContext;
use crate::fig6::{self, Fig6};
use crate::metrics::{ExperimentHist, ExperimentMetrics};
use crate::report::{pct, TextTable};
use crate::runner::{self, Profiled};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One (workload, policy) decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagRow {
    /// Workload label.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Application throughput, % of max.
    pub application_pct: f64,
    /// Share of disk busy time spent seeking, %.
    pub seek_share_pct: f64,
    /// Share spent in rotational latency, %.
    pub rotation_share_pct: f64,
    /// Share spent transferring data, %.
    pub transfer_share_pct: f64,
    /// Mean physical request size, KB.
    pub avg_request_kb: f64,
    /// Mean disk busy fraction during the measured window.
    pub disk_utilization: f64,
}

/// The full diagnostic grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diag {
    /// 3 workloads × 4 policies.
    pub rows: Vec<DiagRow>,
}

/// Decomposes the disk time of every Figure 6 cell's application test.
pub fn run(ctx: &ExperimentContext) -> Diag {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-cell wall-clock timings and the
/// observability sidecars (the application-test snapshots the rows are
/// derived from, and their latency histograms). Runs Figure 6's 12 cells
/// (through Figure 6's own job builder) and projects them with
/// [`from_fig6`].
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Diag> {
    let (fig6, timings, metrics, hists) = fig6::run_cells(ctx, None);
    let (diag, metrics, hists) = from_fig6(&fig6, &metrics, &hists);
    (diag, timings, metrics, hists)
}

/// The diagnostics read off Figure 6's outputs, simulating nothing: one
/// row per cell, from the snapshot and histogram of its application test
/// (the first of the cell's two tests), relabeled
/// `diag/<workload>/<policy>`.
pub fn from_fig6(
    fig6: &Fig6,
    metrics: &ExperimentMetrics,
    hists: &ExperimentHist,
) -> (Diag, ExperimentMetrics, ExperimentHist) {
    let points = fig6
        .cells
        .iter()
        .zip(&metrics.points)
        .zip(&hists.points)
        .map(|((cell, m), h)| {
            let tm = &m.tests[0];
            let c = &tm.storage.combined;
            let (seek, rotation, transfer) = c.phase_shares_pct();
            let row = DiagRow {
                workload: cell.workload.clone(),
                policy: cell.policy.clone(),
                application_pct: cell.application_pct,
                seek_share_pct: seek,
                rotation_share_pct: rotation,
                transfer_share_pct: transfer,
                avg_request_kb: (c.bytes_read + c.bytes_written) as f64
                    / c.requests.max(1) as f64
                    / 1024.0,
                disk_utilization: c.utilization,
            };
            let label = format!("diag/{}/{}", cell.workload, cell.policy);
            (label, (row, vec![tm.clone()], vec![h.tests[0].clone()]))
        });
    let (rows, metrics, hists) = runner::assemble("diag", points);
    (Diag { rows }, metrics, hists)
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Diagnostics: disk-time decomposition (application tests)")
            .headers([
                "workload", "policy", "app %max", "seek", "rotation", "transfer", "avg req", "disk busy",
            ]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                r.policy.clone(),
                pct(r.application_pct),
                pct(r.seek_share_pct),
                pct(r.rotation_share_pct),
                pct(r.transfer_share_pct),
                format!("{:.1}K", r.avg_request_kb),
                pct(100.0 * r.disk_utilization),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_sums_to_one_and_tells_the_story() {
        let diag = run(&ExperimentContext::fast(64));
        assert_eq!(diag.rows.len(), 12);
        for r in &diag.rows {
            let total = r.seek_share_pct + r.rotation_share_pct + r.transfer_share_pct;
            assert!((total - 100.0).abs() < 0.5, "{}/{}: shares sum to {total}", r.workload, r.policy);
        }
        // SC under a multiblock policy spends most disk time transferring;
        // TS under any policy is seek/rotation dominated.
        let sc_buddy = diag.rows.iter().find(|r| r.workload == "SC" && r.policy == "buddy").unwrap();
        let ts_buddy = diag.rows.iter().find(|r| r.workload == "TS" && r.policy == "buddy").unwrap();
        assert!(
            sc_buddy.transfer_share_pct > 55.0,
            "SC buddy transfer share {}",
            sc_buddy.transfer_share_pct
        );
        assert!(
            ts_buddy.transfer_share_pct < 50.0,
            "TS buddy transfer share {}",
            ts_buddy.transfer_share_pct
        );
        assert!(sc_buddy.avg_request_kb > ts_buddy.avg_request_kb);
    }
}
