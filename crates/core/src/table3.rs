//! Table 3: results for buddy allocation.
//!
//! The paper's numbers (full scale, for EXPERIMENTS.md comparison):
//!
//! | workload | internal | external | application | sequential |
//! |----------|----------|----------|-------------|------------|
//! | SC       | 43.1 %   | 13.4 %   | 88.0 %      | 94.4 %     |
//! | TP       | 15.2 %   |  9.0 %   | 27.7 %      | 93.9 %     |
//! | TS       | 18.4 %   |  2.3 %   |  8.4 %      | 12.0 %     |
//!
//! The throughput columns are Figure 6's buddy cells, so they are projected
//! from Figure 6's outputs ([`from_fig6`]); only the three allocation tests
//! are simulated here.

use crate::context::ExperimentContext;
use crate::fig6::{self, Fig6};
use crate::metrics::{ExperimentHist, ExperimentMetrics};
use crate::report::{pct, TextTable};
use crate::runner::{self, Job, Profiled};
use readopt_alloc::PolicyConfig;
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Workload label (SC/TP/TS).
    pub workload: String,
    /// Internal fragmentation, % of allocated space.
    pub internal_pct: f64,
    /// External fragmentation, % of total space.
    pub external_pct: f64,
    /// Application throughput, % of max.
    pub application_pct: f64,
    /// Sequential throughput, % of max.
    pub sequential_pct: f64,
}

/// The full table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3 {
    /// Rows in the paper's order: SC, TP, TS.
    pub rows: Vec<Table3Row>,
}

/// Runs buddy allocation through the §3 suite on all three workloads,
/// returning with it per-point wall-clock timings and the observability
/// sidecars. Runs Figure 6's 3 buddy cells (through Figure 6's own job
/// builder), then [`from_fig6`].
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Table3> {
    let (fig6, mut timings, metrics, hists) = fig6::run_cells(ctx, Some("buddy"));
    let (table, own, metrics, hists) = from_fig6(ctx, &fig6, &metrics, &hists);
    timings.extend(own);
    (table, timings, metrics, hists)
}

/// Table 3 with its application and sequential columns read off Figure
/// 6's buddy cells: runs the three buddy allocation tests (one job each),
/// and takes each `table3/<workload>/perf` point's metrics and histograms
/// from the buddy cell of the same workload. The timings are the
/// allocation tests'.
///
/// Panics if `fig6` lacks a buddy cell.
pub fn from_fig6(
    ctx: &ExperimentContext,
    fig6: &Fig6,
    metrics: &ExperimentMetrics,
    hists: &ExperimentHist,
) -> Profiled<Table3> {
    let workloads = [
        WorkloadKind::Supercomputer,
        WorkloadKind::TransactionProcessing,
        WorkloadKind::Timesharing,
    ];
    let jobs = workloads
        .into_iter()
        .map(|wl| {
            let ctx = *ctx;
            Job::new(format!("table3/{}/alloc", wl.short_name()), move || {
                let (frag, tm, th) = ctx.run_allocation_observed(wl, PolicyConfig::paper_buddy());
                ((frag.internal_pct, frag.external_pct), vec![tm], vec![th])
            })
        })
        .collect();
    let out = runner::run_jobs(ctx.jobs, jobs);
    let mut points = Vec::new();
    for ((wl, alloc), timing) in workloads.into_iter().zip(out.results).zip(&out.timings) {
        let i = fig6
            .cells
            .iter()
            .position(|c| c.workload == wl.short_name() && c.policy == "buddy")
            .unwrap_or_else(|| panic!("fig6 has no buddy cell for {}", wl.short_name()));
        let cell = &fig6.cells[i];
        points.push((timing.label.clone(), alloc));
        points.push((
            format!("table3/{}/perf", wl.short_name()),
            (
                (cell.application_pct, cell.sequential_pct),
                metrics.points[i].tests.clone(),
                hists.points[i].tests.clone(),
            ),
        ));
    }
    let (values, metrics, hists) = runner::assemble("table3", points);
    let rows = workloads
        .iter()
        .zip(values.chunks_exact(2))
        .map(|(wl, pair)| Table3Row {
            workload: wl.short_name().to_string(),
            internal_pct: pair[0].0,
            external_pct: pair[0].1,
            application_pct: pair[1].0,
            sequential_pct: pair[1].1,
        })
        .collect();
    (Table3 { rows }, out.timings, metrics, hists)
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Table 3: Results for Buddy Allocation").headers([
            "Workload",
            "Internal Frag (% alloc)",
            "External Frag (% total)",
            "Application (% max)",
            "Sequential (% max)",
        ]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                pct(r.internal_pct),
                pct(r.external_pct),
                pct(r.application_pct),
                pct(r.sequential_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scale_reproduces_table_3_shape() {
        let table = run_profiled(&ExperimentContext::fast(64)).0;
        assert_eq!(table.rows.len(), 3);
        let sc = &table.rows[0];
        let tp = &table.rows[1];
        let ts = &table.rows[2];
        // Doubling over-allocates heavily under SC's large files.
        assert!(sc.internal_pct > 15.0, "SC internal {}", sc.internal_pct);
        // Sequential beats application for the large-file workloads.
        assert!(sc.sequential_pct > sc.application_pct * 0.9);
        // TS is the small-file-bound workload: lowest sequential throughput.
        assert!(ts.sequential_pct < sc.sequential_pct);
        assert!(ts.sequential_pct < tp.sequential_pct);
        let text = table.to_string();
        assert!(text.contains("Buddy"));
    }
}
