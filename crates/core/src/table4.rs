//! Table 4: average number of extents per file for each extent-based
//! configuration.
//!
//! The paper's values (first-fit; see EXPERIMENTS.md for the comparison and
//! the range-assignment caveat in DESIGN.md §"Substitutions"):
//!
//! | ranges | SC  | TP  | TS |
//! |--------|-----|-----|----|
//! | 1      | 162 | 267 | 5  |
//! | 2      | 124 | 13  | 9  |
//! | 3      | 97  | 12  | 9  |
//! | 4      | 151 | 14  | 7  |
//! | 5      | 162 | 108 | 6  |
//!
//! Its cells are Figure 4's first-fit points, so the table is a projection
//! of Figure 4's outputs ([`from_fig4`]) and simulates nothing of its own.

use crate::context::ExperimentContext;
use crate::fig4::{self, Fig4};
use crate::metrics::{ExperimentHist, ExperimentMetrics};
use crate::report::TextTable;
use crate::runner::{self, Profiled};
use readopt_alloc::FitStrategy;
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One row: average extents per file for each workload at a range count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Number of extent ranges (1–5).
    pub n_ranges: usize,
    /// SC average extents per file.
    pub sc: f64,
    /// TP average extents per file.
    pub tp: f64,
    /// TS average extents per file.
    pub ts: f64,
}

/// The full table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4 {
    /// Rows for 1–5 ranges.
    pub rows: Vec<Table4Row>,
}

/// Measures average extents per file with first-fit allocation (the
/// configuration the paper carries into §5) after the allocation test has
/// filled the disk, returning with it per-point wall-clock timings and the
/// observability sidecars. Runs Figure 4's 15 first-fit points (through
/// Figure 4's own job builder) and projects them with [`from_fig4`].
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Table4> {
    let (fig4, timings, metrics, hists) = fig4::run_fits(ctx, &[FitStrategy::FirstFit]);
    let (table, metrics, hists) = from_fig4(&fig4, &metrics, &hists);
    (table, timings, metrics, hists)
}

/// Table 4 read off Figure 4's outputs, simulating nothing: each cell is
/// the `avg_extents_per_file` of the first-fit point with the same
/// workload and range count, and its metrics and histograms are that
/// point's, relabeled `table4/<workload>/r<n>`.
///
/// Panics if `fig4` lacks one of the 15 first-fit points.
pub fn from_fig4(
    fig4: &Fig4,
    metrics: &ExperimentMetrics,
    hists: &ExperimentHist,
) -> (Table4, ExperimentMetrics, ExperimentHist) {
    let mut points = Vec::new();
    for n_ranges in 1..=5usize {
        for wl in [
            WorkloadKind::Supercomputer,
            WorkloadKind::TransactionProcessing,
            WorkloadKind::Timesharing,
        ] {
            let i = fig4
                .points
                .iter()
                .position(|p| {
                    p.workload == wl.short_name()
                        && p.n_ranges == n_ranges
                        && p.fit == FitStrategy::FirstFit
                })
                .unwrap_or_else(|| {
                    panic!("fig4 has no first-fit point for {} r{n_ranges}", wl.short_name())
                });
            points.push((
                format!("table4/{}/r{n_ranges}", wl.short_name()),
                (
                    fig4.points[i].avg_extents_per_file,
                    metrics.points[i].tests.clone(),
                    hists.points[i].tests.clone(),
                ),
            ));
        }
    }
    let (values, metrics, hists) = runner::assemble("table4", points);
    let rows = (1..=5usize)
        .zip(values.chunks_exact(3))
        .map(|(n_ranges, v)| Table4Row { n_ranges, sc: v[0], tp: v[1], ts: v[2] })
        .collect();
    (Table4 { rows }, metrics, hists)
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Table 4: Average Number of Extents Per File")
            .headers(["ranges", "SC", "TP", "TS"]);
        for r in &self.rows {
            t.row([
                r.n_ranges.to_string(),
                format!("{:.0}", r.sc),
                format!("{:.0}", r.tp),
                format!("{:.0}", r.ts),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_small_range_forces_many_extents_for_tp() {
        let ctx = ExperimentContext::fast(64);
        let wl = WorkloadKind::TransactionProcessing;
        let one = ctx.run_allocation(wl, ctx.extent_policy(wl, 1, FitStrategy::FirstFit));
        let two = ctx.run_allocation(wl, ctx.extent_policy(wl, 2, FitStrategy::FirstFit));
        // Adding the 16 MB range collapses the relations' extent counts —
        // the paper's 267 → 13 drop, in shape.
        assert!(
            one.avg_extents_per_file > 2.0 * two.avg_extents_per_file,
            "1 range: {}, 2 ranges: {}",
            one.avg_extents_per_file,
            two.avg_extents_per_file
        );
    }

    #[test]
    fn ts_files_stay_at_a_handful_of_extents() {
        let ctx = ExperimentContext::fast(64);
        let wl = WorkloadKind::Timesharing;
        let frag = ctx.run_allocation(wl, ctx.extent_policy(wl, 3, FitStrategy::FirstFit));
        assert!(
            frag.avg_extents_per_file < 30.0,
            "TS extents per file {}",
            frag.avg_extents_per_file
        );
    }
}
