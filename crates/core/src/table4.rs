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

use crate::context::ExperimentContext;
use crate::metrics::{split3, ExperimentHist, ExperimentMetrics, PointHist, PointMetrics};
use crate::report::TextTable;
use crate::runner::{self, Job, JobTiming};
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
/// filled the disk.
pub fn run(ctx: &ExperimentContext) -> Table4 {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-point wall-clock timings and the
/// observability sidecars. Each of the 15 (range count, workload) cells is
/// an independent simulation job.
pub fn run_profiled(
    ctx: &ExperimentContext,
) -> (Table4, Vec<JobTiming>, ExperimentMetrics, ExperimentHist) {
    let out = runner::run_recorded(ctx, "table4", sweep_jobs(ctx));
    let (values, metrics, hists): (Vec<f64>, _, _) = split3(out.results);
    let rows = (1..=5usize)
        .zip(values.chunks_exact(3))
        .map(|(n_ranges, v)| Table4Row { n_ranges, sc: v[0], tp: v[1], ts: v[2] })
        .collect();
    (
        Table4 { rows },
        out.timings,
        ExperimentMetrics::new("table4", metrics),
        ExperimentHist::new("table4", hists),
    )
}

/// The 15 cells as runner jobs, in sweep order.
fn sweep_jobs(ctx: &ExperimentContext) -> Vec<Job<'static, (f64, PointMetrics, PointHist)>> {
    let ctx = *ctx;
    let mut jobs = Vec::new();
    for n_ranges in 1..=5usize {
        for wl in [
            WorkloadKind::Supercomputer,
            WorkloadKind::TransactionProcessing,
            WorkloadKind::Timesharing,
        ] {
            let label = format!("table4/{}/r{n_ranges}", wl.short_name());
            let point_label = label.clone();
            jobs.push(Job::new(label, move || {
                let policy = ctx.extent_policy(wl, n_ranges, FitStrategy::FirstFit);
                let (frag, tm, th) = ctx.run_allocation_observed(wl, policy);
                (
                    frag.avg_extents_per_file,
                    PointMetrics::new(point_label.clone(), vec![tm]),
                    PointHist::new(point_label, vec![th]),
                )
            }));
        }
    }
    jobs
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
