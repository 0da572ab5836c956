//! Table 3: results for buddy allocation.
//!
//! The paper's numbers (full scale, for EXPERIMENTS.md comparison):
//!
//! | workload | internal | external | application | sequential |
//! |----------|----------|----------|-------------|------------|
//! | SC       | 43.1 %   | 13.4 %   | 88.0 %      | 94.4 %     |
//! | TP       | 15.2 %   |  9.0 %   | 27.7 %      | 93.9 %     |
//! | TS       | 18.4 %   |  2.3 %   |  8.4 %      | 12.0 %     |

use crate::context::ExperimentContext;
use crate::metrics::{split3, ExperimentHist, ExperimentMetrics, PointHist, PointMetrics};
use crate::report::{pct, TextTable};
use crate::runner::{self, Job, JobTiming};
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

/// Runs buddy allocation through the §3 suite on all three workloads.
pub fn run(ctx: &ExperimentContext) -> Table3 {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-point wall-clock timings and the
/// observability sidecars. The allocation and performance tests of each
/// workload are independent simulations, so they fan out as separate jobs
/// (6 total).
pub fn run_profiled(
    ctx: &ExperimentContext,
) -> (Table3, Vec<JobTiming>, ExperimentMetrics, ExperimentHist) {
    let out = runner::run_recorded(ctx, "table3", sweep_jobs(ctx));
    let (values, metrics, hists): (Vec<(f64, f64)>, _, _) = split3(out.results);
    let workloads = [
        WorkloadKind::Supercomputer,
        WorkloadKind::TransactionProcessing,
        WorkloadKind::Timesharing,
    ];
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
    (
        Table3 { rows },
        out.timings,
        ExperimentMetrics::new("table3", metrics),
        ExperimentHist::new("table3", hists),
    )
}

/// The 6 independent simulations as runner jobs: alloc then perf per
/// workload, SC/TP/TS order.
fn sweep_jobs(ctx: &ExperimentContext) -> Vec<Job<'static, ((f64, f64), PointMetrics, PointHist)>> {
    let ctx = *ctx;
    let workloads = [
        WorkloadKind::Supercomputer,
        WorkloadKind::TransactionProcessing,
        WorkloadKind::Timesharing,
    ];
    let mut jobs: Vec<Job<((f64, f64), PointMetrics, PointHist)>> = Vec::new();
    for wl in workloads {
        let alloc_label = format!("table3/{}/alloc", wl.short_name());
        let alloc_point = alloc_label.clone();
        jobs.push(Job::new(alloc_label, move || {
            let (frag, tm, th) = ctx.run_allocation_observed(wl, PolicyConfig::paper_buddy());
            (
                (frag.internal_pct, frag.external_pct),
                PointMetrics::new(alloc_point.clone(), vec![tm]),
                PointHist::new(alloc_point, vec![th]),
            )
        }));
        let perf_label = format!("table3/{}/perf", wl.short_name());
        let perf_point = perf_label.clone();
        jobs.push(Job::new(perf_label, move || {
            let ((app, seq), tms, ths) =
                ctx.run_performance_observed(wl, PolicyConfig::paper_buddy());
            (
                (app.throughput_pct, seq.throughput_pct),
                PointMetrics::new(perf_point.clone(), tms),
                PointHist::new(perf_point, ths),
            )
        }));
    }
    jobs
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
        let table = run(&ExperimentContext::fast(64));
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
