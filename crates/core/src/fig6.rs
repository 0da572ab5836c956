//! Figure 6 (a, b): comparative performance of the four allocation
//! policies.
//!
//! §5 compares the *selected* configurations — buddy; restricted buddy with
//! five block sizes, grow factor 1, clustered; extent-based with three
//! ranges, first-fit — against 4 KB (TS) / 16 KB (TP, SC) fixed-block
//! systems "which do not bias towards automatic striping or contiguous
//! layout".
//!
//! Paper shape targets: every multiblock policy beats fixed-block
//! sequentially; SC/TP sequential near the full bandwidth for the
//! multiblock policies; nobody pushes TS past ~20 %; buddy wins SC
//! application via its enormous blocks.
//!
//! Table 3's throughput columns and the diag table are read off these
//! cells (`table3::from_fig6`, `diag::from_fig6`).

use crate::context::ExperimentContext;
use crate::report::{pct, BarChart, TextTable};
use crate::runner::{self, Job, Profiled};
use readopt_alloc::{FitStrategy, PolicyConfig};
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One (policy, workload) cell of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Cell {
    /// Workload label.
    pub workload: String,
    /// Policy label ("buddy", "restricted-buddy", "extent", "fixed-4K"…).
    pub policy: String,
    /// Application throughput, % of max (Figure 6b).
    pub application_pct: f64,
    /// Sequential throughput, % of max (Figure 6a).
    pub sequential_pct: f64,
}

/// The full comparison grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6 {
    /// 3 workloads × 4 policies.
    pub cells: Vec<Fig6Cell>,
}

/// The §5 policy line-up for one workload.
pub fn policies_for(ctx: &ExperimentContext, wl: WorkloadKind) -> Vec<(String, PolicyConfig)> {
    vec![
        ("buddy".to_string(), PolicyConfig::paper_buddy()),
        ("restricted-buddy".to_string(), PolicyConfig::paper_restricted()),
        ("extent".to_string(), ctx.extent_policy(wl, 3, FitStrategy::FirstFit)),
        (
            format!("fixed-{}K", wl.fixed_block_bytes() / 1024),
            ExperimentContext::fixed_policy(wl),
        ),
    ]
}

/// Runs the comparison, returning with it per-cell wall-clock timings and
/// the observability sidecars (per-cell metrics and latency histograms, in
/// sweep order; one snapshot each for the application and the
/// sequential test).
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Fig6> {
    run_cells(ctx, None)
}

/// As [`run_profiled`], restricted to the cells of the policy named `only`
/// (`None` runs all 12 cells; still in sweep order). When Figure 6 is not
/// in the run, Table 3 runs the buddy cells this way and diag all of them.
pub fn run_cells(ctx: &ExperimentContext, only: Option<&str>) -> Profiled<Fig6> {
    let ctx = *ctx;
    let mut jobs = Vec::new();
    for wl in [
        WorkloadKind::Supercomputer,
        WorkloadKind::TransactionProcessing,
        WorkloadKind::Timesharing,
    ] {
        for (name, policy) in policies_for(&ctx, wl)
            .into_iter()
            .filter(|(name, _)| only.is_none_or(|p| p == name))
        {
            let label = format!("fig6/{}/{name}", wl.short_name());
            jobs.push(Job::new(label, move || {
                let ((app, seq), tms, ths) = ctx.run_performance_observed(wl, policy);
                let cell = Fig6Cell {
                    workload: wl.short_name().to_string(),
                    policy: name,
                    application_pct: app.throughput_pct,
                    sequential_pct: seq.throughput_pct,
                };
                (cell, tms, ths)
            }));
        }
    }
    let (cells, timings, metrics, hists) = runner::sweep(&ctx, "fig6", jobs);
    (Fig6 { cells }, timings, metrics, hists)
}

impl Fig6 {
    /// The cell for a given workload and policy prefix.
    pub fn cell(&self, workload: &str, policy_prefix: &str) -> Option<&Fig6Cell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.policy.starts_with(policy_prefix))
    }
}

impl Fig6 {
    /// Renders the two panels (6a sequential, 6b application) as bar
    /// charts, grouped by workload like the paper's figure.
    pub fn chart(&self) -> String {
        let mut out = String::new();
        for (panel, pick) in [
            ("Figure 6a: Sequential Performance (% of max)", true),
            ("Figure 6b: Application Performance (% of max)", false),
        ] {
            let mut c = BarChart::new(panel).scale_to(100.0);
            let mut last_wl = String::new();
            for cell in &self.cells {
                if cell.workload != last_wl && !last_wl.is_empty() {
                    c.gap();
                }
                last_wl = cell.workload.clone();
                let v = if pick { cell.sequential_pct } else { cell.application_pct };
                c.bar(format!("{} {}", cell.workload, cell.policy), v);
            }
            out.push_str(&c.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Figure 6: Comparative Performance of the Allocation Policies")
            .headers(["workload", "policy", "sequential (6a)", "application (6b)"]);
        for c in &self.cells {
            t.row([
                c.workload.clone(),
                c.policy.clone(),
                pct(c.sequential_pct),
                pct(c.application_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_section_5() {
        let ctx = ExperimentContext::fast(64);
        let ps = policies_for(&ctx, WorkloadKind::Timesharing);
        assert_eq!(ps.len(), 4);
        assert_eq!(ps[3].0, "fixed-4K");
        let ps = policies_for(&ctx, WorkloadKind::Supercomputer);
        assert_eq!(ps[3].0, "fixed-16K");
    }

    #[test]
    fn multiblock_beats_fixed_block_sequentially_on_sc() {
        let ctx = ExperimentContext::fast(64);
        let wl = WorkloadKind::Supercomputer;
        let (_, seq_extent) = ctx.run_performance(wl, ctx.extent_policy(wl, 3, FitStrategy::FirstFit));
        let (_, seq_fixed) = ctx.run_performance(wl, ExperimentContext::fixed_policy(wl));
        assert!(
            seq_extent.throughput_pct > seq_fixed.throughput_pct,
            "extent {} vs fixed {}",
            seq_extent.throughput_pct,
            seq_fixed.throughput_pct
        );
    }
}
