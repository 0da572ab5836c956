//! Figure 5 (a–f): application and sequential performance for the
//! extent-based policies, over the Figure 4 sweep.
//!
//! Paper shape targets: throughput fairly insensitive to first-fit vs
//! best-fit (first-fit marginally ahead from its low-address clustering);
//! TP/SC peak around 3 ranges, where the average extents per file bottom
//! out (Table 4).

use crate::context::ExperimentContext;
use crate::report::{pct, BarChart, TextTable};
use crate::runner::{self, Job, Profiled};
use readopt_alloc::FitStrategy;
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Workload label.
    pub workload: String,
    /// Number of extent ranges (1–5).
    pub n_ranges: usize,
    /// First-fit or best-fit.
    pub fit: FitStrategy,
    /// Application throughput, % of max.
    pub application_pct: f64,
    /// Sequential throughput, % of max.
    pub sequential_pct: f64,
    /// Average extents per live file at the end of the run (Table 4).
    pub avg_extents_per_file: f64,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// All 30 sweep points.
    pub points: Vec<Fig5Point>,
}

/// Runs the performance tests across the sweep.
pub fn run(ctx: &ExperimentContext) -> Fig5 {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-point wall-clock timings and the
/// observability sidecars (per-point metrics and latency histograms).
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Fig5> {
    let ctx = *ctx;
    let mut jobs = Vec::new();
    for wl in WorkloadKind::all() {
        for n_ranges in 1..=5usize {
            for fit in [FitStrategy::FirstFit, FitStrategy::BestFit] {
                let label = format!("fig5/{}/r{n_ranges}-{fit:?}", wl.short_name());
                jobs.push(Job::new(label, move || {
                    let policy = ctx.extent_policy(wl, n_ranges, fit);
                    let ((app, seq), tms, ths) = ctx.run_performance_observed(wl, policy);
                    let point = Fig5Point {
                        workload: wl.short_name().to_string(),
                        n_ranges,
                        fit,
                        application_pct: app.throughput_pct,
                        sequential_pct: seq.throughput_pct,
                        avg_extents_per_file: seq.avg_extents_per_file,
                    };
                    (point, tms, ths)
                }));
            }
        }
    }
    let (points, timings, metrics, hists) = runner::sweep(&ctx, "fig5", jobs);
    (Fig5 { points }, timings, metrics, hists)
}

impl Fig5 {
    /// Points for one workload, in sweep order.
    pub fn workload(&self, short_name: &str) -> Vec<&Fig5Point> {
        self.points.iter().filter(|p| p.workload == short_name).collect()
    }
}

impl Fig5 {
    /// Renders the six panels (application/sequential per workload).
    pub fn chart(&self) -> String {
        let mut out = String::new();
        for wl in ["TS", "TP", "SC"] {
            for (metric, app) in [("application", true), ("sequential", false)] {
                let mut c = BarChart::new(format!(
                    "Figure 5 ({wl}): {metric} performance (% of max)"
                ))
                .scale_to(100.0);
                let mut last_n = 0;
                for p in self.workload(wl) {
                    if p.n_ranges != last_n && last_n != 0 {
                        c.gap();
                    }
                    last_n = p.n_ranges;
                    let v = if app { p.application_pct } else { p.sequential_pct };
                    c.bar(format!("{} ranges {:?}", p.n_ranges, p.fit), v);
                }
                out.push_str(&c.to_string());
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Figure 5: Application and Sequential Performance, Extent Based Policies")
            .headers(["workload", "ranges", "fit", "application", "sequential", "extents/file"]);
        for p in &self.points {
            t.row([
                p.workload.clone(),
                p.n_ranges.to_string(),
                format!("{:?}", p.fit),
                pct(p.application_pct),
                pct(p.sequential_pct),
                format!("{:.1}", p.avg_extents_per_file),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_strategies_perform_similarly() {
        let ctx = ExperimentContext::fast(64);
        let wl = WorkloadKind::Supercomputer;
        let (_, seq_ff) = ctx.run_performance(wl, ctx.extent_policy(wl, 3, FitStrategy::FirstFit));
        let (_, seq_bf) = ctx.run_performance(wl, ctx.extent_policy(wl, 3, FitStrategy::BestFit));
        let ratio = seq_ff.throughput_pct / seq_bf.throughput_pct.max(1e-9);
        assert!(
            (0.6..1.7).contains(&ratio),
            "first-fit {} vs best-fit {}",
            seq_ff.throughput_pct,
            seq_bf.throughput_pct
        );
    }
}
