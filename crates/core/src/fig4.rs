//! Figure 4 (a–f): internal and external fragmentation for the extent-based
//! policies.
//!
//! Sweep: 1–5 extent ranges (per-workload tables from §4.3) × first-fit /
//! best-fit × three workloads. Paper shape targets: "even with a wide range
//! of extent sizes, neither internal nor external fragmentation surpasses
//! 5 %"; best-fit consistently fragments (slightly) less.
//!
//! Table 4 is read off the first-fit points (`table4::from_fig4`).

use crate::context::ExperimentContext;
use crate::report::{pct, BarChart, TextTable};
use crate::runner::{self, Job, Profiled};
use readopt_alloc::FitStrategy;
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Workload label.
    pub workload: String,
    /// Number of extent ranges (1–5).
    pub n_ranges: usize,
    /// First-fit or best-fit.
    pub fit: FitStrategy,
    /// Internal fragmentation, % of allocated space.
    pub internal_pct: f64,
    /// External fragmentation, % of total space.
    pub external_pct: f64,
    /// Average extents per live file (Table 4 is this column of the
    /// first-fit points).
    pub avg_extents_per_file: f64,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4 {
    /// All 30 sweep points (3 workloads × 5 range counts × 2 fits).
    pub points: Vec<Fig4Point>,
}

/// Runs the allocation test across the sweep.
pub fn run(ctx: &ExperimentContext) -> Fig4 {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-point wall-clock timings and the
/// observability sidecars (per-point metrics and latency histograms).
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Fig4> {
    run_fits(ctx, &[FitStrategy::FirstFit, FitStrategy::BestFit])
}

/// As [`run_profiled`], restricted to the points whose fit is in `fits`
/// (still in sweep order). Table 4 runs its first-fit points this way
/// when Figure 4 is not in the run.
pub fn run_fits(ctx: &ExperimentContext, fits: &[FitStrategy]) -> Profiled<Fig4> {
    let ctx = *ctx;
    let mut jobs = Vec::new();
    for wl in WorkloadKind::all() {
        for n_ranges in 1..=5usize {
            for &fit in fits {
                let label = format!("fig4/{}/r{n_ranges}-{fit:?}", wl.short_name());
                jobs.push(Job::new(label, move || {
                    let policy = ctx.extent_policy(wl, n_ranges, fit);
                    let (frag, tm, th) = ctx.run_allocation_observed(wl, policy);
                    let point = Fig4Point {
                        workload: wl.short_name().to_string(),
                        n_ranges,
                        fit,
                        internal_pct: frag.internal_pct,
                        external_pct: frag.external_pct,
                        avg_extents_per_file: frag.avg_extents_per_file,
                    };
                    (point, vec![tm], vec![th])
                }));
            }
        }
    }
    let (points, timings, metrics, hists) = runner::sweep(&ctx, "fig4", jobs);
    (Fig4 { points }, timings, metrics, hists)
}

impl Fig4 {
    /// Points for one workload, in sweep order.
    pub fn workload(&self, short_name: &str) -> Vec<&Fig4Point> {
        self.points.iter().filter(|p| p.workload == short_name).collect()
    }
}

impl Fig4 {
    /// Renders the six panels (internal/external per workload).
    pub fn chart(&self) -> String {
        let mut out = String::new();
        for wl in ["TS", "TP", "SC"] {
            for (metric, internal) in [("internal", true), ("external", false)] {
                let mut c = BarChart::new(format!(
                    "Figure 4 ({wl}): {metric} fragmentation (%)"
                ))
                .scale_at_least(6.0);
                let mut last_n = 0;
                for p in self.workload(wl) {
                    if p.n_ranges != last_n && last_n != 0 {
                        c.gap();
                    }
                    last_n = p.n_ranges;
                    let v = if internal { p.internal_pct } else { p.external_pct };
                    c.bar(format!("{} ranges {:?}", p.n_ranges, p.fit), v);
                }
                out.push_str(&c.to_string());
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Figure 4: Fragmentation, Extent Based Policies")
            .headers(["workload", "ranges", "fit", "internal", "external"]);
        for p in &self.points {
            t.row([
                p.workload.clone(),
                p.n_ranges.to_string(),
                format!("{:?}", p.fit),
                pct(p.internal_pct),
                pct(p.external_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_fragmentation_stays_low_at_fast_scale() {
        let ctx = ExperimentContext::fast(64);
        for fit in [FitStrategy::FirstFit, FitStrategy::BestFit] {
            let policy = ctx.extent_policy(WorkloadKind::Timesharing, 3, fit);
            let frag = ctx.run_allocation(WorkloadKind::Timesharing, policy);
            assert!(frag.internal_pct < 20.0, "{fit:?} internal {}", frag.internal_pct);
            assert!(frag.external_pct < 20.0, "{fit:?} external {}", frag.external_pct);
        }
    }
}
