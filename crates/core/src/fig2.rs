//! Figure 2 (a–f): application and sequential performance for the
//! restricted buddy policy, over the same sweep as Figure 1.
//!
//! Paper shape targets: larger maximum block sizes buy ~20–25 % more
//! throughput for SC/TP; clustering helps TS (up to ~20 % sequentially);
//! the grow factor matters mostly for TS (the Figure 3 interaction).

use crate::context::ExperimentContext;
use crate::fig1::sweep_configs;
use crate::report::{pct, BarChart, TextTable};
use crate::runner::{self, Job, Profiled};
use readopt_alloc::{PolicyConfig, RestrictedConfig};
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Point {
    /// Workload label.
    pub workload: String,
    /// Number of block sizes in the ladder (2–5).
    pub nsizes: usize,
    /// Grow factor (1 or 2).
    pub grow_factor: u64,
    /// Clustered configuration?
    pub clustered: bool,
    /// Application throughput, % of max.
    pub application_pct: f64,
    /// Sequential throughput, % of max.
    pub sequential_pct: f64,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2 {
    /// All sweep points.
    pub points: Vec<Fig2Point>,
}

/// Runs the performance tests across the whole sweep.
pub fn run(ctx: &ExperimentContext) -> Fig2 {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-point wall-clock timings and the
/// observability sidecars (per-point metrics and latency histograms, both
/// in sweep order).
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Fig2> {
    run_sweep(ctx, &WorkloadKind::all(), &sweep_configs())
}

/// As [`run_profiled`], restricted to a subset of the sweep (the
/// determinism tests use one to keep runtimes down).
pub fn run_sweep(
    ctx: &ExperimentContext,
    workloads: &[WorkloadKind],
    configs: &[(usize, u64, bool)],
) -> Profiled<Fig2> {
    let ctx = *ctx;
    let mut jobs = Vec::new();
    for &wl in workloads {
        for &(nsizes, grow, clustered) in configs {
            let label = format!(
                "fig2/{}/n{nsizes}-g{grow}-{}",
                wl.short_name(),
                if clustered { "c" } else { "u" }
            );
            jobs.push(Job::new(label, move || {
                let policy = PolicyConfig::Restricted(RestrictedConfig::sweep_point(
                    nsizes, grow, clustered,
                ));
                let ((app, seq), tms, ths) = ctx.run_performance_observed(wl, policy);
                let point = Fig2Point {
                    workload: wl.short_name().to_string(),
                    nsizes,
                    grow_factor: grow,
                    clustered,
                    application_pct: app.throughput_pct,
                    sequential_pct: seq.throughput_pct,
                };
                (point, tms, ths)
            }));
        }
    }
    let (points, timings, metrics, hists) = runner::sweep(&ctx, "fig2", jobs);
    (Fig2 { points }, timings, metrics, hists)
}

impl Fig2 {
    /// Points for one workload, in sweep order.
    pub fn workload(&self, short_name: &str) -> Vec<&Fig2Point> {
        self.points.iter().filter(|p| p.workload == short_name).collect()
    }
}

impl Fig2 {
    /// Renders the six panels (application/sequential per workload).
    pub fn chart(&self) -> String {
        let mut out = String::new();
        for wl in ["TS", "TP", "SC"] {
            for (metric, app) in [("application", true), ("sequential", false)] {
                let mut c = BarChart::new(format!(
                    "Figure 2 ({wl}): {metric} performance (% of max)"
                ))
                .scale_to(100.0);
                let mut last_sizes = 0;
                for p in self.workload(wl) {
                    if p.nsizes != last_sizes && last_sizes != 0 {
                        c.gap();
                    }
                    last_sizes = p.nsizes;
                    let v = if app { p.application_pct } else { p.sequential_pct };
                    c.bar(
                        format!(
                            "{} sizes g{} {}",
                            p.nsizes,
                            p.grow_factor,
                            if p.clustered { "clustered" } else { "unclustered" }
                        ),
                        v,
                    );
                }
                out.push_str(&c.to_string());
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 2: Application and Sequential Performance, Restricted Buddy Policy",
        )
        .headers(["workload", "block sizes", "grow", "clustered", "application", "sequential"]);
        for p in &self.points {
            t.row([
                p.workload.clone(),
                p.nsizes.to_string(),
                p.grow_factor.to_string(),
                if p.clustered { "yes".into() } else { "no".to_string() },
                pct(p.application_pct),
                pct(p.sequential_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_blocks_help_large_file_workloads() {
        // One slice of the sweep: SC with 2-size vs 5-size ladders.
        let ctx = ExperimentContext::fast(64);
        let small = PolicyConfig::Restricted(RestrictedConfig::sweep_point(2, 1, true));
        let large = PolicyConfig::Restricted(RestrictedConfig::sweep_point(5, 1, true));
        let (_, seq_small) = ctx.run_performance(WorkloadKind::Supercomputer, small);
        let (_, seq_large) = ctx.run_performance(WorkloadKind::Supercomputer, large);
        assert!(
            seq_large.throughput_pct >= seq_small.throughput_pct * 0.9,
            "5-size ladder should not lose to 2-size: {} vs {}",
            seq_large.throughput_pct,
            seq_small.throughput_pct
        );
    }
}
