//! Figure 1 (a–f): internal and external fragmentation for the restricted
//! buddy policy.
//!
//! The sweep covers every configuration §4.2 describes: four block-size
//! ladders (2–5 sizes), grow factors 1 and 2, clustered and unclustered —
//! for each of the three workloads. Paper shape targets: nothing above
//! ~6 %; TS worst; g=2 cuts TS internal fragmentation by about a third;
//! unclustered slightly worse external fragmentation.

use crate::context::ExperimentContext;
use crate::report::{pct, BarChart, TextTable};
use crate::runner::{self, Job, Profiled};
use readopt_alloc::{PolicyConfig, RestrictedConfig};
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One bar of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Point {
    /// Workload label.
    pub workload: String,
    /// Number of block sizes in the ladder (2–5).
    pub nsizes: usize,
    /// Grow factor (1 or 2).
    pub grow_factor: u64,
    /// Clustered configuration?
    pub clustered: bool,
    /// Internal fragmentation, % of allocated space.
    pub internal_pct: f64,
    /// External fragmentation, % of total space.
    pub external_pct: f64,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1 {
    /// All 48 sweep points (3 workloads × 4 ladders × 2 grows × 2 modes).
    pub points: Vec<Fig1Point>,
}

/// The sweep's configuration axes, shared with Figure 2.
pub fn sweep_configs() -> Vec<(usize, u64, bool)> {
    let mut out = Vec::new();
    for nsizes in 2..=5usize {
        for grow in [1u64, 2] {
            for clustered in [true, false] {
                out.push((nsizes, grow, clustered));
            }
        }
    }
    out
}

/// Runs the allocation test across the whole sweep, returning with it
/// per-point wall-clock timings and the observability sidecars (per-point
/// metrics and latency histograms, both in sweep order).
pub fn run_profiled(ctx: &ExperimentContext) -> Profiled<Fig1> {
    run_sweep(ctx, &WorkloadKind::all(), &sweep_configs())
}

/// As [`run_profiled`], restricted to a subset of the sweep (the
/// determinism tests use one to keep runtimes down).
pub fn run_sweep(
    ctx: &ExperimentContext,
    workloads: &[WorkloadKind],
    configs: &[(usize, u64, bool)],
) -> Profiled<Fig1> {
    let ctx = *ctx;
    let mut jobs = Vec::new();
    for &wl in workloads {
        for &(nsizes, grow, clustered) in configs {
            let label = format!(
                "fig1/{}/n{nsizes}-g{grow}-{}",
                wl.short_name(),
                if clustered { "c" } else { "u" }
            );
            jobs.push(Job::new(label, move || {
                let policy = PolicyConfig::Restricted(RestrictedConfig::sweep_point(
                    nsizes, grow, clustered,
                ));
                let (frag, tm, th) = ctx.run_allocation_observed(wl, policy);
                let point = Fig1Point {
                    workload: wl.short_name().to_string(),
                    nsizes,
                    grow_factor: grow,
                    clustered,
                    internal_pct: frag.internal_pct,
                    external_pct: frag.external_pct,
                };
                (point, vec![tm], vec![th])
            }));
        }
    }
    let (points, timings, metrics, hists) = runner::sweep(&ctx, "fig1", jobs);
    (Fig1 { points }, timings, metrics, hists)
}

impl Fig1 {
    /// Points for one workload, in sweep order.
    pub fn workload(&self, short_name: &str) -> Vec<&Fig1Point> {
        self.points.iter().filter(|p| p.workload == short_name).collect()
    }
}

impl Fig1 {
    /// Renders the six panels (internal/external per workload) as charts.
    pub fn chart(&self) -> String {
        let mut out = String::new();
        for wl in ["TS", "TP", "SC"] {
            for (metric, internal) in [("internal", true), ("external", false)] {
                let mut c = BarChart::new(format!(
                    "Figure 1 ({wl}): {metric} fragmentation (%)"
                ))
                .scale_at_least(6.0);
                let mut last_sizes = 0;
                for p in self.workload(wl) {
                    if p.nsizes != last_sizes && last_sizes != 0 {
                        c.gap();
                    }
                    last_sizes = p.nsizes;
                    let v = if internal { p.internal_pct } else { p.external_pct };
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

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 1: Internal and External Fragmentation, Restricted Buddy Policy",
        )
        .headers(["workload", "block sizes", "grow", "clustered", "internal", "external"]);
        for p in &self.points {
            t.row([
                p.workload.clone(),
                p.nsizes.to_string(),
                p.grow_factor.to_string(),
                if p.clustered { "yes".into() } else { "no".to_string() },
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
    fn sweep_axes_cover_the_paper() {
        let configs = sweep_configs();
        assert_eq!(configs.len(), 16);
        assert!(configs.contains(&(5, 1, true)), "the §4.2 selected configuration");
    }

    #[test]
    fn fast_scale_reproduces_figure_1_shape() {
        // A reduced sweep (one ladder) to keep unit tests quick; the full
        // sweep runs in the repro binary and benches. The paper's claims
        // under test: TS fragments worst; the higher grow factor reduces TS
        // internal fragmentation substantially ("by approximately
        // one-third"); large-file workloads barely fragment; external
        // fragmentation stays small.
        let ctx = ExperimentContext::fast(64);
        let mut ts_internal = [0.0f64; 2];
        for wl in WorkloadKind::all() {
            for (i, grow) in [1u64, 2].into_iter().enumerate() {
                let policy = PolicyConfig::Restricted(RestrictedConfig::sweep_point(3, grow, true));
                let frag = ctx.run_allocation(wl, policy);
                assert!(
                    frag.external_pct < 15.0,
                    "{} g{} external {}",
                    wl.short_name(),
                    grow,
                    frag.external_pct
                );
                match wl {
                    WorkloadKind::Timesharing => ts_internal[i] = frag.internal_pct,
                    // SC/TP files dwarf every block class, so their
                    // internal fragmentation is "rarely discernible".
                    _ => assert!(
                        frag.internal_pct < 15.0,
                        "{} g{} internal {}",
                        wl.short_name(),
                        grow,
                        frag.internal_pct
                    ),
                }
            }
        }
        // TS pays the block-ladder boundary cost (see EXPERIMENTS.md for
        // why our absolute value exceeds the paper's ≤6 %), and g = 2
        // defers the boundary, cutting the waste.
        assert!(ts_internal[0] < 40.0, "TS g1 internal {}", ts_internal[0]);
        assert!(
            ts_internal[1] < ts_internal[0] * 0.8,
            "g2 should cut TS internal fragmentation: g1 {} vs g2 {}",
            ts_internal[0],
            ts_internal[1]
        );
    }
}
