//! Shard-scaling benchmark: one heavy sweep point, repeated at increasing
//! shard counts.
//!
//! The sharded engine's contract is *bit-identical output at any shard
//! count* — so this driver is both a benchmark and an acceptance check: it
//! runs the same (workload, policy) point at 1, 2 and 4 shards, hard-asserts
//! that every report is identical to the serial run, and records the
//! wall-clock ratio. Points run sequentially (never fanned across the
//! runner's job pool) so the timings measure the engine, not scheduler
//! contention.
//!
//! The effect-worker count is resolved per point exactly as production runs
//! resolve it (auto = what the machine affords); on a single-core host the
//! resolved count is 1, the engine stays on the in-line path, and the
//! recorded speedup is honestly ~1.0.

use crate::context::ExperimentContext;
use crate::metrics::ExperimentMetrics;
use crate::report::TextTable;
use crate::runner::{self, Job, JobTiming};
use readopt_alloc::{PolicyConfig, RestrictedConfig};
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shard counts the sweep visits, in order. The first entry must be 1:
/// it is the reference both for equality and for speedup.
pub const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// One shard count's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardScalingPoint {
    /// Shard count of this run.
    pub shards: usize,
    /// Effect-worker threads the context resolved to (1 = in-line path).
    pub workers: usize,
    /// Wall-clock of the application + sequential pair, seconds.
    pub wall_s: f64,
    /// Application throughput, % of max — identical across points.
    pub application_pct: f64,
    /// Sequential throughput, % of max — identical across points.
    pub sequential_pct: f64,
    /// Serial wall / this wall (1.0 for the reference point).
    pub speedup_vs_serial: f64,
}

/// The full scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardScaling {
    /// Workload label of the measured point.
    pub workload: String,
    /// Sweep-point label of the measured configuration.
    pub point: String,
    /// One entry per shard count, in [`SHARD_SWEEP`] order.
    pub points: Vec<ShardScalingPoint>,
    /// `speedup_vs_serial` of the largest shard count: 1-shard wall /
    /// largest-shard-count wall (>1: sharding was faster). Wall-clock, so it
    /// varies run to run; nothing gates on it.
    pub speedup_at_max_shards: f64,
}

/// Runs the scaling sweep.
pub fn run(ctx: &ExperimentContext) -> ShardScaling {
    run_profiled(ctx).0
}

/// As [`run`], also returning per-point wall-clock timings and an (empty)
/// observability sidecar — the per-shard reports are the observability
/// here, and a metrics snapshot per point would triple the file for three
/// identical-by-assertion copies.
pub fn run_profiled(ctx: &ExperimentContext) -> (ShardScaling, Vec<JobTiming>, ExperimentMetrics) {
    // The heaviest smoke point: TS through the largest restricted-buddy
    // ladder, the configuration whose per-op I/O volume gives the effect
    // workers the most to chew on.
    let wl = WorkloadKind::Timesharing;
    let policy = || PolicyConfig::Restricted(RestrictedConfig::sweep_point(5, 1, true));
    let mut points: Vec<ShardScalingPoint> = Vec::new();
    let mut timings: Vec<JobTiming> = Vec::new();
    let mut reference: Option<((readopt_sim::PerfReport, readopt_sim::PerfReport), f64)> = None;
    for &shards in &SHARD_SWEEP {
        let point_ctx = ctx.with_shards(shards);
        let cfg = point_ctx.sim_config(wl, policy());
        let workers = cfg.shard_workers;
        let label = format!("shard_scaling/TS/n5-g1-c/s{shards}w{workers}");
        // One job through the runner (sequentially: one job, one thread) so
        // the wall-clock comes from the same instrumentation as every other
        // experiment's profile.
        let out = runner::run_jobs(
            1,
            vec![Job::new(label, move || point_ctx.run_performance(wl, policy()))],
        );
        let reports = out.results.into_iter().next();
        let timing = out.timings.into_iter().next();
        let (Some(reports), Some(timing)) = (reports, timing) else {
            continue;
        };
        let wall_s = timing.wall_ms / 1e3;
        let (serial_reports, serial_wall) = reference.get_or_insert((reports.clone(), wall_s));
        assert_eq!(
            *serial_reports, reports,
            "sharded run diverged from the serial reference at {shards} shards"
        );
        points.push(ShardScalingPoint {
            shards,
            workers,
            wall_s,
            application_pct: reports.0.throughput_pct,
            sequential_pct: reports.1.throughput_pct,
            speedup_vs_serial: *serial_wall / wall_s.max(1e-9),
        });
        timings.push(timing);
    }
    let speedup = points.last().map_or(1.0, |p| p.speedup_vs_serial);
    let result = ShardScaling {
        workload: wl.short_name().to_string(),
        point: "n5-g1-c".to_string(),
        points,
        speedup_at_max_shards: speedup,
    };
    (result, timings, ExperimentMetrics::empty("shard_scaling"))
}

impl fmt::Display for ShardScaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "Shard scaling: {} {} (identical output asserted per point)",
            self.workload, self.point
        ))
        .headers(["shards", "workers", "wall", "application", "sequential", "speedup"]);
        for p in &self.points {
            t.row([
                p.shards.to_string(),
                p.workers.to_string(),
                format!("{:.2}s", p.wall_s),
                format!("{:.1}%", p.application_pct),
                format!("{:.1}%", p.sequential_pct),
                format!("{:.2}x", p.speedup_vs_serial),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep asserts report equality internally; this exercises it end
    /// to end at test scale with the threaded path forced on, so the
    /// pipelined engine runs under the experiment plumbing (not just the
    /// engine-level digest tests).
    #[test]
    fn scaling_sweep_is_bit_identical_and_reports_speedup() {
        let ctx = ExperimentContext::fast(64).with_shard_workers(2);
        let (result, timings, _metrics) = run_profiled(&ctx);
        assert_eq!(result.points.len(), SHARD_SWEEP.len());
        assert_eq!(timings.len(), SHARD_SWEEP.len());
        assert_eq!(result.points[0].speedup_vs_serial, 1.0, "reference point");
        for (p, &shards) in result.points.iter().zip(SHARD_SWEEP.iter()) {
            assert_eq!(p.shards, shards);
            assert_eq!(p.workers, 2.min(shards));
            assert_eq!(p.application_pct, result.points[0].application_pct);
            assert_eq!(p.sequential_pct, result.points[0].sequential_pct);
            assert!(p.wall_s >= 0.0 && p.speedup_vs_serial > 0.0);
        }
    }
}
