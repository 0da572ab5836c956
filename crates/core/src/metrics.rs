//! Experiment-level observability: per-sweep-point metrics sidecars and the
//! `repro --explain` phase-breakdown view.
//!
//! Every experiment driver's `run_profiled` now also returns an
//! [`ExperimentMetrics`]: one [`PointMetrics`] per sweep point, each holding
//! the [`TestMetrics`] snapshots its simulations produced. The repro binary
//! writes them as `<experiment>.metrics.json` sidecars next to the results
//! and renders them as a human table under `--explain`. Because every sweep
//! point's metrics are produced inside that point's job and reassembled by
//! the runner in sweep order, the sidecar is bit-identical at any `--jobs`.
//!
//! [`wren_iv_cross_check`] closes the loop against the paper: it measures
//! single-disk random reads and compares the per-phase averages to the
//! Table 1 analytic values (seek `ST + N·SI`, expected rotational latency of
//! half a rotation, exact transfer time).

use crate::report::TextTable;
use readopt_disk::{Disk, DiskGeometry, IoKind, SimTime};
use readopt_sim::{DiskPhaseMetrics, SimRng, TestMetrics};
use serde::{Deserialize, Serialize};

/// Metrics snapshots for one sweep point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PointMetrics {
    /// The sweep point's label (same text as the runner job's label).
    pub label: String,
    /// One snapshot per test the point ran, in execution order.
    pub tests: Vec<TestMetrics>,
}

impl PointMetrics {
    /// A point with snapshots in execution order.
    pub fn new(label: impl Into<String>, tests: Vec<TestMetrics>) -> Self {
        PointMetrics { label: label.into(), tests }
    }
}

/// Sidecar content for one experiment: `<experiment>.metrics.json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentMetrics {
    /// Experiment name ("fig2", "table4", …).
    pub experiment: String,
    /// Per-sweep-point snapshots in sweep order.
    pub points: Vec<PointMetrics>,
}

impl ExperimentMetrics {
    /// Wraps sweep-ordered point metrics.
    pub fn new(experiment: impl Into<String>, points: Vec<PointMetrics>) -> Self {
        ExperimentMetrics { experiment: experiment.into(), points }
    }

    /// For experiments with nothing to decompose (closed-form tables).
    pub fn empty(experiment: impl Into<String>) -> Self {
        ExperimentMetrics { experiment: experiment.into(), points: Vec::new() }
    }

    /// The `--explain` table: one row per (sweep point, test) with the
    /// array-combined per-request phase averages and busy-time shares.
    pub fn phase_table(&self) -> TextTable {
        let mut t = TextTable::new(format!("{} — where disk time went", self.experiment)).headers([
            "point",
            "test",
            "reqs",
            "seek ms",
            "rot ms",
            "xfer ms",
            "wait ms",
            "util",
            "seek/rot/xfer %",
            "frag runs",
        ]);
        for p in &self.points {
            for tm in &p.tests {
                let c = &tm.storage.combined;
                let (s, r, x) = c.phase_shares_pct();
                t.row([
                    p.label.clone(),
                    tm.test.clone(),
                    c.requests.to_string(),
                    format!("{:.3}", c.avg_seek_ms()),
                    format!("{:.3}", c.avg_rotational_ms()),
                    format!("{:.3}", c.avg_transfer_ms()),
                    format!("{:.3}", c.avg_queue_wait_ms()),
                    format!("{:.1}%", 100.0 * c.utilization),
                    format!("{s:.0}/{r:.0}/{x:.0}"),
                    tm.alloc.frag.free_extents.to_string(),
                ]);
            }
        }
        t
    }
}

/// Latency-histogram snapshots for one sweep point (`*.hist.json` sidecar).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PointHist {
    /// The sweep point's label (same text as the runner job's label).
    pub label: String,
    /// One log-bucketed histogram per test the point ran, in execution
    /// order (see [`readopt_sim::TestHist`]).
    pub tests: Vec<readopt_sim::TestHist>,
}

impl PointHist {
    /// A point with histograms in execution order.
    pub fn new(label: impl Into<String>, tests: Vec<readopt_sim::TestHist>) -> Self {
        PointHist { label: label.into(), tests }
    }
}

/// Sidecar content for one experiment's latency percentiles:
/// `<experiment>.hist.json`. Like the metrics sidecar, every histogram is
/// produced inside its point's job and reassembled in sweep order, so the
/// artifact is bit-identical at any `--jobs`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentHist {
    /// Experiment name ("fig2", "table4", …).
    pub experiment: String,
    /// Per-sweep-point histograms in sweep order.
    pub points: Vec<PointHist>,
}

impl ExperimentHist {
    /// Wraps sweep-ordered point histograms.
    pub fn new(experiment: impl Into<String>, points: Vec<PointHist>) -> Self {
        ExperimentHist { experiment: experiment.into(), points }
    }

    /// For experiments that record no operation latencies.
    pub fn empty(experiment: impl Into<String>) -> Self {
        ExperimentHist { experiment: experiment.into(), points: Vec::new() }
    }

    /// Samples the engine's exact 200 k latency buffer dropped across all
    /// points — when non-zero, the exact-buffer p50/p99 in the results were
    /// computed over a clipped prefix and the bucketed percentiles here are
    /// the trustworthy ones. Surfaced per experiment in `profile.json`.
    pub fn dropped_samples(&self) -> u64 {
        let mut dropped = 0u64;
        for p in &self.points {
            for t in &p.tests {
                dropped += t.dropped;
            }
        }
        dropped
    }
}

/// Unzips a sweep's `(result, metrics, hist)` triples into parallel
/// vectors, preserving sweep order (the three-way `unzip` every driver's
/// reassembly needs).
pub fn split3<A, B, C>(triples: Vec<(A, B, C)>) -> (Vec<A>, Vec<B>, Vec<C>) {
    let mut a = Vec::with_capacity(triples.len());
    let mut b = Vec::with_capacity(triples.len());
    let mut c = Vec::with_capacity(triples.len());
    for (x, y, z) in triples {
        a.push(x);
        b.push(y);
        c.push(z);
    }
    (a, b, c)
}

/// Analytic per-phase expectations for single-sector random reads on a
/// geometry, straight from the Table 1 parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticPhases {
    /// Expected seek time over independent uniform cylinder pairs:
    /// `(1 - 1/C)·ST + SI·(C² - 1)/(3C)` (a same-cylinder pair costs 0).
    pub seek_ms: f64,
    /// Expected rotational latency: half a rotation.
    pub rotational_ms: f64,
    /// Exact transfer time for one sector.
    pub transfer_ms: f64,
}

/// Closed-form Table 1 expectations for `geom` under single-sector reads at
/// independent uniformly-distributed sectors.
pub fn analytic_phases(geom: &DiskGeometry) -> AnalyticPhases {
    let c = f64::from(geom.cylinders);
    // P(move) = 1 - 1/C; mean |i - j| over uniform i, j is (C² - 1)/(3C).
    let seek_ms = (1.0 - 1.0 / c) * geom.single_track_seek_ms
        + geom.incremental_seek_ms * (c * c - 1.0) / (3.0 * c);
    AnalyticPhases {
        seek_ms,
        rotational_ms: geom.rotation_ms / 2.0,
        transfer_ms: geom.sector_time_ms(),
    }
}

/// Measured vs. analytic phase averages for the Wren IV cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossCheck {
    /// Measured per-request averages.
    pub measured: AnalyticPhases,
    /// Closed-form expectations.
    pub expected: AnalyticPhases,
    /// Largest relative error across the three phases.
    pub worst_relative_error: f64,
}

/// Drives a single Wren IV disk through `samples` independent single-sector
/// reads at seeded-uniform sectors and compares the measured per-phase
/// averages against [`analytic_phases`]. Each read starts on an idle disk
/// (the next request is issued at the previous completion), so queueing
/// never pollutes the mechanics. Deterministic: same seed, same answer.
pub fn wren_iv_cross_check(samples: u64, seed: u64) -> CrossCheck {
    let geom = DiskGeometry::wren_iv();
    let mut disk = Disk::new(geom.clone());
    let mut rng = SimRng::new(seed);
    let capacity = geom.capacity_sectors();
    let mut clock = SimTime::ZERO;
    for _ in 0..samples {
        let sector = rng.uniform_u64(0, capacity - 1);
        clock = disk.service(clock, sector, 1, IoKind::Read);
    }
    let stats = disk.stats();
    let m = DiskPhaseMetrics::from_stats(stats, clock.as_ms());
    let measured = AnalyticPhases {
        seek_ms: m.avg_seek_ms(),
        rotational_ms: m.avg_rotational_ms(),
        transfer_ms: m.avg_transfer_ms(),
    };
    let expected = analytic_phases(&geom);
    let rel = |got: f64, want: f64| ((got - want) / want).abs();
    let worst = rel(measured.seek_ms, expected.seek_ms)
        .max(rel(measured.rotational_ms, expected.rotational_ms))
        .max(rel(measured.transfer_ms, expected.transfer_ms));
    CrossCheck { measured, expected, worst_relative_error: worst }
}

/// Renders the cross-check as a table for `--explain`.
pub fn cross_check_table(check: &CrossCheck) -> TextTable {
    let mut t = TextTable::new("Wren IV single-disk cross-check (vs. Table 1 analytics)")
        .headers(["phase", "measured ms", "analytic ms", "rel err"]);
    let rows = [
        ("seek", check.measured.seek_ms, check.expected.seek_ms),
        ("rotational", check.measured.rotational_ms, check.expected.rotational_ms),
        ("transfer", check.measured.transfer_ms, check.expected.transfer_ms),
    ];
    for (name, got, want) in rows {
        t.row([
            name.to_string(),
            format!("{got:.4}"),
            format!("{want:.4}"),
            format!("{:.2}%", 100.0 * ((got - want) / want).abs()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_wren_iv_matches_hand_math() {
        let a = analytic_phases(&DiskGeometry::wren_iv());
        // C = 1600, ST = 5.5, SI = 0.032: E[seek] ≈ 5.4966 + 17.0667 ms.
        assert!((a.rotational_ms - 16.67 / 2.0).abs() < 1e-9);
        assert!((a.transfer_ms - 16.67 / 48.0).abs() < 1e-9);
        assert!(a.seek_ms > 22.0 && a.seek_ms < 23.0, "E[seek] = {}", a.seek_ms);
    }

    #[test]
    fn cross_check_is_deterministic() {
        let a = wren_iv_cross_check(2_000, 7);
        let b = wren_iv_cross_check(2_000, 7);
        assert_eq!(a, b);
    }

    /// Measured single-disk phase averages match the Table 1 analytic
    /// values within 1%.
    #[test]
    fn measured_phases_match_table1_within_one_percent() {
        let check = wren_iv_cross_check(20_000, 1991);
        assert!(
            check.worst_relative_error < 0.01,
            "worst relative error {:.4} >= 1%\n{}",
            check.worst_relative_error,
            cross_check_table(&check)
        );
    }

    #[test]
    fn phase_table_renders_points_and_tests() {
        use readopt_sim::{StorageMetrics, TestMetrics};
        let mut tm = TestMetrics { test: "application".into(), ..Default::default() };
        tm.storage = StorageMetrics::from_stats(&readopt_disk::StorageStats::new(2), 100.0);
        let em = ExperimentMetrics::new("fig9", vec![PointMetrics::new("n=3", vec![tm])]);
        let s = em.phase_table().to_string();
        assert!(s.contains("fig9"));
        assert!(s.contains("n=3"));
        assert!(s.contains("application"));
        assert!(ExperimentMetrics::empty("table1").points.is_empty());
    }
}
