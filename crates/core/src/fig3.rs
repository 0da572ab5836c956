//! Figure 3: how contiguous allocation and grow factors interact.
//!
//! "Because the total file length is not a multiple of the new block size,
//! we are required to pay a seek when the block size grows." With sizes
//! 8K/64K/1M and grow factor 1, a file outgrows its 8 KB blocks after
//! 64 KB and its next (64 KB) block cannot be contiguous with them; with
//! grow factor 2 that first forced discontinuity moves out to 128 KB, past
//! most timesharing files — the reason g=2 wins TS sequential throughput
//! in Figure 2 while costing internal fragmentation in Figure 1.
//!
//! This driver grows a file 8 KB at a time on a fresh unclustered policy
//! and records where the physical layout breaks, plus the measured
//! single-stream sequential read time of the resulting file.

use crate::metrics::ExperimentMetrics;
use crate::report::TextTable;
use crate::runner::{self, Job, JobTiming, PointOut};
use readopt_alloc::{FileHints, Policy, RestrictedPolicy};
use readopt_disk::{ArrayConfig, IoRequest, SimTime};
use readopt_sim::{AllocGauges, StorageMetrics, TestMetrics};
use serde::{Deserialize, Serialize};
use std::fmt;

const KB: u64 = 1024;

/// Layout trace for one grow factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Grow factor.
    pub grow_factor: u64,
    /// File size (bytes) at which each discontiguity appears.
    pub break_points_bytes: Vec<u64>,
    /// Number of extents once the file reaches the target size.
    pub extents: usize,
    /// File size the trace grew to, bytes.
    pub file_bytes: u64,
    /// Allocated bytes at the end (over-allocation = internal frag cost).
    pub allocated_bytes: u64,
    /// Simulated time to read the file sequentially, ms.
    pub sequential_read_ms: f64,
}

/// The figure: one row per grow factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3 {
    /// Rows for g = 1 and g = 2.
    pub rows: Vec<Fig3Row>,
}

/// Traces the §4.2 example ladder (8K / 64K / 1M) for g ∈ {1, 2}, growing
/// to 128 KB — past g=1's forced 64 KB-block transition (the paper's
/// "any file over 72K requires a 64K block") but within g=2's contiguous
/// 8 KB-block span, so the grow-factor difference shows up directly in the
/// extent count and the sequential read time.
pub fn run() -> Fig3 {
    run_with(&[8 * KB, 64 * KB, 1024 * KB], 128 * KB)
}

/// As [`run`], fanning the two grow-factor traces across `jobs` threads and
/// returning per-trace timings and the observability sidecar.
pub fn run_profiled(jobs: usize) -> (Fig3, Vec<JobTiming>, ExperimentMetrics) {
    run_with_jobs(&[8 * KB, 64 * KB, 1024 * KB], 128 * KB, jobs)
}

/// Traces an arbitrary ladder, growing a file 8 KB at a time to
/// `target_bytes`.
pub fn run_with(ladder_bytes: &[u64], target_bytes: u64) -> Fig3 {
    run_with_jobs(ladder_bytes, target_bytes, 1).0
}

fn run_with_jobs(
    ladder_bytes: &[u64],
    target_bytes: u64,
    jobs: usize,
) -> (Fig3, Vec<JobTiming>, ExperimentMetrics) {
    let job_list = [1u64, 2]
        .into_iter()
        .map(|grow| {
            let ladder = ladder_bytes.to_vec();
            Job::new(format!("fig3/g{grow}"), move || trace_grow(&ladder, target_bytes, grow))
        })
        .collect();
    let out = runner::run_jobs(jobs, job_list);
    let labels = out.timings.iter().map(|t| t.label.clone());
    // The trace records no latencies, so there is no histogram sidecar.
    let (rows, metrics, _) = runner::assemble("fig3", labels.zip(out.results));
    (Fig3 { rows }, out.timings, metrics)
}

fn trace_grow(ladder_bytes: &[u64], target_bytes: u64, grow: u64) -> PointOut<Fig3Row> {
    let array = ArrayConfig::scaled(16);
    let unit = array.disk_unit_bytes;
    let sizes_units: Vec<u64> = ladder_bytes.iter().map(|&b| b / unit).collect();
    let mut policy: RestrictedPolicy = RestrictedPolicy::new(array.capacity_units(), &sizes_units, grow, None);
    let file = policy.create(&FileHints::default()).expect("fresh disk");
    let step = 8 * KB / unit;
    let mut logical = 0u64;
    let target_units = target_bytes / unit;
    let mut break_points = Vec::new();
    let mut last_extents = policy.extent_count(file).expect("file is live");
    while logical < target_units {
        let allocated = policy.allocated_units(file).expect("file is live");
        if logical + step > allocated {
            policy
                .extend(file, logical + step - allocated)
                .expect("fresh disk cannot fill");
        }
        logical += step;
        let extents = policy.extent_count(file).expect("file is live");
        if extents > last_extents {
            // The first extent is the file appearing, not a layout
            // break; every later increment is a forced discontiguity.
            if last_extents > 0 {
                break_points.push(logical * unit);
            }
            last_extents = extents;
        }
    }
    // Measure a single-stream sequential read of the laid-out file.
    let mut storage = array.build();
    let mut t = SimTime::ZERO;
    for e in policy.file_map(file).expect("file is live").extents() {
        t = storage.submit(t, &IoRequest::read(e.start, e.len)).end;
    }
    let row = Fig3Row {
        grow_factor: grow,
        break_points_bytes: break_points,
        extents: policy.extent_count(file).expect("file is live"),
        file_bytes: logical * unit,
        allocated_bytes: policy.allocated_units(file).expect("file is live") * unit,
        sequential_read_ms: t.as_ms(),
    };
    // The trace drives the array directly (no Simulation), so derive the
    // observability view straight from the array and policy counters.
    let frag = policy.frag_gauges();
    let capacity = array.capacity_units();
    let tm = TestMetrics {
        test: "trace".into(),
        window_ms: t.as_ms(),
        storage: StorageMetrics::from_stats(&storage.stats(), t.as_ms()),
        engine: Default::default(),
        alloc: AllocGauges {
            policy: "restricted".into(),
            utilization: 1.0 - frag.free_units as f64 / capacity as f64,
            frag,
        },
    };
    (row, vec![tm], Vec::new())
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Figure 3: Grow Factor vs Contiguous Allocation (8K/64K/1M ladder)")
            .headers(["grow", "first break at", "extents", "allocated", "seq read (ms)"]);
        for r in &self.rows {
            t.row([
                r.grow_factor.to_string(),
                r.break_points_bytes
                    .first()
                    .map(|&b| format!("{} KB", b / KB))
                    .unwrap_or_else(|| "never".into()),
                r.extents.to_string(),
                format!("{} KB", r.allocated_bytes / KB),
                format!("{:.2}", r.sequential_read_ms),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_grow_factor_defers_the_first_break() {
        let fig = run();
        let g1 = &fig.rows[0];
        let g2 = &fig.rows[1];
        assert_eq!(g1.grow_factor, 1);
        assert_eq!(g2.grow_factor, 2);
        // g=1 breaks around the 64–72 KB the paper describes.
        let b1 = g1.break_points_bytes.first().copied().expect("g=1 must break");
        assert!((56 * KB..=80 * KB).contains(&b1), "g=1 first break at {} KB", b1 / KB);
        // g=2's sixteen 8 KB blocks cover the whole 128 KB file: no break,
        // fewer extents, faster single-stream read.
        assert!(g2.break_points_bytes.is_empty(), "{:?}", g2.break_points_bytes);
        assert!(g2.extents < g1.extents);
        assert!(
            g2.sequential_read_ms < g1.sequential_read_ms,
            "g2 {} vs g1 {}",
            g2.sequential_read_ms,
            g1.sequential_read_ms
        );
    }

    #[test]
    fn both_factors_fully_allocate_the_file() {
        for r in run().rows {
            assert!(r.allocated_bytes >= r.file_bytes);
            assert!(r.extents >= 1);
            assert!(r.sequential_read_ms > 0.0);
        }
    }
}
