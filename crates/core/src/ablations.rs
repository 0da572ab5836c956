//! §6 "future work" ablations, implemented:
//!
//! * **RAID / redundancy** — "the impact of a RAID in the underlying disk
//!   system will reduce the small write performance": TP under the four
//!   §2.1 disk configurations.
//! * **Stripe unit sensitivity** — "the different policies may show
//!   different sensitivities to the stripe size parameter": SC sequential
//!   throughput across stripe units.
//! * **File-mix sensitivity** — "varying the file distributions so that the
//!   proportion of large and small files is not constant may affect
//!   fragmentation": TS fragmentation as the small-file share of capacity
//!   varies.

use crate::context::ExperimentContext;
use crate::report::{bytes, pct, TextTable};
use crate::runner::{self, Job, PointOut, Profiled};
use readopt_alloc::{FitStrategy, PolicyConfig};
use readopt_disk::ArrayLayout;
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One redundancy-layout measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaidRow {
    /// Layout under test.
    pub layout: String,
    /// TP application throughput, % of that layout's own max bandwidth.
    pub application_pct: f64,
    /// TP application throughput in MB/s (layouts have different maxima,
    /// so the absolute number is the honest comparison).
    pub application_mb_s: f64,
    /// Sequential throughput, % of max.
    pub sequential_pct: f64,
    /// Physical-over-logical write amplification observed.
    pub write_amplification: f64,
}

/// The RAID ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaidAblation {
    /// One row per layout.
    pub rows: Vec<RaidRow>,
}

/// Runs TP (extent policy, 3 ranges, first-fit) under all four layouts.
pub fn run_raid(ctx: &ExperimentContext) -> RaidAblation {
    run_raid_profiled(ctx).0
}

/// As [`run_raid`], also returning per-layout wall-clock timings and the
/// observability sidecars (metrics + latency histograms, whose per-test
/// `dropped` counts feed the run profile's overflow accounting).
pub fn run_raid_profiled(ctx: &ExperimentContext) -> Profiled<RaidAblation> {
    let ctx = *ctx;
    let jobs = [
        ArrayLayout::Striped,
        ArrayLayout::Mirrored,
        ArrayLayout::Raid5,
        ArrayLayout::ParityStriped,
    ]
    .into_iter()
    .map(|layout| {
        Job::new(format!("ablation-raid/{layout:?}"), move || {
            let mut lctx = ctx;
            lctx.array.layout = layout;
            let wl = WorkloadKind::TransactionProcessing;
            let policy = lctx.extent_policy(wl, 3, FitStrategy::FirstFit);
            let cfg = lctx.sim_config(wl, policy);
            let mut sim = readopt_sim::Simulation::new(&cfg, lctx.seed);
            let app = sim.run_application_test();
            // Hist snapshots are pure reads taken before the next test's
            // latency reset, so the reports stay bit-identical.
            let h_app = sim.latency_hist("application");
            let seq = sim.run_sequential_test();
            let h_seq = sim.latency_hist("sequential");
            let amp = sim.storage().stats().write_amplification();
            let tm = sim.metrics_snapshot("performance", sim.now().as_ms());
            let row = RaidRow {
                layout: format!("{layout:?}"),
                application_pct: app.throughput_pct,
                application_mb_s: app.throughput_mb_s,
                sequential_pct: seq.throughput_pct,
                write_amplification: amp,
            };
            (row, vec![tm], vec![h_app, h_seq])
        })
    })
    .collect();
    let (rows, timings, metrics, hists) = runner::sweep(&ctx, "ablation_raid", jobs);
    (RaidAblation { rows }, timings, metrics, hists)
}

impl fmt::Display for RaidAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Ablation: TP under redundancy layouts (§6 future work)")
            .headers(["layout", "app %max", "app MB/s", "seq %max", "write amp"]);
        for r in &self.rows {
            t.row([
                r.layout.clone(),
                pct(r.application_pct),
                format!("{:.2}", r.application_mb_s),
                pct(r.sequential_pct),
                format!("{:.2}×", r.write_amplification),
            ]);
        }
        write!(f, "{t}")
    }
}

/// One stripe-unit measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripeRow {
    /// Stripe unit in bytes.
    pub stripe_unit_bytes: u64,
    /// SC sequential throughput, % of (that configuration's) max.
    pub sequential_pct: f64,
    /// SC application throughput, % of max.
    pub application_pct: f64,
}

/// The stripe-unit ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripeAblation {
    /// One row per stripe unit.
    pub rows: Vec<StripeRow>,
}

/// Runs SC (restricted buddy, §4.2 selection) across stripe units.
pub fn run_stripe_unit(ctx: &ExperimentContext) -> StripeAblation {
    run_stripe_unit_profiled(ctx).0
}

/// As [`run_stripe_unit`], also returning per-point wall-clock timings and
/// the observability sidecars.
pub fn run_stripe_unit_profiled(ctx: &ExperimentContext) -> Profiled<StripeAblation> {
    let ctx = *ctx;
    let jobs = [8 * 1024u64, 12 * 1024, 24 * 1024, 72 * 1024, 96 * 1024]
        .into_iter()
        // Keep whole stripe units per disk.
        .filter(|&su| ctx.array.geometry.capacity_bytes().is_multiple_of(su))
        .map(|su| {
            Job::new(format!("ablation-stripe/{}K", su / 1024), move || {
                let mut lctx = ctx;
                lctx.array.stripe_unit_bytes = su;
                let wl = WorkloadKind::Supercomputer;
                let ((app, seq), tms, hs) =
                    lctx.run_performance_observed(wl, PolicyConfig::paper_restricted());
                let row = StripeRow {
                    stripe_unit_bytes: su,
                    sequential_pct: seq.throughput_pct,
                    application_pct: app.throughput_pct,
                };
                (row, tms, hs)
            })
        })
        .collect();
    let (rows, timings, metrics, hists) = runner::sweep(&ctx, "ablation_stripe", jobs);
    (StripeAblation { rows }, timings, metrics, hists)
}

impl fmt::Display for StripeAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Ablation: SC vs stripe unit (§6 future work)")
            .headers(["stripe unit", "sequential", "application"]);
        for r in &self.rows {
            t.row([bytes(r.stripe_unit_bytes), pct(r.sequential_pct), pct(r.application_pct)]);
        }
        write!(f, "{t}")
    }
}

/// One file-mix measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileMixRow {
    /// Fraction of capacity held by small files (the rest is large files).
    pub small_share: f64,
    /// Internal fragmentation, %.
    pub internal_pct: f64,
    /// External fragmentation, %.
    pub external_pct: f64,
}

/// The file-mix ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileMixAblation {
    /// One row per mix.
    pub rows: Vec<FileMixRow>,
}

/// Varies the TS small:large capacity split and measures extent-policy
/// fragmentation.
pub fn run_file_mix(ctx: &ExperimentContext) -> FileMixAblation {
    run_file_mix_profiled(ctx).0
}

/// As [`run_file_mix`], also returning per-mix wall-clock timings and the
/// observability sidecars.
pub fn run_file_mix_profiled(ctx: &ExperimentContext) -> Profiled<FileMixAblation> {
    let ctx = *ctx;
    let jobs = [0.05f64, 0.15, 0.30, 0.50]
        .into_iter()
        .map(|small_share| {
            Job::new(format!("ablation-file-mix/{:.0}pct", 100.0 * small_share), move || {
                let capacity = ctx.array.capacity_bytes();
                let mut types = readopt_workloads::timesharing(capacity);
                // Rebalance counts: small files take `small_share`, large
                // files take (0.82 − small_share) of capacity.
                types[0].num_files = ((capacity as f64 * small_share
                    / types[0].initial_size_bytes as f64) as u64)
                    .max(4);
                types[1].num_files = ((capacity as f64 * (0.82 - small_share)
                    / types[1].initial_size_bytes as f64) as u64)
                    .max(4);
                let policy = ctx.extent_policy(WorkloadKind::Timesharing, 3, FitStrategy::FirstFit);
                let mut cfg = ctx.sim_config(WorkloadKind::Timesharing, policy);
                cfg.file_types = types;
                let mut sim = readopt_sim::Simulation::new(&cfg, ctx.seed);
                let frag = sim.run_allocation_test();
                let tm = sim.metrics_snapshot("allocation", sim.now().as_ms());
                let hist = sim.latency_hist("allocation");
                let row = FileMixRow {
                    small_share,
                    internal_pct: frag.internal_pct,
                    external_pct: frag.external_pct,
                };
                (row, vec![tm], vec![hist])
            })
        })
        .collect();
    let (rows, timings, metrics, hists) = runner::sweep(&ctx, "ablation_file_mix", jobs);
    (FileMixAblation { rows }, timings, metrics, hists)
}

impl fmt::Display for FileMixAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Ablation: TS fragmentation vs small-file share (§6 future work)")
            .headers(["small-file share", "internal", "external"]);
        for r in &self.rows {
            t.row([format!("{:.0}%", 100.0 * r.small_share), pct(r.internal_pct), pct(r.external_pct)]);
        }
        write!(f, "{t}")
    }
}

/// One row of the reallocation ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReallocRow {
    /// Workload label.
    pub workload: String,
    /// Internal fragmentation before the nightly pass, %.
    pub internal_before_pct: f64,
    /// Internal fragmentation after, %.
    pub internal_after_pct: f64,
    /// Mean allocated extents per file before.
    pub extents_before: f64,
    /// Mean allocated extents per file after.
    pub extents_after: f64,
    /// Sequential throughput after the pass, % of max.
    pub sequential_after_pct: f64,
    /// Units rewritten by the pass.
    pub units_moved: u64,
}

/// The reallocation ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReallocAblation {
    /// One row per workload.
    pub rows: Vec<ReallocRow>,
}

/// §4.1 notes the paper simulates Koch's buddy system *without* its nightly
/// reallocator. This ablation adds it back: run the application test, then
/// the reallocation pass, and measure fragmentation and sequential
/// throughput on the compacted layout. Koch's claims to check: "most files
/// are allocated in 3 extents and average under 4 % internal
/// fragmentation".
pub fn run_reallocation(ctx: &ExperimentContext) -> ReallocAblation {
    run_reallocation_profiled(ctx).0
}

/// As [`run_reallocation`], also returning per-workload wall-clock timings
/// and the observability sidecars.
pub fn run_reallocation_profiled(ctx: &ExperimentContext) -> Profiled<ReallocAblation> {
    let ctx = *ctx;
    let jobs = WorkloadKind::all()
        .into_iter()
        .map(|wl| {
            Job::new(format!("ablation-realloc/{}", wl.short_name()), move || {
                let cfg = ctx.sim_config(wl, PolicyConfig::paper_buddy());
                let mut sim = readopt_sim::Simulation::new(&cfg, ctx.seed);
                let _ = sim.run_application_test();
                let h_app = sim.latency_hist("application");
                let before = sim.fragmentation_report(0);
                let moved = sim.run_reallocation().expect("buddy has a reallocator");
                let after = sim.fragmentation_report(0);
                sim.policy().check_invariants();
                let seq = sim.run_sequential_test();
                let h_seq = sim.latency_hist("sequential");
                let tm = sim.metrics_snapshot("performance", sim.now().as_ms());
                let row = ReallocRow {
                    workload: wl.short_name().to_string(),
                    internal_before_pct: before.internal_pct,
                    internal_after_pct: after.internal_pct,
                    extents_before: before.avg_extents_per_file,
                    extents_after: after.avg_extents_per_file,
                    sequential_after_pct: seq.throughput_pct,
                    units_moved: moved,
                };
                (row, vec![tm], vec![h_app, h_seq])
            })
        })
        .collect();
    let (rows, timings, metrics, hists) = runner::sweep(&ctx, "ablation_realloc", jobs);
    (ReallocAblation { rows }, timings, metrics, hists)
}

impl fmt::Display for ReallocAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Ablation: Koch's nightly reallocator on the buddy policy ([KOCH87], omitted by the paper)",
        )
        .headers(["workload", "int.frag before", "after", "extents/file before", "after", "seq after"]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                pct(r.internal_before_pct),
                pct(r.internal_after_pct),
                format!("{:.1}", r.extents_before),
                format!("{:.1}", r.extents_after),
                pct(r.sequential_after_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

/// One row of the FFS comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfsRow {
    /// Policy label.
    pub policy: String,
    /// Internal fragmentation at first allocation failure, %.
    pub internal_pct: f64,
    /// External fragmentation, %.
    pub external_pct: f64,
    /// TS application throughput, % of max.
    pub application_pct: f64,
    /// TS sequential throughput, % of max.
    pub sequential_pct: f64,
}

/// The FFS comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfsAblation {
    /// One row per policy.
    pub rows: Vec<FfsRow>,
}

/// §1's three-way story, measured: the aged V7 fixed-block system, the BSD
/// FFS block+fragment refinement, and a read-optimized multiblock policy,
/// all on the small-file timesharing workload FFS was designed for.
pub fn run_ffs_comparison(ctx: &ExperimentContext) -> FfsAblation {
    run_ffs_comparison_profiled(ctx).0
}

/// As [`run_ffs_comparison`], also returning per-policy wall-clock timings
/// and the observability sidecars.
pub fn run_ffs_comparison_profiled(ctx: &ExperimentContext) -> Profiled<FfsAblation> {
    let ctx = *ctx;
    let wl = WorkloadKind::Timesharing;
    let policies = [
        ("fixed-4K (aged V7)".to_string(), ExperimentContext::fixed_policy(wl)),
        ("ffs 8K/1K".to_string(), PolicyConfig::ffs_classic()),
        ("extent (3 ranges)".to_string(), ctx.extent_policy(wl, 3, readopt_alloc::FitStrategy::FirstFit)),
    ];
    let jobs = policies
        .into_iter()
        .map(|(name, policy)| {
            Job::new(format!("ablation-ffs/{name}"), move || {
                let (frag, tm_alloc, h_alloc) = ctx.run_allocation_observed(wl, policy.clone());
                let ((app, seq), mut tms, mut hs) = ctx.run_performance_observed(wl, policy);
                tms.insert(0, tm_alloc);
                hs.insert(0, h_alloc);
                let row = FfsRow {
                    policy: name,
                    internal_pct: frag.internal_pct,
                    external_pct: frag.external_pct,
                    application_pct: app.throughput_pct,
                    sequential_pct: seq.throughput_pct,
                };
                (row, tms, hs)
            })
        })
        .collect();
    let (rows, timings, metrics, hists) = runner::sweep(&ctx, "ablation_ffs", jobs);
    (FfsAblation { rows }, timings, metrics, hists)
}

impl fmt::Display for FfsAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Ablation: V7 fixed block vs BSD FFS vs multiblock on TS (§1's motivating story)",
        )
        .headers(["policy", "internal", "external", "application", "sequential"]);
        for r in &self.rows {
            t.row([
                r.policy.clone(),
                pct(r.internal_pct),
                pct(r.external_pct),
                pct(r.application_pct),
                pct(r.sequential_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Degraded-RAID measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedRaidAblation {
    /// Latency of a 24 KB chunk read, healthy array, ms.
    pub read_healthy_ms: f64,
    /// Latency of the same read with the chunk's disk failed
    /// (reconstruction from all survivors), ms.
    pub read_degraded_ms: f64,
    /// Latency of an 8 KB partial-row write, healthy (read-modify-write), ms.
    pub write_healthy_ms: f64,
    /// Latency of the same write with the data disk failed
    /// (reconstruct-write), ms.
    pub write_degraded_ms: f64,
    /// Time to rebuild the failed disk onto a replacement, seconds.
    pub rebuild_secs: f64,
}

/// Measures RAID-5 degraded-mode service times and the rebuild cost on the
/// context's geometry — the operational flip side of §6's RAID caveat.
pub fn run_degraded_raid(ctx: &ExperimentContext) -> DegradedRaidAblation {
    run_degraded_raid_profiled(ctx).0
}

/// As [`run_degraded_raid`], timed through the runner as a single job (the
/// four service-time probes share one array model and are not worth
/// splitting). No simulation runs, so the histogram sidecar carries one
/// empty point (nothing sampled, nothing dropped).
pub fn run_degraded_raid_profiled(ctx: &ExperimentContext) -> Profiled<DegradedRaidAblation> {
    let ctx = *ctx;
    let jobs = vec![Job::new("ablation-degraded-raid/probes", move || degraded_raid_probes(&ctx))];
    let (mut rows, timings, metrics, hists) =
        runner::sweep(&ctx, "ablation_degraded_raid", jobs);
    (rows.remove(0), timings, metrics, hists)
}

fn degraded_raid_probes(ctx: &ExperimentContext) -> PointOut<DegradedRaidAblation> {
    use readopt_disk::{IoRequest, Raid5Array, SimTime, Storage};
    use readopt_sim::{StorageMetrics, TestMetrics};
    let g = ctx.array.geometry;
    let su = ctx.array.stripe_unit_bytes;
    let du = ctx.array.disk_unit_bytes;
    let su_units = su / du;
    let one = |fail: Option<usize>, req: IoRequest| {
        let mut r = Raid5Array::new(g, ctx.array.ndisks, su, du);
        if let Some(d) = fail {
            r.fail_disk(d);
        }
        let span = r.submit(SimTime::ZERO, &req);
        span.end.as_ms()
    };
    let mut rebuild = Raid5Array::new(g, ctx.array.ndisks, su, du);
    rebuild.fail_disk(0);
    let rebuild_secs = rebuild.rebuild(SimTime::ZERO).as_secs();
    let row = DegradedRaidAblation {
        read_healthy_ms: one(None, IoRequest::read(0, su_units)),
        read_degraded_ms: one(Some(0), IoRequest::read(0, su_units)),
        write_healthy_ms: one(None, IoRequest::write(0, su_units / 3)),
        write_degraded_ms: one(Some(0), IoRequest::write(0, su_units / 3)),
        rebuild_secs,
    };
    // No Simulation is involved; decompose the rebuild pass (the one probe
    // that exercises every surviving spindle) straight from the array stats.
    let tm = TestMetrics {
        test: "rebuild".into(),
        window_ms: rebuild_secs * 1e3,
        storage: StorageMetrics::from_stats(&rebuild.stats(), rebuild_secs * 1e3),
        ..Default::default()
    };
    (row, vec![tm], Vec::new())
}

impl fmt::Display for DegradedRaidAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Ablation: RAID-5 degraded mode (extension)")
            .headers(["operation", "healthy", "degraded"]);
        t.row([
            "chunk read".to_string(),
            format!("{:.2} ms", self.read_healthy_ms),
            format!("{:.2} ms (reconstructed)", self.read_degraded_ms),
        ]);
        t.row([
            "partial-row write".to_string(),
            format!("{:.2} ms", self.write_healthy_ms),
            format!("{:.2} ms (reconstruct-write)", self.write_degraded_ms),
        ]);
        t.row([
            "rebuild failed disk".to_string(),
            "—".to_string(),
            format!("{:.1} s", self.rebuild_secs),
        ]);
        write!(f, "{t}")
    }
}

/// One row of the disk-generation ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskGenRow {
    /// Drive generation label.
    pub generation: String,
    /// Workload label.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Sequential throughput, % of that generation's max.
    pub sequential_pct: f64,
    /// Application throughput, % of max.
    pub application_pct: f64,
}

/// The disk-generation ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskGenAblation {
    /// Rows grouped by generation.
    pub rows: Vec<DiskGenRow>,
}

/// Do the paper's 1991 conclusions survive a decade of disk evolution?
/// Re-runs the restricted-buddy vs aged-fixed-block comparison on SC and TS
/// with a circa-2001 geometry (20× the transfer rate, only ~4× the seek
/// speed). Since seeks got relatively *more* expensive per byte, contiguity
/// matters more — the fixed-block gap should widen.
pub fn run_disk_generations(ctx: &ExperimentContext) -> DiskGenAblation {
    run_disk_generations_profiled(ctx).0
}

/// As [`run_disk_generations`], also returning per-cell wall-clock timings
/// and the observability sidecars.
pub fn run_disk_generations_profiled(ctx: &ExperimentContext) -> Profiled<DiskGenAblation> {
    use readopt_disk::DiskGeometry;
    let ctx = *ctx;
    // Keep the 2001 system at a few GB even for full-scale contexts (its
    // raw 64 GB would make the TS population enormous without changing any
    // conclusion).
    let scale = ((readopt_workloads::PAPER_CAPACITY_BYTES
        / ctx.array.capacity_bytes().max(1))
    .max(4)) as u32;
    let mut jobs = Vec::new();
    for (generation, geometry, stripe) in [
        ("1991 Wren IV", ctx.array.geometry, ctx.array.stripe_unit_bytes),
        // 2001 cylinders are 1 MB; 64 KB stripe units divide them evenly.
        ("2001 desktop", DiskGeometry::desktop_2001_scaled(scale), 64 * 1024),
    ] {
        for wl in [WorkloadKind::Supercomputer, WorkloadKind::Timesharing] {
            for (policy_name, policy) in [
                ("restricted-buddy", PolicyConfig::paper_restricted()),
                ("fixed (aged)", ExperimentContext::fixed_policy(wl)),
            ] {
                let label =
                    format!("ablation-disk-gen/{generation}/{}/{policy_name}", wl.short_name());
                jobs.push(Job::new(label, move || {
                    let mut gctx = ctx;
                    gctx.array.geometry = geometry;
                    gctx.array.stripe_unit_bytes = stripe;
                    let ((app, seq), tms, hs) = gctx.run_performance_observed(wl, policy);
                    let row = DiskGenRow {
                        generation: generation.to_string(),
                        workload: wl.short_name().to_string(),
                        policy: policy_name.to_string(),
                        sequential_pct: seq.throughput_pct,
                        application_pct: app.throughput_pct,
                    };
                    (row, tms, hs)
                }));
            }
        }
    }
    let (rows, timings, metrics, hists) = runner::sweep(&ctx, "ablation_disk_gen", jobs);
    (DiskGenAblation { rows }, timings, metrics, hists)
}

impl fmt::Display for DiskGenAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Ablation: 1991 vs 2001 disk generations (does the conclusion age well?)",
        )
        .headers(["generation", "workload", "policy", "sequential", "application"]);
        for r in &self.rows {
            t.row([
                r.generation.clone(),
                r.workload.clone(),
                r.policy.clone(),
                pct(r.sequential_pct),
                pct(r.application_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conclusions_strengthen_on_modern_disks() {
        let ab = run_disk_generations(&ExperimentContext::fast(64));
        assert_eq!(ab.rows.len(), 8);
        let gap = |generation: &str| {
            let multi = ab
                .rows
                .iter()
                .find(|r| r.generation.starts_with(generation) && r.workload == "SC" && r.policy.starts_with("restricted"))
                .unwrap()
                .sequential_pct;
            let fixed = ab
                .rows
                .iter()
                .find(|r| r.generation.starts_with(generation) && r.workload == "SC" && r.policy.starts_with("fixed"))
                .unwrap()
                .sequential_pct;
            multi / fixed.max(1e-9)
        };
        let gap_1991 = gap("1991");
        let gap_2001 = gap("2001");
        assert!(gap_1991 > 1.5, "multiblock already wins in 1991: {gap_1991}");
        assert!(
            gap_2001 > gap_1991,
            "the contiguity advantage must widen on modern disks: 1991 {gap_1991:.1}x vs 2001 {gap_2001:.1}x"
        );
    }

    #[test]
    fn degraded_raid_costs_are_ordered() {
        let ab = run_degraded_raid(&ExperimentContext::fast(64));
        assert!(ab.read_degraded_ms >= ab.read_healthy_ms);
        assert!(ab.rebuild_secs > 0.0);
    }

    #[test]
    fn ffs_comparison_tells_section_1_story() {
        let ab = run_ffs_comparison(&ExperimentContext::fast(64));
        assert_eq!(ab.rows.len(), 3);
        let v7 = &ab.rows[0];
        let ffs = &ab.rows[1];
        // FFS's fragments avoid the 4K-block round-up waste of the fixed
        // system on 8K-mean files…
        assert!(
            ffs.internal_pct <= v7.internal_pct + 1.0,
            "ffs {} vs v7 {}",
            ffs.internal_pct,
            v7.internal_pct
        );
        // …and its cylinder-group locality beats the aged V7 free list
        // sequentially.
        assert!(
            ffs.sequential_pct > v7.sequential_pct,
            "ffs {} vs v7 {}",
            ffs.sequential_pct,
            v7.sequential_pct
        );
    }

    #[test]
    fn nightly_reallocation_matches_kochs_claims() {
        let ab = run_reallocation(&ExperimentContext::fast(64));
        assert_eq!(ab.rows.len(), 3);
        for r in &ab.rows {
            assert!(
                r.internal_after_pct <= r.internal_before_pct,
                "{}: {} -> {}",
                r.workload,
                r.internal_before_pct,
                r.internal_after_pct
            );
            assert!(r.extents_after <= 4.0, "{}: {} extents/file", r.workload, r.extents_after);
            assert!(r.units_moved > 0);
        }
        // Koch: "average under 4% internal fragmentation" — the rounded
        // third extent keeps waste tiny.
        let worst = ab.rows.iter().map(|r| r.internal_after_pct).fold(0.0, f64::max);
        assert!(worst < 8.0, "worst internal fragmentation after realloc: {worst}");
    }

    #[test]
    fn raid_rows_cover_all_layouts() {
        let ab = run_raid(&ExperimentContext::fast(64));
        assert_eq!(ab.rows.len(), 4);
        let striped = &ab.rows[0];
        let raid5 = &ab.rows[2];
        assert!(
            striped.write_amplification <= 1.01,
            "no redundancy overhead: {}",
            striped.write_amplification
        );
        assert!(
            raid5.write_amplification > 1.1,
            "RAID-5 RMW amplifies writes: {}",
            raid5.write_amplification
        );
        // The §6 prediction: RAID reduces (small-write-heavy) TP throughput.
        assert!(
            raid5.application_mb_s < striped.application_mb_s,
            "raid {} vs striped {} MB/s",
            raid5.application_mb_s,
            striped.application_mb_s
        );
    }

    #[test]
    fn stripe_sweep_produces_rows() {
        let ab = run_stripe_unit(&ExperimentContext::fast(64));
        assert!(ab.rows.len() >= 2);
        for r in &ab.rows {
            assert!(r.sequential_pct > 0.0);
        }
    }

    #[test]
    fn file_mix_sweep_produces_rows() {
        let ab = run_file_mix(&ExperimentContext::fast(64));
        assert_eq!(ab.rows.len(), 4);
        for r in &ab.rows {
            assert!(r.internal_pct >= 0.0 && r.external_pct >= 0.0);
        }
    }

    /// The regression this pins: the `repro` ablations profile used to
    /// hardcode `dropped_latency_samples: 0` because the ablation drivers
    /// returned no histograms at all — reservoir overflow in any ablation
    /// was silently reported as "every percentile exact". Every profiled
    /// ablation now returns an [`ExperimentHist`] whose per-test `dropped`
    /// counts the profile sums, and a tiny reservoir must surface them.
    #[test]
    fn ablation_hists_carry_real_drop_counts() {
        let ctx = ExperimentContext::fast(64).with_latency_cap(4);
        let (ab, _, _, hist) = run_file_mix_profiled(&ctx);
        assert_eq!(hist.experiment, "ablation_file_mix");
        assert_eq!(hist.points.len(), ab.rows.len(), "one hist point per mix");
        assert!(
            hist.dropped_samples() > 0,
            "a 4-sample reservoir must overflow during the allocation test"
        );
        for p in &hist.points {
            let point_drops: u64 = p.tests.iter().map(|t| t.dropped).sum();
            assert!(point_drops > 0, "{}: no drops recorded", p.label);
        }
        // The summed number is exactly the per-point aggregate — the value
        // the run profile now reports instead of the hardcoded zero.
        let total: u64 =
            hist.points.iter().flat_map(|p| p.tests.iter()).map(|t| t.dropped).sum();
        assert_eq!(hist.dropped_samples(), total);

        // And an uncapped context keeps every ablation percentile exact.
        let (_, _, _, uncapped) = run_file_mix_profiled(&ExperimentContext::fast(64));
        assert_eq!(uncapped.dropped_samples(), 0);
    }
}
