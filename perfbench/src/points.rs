//! The three workloads as lists of sweep points, and the harness's own
//! point bodies.
//!
//! Each point makes the same public calls the experiment code make
//! through `ExperimentContext::run_*_observed` (`sim_config`,
//! `Simulation::new`, the §3 test, `metrics_snapshot`, `latency_hist`) in
//! the same order with the same seeds, so its outputs are byte-identical
//! to the experiment's — `check` proves that on every run. Doing the calls
//! here instead of through the experiment module lets the harness time
//! `Simulation::new` (set-up) apart from the test, and, when traced, time
//! every other call at its public boundary too.

use readopt_alloc::{ExtentConfig, FitStrategy, PolicyConfig, RestrictedConfig};
use readopt_core::fig1::Fig1Point;
use readopt_core::fig2::Fig2Point;
use readopt_core::fig4::Fig4Point;
use readopt_core::fig5::Fig5Point;
use readopt_core::fig6::{self, Fig6Cell};
use readopt_core::metrics::{PointHist, PointMetrics};
use readopt_core::runner::{self, Job, JobTiming};
use readopt_core::ExperimentContext;
use readopt_disk::SimDuration;
use readopt_sim::{
    EngineCounters, EventQueueKind, FileTypeConfig, PerfReport, SimConfig, Simulation, TestHist,
    TestMetrics,
};
use crate::yardstick::Yardstick;
use readopt_workloads::WorkloadKind;
use std::sync::Mutex;
use std::time::Instant;

/// User count of the `many_users` point: the top rung of `users_1e6`.
pub const MANY_USERS: u32 = 1_000_000;

/// Array scale divisor of the `many_users` point (`repro --scale 64`).
pub const MANY_USERS_SCALE: u32 = 64;

/// `Simulation::new` calls per `many_users` point, of which the fastest is
/// its set-up time: one call takes about half a millisecond, and in a slow
/// host phase it takes up to twice that. The point runs on the last one
/// built.
const USERS_SETUP_REPS: usize = 15;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §3 allocation tests: fig1 + fig4 + table4 at full scale.
    AllocSweep,
    /// §3 application + sequential tests: fig2 + fig5 + fig6 at full scale.
    PerfSweep,
    /// One application test with a million users at 1/64 scale.
    ManyUsers,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::AllocSweep,
        Workload::PerfSweep,
        Workload::ManyUsers,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AllocSweep => "alloc_sweep",
            Workload::PerfSweep => "perf_sweep",
            Workload::ManyUsers => "many_users",
        }
    }

    /// The experiment context the workload's points run under: `repro`'s
    /// defaults (one job, heap queue, no shards) at the workload's scale.
    pub fn context(self, seed: u64) -> ExperimentContext {
        let ctx = match self {
            Workload::AllocSweep | Workload::PerfSweep => ExperimentContext::full(),
            Workload::ManyUsers => ExperimentContext::fast(MANY_USERS_SCALE),
        };
        ctx.with_seed(seed)
    }

    /// Allocator utilization the layer replays run at: the allocation
    /// test runs to the first failure, the performance tests hold 90–95 %.
    pub fn replay_utilization(self) -> f64 {
        match self {
            Workload::AllocSweep => 0.95,
            Workload::PerfSweep | Workload::ManyUsers => 0.925,
        }
    }
}

/// What a point runs and how its experiment shapes the result.
#[derive(Debug, Clone)]
pub enum Shape {
    /// Restricted buddy allocation test (Figure 1).
    Fig1 {
        nsizes: usize,
        grow: u64,
        clustered: bool,
    },
    /// Restricted buddy performance tests (Figure 2).
    Fig2 {
        nsizes: usize,
        grow: u64,
        clustered: bool,
    },
    /// Extent allocation test (Figure 4).
    Fig4 { n_ranges: usize, fit: FitStrategy },
    /// Extent performance tests (Figure 5).
    Fig5 { n_ranges: usize, fit: FitStrategy },
    /// Extent allocation test, first fit (Table 4).
    Table4,
    /// §5 policy comparison, performance tests (Figure 6).
    Fig6 { policy: String },
    /// The million-user application test (`users_1e6`, heap backend).
    Users,
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Experiment the point belongs to (`fig1`, …, `users_1e6`).
    pub exp: &'static str,
    /// The experiment's label for the point.
    pub label: String,
    /// Workload kind of the point's simulation.
    pub wl: WorkloadKind,
    /// Allocation policy under test.
    pub policy: PolicyConfig,
    /// Which test runs and how the result is shaped.
    pub shape: Shape,
}

impl PointSpec {
    /// Whether the point runs the allocation test (no disk I/O).
    pub fn is_allocation(&self) -> bool {
        matches!(
            self.shape,
            Shape::Fig1 { .. } | Shape::Fig4 { .. } | Shape::Table4
        )
    }
}

fn clustered_tag(clustered: bool) -> &'static str {
    if clustered {
        "c"
    } else {
        "u"
    }
}

/// The workload's points, grouped by experiment, each group in its
/// experiment's submission order.
pub fn points(workload: Workload, ctx: &ExperimentContext) -> Vec<PointSpec> {
    let mut out = Vec::new();
    let restricted = |out: &mut Vec<PointSpec>, exp: &'static str| {
        for wl in WorkloadKind::all() {
            for (nsizes, grow, clustered) in readopt_core::fig1::sweep_configs() {
                let shape = if exp == "fig1" {
                    Shape::Fig1 {
                        nsizes,
                        grow,
                        clustered,
                    }
                } else {
                    Shape::Fig2 {
                        nsizes,
                        grow,
                        clustered,
                    }
                };
                out.push(PointSpec {
                    exp,
                    label: format!(
                        "{exp}/{}/n{nsizes}-g{grow}-{}",
                        wl.short_name(),
                        clustered_tag(clustered)
                    ),
                    wl,
                    policy: PolicyConfig::Restricted(RestrictedConfig::sweep_point(
                        nsizes, grow, clustered,
                    )),
                    shape,
                });
            }
        }
    };
    let extent = |out: &mut Vec<PointSpec>, exp: &'static str| {
        for wl in WorkloadKind::all() {
            for n_ranges in 1..=5usize {
                for fit in [FitStrategy::FirstFit, FitStrategy::BestFit] {
                    let shape = if exp == "fig4" {
                        Shape::Fig4 { n_ranges, fit }
                    } else {
                        Shape::Fig5 { n_ranges, fit }
                    };
                    out.push(PointSpec {
                        exp,
                        label: format!("{exp}/{}/r{n_ranges}-{fit:?}", wl.short_name()),
                        wl,
                        policy: ctx.extent_policy(wl, n_ranges, fit),
                        shape,
                    });
                }
            }
        }
    };
    let comparison_order = [
        WorkloadKind::Supercomputer,
        WorkloadKind::TransactionProcessing,
        WorkloadKind::Timesharing,
    ];
    match workload {
        Workload::AllocSweep => {
            restricted(&mut out, "fig1");
            extent(&mut out, "fig4");
            for n_ranges in 1..=5usize {
                for wl in comparison_order {
                    out.push(PointSpec {
                        exp: "table4",
                        label: format!("table4/{}/r{n_ranges}", wl.short_name()),
                        wl,
                        policy: ctx.extent_policy(wl, n_ranges, FitStrategy::FirstFit),
                        shape: Shape::Table4,
                    });
                }
            }
        }
        Workload::PerfSweep => {
            restricted(&mut out, "fig2");
            extent(&mut out, "fig5");
            for wl in comparison_order {
                for (name, policy) in fig6::policies_for(ctx, wl) {
                    out.push(PointSpec {
                        exp: "fig6",
                        label: format!("fig6/{}/{name}", wl.short_name()),
                        wl,
                        policy,
                        shape: Shape::Fig6 { policy: name },
                    });
                }
            }
        }
        Workload::ManyUsers => out.push(PointSpec {
            exp: "users_1e6",
            label: format!("users_1e6/u{MANY_USERS}/heap"),
            wl: WorkloadKind::Timesharing,
            policy: users_policy(),
            shape: Shape::Users,
        }),
    }
    out
}

/// The `users_1e6` rung policy: small extents matched to the 64 KB files.
fn users_policy() -> PolicyConfig {
    PolicyConfig::Extent(ExtentConfig {
        range_means_bytes: vec![8 * 1024, 64 * 1024],
        fit: FitStrategy::FirstFit,
        sigma_frac: 0.1,
    })
}

/// The `users_1e6` rung configuration on the heap backend (one-second
/// intervals, six of them, unsharded) for `users` users on `ctx`'s array.
pub fn users_config(ctx: &ExperimentContext, users: u32) -> SimConfig {
    let mut cfg = SimConfig::new(
        ctx.array,
        users_policy(),
        vec![FileTypeConfig::many_users(users)],
    );
    cfg.interval = SimDuration::from_secs(1.0);
    cfg.max_intervals = 6;
    cfg.shards = 1;
    cfg.shard_workers = 1;
    cfg.event_queue = EventQueueKind::Heap;
    cfg
}

/// A point's result, shaped as its experiment shapes it.
#[derive(Debug, Clone)]
pub enum Res {
    /// Figure 1 bar.
    Fig1(Fig1Point),
    /// Figure 2 bar.
    Fig2(Fig2Point),
    /// Figure 4 bar.
    Fig4(Fig4Point),
    /// Figure 5 bar.
    Fig5(Fig5Point),
    /// Figure 6 cell.
    Fig6(Fig6Cell),
    /// Table 4 cell (average extents per file).
    Table4(f64),
    /// `users_1e6` rung: report and events popped.
    Users(PerfReport, u64),
}

/// Host nanoseconds spent at each public boundary of one point. Only
/// `new_ns` is measured untraced; the rest stay 0 unless traced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `ExperimentContext::sim_config` (core).
    pub config_ns: f64,
    /// `Simulation::new` (sim: file population and calibration).
    pub new_ns: f64,
    /// The §3 tests, indexed by [`TEST_KINDS`].
    pub test_ns: [f64; 3],
    /// `metrics_snapshot` + `latency_hist` (+ `engine_counters`).
    pub snapshot_ns: f64,
    /// Dropping the `Simulation` (freeing its allocator, file and queue
    /// state) at the end of the point.
    pub drop_ns: f64,
}

/// Test kinds in [`Spans::test_ns`] order.
pub const TEST_KINDS: [&str; 3] = ["allocation", "application", "sequential"];

/// Everything one point produced.
#[derive(Debug, Clone)]
pub struct PointOut {
    /// The experiment-shaped result.
    pub res: Res,
    /// Metrics snapshots in test order (for `many_users`, only when
    /// traced: its experiment takes none).
    pub tests: Vec<TestMetrics>,
    /// Latency histograms in test order.
    pub hists: Vec<TestHist>,
    /// Engine counters summed over the point's tests.
    pub counters: EngineCounters,
    /// Boundary timings.
    pub spans: Spans,
}

/// Runs `f`, returning its result and elapsed ns when `on`, else 0.
fn timed<T>(on: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if !on {
        return (f(), 0.0);
    }
    let t = Instant::now();
    let out = f();
    (out, crate::stats::ns(t.elapsed()))
}

fn add_counters(sum: &mut EngineCounters, c: &EngineCounters) {
    sum.events += c.events;
    sum.operations += c.operations;
    sum.transfers += c.transfers;
    sum.disk_full_events += c.disk_full_events;
    sum.refill_passes += c.refill_passes;
}

/// Runs one point. `traced` adds boundary timings (and, for `many_users`,
/// a metrics snapshot) around the same calls; it changes no output.
pub fn run_point(ctx: &ExperimentContext, p: &PointSpec, traced: bool) -> PointOut {
    let mut spans = Spans::default();
    if let Shape::Users = p.shape {
        let (cfg, config_ns) = timed(traced, || users_config(ctx, MANY_USERS));
        spans.config_ns = config_ns;
        let mut new_ns = Vec::with_capacity(USERS_SETUP_REPS);
        let mut built = None;
        for _ in 0..USERS_SETUP_REPS {
            drop(built.take());
            let t = Instant::now();
            built = Some(Simulation::new(&cfg, ctx.seed.wrapping_add(1)));
            new_ns.push(crate::stats::ns(t.elapsed()));
        }
        spans.new_ns = new_ns.into_iter().fold(f64::INFINITY, f64::min);
        let mut sim = built.expect("USERS_SETUP_REPS > 0");
        sim.reset_counters();
        sim.storage_reset_for_probe();
        let (report, test_ns) = timed(traced, || sim.run_application_test());
        spans.test_ns[1] = test_ns;
        let ((counters, hist), snapshot_ns) = timed(traced, || {
            (sim.engine_counters(), sim.latency_hist("application"))
        });
        spans.snapshot_ns = snapshot_ns;
        let tests = if traced {
            vec![sim.metrics_snapshot("application", report.measured_ms)]
        } else {
            Vec::new()
        };
        spans.drop_ns = timed(traced, || drop(sim)).1;
        let events = counters.events;
        return PointOut {
            res: Res::Users(report, events),
            tests,
            hists: vec![hist],
            counters,
            spans,
        };
    }

    let (cfg, config_ns) = timed(traced, || ctx.sim_config(p.wl, p.policy.clone()));
    spans.config_ns = config_ns;
    let mut counters = EngineCounters::default();
    if p.is_allocation() {
        let t = Instant::now();
        let mut sim = Simulation::new(&cfg, ctx.seed);
        spans.new_ns = crate::stats::ns(t.elapsed());
        let (frag, test_ns) = timed(traced, || sim.run_allocation_test());
        spans.test_ns[0] = test_ns;
        let ((tm, th), snapshot_ns) = timed(traced, || {
            (
                sim.metrics_snapshot("allocation", sim.now().as_ms()),
                sim.latency_hist("allocation"),
            )
        });
        spans.snapshot_ns = snapshot_ns;
        spans.drop_ns = timed(traced, || drop(sim)).1;
        add_counters(&mut counters, &tm.engine);
        let workload = p.wl.short_name().to_string();
        let res = match p.shape {
            Shape::Fig1 {
                nsizes,
                grow,
                clustered,
            } => Res::Fig1(Fig1Point {
                workload,
                nsizes,
                grow_factor: grow,
                clustered,
                internal_pct: frag.internal_pct,
                external_pct: frag.external_pct,
            }),
            Shape::Fig4 { n_ranges, fit } => Res::Fig4(Fig4Point {
                workload,
                n_ranges,
                fit,
                internal_pct: frag.internal_pct,
                external_pct: frag.external_pct,
                avg_extents_per_file: frag.avg_extents_per_file,
            }),
            _ => Res::Table4(frag.avg_extents_per_file),
        };
        return PointOut {
            res,
            tests: vec![tm],
            hists: vec![th],
            counters,
            spans,
        };
    }

    let t = Instant::now();
    let mut sim = Simulation::new(&cfg, ctx.seed.wrapping_add(1));
    spans.new_ns = crate::stats::ns(t.elapsed());
    let mut tests = Vec::with_capacity(2);
    let mut hists = Vec::with_capacity(2);
    let mut reports = Vec::with_capacity(2);
    for (kind, name) in [(1usize, "application"), (2, "sequential")] {
        sim.reset_counters();
        sim.storage_reset_for_probe();
        let (report, test_ns) = timed(traced, || {
            if kind == 1 {
                sim.run_application_test()
            } else {
                sim.run_sequential_test()
            }
        });
        spans.test_ns[kind] = test_ns;
        let ((tm, th), snapshot_ns) = timed(traced, || {
            (
                sim.metrics_snapshot(name, report.measured_ms),
                sim.latency_hist(name),
            )
        });
        spans.snapshot_ns += snapshot_ns;
        add_counters(&mut counters, &tm.engine);
        tests.push(tm);
        hists.push(th);
        reports.push(report);
    }
    spans.drop_ns = timed(traced, || drop(sim)).1;
    let (app, seq) = (&reports[0], &reports[1]);
    let workload = p.wl.short_name().to_string();
    let res = match &p.shape {
        Shape::Fig2 {
            nsizes,
            grow,
            clustered,
        } => Res::Fig2(Fig2Point {
            workload,
            nsizes: *nsizes,
            grow_factor: *grow,
            clustered: *clustered,
            application_pct: app.throughput_pct,
            sequential_pct: seq.throughput_pct,
        }),
        Shape::Fig5 { n_ranges, fit } => Res::Fig5(Fig5Point {
            workload,
            n_ranges: *n_ranges,
            fit: *fit,
            application_pct: app.throughput_pct,
            sequential_pct: seq.throughput_pct,
            avg_extents_per_file: seq.avg_extents_per_file,
        }),
        Shape::Fig6 { policy } => Res::Fig6(Fig6Cell {
            workload,
            policy: policy.clone(),
            application_pct: app.throughput_pct,
            sequential_pct: seq.throughput_pct,
        }),
        other => unreachable!("performance point with allocation shape {other:?}"),
    };
    PointOut {
        res,
        tests,
        hists,
        counters,
        spans,
    }
}

impl PointOut {
    /// The point's store payload: the exact `serde_json::to_string` bytes
    /// of the experiment's `(result, metrics, histogram)` triple, or for the
    /// `users_1e6` rung the `(report, events, histogram)` record its ladder
    /// appends to a results store.
    pub fn payload(&self, label: &str) -> String {
        let pm = || PointMetrics::new(label, self.tests.clone());
        let ph = || PointHist::new(label, self.hists.clone());
        let json = match &self.res {
            Res::Fig1(r) => serde_json::to_string(&(r, pm(), ph())),
            Res::Fig2(r) => serde_json::to_string(&(r, pm(), ph())),
            Res::Fig4(r) => serde_json::to_string(&(r, pm(), ph())),
            Res::Fig5(r) => serde_json::to_string(&(r, pm(), ph())),
            Res::Fig6(r) => serde_json::to_string(&(r, pm(), ph())),
            Res::Table4(r) => serde_json::to_string(&(r, pm(), ph())),
            Res::Users(report, events) => serde_json::to_string(&(report, events, &self.hists[0])),
        };
        json.expect("point outputs serialize")
    }

    /// The bytes the correctness check digests: the payload for sweep
    /// points; for the `users_1e6` rung, the fields its ladder publishes
    /// (throughput, events, histogram).
    pub fn check_bytes(&self, label: &str) -> String {
        match &self.res {
            Res::Users(report, events) => {
                users_check_bytes(report.throughput_pct, *events, &self.hists[0])
            }
            _ => self.payload(label),
        }
    }
}

/// Check bytes of a `users_1e6` rung (shared with the experiment-side check).
pub fn users_check_bytes(throughput_pct: f64, events: u64, hist: &TestHist) -> String {
    serde_json::to_string(&(throughput_pct, events, hist)).expect("rung outputs serialize")
}

/// One pass over every point of a workload.
pub struct Sweep {
    /// Host seconds from the first point's start to the last result.
    pub wall_s: f64,
    /// Mean yardstick slice time over the sweep, ms.
    pub slice_ms: f64,
    /// Per-experiment wall seconds, in run order.
    pub exp_walls: Vec<(&'static str, f64)>,
    /// Per-point outputs, in point order.
    pub outs: Vec<PointOut>,
    /// Per-point host timings from the runner, in point order.
    pub timings: Vec<JobTiming>,
}

impl Sweep {
    /// Simulated file operations over the sweep.
    pub fn ops(&self) -> u64 {
        self.outs.iter().map(|o| o.counters.operations).sum()
    }
}

/// Runs every point once, experiment by experiment, each through the
/// core runner on one thread: a closed loop in which the next point
/// starts as soon as the previous one finishes. After each point the
/// yardstick may take a slice; its time is left out of every time the
/// sweep reports.
pub fn run_sweep(
    ctx: &ExperimentContext,
    specs: &[PointSpec],
    traced: bool,
    yard: &Mutex<Yardstick>,
) -> Sweep {
    let start = Instant::now();
    let first_slice = yard.lock().expect("yardstick lock").count();
    let mut exp_walls = Vec::new();
    let mut outs = Vec::with_capacity(specs.len());
    let mut timings = Vec::with_capacity(specs.len());
    let mut yard_s = 0.0;
    let mut i = 0;
    while i < specs.len() {
        let exp = specs[i].exp;
        let group: Vec<&PointSpec> = specs[i..].iter().take_while(|s| s.exp == exp).collect();
        i += group.len();
        let t0 = Instant::now();
        let jobs: Vec<Job<(PointOut, f64)>> = group
            .into_iter()
            .map(|s| {
                Job::new(s.label.clone(), move || {
                    let out = run_point(ctx, s, traced);
                    let slice_ms = yard.lock().expect("yardstick lock").maybe_sample();
                    (out, slice_ms)
                })
            })
            .collect();
        let out = runner::run_jobs(1, jobs);
        let mut exp_yard_s = 0.0;
        for ((point, slice_ms), mut timing) in out.results.into_iter().zip(out.timings) {
            timing.wall_ms -= slice_ms;
            exp_yard_s += slice_ms / 1e3;
            outs.push(point);
            timings.push(timing);
        }
        exp_walls.push((exp, t0.elapsed().as_secs_f64() - exp_yard_s));
        yard_s += exp_yard_s;
    }
    Sweep {
        wall_s: start.elapsed().as_secs_f64() - yard_s,
        slice_ms: yard.lock().expect("yardstick lock").mean_ms_from(first_slice),
        exp_walls,
        outs,
        timings,
    }
}
