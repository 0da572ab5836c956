//! `perfbench`: end-to-end and per-layer benchmark of the readopt
//! simulator (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload alloc_sweep|perf_sweep|many_users
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --record-reference PATH     # rewrite reference.txt
//! perfbench --users-ladder-split        # users_1e6 smoke rungs, full scale
//! ```
//!
//! Untraced (`--trace 0`), the workload's sweep repeats until `--seconds`
//! have passed and the end-to-end metrics are printed. Traced, untraced
//! and traced sweeps alternate, the layer replays run, and the per-layer
//! metrics are printed with a "where the time goes" table. Either way the
//! outputs are then checked against the experiment code (untimed), and
//! the last stdout line is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod check;
mod points;
mod replay;
mod stats;
mod yardstick;

use points::{PointSpec, Shape, Sweep, Workload, TEST_KINDS};
use readopt_core::runner;
use readopt_disk::ArrayConfig;
use readopt_sim::{FileTypeConfig, Simulation};
use readopt_workloads::WorkloadKind;
use stats::{median, percentile};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;
use yardstick::Yardstick;

const USAGE: &str = "usage: perfbench --workload alloc_sweep|perf_sweep|many_users [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --record-reference PATH\n       perfbench --users-ladder-split";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    users_split: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: check::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        record: None,
        users_split: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record-reference" => a.record = Some(value()?),
            "--users-ladder-split" => a.users_split = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if a.workload.is_none() && a.record.is_none() && !a.users_split {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Makes glibc keep freed memory in the process: no `mmap` for large
/// blocks and no trimming of the heap top. On a VM whose host takes back
/// the pages a guest frees, touching memory again costs page faults whose
/// price moves with the host's load; a kernel that only faults fresh
/// memory in tracked the simulator's slow phases (r = 0.92 over 20 s
/// windows). Retained, the memory is faulted in once, in the first sweep,
/// and the timings measure the simulator's own work.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // <malloc.h>: M_TRIM_THRESHOLD, M_TOP_PAD, M_MMAP_MAX.
    const SETTINGS: [(c_int, c_int); 3] = [(-1, c_int::MAX), (-2, 64 << 20), (-4, 0)];
    for (param, value) in SETTINGS {
        // SAFETY: mallopt only changes allocator tunables; it is called
        // before the benchmark starts any thread.
        if unsafe { mallopt(param, value) } != 1 {
            eprintln!("warning: mallopt({param}, {value}) was refused");
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() {}

fn main() {
    retain_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.record {
        if let Err(e) = check::record_reference(path, runner::default_jobs()) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.users_split {
        users_ladder_split();
        return;
    }
    let workload = args.workload.expect("checked by parse_args");
    let report = if args.trace {
        traced(&args, workload)
    } else {
        untraced(&args, workload)
    };
    print!("{}", report.human);
    println!("{}", report.json());
}

/// Sweeps an untraced run makes at least, however long they take, so
/// every point is timed more than once.
const MIN_SWEEPS: usize = 2;

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run prints.
struct Report {
    human: String,
    verdict: check::Verdict,
    metrics: Vec<Metric>,
}

impl Report {
    /// The result line.
    fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.verdict.correct() && finite,
            self.verdict.attempted,
            self.verdict.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn header(args: &Args, workload: Workload, specs: &[PointSpec]) -> String {
    format!(
        "perfbench {} — seed {}, one runner thread ({} available), {} points per sweep, {}\n",
        workload.name(),
        args.seed,
        runner::default_jobs(),
        specs.len(),
        if args.trace { "traced" } else { "untraced" }
    )
}

fn verdict_lines(v: &check::Verdict) -> String {
    let mut out = format!(
        "  error_rate       {:.4}  ({} of {} points differ from the experiment/reference outputs)\n",
        v.failed as f64 / v.attempted.max(1) as f64,
        v.failed,
        v.attempted
    );
    for p in &v.problems {
        let _ = writeln!(out, "  PROBLEM: {p}");
    }
    out
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args, workload: Workload) -> Report {
    let ctx = workload.context(args.seed);
    let specs = points::points(workload, &ctx);
    let start = Instant::now();
    let yard = Mutex::new(Yardstick::new());
    let mut sweeps: Vec<Sweep> = Vec::new();
    // No sweep starts that the last one's wall says would end past
    // `--seconds`, so a run takes `--seconds` or `MIN_SWEEPS` sweeps,
    // whichever is longer.
    let mut last_wall = 0.0;
    while sweeps.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() + last_wall <= args.seconds {
        let sweep = points::run_sweep(&ctx, &specs, false, &yard);
        last_wall = sweep.wall_s;
        sweeps.push(sweep);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let yard = yard.into_inner().expect("yardstick lock");
    let rss = peak_rss_mb();
    let mut verdict = check::verify(workload, &ctx, &specs, &sweeps);
    if rss.is_none() {
        verdict
            .problems
            .push("peak RSS unavailable (/proc/self/status has no VmHWM)".into());
    }

    // Times are means over the run's sweeps, at the yardstick's reference
    // host speed. The host runs in phases of tens of seconds in which the
    // simulator is up to 1.8 times slower; no per-point minimum or median
    // filters a phase out of a sweep, the yardstick timed in the same
    // phases does (README, "Host noise"). Set-up counts each point's
    // fastest `Simulation::new` of the run: `many_users` builds its
    // simulation about a hundred times a run, and its sub-millisecond
    // set-up slows in a phase twice as much as the yardstick does.
    let n = sweeps.len() as f64;
    let host = yard.factor();
    let point_ms: Vec<f64> = (0..specs.len())
        .map(|i| host * sweeps.iter().map(|s| s.timings[i].wall_ms).sum::<f64>() / n)
        .collect();
    let raw_setup_s: f64 = (0..specs.len())
        .map(|i| {
            sweeps
                .iter()
                .map(|s| s.outs[i].spans.new_ns / 1e9)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let raw_wall_s = sweeps.iter().map(|s| s.wall_s).sum::<f64>() / n;
    let (wall_s, setup_s) = (host * raw_wall_s, host * raw_setup_s);
    let metrics = vec![
        metric("wall_s", wall_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("sim_ops_per_s", sweeps[0].ops() as f64 / wall_s, "1/s"),
        metric("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
    ];
    // Printed, not reported: the sweeps' point times fall in clusters,
    // and which cluster a percentile lands in changes from seed to seed
    // by more than any bound the result line may carry.
    let pcts = [
        ("point_p50_ms", percentile(&point_ms, 0.50)),
        ("point_p85_ms", percentile(&point_ms, 0.85)),
    ];
    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    let slices: Vec<f64> = sweeps.iter().map(|s| s.slice_ms).collect();

    let mut human = header(args, workload, &specs);
    let _ = writeln!(
        human,
        "  {} sweep(s) in {:.1} s (host sweep walls {walls:.3?} s); times are means over the sweeps, set-up each point's fastest; percentiles over {} points",
        sweeps.len(),
        measured_s,
        point_ms.len()
    );
    let _ = writeln!(
        human,
        "  yardstick: {} slices (per sweep {slices:.3?} ms), mean {:.3} ms against {:.1} ms reference; times below are host times × {host:.4} (host wall {raw_wall_s:.4} s, host set-up {raw_setup_s:.4} s)",
        yard.count(),
        yard.mean_ms(),
        yardstick::REFERENCE_SLICE_MS
    );
    for m in &metrics {
        let _ = writeln!(human, "  {:<16} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (name, ms) in pcts {
        let _ = writeln!(human, "  {name:<16} {ms:>14.4} ms");
    }
    human.push_str(&verdict_lines(&verdict));
    Report {
        human,
        verdict,
        metrics,
    }
}

/// Per-workload sums over one or more traced sweeps.
#[derive(Default)]
struct Totals {
    points: f64,
    tests: f64,
    point_s: f64,
    config_s: f64,
    new_s: f64,
    test_s: [f64; 3],
    snapshot_s: f64,
    drop_s: f64,
    events: f64,
    ops: f64,
    transfers: f64,
    refills: f64,
    disk_full: f64,
    requests: f64,
    logical: f64,
    queue_wait_ms: f64,
    queued: f64,
    outside_s: f64,
}

impl Totals {
    fn add(&mut self, sweep: &Sweep) {
        let point_s: f64 = sweep.timings.iter().map(|t| t.wall_ms / 1e3).sum();
        self.point_s += point_s;
        self.outside_s += sweep.wall_s - point_s;
        for o in &sweep.outs {
            self.points += 1.0;
            self.tests += o.spans.test_ns.iter().filter(|&&t| t > 0.0).count() as f64;
            self.config_s += o.spans.config_ns / 1e9;
            self.new_s += o.spans.new_ns / 1e9;
            for k in 0..3 {
                self.test_s[k] += o.spans.test_ns[k] / 1e9;
            }
            self.snapshot_s += o.spans.snapshot_ns / 1e9;
            self.drop_s += o.spans.drop_ns / 1e9;
            self.events += o.counters.events as f64;
            self.ops += o.counters.operations as f64;
            self.transfers += o.counters.transfers as f64;
            self.refills += o.counters.refill_passes as f64;
            self.disk_full += o.counters.disk_full_events as f64;
            for t in &o.tests {
                let c = &t.storage.combined;
                self.requests += c.requests as f64;
                self.logical += (t.storage.logical_reads + t.storage.logical_writes) as f64;
                self.queue_wait_ms += c.queue_wait_ms;
                self.queued += c.queued_requests as f64;
            }
        }
    }

    fn all_tests_s(&self) -> f64 {
        self.test_s.iter().sum()
    }

    fn spans_s(&self) -> f64 {
        self.config_s + self.new_s + self.all_tests_s() + self.snapshot_s + self.drop_s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replay results a traced run collects.
struct Replays {
    queue_ns: [f64; 3],
    /// `Storage::submit` on the paper array with each [`DISK_KINDS`]
    /// request shape.
    disk_ns: [f64; 3],
    /// `Storage::submit` on the `many_users` array with that file type's
    /// random requests (0 on the sweeps, whose points use `disk_ns`).
    users_disk_ns: f64,
    /// Policy mix per family on the paper capacity.
    alloc_ns: Vec<(&'static str, f64)>,
    map_range_ns: f64,
    calibrate_ms: f64,
}

impl Replays {
    /// ns per submit of the request shape point `p` issues.
    fn disk_ns_for(&self, p: &PointSpec) -> f64 {
        match p.shape {
            Shape::Users => self.users_disk_ns,
            _ => self.disk_ns[DISK_KINDS.iter().position(|&k| k == p.wl).unwrap_or(0)],
        }
    }

    /// ns per allocator call of point `p`'s policy family. A replay of
    /// each point's own configuration at the workload's utilization is no
    /// better: configurations that cannot reach it churn in failing
    /// extends that the program's tests never make.
    fn alloc_ns_for(&self, p: &PointSpec) -> f64 {
        let family = p.policy.family();
        self.alloc_ns
            .iter()
            .find(|(f, _)| *f == family)
            .map_or(0.0, |x| x.1)
    }
}

/// The `WorkloadKind` order of [`Replays::disk_ns`].
const DISK_KINDS: [WorkloadKind; 3] = [
    WorkloadKind::Timesharing,
    WorkloadKind::TransactionProcessing,
    WorkloadKind::Supercomputer,
];

fn run_replays(workload: Workload, ctx: &readopt_core::ExperimentContext, seed: u64) -> Replays {
    let util = workload.replay_utilization();
    let paper = ArrayConfig::paper_default();
    let users_disk_ns = if workload == Workload::ManyUsers {
        let rw = FileTypeConfig::many_users(points::MANY_USERS).rw_size_bytes;
        let units = rw / ctx.array.disk_unit_bytes;
        replay::disk_submit_ns(&ctx.array, replay::Access::Random, units, seed)
    } else {
        0.0
    };
    Replays {
        queue_ns: [1_000, 16_000, 1_000_000].map(|d| replay::queue_ns_per_op(d, seed)),
        disk_ns: DISK_KINDS.map(|wl| {
            let (access, units) = replay::paper_shape(wl);
            replay::disk_submit_ns(&paper, access, units, seed)
        }),
        users_disk_ns,
        alloc_ns: replay::policy_families()
            .iter()
            .map(|cfg| (cfg.family(), replay::alloc_ns_per_op(cfg, util, seed)))
            .collect(),
        map_range_ns: replay::map_range_ns(seed),
        calibrate_ms: replay::calibrate_ms(&ctx.array),
    }
}

/// Layer estimates inside the §3 tests, seconds per traced sweep: replay
/// ns/op × the program's own counts — queue pairs per event, disk submits
/// per logical request of the point's request shape, allocator calls per
/// non-transfer operation of the point's policy family, one map lookup per
/// transfer.
struct Estimates {
    /// The queue replay charged per event: 1 k pending on the sweeps,
    /// 10⁶ on `many_users`.
    queue_ns: f64,
    queue_s: f64,
    disk_s: f64,
    alloc_s: f64,
    map_s: f64,
}

impl Estimates {
    fn new(
        workload: Workload,
        specs: &[PointSpec],
        spanned: &[&Sweep],
        reps: &Replays,
        t: &Totals,
    ) -> Self {
        let n = spanned.len() as f64;
        let queue_ns = if workload == Workload::ManyUsers {
            reps.queue_ns[2]
        } else {
            reps.queue_ns[0]
        };
        let (mut disk_ns, mut alloc_ns) = (0.0, 0.0);
        for s in spanned {
            for (p, o) in specs.iter().zip(&s.outs) {
                let c = &o.counters;
                let logical: f64 = o
                    .tests
                    .iter()
                    .map(|t| (t.storage.logical_reads + t.storage.logical_writes) as f64)
                    .sum();
                disk_ns += logical * reps.disk_ns_for(p);
                alloc_ns += c.operations.saturating_sub(c.transfers) as f64 * reps.alloc_ns_for(p);
            }
        }
        Estimates {
            queue_ns,
            queue_s: t.events / n * queue_ns / 1e9,
            disk_s: disk_ns / n / 1e9,
            alloc_s: alloc_ns / n / 1e9,
            map_s: t.transfers / n * reps.map_range_ns / 1e9,
        }
    }

    fn total_s(&self) -> f64 {
        self.queue_s + self.disk_s + self.alloc_s + self.map_s
    }
}

/// `--trace 1`: the per-layer metrics and the "where the time goes" table.
fn traced(args: &Args, workload: Workload) -> Report {
    let ctx = workload.context(args.seed);
    let specs = points::points(workload, &ctx);
    let start = Instant::now();
    // Untraced and traced sweeps alternate, so both see the same host. The
    // per-layer times are host times; the yardstick only keeps its slices
    // out of them.
    let yard = Mutex::new(Yardstick::new());
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        sweeps.push(points::run_sweep(&ctx, &specs, false, &yard));
        sweeps.push(points::run_sweep(&ctx, &specs, true, &yard));
    }
    let measured_s = start.elapsed().as_secs_f64();
    let plain: Vec<&Sweep> = sweeps.iter().step_by(2).collect();
    let spanned: Vec<&Sweep> = sweeps.iter().skip(1).step_by(2).collect();
    let reps = run_replays(workload, &ctx, args.seed);

    // Per-point serialization of the last traced sweep, then the store
    // replay over exactly those records.
    let last = spanned.last().expect("at least one traced sweep");
    let mut records = Vec::with_capacity(specs.len());
    let mut serialize_s = 0.0;
    let mut index_in_exp = 0u64;
    for (i, (s, o)) in specs.iter().zip(&last.outs).enumerate() {
        if i > 0 && specs[i - 1].exp != s.exp {
            index_in_exp = 0;
        }
        let t = Instant::now();
        let payload = o.payload(&s.label);
        serialize_s += t.elapsed().as_secs_f64();
        records.push((s.exp.to_string(), index_in_exp, payload));
        index_in_exp += 1;
    }
    let store_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let store = replay::store_us(&records, &store_dir);

    let mut verdict = check::verify(workload, &ctx, &specs, &sweeps);
    let (store_append_us, store_read_us) = store.unwrap_or_else(|e| {
        verdict.problems.push(format!("store replay: {e}"));
        (0.0, 0.0)
    });

    let mut t = Totals::default();
    for s in &spanned {
        t.add(s);
    }
    let n = spanned.len() as f64;
    let plain_wall = median(&plain.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&spanned.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let overhead_pct = (traced_wall / plain_wall - 1.0) * 100.0;
    let est = Estimates::new(workload, &specs, &spanned, &reps, &t);
    let all_tests = t.all_tests_s();
    // The reconciliation: the share of §3 test time the layer estimates
    // leave unexplained.
    let gap_pct = ratio(all_tests / n - est.total_s(), all_tests / n) * 100.0;

    let mut metrics = vec![
        metric("core.outside_points_s", t.outside_s / n, "s"),
        metric("core.snapshot_us", ratio(t.snapshot_s, t.tests) * 1e6, "us"),
        metric(
            "core.serialize_us",
            serialize_s / specs.len() as f64 * 1e6,
            "us",
        ),
        metric("core.sidecar_ms", verdict.program.sidecar_s * 1e3, "ms"),
        metric("sim.new_ms", ratio(t.new_s, t.points) * 1e3, "ms"),
        metric("sim.calibrate_ms", reps.calibrate_ms, "ms"),
        metric("sim.drop_ms", ratio(t.drop_s, t.points) * 1e3, "ms"),
        metric("sim.test_ms", ratio(all_tests, t.tests) * 1e3, "ms"),
    ];
    for (k, kind) in TEST_KINDS.iter().enumerate() {
        metrics.push(metric(
            format!("sim.{kind}_test_share"),
            ratio(t.test_s[k], all_tests) * 100.0,
            "%",
        ));
    }
    metrics.extend([
        metric("sim.events", t.events / n, "count"),
        metric("sim.ops", t.ops / n, "count"),
        metric("sim.transfers", t.transfers / n, "count"),
        metric("sim.refill_passes", t.refills / n, "count"),
        metric("sim.ns_per_event", ratio(all_tests * 1e9, t.events), "ns"),
    ]);
    for (depth, ns) in ["1k", "16k", "1m"].iter().zip(reps.queue_ns) {
        metrics.push(metric(format!("sim.queue_ns_per_op.{depth}"), ns, "ns"));
    }
    for (family, ns) in &reps.alloc_ns {
        metrics.push(metric(format!("alloc.ns_per_op.{family}"), *ns, "ns"));
    }
    metrics.push(metric(
        "alloc.disk_full_share",
        ratio(t.disk_full, t.ops),
        "ratio",
    ));
    metrics.push(metric("alloc.map_range_ns", reps.map_range_ns, "ns"));
    for (wl, ns) in DISK_KINDS.iter().zip(reps.disk_ns) {
        metrics.push(metric(
            format!("disk.submit_ns.{}", wl.short_name().to_lowercase()),
            ns,
            "ns",
        ));
    }
    metrics.extend([
        metric("disk.requests", t.requests / n, "count"),
        metric("disk.logical_requests", t.logical / n, "count"),
        metric(
            "disk.queue_wait_ms",
            ratio(t.queue_wait_ms, t.requests),
            "sim_ms",
        ),
        metric("disk.queued_share", ratio(t.queued, t.requests), "ratio"),
        metric("store.append_us", store_append_us, "us"),
        metric("store.read_us", store_read_us, "us"),
        metric("trace_overhead_pct", overhead_pct, "%"),
        metric("reconcile_gap_pct", gap_pct, "%"),
    ]);

    let mut human = header(args, workload, &specs);
    let _ = writeln!(
        human,
        "  {} untraced + {} traced sweep(s) in {:.1} s; untraced wall {:.3} s, traced {:.3} s",
        plain.len(),
        spanned.len(),
        measured_s,
        plain_wall,
        traced_wall
    );
    human.push_str(&where_time_goes(
        workload, &specs, &spanned, &t, &reps, &est,
    ));
    let _ = writeln!(
        human,
        "  Off the timed path: per-point serialization {serialize_s:.4} s per sweep; repro --json sidecar serialization {:.4} s; the results store is off the default path (0 records).",
        verdict.program.sidecar_s
    );
    for (exp, wall) in &last.exp_walls {
        let sum: f64 = specs
            .iter()
            .zip(&last.timings)
            .filter(|(s, _)| s.exp == *exp)
            .map(|(_, tm)| tm.wall_ms / 1e3)
            .sum();
        let _ = writeln!(
            human,
            "  {exp:<10} wall {wall:.4} s, point sum {sum:.4} s, outside points {:.2} ms",
            (wall - sum) * 1e3
        );
    }
    for m in &metrics {
        let _ = writeln!(human, "  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    human.push_str(&verdict_lines(&verdict));
    Report {
        human,
        verdict,
        metrics,
    }
}

/// The traced run's table: boundary spans, then replay ns/op × the
/// program's own operation counts for each layer inside the tests, and
/// the reconciliation of those estimates with the measured test time.
fn where_time_goes(
    workload: Workload,
    specs: &[PointSpec],
    spanned: &[&Sweep],
    t: &Totals,
    reps: &Replays,
    est: &Estimates,
) -> String {
    let n = spanned.len() as f64;
    let wall = spanned.iter().map(|s| s.wall_s).sum::<f64>() / n;
    let tests = t.all_tests_s() / n;
    let remainder = tests - est.total_s();
    let share = |s: f64| 100.0 * s / wall;
    let mut out = format!(
        "\n  Where the time goes — {} (per traced sweep, wall {wall:.4} s = 100 %)\n  {:<46} {:>14} {:>10} {:>7}\n",
        workload.name(),
        "layer: boundary or replay × program count",
        "count",
        "seconds",
        "share"
    );
    let mut row = |name: &str, count: String, secs: f64| {
        let _ = writeln!(
            out,
            "  {name:<46} {count:>14} {secs:>10.4} {:>6.1}%",
            share(secs)
        );
    };
    row(
        "core: runner + outside points",
        String::new(),
        t.outside_s / n,
    );
    row(
        "core: ExperimentContext::sim_config",
        format!("{}", specs.len()),
        t.config_s / n,
    );
    row(
        "sim:  Simulation::new",
        format!("{}", specs.len()),
        t.new_s / n,
    );
    row(
        &format!(
            "        of which calibrate ({:.3} ms each)",
            reps.calibrate_ms
        ),
        format!("{}", specs.len()),
        reps.calibrate_ms * specs.len() as f64 / 1e3,
    );
    row("sim:  §3 tests", format!("{}", t.tests / n), tests);
    row(
        &format!("        sim.queue ({:.1} ns/event)", est.queue_ns),
        format!("{:.0}", t.events / n),
        est.queue_s,
    );
    row(
        "        disk.submit (point's request shape)",
        format!("{:.0}", t.logical / n),
        est.disk_s,
    );
    row(
        "        alloc mix (point's family, non-transfer)",
        format!("{:.0}", (t.ops - t.transfers) / n),
        est.alloc_s,
    );
    row(
        &format!(
            "        alloc.map_range ({:.1} ns/transfer)",
            reps.map_range_ns
        ),
        format!("{:.0}", t.transfers / n),
        est.map_s,
    );
    row(
        "        unattributed remainder (engine own)",
        String::new(),
        remainder,
    );
    row(
        "core: metrics_snapshot + latency_hist",
        format!("{}", t.tests / n),
        t.snapshot_s / n,
    );
    row(
        "sim:  drop(Simulation)",
        format!("{}", specs.len()),
        t.drop_s / n,
    );
    let _ = writeln!(
        out,
        "  Reconciliation: the layer estimates explain {:.4} s of the {tests:.4} s the §3 tests took. The unattributed {:.1} % of test time (reconcile_gap_pct: the engine's own work plus the estimates' error, negative when they overshoot) is the margin within which the layers reconcile with sim.test_ms. Simulation::new is measured at its own boundary, so against sim.test_ms + sim.new_ms the same remainder is {:.1} %.",
        est.total_s(),
        100.0 * ratio(remainder, tests),
        100.0 * ratio(remainder, tests + t.new_s / n)
    );
    let _ = writeln!(
        out,
        "  Sanity check of the harness: the boundary spans cover {:.2} % of measured point time.",
        100.0 * ratio(t.spans_s(), t.point_s)
    );
    out
}

/// One traced split of `users_1e6`'s smoke rungs at full paper scale.
fn users_ladder_split() {
    let ctx = readopt_core::ExperimentContext::full();
    println!(
        "users_1e6 smoke rungs at full scale, seed {}, heap queue",
        ctx.seed
    );
    println!(
        "{:>8} {:>10} {:>8} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "users",
        "events",
        "refills",
        "disk-full",
        "util",
        "new s",
        "app test s",
        "snapshot ms",
        "total s"
    );
    for users in readopt_core::users_scale::SMOKE_LADDER {
        let t0 = Instant::now();
        let cfg = points::users_config(&ctx, users);
        let t = Instant::now();
        let mut sim = Simulation::new(&cfg, ctx.seed.wrapping_add(1));
        let new_s = t.elapsed().as_secs_f64();
        sim.reset_counters();
        sim.storage_reset_for_probe();
        let t = Instant::now();
        let report = sim.run_application_test();
        let test_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let counters = sim.engine_counters();
        let hist = sim.latency_hist("application");
        let snap_ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box((report, hist));
        println!(
            "{users:>8} {:>10} {:>8} {:>10} {:>10.4} {new_s:>12.4} {test_s:>12.4} {snap_ms:>12.4} {:>10.4}",
            counters.events,
            counters.refill_passes,
            counters.disk_full_events,
            sim.utilization(),
            t0.elapsed().as_secs_f64()
        );
    }
}
