//! `repro` — regenerates every table and figure of Seltzer & Stonebraker's
//! "Read Optimized File System Designs: A Performance Evaluation".
//!
//! ```text
//! usage: repro [EXPERIMENT ...] [--scale N] [--seed S] [--intervals K]
//!              [--jobs J] [--users-full] [--json DIR] [--explain]
//!
//! EXPERIMENT: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 table4 fig6 ablations diag
//!             users_1e6 all (default: all; any other name is a usage error)
//! --scale N:     divide the paper's 2.8 GB array capacity by N, 1 to 400
//!                (each drive keeps 1 600 / N cylinders, rounded down, which
//!                the banner prints; at 400 it is down to its 4-cylinder
//!                floor); default 1, i.e. full paper scale. Any N but 1 also
//!                lowers the default --intervals cap
//! --seed S:      base RNG seed (default 1991)
//! --intervals K: cap on measured 10 s intervals per performance test
//!                (default 30 at --scale 1, 12 at any other scale; at least
//!                the stabilization window; fewer is a usage error)
//! --jobs J:      worker threads for the sweep-point runner (default: the
//!                machine's available parallelism; results are bit-identical
//!                at any J)
//! --users-full:  run the users_1e6 experiment on its full ladder (up to a
//!                million users) instead of the CI smoke rungs
//! --json DIR:    also write each result as DIR/<experiment>.json plus its
//!                observability sidecars DIR/<experiment>.metrics.json and
//!                DIR/<experiment>.hist.json (per-point latency percentiles),
//!                and the timing profile as DIR/profile.json
//! --explain:     print each experiment's per-phase disk-time breakdown
//!                (seek / rotation / transfer / queue wait per sweep point)
//!                and the Wren IV analytic cross-check against Table 1
//! ```

use readopt_alloc::PolicyConfig;
use readopt_core::metrics::{cross_check_table, wren_iv_cross_check, ExperimentHist};
use readopt_core::report::TextTable;
use readopt_core::runner::{self, JobTiming, Profiled};
use readopt_core::{
    ablations, diag, fig1, fig2, fig3, fig4, fig5, fig6, table1, table2, table3, table4,
    users_scale, ExperimentContext, ExperimentMetrics,
};
use readopt_disk::DiskGeometry;
use readopt_workloads::WorkloadKind;
use serde::Serialize;
use std::fmt;
use std::io::Write;
use std::time::Instant;

/// Printed for `--help` and after every usage error: the synopsis of the
/// module documentation above (a unit test keeps the two in step).
const USAGE: &str = "\
usage: repro [EXPERIMENT ...] [--scale N] [--seed S] [--intervals K]
             [--jobs J] [--users-full] [--json DIR] [--explain]

EXPERIMENT: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 table4 fig6 ablations diag
            users_1e6 all (default: all; any other name is a usage error)
--scale N:     divide the array capacity by N, 1 to 400 (default 1: the paper's scale)
--intervals K: cap on measured intervals per performance test
               (default 30 at --scale 1, 12 at any other scale)";

/// Every experiment name `repro` accepts (`all` runs every one).
const EXPERIMENTS: [&str; 14] = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "table4", "fig6",
    "ablations", "diag", "users_1e6", "all",
];

struct Options {
    experiments: Vec<String>,
    scale: u32,
    seed: u64,
    intervals: Option<usize>,
    jobs: Option<usize>,
    users_full: bool,
    json_dir: Option<String>,
    explain: bool,
}

/// Wall-clock account of one experiment run: total plus per-sweep-point
/// timings from the runner.
#[derive(Serialize)]
struct ExperimentProfile {
    experiment: String,
    wall_s: f64,
    /// Latency samples beyond the per-test reservoir cap, summed over the
    /// experiment's points (0 means every percentile is exact).
    dropped_latency_samples: u64,
    points: Vec<JobTiming>,
}

/// The whole run's timing profile (written as `profile.json`).
#[derive(Serialize)]
struct RunProfile {
    jobs: usize,
    total_wall_s: f64,
    /// Wall-clock cost of one observability snapshot relative to the
    /// simulation work it describes (see `measure_metrics_overhead_pct`).
    metrics_overhead_pct: f64,
    experiments: Vec<ExperimentProfile>,
}

/// Measures the marginal wall-clock cost of the observability layer: the
/// always-on counters are plain field increments on paths that already do
/// arithmetic, so the snapshot (a pure read taken once per test) is the only
/// extra work. Calibration probe: a TS allocation test at 1/64 scale vs. 32
/// averaged snapshots of its end state.
fn measure_metrics_overhead_pct() -> f64 {
    let ctx = ExperimentContext::fast(64);
    let cfg = ctx.sim_config(WorkloadKind::Timesharing, PolicyConfig::paper_restricted());
    let mut sim = readopt_sim::Simulation::new(&cfg, ctx.seed);
    let t0 = Instant::now();
    let _ = sim.run_allocation_test();
    let run_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..32 {
        std::hint::black_box(sim.metrics_snapshot("allocation", sim.now().as_ms()));
    }
    let snap_s = t1.elapsed().as_secs_f64() / 32.0;
    100.0 * snap_s / run_s.max(1e-9)
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        experiments: Vec::new(),
        scale: 1,
        seed: 1991,
        intervals: None,
        jobs: None,
        users_full: false,
        json_dir: None,
        explain: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let n: u32 = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if n == 0 {
                    return Err("--scale must be at least 1".into());
                }
                let max = DiskGeometry::wren_iv_max_scale();
                if n > max {
                    return Err(format!(
                        "--scale must be at most {max}: every drive is already down to its \
                         4-cylinder floor there"
                    ));
                }
                opts.scale = n;
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--intervals" => {
                opts.intervals = Some(
                    args.next()
                        .ok_or("--intervals needs a value")?
                        .parse()
                        .map_err(|e| format!("--intervals: {e}"))?,
                );
            }
            "--jobs" => {
                let j: usize = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if j == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(j);
            }
            "--users-full" => {
                opts.users_full = true;
            }
            "--json" => {
                opts.json_dir = Some(args.next().ok_or("--json needs a directory")?);
            }
            "--explain" => {
                opts.explain = true;
            }
            "--help" | "-h" => {
                return Err("help".into());
            }
            name if EXPERIMENTS.contains(&name) => opts.experiments.push(name.to_string()),
            name if !name.starts_with('-') => return Err(format!("unknown experiment {name}")),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".into());
    }
    Ok(opts)
}

/// Prints `error: {message}` and exits 2.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Writes `value` as `DIR/<name>.json` under `--json DIR` (created at
/// start-up). Exits 2 if the file cannot be written.
fn write_json<T: Serialize>(dir: Option<&str>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    let path = format!("{dir}/{name}.json");
    std::fs::write(&path, json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    eprintln!("  wrote {path}");
}

/// Prints one experiment's result (and, under `--explain`, its phase
/// table) and writes it with its non-empty sidecars as `<name>.json`,
/// `<name>.metrics.json` and `<name>.hist.json`. Its timings and dropped
/// latency samples go into `profile`.
fn publish<R: Serialize + fmt::Display>(
    opts: &Options,
    profile: &mut ExperimentProfile,
    name: &str,
    (result, timings, metrics, hists): Profiled<R>,
) -> (R, ExperimentMetrics, ExperimentHist) {
    println!("{result}");
    if opts.explain && !metrics.points.is_empty() {
        println!("{}", metrics.phase_table());
    }
    let dir = opts.json_dir.as_deref();
    write_json(dir, name, &result);
    if !metrics.points.is_empty() {
        write_json(dir, &format!("{name}.metrics"), &metrics);
    }
    if !hists.points.is_empty() {
        write_json(dir, &format!("{name}.hist"), &hists);
    }
    profile.dropped_latency_samples += hists.dropped_samples();
    profile.points.extend(timings);
    (result, metrics, hists)
}

/// Reads the users_1e6 ladder override ([`users_scale::LADDER_ENV`]), the
/// one place the program reads it. A malformed value exits 2 naming the
/// variable, before anything runs, instead of falling back to a default.
fn users_ladder_env() -> Option<Vec<u32>> {
    let raw = match std::env::var(users_scale::LADDER_ENV) {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return None,
        Err(std::env::VarError::NotUnicode(_)) => {
            fail(&format!("{} is not valid UTF-8", users_scale::LADDER_ENV))
        }
    };
    Some(users_scale::parse_ladder(&raw).unwrap_or_else(|e| fail(&e)))
}

/// The end-of-run runner report: where the wall-clock went, slowest sweep
/// points first.
fn profile_table(profiles: &[ExperimentProfile], jobs: usize) -> String {
    let mut slowest: Vec<(&str, &JobTiming)> = profiles
        .iter()
        .flat_map(|p| p.points.iter().map(move |t| (p.experiment.as_str(), t)))
        .collect();
    slowest.sort_by(|a, b| b.1.wall_ms.total_cmp(&a.1.wall_ms));
    let mut t = TextTable::new(format!("Runner profile: slowest sweep points ({jobs} jobs)"))
        .headers(["experiment", "point", "wall"]);
    for (experiment, timing) in slowest.iter().take(12) {
        t.row([
            experiment.to_string(),
            timing.label.clone(),
            format!("{:.2}s", timing.wall_ms / 1e3),
        ]);
    }
    let mut out = t.to_string();
    let mut totals = TextTable::new("Per-experiment wall clock")
        .headers(["experiment", "points", "wall", "cpu (sum of points)"]);
    for p in profiles {
        // `+ 0.0` turns the empty sum's -0.0 into 0.0 for display.
        let cpu_s: f64 = p.points.iter().map(|t| t.wall_ms).sum::<f64>() / 1e3 + 0.0;
        totals.row([
            p.experiment.clone(),
            p.points.len().to_string(),
            format!("{:.1}s", p.wall_s),
            format!("{:.1}s", cpu_s),
        ]);
    }
    out.push('\n');
    out.push_str(&totals.to_string());
    out
}

/// Prints the usage text (after `error`, if any) and exits: 0 for
/// `--help`, 2 for a usage error.
fn exit_usage(error: Option<&str>) -> ! {
    if let Some(e) = error {
        eprintln!("error: {e}\n");
    }
    eprintln!("{USAGE}");
    std::process::exit(if error.is_some() { 2 } else { 0 });
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) if e == "help" => exit_usage(None),
        Err(e) => exit_usage(Some(&e)),
    };
    let users_ladder = users_ladder_env();

    let jobs = opts.jobs.unwrap_or_else(runner::default_jobs);
    let mut ctx = if opts.scale == 1 {
        ExperimentContext::full()
    } else {
        ExperimentContext::fast(opts.scale)
    };
    ctx = ctx.with_seed(opts.seed).with_jobs(jobs);
    if let Some(k) = opts.intervals {
        // A performance test measures at least one stabilization window;
        // reject fewer intervals here instead of letting the simulation's
        // config validation panic inside a runner thread.
        let window = ctx
            .sim_config(WorkloadKind::Timesharing, PolicyConfig::paper_restricted())
            .stabilize_window;
        if k < window {
            exit_usage(Some(&format!(
                "--intervals must be at least {window} (the stabilization window)"
            )));
        }
        ctx.max_intervals = k;
    }

    if let Some(dir) = &opts.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            exit_usage(Some(&format!("--json {dir}: cannot create the directory: {e}")));
        }
    }

    // The banner names the cylinders each drive really has: `--scale N`
    // floors 1 600 / N, so neighbouring factors can build the same array.
    println!(
        "readopt repro — array: {} disks × {} cylinders, {:.2} GB usable, seed {}, {} jobs\n",
        ctx.array.ndisks,
        ctx.array.geometry.cylinders,
        ctx.array.capacity_bytes() as f64 / 1e9,
        ctx.seed,
        jobs,
    );

    let run_all = opts.experiments.iter().any(|e| e == "all");
    let wants = |name: &str| run_all || opts.experiments.iter().any(|e| e == name);
    let t_start = Instant::now();
    let mut profiles: Vec<ExperimentProfile> = Vec::new();

    // Runs `body` as experiment `name` if the run wants it, timing it into
    // one profile entry. The bodies `publish` what they compute.
    let mut experiment = |name: &str, body: &mut dyn FnMut(&mut ExperimentProfile)| {
        if !wants(name) {
            return;
        }
        let t0 = Instant::now();
        let mut profile = ExperimentProfile {
            experiment: name.to_string(),
            wall_s: 0.0,
            dropped_latency_samples: 0,
            points: Vec::new(),
        };
        body(&mut profile);
        profile.wall_s = t0.elapsed().as_secs_f64();
        println!("  [{name} finished in {:.1}s]\n", profile.wall_s);
        profiles.push(profile);
        let _ = std::io::stdout().flush();
    };

    // table1/table2 are parameter dumps with no sweep to fan out: no
    // per-point profile and no sidecars. fig3 traces its grow-factor
    // ladder on a fresh policy over a bare array, outside any simulation,
    // so it records no latencies.
    let dir = opts.json_dir.as_deref();
    experiment("table1", &mut |_| {
        let table = table1::run(&ctx);
        println!("{table}");
        write_json(dir, "table1", &table);
    });
    experiment("table2", &mut |_| {
        let table = table2::run(&ctx);
        println!("{table}");
        write_json(dir, "table2", &table);
    });
    experiment("fig1", &mut |p| {
        println!("{}", publish(&opts, p, "fig1", fig1::run_profiled(&ctx)).0.chart());
    });
    experiment("fig2", &mut |p| {
        println!("{}", publish(&opts, p, "fig2", fig2::run_profiled(&ctx)).0.chart());
    });
    experiment("fig3", &mut |p| {
        let (fig, timings, metrics) = fig3::run_profiled(ctx.jobs);
        publish(&opts, p, "fig3", (fig, timings, metrics, ExperimentHist::empty("fig3")));
    });
    let mut fig4_out = None;
    experiment("fig4", &mut |p| {
        let out = publish(&opts, p, "fig4", fig4::run_profiled(&ctx));
        println!("{}", out.0.chart());
        fig4_out = Some(out);
    });
    experiment("fig5", &mut |p| {
        println!("{}", publish(&opts, p, "fig5", fig5::run_profiled(&ctx)).0.chart());
    });
    // table4, diag and table3's throughput columns are projections of the
    // fig4 and fig6 outputs, so each point is simulated once per run. A
    // projection whose figure is not in the run simulates the source
    // points it reads (and writes no artifact for them): table4 fig4's 15
    // first-fit points, diag all 12 fig6 cells (kept for table3), table3
    // alone fig6's 3 buddy cells.
    experiment("table4", &mut |p| {
        let out = match &fig4_out {
            Some((f, m, h)) => {
                let (t, m, h) = table4::from_fig4(f, m, h);
                (t, Vec::new(), m, h)
            }
            None => table4::run_profiled(&ctx),
        };
        publish(&opts, p, "table4", out);
    });
    let mut fig6_out = None;
    experiment("fig6", &mut |p| {
        let out = publish(&opts, p, "fig6", fig6::run_profiled(&ctx));
        println!("{}", out.0.chart());
        fig6_out = Some(out);
    });
    experiment("diag", &mut |p| {
        let mut timings = Vec::new();
        let (f, m, h) = &*fig6_out.get_or_insert_with(|| {
            let (f, t, m, h) = fig6::run_cells(&ctx, None);
            timings = t;
            (f, m, h)
        });
        let (d, m, h) = diag::from_fig6(f, m, h);
        publish(&opts, p, "diag", (d, timings, m, h));
    });
    experiment("table3", &mut |p| {
        let out = match &fig6_out {
            Some((f, m, h)) => table3::from_fig6(&ctx, f, m, h),
            None => table3::run_profiled(&ctx),
        };
        publish(&opts, p, "table3", out);
    });
    experiment("users_1e6", &mut |p| {
        let out = users_scale::run_profiled(&ctx, opts.users_full, users_ladder.as_deref());
        publish(&opts, p, "users_1e6", out);
    });
    // The seven ablations share one profile entry.
    experiment("ablations", &mut |p| {
        publish(&opts, p, "ablation_raid", ablations::run_raid_profiled(&ctx));
        publish(&opts, p, "ablation_stripe", ablations::run_stripe_unit_profiled(&ctx));
        publish(&opts, p, "ablation_file_mix", ablations::run_file_mix_profiled(&ctx));
        publish(&opts, p, "ablation_realloc", ablations::run_reallocation_profiled(&ctx));
        publish(&opts, p, "ablation_ffs", ablations::run_ffs_comparison_profiled(&ctx));
        publish(&opts, p, "ablation_degraded_raid", ablations::run_degraded_raid_profiled(&ctx));
        let out = ablations::run_disk_generations_profiled(&ctx);
        publish(&opts, p, "ablation_disk_generations", out);
    });

    if opts.explain {
        // Ground the phase tables above: on an idle single Wren IV, the
        // measured per-phase averages must match the Table 1 analytics.
        println!("{}", cross_check_table(&wren_iv_cross_check(20_000, ctx.seed)));
    }

    println!("{}", profile_table(&profiles, jobs));
    let profile = RunProfile {
        jobs,
        total_wall_s: t_start.elapsed().as_secs_f64(),
        metrics_overhead_pct: measure_metrics_overhead_pct(),
        experiments: profiles,
    };
    write_json(opts.json_dir.as_deref(), "profile", &profile);
}

#[cfg(test)]
mod tests {
    use super::{EXPERIMENTS, USAGE};
    use readopt_core::ExperimentContext;
    use std::collections::BTreeSet;

    /// Every `--flag` token in `text`.
    fn flags(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect()
    }

    #[test]
    fn usage_text_and_module_doc_list_the_same_options() {
        let doc: String = include_str!("repro.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        let synopsis: String = USAGE.lines().take_while(|l| !l.is_empty()).collect();
        assert!(
            doc.contains(USAGE.lines().next().expect("usage has a first line").trim()),
            "the module doc opens with the same synopsis"
        );
        assert_eq!(flags(&doc), flags(USAGE));
        assert_eq!(flags(&synopsis), flags(USAGE), "every option is in the synopsis");
        // The EXPERIMENT list names exactly the experiments parse_args accepts.
        let listed: BTreeSet<&str> = USAGE
            .lines()
            .skip_while(|l| !l.starts_with("EXPERIMENT:"))
            .take(2)
            .flat_map(|l| l.trim_start_matches("EXPERIMENT:").split(" (").next())
            .flat_map(str::split_whitespace)
            .collect();
        assert_eq!(listed, EXPERIMENTS.into_iter().collect());
    }

    /// Both texts state the `--scale` range the geometry sets.
    #[test]
    fn usage_text_states_the_scale_range() {
        let range = format!("1 to {}", readopt_disk::DiskGeometry::wren_iv_max_scale());
        assert!(USAGE.contains(&format!("by N, {range} (")), "USAGE states {range}");
        assert!(include_str!("repro.rs").contains(&format!("capacity by N, {range}\n")));
    }

    /// Both texts state the default `--intervals` cap of each scale: `main`
    /// runs `ExperimentContext::full()` at `--scale 1` and `fast(N)` at any
    /// other N, so `--scale` also sets the cap.
    #[test]
    fn usage_text_states_the_interval_cap_of_each_scale() {
        let full = ExperimentContext::full().max_intervals;
        let fast = ExperimentContext::fast(2).max_intervals;
        let stated = format!("(default {full} at --scale 1, {fast} at any other scale");
        assert!(USAGE.contains(&stated), "USAGE states {stated:?}");
        let mut doc = include_str!("repro.rs").lines().filter(|l| l.starts_with("//!"));
        assert!(doc.any(|l| l.contains(&stated)), "the module doc states {stated:?}");
    }
}
