//! `repro` — regenerates every table and figure of Seltzer & Stonebraker's
//! "Read Optimized File System Designs: A Performance Evaluation".
//!
//! ```text
//! usage: repro [EXPERIMENT ...] [--scale N] [--seed S] [--intervals K]
//!              [--jobs J] [--users-full] [--store FILE] [--json DIR]
//!              [--explain]
//!        repro export --store FILE --json DIR
//!
//! EXPERIMENT: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 table4 fig6 ablations diag
//!             users_1e6 all (default: all; any other name is a usage error)
//! --scale N:     divide the paper's 2.8 GB array capacity by N (at least 1;
//!                default 1, i.e. full paper scale)
//! --seed S:      base RNG seed (default 1991)
//! --intervals K: cap on measured 10 s intervals per performance test (at
//!                least the stabilization window; fewer is a usage error)
//! --jobs J:      worker threads for the sweep-point runner (default: the
//!                machine's available parallelism; results are bit-identical
//!                at any J)
//! --users-full:  run the users_1e6 experiment on its full ladder (up to a
//!                million users) instead of the CI smoke rungs
//! --store FILE:  also mirror every sweep point and JSON artifact into the
//!                CRC-framed binary results store FILE; rerunning with the
//!                same FILE resumes a killed run
//! --json DIR:    also write each result as DIR/<experiment>.json plus its
//!                observability sidecars DIR/<experiment>.metrics.json and
//!                DIR/<experiment>.hist.json (per-point latency percentiles),
//!                and the timing profile as DIR/profile.json
//! --explain:     print each experiment's per-phase disk-time breakdown
//!                (seek / rotation / transfer / queue wait per sweep point)
//!                and the Wren IV analytic cross-check against Table 1
//! export:        regenerate the JSON artifacts of a finished store into
//!                DIR, byte for byte (no simulation runs)
//! ```

use readopt_alloc::PolicyConfig;
use readopt_core::metrics::{cross_check_table, wren_iv_cross_check, ExperimentHist};
use readopt_core::report::TextTable;
use readopt_core::runner::{self, JobTiming};
use readopt_core::{
    ablations, diag, fig1, fig2, fig3, fig4, fig5, fig6, storex, table1, table2, table3, table4,
    users_scale, ExperimentContext, ExperimentMetrics,
};
use readopt_workloads::WorkloadKind;
use serde::Serialize;
use std::io::Write;
use std::time::Instant;

/// Printed for `--help` and after every usage error: the synopsis of the
/// module documentation above (a unit test keeps the two in step).
const USAGE: &str = "\
usage: repro [EXPERIMENT ...] [--scale N] [--seed S] [--intervals K]
             [--jobs J] [--users-full] [--store FILE] [--json DIR]
             [--explain]
       repro export --store FILE --json DIR

EXPERIMENT: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 table4 fig6 ablations diag
            users_1e6 all (default: all; any other name is a usage error)
export:     regenerate the JSON artifacts of a finished store (no simulation runs)";

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
    store: Option<String>,
    export: bool,
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
        store: None,
        export: false,
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
            "--store" => {
                opts.store = Some(args.next().ok_or("--store needs a file path")?);
            }
            "export" => {
                opts.export = true;
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

fn write_json<T: Serialize>(dir: &Option<String>, name: &str, value: &T) {
    if dir.is_none() && !storex::active() {
        return;
    }
    // A resumed store's recorded artifact wins over re-serializing: the
    // wall-clock-carrying artifacts (profile, the scaling studies) could
    // not reproduce their recorded bytes, and the sidecar on disk must
    // stay byte-identical to what `repro export` regenerates.
    let json = match storex::lookup_artifact(name) {
        Some(stored) => stored,
        None => {
            let fresh = serde_json::to_string_pretty(value).expect("serialize result");
            storex::record_artifact(name, &fresh).unwrap_or_else(|e| {
                eprintln!("error: results store: {e}");
                std::process::exit(2);
            });
            fresh
        }
    };
    let Some(dir) = dir else { return };
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/{name}.json");
    std::fs::write(&path, json).expect("write json");
    eprintln!("  wrote {path}");
}

/// The canonical run-configuration fingerprint stored as the `.rrs` meta
/// record. The results-invariant knob (`jobs`) is normalized out — the
/// whole point of the store is that a sweep killed under `--jobs 8` can
/// resume under `--jobs 1` and still produce the same bytes — while
/// everything results-affecting (array scale, seed, intervals, latency
/// cap, the users ladder) stays in and is enforced on resume.
fn store_meta_json(ctx: &ExperimentContext, opts: &Options) -> String {
    #[derive(Serialize)]
    struct StoreMeta {
        context: ExperimentContext,
        users_full: bool,
        users_ladder: String,
    }
    let mut c = *ctx;
    c.jobs = 1;
    let meta = StoreMeta {
        context: c,
        users_full: opts.users_full,
        users_ladder: std::env::var(users_scale::LADDER_ENV).unwrap_or_default(),
    };
    serde_json::to_string(&meta).expect("serialize store meta")
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
    // The users_1e6 ladder's environment settings: a malformed value is
    // rejected here, before anything runs, instead of falling back to a
    // default.
    if let Err(e) = users_scale::LadderEnv::from_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    if opts.export {
        let (Some(store), Some(dir)) = (&opts.store, &opts.json_dir) else {
            eprintln!("error: repro export needs both --store FILE and --json DIR");
            std::process::exit(2);
        };
        match storex::export(std::path::Path::new(store), std::path::Path::new(dir)) {
            Ok(names) => {
                for name in &names {
                    eprintln!("  wrote {dir}/{name}.json");
                }
                println!("exported {} artifacts from {store} to {dir}", names.len());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

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

    if let Some(store) = &opts.store {
        match storex::open(std::path::Path::new(store), &store_meta_json(&ctx, &opts)) {
            Ok(0) => eprintln!("  [store] writing {store}"),
            Ok(n) => eprintln!("  [store] resumed {store} with {n} recovered point records"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    println!(
        "readopt repro — array: {} disks, {:.2} GB usable (scale 1/{}), seed {}, {} jobs\n",
        ctx.array.ndisks,
        ctx.array.capacity_bytes() as f64 / 1e9,
        opts.scale,
        ctx.seed,
        jobs,
    );

    let run_all = opts.experiments.iter().any(|e| e == "all");
    let wants = |name: &str| run_all || opts.experiments.iter().any(|e| e == name);
    let t_start = Instant::now();
    let mut profiles: Vec<ExperimentProfile> = Vec::new();

    // Each arm runs one experiment's profiled driver, prints its table (and
    // chart where the figure has one), records the timing profile, and
    // writes the JSON artifact plus its metrics and histogram sidecars.
    macro_rules! experiment {
        ($name:literal, $body:expr) => {
            experiment!($name, $body, |_result| {});
        };
        ($name:literal, $body:expr, $chart:expr) => {
            if wants($name) {
                let t0 = Instant::now();
                let (result, timings, metrics, hists) = $body;
                println!("{result}");
                #[allow(clippy::redundant_closure_call)]
                ($chart)(&result);
                if opts.explain && !metrics.points.is_empty() {
                    println!("{}", metrics.phase_table());
                }
                println!("  [{} finished in {:.1}s]\n", $name, t0.elapsed().as_secs_f64());
                write_json(&opts.json_dir, $name, &result);
                if !metrics.points.is_empty() {
                    write_json(&opts.json_dir, concat!($name, ".metrics"), &metrics);
                }
                if !hists.points.is_empty() {
                    write_json(&opts.json_dir, concat!($name, ".hist"), &hists);
                }
                profiles.push(ExperimentProfile {
                    experiment: $name.to_string(),
                    wall_s: t0.elapsed().as_secs_f64(),
                    dropped_latency_samples: hists.dropped_samples(),
                    points: timings,
                });
                let _ = std::io::stdout().flush();
            }
        };
    }

    // table1/table2 are parameter dumps with no sweep to fan out; they run
    // inline and appear in the profile with no per-point breakdown and
    // empty metrics/histogram sidecars (nothing to decompose). fig3
    // derives from other sweeps' simulations and keeps no latency
    // reservoir of its own.
    experiment!(
        "table1",
        (
            table1::run(&ctx),
            Vec::new(),
            ExperimentMetrics::empty("table1"),
            ExperimentHist::empty("table1")
        )
    );
    experiment!(
        "table2",
        (
            table2::run(&ctx),
            Vec::new(),
            ExperimentMetrics::empty("table2"),
            ExperimentHist::empty("table2")
        )
    );
    experiment!("diag", diag::run_profiled(&ctx));
    experiment!("table3", table3::run_profiled(&ctx));
    experiment!("fig1", fig1::run_profiled(&ctx), |r: &fig1::Fig1| println!("{}", r.chart()));
    experiment!("fig2", fig2::run_profiled(&ctx), |r: &fig2::Fig2| println!("{}", r.chart()));
    experiment!("fig3", {
        let (r, t, m) = fig3::run_profiled(ctx.jobs);
        (r, t, m, ExperimentHist::empty("fig3"))
    });
    experiment!("fig4", fig4::run_profiled(&ctx), |r: &fig4::Fig4| println!("{}", r.chart()));
    experiment!("fig5", fig5::run_profiled(&ctx), |r: &fig5::Fig5| println!("{}", r.chart()));
    experiment!("table4", table4::run_profiled(&ctx));
    experiment!("fig6", fig6::run_profiled(&ctx), |r: &fig6::Fig6| println!("{}", r.chart()));
    experiment!("users_1e6", users_scale::run_profiled(&ctx, opts.users_full));
    if wants("ablations") {
        let t0 = Instant::now();
        let mut timings = Vec::new();
        // Summed from the real per-ablation histogram sidecars — this used
        // to be hardcoded to 0 because the ablation drivers returned no
        // histograms, silently reporting overflowed reservoirs as exact.
        let mut dropped: u64 = 0;
        macro_rules! ablation {
            ($json_name:literal, $body:expr) => {{
                let (result, t, metrics, hists) = $body;
                println!("{result}");
                if opts.explain && !metrics.points.is_empty() {
                    println!("{}", metrics.phase_table());
                }
                write_json(&opts.json_dir, $json_name, &result);
                write_json(&opts.json_dir, concat!($json_name, ".metrics"), &metrics);
                if !hists.points.is_empty() {
                    write_json(&opts.json_dir, concat!($json_name, ".hist"), &hists);
                }
                dropped += hists.dropped_samples();
                timings.extend(t);
            }};
        }
        ablation!("ablation_raid", ablations::run_raid_profiled(&ctx));
        ablation!("ablation_stripe", ablations::run_stripe_unit_profiled(&ctx));
        ablation!("ablation_file_mix", ablations::run_file_mix_profiled(&ctx));
        ablation!("ablation_realloc", ablations::run_reallocation_profiled(&ctx));
        ablation!("ablation_ffs", ablations::run_ffs_comparison_profiled(&ctx));
        ablation!("ablation_degraded_raid", ablations::run_degraded_raid_profiled(&ctx));
        ablation!("ablation_disk_generations", ablations::run_disk_generations_profiled(&ctx));
        println!("  [ablations finished in {:.1}s]\n", t0.elapsed().as_secs_f64());
        profiles.push(ExperimentProfile {
            experiment: "ablations".to_string(),
            wall_s: t0.elapsed().as_secs_f64(),
            dropped_latency_samples: dropped,
            points: timings,
        });
        let _ = std::io::stdout().flush();
    }

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
    write_json(&opts.json_dir, "profile", &profile);

    match storex::finish() {
        Ok(true) => {
            if let Some(store) = &opts.store {
                eprintln!("  [store] sealed {store}");
            }
        }
        Ok(false) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{EXPERIMENTS, USAGE};
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
        assert!(doc.contains("repro export --store FILE --json DIR"));
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
}
