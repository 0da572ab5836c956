//! Correctness: the harness's outputs against the program's.
//!
//! Three checks, all untimed:
//!
//! 1. Every measured point's digest must equal the digest of the same
//!    point as the experiment code (`figN::run_profiled`, or the
//!    `users_1e6` ladder) computes it for the same seed in this process.
//! 2. For seed 1991 and the held-out seed, those digests must also equal
//!    the ones recorded in `reference.txt`, so a change that moves the
//!    simulated outputs fails even if harness and experiment code move together.
//! 3. The `repro --json` sidecar bytes (result, `.metrics`, `.hist`) that
//!    the experiment code's output serializes to must equal the ones the harness's
//!    own last sweep serializes to.

use crate::points::{self, PointOut, Res, Workload, MANY_USERS};
use crate::stats::fnv1a;
use readopt_core::fig1::Fig1;
use readopt_core::fig2::Fig2;
use readopt_core::fig4::Fig4;
use readopt_core::fig5::Fig5;
use readopt_core::fig6::Fig6;
use readopt_core::metrics::{ExperimentHist, ExperimentMetrics, PointHist, PointMetrics};
use readopt_core::table4::{Table4, Table4Row};
use readopt_core::{fig1, fig2, fig4, fig5, fig6, table4, users_scale, ExperimentContext};
use serde::Serialize;
use std::time::Instant;

/// Seed `repro` uses by default.
pub const DEFAULT_SEED: u64 = 1991;

/// The seed kept out of tuning; its digests are recorded too.
pub const HELD_OUT_SEED: u64 = 20_260_716;

/// Recorded digests: `workload seed label digest` per line.
const REFERENCE: &str = include_str!("../reference.txt");

/// The experiment code's outputs for one workload and seed.
pub struct ProgramRun {
    /// `(label, digest)` per point, in point order.
    pub digests: Vec<(String, u64)>,
    /// `(artifact name, pretty JSON)` per sidecar `repro --json` writes.
    pub sidecars: Vec<(String, String)>,
    /// Host seconds spent pretty-serializing the sidecars.
    pub sidecar_s: f64,
}

fn pretty<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("sidecars serialize")
}

/// Collects one experiment's sidecars and per-point digests.
fn collect<T: Serialize>(
    run: &mut ProgramRun,
    name: &str,
    result: &impl Serialize,
    results: &[T],
    metrics: &ExperimentMetrics,
    hists: &ExperimentHist,
) {
    for ((r, m), h) in results.iter().zip(&metrics.points).zip(&hists.points) {
        let bytes = serde_json::to_string(&(r, m, h)).expect("point outputs serialize");
        run.digests.push((m.label.clone(), fnv1a(bytes.as_bytes())));
    }
    let t = Instant::now();
    let jsons = [pretty(result), pretty(metrics), pretty(hists)];
    run.sidecar_s += t.elapsed().as_secs_f64();
    for (suffix, json) in ["", ".metrics", ".hist"].into_iter().zip(jsons) {
        run.sidecars.push((format!("{name}{suffix}"), json));
    }
}

/// Runs the workload through its experiment code on `ctx` (use every
/// core: this run is untimed).
pub fn program_run(workload: Workload, ctx: &ExperimentContext) -> ProgramRun {
    let mut run = ProgramRun {
        digests: Vec::new(),
        sidecars: Vec::new(),
        sidecar_s: 0.0,
    };
    match workload {
        Workload::AllocSweep => {
            let (r, _, m, h) = fig1::run_profiled(ctx);
            collect(&mut run, "fig1", &r, &r.points, &m, &h);
            let (r, _, m, h) = fig4::run_profiled(ctx);
            collect(&mut run, "fig4", &r, &r.points, &m, &h);
            let (r, _, m, h) = table4::run_profiled(ctx);
            let values: Vec<f64> = r
                .rows
                .iter()
                .flat_map(|row| [row.sc, row.tp, row.ts])
                .collect();
            collect(&mut run, "table4", &r, &values, &m, &h);
        }
        Workload::PerfSweep => {
            let (r, _, m, h) = fig2::run_profiled(ctx);
            collect(&mut run, "fig2", &r, &r.points, &m, &h);
            let (r, _, m, h) = fig5::run_profiled(ctx);
            collect(&mut run, "fig5", &r, &r.points, &m, &h);
            let (r, _, m, h) = fig6::run_profiled(ctx);
            collect(&mut run, "fig6", &r, &r.cells, &m, &h);
        }
        Workload::ManyUsers => {
            let (rungs, _, hists) = users_scale::run_ladder(ctx, &[MANY_USERS]);
            for (rung, hist) in rungs.iter().zip(&hists) {
                let bytes =
                    points::users_check_bytes(rung.application_pct, rung.events, &hist.tests[0]);
                run.digests.push((
                    format!("users_1e6/u{}/heap", rung.users),
                    fnv1a(bytes.as_bytes()),
                ));
            }
            let t = Instant::now();
            let json = pretty(&ExperimentHist::new("users_1e6", hists));
            run.sidecar_s += t.elapsed().as_secs_f64();
            run.sidecars.push(("users_1e6.hist".to_string(), json));
        }
    }
    run
}

/// The sidecars the harness's own outputs serialize to, in
/// [`program_run`]'s order.
pub fn harness_sidecars(specs: &[points::PointSpec], outs: &[PointOut]) -> Vec<(String, String)> {
    let mut sidecars = Vec::new();
    let mut i = 0;
    while i < specs.len() {
        let exp = specs[i].exp;
        let n = specs[i..].iter().take_while(|s| s.exp == exp).count();
        let (specs_e, outs_e) = (&specs[i..i + n], &outs[i..i + n]);
        i += n;
        let metrics = ExperimentMetrics::new(
            exp,
            specs_e
                .iter()
                .zip(outs_e)
                .map(|(s, o)| PointMetrics::new(s.label.clone(), o.tests.clone()))
                .collect(),
        );
        let hists = ExperimentHist::new(
            exp,
            specs_e
                .iter()
                .zip(outs_e)
                .map(|(s, o)| PointHist::new(s.label.clone(), o.hists.clone()))
                .collect(),
        );
        macro_rules! typed {
            ($variant:ident) => {
                outs_e
                    .iter()
                    .map(|o| match &o.res {
                        Res::$variant(r) => r.clone(),
                        other => unreachable!("{exp} point holds {other:?}"),
                    })
                    .collect()
            };
        }
        let result = match exp {
            "fig1" => pretty(&Fig1 {
                points: typed!(Fig1),
            }),
            "fig2" => pretty(&Fig2 {
                points: typed!(Fig2),
            }),
            "fig4" => pretty(&Fig4 {
                points: typed!(Fig4),
            }),
            "fig5" => pretty(&Fig5 {
                points: typed!(Fig5),
            }),
            "fig6" => pretty(&Fig6 {
                cells: typed!(Fig6),
            }),
            "table4" => {
                let values: Vec<f64> = typed!(Table4);
                let rows = (1..=5usize)
                    .zip(values.chunks_exact(3))
                    .map(|(n_ranges, v)| Table4Row {
                        n_ranges,
                        sc: v[0],
                        tp: v[1],
                        ts: v[2],
                    })
                    .collect();
                pretty(&Table4 { rows })
            }
            "users_1e6" => {
                let label = format!("users_1e6/u{MANY_USERS}");
                let hist = ExperimentHist::new(
                    "users_1e6",
                    vec![PointHist::new(label, outs_e[0].hists.clone())],
                );
                sidecars.push(("users_1e6.hist".to_string(), pretty(&hist)));
                continue;
            }
            other => unreachable!("no sidecars for experiment {other}"),
        };
        sidecars.push((exp.to_string(), result));
        sidecars.push((format!("{exp}.metrics"), pretty(&metrics)));
        sidecars.push((format!("{exp}.hist"), pretty(&hists)));
    }
    sidecars
}

/// Recorded `(label, digest)` pairs for `workload` at `seed`, if any.
pub fn reference(workload: Workload, seed: u64) -> Option<Vec<(String, u64)>> {
    let entries: Vec<(String, u64)> = REFERENCE
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, label, digest) = (f.next()?, f.next()?, f.next()?, f.next()?);
            if w != workload.name() || s.parse::<u64>().ok()? != seed {
                return None;
            }
            Some((label.to_string(), u64::from_str_radix(digest, 16).ok()?))
        })
        .collect();
    (!entries.is_empty()).then_some(entries)
}

/// Writes the reference file for every workload at both recorded seeds.
pub fn record_reference(path: &str, jobs: usize) -> std::io::Result<()> {
    let mut text = String::new();
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let run = program_run(workload, &workload.context(seed).with_jobs(jobs));
            for (label, digest) in run.digests {
                text.push_str(&format!(
                    "{} {seed} {label} {digest:016x}\n",
                    workload.name()
                ));
            }
            eprintln!("recorded {} at seed {seed}", workload.name());
        }
    }
    std::fs::write(path, text)
}

/// The outcome of checking one run.
pub struct Verdict {
    /// Points measured (every point of every sweep).
    pub attempted: u64,
    /// Measured points whose digest differs from the experiment code's or the
    /// recorded reference.
    pub failed: u64,
    /// Whole-run problems (sidecar bytes, reference drift, disk requests
    /// in an allocation sweep, …).
    pub problems: Vec<String>,
    /// The experiment run the points were checked against.
    pub program: ProgramRun,
}

impl Verdict {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// Checks every point of `sweeps` (see the module docs).
pub fn verify(
    workload: Workload,
    ctx: &ExperimentContext,
    specs: &[points::PointSpec],
    sweeps: &[points::Sweep],
) -> Verdict {
    let program = program_run(
        workload,
        &ctx.with_jobs(readopt_core::runner::default_jobs()),
    );
    let mut problems = Vec::new();
    let labels_match = program.digests.len() == specs.len()
        && program
            .digests
            .iter()
            .zip(specs)
            .all(|((label, _), s)| *label == s.label);
    if !labels_match {
        problems.push(format!(
            "experiment code enumerates {} points, harness {}",
            program.digests.len(),
            specs.len()
        ));
    }
    let recorded = reference(workload, ctx.seed);
    if let Some(r) = &recorded {
        let drift = r
            .iter()
            .zip(&program.digests)
            .filter(|(a, b)| a != b)
            .count();
        if drift > 0 || r.len() != program.digests.len() {
            problems.push(format!(
                "{drift} experiment outputs differ from reference.txt at seed {}",
                ctx.seed
            ));
        }
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    for sweep in sweeps {
        for (i, (s, out)) in specs.iter().zip(&sweep.outs).enumerate() {
            attempted += 1;
            let digest = fnv1a(out.check_bytes(&s.label).as_bytes());
            let program_ok = program.digests.get(i).is_some_and(|(_, d)| *d == digest);
            let reference_ok = recorded
                .as_ref()
                .is_none_or(|r| r.get(i).is_some_and(|(_, d)| *d == digest));
            failed += u64::from(!(program_ok && reference_ok));
        }
    }
    if let Some(last) = sweeps.last() {
        let ours = harness_sidecars(specs, &last.outs);
        for ((name, mine), (_, theirs)) in ours.iter().zip(&program.sidecars) {
            if mine != theirs {
                problems.push(format!(
                    "{name}.json sidecar bytes differ from the experiment code's"
                ));
            }
        }
        if ours.len() != program.sidecars.len() {
            problems.push("harness and experiment code write different sidecar sets".into());
        }
    }
    if workload == Workload::AllocSweep {
        let requests: u64 = sweeps
            .iter()
            .flat_map(|s| &s.outs)
            .flat_map(|o| &o.tests)
            .map(|t| t.storage.combined.requests)
            .sum();
        if requests != 0 {
            problems.push(format!(
                "allocation tests issued {requests} disk requests (expected 0)"
            ));
        }
    }
    Verdict {
        attempted,
        failed,
        problems,
        program,
    }
}
