//! `users_1e6` scaling family: one small-file point, repeated at
//! exponentially increasing user counts.
//!
//! The workload ([`FileTypeConfig::many_users`]) holds ~`users` events
//! pending and pops ~2×`users` of them per run, so the rungs sweep the
//! regime where the event heap's `O(log n)` per-pop cost grows with the
//! pending count. Each rung runs once and records its wall clock.
//!
//! CI runs the smoke ladder (≤ 16 k users); the full ladder tops out at a
//! million users behind `repro --users-full`. Points run sequentially
//! (never fanned across the runner's job pool) so the timings measure the
//! engine, not scheduler contention.

use crate::context::ExperimentContext;
use crate::metrics::{ExperimentHist, ExperimentMetrics, PointHist};
use crate::report::TextTable;
use crate::runner::{self, Job, JobTiming};
use readopt_alloc::{ExtentConfig, FitStrategy, PolicyConfig};
use readopt_disk::SimDuration;
use readopt_sim::{CheckpointSpec, FileTypeConfig, PerfReport, SimConfig, Simulation, TestHist};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;

/// The user counts CI visits (in order, ascending).
pub const SMOKE_LADDER: [u32; 3] = [1_000, 4_000, 16_000];

/// The full ladder (`repro --users-full`): adds the rungs where queue cost
/// dominates, topping out at the family's namesake million users.
pub const FULL_LADDER: [u32; 5] = [1_000, 4_000, 16_000, 100_000, 1_000_000];

/// Environment override for the ladder: comma-separated user counts
/// (e.g. `REPRO_USERS_LADDER=64,256`). Results-affecting, so it is part
/// of the store's meta fingerprint. Used by the kill/resume tests to run
/// the full checkpoint machinery on a rung that takes milliseconds.
pub const LADDER_ENV: &str = "REPRO_USERS_LADDER";

/// Directory for mid-rung engine checkpoints. When set, each rung's
/// application test runs checkpointed: a serde snapshot of the full
/// engine state lands in `$REPRO_CKPT_DIR/users_<users>.ckpt` every
/// [`CKPT_EVERY_ENV`] steps, a killed run resumes from it bit-identically,
/// and the file is removed when the rung completes.
pub const CKPT_DIR_ENV: &str = "REPRO_CKPT_DIR";

/// Steps between checkpoint snapshots (default 5000; 0 writes none).
pub const CKPT_EVERY_ENV: &str = "REPRO_CKPT_EVERY";

/// Fault injection for the kill/resume tests: exit with
/// [`readopt_sim::CHECKPOINT_KILL_EXIT`] after the N-th snapshot write
/// (N ≥ 1). Unset it on the resuming run, or the resume kills itself
/// again.
pub const CKPT_KILL_ENV: &str = "REPRO_CKPT_KILL";

/// The ladder's `REPRO_*` environment settings, parsed. A set variable
/// whose value does not parse is an error naming it, never a silent
/// default: `repro` checks them at start-up and exits 2, and the ladder
/// parses them the same way.
#[derive(Debug)]
pub struct LadderEnv {
    /// [`LADDER_ENV`]: the rungs to run instead of the built-in ladder.
    pub ladder: Option<Vec<u32>>,
    /// [`CKPT_DIR_ENV`]: where rung checkpoints go (unset: none).
    pub ckpt_dir: Option<PathBuf>,
    /// [`CKPT_EVERY_ENV`]: steps between checkpoint writes.
    pub ckpt_every: u64,
    /// [`CKPT_KILL_ENV`]: exit after this many checkpoint writes.
    pub ckpt_kill: Option<u64>,
}

impl LadderEnv {
    /// Reads and checks every variable.
    pub fn from_env() -> Result<Self, String> {
        Ok(LadderEnv {
            ladder: env_parsed(LADDER_ENV, parse_ladder)?,
            ckpt_dir: env_parsed(CKPT_DIR_ENV, parse_dir)?,
            ckpt_every: env_parsed(CKPT_EVERY_ENV, |raw| parse_count(CKPT_EVERY_ENV, raw, 0))?
                .unwrap_or(5_000),
            ckpt_kill: env_parsed(CKPT_KILL_ENV, |raw| parse_count(CKPT_KILL_ENV, raw, 1))?,
        })
    }
}

/// `name`'s value through `parse`; `None` when unset.
fn env_parsed<T>(
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(raw) => parse(&raw).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{name} is not valid UTF-8")),
    }
}

/// A comma-separated list of user counts, each at least 1.
fn parse_ladder(raw: &str) -> Result<Vec<u32>, String> {
    raw.split(',')
        .map(|rung| match rung.trim().parse::<u32>() {
            Ok(users) if users > 0 => Ok(users),
            _ => Err(format!(
                "{LADDER_ENV}={raw:?}: rung {rung:?} is not a user count of at least 1"
            )),
        })
        .collect()
}

fn parse_dir(raw: &str) -> Result<PathBuf, String> {
    if raw.is_empty() {
        return Err(format!("{CKPT_DIR_ENV} is set but empty"));
    }
    Ok(PathBuf::from(raw))
}

fn parse_count(name: &str, raw: &str, min: u64) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("{name}={raw:?}: expected a whole number of at least {min}")),
    }
}

/// One rung's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsersScalePoint {
    /// User count (= pending-event count) of this rung.
    pub users: u32,
    /// Events popped during the measured application test.
    pub events: u64,
    /// Wall-clock of the rung's run, seconds (0 for a rung recovered from
    /// the results store).
    pub wall_s: f64,
    /// Application throughput, % of max.
    pub application_pct: f64,
}

/// The full scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsersScale {
    /// Whether the full (million-user) ladder ran, or just the smoke rungs.
    pub full_ladder: bool,
    /// One entry per rung, ascending user count.
    pub points: Vec<UsersScalePoint>,
}

/// Builds one rung's configuration. Everything except `users` is pinned
/// so the rungs — and consecutive snapshots of the same rung — are
/// comparable.
fn point_config(ctx: &ExperimentContext, users: u32) -> SimConfig {
    let policy = PolicyConfig::Extent(ExtentConfig {
        // Small extents matched to the 64 KB files: allocation stays cheap
        // and successful, keeping the event queue the measured structure.
        range_means_bytes: vec![8 * 1024, 64 * 1024],
        fit: FitStrategy::FirstFit,
        sigma_frac: 0.1,
    });
    let mut cfg = SimConfig::new(ctx.array, policy, vec![FileTypeConfig::many_users(users)]);
    // One-second intervals over a short window: with a 3 s think time the
    // six measured seconds pop ~2×`users` events, which is enough signal
    // without making the million-user rung take minutes.
    cfg.interval = SimDuration::from_secs(1.0);
    cfg.max_intervals = 6;
    cfg
}

/// Runs one rung: application test only (the sequential test exercises
/// the disk model, not the queue). Returns the report, the events popped
/// and the latency histogram.
///
/// With a [`CheckpointSpec`], the application test runs checkpointed:
/// identical results (the snapshot writes are pure), but a killed run
/// resumes mid-test from the last snapshot instead of starting over —
/// the property that makes a preempted million-user rung cheap to retry.
fn run_point(cfg: SimConfig, seed: u64, ckpt: Option<&CheckpointSpec>) -> (PerfReport, u64, TestHist) {
    let mut sim = Simulation::new(&cfg, seed.wrapping_add(1));
    sim.reset_counters();
    sim.storage_reset_for_probe();
    let report = match ckpt {
        Some(spec) => sim
            .run_application_test_checkpointed(spec)
            .unwrap_or_else(|e| panic!("checkpointed rung {}: {e}", spec.path.display())),
        None => sim.run_application_test(),
    };
    let events = sim.engine_counters().events;
    let hist = sim.latency_hist("application");
    (report, events, hist)
}

/// Runs the sweep on the smoke or full ladder.
pub fn run(ctx: &ExperimentContext, full: bool) -> UsersScale {
    run_profiled(ctx, full).0
}

/// As [`run`], also returning per-rung wall-clock timings, an (empty)
/// metrics sidecar and one latency histogram per rung.
pub fn run_profiled(
    ctx: &ExperimentContext,
    full: bool,
) -> (UsersScale, Vec<JobTiming>, ExperimentMetrics, ExperimentHist) {
    let env = LadderEnv::from_env().unwrap_or_else(|e| panic!("{e}"));
    let ladder: &[u32] = match &env.ladder {
        Some(l) => l,
        None if full => &FULL_LADDER,
        None => &SMOKE_LADDER,
    };
    let (points, timings, hists) = run_ladder(ctx, ladder);
    let result = UsersScale { full_ladder: full, points };
    (
        result,
        timings,
        ExperimentMetrics::empty("users_1e6"),
        ExperimentHist::new("users_1e6", hists),
    )
}

/// Runs an explicit ladder (tests use a tiny one), one run per rung.
///
/// When the global results store is open, every completed rung appends a
/// `users_1e6` point record, indexed by the rung's position, holding only
/// the deterministic outcome triple (report, event count, latency
/// histogram) — never wall-clock — and a rung already recorded (a
/// resumed run) is deserialized from the store instead of re-simulated.
/// Combined with [`CKPT_DIR_ENV`] engine checkpoints this makes a killed
/// ladder resumable at two granularities: completed rungs skip entirely,
/// the interrupted rung restarts mid-test.
pub fn run_ladder(
    ctx: &ExperimentContext,
    ladder: &[u32],
) -> (Vec<UsersScalePoint>, Vec<JobTiming>, Vec<PointHist>) {
    let env = LadderEnv::from_env().unwrap_or_else(|e| panic!("{e}"));
    let mut points: Vec<UsersScalePoint> = Vec::new();
    let mut timings: Vec<JobTiming> = Vec::new();
    let mut hists: Vec<PointHist> = Vec::new();
    for (rung, &users) in ladder.iter().enumerate() {
        let label = format!("users_1e6/u{users}");
        let record_index = rung as u64;
        let (outcome, timing) = match crate::storex::lookup("users_1e6", record_index) {
            Some(stored) => {
                // Completed before the previous run was killed: trust the
                // stored bytes (they were verified on append) and skip the
                // simulation. The wall column reads 0 — timing is the one
                // thing a resumed run cannot reproduce.
                let outcome: (PerfReport, u64, TestHist) = serde_json::from_str(&stored)
                    .unwrap_or_else(|e| panic!("corrupt store record {label}: {e}"));
                eprintln!("  [store] users_1e6: {label} recovered, skipping the rerun");
                (outcome, JobTiming { label: label.clone(), wall_ms: 0.0 })
            }
            None => {
                let cfg = point_config(ctx, users);
                let seed = ctx.seed;
                let ckpt = env.ckpt_dir.as_ref().map(|dir| CheckpointSpec {
                    path: dir.join(format!("users_{users}.ckpt")),
                    every_steps: env.ckpt_every,
                    kill_after: env.ckpt_kill,
                    config_fingerprint: serde_json::to_string(&cfg)
                        .unwrap_or_else(|e| panic!("serialize rung config: {e}")),
                });
                // One job through the runner (sequentially: one job, one
                // thread) so the wall-clock comes from the same
                // instrumentation as every other experiment's profile.
                let out = runner::run_jobs(
                    1,
                    vec![Job::new(label.clone(), move || run_point(cfg, seed, ckpt.as_ref()))],
                );
                let outcome = out.results.into_iter().next();
                let timing = out.timings.into_iter().next();
                let (Some(outcome), Some(timing)) = (outcome, timing) else {
                    continue;
                };
                if crate::storex::active() {
                    let payload = serde_json::to_string(&outcome)
                        .unwrap_or_else(|e| panic!("serialize rung outcome: {e}"));
                    crate::storex::record("users_1e6", record_index, &payload)
                        .unwrap_or_else(|e| panic!("results store: {e}"));
                }
                (outcome, timing)
            }
        };
        let (report, events, hist) = outcome;
        hists.push(PointHist::new(label, vec![hist]));
        points.push(UsersScalePoint {
            users,
            events,
            wall_s: timing.wall_ms / 1e3,
            application_pct: report.throughput_pct,
        });
        timings.push(timing);
    }
    (points, timings, hists)
}

impl fmt::Display for UsersScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ladder = if self.full_ladder { "full ladder" } else { "smoke ladder" };
        let mut t = TextTable::new(format!("users_1e6 scaling ({ladder})"))
            .headers(["users", "events", "wall", "application"]);
        for p in &self.points {
            t.row([
                p.users.to_string(),
                p.events.to_string(),
                format!("{:.2}s", p.wall_s),
                format!("{:.1}%", p.application_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny ladder end to end: one run, one timing and one histogram
    /// per rung.
    #[test]
    fn tiny_ladder_runs_each_rung_once() {
        let ctx = ExperimentContext::fast(64);
        let (points, timings, hists) = run_ladder(&ctx, &[64, 256]);
        assert_eq!(points.len(), 2);
        assert_eq!(timings.len(), 2, "one timing per rung");
        assert_eq!(hists.len(), 2, "one histogram per rung");
        assert!(hists.iter().all(|h| h.tests.len() == 1));
        assert!(points[0].users == 64 && points[1].users == 256);
        for (p, t) in points.iter().zip(&timings) {
            assert!(p.events > 0, "the measured window popped events");
            assert_eq!(p.wall_s, t.wall_ms / 1e3, "the point's wall is its timing");
        }
        assert!(
            points[1].events > points[0].events,
            "event volume scales with the user count ({} vs {})",
            points[1].events,
            points[0].events,
        );
    }

    #[test]
    fn smoke_result_shape_and_labels() {
        let ctx = ExperimentContext::fast(64);
        let (result, timings, metrics, hists) = run_profiled(&ctx, false);
        assert!(!result.full_ladder);
        assert_eq!(result.points.len(), SMOKE_LADDER.len());
        assert_eq!(timings.len(), SMOKE_LADDER.len(), "one timing per rung");
        assert_eq!(metrics.experiment, "users_1e6");
        assert_eq!(hists.experiment, "users_1e6");
        assert_eq!(hists.points.len(), SMOKE_LADDER.len());
        for (users, (hist, timing)) in SMOKE_LADDER.iter().zip(hists.points.iter().zip(&timings)) {
            assert_eq!(hist.label, format!("users_1e6/u{users}"));
            assert_eq!(timing.label, hist.label);
        }
        let shown = result.to_string();
        assert!(shown.contains("users_1e6 scaling"));
    }
}
