//! `users_1e6` scaling family: one small-file point, repeated at
//! exponentially increasing user counts.
//!
//! The workload ([`FileTypeConfig::many_users`]) holds ~`users` events
//! pending and pops about `users` of them per run: 1.96 / 1.28 / 1.11 /
//! 1.08 / 1.07 events per user from 1 k to 10⁶ users at `--scale 64`, and
//! 1.37 / 1.11 / 1.04 / 1.02 from 1 k to 100 k at full scale. At
//! `--scale 64` the rungs time the engine, whose event queue costs more
//! per event as the pending count grows. The 100 k and 10⁶ rungs are the
//! ones that hold enough events to split that queue into a heap and a
//! suffix (`readopt_sim::EventQueue`; the README's "One event queue" has
//! its measured cost). At full scale the allocator's first-fit scans
//! during the mid-test refills dominate every rung instead: the 100 k
//! rung took 227 s for 102 311 events. Each rung runs once and records
//! its wall clock.
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
use readopt_sim::{FileTypeConfig, PerfReport, SimConfig, Simulation, TestHist};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The user counts CI visits (in order, ascending).
pub const SMOKE_LADDER: [u32; 3] = [1_000, 4_000, 16_000];

/// The full ladder (`repro --users-full`): adds the rungs where queue cost
/// dominates, topping out at the family's namesake million users.
pub const FULL_LADDER: [u32; 5] = [1_000, 4_000, 16_000, 100_000, 1_000_000];

/// Environment override for the ladder: comma-separated user counts
/// (e.g. `REPRO_USERS_LADDER=64,256`), so that one rung can run without
/// the rest of its ladder. Only `repro` reads it, once at start-up, and
/// passes the rungs to [`run_profiled`].
pub const LADDER_ENV: &str = "REPRO_USERS_LADDER";

/// Parses a [`LADDER_ENV`] value: a comma-separated list of user counts,
/// each at least 1. A value that does not parse is an error naming the
/// variable, never a silent default.
pub fn parse_ladder(raw: &str) -> Result<Vec<u32>, String> {
    raw.split(',')
        .map(|rung| match rung.trim().parse::<u32>() {
            Ok(users) if users > 0 => Ok(users),
            _ => Err(format!(
                "{LADDER_ENV}={raw:?}: rung {rung:?} is not a user count of at least 1"
            )),
        })
        .collect()
}

/// One rung's measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsersScalePoint {
    /// User count (= pending-event count) of this rung.
    pub users: u32,
    /// Events popped during the measured application test.
    pub events: u64,
    /// Wall-clock of the rung's run, seconds.
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
        // Small extents matched to the 64 KB files, so allocation always
        // succeeds. It is not cheap at full scale: the refills' first-fit
        // scans outweigh the event queue there.
        range_means_bytes: vec![8 * 1024, 64 * 1024],
        fit: FitStrategy::FirstFit,
        sigma_frac: 0.1,
    });
    let mut cfg = SimConfig::new(ctx.array, policy, vec![FileTypeConfig::many_users(users)]);
    // One-second intervals over a short window: with a 3 s think time the
    // six measured seconds pop about `users` events (1.07–1.96 per user),
    // which is enough signal without making the million-user rung take
    // minutes.
    cfg.interval = SimDuration::from_secs(1.0);
    cfg.max_intervals = 6;
    cfg
}

/// Runs one rung: application test only (the sequential test exercises
/// the disk model, not the queue). Returns the report, the events popped
/// and the latency histogram.
fn run_point(cfg: SimConfig, seed: u64) -> (PerfReport, u64, TestHist) {
    let mut sim = Simulation::new(&cfg, seed.wrapping_add(1));
    sim.reset_counters();
    sim.storage_reset_for_probe();
    let report = sim.run_application_test();
    let events = sim.engine_counters().events;
    let hist = sim.latency_hist("application");
    (report, events, hist)
}

/// Runs the sweep on the smoke or full ladder, returning with it per-rung
/// wall-clock timings, an (empty) metrics sidecar and one latency
/// histogram per rung. `ladder`, when given, replaces the smoke or full
/// ladder's rungs (`repro` passes the [`LADDER_ENV`] override here).
pub fn run_profiled(
    ctx: &ExperimentContext,
    full: bool,
    ladder: Option<&[u32]>,
) -> (UsersScale, Vec<JobTiming>, ExperimentMetrics, ExperimentHist) {
    let ladder = match ladder {
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
pub fn run_ladder(
    ctx: &ExperimentContext,
    ladder: &[u32],
) -> (Vec<UsersScalePoint>, Vec<JobTiming>, Vec<PointHist>) {
    let mut points: Vec<UsersScalePoint> = Vec::new();
    let mut timings: Vec<JobTiming> = Vec::new();
    let mut hists: Vec<PointHist> = Vec::new();
    for &users in ladder {
        let label = format!("users_1e6/u{users}");
        let cfg = point_config(ctx, users);
        let seed = ctx.seed;
        // One job through the runner (sequentially: one job, one thread)
        // so the wall-clock comes from the same instrumentation as every
        // other experiment's profile.
        let out = runner::run_jobs(1, vec![Job::new(label.clone(), move || run_point(cfg, seed))]);
        let outcome = out.results.into_iter().next();
        let timing = out.timings.into_iter().next();
        let (Some((report, events, hist)), Some(timing)) = (outcome, timing) else {
            continue;
        };
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
        let (result, timings, metrics, hists) = run_profiled(&ctx, false, None);
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
