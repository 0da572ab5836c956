//! `users_1e6` scaling family: one small-file point, repeated at
//! exponentially increasing user counts on both event-queue backends.
//!
//! The calendar queue's contract is *bit-identical pops at O(1) cost* — so
//! this driver is both a benchmark and an acceptance check: each rung runs
//! the identical configuration once per backend ([`EventQueueKind::Heap`],
//! [`EventQueueKind::Calendar`]), hard-asserts the application reports and
//! event counts match, and records the wall-clock ratio. The workload
//! ([`FileTypeConfig::many_users`]) holds ~`users` events pending and pops
//! ~2×`users` of them per run, so the rungs sweep the regime where the
//! heap's `O(log n)` per-pop cost becomes visible and the calendar's does
//! not.
//!
//! CI runs the smoke ladder (≤ 16 k users); the full ladder tops out at a
//! million users behind `repro --users-full`. Points run sequentially
//! (never fanned across the runner's job pool) so the timings measure the
//! queue, not scheduler contention.

use crate::context::ExperimentContext;
use crate::metrics::{ExperimentHist, ExperimentMetrics, PointHist};
use crate::report::TextTable;
use crate::runner::{self, Job, JobTiming};
use readopt_alloc::{ExtentConfig, FitStrategy, PolicyConfig};
use readopt_disk::SimDuration;
use readopt_sim::{
    CheckpointSpec, EventQueueKind, FileTypeConfig, PerfReport, SimConfig, Simulation, TestHist,
};
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

/// Directory for mid-rung engine checkpoints. When set, each
/// (rung, backend) application test runs checkpointed: a serde snapshot
/// of the full engine state lands in
/// `$REPRO_CKPT_DIR/users_<users>_<backend>.ckpt` every
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

/// One rung's measurement: the same simulation on both backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsersScalePoint {
    /// User count (= pending-event count) of this rung.
    pub users: u32,
    /// Events popped during the measured application test — identical on
    /// both backends by assertion.
    pub events: u64,
    /// Wall-clock of the heap-backed run, seconds.
    pub wall_heap_s: f64,
    /// Wall-clock of the calendar-backed run, seconds.
    pub wall_calendar_s: f64,
    /// Application throughput, % of max — identical on both backends.
    pub application_pct: f64,
    /// Heap wall / calendar wall (> 1 means the calendar won).
    pub calendar_speedup: f64,
}

/// The full scaling sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsersScale {
    /// Whether the full (million-user) ladder ran, or just the smoke rungs.
    pub full_ladder: bool,
    /// One entry per rung, ascending user count.
    pub points: Vec<UsersScalePoint>,
    /// `calendar_speedup` of the largest rung: heap wall / calendar wall
    /// (>1: the calendar queue was faster). Wall-clock, so it varies run to
    /// run; nothing gates on it.
    pub speedup_at_max_users: f64,
}

/// Builds one rung's configuration. Everything except `users` and the
/// backend is pinned so the two runs per rung — and consecutive snapshots
/// of the same rung — are comparable.
fn point_config(ctx: &ExperimentContext, users: u32, kind: EventQueueKind) -> SimConfig {
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
    cfg.shards = 1;
    cfg.shard_workers = 1;
    cfg.event_queue = kind;
    cfg
}

/// Runs one rung on one backend: application test only (the sequential
/// test exercises the disk model, not the queue). The latency histogram
/// rides along so the backend-equality assertion covers the full latency
/// distribution, not just the headline report.
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

/// As [`run`], also returning per-point wall-clock timings, an (empty)
/// metrics sidecar — the per-backend equality assertions are the
/// observability here — and per-rung latency histograms (one per rung; the
/// heap and calendar histograms are asserted identical first).
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
    let speedup = points.last().map_or(1.0, |p| p.calendar_speedup);
    let result = UsersScale { full_ladder: full, points, speedup_at_max_users: speedup };
    (
        result,
        timings,
        ExperimentMetrics::empty("users_1e6"),
        ExperimentHist::new("users_1e6", hists),
    )
}

/// Runs an explicit ladder (tests use a tiny one). Each rung runs heap
/// first, then calendar, and asserts the two runs are bit-identical.
///
/// When the global results store is open, every completed
/// (rung, backend) appends a `users_1e6` point record holding only the
/// deterministic outcome triple (report, event count, latency histogram)
/// — never wall-clock — and a rung already recorded (a resumed run)
/// is deserialized from the store instead of re-simulated. Combined
/// with [`CKPT_DIR_ENV`] engine checkpoints this makes a killed ladder
/// resumable at two granularities: completed rungs skip entirely, the
/// interrupted rung restarts mid-test.
pub fn run_ladder(
    ctx: &ExperimentContext,
    ladder: &[u32],
) -> (Vec<UsersScalePoint>, Vec<JobTiming>, Vec<PointHist>) {
    let env = LadderEnv::from_env().unwrap_or_else(|e| panic!("{e}"));
    let mut points: Vec<UsersScalePoint> = Vec::new();
    let mut timings: Vec<JobTiming> = Vec::new();
    let mut hists: Vec<PointHist> = Vec::new();
    for (rung, &users) in ladder.iter().enumerate() {
        let mut walls = [0.0f64; 2];
        let mut outcomes: Vec<(PerfReport, u64, TestHist)> = Vec::new();
        for (i, kind) in [EventQueueKind::Heap, EventQueueKind::Calendar].into_iter().enumerate() {
            let cfg = point_config(ctx, users, kind);
            let seed = ctx.seed;
            let backend = match kind {
                EventQueueKind::Heap => "heap",
                EventQueueKind::Calendar => "calendar",
            };
            let label = format!("users_1e6/u{users}/{backend}");
            let record_index = (2 * rung + i) as u64;
            if let Some(stored) = crate::storex::lookup("users_1e6", record_index) {
                // Completed before the previous run was killed: trust the
                // stored bytes (they were verified on append) and skip the
                // simulation. The wall column reads 0 — timing is the one
                // thing a resumed run cannot reproduce.
                let outcome: (PerfReport, u64, TestHist) = serde_json::from_str(&stored)
                    .unwrap_or_else(|e| panic!("corrupt store record {label}: {e}"));
                eprintln!("  [store] users_1e6: {label} recovered, skipping the rerun");
                outcomes.push(outcome);
                timings.push(JobTiming { label, wall_ms: 0.0 });
                continue;
            }
            let ckpt = env.ckpt_dir.as_ref().map(|dir| CheckpointSpec {
                path: dir.join(format!("users_{users}_{backend}.ckpt")),
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
                vec![Job::new(label, move || run_point(cfg, seed, ckpt.as_ref()))],
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
            walls[i] = timing.wall_ms / 1e3;
            outcomes.push(outcome);
            timings.push(timing);
        }
        let [Some((heap_report, heap_events, heap_hist)), Some((cal_report, cal_events, cal_hist))] =
            [outcomes.first(), outcomes.get(1)]
        else {
            continue;
        };
        assert_eq!(
            heap_report, cal_report,
            "calendar run diverged from the heap reference at {users} users"
        );
        assert_eq!(
            heap_events, cal_events,
            "calendar popped a different event count at {users} users"
        );
        assert_eq!(
            heap_hist, cal_hist,
            "calendar latency distribution diverged from the heap reference at {users} users"
        );
        hists.push(PointHist::new(format!("users_1e6/u{users}"), vec![heap_hist.clone()]));
        points.push(UsersScalePoint {
            users,
            events: *heap_events,
            wall_heap_s: walls[0],
            wall_calendar_s: walls[1],
            application_pct: heap_report.throughput_pct,
            calendar_speedup: walls[0] / walls[1].max(1e-9),
        });
    }
    (points, timings, hists)
}

impl fmt::Display for UsersScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ladder = if self.full_ladder { "full ladder" } else { "smoke ladder" };
        let mut t = TextTable::new(format!(
            "users_1e6 scaling ({ladder}; heap vs calendar, identical output asserted per rung)"
        ))
        .headers(["users", "events", "heap wall", "calendar wall", "application", "speedup"]);
        for p in &self.points {
            t.row([
                p.users.to_string(),
                p.events.to_string(),
                format!("{:.2}s", p.wall_heap_s),
                format!("{:.2}s", p.wall_calendar_s),
                format!("{:.1}%", p.application_pct),
                format!("{:.2}x", p.calendar_speedup),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep asserts backend equality internally; this exercises it
    /// end to end at a tiny rung so the calendar backend runs under the
    /// experiment plumbing (not just the queue-level differential tests).
    #[test]
    fn tiny_ladder_is_bit_identical_across_backends() {
        let ctx = ExperimentContext::fast(64);
        let (points, timings, hists) = run_ladder(&ctx, &[64, 256]);
        assert_eq!(points.len(), 2);
        assert_eq!(timings.len(), 4, "one timing per (rung, backend)");
        assert_eq!(hists.len(), 2, "one histogram per rung");
        assert!(hists.iter().all(|h| h.tests.len() == 1));
        assert!(points[0].users == 64 && points[1].users == 256);
        for p in &points {
            assert!(p.events > 0, "the measured window popped events");
            assert!(p.wall_heap_s >= 0.0 && p.wall_calendar_s >= 0.0);
            assert!(p.calendar_speedup > 0.0);
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
        assert_eq!(timings.len(), 2 * SMOKE_LADDER.len());
        assert_eq!(metrics.experiment, "users_1e6");
        assert_eq!(hists.experiment, "users_1e6");
        assert_eq!(hists.points.len(), SMOKE_LADDER.len());
        assert!(hists.points.iter().any(|p| p.label == "users_1e6/u1000"));
        assert!(timings.iter().any(|t| t.label == "users_1e6/u1000/heap"));
        assert!(timings.iter().any(|t| t.label == "users_1e6/u16000/calendar"));
        assert_eq!(result.speedup_at_max_users, result.points.last().map_or(1.0, |p| p.calendar_speedup));
        let shown = result.to_string();
        assert!(shown.contains("users_1e6 scaling"));
    }
}
