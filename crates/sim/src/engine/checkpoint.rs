//! Mid-run checkpointing for the application performance test.
//!
//! A million-user rung can run for hours, and a killed run should not
//! lose the whole rung. This module lets the measurement loop persist its
//! complete dynamic state every N steps and resume from the latest
//! snapshot producing **bit-identical** results — the same `PerfReport`,
//! the same latency histogram, the same store bytes — as an uninterrupted
//! run.
//!
//! The checkpointed run is the plain run's measurement loop with a hook at
//! the top of every step that writes the snapshot (and, for tests, pauses
//! or kills the process).
//!
//! The snapshot is a single JSON object (the vendored writer prints floats
//! via Rust's shortest round-trip `Display`, so every `f64` survives the
//! text round trip exactly) written atomically: a `.tmp` sibling is
//! written in full, then renamed over the checkpoint path. A kill at any
//! instant therefore leaves either the previous checkpoint or the new one,
//! never a torn file.
//!
//! Restores are validation-first at every layer: the file tables, latency
//! reservoir, event queue, policy, free map, and disk snapshots each
//! re-check their own invariants (space conservation, selection-index
//! consistency, one pending event per user, monotone queues) and reject
//! corrupt state with an error instead of quietly diverging later. A
//! snapshot whose config fingerprint does not match the resuming run is
//! rejected outright.

use super::{Mode, PerfFrame, Simulation};
use crate::event::EventQueue;
use crate::hist::LatencyReservoir;
use crate::measure::ThroughputMeter;
use crate::metrics::EngineCounters;
use crate::results::PerfReport;
use crate::rng::SimRng;
use crate::state::{FileTable, UserTable};
use readopt_disk::SimTime;
use serde::{de_field, Serialize, Value};
use std::fmt;
use std::ops::ControlFlow;
use std::path::PathBuf;

/// Snapshot format version; bumped on any layout change so an old binary
/// never misreads a new snapshot (or vice versa).
const CHECKPOINT_VERSION: u64 = 1;

/// Exit status the [`CheckpointSpec::kill_after`] hook terminates with,
/// so harness tests can distinguish the deliberate mid-run kill from a
/// crash.
pub const CHECKPOINT_KILL_EXIT: i32 = 86;

/// Where and how often a checkpointed run persists its state.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path. A `.tmp` sibling is used for the atomic
    /// write-then-rename; the file is removed when the run completes.
    pub path: PathBuf,
    /// Steps between checkpoint writes; 0 disables periodic writes (the
    /// run still resumes from `path` if a snapshot is already there).
    pub every_steps: u64,
    /// Test hook: terminate the process (status
    /// [`CHECKPOINT_KILL_EXIT`]) immediately after writing the N-th
    /// checkpoint of this process. `None` in production.
    pub kill_after: Option<u64>,
    /// Fingerprint of the generating configuration — callers use the
    /// config's canonical JSON. A snapshot written under a different
    /// fingerprint is rejected instead of resumed.
    pub config_fingerprint: String,
}

impl Simulation {
    /// §3's application performance test with mid-run checkpointing: runs
    /// the measurement loop, persisting a full-state snapshot to
    /// `spec.path` every `spec.every_steps` steps. If a snapshot is
    /// already present (a previous process was killed mid-run), the run
    /// resumes from it and produces bit-identical results to an
    /// uninterrupted run; on success the snapshot is removed.
    ///
    /// `self` must be freshly built via [`Simulation::new`] from the same
    /// config and seed as the interrupted run — the snapshot carries only
    /// dynamic state, and a config mismatch is caught by the fingerprint.
    /// On `Err` the simulation may be partially restored and must be
    /// discarded.
    pub fn run_application_test_checkpointed(
        &mut self,
        spec: &CheckpointSpec,
    ) -> Result<PerfReport, String> {
        match self.run_checkpointed_impl(spec, None)? {
            Some(report) => Ok(report),
            None => Err("internal: checkpointed run paused without a pause request".into()),
        }
    }

    /// Test hook: like [`Self::run_application_test_checkpointed`] but
    /// returns `Ok(None)` after writing `pause_after` checkpoints instead
    /// of killing the process, leaving the snapshot on disk for a resume.
    #[cfg(test)]
    pub(crate) fn run_checkpointed_until_pause(
        &mut self,
        spec: &CheckpointSpec,
        pause_after: u64,
    ) -> Result<Option<PerfReport>, String> {
        self.run_checkpointed_impl(spec, Some(pause_after))
    }

    fn run_checkpointed_impl(
        &mut self,
        spec: &CheckpointSpec,
        pause_after: Option<u64>,
    ) -> Result<Option<PerfReport>, String> {
        let snapshot = match std::fs::read_to_string(&spec.path) {
            Ok(text) => Some(serde_json::from_str::<Value>(&text).map_err(|e| {
                format!("corrupt checkpoint {}: {e}", spec.path.display())
            })?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("cannot read checkpoint {}: {e}", spec.path.display())),
        };
        let mut frame = match snapshot {
            Some(v) => self
                .restore_checkpoint(&v, spec)
                .map_err(|e| format!("cannot resume from {}: {e}", spec.path.display()))?,
            None => self.begin_perf(),
        };
        // A resumed step count is itself a checkpoint boundary; the
        // sentinel keeps the loop from immediately rewriting it.
        let mut last_checkpoint = frame.steps;
        let mut written_this_process: u64 = 0;
        // Writing a snapshot only reads the simulation, so it perturbs
        // nothing. The hook breaks with `Ok(())` to pause, `Err` on a
        // failed write.
        let hook = |sim: &mut Self, frame: &PerfFrame| {
            let steps = frame.steps;
            if spec.every_steps == 0
                || steps == 0
                || !steps.is_multiple_of(spec.every_steps)
                || steps == last_checkpoint
            {
                return ControlFlow::Continue(());
            }
            if let Err(e) = sim.write_checkpoint(spec, frame) {
                return ControlFlow::Break(Err(e));
            }
            last_checkpoint = steps;
            written_this_process += 1;
            if pause_after.is_some_and(|n| written_this_process >= n) {
                return ControlFlow::Break(Ok(()));
            }
            if spec.kill_after.is_some_and(|n| written_this_process >= n) {
                std::process::exit(CHECKPOINT_KILL_EXIT);
            }
            ControlFlow::Continue(())
        };
        let (stabilized, throughput_pct) =
            match self.run_perf_loop(Mode::Application, &mut frame, hook) {
                ControlFlow::Continue(outcome) => outcome,
                ControlFlow::Break(paused) => return paused.map(|()| None),
            };
        let report = self.finish_perf(&frame, stabilized, throughput_pct);
        let _ = std::fs::remove_file(&spec.path);
        Ok(Some(report))
    }

    /// Serializes the complete dynamic state and writes it atomically
    /// (full `.tmp` write, then rename over `spec.path`).
    fn write_checkpoint(&self, spec: &CheckpointSpec, frame: &PerfFrame) -> Result<(), String> {
        let snapshot = self.checkpoint_value(spec, frame)?;
        let text = serde_json::to_string(&snapshot).map_err(|e| e.to_string())?;
        let tmp = spec.path.with_extension("tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &spec.path)
            .map_err(|e| format!("cannot publish checkpoint {}: {e}", spec.path.display()))?;
        Ok(())
    }

    fn checkpoint_value(&self, spec: &CheckpointSpec, frame: &PerfFrame) -> Result<Value, String> {
        let policy = self.policy.checkpoint_state().ok_or_else(|| {
            format!("the {} policy does not support checkpointing", self.policy.name())
        })?;
        let storage = self
            .storage
            .checkpoint_state()
            .ok_or_else(|| "the storage layout does not support checkpointing".to_string())?;
        let (rng_seed, rng_state) = self.rng.checkpoint_state();
        let (entries, next_seq) = self.queue.entries();
        Ok(Value::Object(vec![
            ("version".into(), CHECKPOINT_VERSION.to_value()),
            ("fingerprint".into(), spec.config_fingerprint.to_value()),
            ("steps".into(), frame.steps.to_value()),
            ("ops_before".into(), frame.ops_before.to_value()),
            ("disk_full_before".into(), frame.disk_full_before.to_value()),
            ("meter".into(), frame.meter.to_value()),
            ("clock".into(), self.clock.to_value()),
            ("ops".into(), self.ops.to_value()),
            ("disk_full_events".into(), self.disk_full_events.to_value()),
            ("counters".into(), self.counters.to_value()),
            ("ops_at_counter_reset".into(), self.ops_at_counter_reset.to_value()),
            ("disk_full_at_counter_reset".into(), self.disk_full_at_counter_reset.to_value()),
            ("latencies".into(), self.latencies.to_value()),
            ("dropped_latencies".into(), self.dropped_latencies.to_value()),
            ("hist".into(), self.hist.to_value()),
            ("rng_seed".into(), rng_seed.to_value()),
            ("rng_state".into(), rng_state.to_value()),
            ("queue_entries".into(), entries.to_value()),
            ("queue_next_seq".into(), next_seq.to_value()),
            ("files".into(), self.files.to_value()),
            ("files_by_type".into(), self.files_by_type.to_value()),
            ("users".into(), self.users.to_value()),
            ("policy".into(), policy),
            ("storage".into(), storage),
        ]))
    }

    /// Validates a snapshot and applies it to this freshly built
    /// simulation. Deserialization and cross-field checks all run before
    /// the first field is committed; the policy and storage sub-restores
    /// are themselves validation-first, so an `Err` from any stage leaves
    /// at most a partially restored simulation that the caller discards.
    fn restore_checkpoint(
        &mut self,
        v: &Value,
        spec: &CheckpointSpec,
    ) -> Result<PerfFrame, String> {
        let err = |e: serde::Error| e.to_string();
        let version: u64 = de_field(v, "version").map_err(err)?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "snapshot version {version} != supported {CHECKPOINT_VERSION}"
            ));
        }
        let fingerprint: String = de_field(v, "fingerprint").map_err(err)?;
        if fingerprint != spec.config_fingerprint {
            return Err("snapshot config fingerprint does not match this run's config".into());
        }
        let steps: u64 = de_field(v, "steps").map_err(err)?;
        let ops_before: u64 = de_field(v, "ops_before").map_err(err)?;
        let disk_full_before: u64 = de_field(v, "disk_full_before").map_err(err)?;
        let meter: ThroughputMeter = de_field(v, "meter").map_err(err)?;
        let clock: SimTime = de_field(v, "clock").map_err(err)?;
        let ops: u64 = de_field(v, "ops").map_err(err)?;
        let disk_full_events: u64 = de_field(v, "disk_full_events").map_err(err)?;
        let counters: EngineCounters = de_field(v, "counters").map_err(err)?;
        let ops_at_counter_reset: u64 = de_field(v, "ops_at_counter_reset").map_err(err)?;
        let disk_full_at_counter_reset: u64 =
            de_field(v, "disk_full_at_counter_reset").map_err(err)?;
        let latencies: Vec<f64> = de_field(v, "latencies").map_err(err)?;
        if latencies.len() > self.latency_sample_cap {
            return Err(format!(
                "{} latency samples exceed the configured cap {}",
                latencies.len(),
                self.latency_sample_cap
            ));
        }
        if latencies.iter().any(|l| !l.is_finite() || *l < 0.0) {
            return Err("non-finite or negative latency sample in snapshot".into());
        }
        let dropped_latencies: u64 = de_field(v, "dropped_latencies").map_err(err)?;
        let hist: LatencyReservoir = de_field(v, "hist").map_err(err)?;
        let rng_seed: u64 = de_field(v, "rng_seed").map_err(err)?;
        let rng_words: Vec<u64> = de_field(v, "rng_state").map_err(err)?;
        let rng_state: [u64; 4] = rng_words
            .try_into()
            .map_err(|w: Vec<u64>| format!("rng state has {} words, expected 4", w.len()))?;
        let rng = SimRng::from_checkpoint_state(rng_seed, rng_state)?;
        let users: UserTable = de_field(v, "users").map_err(err)?;
        if users.type_idx.iter().any(|&t| t as usize >= self.types.len()) {
            return Err("user with out-of-range file-type index in snapshot".into());
        }
        let files: FileTable = de_field(v, "files").map_err(err)?;
        let files_by_type: Vec<Vec<u32>> = de_field(v, "files_by_type").map_err(err)?;
        check_selection_index(&files, &files_by_type, self.types.len())?;
        let entries: Vec<(SimTime, u64, u32)> = de_field(v, "queue_entries").map_err(err)?;
        let next_seq: u64 = de_field(v, "queue_next_seq").map_err(err)?;
        check_queue_state(&entries, users.type_idx.len(), clock).map_err(|e| e.to_string())?;
        let mut queue = EventQueue::new();
        queue.restore_entries(&entries, next_seq)?;
        let policy_snap =
            v.get("policy").ok_or_else(|| "missing field `policy`".to_string())?;
        let storage_snap =
            v.get("storage").ok_or_else(|| "missing field `storage`".to_string())?;

        self.storage
            .restore_state(storage_snap)
            .map_err(|e| format!("storage restore: {e}"))?;
        self.policy
            .restore_state(policy_snap)
            .map_err(|e| format!("policy restore: {e}"))?;
        self.files = files;
        self.files_by_type = files_by_type;
        self.users = users;
        self.queue = queue;
        self.rng = rng;
        self.clock = clock;
        self.ops = ops;
        self.disk_full_events = disk_full_events;
        self.counters = counters;
        self.ops_at_counter_reset = ops_at_counter_reset;
        self.disk_full_at_counter_reset = disk_full_at_counter_reset;
        self.latencies = latencies;
        self.dropped_latencies = dropped_latencies;
        self.hist = hist;
        self.pending_span = None;
        Ok(PerfFrame { steps, ops_before, disk_full_before, meter })
    }
}

/// Why a snapshot's event queue is not one the measurement loop can leave
/// behind. The loop holds exactly one pending event per user (every user
/// is queued once when the test begins, and each step reschedules the
/// user it popped), and none of them is earlier than the clock (each step
/// pops the earliest event and schedules at or after it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueStateError {
    /// An event names a user the user table does not have.
    UnknownUser(u32),
    /// A user has a second pending event.
    DuplicateUser(u32),
    /// A user has no pending event.
    MissingUser(usize),
    /// An event is scheduled before the restored clock.
    BeforeClock { user: u32, time: SimTime, clock: SimTime },
}

impl fmt::Display for QueueStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueStateError::UnknownUser(u) => {
                write!(f, "queued event names user {u}, outside the user table")
            }
            QueueStateError::DuplicateUser(u) => write!(f, "user {u} has two pending events"),
            QueueStateError::MissingUser(u) => write!(f, "user {u} has no pending event"),
            QueueStateError::BeforeClock { user, time, clock } => {
                write!(f, "user {user}'s event at {time} is before the clock {clock}")
            }
        }
    }
}

/// Checks the queued `(time, seq, user)` entries against the loop's
/// invariants for `users` users at `clock`.
fn check_queue_state(
    entries: &[(SimTime, u64, u32)],
    users: usize,
    clock: SimTime,
) -> Result<(), QueueStateError> {
    let mut queued = vec![false; users];
    for &(time, _, user) in entries {
        let seen = queued.get_mut(user as usize).ok_or(QueueStateError::UnknownUser(user))?;
        if std::mem::replace(seen, true) {
            return Err(QueueStateError::DuplicateUser(user));
        }
        if time < clock {
            return Err(QueueStateError::BeforeClock { user, time, clock });
        }
    }
    match queued.iter().position(|&q| !q) {
        Some(user) => Err(QueueStateError::MissingUser(user)),
        None => Ok(()),
    }
}

/// The restore-side twin of the engine tests' selection-index invariant:
/// `files_by_type` and `pos_in_type` must mirror each other exactly and
/// list precisely the live files, or file selection would diverge from
/// the uninterrupted run (or index out of bounds).
fn check_selection_index(
    files: &FileTable,
    files_by_type: &[Vec<u32>],
    ntypes: usize,
) -> Result<(), String> {
    if files_by_type.len() != ntypes {
        return Err(format!(
            "selection index covers {} file types, config has {ntypes}",
            files_by_type.len()
        ));
    }
    let mut listed = 0usize;
    for (t_idx, idxs) in files_by_type.iter().enumerate() {
        for (pos, &file_idx) in idxs.iter().enumerate() {
            let i = file_idx as usize;
            if i >= files.capacity() {
                return Err(format!("selection index names file slot {i} out of bounds"));
            }
            if !files.live[i] {
                return Err(format!("selection index lists retired file slot {i}"));
            }
            if files.type_idx[i] as usize != t_idx {
                return Err(format!("file slot {i} indexed under the wrong type"));
            }
            if files.pos_in_type[i] as usize != pos {
                return Err(format!("file slot {i} has a stale pos_in_type"));
            }
            listed += 1;
        }
    }
    let live = (0..files.capacity()).filter(|&i| files.live[i]).count();
    if listed != live {
        return Err(format!(
            "selection index lists {listed} files, live population is {live}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::filetype::FileTypeConfig;
    use readopt_alloc::{ExtentConfig, FitStrategy, PolicyConfig};
    use readopt_disk::ArrayConfig;

    /// The engine tests' small/fast configuration, with the extent policy
    /// (the one checkpoint-capable first-party policy).
    fn ckpt_config() -> SimConfig {
        let policy = PolicyConfig::Extent(ExtentConfig {
            range_means_bytes: vec![8 * 1024, 64 * 1024],
            fit: FitStrategy::FirstFit,
            sigma_frac: 0.1,
        });
        let t = FileTypeConfig {
            num_files: 64,
            num_users: 8,
            initial_size_bytes: 256 * 1024,
            initial_deviation_bytes: 64 * 1024,
            ..FileTypeConfig::default()
        };
        let mut c = SimConfig::new(ArrayConfig::scaled(64), policy, vec![t]);
        c.max_intervals = 6;
        c.max_allocation_ops = 3_000_000;
        c
    }

    fn fingerprint(c: &SimConfig) -> String {
        serde_json::to_string(c).unwrap()
    }

    fn tmp_spec(c: &SimConfig, name: &str, every_steps: u64) -> CheckpointSpec {
        let mut path = std::env::temp_dir();
        path.push(format!("readopt-ckpt-{}-{name}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        CheckpointSpec { path, every_steps, kill_after: None, config_fingerprint: fingerprint(c) }
    }

    #[test]
    fn checkpointed_run_matches_the_plain_serial_run() {
        let c = ckpt_config();
        let mut plain = Simulation::new(&c, 42);
        let expected = plain.run_application_test();

        let spec = tmp_spec(&c, "match", 512);
        let mut sim = Simulation::new(&c, 42);
        let got = sim.run_application_test_checkpointed(&spec).unwrap();
        assert_eq!(got, expected, "periodic snapshot writes must not perturb the run");
        assert!(!spec.path.exists(), "snapshot removed after a completed run");
    }

    #[test]
    fn resume_after_pause_is_bit_identical() {
        let c = ckpt_config();
        let mut plain = Simulation::new(&c, 7);
        let expected = plain.run_application_test();
        let expected_hist = plain.latency_hist("application");

        let spec = tmp_spec(&c, "resume", 2_000);
        let mut first = Simulation::new(&c, 7);
        let paused = first.run_checkpointed_until_pause(&spec, 1).unwrap();
        assert!(paused.is_none(), "run should pause at the first checkpoint");
        assert!(spec.path.exists());
        drop(first);

        // A brand-new process would rebuild the simulation from the same
        // config and seed, then resume.
        let mut resumed = Simulation::new(&c, 7);
        let got = resumed.run_application_test_checkpointed(&spec).unwrap();
        assert_eq!(got, expected, "resumed run diverged from the uninterrupted one");
        assert_eq!(resumed.latency_hist("application"), expected_hist);
        assert!(!spec.path.exists());
    }

    #[test]
    fn stale_or_corrupt_checkpoints_are_rejected() {
        let c = ckpt_config();
        let spec = tmp_spec(&c, "reject", 2_000);
        let mut first = Simulation::new(&c, 9);
        assert!(first.run_checkpointed_until_pause(&spec, 1).unwrap().is_none());

        // A snapshot from a different configuration must not resume.
        let stale =
            CheckpointSpec { config_fingerprint: "other-config".into(), ..spec.clone() };
        let mut sim = Simulation::new(&c, 9);
        let err = sim.run_application_test_checkpointed(&stale).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Garbage bytes must error out, not silently restart the run.
        std::fs::write(&spec.path, b"{definitely not json").unwrap();
        let mut sim = Simulation::new(&c, 9);
        let err = sim.run_application_test_checkpointed(&spec).unwrap_err();
        assert!(err.contains("corrupt checkpoint"), "{err}");
        let _ = std::fs::remove_file(&spec.path);
    }

    #[test]
    fn tampered_snapshots_are_rejected() {
        let c = ckpt_config();
        let spec = tmp_spec(&c, "tamper", 2_000);
        let mut first = Simulation::new(&c, 11);
        assert!(first.run_checkpointed_until_pause(&spec, 1).unwrap().is_none());
        let pristine = std::fs::read_to_string(&spec.path).unwrap();

        let tamper = |field: &str, replacement: Value| -> String {
            let v: Value = serde_json::from_str(&pristine).unwrap();
            let Value::Object(mut pairs) = v else { panic!("snapshot is not an object") };
            for (k, val) in pairs.iter_mut() {
                if k == field {
                    *val = replacement.clone();
                }
            }
            serde_json::to_string(&Value::Object(pairs)).unwrap()
        };

        // The all-zero xoshiro state is unreachable from any seed.
        std::fs::write(&spec.path, tamper("rng_state", vec![0u64; 4].to_value())).unwrap();
        let err = Simulation::new(&c, 11).run_application_test_checkpointed(&spec).unwrap_err();
        assert!(err.contains("all-zero"), "{err}");

        // An empty selection index disagrees with the live population.
        let empty_index: Vec<Vec<u32>> = vec![Vec::new()];
        std::fs::write(&spec.path, tamper("files_by_type", empty_index.to_value())).unwrap();
        let err = Simulation::new(&c, 11).run_application_test_checkpointed(&spec).unwrap_err();
        assert!(err.contains("selection index"), "{err}");

        // Queues that keep pop order and in-range users but break the
        // loop's invariants: one event per user, none before the clock.
        let snapshot: Value = serde_json::from_str(&pristine).unwrap();
        let entries: Vec<(SimTime, u64, u32)> = de_field(&snapshot, "queue_entries").unwrap();
        let clock: SimTime = de_field(&snapshot, "clock").unwrap();
        assert!(entries.len() > 2 && entries[0].0 > SimTime::ZERO && clock > SimTime::ZERO);
        let mut dropped = entries.clone();
        dropped.remove(1);
        let mut doubled = entries.clone();
        doubled[1].2 = doubled[0].2;
        let mut early = entries.clone();
        early[0].0 = SimTime::ZERO;
        for (queue, expected) in [
            (dropped, "has no pending event"),
            (doubled, "has two pending events"),
            (early, "is before the clock"),
        ] {
            std::fs::write(&spec.path, tamper("queue_entries", queue.to_value())).unwrap();
            let err =
                Simulation::new(&c, 11).run_application_test_checkpointed(&spec).unwrap_err();
            assert!(err.contains(expected), "{expected}: {err}");
        }

        // The pristine bytes still resume cleanly after all that.
        std::fs::write(&spec.path, &pristine).unwrap();
        let report = Simulation::new(&c, 11).run_application_test_checkpointed(&spec).unwrap();
        assert!(report.operations > 0);
    }
}
