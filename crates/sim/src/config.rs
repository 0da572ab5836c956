//! Top-level simulation configuration.

use crate::event::EventQueueKind;
use crate::filetype::FileTypeConfig;
use readopt_alloc::PolicyConfig;
use readopt_disk::{ArrayConfig, SimDuration};
use serde::{Deserialize, Serialize};

/// Everything needed to run one simulation: disk system, allocation policy,
/// workload, and the §3 test parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The disk system (Table 1 defaults via [`ArrayConfig::paper_default`]).
    pub array: ArrayConfig,
    /// The allocation policy under test.
    pub policy: PolicyConfig,
    /// The workload's file types (Table 2 parameters each).
    pub file_types: Vec<FileTypeConfig>,
    /// Lower utilization bound `N` — "how full the disk system should be
    /// before measurements begin" (0.90 in §3).
    pub util_lower: f64,
    /// Upper utilization bound `M` — extends beyond this convert to
    /// truncates (0.95 in §3).
    pub util_upper: f64,
    /// Throughput-measurement interval (10 s in §2.2).
    pub interval: SimDuration,
    /// Stabilization window: this many consecutive intervals must agree
    /// (3 in §2.2).
    pub stabilize_window: usize,
    /// Agreement tolerance between those intervals, in percentage points
    /// (0.1 in §2.2).
    pub stabilize_tolerance_pct: f64,
    /// Hard cap on measured simulated time per test, as a count of
    /// intervals (termination "by a specified number of milliseconds").
    pub max_intervals: usize,
    /// Safety cap on operations for the allocation test.
    pub max_allocation_ops: u64,
    /// Pinned to 1: the engine runs one serial loop. The field outlives
    /// the sharded effect pipeline it configured only because the
    /// benchmark still assigns it; [`validate`](SimConfig::validate)
    /// rejects any other value, and the next benchmark change deletes it.
    pub shards: usize,
    /// Pinned to 0 or 1 (no effect-worker threads), like
    /// [`shards`](SimConfig::shards) and for the same reason; the next
    /// benchmark change deletes it.
    pub shard_workers: usize,
    /// Always [`EventQueueKind::Heap`], the only value the type has; the
    /// engine does not read it. The field outlives the calendar backend it
    /// selected only because the benchmark still assigns it, and the next
    /// benchmark change deletes it.
    // simlint::allow(r7, "perfbench/src/points.rs assigns it; the next benchmark change deletes both")
    pub event_queue: EventQueueKind,
    /// How many raw per-request latencies the engine retains for exact
    /// percentile computation. Beyond the cap, samples still land in the
    /// bounded latency histogram (which then supplies the percentiles), so
    /// long runs keep correct tails at constant memory.
    pub latency_sample_cap: usize,
}

impl SimConfig {
    /// A configuration with the paper's §3 test parameters.
    pub fn new(array: ArrayConfig, policy: PolicyConfig, file_types: Vec<FileTypeConfig>) -> Self {
        SimConfig {
            array,
            policy,
            file_types,
            util_lower: 0.90,
            util_upper: 0.95,
            interval: SimDuration::from_secs(10.0),
            stabilize_window: 3,
            stabilize_tolerance_pct: 0.1,
            max_intervals: 60,
            max_allocation_ops: 10_000_000,
            shards: 1,
            shard_workers: 0,
            event_queue: EventQueueKind::Heap,
            latency_sample_cap: 200_000,
        }
    }

    /// Validates the composite configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.array.validate()?;
        if self.file_types.is_empty() {
            return Err("workload has no file types".into());
        }
        for t in &self.file_types {
            t.validate()?;
        }
        // The engine's user and file tables index their records by u32.
        let users: u128 = self.file_types.iter().map(|t| u128::from(t.num_users)).sum();
        let files: u128 = self.file_types.iter().map(|t| u128::from(t.num_files)).sum();
        for (total, what) in [(users, "users"), (files, "files")] {
            if total > u128::from(u32::MAX) {
                return Err(format!(
                    "the file types hold {total} {what} in total; at most {} fit the engine's tables",
                    u32::MAX
                ));
            }
        }
        if !(0.0 < self.util_lower && self.util_lower <= self.util_upper && self.util_upper <= 1.0) {
            return Err(format!(
                "utilization window [{}, {}] is not sane",
                self.util_lower, self.util_upper
            ));
        }
        if self.interval.is_zero() {
            return Err("measurement interval must be positive".into());
        }
        if self.stabilize_window == 0 || self.max_intervals < self.stabilize_window {
            return Err("interval counts inconsistent".into());
        }
        if self.shards != 1 || self.shard_workers > 1 {
            return Err(format!(
                "shards = {}, shard_workers = {}: the sharded effect pipeline was removed, \
                 so only shards = 1 with shard_workers 0 or 1 is accepted",
                self.shards, self.shard_workers
            ));
        }
        if self.latency_sample_cap == 0 {
            return Err("latency_sample_cap must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SimConfig {
        SimConfig::new(
            ArrayConfig::scaled(64),
            PolicyConfig::paper_extent_based(),
            vec![FileTypeConfig::default()],
        )
    }

    #[test]
    fn defaults_match_section_3() {
        let c = config();
        c.validate().unwrap();
        assert_eq!(c.util_lower, 0.90);
        assert_eq!(c.util_upper, 0.95);
        assert_eq!(c.interval, SimDuration::from_secs(10.0));
        assert_eq!(c.stabilize_window, 3);
        assert_eq!(c.stabilize_tolerance_pct, 0.1);
    }

    #[test]
    fn validation_composes() {
        let mut c = config();
        c.util_lower = 0.99;
        c.util_upper = 0.95;
        assert!(c.validate().is_err());
        let mut c = config();
        c.file_types.clear();
        assert!(c.validate().is_err());
        let mut c = config();
        c.file_types[0].read_pct += 1.0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.interval = SimDuration::ZERO;
        assert!(c.validate().is_err(), "a zero interval would divide by zero in the meter");
    }

    #[test]
    fn user_and_file_totals_must_fit_u32_indices() {
        let mut c = config();
        c.file_types = vec![FileTypeConfig::default(); 2];
        for t in &mut c.file_types {
            t.num_users = 1 << 31;
        }
        let err = c.validate().unwrap_err();
        assert!(err.contains("4294967296 users in total"), "{err}");
        c.file_types[1].num_users -= 1;
        c.validate().unwrap();
        let mut c = config();
        c.file_types.push(FileTypeConfig::default());
        c.file_types[0].num_files = u64::from(u32::MAX);
        let err = c.validate().unwrap_err();
        let total = u64::from(u32::MAX) + c.file_types[1].num_files;
        assert!(err.contains(&format!("{total} files in total")), "{err}");
        c.file_types.pop();
        c.validate().unwrap();
    }

    #[test]
    fn shard_fields_accept_only_the_serial_values() {
        let c = config();
        assert_eq!((c.shards, c.shard_workers), (1, 0));
        c.validate().unwrap();
        let mut c = config();
        c.shard_workers = 1;
        c.validate().unwrap();
        for (shards, shard_workers) in [(0, 0), (2, 0), (1, 2)] {
            let mut c = config();
            c.shards = shards;
            c.shard_workers = shard_workers;
            let err = c.validate().unwrap_err();
            assert!(err.contains("pipeline was removed"), "({shards}, {shard_workers}): {err}");
        }
    }

    #[test]
    fn latency_cap_defaults_and_validates() {
        let c = config();
        assert_eq!(c.latency_sample_cap, 200_000, "paper runs keep 200k exact samples");
        let mut c = config();
        c.latency_sample_cap = 0;
        assert!(c.validate().is_err(), "zero cap would record no latencies at all");
    }

    #[test]
    fn serde_round_trip() {
        let c = config();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
