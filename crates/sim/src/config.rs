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
    /// Disk groups for the effect pipeline (≥ 1): disk `d` belongs to
    /// group `d mod shards`, and each of the [`shard_workers`] threads
    /// owns whole groups. Above 1, with at least two workers, performance
    /// tests run the pipelined loop; the event queue stays one queue.
    /// Results are bit-identical at any value. Slower where measured: on
    /// a 2-vCPU VM, full-scale fig2 at one job took 13.1 s at 2 against
    /// 3.5 s at 1.
    ///
    /// [`shard_workers`]: SimConfig::shard_workers
    pub shards: usize,
    /// Worker threads servicing disk effects during performance tests.
    /// `0` or `1` keeps execution in-line on the decision thread; higher
    /// values are capped at [`shards`](SimConfig::shards). Execution-only:
    /// never affects results.
    pub shard_workers: usize,
    /// Which structure backs the event queue (heap by default, calendar
    /// for O(1) scheduling at million-user densities). Purely a speed
    /// knob: both backends pop in the identical `(time, seq, user)` order,
    /// so results are bit-identical either way.
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
        if !(0.0 < self.util_lower && self.util_lower <= self.util_upper && self.util_upper <= 1.0) {
            return Err(format!(
                "utilization window [{}, {}] is not sane",
                self.util_lower, self.util_upper
            ));
        }
        if self.stabilize_window == 0 || self.max_intervals < self.stabilize_window {
            return Err("interval counts inconsistent".into());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
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
    }

    #[test]
    fn shard_fields_default_inert_and_validate() {
        let c = config();
        assert_eq!(c.shards, 1, "sharding is opt-in");
        assert_eq!(c.shard_workers, 0, "in-line execution by default");
        let mut c = config();
        c.shards = 0;
        assert!(c.validate().is_err(), "zero shards is rejected");
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
    fn event_queue_defaults_to_heap() {
        let c = config();
        assert_eq!(c.event_queue, EventQueueKind::Heap, "calendar is opt-in");
        let mut c = config();
        c.event_queue = EventQueueKind::Calendar;
        c.validate().unwrap();
    }

    #[test]
    fn serde_round_trip() {
        let mut c = config();
        c.event_queue = EventQueueKind::Calendar;
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
