//! Trace-driven execution: replay a recorded stream of file-system
//! operations against any (policy, array, cache) configuration.
//!
//! §6 of the paper closes with "applying the allocation policies to genuine
//! workloads will yield a much more convincing argument". This module is
//! that hook: traces are plain serde values (JSON on disk), so a genuine
//! workload — an strace of a build, a database's I/O log — can be
//! transcribed into [`TraceOp`]s once and replayed against every policy.
//!
//! Descriptors in a trace are *slots*: `open`/`create` bind slot `n`, later
//! operations reference it, `close` releases it. Slots make traces
//! relocatable (no dependence on the kernel's fd numbering).
//!
//! The JSON encoding is the obvious serde form — a trace is a list of
//! single-key operation objects:
//!
//! ```
//! use readopt_fs::Trace;
//!
//! let trace = Trace::from_json(r#"{ "ops": [
//!     { "Mkdir":  { "path": "/data" } },
//!     { "Create": { "path": "/data/log", "slot": 0 } },
//!     { "Write":  { "slot": 0, "bytes": 8192 } },
//!     { "ThinkMs": { "ms": 12.5 } },
//!     { "Seek":   { "slot": 0, "pos": 0 } },
//!     { "Read":   { "slot": 0, "bytes": 8192 } },
//!     { "Close":  { "slot": 0 } },
//!     { "Unlink": { "path": "/data/log" } }
//! ]}"#).expect("valid trace");
//! assert_eq!(trace.ops.len(), 8);
//! ```

use crate::error::FsError;
use crate::filesystem::FileSystem;
use crate::handle::Fd;
use readopt_disk::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One recorded operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Create a directory.
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// Create a file and bind it to a descriptor slot.
    Create {
        /// Absolute path.
        path: String,
        /// Descriptor slot to bind.
        slot: u32,
    },
    /// Open an existing file into a slot.
    Open {
        /// Absolute path.
        path: String,
        /// Descriptor slot to bind.
        slot: u32,
    },
    /// Sequential read at the slot's cursor.
    Read {
        /// Descriptor slot.
        slot: u32,
        /// Bytes to read.
        bytes: u64,
    },
    /// Sequential write at the slot's cursor.
    Write {
        /// Descriptor slot.
        slot: u32,
        /// Bytes to write.
        bytes: u64,
    },
    /// Reposition a slot's cursor.
    Seek {
        /// Descriptor slot.
        slot: u32,
        /// New cursor position in bytes.
        pos: u64,
    },
    /// Close a slot.
    Close {
        /// Descriptor slot.
        slot: u32,
    },
    /// Remove a file.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Shrink a file.
    Truncate {
        /// Absolute path.
        path: String,
        /// New size in bytes.
        size: u64,
    },
    /// Let simulated time pass (compute/think phases).
    ThinkMs {
        /// Milliseconds of idle time.
        ms: f64,
    },
}

/// A replayable operation stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The operations, in order.
    pub ops: Vec<TraceOp>,
}

/// What a replay did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Operations executed.
    pub operations: u64,
    /// Operations that failed (`NoSpace`, `NotFound`, …); the replay
    /// continues past failures, as a real workload would see `EIO` and move
    /// on.
    pub failures: u64,
    /// Logical bytes read.
    pub bytes_read: u64,
    /// Logical bytes written.
    pub bytes_written: u64,
    /// Simulated milliseconds consumed.
    pub elapsed_ms: f64,
}

impl Trace {
    /// Parses a trace from JSON. A `ThinkMs` that is negative or not
    /// finite, or that takes the trace's total think time past the range
    /// of the simulation clock, is an error naming the op's index.
    pub fn from_json(json: &str) -> Result<Trace, String> {
        let trace: Trace = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let clock_ms = SimTime::MAX.as_ms();
        let mut think_ms = 0.0;
        for (i, op) in trace.ops.iter().enumerate() {
            if let TraceOp::ThinkMs { ms } = *op {
                if !ms.is_finite() || ms < 0.0 {
                    return Err(format!(
                        "op {i}: ThinkMs of {ms} ms is not a finite, non-negative time"
                    ));
                }
                think_ms += ms;
                if think_ms >= clock_ms {
                    return Err(format!(
                        "op {i}: ThinkMs of {ms} ms takes the trace's think time to {think_ms} ms, \
                         past the simulation clock's {clock_ms} ms"
                    ));
                }
            }
        }
        Ok(trace)
    }

    /// Serializes the trace to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            // simlint::allow(r3, "Trace is a plain data tree; serialization cannot fail")
            .unwrap_or_else(|e| unreachable!("traces are always serializable: {e}"))
    }

    /// Replays the trace against a file system.
    pub fn replay(&self, fs: &mut FileSystem) -> TraceReport {
        let mut slots: BTreeMap<u32, Fd> = BTreeMap::new();
        let mut report = TraceReport::default();
        let t0 = fs.now();
        for op in &self.ops {
            report.operations += 1;
            let outcome: Result<(), FsError> = match op {
                TraceOp::Mkdir { path } => fs.mkdir(path),
                TraceOp::Create { path, slot } => fs.create(path).map(|fd| {
                    slots.insert(*slot, fd);
                }),
                TraceOp::Open { path, slot } => fs.open(path).map(|fd| {
                    slots.insert(*slot, fd);
                }),
                TraceOp::Read { slot, bytes } => match slots.get(slot) {
                    Some(&fd) => fs.read(fd, *bytes).map(|r| {
                        report.bytes_read += r.bytes;
                    }),
                    None => Err(FsError::BadDescriptor),
                },
                TraceOp::Write { slot, bytes } => match slots.get(slot) {
                    Some(&fd) => fs.write(fd, *bytes).map(|r| {
                        report.bytes_written += r.bytes;
                    }),
                    None => Err(FsError::BadDescriptor),
                },
                TraceOp::Seek { slot, pos } => match slots.get(slot) {
                    Some(&fd) => fs.seek(fd, *pos),
                    None => Err(FsError::BadDescriptor),
                },
                TraceOp::Close { slot } => match slots.remove(slot) {
                    Some(fd) => fs.close(fd),
                    None => Err(FsError::BadDescriptor),
                },
                TraceOp::Unlink { path } => fs.unlink(path),
                TraceOp::Truncate { path, size } => fs.truncate(path, *size),
                TraceOp::ThinkMs { ms } => {
                    fs.advance_ms(*ms);
                    Ok(())
                }
            };
            if outcome.is_err() {
                report.failures += 1;
            }
        }
        report.elapsed_ms = fs.now().since(t0).as_ms();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filesystem::FsConfig;
    use readopt_alloc::PolicyConfig;
    use readopt_disk::ArrayConfig;

    fn fs() -> FileSystem {
        FileSystem::format(FsConfig {
            array: ArrayConfig::scaled(64),
            policy: PolicyConfig::paper_restricted(),
            cache: None,
            seed: 1,
        })
    }

    fn sample_trace() -> Trace {
        Trace {
            ops: vec![
                TraceOp::Mkdir { path: "/tmp".into() },
                TraceOp::Create { path: "/tmp/log".into(), slot: 0 },
                TraceOp::Write { slot: 0, bytes: 8192 },
                TraceOp::Write { slot: 0, bytes: 8192 },
                TraceOp::ThinkMs { ms: 25.0 },
                TraceOp::Seek { slot: 0, pos: 0 },
                TraceOp::Read { slot: 0, bytes: 16384 },
                TraceOp::Close { slot: 0 },
                TraceOp::Truncate { path: "/tmp/log".into(), size: 4096 },
                TraceOp::Unlink { path: "/tmp/log".into() },
            ],
        }
    }

    #[test]
    fn replay_executes_every_op() {
        let mut f = fs();
        let report = sample_trace().replay(&mut f);
        assert_eq!(report.operations, 10);
        assert_eq!(report.failures, 0);
        assert_eq!(report.bytes_written, 16384);
        assert_eq!(report.bytes_read, 16384);
        assert!(report.elapsed_ms > 25.0, "I/O time plus think time");
        f.policy().check_invariants();
    }

    #[test]
    fn json_round_trip() {
        let t = sample_trace();
        let json = t.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(t, back);
        assert!(Trace::from_json("not json").is_err());
    }

    /// A trace whose ops are a `Mkdir` and then one `ThinkMs` per entry
    /// of `thinks`, each a JSON number.
    fn think_trace(thinks: &[&str]) -> String {
        let mut ops = vec![r#"{ "Mkdir": { "path": "/d" } }"#.to_string()];
        ops.extend(thinks.iter().map(|ms| format!(r#"{{ "ThinkMs": {{ "ms": {ms} }} }}"#)));
        format!(r#"{{ "ops": [{}] }}"#, ops.join(", "))
    }

    /// Think times the clock cannot hold are refused at parse time, naming
    /// the op: a negative one (which a debug replay panicked on and a
    /// release replay read as 0), an infinite one, and ones that push the
    /// clock past its range (it saturated, and the replay reported
    /// `elapsed_ms` = 1.8e16).
    #[test]
    fn from_json_rejects_think_times_the_clock_cannot_hold() {
        let rows: [(&[&str], usize); 7] = [
            (&["-5"], 1),
            (&["1", "-0.001"], 2),
            (&["-1e999"], 1),
            (&["1e999"], 1),
            (&["1e300"], 1),
            (&["1e300", "1e300"], 1),
            (&["1e16", "1e16"], 2),
        ];
        for (thinks, bad_op) in rows {
            let err = Trace::from_json(&think_trace(thinks))
                .expect_err(&format!("think times {thinks:?} must be refused"));
            assert!(err.starts_with(&format!("op {bad_op}: ThinkMs")), "{thinks:?}: {err}");
        }
        for thinks in [&["0", "-0.0", "12.5"][..], &["1e16"]] {
            let trace = Trace::from_json(&think_trace(thinks)).expect("a time the clock holds");
            let report = trace.replay(&mut fs());
            assert_eq!(report.failures, 0);
        }
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let t = Trace {
            ops: vec![
                TraceOp::Open { path: "/missing".into(), slot: 0 },
                TraceOp::Read { slot: 0, bytes: 10 },
                TraceOp::Create { path: "/ok".into(), slot: 1 },
                TraceOp::Write { slot: 1, bytes: 1024 },
            ],
        };
        let mut f = fs();
        let report = t.replay(&mut f);
        assert_eq!(report.failures, 2, "open + dangling read");
        assert_eq!(report.bytes_written, 1024, "replay continued");
    }

    #[test]
    fn same_trace_compares_policies_fairly() {
        // The module's purpose: one trace, many policies, comparable costs.
        let t = {
            let mut ops = vec![TraceOp::Create { path: "/data".into(), slot: 0 }];
            for _ in 0..50 {
                ops.push(TraceOp::Write { slot: 0, bytes: 32 * 1024 });
            }
            ops.push(TraceOp::Seek { slot: 0, pos: 0 });
            for _ in 0..50 {
                ops.push(TraceOp::Read { slot: 0, bytes: 32 * 1024 });
            }
            Trace { ops }
        };
        let mut elapsed = Vec::new();
        for policy in [PolicyConfig::paper_restricted(), ExperimentFixed::aged_4k()] {
            let mut f = FileSystem::format(FsConfig {
                array: ArrayConfig::scaled(64),
                policy,
                cache: None,
                seed: 1,
            });
            let r = t.replay(&mut f);
            assert_eq!(r.failures, 0);
            elapsed.push(r.elapsed_ms);
        }
        assert!(
            elapsed[0] < elapsed[1],
            "contiguous layout replays the trace faster: {elapsed:?}"
        );
    }

    /// Local helper mirroring the experiment crate's aged fixed-block
    /// baseline without a dependency cycle.
    struct ExperimentFixed;
    impl ExperimentFixed {
        fn aged_4k() -> PolicyConfig {
            PolicyConfig::Fixed(readopt_alloc::FixedConfig { block_bytes: 4096, pre_age: true })
        }
    }
}
