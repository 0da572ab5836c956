//! Logical I/O requests and the [`Storage`] trait all array layouts expose.

use crate::stats::StorageStats;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Direction of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Disk → memory.
    Read,
    /// Memory → disk.
    Write,
}

/// A logical request against the array's linear address space, measured in
/// disk units (§2.1: "The disks are addressed by disk units").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// First disk unit.
    pub unit: u64,
    /// Number of disk units.
    pub units: u64,
    /// Transfer direction.
    pub kind: IoKind,
}

impl IoRequest {
    /// Convenience constructor for a read.
    pub fn read(unit: u64, units: u64) -> Self {
        IoRequest { unit, units, kind: IoKind::Read }
    }

    /// Convenience constructor for a write.
    pub fn write(unit: u64, units: u64) -> Self {
        IoRequest { unit, units, kind: IoKind::Write }
    }

    /// One-past-the-end unit.
    pub fn end(&self) -> u64 {
        self.unit + self.units
    }
}

/// The service window of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSpan {
    /// When the first involved disk starts moving this request's bytes
    /// (i.e. after any queueing delay). Never earlier than `ready`.
    pub begin: SimTime,
    /// When the last involved disk finishes.
    pub end: SimTime,
}

impl IoSpan {
    /// Service-window length.
    pub fn duration_ms(&self) -> f64 {
        self.end.since(self.begin).as_ms()
    }
}

/// A disk system presenting a linear space of disk units.
///
/// Implementations model per-disk FCFS queues: `submit` computes when the
/// request would complete given each involved disk's current backlog and
/// head position, updates that state, and returns the service window (queue
/// wait excluded from `begin`, so throughput attribution over the span
/// reflects when bytes actually move). Submissions must be made in
/// non-decreasing `ready` order per disk for the queueing model to be
/// meaningful; the simulator's event loop guarantees this globally.
///
/// `Send` is required so boxed storage (and the simulations owning it) can
/// move to experiment-runner worker threads.
pub trait Storage: Send {
    /// Size of one disk unit in bytes.
    fn disk_unit_bytes(&self) -> u64;

    /// Usable capacity in disk units (excludes parity/mirror overhead).
    fn capacity_units(&self) -> u64;

    /// Number of physical disks (including parity/mirror disks).
    fn ndisks(&self) -> usize;

    /// Submits a logical request that becomes ready at `ready`; returns its
    /// service window.
    fn submit(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan;

    /// Earliest time at which every disk has drained its queued work (the
    /// array is fully idle). Used to separate consecutive tests cleanly.
    fn next_idle(&self) -> SimTime;

    /// Snapshot of the accumulated activity counters.
    fn stats(&self) -> StorageStats;

    /// Clears activity counters (head positions and queue state persist).
    fn reset_stats(&mut self);

    /// Usable capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.capacity_units() * self.disk_unit_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = IoRequest::read(10, 5);
        assert_eq!(r.kind, IoKind::Read);
        assert_eq!(r.end(), 15);
        let w = IoRequest::write(0, 1);
        assert_eq!(w.kind, IoKind::Write);
        assert_eq!(w.end(), 1);
    }
}
