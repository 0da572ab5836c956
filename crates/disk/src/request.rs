//! Logical I/O requests against a [`crate::DiskArray`] and their service
//! windows.

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
