//! The disk array: one type, [`DiskArray`], for all four §2.1 layouts.
//!
//! An [`ArrayConfig`] names the layout; [`ArrayConfig::build`] validates it
//! and returns a `DiskArray` of identical disks. The array does the logical
//! request accounting once and hands each request to its layout's body:
//! plain striping (below), mirrored pairs (`array/mirror.rs`),
//! rotated-parity RAID-5 (`array/raid.rs`) or Gray's parity striping
//! (`array/parity_stripe.rs`).
//!
//! Plain striping is the configuration used for every result published in
//! the paper. Data is striped across `N` disks with a configurable *stripe
//! unit* (§2.1: "the number of bytes allocated on a single disk before
//! allocation is performed on the next disk"). The array exposes a linear
//! logical address space of *disk units*; logical stripe `s` lives on disk
//! `s mod N` at physical stripe slot `s div N`, so a logically contiguous run
//! maps to one physically contiguous run per disk — which is exactly why the
//! paper's allocation policies chase contiguity: it buys both fewer seeks
//! *and* free parallelism.
//!
//! [`striped_runs`] computes those runs in closed form. A range covering
//! stripes `s0..=s1` touches `min(s1 - s0 + 1, N)` disks, first met in the
//! order `s0, s0 + 1, …`. The stripes `s, s + N, s + 2N, …` of one disk fill
//! its consecutive slots, so each disk's run starts in the row of its first
//! stripe (offset into the stripe unit only for `s0`) and ends in the row of
//! its last one: row `s1 div N` for the disks up to `s1 mod N`, the row
//! before for the rest (cut short only on disk `s1 mod N`). A request costs
//! the same few integer divisions whatever its length, and allocates
//! nothing.

mod mirror;
mod parity_stripe;
mod raid;

use crate::config::{ArrayConfig, ArrayLayout};
use crate::disk::Disk;
use crate::request::{IoKind, IoRequest, IoSpan};
use crate::stats::StorageStats;
use crate::time::SimTime;

/// A contiguous physical run on one disk, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalRun {
    /// Index of the disk holding the run.
    pub disk: usize,
    /// First physical byte on that disk.
    pub start_byte: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Decomposes a logical byte range into per-disk physical runs under plain
/// striping: one run for each disk the range touches, holding every chunk
/// that disk serves.
///
/// The runs come in the order of their first chunk, which is also the
/// order in which each disk must service its own runs.
pub fn striped_runs(start_byte: u64, len: u64, stripe_unit: u64, ndisks: usize) -> StripedRuns {
    debug_assert!(stripe_unit > 0 && ndisks > 0);
    let n = ndisks as u64;
    let first = start_byte / stripe_unit;
    let last = (start_byte + len).saturating_sub(1) / stripe_unit;
    let stripes = if len == 0 { 0 } else { last - first + 1 };
    StripedRuns {
        stripe_unit,
        ndisks,
        disk: (first % n) as usize,
        row: first / n,
        head: start_byte - first * stripe_unit,
        remaining: stripes.min(n) as usize,
        last_disk: (last % n) as usize,
        last_row: last / n,
        tail: start_byte + len - last * stripe_unit,
    }
}

/// Iterator over the runs of [`striped_runs`].
#[derive(Debug, Clone)]
pub struct StripedRuns {
    stripe_unit: u64,
    ndisks: usize,
    /// Disk and stripe row of the next run's first chunk.
    disk: usize,
    row: u64,
    /// Bytes the next run skips at the start of its first chunk (non-zero
    /// only for the range's first stripe).
    head: u64,
    remaining: usize,
    /// Disk and row of the range's last stripe.
    last_disk: usize,
    last_row: u64,
    /// Bytes of the last stripe inside the range, in `1..=stripe_unit`.
    tail: u64,
}

impl Iterator for StripedRuns {
    type Item = PhysicalRun;

    fn next(&mut self) -> Option<PhysicalRun> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let disk = self.disk;
        let su = self.stripe_unit;
        let start_byte = self.row * su + self.head;
        let end_byte = if disk == self.last_disk {
            self.last_row * su + self.tail
        } else if disk < self.last_disk {
            (self.last_row + 1) * su
        } else {
            self.last_row * su
        };
        self.head = 0;
        self.disk += 1;
        if self.disk == self.ndisks {
            self.disk = 0;
            self.row += 1;
        }
        Some(PhysicalRun {
            disk,
            start_byte,
            len: end_byte - start_byte,
        })
    }
}

/// An array of identical disks presenting one linear space of disk units
/// under one of the four §2.1 layouts.
///
/// Each disk is an FCFS queue: [`DiskArray::submit`] computes when a
/// request would complete given each involved disk's current backlog and
/// head position, updates that state, and returns the service window (queue
/// wait excluded from `begin`, so throughput attribution over the span
/// reflects when bytes actually move). Submissions must be made in
/// non-decreasing `ready` order per disk for the queueing model to be
/// meaningful; the simulator's event loop guarantees this globally.
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
    layout: ArrayLayout,
    stripe_unit_bytes: u64,
    disk_unit_bytes: u64,
    /// Usable capacity, from [`ArrayConfig::capacity_units`].
    capacity_units: u64,
    stats: StorageStats,
    /// Index of a failed disk, if a RAID-5 array is degraded.
    failed: Option<usize>,
}

impl DiskArray {
    /// Builds the array `config` describes; [`ArrayConfig::build`] has
    /// validated it.
    pub(crate) fn new(config: &ArrayConfig) -> Self {
        DiskArray {
            disks: (0..config.ndisks).map(|_| Disk::new(config.geometry)).collect(),
            layout: config.layout,
            stripe_unit_bytes: config.stripe_unit_bytes,
            disk_unit_bytes: config.disk_unit_bytes,
            capacity_units: config.capacity_units(),
            stats: StorageStats::new(config.ndisks),
            failed: None,
        }
    }

    /// Size of one disk unit in bytes.
    pub fn disk_unit_bytes(&self) -> u64 {
        self.disk_unit_bytes
    }

    /// Usable capacity in disk units (excludes parity/mirror overhead).
    pub fn capacity_units(&self) -> u64 {
        self.capacity_units
    }

    /// Number of physical disks (including parity/mirror disks).
    pub fn ndisks(&self) -> usize {
        self.disks.len()
    }

    /// Submits a logical request that becomes ready at `ready`; returns its
    /// service window.
    pub fn submit(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan {
        debug_assert!(req.units > 0, "empty request");
        debug_assert!(req.end() <= self.capacity_units, "request beyond array end");
        let bytes = req.units * self.disk_unit_bytes;
        match req.kind {
            IoKind::Read => {
                self.stats.logical_reads += 1;
                self.stats.logical_bytes_read += bytes;
            }
            IoKind::Write => {
                self.stats.logical_writes += 1;
                self.stats.logical_bytes_written += bytes;
            }
        }
        match self.layout {
            ArrayLayout::Striped => self.submit_striped(ready, req),
            ArrayLayout::Mirrored => self.submit_mirrored(ready, req),
            ArrayLayout::Raid5 => self.submit_raid5(ready, req),
            ArrayLayout::ParityStriped => self.submit_parity_striped(ready, req),
        }
    }

    /// Plain striping, no redundancy (the paper's default: "the results
    /// described in this study assume no parity information … and merely
    /// stripe the data").
    fn submit_striped(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan {
        let start = req.unit * self.disk_unit_bytes;
        let len = req.units * self.disk_unit_bytes;
        let mut begin = SimTime::MAX;
        let mut end = ready;
        for run in striped_runs(start, len, self.stripe_unit_bytes, self.disks.len()) {
            begin = begin.min(self.disks[run.disk].free_at().max(ready));
            let completion = self.disks[run.disk].service_bytes(ready, run.start_byte, run.len, req.kind);
            end = end.max(completion);
        }
        IoSpan { begin: begin.min(end), end }
    }

    /// Earliest time at which every disk has drained its queued work (the
    /// array is fully idle). Used to separate consecutive tests cleanly.
    pub fn next_idle(&self) -> SimTime {
        self.disks.iter().map(Disk::free_at).max().unwrap_or(SimTime::ZERO)
    }

    /// Snapshot of the accumulated activity counters.
    pub fn stats(&self) -> StorageStats {
        let mut snap = self.stats.clone();
        for (i, d) in self.disks.iter().enumerate() {
            snap.per_disk[i] = d.stats().clone();
        }
        snap
    }

    /// Clears activity counters (head positions and queue state persist).
    pub fn reset_stats(&mut self) {
        for d in &mut self.disks {
            d.reset_stats();
        }
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{DiskGeometry, KB};

    fn array() -> DiskArray {
        ArrayConfig::paper_default().build()
    }

    #[test]
    fn runs_round_robin_across_disks() {
        // 4 stripe units starting at 0 → disks 0,1,2,3, each one chunk.
        let runs: Vec<_> = striped_runs(0, 4 * 24 * KB, 24 * KB, 8).collect();
        assert_eq!(runs.len(), 4);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.disk, i);
            assert_eq!(r.start_byte, 0);
            assert_eq!(r.len, 24 * KB);
        }
    }

    #[test]
    fn runs_merge_physically_adjacent_chunks() {
        // Two full rows across 4 disks → each disk gets ONE 2-stripe-unit run.
        let su = 24 * KB;
        let runs: Vec<_> = striped_runs(0, 8 * su, su, 4).collect();
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert_eq!(r.len, 2 * su);
            assert_eq!(r.start_byte, 0);
        }
    }

    #[test]
    fn runs_handle_unaligned_ends() {
        let su = 24 * KB;
        // Start mid-stripe-unit, cover 1.5 units.
        let runs: Vec<_> = striped_runs(su / 2, su + su / 2, su, 8).collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], PhysicalRun { disk: 0, start_byte: su / 2, len: su / 2 });
        assert_eq!(runs[1], PhysicalRun { disk: 1, start_byte: 0, len: su });
        let total: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, su + su / 2);
    }

    #[test]
    fn runs_conserve_bytes_and_stay_in_bounds() {
        for (start, len) in [(0u64, 1u64), (1000, 24 * KB * 17 + 13), (24 * KB * 5, 512)] {
            let runs: Vec<_> = striped_runs(start, len, 24 * KB, 8).collect();
            assert_eq!(runs.iter().map(|r| r.len).sum::<u64>(), len);
            for r in &runs {
                assert!(r.disk < 8);
            }
        }
    }

    #[test]
    fn small_request_touches_one_disk() {
        let mut a = array();
        a.submit(SimTime::ZERO, &IoRequest::read(0, 8)); // 8 KB inside one 24 KB stripe unit
        let stats = a.stats();
        let busy = stats.per_disk.iter().filter(|d| d.requests > 0).count();
        assert_eq!(busy, 1);
        assert_eq!(a.stats().logical_bytes_read, 8 * KB);
    }

    #[test]
    fn large_request_engages_all_disks_in_parallel() {
        let mut a = array();
        // One full row: 8 × 24 KB.
        let end_row = a.submit(SimTime::ZERO, &IoRequest::read(0, 8 * 24)).end;
        let busy = a.stats().per_disk.iter().filter(|d| d.requests > 0).count();
        assert_eq!(busy, 8);

        // Same bytes on a single disk would take ~8× the transfer time; the
        // parallel version must be far faster than serial.
        let mut single = Disk::new(DiskGeometry::wren_iv());
        let serial_end = single.service_bytes(SimTime::ZERO, 0, 8 * 24 * KB, IoKind::Read);
        assert!(end_row.as_ms() < serial_end.as_ms() / 3.0,
            "parallel {} vs serial {}", end_row, serial_end);
    }

    #[test]
    fn write_accounting_separates_directions() {
        let mut a = array();
        a.submit(SimTime::ZERO, &IoRequest::write(0, 4));
        a.submit(SimTime::ZERO, &IoRequest::read(100, 2));
        assert_eq!(a.stats().logical_writes, 1);
        assert_eq!(a.stats().logical_reads, 1);
        assert_eq!(a.stats().logical_bytes_written, 4 * KB);
        assert_eq!(a.stats().logical_bytes_read, 2 * KB);
        assert!((a.stats().write_amplification() - 1.0).abs() < 1e-12, "no redundancy");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut a = array();
        a.submit(SimTime::ZERO, &IoRequest::read(0, 8 * 24));
        a.reset_stats();
        assert_eq!(a.stats().combined().requests, 0);
        assert_eq!(a.stats().logical_reads, 0);
    }

    #[test]
    #[should_panic(expected = "stripe unit")]
    fn rejects_stripe_unit_not_multiple_of_disk_unit() {
        ArrayConfig { stripe_unit_bytes: 1536, ..ArrayConfig::paper_default() }.build();
    }

    #[test]
    fn span_begin_is_ready_when_idle() {
        let mut a = array();
        let ready = SimTime::from_ms(100.0);
        let span = a.submit(ready, &IoRequest::read(0, 8));
        assert_eq!(span.begin, ready, "idle disk starts immediately");
        assert!(span.end > span.begin);
    }

    #[test]
    fn span_begin_reflects_queueing_delay() {
        let mut a = array();
        // Occupy disk 0 with a long transfer, then submit a small request
        // to the same disk at time zero: it cannot begin until the first
        // one finishes.
        let first = a.submit(SimTime::ZERO, &IoRequest::read(0, 24));
        let second = a.submit(SimTime::ZERO, &IoRequest::read(8 * 24, 8)); // same disk, next row
        assert_eq!(second.begin, first.end, "FCFS queueing delays the start");
        assert!(second.duration_ms() < first.end.as_ms(), "service itself is short");
    }

    #[test]
    fn concurrent_requests_to_different_disks_overlap() {
        let mut a = array();
        let s0 = a.submit(SimTime::ZERO, &IoRequest::read(0, 8)); // disk 0
        let s1 = a.submit(SimTime::ZERO, &IoRequest::read(24, 8)); // disk 1
        assert_eq!(s1.begin, SimTime::ZERO, "different spindle: no wait");
        assert!(s0.end > SimTime::ZERO && s1.end > SimTime::ZERO);
    }
}
