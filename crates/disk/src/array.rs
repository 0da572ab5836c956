//! The plain striped disk array — the configuration used for every result
//! published in the paper.
//!
//! Data is striped across `N` disks with a configurable *stripe unit* (§2.1:
//! "the number of bytes allocated on a single disk before allocation is
//! performed on the next disk"). The array exposes a linear logical address
//! space of *disk units*; logical stripe `s` lives on disk `s mod N` at
//! physical stripe slot `s div N`, so a logically contiguous run maps to one
//! physically contiguous run per disk — which is exactly why the paper's
//! allocation policies chase contiguity: it buys both fewer seeks *and* free
//! parallelism.
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

use crate::disk::Disk;
use crate::geometry::DiskGeometry;
use crate::request::{IoKind, IoRequest, IoSpan, Storage};
use crate::stats::StorageStats;
use crate::time::SimTime;
use serde::{de_field, Serialize, Value};

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

/// An array of identical disks with data striped across all of them and no
/// redundancy (the paper's default: "the results described in this study
/// assume no parity information … and merely stripe the data").
#[derive(Debug, Clone)]
pub struct StripedArray {
    disks: Vec<Disk>,
    stripe_unit_bytes: u64,
    disk_unit_bytes: u64,
    /// Usable bytes per member (the smallest disk's capacity, stripe
    /// aligned) — relevant for heterogeneous arrays.
    per_disk_share_bytes: u64,
    stats: StorageStats,
}

impl StripedArray {
    /// Builds an array of `ndisks` identical disks.
    ///
    /// `stripe_unit_bytes` must be a positive multiple of both the sector
    /// size and `disk_unit_bytes`; `disk_unit_bytes` must be a multiple of
    /// the sector size (§2.1 requires the stripe unit ≥ every sector size).
    pub fn new(geom: DiskGeometry, ndisks: usize, stripe_unit_bytes: u64, disk_unit_bytes: u64) -> Self {
        Self::heterogeneous(vec![geom; ndisks], stripe_unit_bytes, disk_unit_bytes)
    }

    /// Builds an array from per-disk geometries — §2.1: "the disk system is
    /// designed to allow multiple heterogeneous devices."
    ///
    /// Striping requires an equal logical share per member, so the usable
    /// space per disk is the *smallest* member's capacity (rounded down to
    /// whole stripe units); larger members' surplus cylinders go unused.
    /// Mechanics stay per-disk: a slow spindle gates every row it serves.
    pub fn heterogeneous(geoms: Vec<DiskGeometry>, stripe_unit_bytes: u64, disk_unit_bytes: u64) -> Self {
        assert!(!geoms.is_empty(), "array needs at least one disk");
        for geom in &geoms {
            // simlint::allow(r3, "constructor contract: an invalid geometry is a caller bug, not a runtime condition")
            geom.validate().expect("invalid disk geometry");
            assert!(disk_unit_bytes > 0 && disk_unit_bytes.is_multiple_of(geom.sector_bytes),
                "disk unit must be a positive multiple of every sector size");
        }
        assert!(stripe_unit_bytes > 0 && stripe_unit_bytes.is_multiple_of(disk_unit_bytes),
            "stripe unit must be a positive multiple of the disk unit");
        let min_capacity = geoms
            .iter()
            .map(DiskGeometry::capacity_bytes)
            .min()
            // simlint::allow(r3, "geoms non-emptiness asserted at the top of the constructor")
            .unwrap_or_else(|| unreachable!("asserted non-empty above"));
        let share = min_capacity / stripe_unit_bytes * stripe_unit_bytes;
        assert!(share > 0, "smallest disk below one stripe unit");
        let ndisks = geoms.len();
        StripedArray {
            disks: geoms.into_iter().map(Disk::new).collect(),
            stripe_unit_bytes,
            disk_unit_bytes,
            per_disk_share_bytes: share,
            stats: StorageStats::new(ndisks),
        }
    }

    /// The stripe unit in bytes.
    pub fn stripe_unit_bytes(&self) -> u64 {
        self.stripe_unit_bytes
    }

    /// Immutable view of the underlying disks.
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    fn account(&mut self, req: &IoRequest) {
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
    }

}

impl Storage for StripedArray {
    fn disk_unit_bytes(&self) -> u64 {
        self.disk_unit_bytes
    }

    fn capacity_units(&self) -> u64 {
        self.disks.len() as u64 * self.per_disk_share_bytes / self.disk_unit_bytes
    }

    fn ndisks(&self) -> usize {
        self.disks.len()
    }

    fn submit(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan {
        debug_assert!(req.units > 0, "empty request");
        debug_assert!(req.end() <= self.capacity_units(), "request beyond array end");
        self.account(req);
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

    fn next_idle(&self) -> SimTime {
        self.disks.iter().map(Disk::free_at).max().unwrap_or(SimTime::ZERO)
    }

    fn stats(&self) -> StorageStats {
        let mut snap = self.stats.clone();
        for (i, d) in self.disks.iter().enumerate() {
            snap.per_disk[i] = d.stats().clone();
        }
        snap
    }

    fn reset_stats(&mut self) {
        for d in &mut self.disks {
            d.reset_stats();
        }
        self.stats.reset();
    }

    fn checkpoint_state(&self) -> Option<Value> {
        Some(Value::Object(vec![
            (
                "disks".to_string(),
                Value::Array(self.disks.iter().map(Disk::checkpoint_state).collect()),
            ),
            ("logical".to_string(), self.stats.to_value()),
        ]))
    }

    fn restore_state(&mut self, snapshot: &Value) -> Result<(), String> {
        let Some(Value::Array(disk_snaps)) = snapshot.get("disks") else {
            return Err("array snapshot missing the per-disk states".into());
        };
        if disk_snaps.len() != self.disks.len() {
            return Err(format!(
                "snapshot holds {} disks, array has {}",
                disk_snaps.len(),
                self.disks.len()
            ));
        }
        let logical: StorageStats = de_field(snapshot, "logical").map_err(|e| e.to_string())?;
        if logical.per_disk.len() != self.disks.len() {
            return Err(format!(
                "logical stats cover {} disks, array has {}",
                logical.per_disk.len(),
                self.disks.len()
            ));
        }
        // Validate every member against its geometry before committing any.
        let mut disks = self.disks.clone();
        for (disk, snap) in disks.iter_mut().zip(disk_snaps) {
            disk.restore_checkpoint_state(snap)?;
        }
        self.disks = disks;
        self.stats = logical;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::KB;

    fn array() -> StripedArray {
        StripedArray::new(DiskGeometry::wren_iv(), 8, 24 * KB, KB)
    }

    #[test]
    fn capacity_is_eight_disks() {
        let a = array();
        assert_eq!(a.capacity_bytes(), 8 * DiskGeometry::wren_iv().capacity_bytes());
        assert_eq!(a.capacity_units() * KB, a.capacity_bytes());
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
    fn checkpoint_roundtrips_and_validates_shape() {
        let mut a = array();
        a.submit(SimTime::ZERO, &IoRequest::read(0, 8 * 24));
        a.submit(SimTime::ZERO, &IoRequest::write(8 * 24, 4));
        let snap = a.checkpoint_state().unwrap();
        let mut r = array();
        r.restore_state(&snap).unwrap();
        assert_eq!(r.stats(), a.stats());
        assert_eq!(r.next_idle(), a.next_idle());
        // Identical future behavior after restore.
        let s1 = a.submit(SimTime::ZERO, &IoRequest::read(17, 40));
        let s2 = r.submit(SimTime::ZERO, &IoRequest::read(17, 40));
        assert_eq!(s1, s2);
        assert_eq!(r.stats(), a.stats());
        // A snapshot from a differently-sized array is rejected.
        let mut small = StripedArray::new(DiskGeometry::wren_iv(), 4, 24 * KB, KB);
        let err = small.restore_state(&snap).unwrap_err();
        assert!(err.contains("8 disks"), "{err}");
    }

    #[test]
    #[should_panic(expected = "stripe unit")]
    fn rejects_stripe_unit_not_multiple_of_disk_unit() {
        StripedArray::new(DiskGeometry::wren_iv(), 8, 1536, KB);
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

    #[test]
    fn heterogeneous_capacity_is_bounded_by_smallest_member() {
        let geoms = vec![
            DiskGeometry::wren_iv_scaled(16), // 100 cylinders
            DiskGeometry::wren_iv_scaled(8),  // 200 cylinders
            DiskGeometry::wren_iv_scaled(16),
            DiskGeometry::wren_iv_scaled(4),  // 400 cylinders
        ];
        let a = StripedArray::heterogeneous(geoms, 24 * KB, KB);
        assert_eq!(
            a.capacity_bytes(),
            4 * DiskGeometry::wren_iv_scaled(16).capacity_bytes(),
            "every member contributes only the smallest member's share"
        );
        assert_eq!(a.ndisks(), 4);
    }

    #[test]
    fn slow_member_gates_heterogeneous_rows() {
        // One member spins at half speed: a full-row read completes when
        // the slow disk finishes.
        let slow = DiskGeometry { rotation_ms: 33.34, ..DiskGeometry::wren_iv_scaled(16) };
        let geoms = vec![
            DiskGeometry::wren_iv_scaled(16),
            DiskGeometry::wren_iv_scaled(16),
            DiskGeometry::wren_iv_scaled(16),
            slow,
        ];
        let mut hetero = StripedArray::heterogeneous(geoms, 24 * KB, KB);
        let mut uniform = StripedArray::new(DiskGeometry::wren_iv_scaled(16), 4, 24 * KB, KB);
        let h = hetero.submit(SimTime::ZERO, &IoRequest::read(0, 4 * 24)).end;
        let u = uniform.submit(SimTime::ZERO, &IoRequest::read(0, 4 * 24)).end;
        assert!(h.as_ms() > 1.5 * u.as_ms(), "hetero {h} vs uniform {u}");
    }
}
