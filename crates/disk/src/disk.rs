//! A single spindle with FCFS queueing and head-position state.

use crate::geometry::DiskGeometry;
use crate::mechanics::{service_breakdown, ServiceBreakdown};
use crate::request::IoKind;
use crate::stats::DiskStats;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One physical disk.
///
/// The disk services requests first-come-first-served. It remembers the
/// cylinder its head rests on and the absolute time at which it becomes free;
/// [`Disk::service`] advances both and returns the request's completion time.
#[derive(Debug, Clone)]
pub struct Disk {
    geom: DiskGeometry,
    head_cylinder: u32,
    free_at: SimTime,
    stats: DiskStats,
    /// Completion times of requests already accepted, oldest first. Used
    /// only for queue-depth observation: entries at or before a new
    /// request's ready time have drained and are pruned on arrival.
    inflight: VecDeque<SimTime>,
}

impl Disk {
    /// Creates a disk with its head parked on cylinder 0, idle at time zero.
    pub fn new(geom: DiskGeometry) -> Self {
        // simlint::allow(r3, "constructor contract: an invalid geometry is a caller bug, not a runtime condition")
        geom.validate().expect("invalid disk geometry");
        Disk {
            geom,
            head_cylinder: 0,
            free_at: SimTime::ZERO,
            stats: DiskStats::default(),
            inflight: VecDeque::new(),
        }
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geom
    }

    /// Cylinder the head currently rests on.
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    /// Absolute time at which the disk finishes its current backlog.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Clears counters; head position and queue state persist.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Estimates the service time of a request *without* executing it, for
    /// replica selection in mirrored configurations. `ready` is when the
    /// request could be handed to the disk.
    pub fn estimate(&self, ready: SimTime, start_sector: u64, nsectors: u64) -> (SimTime, ServiceBreakdown) {
        let begin = self.free_at.max(ready);
        let b = service_breakdown(&self.geom, self.head_cylinder, begin.as_ms(), start_sector, nsectors);
        (begin + SimDuration::from_ms(b.total_ms()), b)
    }

    /// Services a contiguous physical run of `nsectors` sectors starting at
    /// absolute sector `start_sector`. The request is queued behind any
    /// not-yet-finished work. Returns the completion time.
    pub fn service(&mut self, ready: SimTime, start_sector: u64, nsectors: u64, kind: IoKind) -> SimTime {
        debug_assert!(nsectors > 0, "empty physical request");
        debug_assert!(
            start_sector + nsectors <= self.geom.capacity_sectors(),
            "request [{start_sector}, +{nsectors}) beyond disk end {}",
            self.geom.capacity_sectors()
        );
        while self.inflight.front().is_some_and(|&done| done <= ready) {
            self.inflight.pop_front();
        }
        self.stats.observe_queue_depth(self.inflight.len());

        let begin = self.free_at.max(ready);
        let b = service_breakdown(&self.geom, self.head_cylinder, begin.as_ms(), start_sector, nsectors);
        let end = begin + SimDuration::from_ms(b.total_ms());

        let bytes = nsectors * self.geom.sector_bytes;
        self.stats.requests += 1;
        match kind {
            IoKind::Read => self.stats.bytes_read += bytes,
            IoKind::Write => self.stats.bytes_written += bytes,
        }
        if b.seek_ms > 0.0 {
            self.stats.seeks += 1;
        }
        self.stats.seek_ms += b.seek_ms;
        self.stats.rotational_ms += b.rotational_ms;
        self.stats.transfer_ms += b.transfer_ms;
        self.stats.busy_ms += b.total_ms();
        self.stats.head_switch_ms += b.head_switch_ms;
        if begin > ready {
            self.stats.queued_requests += 1;
            self.stats.queue_wait_ms += begin.as_ms() - ready.as_ms();
        }

        self.head_cylinder = self.geom.cylinder_of_sector(start_sector + nsectors - 1);
        self.free_at = end;
        self.inflight.push_back(end);
        end
    }

    /// Services a byte-addressed run (must be sector aligned).
    pub fn service_bytes(&mut self, ready: SimTime, start_byte: u64, nbytes: u64, kind: IoKind) -> SimTime {
        debug_assert_eq!(start_byte % self.geom.sector_bytes, 0, "unaligned start byte");
        debug_assert_eq!(nbytes % self.geom.sector_bytes, 0, "unaligned byte count");
        self.service(ready, start_byte / self.geom.sector_bytes, nbytes / self.geom.sector_bytes, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::KB;

    fn disk() -> Disk {
        Disk::new(DiskGeometry::wren_iv())
    }

    #[test]
    fn first_request_from_cylinder_zero_has_no_seek() {
        let mut d = disk();
        let end = d.service(SimTime::ZERO, 0, 1, IoKind::Read);
        assert_eq!(d.stats().seeks, 0);
        assert!(end.as_ms() <= d.geometry().rotation_ms + d.geometry().sector_time_ms() + 1e-6);
        assert_eq!(d.stats().bytes_read, 512);
    }

    #[test]
    fn queueing_is_fcfs() {
        let mut d = disk();
        let end1 = d.service(SimTime::ZERO, 0, 8, IoKind::Read);
        // Second request ready before the first finishes: starts at end1.
        let end2 = d.service(SimTime::ZERO, 8, 8, IoKind::Read);
        assert!(end2 > end1);
        assert_eq!(d.free_at(), end2);
    }

    #[test]
    fn idle_gap_is_respected() {
        let mut d = disk();
        let end1 = d.service(SimTime::ZERO, 0, 1, IoKind::Read);
        let later = end1 + SimDuration::from_ms(100.0);
        let end2 = d.service(later, 0, 1, IoKind::Read);
        assert!(end2 > later, "service begins at ready time, not before");
    }

    #[test]
    fn head_moves_to_last_sector_cylinder() {
        let mut d = disk();
        let per_cyl = d.geometry().sectors_per_track() * d.geometry().tracks_per_cylinder();
        d.service(SimTime::ZERO, per_cyl * 5, 1, IoKind::Write);
        assert_eq!(d.head_cylinder(), 5);
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.stats().bytes_written, 512);
    }

    #[test]
    fn sequential_runs_after_each_other_do_not_seek() {
        let mut d = disk();
        d.service(SimTime::ZERO, 0, 48, IoKind::Read);
        let seeks_before = d.stats().seeks;
        d.service(SimTime::ZERO, 48, 48, IoKind::Read); // same cylinder, next surface
        assert_eq!(d.stats().seeks, seeks_before);
    }

    #[test]
    fn estimate_matches_service() {
        let d0 = disk();
        let (est_end, _) = d0.estimate(SimTime::from_ms(3.0), 1234, 16);
        let mut d1 = d0.clone();
        let end = d1.service(SimTime::from_ms(3.0), 1234, 16, IoKind::Read);
        assert_eq!(est_end, end);
    }

    #[test]
    fn service_bytes_converts_sectors() {
        let mut d = disk();
        d.service_bytes(SimTime::ZERO, 24 * KB, 24 * KB, IoKind::Read);
        assert_eq!(d.stats().bytes_read, 24 * KB);
    }

    #[test]
    fn busy_time_decomposes() {
        let mut d = disk();
        let per_cyl = d.geometry().sectors_per_track() * d.geometry().tracks_per_cylinder();
        d.service(SimTime::ZERO, per_cyl * 100, 96, IoKind::Read);
        let s = d.stats();
        assert!((s.busy_ms - (s.seek_ms + s.rotational_ms + s.transfer_ms)).abs() < 1e-9);
        assert!(s.transfer_efficiency() > 0.0 && s.transfer_efficiency() < 1.0);
    }

    #[test]
    fn queue_wait_accounts_time_behind_backlog() {
        let mut d = disk();
        let end1 = d.service(SimTime::ZERO, 0, 48, IoKind::Read);
        let end2 = d.service(SimTime::ZERO, 480, 8, IoKind::Read);
        let s = d.stats();
        assert_eq!(s.queued_requests, 1, "only the second request waited");
        assert!((s.queue_wait_ms - end1.as_ms()).abs() < 1e-9, "it waited for the whole first request");
        // Queue wait is accounted separately from busy time.
        assert!((s.busy_ms - (s.seek_ms + s.rotational_ms + s.transfer_ms)).abs() < 1e-9);
        assert!(end2 > end1);
    }

    #[test]
    fn queue_depth_histogram_counts_arrivals() {
        let mut d = disk();
        d.service(SimTime::ZERO, 0, 48, IoKind::Read); // arrives idle: depth 0
        d.service(SimTime::ZERO, 480, 8, IoKind::Read); // behind 1
        d.service(SimTime::ZERO, 960, 8, IoKind::Read); // behind 2
        let far_future = d.free_at() + SimDuration::from_ms(1.0);
        d.service(far_future, 0, 1, IoKind::Read); // backlog drained: depth 0
        let h = &d.stats().queue_depth_hist;
        assert_eq!(h[0], 2);
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 1);
        assert_eq!(h.iter().sum::<u64>(), d.stats().requests);
    }

    #[test]
    fn head_switch_time_accumulates() {
        let mut d = disk();
        let spt = d.geometry().sectors_per_track();
        d.service(SimTime::ZERO, 0, 2 * spt, IoKind::Read); // one intra-cylinder boundary
        let s = d.stats();
        assert!((s.head_switch_ms - d.geometry().head_switch_ms).abs() < 1e-9);
        assert!(s.head_switch_ms <= s.transfer_ms);
    }

    #[test]
    fn reset_stats_keeps_position() {
        let mut d = disk();
        let per_cyl = d.geometry().sectors_per_track() * d.geometry().tracks_per_cylinder();
        d.service(SimTime::ZERO, per_cyl * 7, 1, IoKind::Read);
        d.reset_stats();
        assert_eq!(d.stats().requests, 0);
        assert_eq!(d.head_cylinder(), 7);
    }
}
