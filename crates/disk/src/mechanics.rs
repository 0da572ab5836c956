//! Service-time mechanics: rotational latency and closed-form transfer time.
//!
//! A request's service time decomposes into
//!
//! 1. **seek** — `ST + N·SI` from the head's current cylinder to the target
//!    cylinder ([`DiskGeometry::seek_time_ms`]);
//! 2. **rotational latency** — the platter keeps spinning during the seek, so
//!    latency is computed from the absolute time at which the seek completes:
//!    the rotational *phase* at instant `t` is `(t mod rotation) /
//!    sector_time` sectors, and the head must wait for the target sector to
//!    come around;
//! 3. **transfer** — one sector time per sector, plus a head-switch penalty
//!    per track boundary and a single-track seek per cylinder boundary
//!    (computed in closed form, so multi-hundred-megabyte requests cost O(1)
//!    to evaluate). The crossings are counted once and give both the
//!    transfer time and its head-switch share.
//!
//! The phase arithmetic takes no floating-point remainder, yet gives bit
//! for bit what one would. Times are never negative, so for `q = t /
//! rotation ≥ 0` the fractional rotation is `q - trunc(q)`: that
//! subtraction is exact (for `q ≥ 1`, `trunc(q) ≤ q ≤ 2·trunc(q)`, so
//! Sterbenz's lemma applies; below 1 it subtracts zero), and a remainder of
//! `q` by 1 is the same exact value. The distance from the phase (in
//! `[0, spt)`) to a target sector (in `[0, spt)`) lies in `(-spt, spt)`,
//! where the remainder modulo `spt` is the distance itself, plus `spt` when
//! it is negative — one comparison and one add.

use crate::geometry::DiskGeometry;

/// Breakdown of one physical request's service time, all in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceBreakdown {
    /// Initial seek to the first sector's cylinder.
    pub seek_ms: f64,
    /// Rotational latency waiting for the first sector.
    pub rotational_ms: f64,
    /// Media transfer including track/cylinder crossing penalties.
    pub transfer_ms: f64,
    /// Head-switch penalties inside the transfer. Informational: this time
    /// is a *subset* of `transfer_ms`, not an additional component, so
    /// `total_ms` stays `seek + rotational + transfer`.
    pub head_switch_ms: f64,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total_ms(&self) -> f64 {
        self.seek_ms + self.rotational_ms + self.transfer_ms
    }
}

/// Head switches and cylinder crossings a contiguous run incurs.
///
/// A track boundary inside a cylinder costs a head switch; a cylinder
/// boundary costs a single-track seek instead (the head assembly moves, so
/// no separate switch is charged).
fn crossing_counts(geom: &DiskGeometry, start_sector: u64, nsectors: u64) -> (u64, u64) {
    if nsectors == 0 {
        return (0, 0);
    }
    let spt = geom.sectors_per_track();
    let tpc = geom.tracks_per_cylinder();
    let first_track = start_sector / spt;
    let last_track = (start_sector + nsectors - 1) / spt;
    let track_crossings = last_track - first_track;
    let cylinder_crossings = last_track / tpc - first_track / tpc;
    (track_crossings - cylinder_crossings, cylinder_crossings)
}

/// Rotational phase of the platter at absolute time `at_ms ≥ 0`, expressed
/// as a fractional sector index in `[0, sectors_per_track)`.
///
/// All surfaces share a spindle, so the phase is a property of the disk, not
/// of a track: the sector with index `k` passes under the heads when the
/// phase equals `k`.
pub fn rotational_phase_sectors(geom: &DiskGeometry, at_ms: f64) -> f64 {
    let spt = geom.sectors_per_track() as f64;
    let q = at_ms / geom.rotation_ms;
    (q - q.trunc()) * spt
}

/// Tolerance (in sectors) for "the target sector is arriving right now".
///
/// Event timestamps are rounded to the microsecond, so a request that ends
/// exactly at a sector boundary can appear to start a fraction of a
/// microsecond *past* the next sector and would otherwise be charged a
/// phantom full rotation. 0.02 sectors ≈ 7 µs on the Wren IV — far below
/// anything the model resolves, far above the rounding error.
pub const SECTOR_PHASE_TOLERANCE: f64 = 0.02;

/// Time the head must wait, starting at `at_ms ≥ 0`, for
/// sector-within-track `target_sector` to arrive under it.
pub fn rotational_latency_ms(geom: &DiskGeometry, at_ms: f64, target_sector: u32) -> f64 {
    let spt = geom.sectors_per_track() as f64;
    let phase = rotational_phase_sectors(geom, at_ms);
    let mut distance = f64::from(target_sector) - phase;
    if distance < 0.0 {
        distance += spt;
    }
    if distance > spt - SECTOR_PHASE_TOLERANCE {
        // Just-missed by less than the timestamp resolution: the sector is
        // effectively under the head.
        return 0.0;
    }
    distance * geom.sector_time_ms()
}

/// Full service-time computation for a contiguous physical run.
///
/// `head_cylinder` is where the head currently rests; `ready_ms ≥ 0` is the
/// absolute time at which the disk starts working on this request.
///
/// The transfer charges `sector_time` per sector, `head_switch` per
/// intra-cylinder track boundary, and a single-track seek per cylinder
/// boundary. Track skew is assumed to hide re-synchronisation after
/// crossings (see DESIGN.md).
pub fn service_breakdown(
    geom: &DiskGeometry,
    head_cylinder: u32,
    ready_ms: f64,
    start_sector: u64,
    nsectors: u64,
) -> ServiceBreakdown {
    let target = geom.locate_sector(start_sector);
    let seek_ms = geom.seek_time_ms(head_cylinder, target.cylinder);
    let rotational_ms = rotational_latency_ms(geom, ready_ms + seek_ms, target.sector);
    let (head_switches, cylinder_crossings) = crossing_counts(geom, start_sector, nsectors);
    let head_switch_ms = head_switches as f64 * geom.track_crossing_ms(false);
    let transfer_ms = nsectors as f64 * geom.sector_time_ms()
        + head_switch_ms
        + cylinder_crossings as f64 * geom.track_crossing_ms(true);
    ServiceBreakdown { seek_ms, rotational_ms, transfer_ms, head_switch_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> DiskGeometry {
        DiskGeometry::wren_iv()
    }

    /// The transfer share of a run's service time.
    fn transfer_time_ms(g: &DiskGeometry, start_sector: u64, nsectors: u64) -> f64 {
        service_breakdown(g, 0, 0.0, start_sector, nsectors).transfer_ms
    }

    #[test]
    fn phase_wraps_each_rotation() {
        let g = g();
        assert_eq!(rotational_phase_sectors(&g, 0.0), 0.0);
        let one_rev = rotational_phase_sectors(&g, g.rotation_ms);
        assert!(one_rev.abs() < 1e-9 || (one_rev - 48.0).abs() < 1e-9);
        let half = rotational_phase_sectors(&g, g.rotation_ms / 2.0);
        assert!((half - 24.0).abs() < 1e-9);
    }

    #[test]
    fn latency_to_current_sector_is_zero() {
        let g = g();
        assert!(rotational_latency_ms(&g, 0.0, 0).abs() < 1e-9);
    }

    #[test]
    fn latency_to_just_missed_sector_is_nearly_full_rotation() {
        let g = g();
        // At t slightly past sector 0's arrival, waiting for sector 0 again
        // costs almost a full rotation.
        let eps = g.sector_time_ms() * 0.5;
        let lat = rotational_latency_ms(&g, eps, 0);
        assert!(lat > g.rotation_ms - g.sector_time_ms());
        assert!(lat < g.rotation_ms);
    }

    #[test]
    fn latency_is_distance_times_sector_time() {
        let g = g();
        let lat = rotational_latency_ms(&g, 0.0, 10);
        assert!((lat - 10.0 * g.sector_time_ms()).abs() < 1e-9);
    }

    #[test]
    fn transfer_single_sector() {
        let g = g();
        assert!((transfer_time_ms(&g, 0, 1) - g.sector_time_ms()).abs() < 1e-12);
    }

    #[test]
    fn transfer_full_track_no_penalty() {
        let g = g();
        let t = transfer_time_ms(&g, 0, g.sectors_per_track());
        assert!((t - g.rotation_ms).abs() < 1e-9);
    }

    #[test]
    fn transfer_across_track_boundary_charges_head_switch() {
        let g = g();
        let spt = g.sectors_per_track();
        let t = transfer_time_ms(&g, spt - 1, 2);
        let expected = 2.0 * g.sector_time_ms() + g.head_switch_ms;
        assert!((t - expected).abs() < 1e-9);
    }

    #[test]
    fn transfer_across_cylinder_boundary_charges_track_seek() {
        let g = g();
        let per_cyl = g.sectors_per_track() * g.tracks_per_cylinder();
        let t = transfer_time_ms(&g, per_cyl - 1, 2);
        let expected = 2.0 * g.sector_time_ms() + g.seek_time_ms(0, 1);
        assert!((t - expected).abs() < 1e-9);
    }

    #[test]
    fn transfer_full_cylinder_counts_switches() {
        let g = g();
        let per_cyl = g.sectors_per_track() * g.tracks_per_cylinder();
        let t = transfer_time_ms(&g, 0, per_cyl);
        let expected = 9.0 * g.rotation_ms + 8.0 * g.head_switch_ms;
        assert!((t - expected).abs() < 1e-9);
    }

    #[test]
    fn transfer_is_additive_over_splits() {
        // Splitting a run at a track boundary must not change total media
        // time (the crossing penalty moves to the rotational term otherwise,
        // so compare pure transfer only for an exact-boundary split).
        let g = g();
        let spt = g.sectors_per_track();
        let whole = transfer_time_ms(&g, 0, 3 * spt);
        let parts = transfer_time_ms(&g, 0, spt)
            + g.head_switch_ms
            + transfer_time_ms(&g, spt, spt)
            + g.head_switch_ms
            + transfer_time_ms(&g, 2 * spt, spt);
        assert!((whole - parts).abs() < 1e-9);
    }

    #[test]
    fn service_breakdown_combines_components() {
        let g = g();
        let b = service_breakdown(&g, 0, 0.0, g.sectors_per_track() * g.tracks_per_cylinder() * 7, 4);
        assert!((b.seek_ms - g.seek_time_ms(0, 7)).abs() < 1e-12);
        assert!(b.rotational_ms >= 0.0 && b.rotational_ms < g.rotation_ms);
        assert!((b.transfer_ms - 4.0 * g.sector_time_ms()).abs() < 1e-12);
        assert!((b.total_ms() - (b.seek_ms + b.rotational_ms + b.transfer_ms)).abs() < 1e-12);
    }

    #[test]
    fn head_switch_component_is_subset_of_transfer() {
        let g = g();
        let per_cyl = g.sectors_per_track() * g.tracks_per_cylinder();
        // A full cylinder crosses 8 intra-cylinder track boundaries.
        let b = service_breakdown(&g, 0, 0.0, 0, per_cyl);
        assert!((b.head_switch_ms - 8.0 * g.head_switch_ms).abs() < 1e-9);
        assert!(b.head_switch_ms < b.transfer_ms, "switch time is inside transfer time");
        // total_ms does NOT double-count the switch component.
        assert!((b.total_ms() - (b.seek_ms + b.rotational_ms + b.transfer_ms)).abs() < 1e-12);
    }

    #[test]
    fn single_track_run_has_no_head_switch() {
        let g = g();
        let b = service_breakdown(&g, 0, 0.0, 3, 4);
        assert_eq!(b.head_switch_ms, 0.0);
    }

    #[test]
    fn zero_length_transfer_is_free() {
        let g = g();
        assert_eq!(transfer_time_ms(&g, 100, 0), 0.0);
    }
}
