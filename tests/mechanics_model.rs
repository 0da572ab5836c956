//! Differential test of the disk service-time model against a reference
//! model: [`reference`] takes the rotational phase and the distance to the
//! target sector as Euclidean remainders (`rem_euclid`), and prices the
//! transfer in a pass over the run's track crossings of its own, apart from
//! the head-switch share. Every [`ServiceBreakdown`] field the simulator
//! computes must equal the reference's bit for bit, at random inputs and
//! at the edges of the phase arithmetic.

use proptest::prelude::*;
use readopt::disk::mechanics::{
    rotational_latency_ms, rotational_phase_sectors, service_breakdown, ServiceBreakdown,
    SECTOR_PHASE_TOLERANCE,
};
use readopt::disk::{DiskGeometry, SimTime};

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

fn transfer_time_ms(geom: &DiskGeometry, start_sector: u64, nsectors: u64) -> f64 {
    if nsectors == 0 {
        return 0.0;
    }
    let (head_switches, cylinder_crossings) = crossing_counts(geom, start_sector, nsectors);
    nsectors as f64 * geom.sector_time_ms()
        + head_switches as f64 * geom.track_crossing_ms(false)
        + cylinder_crossings as f64 * geom.track_crossing_ms(true)
}

fn reference_phase(geom: &DiskGeometry, at_ms: f64) -> f64 {
    let spt = geom.sectors_per_track() as f64;
    (at_ms / geom.rotation_ms).rem_euclid(1.0) * spt
}

fn reference_latency(geom: &DiskGeometry, at_ms: f64, target_sector: u32) -> f64 {
    let spt = geom.sectors_per_track() as f64;
    let distance = (f64::from(target_sector) - reference_phase(geom, at_ms)).rem_euclid(spt);
    if distance > spt - SECTOR_PHASE_TOLERANCE {
        return 0.0;
    }
    distance * geom.sector_time_ms()
}

fn reference(
    geom: &DiskGeometry,
    head_cylinder: u32,
    ready_ms: f64,
    start_sector: u64,
    nsectors: u64,
) -> ServiceBreakdown {
    let target = geom.locate_sector(start_sector);
    let seek_ms = geom.seek_time_ms(head_cylinder, target.cylinder);
    let rotational_ms = reference_latency(geom, ready_ms + seek_ms, target.sector);
    let transfer_ms = transfer_time_ms(geom, start_sector, nsectors);
    let (head_switches, _) = crossing_counts(geom, start_sector, nsectors);
    let head_switch_ms = head_switches as f64 * geom.track_crossing_ms(false);
    ServiceBreakdown {
        seek_ms,
        rotational_ms,
        transfer_ms,
        head_switch_ms,
    }
}

fn bits(b: &ServiceBreakdown) -> [u64; 4] {
    [b.seek_ms, b.rotational_ms, b.transfer_ms, b.head_switch_ms].map(f64::to_bits)
}

/// Checks one request, and the phase and latency at its start, against
/// the reference; returns the request's breakdown.
fn check(
    geom: &DiskGeometry,
    head_cylinder: u32,
    ready_ms: f64,
    start_sector: u64,
    nsectors: u64,
) -> ServiceBreakdown {
    let got = service_breakdown(geom, head_cylinder, ready_ms, start_sector, nsectors);
    let want = reference(geom, head_cylinder, ready_ms, start_sector, nsectors);
    assert_eq!(
        bits(&got),
        bits(&want),
        "{geom:?}: head on {head_cylinder}, ready at {ready_ms} ms, run {start_sector}+{nsectors}: \
         {got:?} != {want:?}"
    );
    let at_ms = ready_ms + got.seek_ms;
    assert_eq!(
        rotational_phase_sectors(geom, at_ms).to_bits(),
        reference_phase(geom, at_ms).to_bits(),
        "phase at {at_ms} ms"
    );
    let sector = geom.locate_sector(start_sector).sector;
    assert_eq!(
        rotational_latency_ms(geom, at_ms, sector).to_bits(),
        reference_latency(geom, at_ms, sector).to_bits(),
        "latency to sector {sector} at {at_ms} ms"
    );
    got
}

/// The paper's drive, a scaled copy, a drive with a power-of-two track
/// and a drive where nothing divides evenly.
fn geometries() -> Vec<DiskGeometry> {
    vec![
        DiskGeometry::wren_iv(),
        DiskGeometry::wren_iv_scaled(64),
        DiskGeometry::desktop_2001(),
        DiskGeometry {
            surfaces: 5,
            cylinders: 37,
            track_bytes: 37 * 512,
            sector_bytes: 512,
            rotation_ms: 11.1,
            single_track_seek_ms: 2.5,
            incremental_seek_ms: 0.07,
            head_switch_ms: 0.35,
        },
    ]
}

/// Start times on exact multiples of the rotation time, small and large.
#[test]
fn whole_rotations() {
    for g in geometries() {
        let spt = g.sectors_per_track();
        for k in [0u64, 1, 2, 3, 7, 1_000, 123_457, 60_000_000, 1_000_000_007] {
            let ready_ms = k as f64 * g.rotation_ms;
            for sector in [0, 1, spt / 2, spt - 1] {
                // Head on the target cylinder (no seek), and a seek away.
                check(&g, 0, ready_ms, sector, 1);
                check(&g, g.cylinders - 1, ready_ms, sector, 1);
            }
        }
    }
}

/// Start phases just before and just after a target sector's arrival,
/// and just inside and just outside the "sector arriving now" tolerance,
/// for targets at the start, middle and end of a track.
#[test]
fn phases_at_the_tolerance_edge() {
    let (mut inside, mut outside) = (0, 0);
    for g in geometries() {
        let spt = g.sectors_per_track();
        let st = g.sector_time_ms();
        for sector in [0, 1, spt / 2, spt - 1] {
            for rotations in [0u64, 1, 1_000, 100_000_000] {
                let base = rotations as f64 * g.rotation_ms;
                for offset in [0.0, SECTOR_PHASE_TOLERANCE] {
                    for delta in [-1e-4, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-4] {
                        let phase = sector as f64 + offset + delta;
                        if phase < 0.0 {
                            continue;
                        }
                        let b = check(&g, 0, base + phase * st, sector, 1);
                        if offset > 0.0 {
                            if b.rotational_ms == 0.0 {
                                inside += 1;
                            } else if b.rotational_ms > g.rotation_ms - st {
                                outside += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        inside > 0 && outside > 0,
        "the cases straddle the tolerance: {inside} in, {outside} out"
    );
}

/// Absolute times of 1e9 ms and beyond, as the simulator's clock forms
/// them (whole microseconds) and as arbitrary doubles.
#[test]
fn far_future_times() {
    for g in geometries() {
        let last = g.capacity_sectors() - 1;
        for ready_ms in [1e9, 1e9 + 0.001, 4.2e9, 1e12, 1e15, 9.007e15] {
            for us_ms in [ready_ms, SimTime::from_ms(ready_ms).as_ms()] {
                for sector in [0, 17, last / 3, last] {
                    check(&g, 0, us_ms, sector, 1);
                    check(&g, g.cylinders / 2, us_ms, sector, 1);
                }
            }
        }
    }
}

/// Runs that end on, start on, or cross track and cylinder boundaries.
#[test]
fn runs_across_track_and_cylinder_boundaries() {
    for g in geometries() {
        let spt = g.sectors_per_track();
        let per_cyl = spt * g.tracks_per_cylinder();
        let cap = g.capacity_sectors();
        for start in [
            0,
            spt - 1,
            spt,
            2 * spt - 1,
            per_cyl - 1,
            per_cyl,
            3 * per_cyl - 2,
        ] {
            for len in [
                1,
                2,
                spt - 1,
                spt,
                spt + 1,
                per_cyl - 1,
                per_cyl,
                per_cyl + 1,
                5 * per_cyl + 3,
            ] {
                if start + len <= cap {
                    check(&g, 1, 12.345, start, len);
                }
            }
        }
        check(&g, 0, 0.0, 0, cap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random geometry, head position, start time and run.
    #[test]
    fn service_breakdown_matches_the_reference(
        which in 0usize..5,
        surfaces in 1u32..20,
        cylinders in 4u32..3000,
        spt in 1u64..300,
        rotation_us in 1_000u64..40_000,
        head_draw in any::<u64>(),
        ready_draw in any::<u64>(),
        ready_shift in 12u32..64,
        start_draw in any::<u64>(),
        len_draw in any::<u64>(),
    ) {
        // Four fixed geometries, or a random one.
        let g = geometries().get(which).copied().unwrap_or(DiskGeometry {
            surfaces,
            cylinders,
            track_bytes: spt * 512,
            sector_bytes: 512,
            rotation_ms: rotation_us as f64 / 1000.0,
            single_track_seek_ms: 2.0,
            incremental_seek_ms: 0.01,
            head_switch_ms: 0.4,
        });
        let cap = g.capacity_sectors();
        let start = start_draw % cap;
        // Mostly short runs, some of up to the rest of the disk.
        let room = cap - start;
        let len = 1 + if len_draw.is_multiple_of(4) { len_draw / 4 % room } else { len_draw % room.min(500) };
        let head = u32::try_from(head_draw % u64::from(g.cylinders)).unwrap();
        // Start times spread over every scale up to 2^52 µs.
        let ready_us = ready_draw >> ready_shift;
        check(&g, head, ready_us as f64 / 1000.0, start, len);
    }
}
