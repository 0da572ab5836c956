//! Physical disk geometry and the paper's two-parameter seek model.
//!
//! Table 1 of the paper describes each disk by its physical layout (track
//! size, number of cylinders, number of platters) and performance
//! characteristics (rotational speed and seek parameters). The seek model is
//!
//! > If `ST` is the single track seek time and `SI` is the incremental seek
//! > time, then an N track seek takes `ST + N·SI` ms.
//!
//! The default geometry is the CDC 5¼" Wren IV (94171-344) with the
//! simulated values from Table 1 (1600 cylinders instead of the drive's
//! actual 1549).

use serde::{Deserialize, Serialize};

/// Number of bytes in one kibibyte; sizes in the paper are binary units.
pub const KB: u64 = 1024;
/// Number of bytes in one mebibyte.
pub const MB: u64 = 1024 * KB;
/// Number of bytes in one gibibyte.
pub const GB: u64 = 1024 * MB;

/// The fewest cylinders a scaled-down drive keeps, whatever the factor.
const MIN_SCALED_CYLINDERS: u32 = 4;

/// Physical layout and performance characteristics of one disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskGeometry {
    /// Number of data surfaces ("platters" in Table 1; the Wren IV records
    /// data on 9 surfaces).
    pub surfaces: u32,
    /// Number of cylinders.
    pub cylinders: u32,
    /// Bytes per track.
    pub track_bytes: u64,
    /// Bytes per sector (the smallest addressable unit on the platter).
    pub sector_bytes: u64,
    /// Time for one full rotation, in milliseconds.
    pub rotation_ms: f64,
    /// `ST`: fixed cost of any seek, in milliseconds.
    pub single_track_seek_ms: f64,
    /// `SI`: additional cost per track of seek distance, in milliseconds.
    pub incremental_seek_ms: f64,
    /// Cost of switching heads between tracks of the same cylinder during a
    /// sequential transfer. Real drives hide most of this with track skew;
    /// the default is a small non-zero value (see DESIGN.md).
    pub head_switch_ms: f64,
}

/// A sector-granular physical position on a disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChsAddress {
    /// Cylinder index.
    pub cylinder: u32,
    /// Surface (head) index within the cylinder.
    pub surface: u32,
    /// Sector index within the track.
    pub sector: u32,
}

impl DiskGeometry {
    /// The CDC Wren IV model with the simulated parameter values of Table 1.
    pub fn wren_iv() -> Self {
        DiskGeometry {
            surfaces: 9,
            cylinders: 1600,
            track_bytes: 24 * KB,
            sector_bytes: 512,
            rotation_ms: 16.67,
            single_track_seek_ms: 5.5,
            incremental_seek_ms: 0.032,
            head_switch_ms: 0.5,
        }
    }

    /// The same drive with `factor`× fewer cylinders, for fast tests and
    /// benches. Mechanics are unchanged, so throughput *percentages* are
    /// comparable with the full-size drive. The cylinder count stops at a
    /// floor of 4, so factors above [`Self::wren_iv_max_scale`] all build
    /// the same drive.
    pub fn wren_iv_scaled(factor: u32) -> Self {
        let mut g = Self::wren_iv();
        g.cylinders = (g.cylinders / factor.max(1)).max(MIN_SCALED_CYLINDERS);
        g
    }

    /// The largest factor [`Self::wren_iv_scaled`] divides the drive by
    /// (400: 1 600 cylinders down to the floor of 4).
    pub fn wren_iv_max_scale() -> u32 {
        Self::wren_iv().cylinders / MIN_SCALED_CYLINDERS
    }

    /// A circa-2001 7200 RPM drive (Deskstar-class): ten years of areal
    /// density and spindle speed after the Wren IV. Transfer rates grew
    /// ~20×, seeks only ~4× — the ratio shift that makes contiguity *more*
    /// valuable, not less. Used by the disk-generation ablation.
    pub fn desktop_2001() -> Self {
        DiskGeometry {
            surfaces: 4,
            cylinders: 2048,
            track_bytes: 256 * KB,
            sector_bytes: 512,
            rotation_ms: 8.33,         // 7200 RPM
            single_track_seek_ms: 1.2,
            incremental_seek_ms: 0.003,
            head_switch_ms: 0.3,
        }
    }

    /// The 2001 drive with `factor`× fewer cylinders.
    pub fn desktop_2001_scaled(factor: u32) -> Self {
        let mut g = Self::desktop_2001();
        g.cylinders = (g.cylinders / factor.max(1)).max(MIN_SCALED_CYLINDERS);
        g
    }

    /// Validates internal consistency (sector divides track, non-zero
    /// everything, sane timings). Returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sector_bytes == 0 || self.track_bytes == 0 {
            return Err("sector and track sizes must be non-zero".into());
        }
        if !self.track_bytes.is_multiple_of(self.sector_bytes) {
            return Err(format!(
                "track size {} is not a multiple of sector size {}",
                self.track_bytes, self.sector_bytes
            ));
        }
        if self.surfaces == 0 || self.cylinders == 0 {
            return Err("disk must have at least one surface and cylinder".into());
        }
        if self.rotation_ms <= 0.0 {
            return Err("rotation time must be positive".into());
        }
        if self.single_track_seek_ms < 0.0 || self.incremental_seek_ms < 0.0 || self.head_switch_ms < 0.0 {
            return Err("seek parameters must be non-negative".into());
        }
        Ok(())
    }

    /// Sectors per track.
    pub fn sectors_per_track(&self) -> u64 {
        self.track_bytes / self.sector_bytes
    }

    /// Tracks per cylinder (one per surface).
    pub fn tracks_per_cylinder(&self) -> u64 {
        u64::from(self.surfaces)
    }

    /// Bytes per cylinder.
    pub fn cylinder_bytes(&self) -> u64 {
        self.track_bytes * self.tracks_per_cylinder()
    }

    /// Total formatted capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cylinder_bytes() * u64::from(self.cylinders)
    }

    /// Total capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_bytes() / self.sector_bytes
    }

    /// Time to transfer one sector past the head, in milliseconds.
    pub fn sector_time_ms(&self) -> f64 {
        self.rotation_ms / self.sectors_per_track() as f64
    }

    /// Seek time between two cylinders per the paper's model: zero when the
    /// head does not move, otherwise `ST + N·SI` where `N` is the distance in
    /// tracks (cylinders).
    pub fn seek_time_ms(&self, from_cylinder: u32, to_cylinder: u32) -> f64 {
        let n = u64::from(from_cylinder.abs_diff(to_cylinder));
        if n == 0 {
            0.0
        } else {
            self.single_track_seek_ms + n as f64 * self.incremental_seek_ms
        }
    }

    /// Cost of crossing from one track to the next during a sequential
    /// transfer: a head switch inside a cylinder, a single-track seek when
    /// the crossing also advances the cylinder.
    pub fn track_crossing_ms(&self, crosses_cylinder: bool) -> f64 {
        if crosses_cylinder {
            self.seek_time_ms(0, 1)
        } else {
            self.head_switch_ms
        }
    }

    /// Maps an absolute sector number to its physical position.
    pub fn locate_sector(&self, sector: u64) -> ChsAddress {
        debug_assert!(sector < self.capacity_sectors(), "sector {sector} out of range");
        let spt = self.sectors_per_track();
        let track = sector / spt;
        let tpc = self.tracks_per_cylinder();
        let narrow = |v: u64| {
            // simlint::allow(r3, "CHS coordinates are bounded by the sector range asserted above")
            u32::try_from(v).unwrap_or_else(|_| unreachable!("CHS coordinate {v} exceeds u32"))
        };
        ChsAddress {
            cylinder: narrow(track / tpc),
            surface: narrow(track % tpc),
            sector: narrow(sector % spt),
        }
    }

    /// The cylinder holding an absolute sector number.
    pub fn cylinder_of_sector(&self, sector: u64) -> u32 {
        self.locate_sector(sector).cylinder
    }

    /// Upper bound on the sustained sequential transfer rate in bytes/ms:
    /// one cylinder per `surfaces` rotations plus the crossing penalties.
    pub fn nominal_sequential_rate(&self) -> f64 {
        let tpc = self.tracks_per_cylinder() as f64;
        let cyl_time = tpc * self.rotation_ms
            + (tpc - 1.0) * self.head_switch_ms
            + self.track_crossing_ms(true);
        self.cylinder_bytes() as f64 / cyl_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wren_iv_matches_table_1() {
        let g = DiskGeometry::wren_iv();
        g.validate().unwrap();
        assert_eq!(g.surfaces, 9);
        assert_eq!(g.cylinders, 1600);
        assert_eq!(g.track_bytes, 24 * KB);
        assert_eq!(g.sectors_per_track(), 48);
        // Table 1: 8 of these disks give a "2.8 G" system.
        let system = 8 * g.capacity_bytes();
        // 2,831,155,200 bytes = 2.83 decimal GB, the paper's "2.8 G".
        assert!((2_600 * MB..2_900 * MB).contains(&system), "system = {system}");
    }

    #[test]
    fn seek_model_is_st_plus_n_si() {
        let g = DiskGeometry::wren_iv();
        assert_eq!(g.seek_time_ms(10, 10), 0.0);
        assert!((g.seek_time_ms(0, 1) - (5.5 + 0.032)).abs() < 1e-12);
        assert!((g.seek_time_ms(100, 0) - (5.5 + 100.0 * 0.032)).abs() < 1e-12);
        // Symmetric in direction.
        assert_eq!(g.seek_time_ms(3, 40), g.seek_time_ms(40, 3));
    }

    #[test]
    fn locate_sector_walks_tracks_then_cylinders() {
        let g = DiskGeometry::wren_iv();
        let spt = g.sectors_per_track();
        assert_eq!(
            g.locate_sector(0),
            ChsAddress { cylinder: 0, surface: 0, sector: 0 }
        );
        assert_eq!(
            g.locate_sector(spt - 1),
            ChsAddress { cylinder: 0, surface: 0, sector: (spt - 1) as u32 }
        );
        assert_eq!(
            g.locate_sector(spt),
            ChsAddress { cylinder: 0, surface: 1, sector: 0 }
        );
        let per_cyl = spt * g.tracks_per_cylinder();
        assert_eq!(
            g.locate_sector(per_cyl * 3 + 5),
            ChsAddress { cylinder: 3, surface: 0, sector: 5 }
        );
    }

    #[test]
    fn sector_time_is_rotation_over_spt() {
        let g = DiskGeometry::wren_iv();
        assert!((g.sector_time_ms() - 16.67 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn nominal_rate_close_to_track_rate() {
        let g = DiskGeometry::wren_iv();
        let track_rate = g.track_bytes as f64 / g.rotation_ms; // ~1.44 KB/ms
        let rate = g.nominal_sequential_rate();
        assert!(rate < track_rate);
        assert!(rate > 0.90 * track_rate, "rate {rate} vs track {track_rate}");
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut g = DiskGeometry::wren_iv();
        g.track_bytes = 1000; // not a multiple of 512
        assert!(g.validate().is_err());
        let mut g = DiskGeometry::wren_iv();
        g.rotation_ms = 0.0;
        assert!(g.validate().is_err());
        let mut g = DiskGeometry::wren_iv();
        g.surfaces = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn desktop_2001_is_a_faster_generation() {
        let old = DiskGeometry::wren_iv();
        let new = DiskGeometry::desktop_2001();
        new.validate().unwrap();
        let rate_ratio = new.nominal_sequential_rate() / old.nominal_sequential_rate();
        let seek_ratio = old.seek_time_ms(0, 100) / new.seek_time_ms(0, 100);
        assert!(rate_ratio > 15.0, "transfer grew ~20x, got {rate_ratio}");
        assert!((2.0..8.0).contains(&seek_ratio), "seeks only ~4x faster, got {seek_ratio}");
    }

    #[test]
    fn scaled_geometry_shrinks_capacity_only() {
        let g = DiskGeometry::wren_iv_scaled(16);
        assert_eq!(g.cylinders, 100);
        assert_eq!(g.rotation_ms, DiskGeometry::wren_iv().rotation_ms);
        assert_eq!(g.capacity_bytes(), DiskGeometry::wren_iv().capacity_bytes() / 16);
    }
}
