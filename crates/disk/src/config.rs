//! Declarative description of a disk system, used by the simulator and the
//! experiment drivers to build [`DiskArray`] instances.

use crate::array::DiskArray;
use crate::geometry::{DiskGeometry, KB};
use serde::{Deserialize, Serialize};

/// Which of the four §2.1 configurations to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArrayLayout {
    /// Plain striping, no redundancy — the paper's default.
    Striped,
    /// Striping across mirrored pairs.
    Mirrored,
    /// Rotated-parity RAID-5.
    Raid5,
    /// Gray's parity striping (files on single disks).
    ParityStriped,
}

/// A complete disk-system description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Per-disk geometry (all disks identical; Table 1 default).
    pub geometry: DiskGeometry,
    /// Number of physical disks.
    pub ndisks: usize,
    /// Stripe unit in bytes (§2.1; default one track = 24 KB).
    pub stripe_unit_bytes: u64,
    /// Disk unit in bytes — the minimum transfer unit, "the smaller of the
    /// smallest block size supported by the file system and the stripe size".
    pub disk_unit_bytes: u64,
    /// Redundancy layout.
    pub layout: ArrayLayout,
}

impl ArrayConfig {
    /// The paper's simulated system: 8 Wren IV drives, 2.8 GB total, striped
    /// by track, addressed in 1 KB disk units.
    pub fn paper_default() -> Self {
        ArrayConfig {
            geometry: DiskGeometry::wren_iv(),
            ndisks: 8,
            stripe_unit_bytes: 24 * KB,
            disk_unit_bytes: KB,
            layout: ArrayLayout::Striped,
        }
    }

    /// The paper system scaled down by `factor` in capacity (same mechanics,
    /// same disk count) — used by tests and `repro --scale` so full sweeps
    /// stay fast. Throughput *percentages* remain comparable.
    pub fn scaled(factor: u32) -> Self {
        ArrayConfig { geometry: DiskGeometry::wren_iv_scaled(factor), ..Self::paper_default() }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        if self.ndisks == 0 {
            return Err("array needs at least one disk".into());
        }
        if self.disk_unit_bytes == 0 || !self.disk_unit_bytes.is_multiple_of(self.geometry.sector_bytes) {
            return Err("disk unit must be a positive multiple of the sector size".into());
        }
        if !self.stripe_unit_bytes.is_multiple_of(self.disk_unit_bytes) || self.stripe_unit_bytes == 0 {
            return Err("stripe unit must be a positive multiple of the disk unit".into());
        }
        if !self.geometry.capacity_bytes().is_multiple_of(self.stripe_unit_bytes) {
            return Err("disk capacity must be a whole number of stripe units".into());
        }
        match self.layout {
            ArrayLayout::Mirrored if !self.ndisks.is_multiple_of(2) || self.ndisks < 2 => {
                Err("mirroring requires an even number of disks".into())
            }
            ArrayLayout::Raid5 | ArrayLayout::ParityStriped if self.ndisks < 3 => {
                Err("parity layouts require at least 3 disks".into())
            }
            _ => Ok(()),
        }
    }

    /// Builds the configured array; panics if the configuration is invalid.
    pub fn build(&self) -> DiskArray {
        // simlint::allow(r3, "constructor contract: an invalid config is a caller bug, not a runtime condition")
        self.validate().expect("invalid array configuration");
        DiskArray::new(self)
    }

    /// Usable capacity of the configured array, in disk units: the one
    /// place that sizes each layout (parity striping keeps `(N-1)/N` of
    /// each disk, rounded down to a whole disk unit, as its data region).
    pub fn capacity_units(&self) -> u64 {
        let per_disk = self.geometry.capacity_bytes();
        let bytes = match self.layout {
            ArrayLayout::Striped => per_disk * self.ndisks as u64,
            ArrayLayout::Mirrored => per_disk * self.ndisks as u64 / 2,
            ArrayLayout::Raid5 => per_disk * (self.ndisks as u64 - 1),
            ArrayLayout::ParityStriped => {
                let data = per_disk / self.ndisks as u64 * (self.ndisks as u64 - 1);
                (data - data % self.disk_unit_bytes) * self.ndisks as u64
            }
        };
        bytes / self.disk_unit_bytes
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_units() * self.disk_unit_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::MB;

    #[test]
    fn paper_default_matches_table_1() {
        let c = ArrayConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.ndisks, 8);
        let cap = c.capacity_bytes();
        assert!((2_600 * MB..2_900 * MB).contains(&cap), "2.8 G system, got {cap}");
    }

    #[test]
    fn capacity_follows_the_layout() {
        let disk = DiskGeometry::wren_iv().capacity_bytes();
        let cap = |layout| ArrayConfig { layout, ..ArrayConfig::paper_default() }.capacity_bytes();
        assert_eq!(cap(ArrayLayout::Striped), 8 * disk);
        assert_eq!(cap(ArrayLayout::Mirrored), 4 * disk, "half of raw");
        assert_eq!(cap(ArrayLayout::Raid5), 7 * disk, "one disk's worth of parity");
        let parity_striped = cap(ArrayLayout::ParityStriped);
        assert!(parity_striped <= 8 * disk * 7 / 8 && parity_striped > 8 * disk * 6 / 8);
        for layout in [
            ArrayLayout::Striped,
            ArrayLayout::Mirrored,
            ArrayLayout::Raid5,
            ArrayLayout::ParityStriped,
        ] {
            let c = ArrayConfig { layout, ..ArrayConfig::scaled(16) };
            let s = c.build();
            assert_eq!(s.capacity_units(), c.capacity_units(), "{layout:?}");
            assert_eq!(s.ndisks(), 8, "{layout:?}");
        }
    }

    #[test]
    fn validate_rejects_mismatched_units() {
        let mut c = ArrayConfig::paper_default();
        c.disk_unit_bytes = 1000;
        assert!(c.validate().is_err());
        let mut c = ArrayConfig::paper_default();
        c.stripe_unit_bytes = 25 * KB; // not a multiple of 1 KB? it is; use 1.5 units
        c.disk_unit_bytes = 16 * KB;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_layout_constraints() {
        let mut c = ArrayConfig::paper_default();
        c.layout = ArrayLayout::Mirrored;
        c.ndisks = 5;
        assert!(c.validate().is_err());
        c.layout = ArrayLayout::Raid5;
        c.ndisks = 2;
        assert!(c.validate().is_err());
    }
}
