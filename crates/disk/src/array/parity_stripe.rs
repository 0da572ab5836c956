//! Parity striping [GRAY90]: "an array of disks containing parity
//! information across multiple disks, but files are allocated to single
//! disks" (§2.1).
//!
//! The logical address space is the concatenation of the disks' data
//! regions, so a file allocated contiguously lives on *one* disk — there is
//! no striping parallelism, which is exactly the trade Gray proposed: RAID-5
//! reliability economics with mirrored-disk-style request behaviour. Each
//! disk reserves the tail `1/N` of its surface as a parity region protecting
//! its neighbours' data; a write therefore pays a read-modify-write of the
//! parity unit on the *next* disk over.
//!
//! This is a behavioural model of Gray's layout (one data disk per request
//! plus one parity RMW on a different disk), not a bit-exact reconstruction
//! of his parity map — see DESIGN.md §"Substitutions".

use super::DiskArray;
use crate::request::{IoKind, IoRequest, IoSpan};
use crate::time::SimTime;

impl DiskArray {
    /// Bytes of the data region at the front of each disk: `(N-1)/N` of
    /// it, rounded down to a whole disk unit (see
    /// [`crate::ArrayConfig::capacity_units`]).
    fn data_bytes_per_disk(&self) -> u64 {
        self.capacity_units / self.disks.len() as u64 * self.disk_unit_bytes
    }

    /// Maps a logical byte to (disk, physical byte within its data region).
    fn map(&self, byte: u64) -> (usize, u64) {
        let disk = (byte / self.data_bytes_per_disk()) as usize;
        (disk, byte % self.data_bytes_per_disk())
    }

    /// The parity location protecting data byte `phys` of disk `disk`:
    /// the corresponding slot in the parity region of the next disk over.
    fn parity_of(&self, disk: usize, phys: u64) -> (usize, u64) {
        let n = self.disks.len() as u64;
        let pdisk = (disk + 1) % self.disks.len();
        let slot = phys / (n - 1) / self.disk_unit_bytes * self.disk_unit_bytes;
        let region = self.disks[0].geometry().capacity_bytes() - self.data_bytes_per_disk();
        (pdisk, self.data_bytes_per_disk() + slot.min(region - self.disk_unit_bytes))
    }

    pub(super) fn submit_parity_striped(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan {
        let bytes = req.units * self.disk_unit_bytes;
        let start = req.unit * self.disk_unit_bytes;
        let mut begin = SimTime::MAX;
        let mut completion = ready;
        // Split at data-region (disk) boundaries; runs inside a region are
        // physically contiguous on a single disk.
        let mut cursor = start;
        let end_byte = start + bytes;
        while cursor < end_byte {
            let (disk, phys) = self.map(cursor);
            let run = (self.data_bytes_per_disk() - phys).min(end_byte - cursor);
            match req.kind {
                IoKind::Read => {
                    begin = begin.min(self.disks[disk].free_at().max(ready));
                    let end = self.disks[disk].service_bytes(ready, phys, run, IoKind::Read);
                    completion = completion.max(end);
                }
                IoKind::Write => {
                    // Data write plus a parity RMW on the neighbour disk.
                    let (pdisk, pbyte) = self.parity_of(disk, phys);
                    begin = begin
                        .min(self.disks[disk].free_at().max(ready))
                        .min(self.disks[pdisk].free_at().max(ready));
                    let plen = (run / (self.disks.len() as u64 - 1)).max(self.disk_unit_bytes);
                    let plen = plen - plen % self.disk_unit_bytes;
                    let plen = plen.min(self.disks[0].geometry().capacity_bytes() - pbyte);
                    let old_data = self.disks[disk].service_bytes(ready, phys, run, IoKind::Read);
                    let old_parity = self.disks[pdisk].service_bytes(ready, pbyte, plen, IoKind::Read);
                    let reads_done = old_data.max(old_parity);
                    let dw = self.disks[disk].service_bytes(reads_done, phys, run, IoKind::Write);
                    let pw = self.disks[pdisk].service_bytes(reads_done, pbyte, plen, IoKind::Write);
                    completion = completion.max(dw.max(pw));
                }
            }
            cursor += run;
        }
        IoSpan { begin: begin.min(completion), end: completion }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayConfig, ArrayLayout};
    use crate::geometry::KB;

    fn psa() -> DiskArray {
        ArrayConfig { layout: ArrayLayout::ParityStriped, ..ArrayConfig::paper_default() }.build()
    }

    #[test]
    fn reads_stay_on_one_disk() {
        let mut p = psa();
        p.submit(SimTime::ZERO, &IoRequest::read(0, 1024)); // 1 MB, well inside disk 0
        let touched = p.stats().per_disk.iter().filter(|d| d.requests > 0).count();
        assert_eq!(touched, 1, "no striping parallelism by design");
    }

    #[test]
    fn logical_space_concatenates_disks() {
        let mut p = psa();
        let per_disk_units = p.data_bytes_per_disk() / KB;
        p.submit(SimTime::ZERO, &IoRequest::read(per_disk_units + 5, 1));
        assert!(p.stats().per_disk[1].bytes_read > 0);
        assert_eq!(p.stats().per_disk[0].bytes_read, 0);
    }

    #[test]
    fn writes_update_neighbour_parity() {
        let mut p = psa();
        p.submit(SimTime::ZERO, &IoRequest::write(0, 8));
        assert!(p.stats().per_disk[0].bytes_written > 0, "data disk written");
        assert!(p.stats().per_disk[1].bytes_written > 0, "parity neighbour written");
        assert!(p.stats().per_disk[0].bytes_read > 0, "RMW reads old data");
        assert!(p.stats().write_amplification() > 1.0);
    }

    #[test]
    fn cross_disk_read_splits() {
        let mut p = psa();
        let per_disk_units = p.data_bytes_per_disk() / KB;
        p.submit(SimTime::ZERO, &IoRequest::read(per_disk_units - 2, 4));
        assert!(p.stats().per_disk[0].bytes_read > 0);
        assert!(p.stats().per_disk[1].bytes_read > 0);
    }
}
