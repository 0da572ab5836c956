//! RAID-5: "an array of disks where for each N blocks, there is one block
//! containing parity information for the remaining N blocks" [PATT88].
//!
//! Left-symmetric rotated parity over stripe-unit-sized chunks. Reads touch
//! only data disks. Partial-row writes pay the classic small-write penalty —
//! read old data and old parity, then write new data and new parity — while
//! writes covering a full row compute parity from the new data alone and
//! write everything in parallel. This is the configuration §6 of the paper
//! flags as future work ("the impact of a RAID … will reduce the small write
//! performance"); the `ablation_raid` bench measures exactly that.

use super::DiskArray;
use crate::config::ArrayLayout;
use crate::disk::Disk;
use crate::request::{IoKind, IoRequest, IoSpan};
use crate::time::SimTime;

/// One stripe-unit-sized piece of a logical request, located within a row.
#[derive(Debug, Clone, Copy)]
struct RowChunk {
    /// Parity row index.
    row: u64,
    /// Physical disk holding the chunk.
    disk: usize,
    /// Physical byte offset on that disk.
    phys_byte: u64,
    /// Chunk length in bytes.
    len: u64,
}

/// Physical byte span `[start, end)` covered by a non-empty group of
/// same-row chunks — the run of parity that must be read and rewritten.
fn touched_span(chunks: &[RowChunk]) -> (u64, u64) {
    // simlint::allow(r3, "callers group chunks by row and never pass an empty group")
    let first = chunks.first().unwrap_or_else(|| unreachable!("row group is non-empty"));
    chunks.iter().fold((first.phys_byte, first.phys_byte + first.len), |(lo, hi), c| {
        (lo.min(c.phys_byte), hi.max(c.phys_byte + c.len))
    })
}

impl DiskArray {
    /// Marks one disk of a RAID-5 array as failed: the array keeps running
    /// *degraded*. Reads of lost chunks reconstruct from every surviving
    /// disk; writes update only the surviving members. Panics on any other
    /// layout, which has no degraded mode.
    pub fn fail_disk(&mut self, disk: usize) {
        assert_eq!(self.layout, ArrayLayout::Raid5, "only a RAID-5 array can run degraded");
        assert!(disk < self.disks.len());
        assert!(self.failed.is_none(), "single-failure model");
        self.failed = Some(disk);
    }

    /// Rebuilds the failed disk onto a fresh replacement: streams every
    /// surviving disk in full, then streams the reconstructed contents onto
    /// the replacement. Returns the rebuild completion time; the array is
    /// healthy afterwards. Panics on any layout but RAID-5.
    pub fn rebuild(&mut self, ready: SimTime) -> SimTime {
        assert_eq!(self.layout, ArrayLayout::Raid5, "only a RAID-5 array has a rebuild");
        let Some(failed) = self.failed else {
            // Nothing to rebuild: the array is already healthy.
            return ready;
        };
        let sectors = self.disks[0].geometry().capacity_sectors();
        let mut reads_done = ready;
        for d in 0..self.disks.len() {
            if d != failed {
                let end = self.disks[d].service(ready, 0, sectors, IoKind::Read);
                reads_done = reads_done.max(end);
            }
        }
        // Fresh replacement spindle; the write streams after reconstruction.
        self.disks[failed] = Disk::new(*self.disks[0].geometry());
        let end = self.disks[failed].service(reads_done, 0, sectors, IoKind::Write);
        self.failed = None;
        end
    }

    /// Data disks per row.
    fn data_width(&self) -> u64 {
        self.disks.len() as u64 - 1
    }

    /// The disk holding row `row`'s parity (rotates left-symmetrically).
    fn parity_disk(&self, row: u64) -> usize {
        let n = self.disks.len() as u64;
        (n - 1 - row % n) as usize
    }

    /// Maps a logical data-stripe index to (row, physical disk).
    fn map_stripe(&self, stripe: u64) -> (u64, usize) {
        let row = stripe / self.data_width();
        let pos = (stripe % self.data_width()) as usize;
        let pd = self.parity_disk(row);
        let disk = if pos < pd { pos } else { pos + 1 };
        (row, disk)
    }

    /// Decomposes a logical byte range into row chunks.
    fn chunks(&self, start_byte: u64, len: u64) -> Vec<RowChunk> {
        let su = self.stripe_unit_bytes;
        let mut out = Vec::new();
        let mut cursor = start_byte;
        let end = start_byte + len;
        while cursor < end {
            let stripe = cursor / su;
            let within = cursor % su;
            let chunk = (su - within).min(end - cursor);
            let (row, disk) = self.map_stripe(stripe);
            out.push(RowChunk { row, disk, phys_byte: row * su + within, len: chunk });
            cursor += chunk;
        }
        out
    }

    fn service(&mut self, disk: usize, ready: SimTime, phys_byte: u64, len: u64, kind: IoKind) -> SimTime {
        self.disks[disk].service_bytes(ready, phys_byte, len, kind)
    }

    fn begin_at(&self, disk: usize, ready: SimTime) -> SimTime {
        self.disks[disk].free_at().max(ready)
    }

    pub(super) fn submit_raid5(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan {
        let bytes = req.units * self.disk_unit_bytes;
        let start = req.unit * self.disk_unit_bytes;
        let mut begin = SimTime::MAX;
        let mut completion = ready;
        match req.kind {
            IoKind::Read => {
                for c in self.chunks(start, bytes) {
                    if Some(c.disk) == self.failed {
                        // Reconstruct the lost chunk: read the same span
                        // from every surviving disk and XOR (the XOR itself
                        // is free; the disk traffic is not).
                        for d in 0..self.disks.len() {
                            if Some(d) == self.failed {
                                continue;
                            }
                            begin = begin.min(self.begin_at(d, ready));
                            let end = self.service(d, ready, c.phys_byte, c.len, IoKind::Read);
                            completion = completion.max(end);
                        }
                    } else {
                        begin = begin.min(self.begin_at(c.disk, ready));
                        let end = self.service(c.disk, ready, c.phys_byte, c.len, IoKind::Read);
                        completion = completion.max(end);
                    }
                }
            }
            IoKind::Write => {
                // Group chunks by parity row; each row commits independently.
                let chunks = self.chunks(start, bytes);
                let su = self.stripe_unit_bytes;
                let mut i = 0;
                while i < chunks.len() {
                    let row = chunks[i].row;
                    let mut j = i;
                    let mut row_bytes = 0;
                    while j < chunks.len() && chunks[j].row == row {
                        row_bytes += chunks[j].len;
                        j += 1;
                    }
                    let pd = self.parity_disk(row);
                    let full_row = row_bytes == self.data_width() * su;
                    if full_row {
                        // Parity computed from new data: write all surviving
                        // disks at once (a failed member's share is simply
                        // lost until rebuild).
                        for c in &chunks[i..j] {
                            if Some(c.disk) == self.failed {
                                continue;
                            }
                            begin = begin.min(self.begin_at(c.disk, ready));
                            let end = self.service(c.disk, ready, c.phys_byte, c.len, IoKind::Write);
                            completion = completion.max(end);
                        }
                        if Some(pd) != self.failed {
                            begin = begin.min(self.begin_at(pd, ready));
                            let end = self.service(pd, ready, row * su, su, IoKind::Write);
                            completion = completion.max(end);
                        }
                    } else if self.failed.is_some()
                        && (Some(pd) == self.failed
                            || chunks[i..j].iter().any(|c| Some(c.disk) == self.failed))
                    {
                        // Degraded partial-row write touching the failure:
                        // reconstruct-write — read the touched span from
                        // every surviving disk, then write the surviving
                        // members of the new state.
                        let (p_start, p_end) = touched_span(&chunks[i..j]);
                        let mut reads_done = ready;
                        for d in 0..self.disks.len() {
                            if Some(d) == self.failed {
                                continue;
                            }
                            begin = begin.min(self.begin_at(d, ready));
                            let end = self.service(d, ready, p_start, p_end - p_start, IoKind::Read);
                            reads_done = reads_done.max(end);
                        }
                        for c in &chunks[i..j] {
                            if Some(c.disk) == self.failed {
                                continue;
                            }
                            let end = self.service(c.disk, reads_done, c.phys_byte, c.len, IoKind::Write);
                            completion = completion.max(end);
                        }
                        if Some(pd) != self.failed {
                            let end =
                                self.service(pd, reads_done, p_start, p_end - p_start, IoKind::Write);
                            completion = completion.max(end);
                        }
                    } else {
                        // Read-modify-write: old data + old parity first, then
                        // the new data and new parity once both reads land.
                        let mut reads_done = ready;
                        for c in &chunks[i..j] {
                            begin = begin.min(self.begin_at(c.disk, ready));
                            let end = self.service(c.disk, ready, c.phys_byte, c.len, IoKind::Read);
                            reads_done = reads_done.max(end);
                        }
                        // Parity is read (and later rewritten) only where the
                        // row is touched: one run covering the touched span.
                        let (p_start, p_end) = touched_span(&chunks[i..j]);
                        begin = begin.min(self.begin_at(pd, ready));
                        let end = self.service(pd, ready, p_start, p_end - p_start, IoKind::Read);
                        reads_done = reads_done.max(end);
                        for c in &chunks[i..j] {
                            let end = self.service(c.disk, reads_done, c.phys_byte, c.len, IoKind::Write);
                            completion = completion.max(end);
                        }
                        let end = self.service(pd, reads_done, p_start, p_end - p_start, IoKind::Write);
                        completion = completion.max(end);
                    }
                    i = j;
                }
            }
        }
        IoSpan { begin: begin.min(completion), end: completion }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::geometry::{DiskGeometry, KB};

    fn raid() -> DiskArray {
        ArrayConfig { layout: ArrayLayout::Raid5, ..ArrayConfig::paper_default() }.build()
    }

    #[test]
    fn parity_rotates_over_rows() {
        let r = raid();
        let disks: Vec<_> = (0..8).map(|row| r.parity_disk(row)).collect();
        assert_eq!(disks, vec![7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(r.parity_disk(8), 7);
    }

    #[test]
    fn data_mapping_skips_parity_disk() {
        let r = raid();
        // Row 0 has parity on disk 7: stripes 0..7 map to disks 0..7 minus 7.
        for s in 0..7u64 {
            let (row, disk) = r.map_stripe(s);
            assert_eq!(row, 0);
            assert_eq!(disk, s as usize);
        }
        // Row 7 has parity on disk 0: first stripe of that row maps to disk 1.
        let (row, disk) = r.map_stripe(49);
        assert_eq!(row, 7);
        assert_eq!(disk, 1);
    }

    #[test]
    fn reads_never_touch_parity() {
        let mut r = raid();
        r.submit(SimTime::ZERO, &IoRequest::read(0, 7 * 24)); // full row 0 of data
        assert_eq!(r.stats().per_disk[7].requests, 0, "row-0 parity disk untouched");
        assert!((r.stats().write_amplification() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn small_write_pays_rmw() {
        let mut r = raid();
        r.submit(SimTime::ZERO, &IoRequest::write(0, 8)); // 8 KB partial chunk on disk 0, row 0
        let d0 = &r.stats().per_disk[0];
        let d7 = &r.stats().per_disk[7];
        assert_eq!(d0.bytes_read, 8 * KB, "old data read");
        assert_eq!(d0.bytes_written, 8 * KB, "new data written");
        assert_eq!(d7.bytes_read, 8 * KB, "old parity read");
        assert_eq!(d7.bytes_written, 8 * KB, "new parity written");
        assert!((r.stats().write_amplification() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn full_row_write_skips_reads() {
        let mut r = raid();
        r.submit(SimTime::ZERO, &IoRequest::write(0, 7 * 24)); // exactly row 0
        let total = r.stats().combined();
        assert_eq!(total.bytes_read, 0, "no RMW for a full-stripe write");
        assert_eq!(total.bytes_written, 8 * 24 * KB, "7 data + 1 parity chunks");
        let amp = r.stats().write_amplification();
        assert!((amp - 8.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn small_write_slower_than_on_plain_array() {
        let mut r = raid();
        let mut a = ArrayConfig::paper_default().build();
        let raid_end = r.submit(SimTime::ZERO, &IoRequest::write(0, 8)).end;
        let plain_end = a.submit(SimTime::ZERO, &IoRequest::write(0, 8)).end;
        assert!(raid_end > plain_end, "RMW must cost more: {raid_end} vs {plain_end}");
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_two_disks() {
        ArrayConfig { layout: ArrayLayout::Raid5, ndisks: 2, ..ArrayConfig::paper_default() }.build();
    }

    #[test]
    fn degraded_read_reconstructs_from_all_survivors() {
        let mut r = raid();
        r.fail_disk(0);
        assert_eq!(r.failed, Some(0));
        // Row 0: parity on disk 7; stripe 0 lives on disk 0.
        r.submit(SimTime::ZERO, &IoRequest::read(0, 24));
        let stats = r.stats();
        assert_eq!(stats.per_disk[0].requests, 0, "failed disk untouched");
        for d in 1..8 {
            assert_eq!(
                stats.per_disk[d].bytes_read,
                24 * KB,
                "survivor {d} contributes to reconstruction"
            );
        }
    }

    #[test]
    fn degraded_read_of_healthy_chunks_is_normal() {
        let mut r = raid();
        r.fail_disk(0);
        // Stripe 1 lives on disk 1: no reconstruction needed.
        r.submit(SimTime::ZERO, &IoRequest::read(24, 24));
        let stats = r.stats();
        let touched = stats.per_disk.iter().filter(|d| d.requests > 0).count();
        assert_eq!(touched, 1);
    }

    #[test]
    fn degraded_reads_cost_more() {
        let healthy_end = raid().submit(SimTime::ZERO, &IoRequest::read(0, 24)).end;
        let mut degraded = raid();
        degraded.fail_disk(0);
        let degraded_end = degraded.submit(SimTime::ZERO, &IoRequest::read(0, 24)).end;
        assert!(degraded_end >= healthy_end, "{degraded_end} vs {healthy_end}");
    }

    #[test]
    fn degraded_write_touching_failure_reconstructs() {
        let mut r = raid();
        r.fail_disk(0);
        // Partial write to stripe 0 (disk 0, failed): survivors are read,
        // parity is rewritten, the failed disk is never touched.
        r.submit(SimTime::ZERO, &IoRequest::write(0, 8));
        let stats = r.stats();
        assert_eq!(stats.per_disk[0].requests, 0);
        assert!(stats.per_disk[7].bytes_written > 0, "parity absorbed the update");
        assert!(stats.per_disk[1].bytes_read > 0, "survivors read for reconstruction");
    }

    #[test]
    fn degraded_write_with_failed_parity_still_lands_data() {
        let mut r = raid();
        r.fail_disk(7); // row 0's parity disk
        r.submit(SimTime::ZERO, &IoRequest::write(0, 8));
        let stats = r.stats();
        assert_eq!(stats.per_disk[7].requests, 0);
        assert_eq!(stats.per_disk[0].bytes_written, 8 * KB, "data still written");
    }

    #[test]
    fn rebuild_restores_health_and_costs_a_full_scan() {
        let mut r =
            ArrayConfig { layout: ArrayLayout::Raid5, ndisks: 4, ..ArrayConfig::scaled(64) }.build();
        r.fail_disk(2);
        let end = r.rebuild(SimTime::ZERO);
        assert_eq!(r.failed, None);
        // Rebuild >= read a whole disk + write a whole disk, back to back.
        let per_disk = DiskGeometry::wren_iv_scaled(64).capacity_bytes() as f64;
        let rate = DiskGeometry::wren_iv_scaled(64).nominal_sequential_rate();
        let floor = 2.0 * per_disk / rate;
        assert!(end.as_ms() > 0.9 * floor, "rebuild {} ms vs floor {floor} ms", end.as_ms());
        // Healthy again: degraded paths are off.
        r.submit(SimTime::ZERO, &IoRequest::read(0, 24));
        assert!(r.stats().per_disk[2].requests >= 1);
    }

    #[test]
    #[should_panic(expected = "single-failure")]
    fn double_failure_is_rejected() {
        let mut r = raid();
        r.fail_disk(0);
        r.fail_disk(1);
    }

    #[test]
    #[should_panic(expected = "only a RAID-5 array can run degraded")]
    fn fail_disk_needs_raid5() {
        ArrayConfig::paper_default().build().fail_disk(0);
    }
}
