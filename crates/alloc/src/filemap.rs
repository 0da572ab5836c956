//! Per-file extent maps: the logical-to-physical translation layer.

use crate::types::Extent;

/// The ordered list of extents backing one file.
///
/// Extent `i` holds the file's logical units starting at the sum of the
/// lengths of extents `0..i`. Appends that are physically adjacent to the
/// tail extent are merged, so a perfectly sequential allocation shows up as
/// a single extent regardless of how many allocation calls produced it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileMap {
    extents: Vec<Extent>,
    total: u64,
}

impl FileMap {
    /// An empty map.
    pub fn new() -> Self {
        FileMap::default()
    }

    /// Total allocated units.
    pub fn total_units(&self) -> u64 {
        self.total
    }

    /// Number of (merged) extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// The extents in logical order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Physical address of the unit immediately after the file's last
    /// allocated unit — where a contiguity-seeking allocator would like the
    /// next block to land. `None` for an empty file.
    pub fn next_sequential_unit(&self) -> Option<u64> {
        self.extents.last().map(Extent::end)
    }

    /// Appends an extent, merging with the tail when physically adjacent.
    pub fn push(&mut self, e: Extent) {
        debug_assert!(e.len > 0);
        self.total += e.len;
        if let Some(last) = self.extents.last_mut() {
            if last.abuts(&e) {
                last.len += e.len;
                return;
            }
        }
        self.extents.push(e);
    }

    /// Removes `units` from the end of the file (at most the whole file),
    /// handing each freed physical run to `freed`, tail first. Returns the
    /// number of units removed. A callback rather than a returned `Vec`, so
    /// the allocation policies' truncate and rollback paths allocate
    /// nothing.
    pub fn pop_back(&mut self, units: u64, mut freed: impl FnMut(Extent)) -> u64 {
        let removed = units.min(self.total);
        let mut remaining = removed;
        while remaining > 0 {
            // `total > 0` implies extents exist; if the two ever disagreed,
            // stopping early loses nothing (the runs handed out are exact).
            let Some(last) = self.extents.last_mut() else {
                debug_assert!(false, "total > 0 with no extents");
                return removed - remaining;
            };
            if last.len <= remaining {
                remaining -= last.len;
                self.total -= last.len;
                freed(*last);
                self.extents.pop();
            } else {
                last.len -= remaining;
                self.total -= remaining;
                freed(Extent::new(last.end(), remaining));
                remaining = 0;
            }
        }
        removed
    }

    /// Removes and returns every extent, emptying the map.
    pub fn take_all(&mut self) -> Vec<Extent> {
        self.total = 0;
        std::mem::take(&mut self.extents)
    }

    /// Maps the logical range `[offset, offset + len)` (in units) to
    /// physical runs, in logical order, written into `out` (cleared
    /// first). The range is clamped to the allocated size. Taking the
    /// buffer lets the simulator's per-operation hot path reuse one
    /// scratch `Vec` instead of allocating a fresh one for every transfer.
    pub fn map_range_into(&self, offset: u64, len: u64, out: &mut Vec<Extent>) {
        out.clear();
        let end = (offset + len).min(self.total);
        if offset >= end {
            return;
        }
        let mut logical = 0u64;
        for e in &self.extents {
            let e_end = logical + e.len;
            if e_end > offset && logical < end {
                let lo = offset.max(logical);
                let hi = end.min(e_end);
                out.push(Extent::new(e.start + (lo - logical), hi - lo));
            }
            logical = e_end;
            if logical >= end {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_adjacent() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 4));
        m.push(Extent::new(4, 4));
        m.push(Extent::new(100, 8));
        assert_eq!(m.extent_count(), 2);
        assert_eq!(m.total_units(), 16);
        assert_eq!(m.extents()[0], Extent::new(0, 8));
    }

    #[test]
    fn next_sequential_tracks_tail() {
        let mut m = FileMap::new();
        assert_eq!(m.next_sequential_unit(), None);
        m.push(Extent::new(10, 6));
        assert_eq!(m.next_sequential_unit(), Some(16));
    }

    #[test]
    fn pop_back_splits_extents() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 8));
        m.push(Extent::new(100, 8));
        let mut freed = Vec::new();
        assert_eq!(m.pop_back(10, |e| freed.push(e)), 10);
        assert_eq!(freed, vec![Extent::new(100, 8), Extent::new(6, 2)]);
        assert_eq!(m.total_units(), 6);
        assert_eq!(m.extents(), &[Extent::new(0, 6)]);
    }

    #[test]
    fn pop_back_clamps_to_size() {
        let mut m = FileMap::new();
        m.push(Extent::new(5, 3));
        let mut freed = Vec::new();
        assert_eq!(m.pop_back(100, |e| freed.push(e)), 3);
        assert_eq!(freed, vec![Extent::new(5, 3)]);
        assert_eq!(m.total_units(), 0);
        assert_eq!(m.extent_count(), 0);
    }

    #[test]
    fn take_all_empties() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 2));
        m.push(Extent::new(9, 2));
        let all = m.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(m.total_units(), 0);
    }

    /// `map_range_into` on a scratch buffer that still holds a stale
    /// extent, as the engine's reused buffer does: the old runs must go.
    fn map_range(m: &FileMap, offset: u64, len: u64) -> Vec<Extent> {
        let mut out = vec![Extent::new(999, 1)];
        m.map_range_into(offset, len, &mut out);
        out
    }

    #[test]
    fn map_range_spans_extents() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 4)); // logical 0..4
        m.push(Extent::new(10, 4)); // logical 4..8
        m.push(Extent::new(20, 4)); // logical 8..12
        assert_eq!(map_range(&m, 2, 8), vec![
            Extent::new(2, 2),
            Extent::new(10, 4),
            Extent::new(20, 2),
        ]);
    }

    #[test]
    fn map_range_clamps_and_handles_empty() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 4));
        assert_eq!(map_range(&m, 3, 100), vec![Extent::new(3, 1)]);
        assert!(map_range(&m, 4, 1).is_empty());
        assert!(map_range(&m, 0, 0).is_empty());
    }

    #[test]
    fn map_range_whole_file() {
        let mut m = FileMap::new();
        m.push(Extent::new(7, 5));
        m.push(Extent::new(50, 5));
        let runs = map_range(&m, 0, m.total_units());
        assert_eq!(runs, vec![Extent::new(7, 5), Extent::new(50, 5)]);
    }
}
