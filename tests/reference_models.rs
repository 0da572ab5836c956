//! Differential tests of the low-level data structures against naive
//! reference implementations.

use proptest::prelude::*;
use readopt::alloc::filemap::FileMap;
use readopt::alloc::freespace::FreeSpaceMap;
use readopt::alloc::types::Extent;

/// Naive free-space model: one bool per unit.
#[derive(Debug)]
struct NaiveSpace {
    free: Vec<bool>,
}

impl NaiveSpace {
    fn new(capacity: usize) -> Self {
        NaiveSpace { free: vec![true; capacity] }
    }

    fn free_units(&self) -> u64 {
        self.free.iter().filter(|&&b| b).count() as u64
    }

    /// First-fit over the bitmap.
    fn first_fit(&mut self, len: usize) -> Option<u64> {
        let mut run = 0;
        for i in 0..self.free.len() {
            if self.free[i] {
                run += 1;
                if run == len {
                    let start = i + 1 - len;
                    for b in &mut self.free[start..=i] {
                        *b = false;
                    }
                    return Some(start as u64);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    fn release(&mut self, start: u64, len: u64) {
        for i in start..start + len {
            assert!(!self.free[i as usize], "naive double free");
            self.free[i as usize] = true;
        }
    }

    fn largest_run(&self) -> u64 {
        let mut best = 0;
        let mut run = 0;
        for &b in &self.free {
            if b {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First-fit allocation over the coalescing map returns exactly what a
    /// unit-granular bitmap scan would, through arbitrary alloc/free mixes.
    #[test]
    fn freespace_first_fit_matches_bitmap_scan(
        steps in proptest::collection::vec((1u64..64, any::<bool>()), 1..100),
    ) {
        const CAP: u64 = 2048;
        let mut fast = FreeSpaceMap::with_capacity(CAP);
        let mut naive = NaiveSpace::new(CAP as usize);
        let mut held: Vec<Extent> = Vec::new();
        for (len, do_free) in steps {
            if do_free && !held.is_empty() {
                let e = held.remove(held.len() / 2);
                fast.release(e);
                naive.release(e.start, e.len);
            } else {
                let a = fast.allocate_first_fit(len);
                let b = naive.first_fit(len as usize);
                prop_assert_eq!(a.map(|e| e.start), b, "first-fit position diverged");
                if let Some(e) = a {
                    held.push(e);
                }
            }
            prop_assert_eq!(fast.free_units(), naive.free_units());
            prop_assert_eq!(fast.largest_run(), naive.largest_run());
            fast.check_invariants();
        }
    }

    /// `FileMap::map_range_into` agrees with a unit-by-unit translation
    /// table, and clears the runs its reused buffer held before (the
    /// engine maps every transfer into one scratch `Vec`).
    #[test]
    fn filemap_map_range_matches_unit_table(
        extents in proptest::collection::vec((0u64..10_000, 1u64..50), 1..20),
        offset in 0u64..600,
        len in 1u64..600,
        stale in proptest::collection::vec((0u64..10_000, 1u64..50), 1..4),
    ) {
        // Make the extents disjoint by spacing them out deterministically.
        let mut m = FileMap::new();
        let mut table: Vec<u64> = Vec::new(); // logical unit -> physical unit
        let mut base = 0;
        for (gap, elen) in extents {
            let start = base + gap + 1; // ≥1 gap so pushes may or may not merge
            m.push(Extent::new(start, elen));
            for k in 0..elen {
                table.push(start + k);
            }
            base = start + elen;
        }
        let mut runs: Vec<Extent> = stale.into_iter().map(|(s, l)| Extent::new(s, l)).collect();
        m.map_range_into(offset, len, &mut runs);
        // Reassemble the runs into a flat physical-unit list.
        let mut got: Vec<u64> = Vec::new();
        for r in &runs {
            for k in 0..r.len {
                got.push(r.start + k);
            }
        }
        let end = ((offset + len) as usize).min(table.len());
        let want: Vec<u64> = if (offset as usize) < table.len() {
            table[offset as usize..end].to_vec()
        } else {
            Vec::new()
        };
        prop_assert_eq!(got, want);
        // Runs must be maximal (no two adjacent runs physically contiguous).
        for w in runs.windows(2) {
            prop_assert!(w[0].end() != w[1].start, "non-maximal run split");
        }
    }

    /// pop_back is the exact inverse of the tail of the map.
    #[test]
    fn filemap_pop_back_inverts_push(
        lens in proptest::collection::vec(1u64..40, 1..15),
        take in 1u64..300,
    ) {
        let mut m = FileMap::new();
        let mut base = 0;
        for len in &lens {
            m.push(Extent::new(base, *len));
            base += len + 7; // never adjacent
        }
        let total = m.total_units();
        let mut freed = Vec::new();
        let removed = m.pop_back(take, |e| freed.push(e));
        let freed_units: u64 = freed.iter().map(|e| e.len).sum();
        prop_assert_eq!(freed_units, take.min(total));
        prop_assert_eq!(removed, freed_units);
        prop_assert_eq!(m.total_units(), total - freed_units);
        // What remains plus what was freed is exactly the original layout.
        let mut all: Vec<Extent> = m.extents().to_vec();
        all.extend(freed.iter().rev().cloned());
        let mut reassembled = FileMap::new();
        for e in all {
            reassembled.push(e);
        }
        prop_assert_eq!(reassembled.total_units(), total);
    }
}
