//! Address-ordered, always-coalesced free-space map for extent systems.
//!
//! §4.3: "When an extent is freed, it is coalesced with its adjoining
//! extents if they are free." [`FreeSpaceMap`] keeps that state in a
//! word-level [`FreeBitmap`] of every unit: maximal free runs are
//! recovered with word scans (`trailing_zeros`/`leading_zeros`), so
//! coalescing is automatic, while a `BTreeSet<(len, start)>` index answers
//! best-fit and "largest free run" queries in O(log n). Runs are searched
//! lowest-address-first. `tests/bitmap_equiv.rs` checks every operation
//! against a plain `BTreeMap<start, len>` run map.

use crate::bitmap::FreeBitmap;
use crate::types::Extent;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::BTreeSet;

/// Bitmap-backed coalesced free-extent map over a linear unit space.
///
/// The bitmap is the by-address truth (free runs are maximal runs of set
/// bits; coalescing is automatic); `by_len` registers every maximal run as
/// `(len, start)` for best-fit and largest-run queries and is kept in
/// lockstep by every mutation.
#[derive(Debug, Clone, Default)]
pub struct FreeSpaceMap {
    bits: FreeBitmap,
    by_len: BTreeSet<(u64, u64)>,
}

impl FreeSpaceMap {
    /// An empty map (no free space).
    pub fn new() -> Self {
        FreeSpaceMap::default()
    }

    /// A map with the whole range `[0, capacity)` free.
    pub fn with_capacity(capacity: u64) -> Self {
        let mut m = FreeSpaceMap::new();
        if capacity > 0 {
            m.bits.grow(capacity as usize);
            m.bits.set_range_free(0, capacity as usize);
            m.by_len.insert((capacity, 0));
        }
        m
    }

    /// Total free units.
    pub fn free_units(&self) -> u64 {
        self.bits.free_count() as u64
    }

    /// Number of distinct free runs.
    pub fn run_count(&self) -> usize {
        self.by_len.len()
    }

    /// Length of the largest free run (0 when empty).
    pub fn largest_run(&self) -> u64 {
        self.by_len.iter().next_back().map_or(0, |&(len, _)| len)
    }

    /// Iterates free runs in address order (bitmap scan).
    pub fn runs(&self) -> impl Iterator<Item = Extent> + '_ {
        let mut next = self.bits.first_free();
        std::iter::from_fn(move || {
            let start = next?;
            let end = self.bits.first_used_at_or_after(start).unwrap_or(self.bits.len());
            next = self.bits.first_free_at_or_after(end);
            Some(Extent::new(start as u64, (end - start) as u64))
        })
    }

    /// End (exclusive) of the maximal free run starting at or containing
    /// `i`.
    fn run_end(&self, i: usize) -> usize {
        self.bits.first_used_at_or_after(i).unwrap_or(self.bits.len())
    }

    /// Returns a free run to the map, coalescing with neighbours.
    ///
    /// The run must not overlap any existing free run (debug-asserted by
    /// the bitmap). Addresses past the current bitmap length extend it.
    pub fn release(&mut self, ext: Extent) {
        debug_assert!(ext.len > 0);
        let (start, len) = (ext.start as usize, ext.len as usize);
        if start + len > self.bits.len() {
            self.bits.grow(start + len);
        }
        let mut run_start = start;
        let mut run_end = start + len;
        // Coalesce with an abutting predecessor run.
        if start > 0 && self.bits.is_free(start - 1) {
            run_start = self.bits.free_run_start(start - 1);
            let was = self.by_len.remove(&((start - run_start) as u64, run_start as u64));
            debug_assert!(was, "by_len missing predecessor run at {run_start}");
        }
        // Coalesce with an abutting successor run.
        if start + len < self.bits.len() && self.bits.is_free(start + len) {
            run_end = self.run_end(start + len);
            let was = self.by_len.remove(&((run_end - (start + len)) as u64, (start + len) as u64));
            debug_assert!(was, "by_len missing successor run at {}", start + len);
        }
        self.bits.set_range_free(start, len);
        self.by_len.insert(((run_end - run_start) as u64, run_start as u64));
    }

    /// Carves the first `len` units from the maximal run
    /// `[run_start, run_end)`.
    fn carve(&mut self, run_start: usize, run_end: usize, len: usize) -> Option<Extent> {
        let was = self.by_len.remove(&((run_end - run_start) as u64, run_start as u64));
        debug_assert!(was, "by_len missing run at {run_start}");
        self.bits.set_range_used(run_start, len);
        if run_end > run_start + len {
            self.by_len.insert(((run_end - run_start - len) as u64, (run_start + len) as u64));
        }
        Some(Extent::new(run_start as u64, len as u64))
    }

    /// First-fit: carves `len` units from the lowest-addressed run that can
    /// hold them.
    pub fn allocate_first_fit(&mut self, len: u64) -> Option<Extent> {
        debug_assert!(len > 0);
        // The lowest free unit starts the lowest-addressed run. When that
        // run holds `len`, it is the first fit. Its end is looked for only
        // a few words out: a longer run (the untouched tail of a fresh
        // disk) goes to the hybrid below, whose index answers it in
        // O(log n) where a full end scan would cross the whole tail.
        const END_PROBE_WORDS: usize = 4;
        let first = self.bits.first_free()?;
        if let Some(end) = self.bits.free_run_end_within(first, END_PROBE_WORDS) {
            if end - first >= len as usize {
                return self.carve(first, end, len as usize);
            }
        }
        // The by-length index and the word scan are complementary: when few
        // runs qualify the index enumerates them all and the lowest start
        // wins outright; when many qualify the first fit sits close to the
        // front of the disk, so a bitmap scan capped by the index's best
        // candidate finds it in a handful of words. Either way the result
        // is the lowest-addressed qualifying run — identical to a pure
        // address-order search.
        const INDEX_BUDGET: usize = 64;
        let mut best: Option<(u64, u64)> = None; // (start, run_len)
        let mut exhausted = true;
        for (i, &(run_len, start)) in self.by_len.range((len, 0)..).enumerate() {
            if i == INDEX_BUDGET {
                exhausted = false;
                break;
            }
            if best.map_or(true, |(s, _)| start < s) {
                best = Some((start, run_len));
            }
        }
        // No qualifying run at all (also covers largest_run() < len).
        let (cand_start, cand_len) = best?;
        if !exhausted {
            if let Some(start) = self.bits.first_free_run_before(len as usize, cand_start as usize)
            {
                let end = self.run_end(start);
                return self.carve(start, end, len as usize);
            }
        }
        self.carve(cand_start as usize, (cand_start + cand_len) as usize, len as usize)
    }

    /// Best-fit: carves `len` units from the smallest run that can hold
    /// them (ties broken toward the lower address).
    pub fn allocate_best_fit(&mut self, len: u64) -> Option<Extent> {
        debug_assert!(len > 0);
        let &(run_len, start) = self.by_len.range((len, 0)..).next()?;
        self.carve(start as usize, (start + run_len) as usize, len as usize)
    }

    /// Allocates exactly `[start, start + len)` if that range is entirely
    /// free, e.g. for contiguity-preserving placement.
    pub fn allocate_at(&mut self, start: u64, len: u64) -> Option<Extent> {
        debug_assert!(len > 0);
        if !self.is_free(start, len) {
            return None;
        }
        let (start, len) = (start as usize, len as usize);
        let run_start = self.bits.free_run_start(start);
        let run_end = self.run_end(start);
        let was = self.by_len.remove(&((run_end - run_start) as u64, run_start as u64));
        debug_assert!(was, "by_len missing run at {run_start}");
        self.bits.set_range_used(start, len);
        if start > run_start {
            self.by_len.insert(((start - run_start) as u64, run_start as u64));
        }
        if run_end > start + len {
            self.by_len.insert(((run_end - start - len) as u64, (start + len) as u64));
        }
        Some(Extent::new(start as u64, len as u64))
    }

    /// True when `[start, start+len)` is entirely free.
    pub fn is_free(&self, start: u64, len: u64) -> bool {
        self.bits.free_in_range(start as usize, (start + len) as usize) as u64 == len
    }

    /// Debug invariant: the by_len index lists exactly the bitmap's maximal
    /// runs and the unit totals agree.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut total = 0u64;
        let mut n = 0usize;
        for run in self.runs() {
            assert!(run.len > 0, "zero-length run at {}", run.start);
            assert!(
                self.by_len.contains(&(run.len, run.start)),
                "missing len index for ({}, {})",
                run.start,
                run.len
            );
            total += run.len;
            n += 1;
        }
        assert_eq!(total, self.free_units(), "free_units out of sync");
        assert_eq!(self.by_len.len(), n, "index sizes differ");
    }
}

/// A snapshot is the bitmap alone: the by-length index is derived data.
impl Serialize for FreeSpaceMap {
    fn to_value(&self) -> Value {
        self.bits.to_value()
    }
}

impl Deserialize for FreeSpaceMap {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // FreeBitmap's deserializer validates word count, ghost bits, and
        // the popcount before handing anything back.
        let mut m = FreeSpaceMap { bits: FreeBitmap::from_value(v)?, by_len: BTreeSet::new() };
        m.by_len = m.runs().map(|e| (e.len, e.start)).collect();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_capacity_single_run() {
        let m = FreeSpaceMap::with_capacity(100);
        assert_eq!(m.free_units(), 100);
        assert_eq!(m.run_count(), 1);
        assert_eq!(m.largest_run(), 100);
        m.check_invariants();
    }

    #[test]
    fn first_fit_takes_lowest_address() {
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(50, 10));
        m.release(Extent::new(0, 5));
        let e = m.allocate_first_fit(5).unwrap();
        assert_eq!(e, Extent::new(0, 5));
        // Next request of 6 only fits in the high run.
        let e = m.allocate_first_fit(6).unwrap();
        assert_eq!(e.start, 50);
        m.check_invariants();
    }

    #[test]
    fn best_fit_takes_smallest_run() {
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(0, 100));
        m.release(Extent::new(200, 6));
        let e = m.allocate_best_fit(5).unwrap();
        assert_eq!(e.start, 200, "prefers the 6-unit run over the 100-unit one");
        assert_eq!(m.largest_run(), 100);
        m.check_invariants();
    }

    #[test]
    fn best_fit_tie_breaks_low_address() {
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(300, 8));
        m.release(Extent::new(100, 8));
        let e = m.allocate_best_fit(8).unwrap();
        assert_eq!(e.start, 100);
    }

    #[test]
    fn release_coalesces_both_sides() {
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(0, 10));
        m.release(Extent::new(20, 10));
        assert_eq!(m.run_count(), 2);
        m.release(Extent::new(10, 10));
        assert_eq!(m.run_count(), 1);
        assert_eq!(m.largest_run(), 30);
        m.check_invariants();
    }

    #[test]
    fn allocate_at_splits_run() {
        let mut m = FreeSpaceMap::with_capacity(100);
        let e = m.allocate_at(40, 20).unwrap();
        assert_eq!(e, Extent::new(40, 20));
        assert_eq!(m.run_count(), 2);
        assert_eq!(m.free_units(), 80);
        assert!(m.allocate_at(45, 1).is_none(), "already taken");
        assert!(m.is_free(0, 40));
        assert!(!m.is_free(39, 2));
        m.check_invariants();
    }

    #[test]
    fn allocate_at_edges() {
        let mut m = FreeSpaceMap::with_capacity(10);
        assert!(m.allocate_at(0, 10).is_some());
        assert_eq!(m.free_units(), 0);
        assert!(m.allocate_at(0, 1).is_none());
        m.check_invariants();
    }

    #[test]
    fn allocation_fails_when_no_run_large_enough() {
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(0, 4));
        m.release(Extent::new(10, 4));
        assert_eq!(m.free_units(), 8);
        assert!(m.allocate_first_fit(5).is_none(), "external fragmentation");
        assert!(m.allocate_best_fit(5).is_none());
    }

    #[test]
    fn first_fit_early_exit_leaves_map_intact() {
        // Requests beyond largest_run() fail without consuming space, and
        // boundary sizes (== largest run) still succeed.
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(0, 4));
        m.release(Extent::new(10, 16));
        m.release(Extent::new(100, 8));
        assert_eq!(m.largest_run(), 16);
        assert!(m.allocate_first_fit(17).is_none(), "larger than every run");
        assert_eq!(m.free_units(), 28, "failed allocation must not consume space");
        assert_eq!(m.run_count(), 3);
        m.check_invariants();
        // Exactly the largest run still allocates (no off-by-one in the
        // early exit), and first-fit semantics are preserved.
        let e = m.allocate_first_fit(16).unwrap();
        assert_eq!(e, Extent::new(10, 16));
        assert_eq!(m.largest_run(), 8);
        m.check_invariants();
    }

    #[test]
    fn alternating_alloc_free_round_trips() {
        let mut m = FreeSpaceMap::with_capacity(1000);
        let a = m.allocate_first_fit(100).unwrap();
        let b = m.allocate_first_fit(100).unwrap();
        let c = m.allocate_first_fit(100).unwrap();
        m.release(b);
        m.check_invariants();
        m.release(a);
        m.check_invariants();
        m.release(c);
        m.check_invariants();
        assert_eq!(m.run_count(), 1);
        assert_eq!(m.free_units(), 1000);
    }

    #[test]
    fn bitmap_runs_iterator_reports_maximal_runs() {
        let mut m = FreeSpaceMap::with_capacity(100);
        m.allocate_at(20, 30).unwrap();
        m.allocate_at(90, 10).unwrap();
        let runs: Vec<Extent> = m.runs().collect();
        assert_eq!(runs, vec![Extent::new(0, 20), Extent::new(50, 40)]);
    }

    #[test]
    fn snapshot_roundtrip_restores_runs_and_rejects_corruption() {
        let mut m = FreeSpaceMap::with_capacity(300);
        m.allocate_at(20, 30).unwrap();
        m.allocate_at(90, 10).unwrap();
        m.allocate_first_fit(5).unwrap();
        let snapshot = m.to_value();
        let mut restored = FreeSpaceMap::from_value(&snapshot).unwrap();
        assert_eq!(restored.runs().collect::<Vec<_>>(), m.runs().collect::<Vec<_>>());
        assert_eq!(restored.free_units(), m.free_units());
        restored.check_invariants();
        // Restored maps make identical allocation decisions.
        assert_eq!(restored.allocate_best_fit(7), m.allocate_best_fit(7));
        // A tampered snapshot (free_count off by one) is rejected.
        let Value::Object(mut fields) = snapshot else { panic!("bitmap serializes as an object") };
        let count = fields.iter_mut().find(|(k, _)| k == "free_count").unwrap();
        count.1 = Value::U64(1);
        let err = FreeSpaceMap::from_value(&Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("free_count"), "{err}");
    }

    #[test]
    fn bitmap_release_past_end_grows() {
        let mut m = FreeSpaceMap::new();
        m.release(Extent::new(1000, 8));
        m.release(Extent::new(0, 8));
        assert_eq!(m.free_units(), 16);
        assert_eq!(m.run_count(), 2);
        assert_eq!(m.allocate_first_fit(8), Some(Extent::new(0, 8)));
        m.check_invariants();
    }
}
