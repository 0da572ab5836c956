//! Ordered sets of free block addresses backed by a word-level bitmap.
//!
//! Every allocation policy keeps "free lists" of equally-sized,
//! equally-strided blocks: FFS cylinder-group blocks, restricted-buddy
//! class lists, and buddy per-order lists. §4.2 records free state in bit
//! maps and keeps the smaller classes in sorted lists; [`BitmapBlockSet`]
//! does both at once. It answers the sorted-list queries (lowest address,
//! lowest address at or after a point) lowest-address-first, exactly as a
//! `BTreeSet<u64>` would. `tests/bitmap_equiv.rs` checks it against a plain
//! `BTreeSet` on random lattices.

use crate::bitmap::FreeBitmap;

/// An ordered set of free block addresses with a fixed stride, one bitmap
/// slot per block: slot `k` covers address `base + k * stride`.
///
/// A set is created for a region `[base, end)` whose member addresses are
/// exactly `base + k * stride` with `addr + stride <= end`. Addresses off
/// that lattice are never members (`false` / `None`), which callers rely
/// on for "buddy beyond capacity" style probes. Membership ops are O(1)
/// word ops; ordered scans ride the bitmap's summary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapBlockSet {
    base: u64,
    stride: u64,
    bits: FreeBitmap,
}

impl BitmapBlockSet {
    /// Creates an empty set for blocks of `stride` units in `[base, end)`.
    pub fn new(base: u64, end: u64, stride: u64) -> Self {
        debug_assert!(stride > 0);
        let span = end.saturating_sub(base);
        BitmapBlockSet {
            base,
            stride,
            bits: FreeBitmap::new((span / stride) as usize),
        }
    }

    /// Slot index for `addr`, or `None` when `addr` is below `base`, not
    /// on the stride lattice, or at/past the last whole block before `end`.
    fn slot_of(&self, addr: u64) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let off = addr - self.base;
        if !off.is_multiple_of(self.stride) {
            return None;
        }
        let slot = (off / self.stride) as usize;
        (slot < self.bits.len()).then_some(slot)
    }

    fn addr_of(&self, slot: usize) -> u64 {
        self.base + slot as u64 * self.stride
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.bits.free_count()
    }

    /// True when the set has no addresses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `addr` is in the set.
    pub fn contains(&self, addr: u64) -> bool {
        self.slot_of(addr).is_some_and(|s| self.bits.is_free(s))
    }

    /// Inserts `addr`; returns `true` when it was not already present.
    pub fn insert(&mut self, addr: u64) -> bool {
        match self.slot_of(addr) {
            Some(s) if !self.bits.is_free(s) => {
                self.bits.set_free(s);
                true
            }
            _ => false,
        }
    }

    /// Removes `addr`; returns `true` when it was present.
    pub fn remove(&mut self, addr: u64) -> bool {
        match self.slot_of(addr) {
            Some(s) if self.bits.is_free(s) => {
                self.bits.set_used(s);
                true
            }
            _ => false,
        }
    }

    /// Smallest address in the set, if any.
    pub fn first(&self) -> Option<u64> {
        self.bits.first_free().map(|s| self.addr_of(s))
    }

    /// Smallest address `>= addr` in the set, if any (like
    /// `BTreeSet::range(addr..).next()`).
    pub fn first_at_or_after(&self, addr: u64) -> Option<u64> {
        if addr <= self.base {
            return self.first();
        }
        let from = (addr - self.base).div_ceil(self.stride) as usize;
        self.bits.first_free_at_or_after(from).map(|s| self.addr_of(s))
    }

    /// All addresses in ascending order (diagnostics/invariant checks).
    pub fn addrs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.bits.free_count());
        let mut i = self.bits.first_free();
        while let Some(s) = i {
            out.push(self.addr_of(s));
            i = self.bits.first_free_at_or_after(s + 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_first_match_reference() {
        let mut bm = BitmapBlockSet::new(100, 1000, 8);
        let mut bt = std::collections::BTreeSet::new();
        for a in [100u64, 108, 900, 492, 988] {
            assert_eq!(bm.insert(a), bt.insert(a), "insert {a}");
        }
        assert_eq!(bm.len(), bt.len());
        assert_eq!(bm.first(), bt.first().copied());
        assert_eq!(bm.addrs(), bt.iter().copied().collect::<Vec<_>>());
        for probe in [0u64, 99, 100, 101, 108, 400, 492, 900, 988, 989, 2000] {
            assert_eq!(
                bm.first_at_or_after(probe),
                bt.range(probe..).next().copied(),
                "first_at_or_after {probe}"
            );
        }
        assert!(bm.remove(492));
        assert!(!bm.remove(492), "absent now");
        assert_eq!(bm.addrs(), vec![100, 108, 900, 988]);
    }

    #[test]
    fn off_lattice_and_out_of_range_rejected() {
        let mut bm = BitmapBlockSet::new(0, 100, 8);
        assert!(!bm.insert(4)); // off-stride
        assert!(!bm.insert(96)); // 96 + 8 > 100: no whole block fits
        assert!(bm.insert(88)); // 88 + 8 <= 100
        assert!(!bm.remove(104)); // beyond end — buddy-probe style miss
        assert!(!bm.contains(4));
        assert_eq!(bm.len(), 1);
    }

    #[test]
    fn first_at_or_after_unaligned_probe_rounds_up() {
        let mut bm = BitmapBlockSet::new(0, 64, 4);
        bm.insert(8);
        bm.insert(16);
        // An unaligned probe between members must land on the next member,
        // exactly as BTreeSet::range(p..) would.
        assert_eq!(bm.first_at_or_after(9), Some(16));
        assert_eq!(bm.first_at_or_after(8), Some(8));
        assert_eq!(bm.first_at_or_after(17), None);
    }

    #[test]
    fn ragged_tail_capacity() {
        // end - base not a multiple of stride: only whole blocks exist.
        let bm = BitmapBlockSet::new(10, 45, 8);
        // slots cover 10, 18, 26, 34 — 42 would end at 50 > 45.
        let mut bm = bm;
        assert!(bm.insert(34));
        assert!(!bm.insert(42));
        assert_eq!(bm.addrs(), vec![34]);
    }
}
