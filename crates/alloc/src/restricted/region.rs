//! Per-bookkeeping-region free-space management for the restricted buddy
//! policy (§4.2).
//!
//! "Free space is managed both by bit maps and free lists. A bit map is used
//! to record the state (free or used) of every maximum sized block in the
//! system. For smaller blocks, a circular doubly linked list of free blocks
//! is maintained in sorted order."
//!
//! A [`Region`] manages the blocks inside one bookkeeping region (32 MB in
//! the paper's clustered configurations; the whole disk when unclustered).
//! Every class, the largest included, keeps its free blocks in one
//! [`BitmapBlockSet`]: the paper's bit map for the top class, and for the
//! smaller ones the functional equivalent of its sorted circular list, with
//! word scans instead of O(n) list walks.

use crate::blockset::BitmapBlockSet;

/// Free-block bookkeeping for one region.
///
/// `sizes` (shared by all regions, in units, strictly ascending, each
/// dividing the next) defines the block classes. A block of class `c` is
/// always aligned to `sizes[c]` in the *global* address space — "a block of
/// size N always starts at an address which is an integral multiple [of] N".
#[derive(Debug, Clone)]
pub struct Region {
    base: u64,
    end: u64,
    /// `lists[c]` holds the free class-`c` blocks.
    lists: Vec<BitmapBlockSet>,
    free_units: u64,
}

impl Region {
    /// Builds a region spanning `[base, end)` with every block free.
    ///
    /// `base` must be aligned to the largest class size (true for the
    /// paper's 32 MB regions with a 16 MB top class, and trivially for the
    /// single unclustered region at base 0).
    pub fn new(base: u64, end: u64, sizes: &[u64]) -> Self {
        assert!(!sizes.is_empty() && base < end);
        // simlint::allow(r3, "non-emptiness asserted on the previous line")
        let top = *sizes.last().unwrap_or_else(|| unreachable!("asserted non-empty above"));
        assert_eq!(base % top, 0, "region base must be aligned to the top block class");
        let mut region = Region {
            base,
            end,
            lists: sizes.iter().map(|&size| BitmapBlockSet::new(base, end, size)).collect(),
            free_units: 0,
        };
        // Greedy seeding: at each address take the largest class that is
        // aligned and fits.
        let mut addr = base;
        'outer: while addr < end {
            for c in (0..sizes.len()).rev() {
                if addr.is_multiple_of(sizes[c]) && addr + sizes[c] <= end {
                    region.insert(sizes, c, addr);
                    addr += sizes[c];
                    continue 'outer;
                }
            }
            // Remainder smaller than the smallest class: unusable slack.
            break;
        }
        region
    }

    /// First unit of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One-past-the-end unit.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Free units in this region.
    pub fn free_units(&self) -> u64 {
        self.free_units
    }

    /// Whether any block of exactly class `c` is free.
    pub fn has_free(&self, c: usize) -> bool {
        !self.lists[c].is_empty()
    }

    /// Whether any block of a class strictly larger than `c` is free —
    /// "adequate contiguous space" for a split.
    pub fn has_larger(&self, c: usize) -> bool {
        (c + 1..self.lists.len()).any(|k| self.has_free(k))
    }

    /// Inserts a free block without coalescing (seeding / split remainders).
    fn insert(&mut self, sizes: &[u64], c: usize, addr: u64) {
        let fresh = self.lists[c].insert(addr);
        debug_assert!(fresh, "double or misplaced insert of class-{c} block at {addr}");
        self.free_units += sizes[c];
    }

    /// Removes a specific free block (must be present).
    fn remove(&mut self, sizes: &[u64], c: usize, addr: u64) {
        let was = self.lists[c].remove(addr);
        debug_assert!(was, "removing absent class-{c} block at {addr}");
        self.free_units -= sizes[c];
    }

    /// Number of free blocks of exactly class `c`.
    pub fn free_block_count(&self, c: usize) -> u64 {
        self.lists[c].len() as u64
    }

    /// Whether the specific class-`c` block at `addr` is free. Misaligned
    /// addresses and blocks not wholly inside the region are never free
    /// (on scaled disks the region length need not be a multiple of the
    /// top size, and the ragged tail holds no top-class slot).
    pub fn is_block_free(&self, c: usize, addr: u64) -> bool {
        self.lists[c].contains(addr)
    }

    /// Takes the class-`c` block at exactly `addr`, if free.
    pub fn take_exact(&mut self, sizes: &[u64], c: usize, addr: u64) -> bool {
        if self.is_block_free(c, addr) {
            self.remove(sizes, c, addr);
            true
        } else {
            false
        }
    }

    /// Takes a free class-`c` block near `prefer` ("blocks are arranged
    /// sequentially, and the allocator attempts to allocate logically
    /// sequential blocks of a file to physically contiguous regions"); see
    /// [`Region::peek_near`] for the rule.
    pub fn take_near(&mut self, sizes: &[u64], c: usize, prefer: Option<u64>) -> Option<u64> {
        let addr = self.peek_near(sizes, c, prefer)?;
        self.remove(sizes, c, addr);
        Some(addr)
    }

    /// The free class-`c` block containing `prefer`, else the lowest one
    /// above it, else the lowest one in the region.
    fn peek_near(&self, sizes: &[u64], c: usize, prefer: Option<u64>) -> Option<u64> {
        let list = &self.lists[c];
        prefer
            .and_then(|p| {
                let container = p - p % sizes[c];
                if list.contains(container) {
                    Some(container)
                } else {
                    list.first_at_or_after(p)
                }
            })
            .or_else(|| list.first())
    }

    /// Splits a larger free block to produce one class-`c` block.
    ///
    /// Chooses the smallest larger class with a free block, takes its block
    /// near `prefer` (the [`Region::peek_near`] rule), carves out the child
    /// containing `prefer` when possible (else the first child), and
    /// returns the resulting block's address. Split remainders go onto the
    /// free lists — "the remaining space is linked into the free lists for
    /// the appropriate sized blocks".
    pub fn split_for(&mut self, sizes: &[u64], c: usize, prefer: Option<u64>) -> Option<u64> {
        let source_class = (c + 1..sizes.len()).find(|&k| self.has_free(k))?;
        let addr = self.peek_near(sizes, source_class, prefer)?;
        self.remove(sizes, source_class, addr);
        let mut cur_class = source_class;
        let mut cur_addr = addr;
        while cur_class > c {
            let child = sizes[cur_class - 1];
            let nchildren = sizes[cur_class] / child;
            let chosen = match prefer {
                Some(p) if (cur_addr..cur_addr + sizes[cur_class]).contains(&p) => {
                    cur_addr + (p - cur_addr) / child * child
                }
                _ => cur_addr,
            };
            for k in 0..nchildren {
                let a = cur_addr + k * child;
                if a != chosen {
                    self.insert(sizes, cur_class - 1, a);
                }
            }
            cur_addr = chosen;
            cur_class -= 1;
        }
        Some(cur_addr)
    }

    /// Returns a class-`c` block to the region, coalescing complete parent
    /// blocks upward — "these allocation policies attempt to coalesce
    /// buddies whenever possible".
    pub fn free_block(&mut self, sizes: &[u64], c: usize, addr: u64) {
        self.insert(sizes, c, addr);
        let mut c = c;
        let mut addr = addr;
        while c + 1 < sizes.len() {
            let parent = addr - addr % sizes[c + 1];
            if parent < self.base || parent + sizes[c + 1] > self.end {
                break;
            }
            let nchildren = sizes[c + 1] / sizes[c];
            let all_free = (0..nchildren).all(|k| self.is_block_free(c, parent + k * sizes[c]));
            if !all_free {
                break;
            }
            for k in 0..nchildren {
                self.remove(sizes, c, parent + k * sizes[c]);
            }
            self.insert(sizes, c + 1, parent);
            addr = parent;
            c += 1;
        }
    }

    /// Debug invariant: every free block aligned, in bounds, disjoint;
    /// unit count consistent; complete parents always promoted.
    #[doc(hidden)]
    pub fn check_invariants(&self, sizes: &[u64]) {
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut total = 0u64;
        for (c, list) in self.lists.iter().enumerate() {
            for a in list.addrs() {
                assert_eq!(a % sizes[c], 0);
                assert!(a >= self.base && a + sizes[c] <= self.end);
                spans.push((a, sizes[c]));
                total += sizes[c];
            }
        }
        assert_eq!(total, self.free_units, "region free-unit count out of sync");
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping free blocks in region");
        }
        // Maximal promotion: no complete free parent left unpromoted.
        for c in 0..sizes.len() - 1 {
            for a in self.lists[c].addrs() {
                let parent = a - a % sizes[c + 1];
                if parent >= self.base && parent + sizes[c + 1] <= self.end {
                    let nchildren = sizes[c + 1] / sizes[c];
                    let all = (0..nchildren).all(|k| self.is_block_free(c, parent + k * sizes[c]));
                    assert!(!all, "unpromoted complete parent at {parent} class {c}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: &[u64] = &[1, 8, 64]; // 1K/8K/64K in 1 K units

    #[test]
    fn seeding_fills_with_top_blocks() {
        let r: Region = Region::new(0, 640, SIZES);
        assert_eq!(r.free_units(), 640);
        assert!(r.has_free(2));
        assert!(!r.has_free(0), "everything promoted to top blocks");
        r.check_invariants(SIZES);
    }

    #[test]
    fn seeding_handles_ragged_tail() {
        // 100 units: one 64-block, four 8-blocks, four 1-blocks.
        let r: Region = Region::new(0, 100, SIZES);
        assert_eq!(r.free_units(), 100);
        r.check_invariants(SIZES);
    }

    #[test]
    fn take_near_prefers_address_at_or_after() {
        let mut r: Region = Region::new(0, 640, SIZES);
        let a = r.take_near(SIZES, 2, Some(128)).unwrap();
        assert_eq!(a, 128);
        // Last block (576..640) then a repeat of the same preference: the
        // search wraps to the lowest free block.
        let b = r.take_near(SIZES, 2, Some(600)).unwrap();
        assert_eq!(b, 576);
        let c = r.take_near(SIZES, 2, Some(600)).unwrap();
        assert_eq!(c, 0, "wraps to lowest when nothing at/after prefer");
        r.check_invariants(SIZES);
    }

    #[test]
    fn take_near_takes_the_block_containing_an_unaligned_prefer() {
        // Splitting the first top block leaves class-1 blocks at 8..64. A
        // class-1 request preferring unit 10 takes the block containing it,
        // not the next one up.
        let mut r: Region = Region::new(0, 640, SIZES);
        assert_eq!(r.split_for(SIZES, 0, None), Some(0));
        assert_eq!(r.take_near(SIZES, 1, Some(10)), Some(8));
        assert_eq!(r.take_near(SIZES, 1, Some(10)), Some(16), "then the lowest one above it");
        r.check_invariants(SIZES);
    }

    #[test]
    fn split_descends_to_requested_class() {
        let mut r: Region = Region::new(0, 640, SIZES);
        assert!(!r.has_free(0));
        let a = r.split_for(SIZES, 0, None).unwrap();
        assert_eq!(a, 0);
        // Remainders: 7 class-0 blocks and 7 class-1 blocks.
        assert!(r.has_free(0));
        assert!(r.has_free(1));
        assert_eq!(r.free_units(), 640 - 1);
        r.check_invariants(SIZES);
    }

    #[test]
    fn split_carves_block_containing_preferred_address() {
        let mut r: Region = Region::new(0, 640, SIZES);
        let a = r.split_for(SIZES, 0, Some(70)).unwrap();
        assert_eq!(a, 70, "the child containing the preferred unit");
        r.check_invariants(SIZES);
    }

    #[test]
    fn free_block_promotes_complete_parents() {
        let mut r: Region = Region::new(0, 640, SIZES);
        // Split a top block fully into class-0 pieces.
        let mut taken = Vec::new();
        for _ in 0..64 {
            let a = r
                .take_near(SIZES, 0, None)
                .or_else(|| r.split_for(SIZES, 0, None))
                .unwrap();
            taken.push(a);
        }
        assert_eq!(r.free_units(), 640 - 64);
        for a in taken {
            r.free_block(SIZES, 0, a);
        }
        assert_eq!(r.free_units(), 640);
        assert!(!r.has_free(0), "all coalesced back to top blocks");
        assert!(!r.has_free(1));
        r.check_invariants(SIZES);
    }

    #[test]
    fn ragged_tail_probe_is_not_free_and_does_not_panic() {
        // 100 units: the top-class grid has one slot (0..64); 64..100 is
        // seeded as smaller blocks. Probing the top-aligned address 64 —
        // inside the region but past the last full top slot — used to walk
        // off the bitmap; it must simply report "not free".
        let mut r: Region = Region::new(0, 100, SIZES);
        assert!(!r.is_block_free(2, 64));
        assert!(!r.is_block_free(1, 70), "misaligned class-1 probe");
        // The original failure path: a split preferring an address in the
        // ragged tail probes the containing top block first.
        let a = r.split_for(SIZES, 0, Some(65));
        assert!(a.is_some());
        r.check_invariants(SIZES);
    }

    #[test]
    fn take_exact_only_takes_free_blocks() {
        let mut r: Region = Region::new(0, 640, SIZES);
        assert!(r.take_exact(SIZES, 2, 64));
        assert!(!r.take_exact(SIZES, 2, 64), "already taken");
        assert!(!r.take_exact(SIZES, 0, 64), "not free at that class");
        r.check_invariants(SIZES);
    }

    #[test]
    fn nonzero_base_regions_work() {
        let mut r: Region = Region::new(640, 1280, SIZES);
        let a = r.take_near(SIZES, 2, None).unwrap();
        assert_eq!(a, 640);
        assert_eq!((r.base(), r.end()), (640, 1280));
        r.free_block(SIZES, 2, a);
        assert_eq!(r.free_units(), 640);
        r.check_invariants(SIZES);
    }

    #[test]
    fn has_larger_reports_split_potential() {
        let mut r: Region = Region::new(0, 64, SIZES);
        assert!(r.has_larger(0));
        assert!(!r.has_larger(2));
        let _ = r.take_near(SIZES, 2, None).unwrap();
        assert!(!r.has_larger(0), "nothing left at all");
    }

    #[test]
    fn single_class_region_uses_bitmap_only() {
        let sizes = &[4u64];
        let mut r: Region = Region::new(0, 40, sizes);
        assert_eq!(r.free_units(), 40);
        let a = r.take_near(sizes, 0, None).unwrap();
        assert_eq!(a, 0);
        r.free_block(sizes, 0, a);
        r.check_invariants(sizes);
    }
}
