//! The classic binary-buddy free-space manager \[KNOW65, KNUT69\].
//!
//! Blocks are powers of two in size and aligned to their size. A block of
//! order `k` (`2^k` units) splits into two order `k-1` *buddies*; a freed
//! block whose buddy is also free coalesces back into its parent,
//! recursively. Used by the Koch policy (§4.1).

use crate::blockset::BitmapBlockSet;

/// Binary-buddy manager over the unit range `[0, capacity)`.
///
/// The capacity need not be a power of two: the space is seeded with the
/// greedy decomposition of `[0, capacity)` into maximal aligned blocks, and
/// coalescing never produces a block extending past `capacity`.
#[derive(Debug, Clone)]
pub struct BuddyCore {
    capacity: u64,
    max_order: u32,
    /// `free[k]` holds the start addresses of free order-`k` blocks.
    free: Vec<BitmapBlockSet>,
    free_units: u64,
}

/// Smallest order whose block size is ≥ `units`.
pub fn order_for_units(units: u64) -> u32 {
    debug_assert!(units > 0);
    units.next_power_of_two().trailing_zeros()
}

impl BuddyCore {
    /// Creates a manager with `[0, capacity)` entirely free.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "empty buddy space");
        let max_order = 63 - capacity.leading_zeros();
        let mut free: Vec<BitmapBlockSet> =
            (0..=max_order).map(|k| BitmapBlockSet::new(0, capacity, 1 << k)).collect();
        // Greedy decomposition: at each address, take the largest aligned
        // block that still fits.
        let mut addr = 0u64;
        while addr < capacity {
            let align_order = if addr == 0 { max_order } else { addr.trailing_zeros().min(max_order) };
            let remain = capacity - addr;
            let fit_order = 63 - remain.leading_zeros();
            let order = align_order.min(fit_order);
            free[order as usize].insert(addr);
            addr += 1 << order;
        }
        BuddyCore { capacity, max_order, free, free_units: capacity }
    }

    /// Unit capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Currently free units.
    pub fn free_units(&self) -> u64 {
        self.free_units
    }

    /// Largest order (inclusive) this manager tracks.
    pub fn max_order(&self) -> u32 {
        self.max_order
    }

    /// Size in units of the largest free block.
    pub fn largest_free_block(&self) -> u64 {
        for k in (0..=self.max_order).rev() {
            if !self.free[k as usize].is_empty() {
                return 1 << k;
            }
        }
        0
    }

    /// Allocates one aligned block of order `order`, splitting larger
    /// blocks as needed (always from the lowest available address).
    pub fn allocate(&mut self, order: u32) -> Option<u64> {
        if order > self.max_order {
            return None;
        }
        let mut have = order;
        while have <= self.max_order && self.free[have as usize].is_empty() {
            have += 1;
        }
        if have > self.max_order {
            return None;
        }
        // The loop above stopped on a non-empty set, so `first()` is `Some`;
        // treating `None` as exhaustion keeps this branch panic-free.
        let Some(addr) = self.free[have as usize].first() else {
            return None;
        };
        self.free[have as usize].remove(addr);
        // Split down, keeping the lower half each time.
        while have > order {
            have -= 1;
            self.free[have as usize].insert(addr + (1 << have));
        }
        self.free_units -= 1 << order;
        Some(addr)
    }

    /// Frees the order-`order` block at `addr`, coalescing with free
    /// buddies as far as possible.
    pub fn free(&mut self, addr: u64, order: u32) {
        debug_assert_eq!(addr % (1 << order), 0, "misaligned free");
        debug_assert!(addr + (1 << order) <= self.capacity, "free past end");
        // Coalescing moves units between orders without changing the free
        // total, so only the originally freed size is added at the end.
        let freed_units = 1u64 << order;
        let mut addr = addr;
        let mut order = order;
        while order < self.max_order {
            let buddy = addr ^ (1u64 << order);
            // The buddy may lie (partly) beyond capacity, in which case it
            // can never be in the free set.
            if !self.free[order as usize].remove(buddy) {
                break;
            }
            addr = addr.min(buddy);
            order += 1;
        }
        let inserted = self.free[order as usize].insert(addr);
        debug_assert!(inserted, "double free of block at {addr}");
        self.free_units += freed_units;
    }

    /// Number of free blocks of each order, for diagnostics.
    pub fn free_histogram(&self) -> Vec<(u32, usize)> {
        // Iterate orders (at most `max_order` ≤ 63) rather than casting the
        // enumerate index down from usize.
        (0..=self.max_order)
            .filter(|&k| !self.free[k as usize].is_empty())
            .map(|k| (k, self.free[k as usize].len()))
            .collect()
    }

    /// Debug invariant: blocks aligned, in bounds, disjoint, counts
    /// consistent, and maximally coalesced.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        let mut total = 0u64;
        for (k, set) in self.free.iter().enumerate() {
            for a in set.addrs() {
                let size = 1u64 << k;
                assert_eq!(a % size, 0, "misaligned block {a} of order {k}");
                assert!(a + size <= self.capacity, "block {a} of order {k} out of bounds");
                blocks.push((a, size));
                total += size;
                // Maximal coalescing: the buddy must not also be free.
                if k < self.max_order as usize {
                    let buddy = a ^ size;
                    assert!(
                        !set.contains(buddy) || buddy + size > self.capacity,
                        "uncoalesced buddies at {a}/{buddy} order {k}"
                    );
                }
            }
        }
        assert_eq!(total, self.free_units, "free unit count out of sync");
        blocks.sort_unstable();
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping free blocks");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_for_units_rounds_up() {
        assert_eq!(order_for_units(1), 0);
        assert_eq!(order_for_units(2), 1);
        assert_eq!(order_for_units(3), 2);
        assert_eq!(order_for_units(8), 3);
        assert_eq!(order_for_units(9), 4);
    }

    #[test]
    fn power_of_two_capacity_seeds_one_block() {
        let b: BuddyCore = BuddyCore::new(1024);
        assert_eq!(b.free_units(), 1024);
        assert_eq!(b.largest_free_block(), 1024);
        b.check_invariants();
    }

    #[test]
    fn odd_capacity_decomposes_greedily() {
        // 1000 = 512 + 256 + 128 + 64 + 32 + 8
        let b: BuddyCore = BuddyCore::new(1000);
        assert_eq!(b.free_units(), 1000);
        let hist = b.free_histogram();
        let orders: Vec<u32> = hist.iter().map(|&(k, _)| k).collect();
        assert_eq!(orders, vec![3, 5, 6, 7, 8, 9]);
        b.check_invariants();
    }

    #[test]
    fn allocate_splits_from_lowest_address() {
        let mut b: BuddyCore = BuddyCore::new(1024);
        let a = b.allocate(3).unwrap(); // 8 units
        assert_eq!(a, 0);
        let c = b.allocate(3).unwrap();
        assert_eq!(c, 8, "next split block");
        assert_eq!(b.free_units(), 1024 - 16);
        b.check_invariants();
    }

    #[test]
    fn free_coalesces_back_to_root() {
        let mut b: BuddyCore = BuddyCore::new(1024);
        let a = b.allocate(3).unwrap();
        let c = b.allocate(3).unwrap();
        b.free(a, 3);
        b.check_invariants();
        b.free(c, 3);
        b.check_invariants();
        assert_eq!(b.largest_free_block(), 1024, "fully re-coalesced");
    }

    #[test]
    fn allocation_failure_when_no_large_block() {
        let mut b: BuddyCore = BuddyCore::new(1024);
        // Fragment: allocate all 512-blocks' worth in 1-unit pieces... use a
        // cheaper scheme: take both 512 halves, free one, ask for 1024.
        let lo = b.allocate(9).unwrap();
        let _hi = b.allocate(9).unwrap();
        b.free(lo, 9);
        assert!(b.allocate(10).is_none(), "only 512 free");
        assert_eq!(b.free_units(), 512);
    }

    #[test]
    fn cannot_allocate_beyond_max_order() {
        let mut b: BuddyCore = BuddyCore::new(100);
        assert!(b.allocate(12).is_none());
    }

    #[test]
    fn coalescing_respects_capacity_edge() {
        // Capacity 96 = 64 + 32. Free 32-block at 64 has buddy 96..128 which
        // does not exist; freeing everything must restore exactly 64 + 32.
        let mut b: BuddyCore = BuddyCore::new(96);
        // First order-5 request takes the seeded 32-block at 64; the next
        // two split the 64-block at 0.
        let a = b.allocate(5).unwrap();
        let c = b.allocate(5).unwrap();
        let d = b.allocate(5).unwrap();
        assert_eq!((a, c, d), (64, 0, 32));
        b.free(d, 5);
        b.free(c, 5);
        b.free(a, 5);
        b.check_invariants();
        assert_eq!(b.free_units(), 96);
        let hist = b.free_histogram();
        assert_eq!(hist, vec![(5, 1), (6, 1)]);
    }

    #[test]
    fn interleaved_stress_keeps_invariants() {
        let mut b: BuddyCore = BuddyCore::new(4096 + 512);
        let mut held: Vec<(u64, u32)> = Vec::new();
        for i in 0..200u32 {
            let order = i % 5;
            if i % 3 == 0 && !held.is_empty() {
                let (a, k) = held.remove((i as usize * 7) % held.len());
                b.free(a, k);
            } else if let Some(a) = b.allocate(order) {
                held.push((a, order));
            }
            b.check_invariants();
        }
        for (a, k) in held {
            b.free(a, k);
        }
        b.check_invariants();
        assert_eq!(b.free_units(), 4096 + 512);
    }
}
