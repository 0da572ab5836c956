//! Koch's buddy allocation policy (§4.1, \[KOCH87\]).
//!
//! "A file may be composed of some number of extents. The size of each
//! extent is a power of two multiple of the sector size. Each time a new
//! extent is required, the extent size is chosen to double the current size
//! of the file."
//!
//! Only the allocation/deallocation algorithm is modelled — *not* the DTSS
//! nightly reallocator — matching the paper's simulation. Extents are capped
//! (default 64 MB; §5 observes the buddy system using 64 MB blocks for
//! files over 100 MB), after which a file keeps appending max-size extents.
//!
//! Doubling over-allocates aggressively, which is exactly the severe
//! internal fragmentation Table 3 reports (43 % for the supercomputer
//! workload); Knuth and Knowlton predicted as much.

use crate::buddy_core::{order_for_units, BuddyCore};
use crate::filemap::FileMap;
use crate::policy::Policy;
use crate::types::{AllocError, Extent, FileHints, FileId};

/// One file's state under the buddy policy.
#[derive(Debug, Clone, Default)]
struct BuddyFile {
    /// Buddy blocks in allocation order (`(address, order)`), needed to
    /// return blocks at their original granularity.
    blocks: Vec<(u64, u32)>,
    /// Merged extent view for I/O mapping.
    map: FileMap,
}

/// The Koch buddy policy over a [`BuddyCore`].
#[derive(Debug, Clone)]
pub struct BuddyPolicy {
    core: BuddyCore,
    files: Vec<Option<BuddyFile>>,
    free_slots: Vec<u32>,
    max_extent_units: u64,
}

impl BuddyPolicy {
    /// Creates the policy over `capacity_units`, capping extents at
    /// `max_extent_units` (rounded up to a power of two).
    pub fn new(capacity_units: u64, max_extent_units: u64) -> Self {
        assert!(max_extent_units > 0);
        BuddyPolicy {
            core: BuddyCore::new(capacity_units),
            files: Vec::new(),
            free_slots: Vec::new(),
            max_extent_units: max_extent_units.next_power_of_two(),
        }
    }

    fn file(&self, id: FileId) -> Result<&BuddyFile, AllocError> {
        self.files
            .get(id.0 as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or(AllocError::DeadFile(id))
    }

    fn file_mut(&mut self, id: FileId) -> Result<&mut BuddyFile, AllocError> {
        self.files
            .get_mut(id.0 as usize)
            .and_then(|slot| slot.as_mut())
            .ok_or(AllocError::DeadFile(id))
    }

    /// Frees the file's last buddy block and returns its size; 0 when the
    /// file has no blocks.
    fn pop_block(&mut self, file: FileId) -> Result<u64, AllocError> {
        let f = self.file_mut(file)?;
        let Some((addr, order)) = f.blocks.pop() else { return Ok(0) };
        let size = 1u64 << order;
        let popped = f.map.pop_back(size, |_| {});
        debug_assert_eq!(popped, size);
        self.core.free(addr, order);
        Ok(size)
    }

    /// Size in units of the next extent Koch's doubling rule would pick for
    /// a file currently holding `current_units`, when at least
    /// `needed_units` more are wanted.
    fn next_extent_units(&self, current_units: u64, needed_units: u64) -> u64 {
        let want = if current_units == 0 {
            // First allocation: just enough for the request, as a power of
            // two (a new file's size is known at its first write).
            needed_units.next_power_of_two()
        } else {
            // Doubling: the new extent equals the file's current size
            // (current is always a power of two or a multiple of the cap).
            current_units.next_power_of_two()
        };
        want.min(self.max_extent_units)
    }
}

impl Policy for BuddyPolicy {
    fn name(&self) -> &'static str {
        "buddy"
    }

    fn capacity_units(&self) -> u64 {
        self.core.capacity()
    }

    fn free_units(&self) -> u64 {
        self.core.free_units()
    }

    fn frag_gauges(&self) -> crate::policy::FragGauges {
        // Buddy blocks are the grant granularity: adjacent free blocks of
        // different orders never merge into one grant, so each free block
        // is one free extent.
        let free_blocks: usize = self.core.free_histogram().iter().map(|&(_, n)| n).sum();
        crate::policy::FragGauges {
            free_units: self.core.free_units(),
            free_extents: free_blocks as u64,
            largest_free_units: self.core.largest_free_block(),
        }
    }

    fn create(&mut self, _hints: &FileHints) -> Result<FileId, AllocError> {
        let file = BuddyFile::default();
        let id = match self.free_slots.pop() {
            Some(slot) => {
                self.files[slot as usize] = Some(file);
                FileId(slot)
            }
            None => {
                let id = FileId::from_index(self.files.len())?;
                self.files.push(Some(file));
                id
            }
        };
        Ok(id)
    }

    fn extend(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        debug_assert!(units > 0);
        let first_new = self.file(file)?.blocks.len();
        let mut granted = 0;
        while granted < units {
            let current = self.file(file)?.map.total_units();
            let size = self.next_extent_units(current, units - granted);
            let order = order_for_units(size);
            let Some(addr) = self.core.allocate(order) else {
                // Roll back this call's blocks, the file's last ones, so a
                // failed extend is atomic.
                while self.file(file)?.blocks.len() > first_new {
                    self.pop_block(file)?;
                }
                return Err(AllocError::DiskFull(size));
            };
            let f = self.file_mut(file)?;
            f.blocks.push((addr, order));
            f.map.push(Extent::new(addr, 1 << order));
            granted += 1 << order;
        }
        Ok(granted)
    }

    fn truncate(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        // Buddy blocks cannot be split, so free whole tail blocks that fit
        // entirely within the truncated range.
        let mut freed = 0;
        while let Some(&(_, order)) = self.file(file)?.blocks.last() {
            if freed + (1u64 << order) > units {
                break;
            }
            freed += self.pop_block(file)?;
        }
        Ok(freed)
    }

    fn delete(&mut self, file: FileId) -> Result<u64, AllocError> {
        let f = self
            .files
            .get_mut(file.0 as usize)
            .and_then(|slot| slot.take())
            .ok_or(AllocError::DeadFile(file))?;
        let mut freed = 0;
        for (addr, order) in f.blocks {
            self.core.free(addr, order);
            freed += 1u64 << order;
        }
        self.free_slots.push(file.0);
        Ok(freed)
    }

    fn file_map(&self, file: FileId) -> Result<&FileMap, AllocError> {
        Ok(&self.file(file)?.map)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .filter_map(|(i, _)| FileId::from_index(i).ok())
            .collect()
    }

    fn allocation_count(&self, file: FileId) -> Result<usize, AllocError> {
        Ok(self.file(file)?.blocks.len())
    }

    /// Koch's nightly reallocator \[KOCH87\]: "this reallocator shuffles
    /// extents around to reduce both the internal and external
    /// fragmentation. Using this combination, most files are allocated in 3
    /// extents and average under 4 % internal fragmentation."
    ///
    /// Every file is rewritten as a tight binary decomposition of its
    /// *logical* size — at most [`REALLOC_MAX_EXTENTS`] blocks, the final
    /// one rounded up to cover the tail — after all data blocks have been
    /// returned to the buddy structure, so the survivors pack from the low
    /// addresses. Files whose rounded decomposition no longer fits (the
    /// disk can be that full) fall back to the exact decomposition, which
    /// never needs more space than was just freed.
    fn reallocate(&mut self, logical_sizes: &[(FileId, u64)]) -> Result<Option<u64>, AllocError> {
        // Validate every id up front so a dead entry cannot leave phase 1
        // half-done (freeing some files' blocks but not others).
        for &(id, _) in logical_sizes {
            self.file(id)?;
        }
        // Phase 1: free every listed file's blocks (the caller lists live
        // files only).
        for &(id, _) in logical_sizes {
            let f = self.file_mut(id)?;
            let blocks = std::mem::take(&mut f.blocks);
            f.map.take_all();
            for (addr, order) in blocks {
                self.core.free(addr, order);
            }
        }
        // Phase 2: largest files first, so the big aligned blocks they need
        // still exist.
        let mut order_of_work: Vec<(FileId, u64)> =
            logical_sizes.iter().copied().filter(|&(_, units)| units > 0).collect();
        order_of_work.sort_by_key(|&(_, units)| std::cmp::Reverse(units));
        let mut moved = 0;
        for (id, units) in order_of_work {
            let plan = decompose_for_realloc(units, self.max_extent_units, REALLOC_MAX_EXTENTS);
            let plan = if self.plan_fits(&plan) {
                plan
            } else {
                exact_decomposition(units, self.max_extent_units)
            };
            // Worklist: when an aligned block of the wanted order cannot be
            // carved (possible near 100 % utilization with a ragged
            // capacity tail), fall back to two half-size blocks.
            let mut work: std::collections::VecDeque<u32> = plan.into();
            while let Some(order) = work.pop_front() {
                match self.core.allocate(order) {
                    Some(addr) => {
                        let f = self.file_mut(id)?;
                        f.blocks.push((addr, order));
                        f.map.push(Extent::new(addr, 1 << order));
                    }
                    None if order > 0 => {
                        work.push_front(order - 1);
                        work.push_front(order - 1);
                    }
                    None => break, // not a single unit free: stop gracefully
                }
            }
            moved += self.file(id)?.map.total_units();
        }
        Ok(Some(moved))
    }

    fn check_structure(&self) {
        self.core.check_invariants();
    }
}

/// Koch's reallocator rewrites each file into at most this many extents
/// ("most files are allocated in 3 extents").
pub const REALLOC_MAX_EXTENTS: usize = 3;

/// Largest-first binary decomposition of `units`, at most `max_extents`
/// blocks with the tail rounded up.
fn decompose_for_realloc(units: u64, max_extent_units: u64, max_extents: usize) -> Vec<u32> {
    debug_assert!(units > 0);
    let cap_order = order_for_units(max_extent_units);
    let mut orders = Vec::new();
    let mut remaining = units;
    while remaining > 0 {
        let is_last_slot = orders.len() + 1 >= max_extents;
        let order = if is_last_slot {
            // Round the tail up so the extent budget holds (unless even the
            // largest block cannot cover it — then capped blocks keep
            // appending; huge files legitimately take more extents).
            order_for_units(remaining).min(cap_order)
        } else {
            // Largest power of two ≤ remaining.
            (63 - remaining.leading_zeros()).min(cap_order)
        };
        orders.push(order);
        remaining = remaining.saturating_sub(1 << order);
    }
    orders
}

/// Exact decomposition (one block per set bit, capped): never allocates
/// more than `units` rounded up to one unit.
fn exact_decomposition(units: u64, max_extent_units: u64) -> Vec<u32> {
    let cap_order = order_for_units(max_extent_units);
    let mut orders = Vec::new();
    let mut remaining = units;
    while remaining > 0 {
        let order = (63 - remaining.leading_zeros()).min(cap_order);
        orders.push(order);
        remaining = remaining.saturating_sub(1 << order);
    }
    orders
}

impl BuddyPolicy {
    /// Whether blocks of the planned orders can all be carved from the
    /// current free structure (conservative: checks the largest need).
    fn plan_fits(&self, plan: &[u32]) -> bool {
        let need: u64 = plan.iter().map(|&o| 1u64 << o).sum();
        let largest = plan.iter().map(|&o| 1u64 << o).max().unwrap_or(0);
        self.core.free_units() >= need && self.core.largest_free_block() >= largest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BuddyPolicy {
        BuddyPolicy::new(1 << 20, 1 << 16) // 1 M units, 64 K-unit extent cap
    }

    #[test]
    fn first_allocation_rounds_to_power_of_two() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 5).unwrap();
        assert_eq!(p.allocated_units(f).unwrap(), 8, "5 units round to an 8-block");
        p.check_invariants();
    }

    #[test]
    fn growth_doubles_allocation() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 8).unwrap(); // 8
        p.extend(f, 1).unwrap(); // +8  → 16
        assert_eq!(p.allocated_units(f).unwrap(), 16);
        p.extend(f, 1).unwrap(); // +16 → 32
        assert_eq!(p.allocated_units(f).unwrap(), 32);
        // Doubling continues until the request is covered: +32, +64, then a
        // full +128 even though only 4 more units were needed — the
        // over-allocation Table 3 measures as internal fragmentation.
        p.extend(f, 100).unwrap();
        assert_eq!(p.allocated_units(f).unwrap(), 256);
        p.check_invariants();
    }

    #[test]
    fn extent_sizes_are_capped() {
        let mut p: BuddyPolicy = BuddyPolicy::new(1 << 20, 1 << 4);
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 1 << 8).unwrap();
        for &(_, order) in &p.file(f).unwrap().blocks {
            assert!(order <= 4, "extent above cap");
        }
        assert_eq!(p.allocated_units(f).unwrap(), 1 << 8, "cap removes over-allocation");
        p.check_invariants();
    }

    #[test]
    fn doubling_produces_internal_fragmentation() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        // Simulate a file growing by small appends: allocation races ahead.
        let mut logical = 0u64;
        for _ in 0..10 {
            p.extend(f, 3).unwrap();
            logical += 3;
        }
        assert!(p.allocated_units(f).unwrap() > logical, "over-allocation expected");
        p.check_invariants();
    }

    #[test]
    fn truncate_frees_only_whole_blocks() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 8).unwrap();
        p.extend(f, 1).unwrap(); // blocks: 8, 8
        assert_eq!(p.truncate(f, 4).unwrap(), 0, "4 < tail block of 8");
        assert_eq!(p.truncate(f, 9).unwrap(), 8, "one whole block");
        assert_eq!(p.allocated_units(f).unwrap(), 8);
        p.check_invariants();
    }

    #[test]
    fn delete_returns_all_space() {
        let mut p = policy();
        let before = p.free_units();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 1000).unwrap();
        assert!(p.free_units() < before);
        p.delete(f).unwrap();
        assert_eq!(p.free_units(), before);
        assert!(p.live_files().is_empty());
        p.check_invariants();
    }

    #[test]
    fn failed_extend_is_atomic() {
        let mut p: BuddyPolicy = BuddyPolicy::new(100, 1 << 16); // 64+32+4 decomposition
        let f = p.create(&FileHints::default()).unwrap();
        let free_before = p.free_units();
        // Asks for 127 → first block 128 > capacity: immediate failure.
        assert!(p.extend(f, 127).is_err());
        assert_eq!(p.free_units(), free_before);
        assert_eq!(p.allocated_units(f).unwrap(), 0);
        p.check_invariants();
    }

    #[test]
    fn file_ids_are_recycled() {
        let mut p = policy();
        let a = p.create(&FileHints::default()).unwrap();
        p.delete(a).unwrap();
        let b = p.create(&FileHints::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn realloc_decompositions_cover_their_targets() {
        for units in [1u64, 3, 7, 100, 1000, 4097, (1 << 17) + 5] {
            let plan = decompose_for_realloc(units, 1 << 16, REALLOC_MAX_EXTENTS);
            let total: u64 = plan.iter().map(|&o| 1u64 << o).sum();
            assert!(total >= units, "plan for {units} covers only {total}");
            // Within the budget unless the cap forces more blocks.
            if units <= (1 << 16) * REALLOC_MAX_EXTENTS as u64 {
                assert!(plan.len() <= REALLOC_MAX_EXTENTS, "{units}: {plan:?}");
            }
            let exact: u64 = exact_decomposition(units, 1 << 16).iter().map(|&o| 1u64 << o).sum();
            assert_eq!(exact, units.next_multiple_of(1), "exact plan is exact");
        }
    }

    #[test]
    fn nightly_reallocation_cuts_fragmentation_and_extent_count() {
        let mut p = policy();
        // Grow files in tiny appends so doubling over-allocates badly and
        // blocks scatter; delete every other file to fragment free space.
        let mut files = Vec::new();
        let mut logicals = Vec::new();
        for i in 0..40u64 {
            let f = p.create(&FileHints::default()).unwrap();
            let mut logical = 0;
            for _ in 0..(i % 7 + 3) {
                p.extend(f, 100).unwrap();
                logical += 100;
            }
            files.push(f);
            logicals.push(logical);
        }
        for i in (0..files.len()).step_by(2) {
            p.delete(files[i]).unwrap();
        }
        let survivors: Vec<(FileId, u64)> = files
            .iter()
            .zip(&logicals)
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, (&f, &l))| (f, l))
            .collect();
        let alloc_before: u64 = survivors.iter().map(|&(f, _)| p.allocated_units(f).unwrap()).sum();
        let used: u64 = survivors.iter().map(|&(_, l)| l).sum();
        let moved = p.reallocate(&survivors).unwrap().expect("buddy has a reallocator");
        p.check_invariants();
        let alloc_after: u64 = survivors.iter().map(|&(f, _)| p.allocated_units(f).unwrap()).sum();
        assert!(moved >= used, "all surviving data was rewritten");
        assert!(
            alloc_after < alloc_before,
            "internal fragmentation must drop: {alloc_before} -> {alloc_after} for {used} used"
        );
        // Koch: "most files are allocated in 3 extents".
        for &(f, l) in &survivors {
            assert!(
                p.allocation_count(f).unwrap() <= REALLOC_MAX_EXTENTS,
                "file with {l} units has {} blocks",
                p.allocation_count(f).unwrap()
            );
            assert!(p.allocated_units(f).unwrap() >= l, "still covers the data");
        }
    }

    #[test]
    fn reallocation_is_idempotent_on_a_tight_layout() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 1000).unwrap();
        let files = vec![(f, 1000u64)];
        p.reallocate(&files).unwrap().unwrap();
        let after_first: Vec<_> = p.file_map(f).unwrap().extents().to_vec();
        p.reallocate(&files).unwrap().unwrap();
        assert_eq!(p.file_map(f).unwrap().extents(), &after_first[..], "stable fixed point");
        p.check_invariants();
    }

    #[test]
    fn sequential_doubling_is_contiguous_on_fresh_disk() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 8).unwrap();
        p.extend(f, 8).unwrap();
        p.extend(f, 16).unwrap();
        // Fresh buddy space splits from the lowest address, so the doubling
        // sequence 8,8,16 lands at 0,8,16 — one merged extent.
        assert_eq!(p.extent_count(f).unwrap(), 1);
        assert_eq!(p.file_map(f).unwrap().extents()[0], Extent::new(0, 32));
    }
}
