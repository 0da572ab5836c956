//! The restricted buddy system (§4.2).
//!
//! "As in the buddy system, the restricted buddy system applies the
//! principle that as a file's size grows, so does its block size. … small
//! files are allocated from small blocks and don't suffer high
//! fragmentation. As files grow, they are allocated in larger and larger
//! chunks providing the ability to make large sequential transfers."
//!
//! The policy is parameterized by (1) the ladder of block sizes, (2) the
//! *grow policy* multiplier `g` — the allocation unit moves from `a_i` to
//! `a_{i+1}` once the file holds `g · a_{i+1}` worth of `a_i` blocks — and
//! (3) whether allocations are *clustered* into 32 MB bookkeeping regions
//! with per-region free lists and file descriptors.
//!
//! Allocation follows the paper's region-selection algorithm:
//!
//! 1. **Select the optimal region** — the region of the file's most recent
//!    block; failing that, the region of its file descriptor; for
//!    descriptor allocations, the region after the last descriptor
//!    allocation. Within the region, prefer the block physically following
//!    the file's last block; split a larger block (preferring the next
//!    sequential one) when the region has contiguous space but no block of
//!    the right size.
//! 2. **Select a region with a block of the correct size.**
//! 3. **Select the next region with available (contiguous) space** and
//!    split.

pub mod region;

use crate::bitmap::FreeBitmap;
use crate::filemap::FileMap;
use crate::policy::Policy;
use crate::types::{AllocError, Extent, FileHints, FileId};
use region::Region;

/// One file's state under the restricted buddy policy.
#[derive(Debug, Clone)]
struct RFile {
    map: FileMap,
    /// Blocks in allocation order: `(address, class)`.
    blocks: Vec<(u64, usize)>,
    /// Units allocated per class (drives the grow policy).
    units_per_class: Vec<u64>,
    /// File descriptor block address (always class 0).
    fd_addr: u64,
}

/// The restricted buddy policy.
#[derive(Debug, Clone)]
pub struct RestrictedPolicy {
    /// Block class sizes in units, ascending, each dividing the next.
    sizes: Vec<u64>,
    grow_factor: u64,
    regions: Vec<Region>,
    /// Region length in units (`u64::MAX`-like sentinel not needed: equals
    /// capacity when unclustered).
    region_units: u64,
    capacity: u64,
    files: Vec<Option<RFile>>,
    free_slots: Vec<u32>,
    /// Region in which the last file descriptor was allocated.
    fd_cursor: usize,
    metadata_units: u64,
    /// By-length region availability index: bit `r` of `avail[c]` is set
    /// iff `regions[r]` has a free block of exactly class `c`. Steps 2–3
    /// of the paper's region-selection algorithm become word-wise bitmap
    /// scans instead of a linear walk over every region.
    avail: Vec<FreeBitmap>,
}

impl RestrictedPolicy {
    /// Builds the policy.
    ///
    /// * `sizes_units` — ascending block classes (each must divide the next).
    /// * `grow_factor` — the grow-policy multiplier `g ≥ 1`.
    /// * `region_units` — bookkeeping region length; pass `None` for an
    ///   unclustered configuration (one region spanning the whole space).
    ///   Must be a multiple of the largest block class.
    pub fn new(
        capacity_units: u64,
        sizes_units: &[u64],
        grow_factor: u64,
        region_units: Option<u64>,
    ) -> Self {
        assert!(!sizes_units.is_empty(), "at least one block class");
        assert!(grow_factor >= 1, "grow factor must be ≥ 1");
        for w in sizes_units.windows(2) {
            assert!(w[0] < w[1] && w[1] % w[0] == 0, "classes must ascend and divide");
        }
        // simlint::allow(r3, "non-emptiness asserted at the top of the constructor")
        let top = *sizes_units.last().unwrap_or_else(|| unreachable!("asserted non-empty above"));
        if let Some(ru) = region_units {
            // Clustered: region bases must stay aligned to the top class.
            assert!(ru >= top, "region smaller than the largest block class");
            assert_eq!(ru % top, 0, "region must be a multiple of the top class");
        }
        let region_units = region_units.unwrap_or(capacity_units);
        let mut regions = Vec::new();
        let mut base = 0;
        while base < capacity_units {
            let end = (base + region_units).min(capacity_units);
            regions.push(Region::new(base, end, sizes_units));
            base = end;
        }
        let nregions = regions.len();
        let mut policy = RestrictedPolicy {
            sizes: sizes_units.to_vec(),
            grow_factor,
            regions,
            region_units,
            capacity: capacity_units,
            files: Vec::new(),
            free_slots: Vec::new(),
            fd_cursor: 0,
            metadata_units: 0,
            avail: sizes_units.iter().map(|_| FreeBitmap::new(nregions)).collect(),
        };
        for r in 0..nregions {
            policy.sync_region(r);
        }
        policy
    }

    /// Re-derives region `r`'s bits in the availability index from the
    /// region's own state. Must be called after any operation that may
    /// change which classes have free blocks in `r`.
    fn sync_region(&mut self, r: usize) {
        for c in 0..self.sizes.len() {
            let has = self.regions[r].has_free(c);
            if has != self.avail[c].is_free(r) {
                if has {
                    self.avail[c].set_free(r);
                } else {
                    self.avail[c].set_used(r);
                }
            }
        }
    }

    /// First region in the wrap order `optimal+1, …, n−1, 0, …, optimal−1`
    /// (the optimal region itself excluded — step 1 already tried it)
    /// whose bit is set in `bits`.
    fn next_region_in(bits: &FreeBitmap, optimal: usize) -> Option<usize> {
        if let Some(r) = bits.first_free_at_or_after(optimal + 1) {
            return Some(r);
        }
        // Wrapped segment [0, optimal): `first_free` returns the global
        // minimum set bit; if that is `optimal` itself, nothing below it
        // is set either and the wrap comes up empty.
        bits.first_free().filter(|&r| r != optimal)
    }

    /// Distance from `optimal` along the wrap order (1 ≤ distance < n for
    /// any region other than `optimal`).
    fn wrap_distance(&self, optimal: usize, r: usize) -> usize {
        (r + self.regions.len() - optimal) % self.regions.len()
    }

    /// Part of `check_structure`: verifies the availability index against
    /// the regions, and that from every optimal region steps 2–3 pick, for
    /// every class, the region a linear walk in wrap order picks.
    fn check_region_index(&self) {
        let nregions = self.regions.len();
        for (c, bits) in self.avail.iter().enumerate() {
            assert_eq!(bits.len(), nregions);
            for (r, region) in self.regions.iter().enumerate() {
                assert_eq!(
                    bits.is_free(r),
                    region.has_free(c),
                    "avail index out of sync for class {c}, region {r}"
                );
            }
            for optimal in 0..nregions {
                let walk = |fits: fn(&Region, usize) -> bool| {
                    let mut wrap_order = (1..nregions).map(|k| (optimal + k) % nregions);
                    wrap_order.find(|&r| fits(&self.regions[r], c))
                };
                assert_eq!(
                    self.step2_region(c, optimal),
                    walk(Region::has_free),
                    "step 2 disagrees with the linear walk for class {c} from region {optimal}"
                );
                assert_eq!(
                    self.step3_region(c, optimal),
                    walk(Region::has_larger),
                    "step 3 disagrees with the linear walk for class {c} from region {optimal}"
                );
            }
        }
    }

    /// Number of bookkeeping regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The configured block classes, in units.
    pub fn class_sizes(&self) -> &[u64] {
        &self.sizes
    }

    fn file(&self, id: FileId) -> Result<&RFile, AllocError> {
        self.files
            .get(id.0 as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or(AllocError::DeadFile(id))
    }

    fn file_mut(&mut self, id: FileId) -> Result<&mut RFile, AllocError> {
        self.files
            .get_mut(id.0 as usize)
            .and_then(|slot| slot.as_mut())
            .ok_or(AllocError::DeadFile(id))
    }

    fn region_of(&self, addr: u64) -> usize {
        ((addr / self.region_units) as usize).min(self.regions.len() - 1)
    }

    /// The class the grow policy prescribes for a file's next block: start
    /// at the smallest class and move up while the per-class quota
    /// (`g · a_{i+1}`) is met.
    fn next_class(&self, file: &RFile) -> usize {
        let mut c = 0;
        while c + 1 < self.sizes.len()
            && file.units_per_class[c] >= self.grow_factor * self.sizes[c + 1]
        {
            c += 1;
        }
        c
    }

    /// Core block allocation implementing the three-step region selection.
    ///
    /// `optimal` is the preferred region; `prefer` the preferred address
    /// (the unit following the file's last block, rounded up to class
    /// alignment by the caller).
    fn allocate_block(&mut self, class: usize, optimal: usize, prefer: Option<u64>) -> Option<u64> {
        // Perfect contiguity first: the exact preferred block, wherever it
        // lives (it may sit just past the optimal region's boundary).
        if let Some(p) = prefer {
            if p + self.sizes[class] <= self.capacity {
                let r = self.region_of(p);
                if self.regions[r].take_exact(&self.sizes, class, p) {
                    self.sync_region(r);
                    return Some(p);
                }
            }
        }
        // Step 1: the optimal region — right size, else split larger.
        if let Some(a) = self.regions[optimal].take_near(&self.sizes, class, prefer) {
            self.sync_region(optimal);
            return Some(a);
        }
        if let Some(a) = self.regions[optimal].split_for(&self.sizes, class, prefer) {
            self.sync_region(optimal);
            return Some(a);
        }
        // Step 2: any region with a block of the correct size.
        if let Some(r) = self.step2_region(class, optimal) {
            let a = self.regions[r].take_near(&self.sizes, class, None);
            self.sync_region(r);
            return a;
        }
        // Step 3: the next region with adequate contiguous space.
        if let Some(r) = self.step3_region(class, optimal) {
            let a = self.regions[r].split_for(&self.sizes, class, None);
            self.sync_region(r);
            return a;
        }
        None
    }

    /// Step 2's region choice: the first region in wrap order past
    /// `optimal` with a free block of exactly `class`.
    fn step2_region(&self, class: usize, optimal: usize) -> Option<usize> {
        Self::next_region_in(&self.avail[class], optimal)
    }

    /// Step 3's region choice: the first region in wrap order past
    /// `optimal` with a free block of any class larger than `class` —
    /// the minimum wrap distance over the per-class indexes.
    fn step3_region(&self, class: usize, optimal: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for k in class + 1..self.sizes.len() {
            if let Some(r) = Self::next_region_in(&self.avail[k], optimal) {
                if best.is_none_or(|b| {
                    self.wrap_distance(optimal, r) < self.wrap_distance(optimal, b)
                }) {
                    best = Some(r);
                }
            }
        }
        best
    }

    fn free_block(&mut self, class: usize, addr: u64) {
        let r = self.region_of(addr);
        self.regions[r].free_block(&self.sizes, class, addr);
        self.sync_region(r);
    }

    /// Frees the file's last block and returns its size; 0 when the file
    /// has no blocks.
    fn pop_block(&mut self, file: FileId) -> Result<u64, AllocError> {
        let Some(&(addr, class)) = self.file(file)?.blocks.last() else { return Ok(0) };
        let size = self.sizes[class];
        let f = self.file_mut(file)?;
        f.blocks.pop();
        f.units_per_class[class] -= size;
        f.map.pop_back(size, |_| {});
        self.free_block(class, addr);
        Ok(size)
    }

    /// Preferred placement for a file's next block of `class`: the unit
    /// after its last block, rounded **up** to the class alignment. When
    /// the block size has just grown, the file's end is usually not aligned
    /// to the new size — the Figure 3 effect: the file pays a seek (or at
    /// least a gap) at every class transition.
    fn preferred_addr(&self, file: &RFile, class: usize) -> Option<u64> {
        let next = file.map.next_sequential_unit()?;
        let size = self.sizes[class];
        Some(next.div_ceil(size) * size)
    }
}

impl Policy for RestrictedPolicy {
    fn name(&self) -> &'static str {
        "restricted-buddy"
    }

    fn capacity_units(&self) -> u64 {
        self.capacity
    }

    fn free_units(&self) -> u64 {
        self.regions.iter().map(|r| r.free_units()).sum()
    }

    fn frag_gauges(&self) -> crate::policy::FragGauges {
        // Blocks are the grant granularity (the ladder never coalesces
        // across classes), so each free block of each class is one extent;
        // the largest grant is the biggest class with any free block.
        let mut free_blocks = 0u64;
        let mut largest = 0u64;
        for (c, &size) in self.sizes.iter().enumerate() {
            let n: u64 = self.regions.iter().map(|r| r.free_block_count(c)).sum();
            free_blocks += n;
            if n > 0 {
                largest = largest.max(size);
            }
        }
        crate::policy::FragGauges {
            free_units: self.free_units(),
            free_extents: free_blocks,
            largest_free_units: largest,
        }
    }

    fn metadata_units(&self) -> u64 {
        self.metadata_units
    }

    fn create(&mut self, _hints: &FileHints) -> Result<FileId, AllocError> {
        // "If the allocation request is for a file descriptor, the optimal
        // region is the region after the region in which the last request
        // was satisfied."
        let optimal = (self.fd_cursor + 1) % self.regions.len();
        let fd_addr = self
            .allocate_block(0, optimal, None)
            .ok_or(AllocError::DiskFull(self.sizes[0]))?;
        self.fd_cursor = self.region_of(fd_addr);
        self.metadata_units += self.sizes[0];
        let file = RFile {
            map: FileMap::new(),
            blocks: Vec::new(),
            units_per_class: vec![0; self.sizes.len()],
            fd_addr,
        };
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
            let (class, prefer, optimal) = {
                let f = self.file(file)?;
                let class = self.next_class(f);
                let prefer = self.preferred_addr(f, class);
                // "If the request is for a block of a file, the optimal
                // region is that region which contains the most recently
                // allocated block for that file. If no blocks have been
                // allocated, the optimal region is that [of] the file
                // descriptor."
                let optimal = match f.blocks.last() {
                    Some(&(addr, _)) => self.region_of(addr),
                    None => self.region_of(f.fd_addr),
                };
                (class, prefer, optimal)
            };
            let Some(addr) = self.allocate_block(class, optimal, prefer) else {
                // Unwind this call's blocks, the file's last ones, newest
                // first: a failed extend is atomic.
                while self.file(file)?.blocks.len() > first_new {
                    self.pop_block(file)?;
                }
                return Err(AllocError::DiskFull(self.sizes[class]));
            };
            let size = self.sizes[class];
            let f = self.file_mut(file)?;
            f.blocks.push((addr, class));
            f.units_per_class[class] += size;
            f.map.push(Extent::new(addr, size));
            granted += size;
        }
        Ok(granted)
    }

    fn truncate(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        let mut freed = 0;
        while let Some(&(_, class)) = self.file(file)?.blocks.last() {
            if freed + self.sizes[class] > units {
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
        let mut data = 0;
        for &(addr, class) in f.blocks.iter().rev() {
            self.free_block(class, addr);
            data += self.sizes[class];
        }
        self.free_block(0, f.fd_addr);
        self.metadata_units -= self.sizes[0];
        self.free_slots.push(file.0);
        Ok(data)
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

    fn check_structure(&self) {
        for region in &self.regions {
            region.check_invariants(&self.sizes);
        }
        self.check_region_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1K/8K/64K ladder over 4 × 64 K-unit regions.
    fn clustered() -> RestrictedPolicy {
        RestrictedPolicy::new(4 * 64, &[1, 8, 64], 1, Some(64))
    }

    fn unclustered() -> RestrictedPolicy {
        RestrictedPolicy::new(4 * 64, &[1, 8, 64], 1, None)
    }

    #[test]
    fn construction_shapes() {
        assert_eq!(clustered().region_count(), 4);
        assert_eq!(unclustered().region_count(), 1);
    }

    #[test]
    fn grow_policy_ladders_up() {
        let mut p: RestrictedPolicy = RestrictedPolicy::new(1 << 14, &[1, 8, 64], 1, None);
        let f = p.create(&FileHints::default()).unwrap();
        // g=1: eight 1-unit blocks, then 8-unit blocks.
        p.extend(f, 8).unwrap();
        assert_eq!(p.file(f).unwrap().blocks.len(), 8);
        assert!(p.file(f).unwrap().blocks.iter().all(|&(_, c)| c == 0));
        // Next allocation must be class 1.
        p.extend(f, 1).unwrap();
        assert_eq!(p.file(f).unwrap().blocks.last().unwrap().1, 1);
        // After eight 8-unit blocks (64 units at class 1), class 2 follows.
        p.extend(f, 7 * 8 + 1).unwrap();
        assert_eq!(p.file(f).unwrap().blocks.last().unwrap().1, 2);
        p.check_invariants();
    }

    #[test]
    fn grow_factor_two_defers_promotion() {
        let mut p: RestrictedPolicy = RestrictedPolicy::new(1 << 14, &[1, 8, 64], 2, None);
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 16).unwrap(); // g=2 → sixteen class-0 blocks
        assert!(p.file(f).unwrap().blocks.iter().all(|&(_, c)| c == 0));
        assert_eq!(p.file(f).unwrap().blocks.len(), 16);
        p.extend(f, 1).unwrap();
        assert_eq!(p.file(f).unwrap().blocks.last().unwrap().1, 1);
        p.check_invariants();
    }

    #[test]
    fn sequential_extension_is_contiguous() {
        let mut p = unclustered();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 4).unwrap();
        p.extend(f, 4).unwrap();
        // fd consumed unit 0; the data blocks run contiguously after it.
        assert_eq!(p.extent_count(f).unwrap(), 1, "perfectly sequential layout");
        p.check_invariants();
    }

    #[test]
    fn class_transition_creates_aligned_gap() {
        // The Figure 3 effect: when the class grows from 1 to 8 units, the
        // next block must be 8-aligned, so a gap (and a seek) appears.
        let mut p = unclustered();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 8).unwrap(); // eight class-0 blocks: units 1..9 (0 is the fd)
        let tail_before = p.file_map(f).unwrap().next_sequential_unit().unwrap();
        assert_eq!(tail_before, 9);
        p.extend(f, 8).unwrap(); // class-1 block, preferred addr 16
        let last = *p.file_map(f).unwrap().extents().last().unwrap();
        assert_eq!(last.start % 8, 0, "class-1 block is 8-aligned");
        assert!(last.start >= 16, "rounded up past the unaligned tail");
        p.check_invariants();
    }

    #[test]
    fn fd_allocation_advances_regions_when_clustered() {
        let mut p = clustered();
        let a = p.create(&FileHints::default()).unwrap();
        let b = p.create(&FileHints::default()).unwrap();
        let c = p.create(&FileHints::default()).unwrap();
        let ra = p.region_of(p.file(a).unwrap().fd_addr);
        let rb = p.region_of(p.file(b).unwrap().fd_addr);
        let rc = p.region_of(p.file(c).unwrap().fd_addr);
        assert_ne!(ra, rb, "descriptors spread across regions");
        assert_ne!(rb, rc);
        assert_eq!(p.metadata_units(), 3);
        p.check_invariants();
    }

    #[test]
    fn file_blocks_cluster_near_descriptor() {
        let mut p = clustered();
        let a = p.create(&FileHints::default()).unwrap();
        let _b = p.create(&FileHints::default()).unwrap();
        p.extend(a, 4).unwrap();
        let fd_region = p.region_of(p.file(a).unwrap().fd_addr);
        for &(addr, _) in &p.file(a).unwrap().blocks {
            assert_eq!(p.region_of(addr), fd_region, "first block lands by the fd");
        }
        p.check_invariants();
    }

    #[test]
    fn spills_to_other_regions_when_optimal_full() {
        let mut p = clustered();
        let a = p.create(&FileHints::default()).unwrap();
        // Consume nearly everything; allocation must still succeed by
        // spilling across regions.
        p.extend(a, 200).unwrap();
        p.check_invariants();
        let util = 1.0 - p.free_units() as f64 / p.capacity_units() as f64;
        assert!(util > 0.75);
    }

    #[test]
    fn allocation_fails_only_when_no_block_available() {
        let mut p: RestrictedPolicy = RestrictedPolicy::new(64, &[1, 8], 1, None);
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 56).unwrap();
        // Remaining ≈ 7 units; class for next block is 1 (8 units) after
        // the ladder: blocks of 8 needed but only fragments remain → the
        // request fails, leaving external fragmentation.
        let err = p.extend(f, 8).unwrap_err();
        assert!(matches!(err, AllocError::DiskFull(_)));
        assert!(p.free_units() > 0, "space exists but not at the right size");
        p.check_invariants();
    }

    #[test]
    fn truncate_frees_whole_blocks_and_regresses_class() {
        let mut p = unclustered();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 9).unwrap(); // 8 class-0 + 1 class-1
        assert_eq!(p.file(f).unwrap().blocks.last().unwrap().1, 1);
        assert_eq!(p.truncate(f, 8).unwrap(), 8);
        // With the class-1 block gone, the grow policy is back at class 0...
        p.extend(f, 1).unwrap();
        // ...but the quota is still met (eight class-0 blocks) → class 1.
        assert_eq!(p.file(f).unwrap().blocks.last().unwrap().1, 1);
        p.check_invariants();
    }

    #[test]
    fn delete_restores_all_space_and_metadata() {
        let mut p = clustered();
        let before = p.free_units();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 100).unwrap();
        p.delete(f).unwrap();
        assert_eq!(p.free_units(), before);
        assert_eq!(p.metadata_units(), 0);
        p.check_invariants();
    }

    #[test]
    fn failed_extend_is_atomic() {
        let mut p: RestrictedPolicy = RestrictedPolicy::new(32, &[1, 8], 1, None);
        let f = p.create(&FileHints::default()).unwrap();
        let free_before = p.free_units();
        let err = p.extend(f, 1000);
        assert!(err.is_err());
        assert_eq!(p.free_units(), free_before);
        assert_eq!(p.allocated_units(f).unwrap(), 0);
        p.check_invariants();
    }

    #[test]
    fn unclustered_still_prefers_contiguity() {
        // Room to spare: 20 one-unit extends climb the ladder all the way
        // to class-2 blocks (8 + 8·8 + 4·64 units).
        let mut p: RestrictedPolicy = RestrictedPolicy::new(4096, &[1, 8, 64], 1, None);
        let f = p.create(&FileHints::default()).unwrap();
        for _ in 0..20 {
            p.extend(f, 1).unwrap();
        }
        // Blocks within a class are laid out back to back; only the two
        // class transitions (Figure 3's alignment gaps) break the file.
        assert!(p.extent_count(f).unwrap() <= 3, "got {} extents", p.extent_count(f).unwrap());
        p.check_invariants();
    }
}
