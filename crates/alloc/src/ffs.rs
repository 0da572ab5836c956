//! A BSD Fast File System–style baseline: fixed blocks plus fragments.
//!
//! §1 of the paper singles FFS out as "an evolutionary step from the simple
//! fixed block system": "Files are composed of a number of fixed sized
//! 'blocks' and a few smaller 'fragments'. In this way, tiny files may be
//! composed of fragments, thus avoiding excessive internal fragmentation.
//! At the same time, the larger block size (usually on the order of 8K or
//! 16K) … allows more data to be transferred for each seek" \[MCKU84\].
//!
//! The paper's §5 comparison uses plain fixed-block baselines; this policy
//! is provided as an *extension* so the intro's three-way story — V7 fixed
//! block vs FFS vs multiblock — can be measured (see
//! `ablations::run_ffs_comparison_profiled`).
//!
//! Model: the disk is divided into cylinder groups. A file holds whole
//! blocks plus at most one *tail* of 1..blocks_per_frag−1 contiguous
//! fragments carved from a fragmented block, exactly the FFS invariant.
//! Allocation prefers the file's current group and physically sequential
//! placement (standing in for FFS's rotational-layout optimization).

use crate::blockset::BitmapBlockSet;
use crate::filemap::FileMap;
use crate::policy::Policy;
use crate::types::{AllocError, Extent, FileHints, FileId, FileSlots};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// FFS-style policy parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfsConfig {
    /// Full block size in bytes (8 KB in classic FFS).
    pub block_bytes: u64,
    /// Fragment size in bytes (1 KB in classic FFS; must divide the block).
    pub fragment_bytes: u64,
    /// Cylinder-group size in bytes.
    pub group_bytes: u64,
}

impl Default for FfsConfig {
    fn default() -> Self {
        FfsConfig {
            block_bytes: 8 * 1024,
            fragment_bytes: 1024,
            group_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Per-group index of fragmented blocks, bucketed by the length of each
/// block's longest contiguous free-fragment run.
///
/// `buckets[l]` holds the addresses of fragmented blocks whose longest
/// free run is exactly `l` fragments (bucket 0: fully-used fragmented
/// blocks). `alloc_frags` asks for "the lowest-addressed block with a free
/// run of ≥ n fragments"; the index answers with one `first()` probe per
/// qualifying bucket — O(frags_per_block · log blocks) — instead of a
/// linear scan over every fragmented block in the group. It is maintained
/// incrementally on every fragment allocation, fragment free, and
/// whole-block promotion/demotion; `FfsPolicy::check_frag_index` checks
/// every lookup against that linear scan.
#[derive(Debug, Clone, Default)]
struct FragIndex {
    buckets: Vec<BTreeSet<u64>>,
}

impl FragIndex {
    fn new(frags_per_block: u64) -> Self {
        FragIndex { buckets: vec![BTreeSet::new(); frags_per_block as usize + 1] }
    }

    /// Registers `addr` under longest-run `run`.
    fn insert(&mut self, addr: u64, run: u64) {
        let fresh = self.buckets[run as usize].insert(addr);
        debug_assert!(fresh, "frag index already holds block {addr}");
    }

    /// Drops `addr`, currently filed under longest-run `run`.
    fn remove(&mut self, addr: u64, run: u64) {
        let was = self.buckets[run as usize].remove(&addr);
        debug_assert!(was, "frag index lost track of block {addr} (run {run})");
    }

    /// Moves `addr` between run buckets after its fragment bitmap changed.
    fn update(&mut self, addr: u64, old_run: u64, new_run: u64) {
        if old_run != new_run {
            self.remove(addr, old_run);
            self.insert(addr, new_run);
        }
    }

    /// Lowest-addressed block whose longest free run is at least `n` —
    /// exactly the block an address-ordered linear scan would pick.
    fn first_with_run(&self, n: u64) -> Option<u64> {
        self.buckets[n as usize..].iter().filter_map(|b| b.iter().next().copied()).min()
    }
}

/// One cylinder group's free-space bookkeeping.
#[derive(Debug, Clone)]
struct CylGroup {
    /// Addresses of fully free blocks.
    free_blocks: BitmapBlockSet,
    /// Fragmented blocks: address → bitmap of free fragments (bit i set =
    /// fragment i free). Blocks with all fragments free are promoted back
    /// to `free_blocks`.
    frag_blocks: BTreeMap<u64, u32>,
    /// Run-length index over `frag_blocks` (see [`FragIndex`]).
    frag_index: FragIndex,
    free_units: u64,
}

/// One file: whole blocks plus an optional fragment tail.
#[derive(Debug, Clone, Default)]
struct FfsFile {
    blocks: Vec<u64>,
    /// `(first fragment address, fragment count)` — always inside one block.
    tail: Option<(u64, u64)>,
    map: FileMap,
    group: usize,
}

/// The FFS-style block+fragment policy.
#[derive(Debug, Clone)]
pub struct FfsPolicy {
    block_units: u64,
    frags_per_block: u64,
    group_units: u64,
    groups: Vec<CylGroup>,
    capacity: u64,
    files: FileSlots<FfsFile>,
    /// Round-robin rotor for placing new files (FFS spreads inodes across
    /// cylinder groups).
    rotor: usize,
}

impl FfsPolicy {
    /// Builds the policy over `capacity_units` with `block_units` per block
    /// (fragments are one disk unit) and `group_units` per cylinder group.
    pub fn new(capacity_units: u64, block_units: u64, group_units: u64) -> Self {
        assert!(block_units >= 2 && block_units <= 32, "FFS blocks are a few fragments");
        assert!(group_units >= block_units, "group must hold at least one block");
        let group_units = group_units / block_units * block_units;
        let capacity = capacity_units / block_units * block_units;
        assert!(capacity > 0, "capacity below one block");
        let mut groups = Vec::new();
        let mut base = 0;
        while base < capacity {
            let end = (base + group_units).min(capacity);
            let mut g = CylGroup {
                free_blocks: BitmapBlockSet::new(base, end, block_units),
                frag_blocks: BTreeMap::new(),
                frag_index: FragIndex::new(block_units),
                free_units: 0,
            };
            let mut a = base;
            while a + block_units <= end {
                g.free_blocks.insert(a);
                g.free_units += block_units;
                a += block_units;
            }
            groups.push(g);
            base = end;
        }
        FfsPolicy {
            block_units,
            frags_per_block: block_units,
            group_units,
            groups,
            capacity,
            files: FileSlots::default(),
            rotor: 0,
        }
    }

    /// Part of `check_structure`: the run-length index lists exactly the
    /// fragmented blocks of each group, each filed under its true longest
    /// free-run length; for every tail size it picks the block a linear
    /// scan over `frag_blocks` picks; and every file's extent map is its
    /// blocks followed by its fragment tail.
    fn check_frag_index(&self) {
        for f in self.files.iter() {
            let mut want = FileMap::new();
            for &b in &f.blocks {
                want.push(Extent::new(b, self.block_units));
            }
            if let Some((addr, n)) = f.tail {
                want.push(Extent::new(addr, n));
            }
            assert_eq!(f.map, want, "file map is not its blocks followed by its tail");
        }
        for (gi, g) in self.groups.iter().enumerate() {
            let mut indexed = 0usize;
            for (run, bucket) in g.frag_index.buckets.iter().enumerate() {
                for &addr in bucket {
                    let bm = g.frag_blocks.get(&addr).copied();
                    assert_eq!(
                        bm.map(longest_run),
                        Some(run as u64),
                        "group {gi}: block {addr} missing or filed under the wrong run bucket"
                    );
                    indexed += 1;
                }
            }
            assert_eq!(indexed, g.frag_blocks.len(), "group {gi}: index/map size mismatch");
            for n in 1..self.frags_per_block {
                let linear = g
                    .frag_blocks
                    .iter()
                    .find(|&(_, &bm)| free_run(bm, self.frags_per_block, n).is_some())
                    .map(|(&addr, _)| addr);
                assert_eq!(
                    g.frag_index.first_with_run(n),
                    linear,
                    "group {gi}: index and linear scan disagree on a {n}-fragment tail"
                );
            }
        }
    }

    /// Builds from the byte-based config.
    pub fn from_config(capacity_units: u64, unit_bytes: u64, cfg: &FfsConfig) -> Self {
        assert_eq!(
            cfg.fragment_bytes, unit_bytes,
            "the disk unit is the fragment (the minimum transfer unit)"
        );
        let block_units = (cfg.block_bytes / unit_bytes).max(2);
        let group_units = (cfg.group_bytes / unit_bytes).max(block_units);
        Self::new(capacity_units, block_units, group_units)
    }

    fn group_of(&self, addr: u64) -> usize {
        ((addr / self.group_units) as usize).min(self.groups.len() - 1)
    }

    /// Takes a fully free block, preferring `prefer`'s exact address, then
    /// the lowest address ≥ `prefer` in the preferred group, then any group
    /// (scanning from the preferred one).
    fn alloc_block(&mut self, group: usize, prefer: Option<u64>) -> Option<u64> {
        if let Some(p) = prefer {
            let g = self.group_of(p.min(self.capacity - 1));
            if self.groups[g].free_blocks.remove(p) {
                self.groups[g].free_units -= self.block_units;
                return Some(p);
            }
        }
        let n = self.groups.len();
        for k in 0..n {
            let gi = (group + k) % n;
            let pick = {
                let g = &self.groups[gi];
                prefer
                    .and_then(|p| g.free_blocks.first_at_or_after(p))
                    .or_else(|| g.free_blocks.first())
            };
            if let Some(a) = pick {
                self.groups[gi].free_blocks.remove(a);
                self.groups[gi].free_units -= self.block_units;
                return Some(a);
            }
        }
        None
    }

    fn free_block(&mut self, addr: u64) {
        let gi = self.group_of(addr);
        let fresh = self.groups[gi].free_blocks.insert(addr);
        debug_assert!(fresh, "double free of block {addr}");
        self.groups[gi].free_units += self.block_units;
    }

    /// Allocates `n` *contiguous* fragments (1 ≤ n < frags_per_block) from a
    /// fragmented block in (preferably) `group`, breaking a free block when
    /// no fragmented block has room — exactly FFS's fragment policy.
    ///
    /// `Ok(None)` is the disk-full outcome. `Err(CorruptState)` means the
    /// run-length index and the fragment map disagreed — a library bug,
    /// reported instead of panicking (simlint r3).
    fn alloc_frags(&mut self, group: usize, n: u64) -> Result<Option<u64>, AllocError> {
        debug_assert!(n >= 1 && n < self.frags_per_block);
        let fpb = self.frags_per_block;
        let total = self.groups.len();
        for k in 0..total {
            let gi = (group + k) % total;
            // The lowest-addressed fragmented block with a contiguous free
            // run of n fragments: the run-length index answers with one
            // probe per qualifying bucket (a block has a free run of n iff
            // its longest run is ≥ n), and `free_run` picks the offset.
            let g = &mut self.groups[gi];
            if let Some(addr) = g.frag_index.first_with_run(n) {
                let bm = g.frag_blocks.get_mut(&addr).ok_or(AllocError::CorruptState)?;
                let off = free_run(*bm, fpb, n).ok_or(AllocError::CorruptState)?;
                let old_run = longest_run(*bm);
                *bm &= !(run_mask(off, n));
                let new_run = longest_run(*bm);
                g.frag_index.update(addr, old_run, new_run);
                g.free_units -= n;
                return Ok(Some(addr + off));
            }
        }
        // Break a free block into fragments.
        let Some(addr) = self.alloc_block(group, None) else {
            return Ok(None);
        };
        let gi = self.group_of(addr);
        // Mark the block fragmented: first n fragments used, rest free.
        let full: u32 = full_mask(fpb);
        let bitmap = full & !run_mask(0, n);
        self.groups[gi].frag_blocks.insert(addr, bitmap);
        self.groups[gi].frag_index.insert(addr, longest_run(bitmap));
        // alloc_block already subtracted a whole block; give back the
        // unused fragments.
        self.groups[gi].free_units += self.block_units - n;
        Ok(Some(addr))
    }

    /// Returns fragments to their block, promoting the block back to the
    /// free list when the last fragment comes home. `Err(CorruptState)`
    /// means the address did not belong to a fragmented block — a library
    /// bug, reported instead of panicking (simlint r3).
    fn free_frags(&mut self, addr: u64, n: u64) -> Result<(), AllocError> {
        let block = addr / self.block_units * self.block_units;
        let off = addr - block;
        let gi = self.group_of(block);
        let Some(bm) = self.groups[gi].frag_blocks.get_mut(&block) else {
            debug_assert!(false, "freeing fragments of a non-fragmented block {block}");
            return Err(AllocError::CorruptState);
        };
        debug_assert_eq!(*bm & run_mask(off, n), 0, "double free of fragments");
        let old_run = longest_run(*bm);
        *bm |= run_mask(off, n);
        let new_bitmap = *bm;
        self.groups[gi].free_units += n;
        if new_bitmap == full_mask(self.frags_per_block) {
            // All fragments free: promote back to a full block.
            self.groups[gi].frag_blocks.remove(&block);
            self.groups[gi].frag_index.remove(block, old_run);
            self.groups[gi].free_units -= self.block_units;
            self.free_block(block);
        } else {
            self.groups[gi].frag_index.update(block, old_run, longest_run(new_bitmap));
        }
        Ok(())
    }

    /// Frees the blocks an unfinished extend pushed past the file's first
    /// `keep` blocks (its map does not list them yet).
    fn drop_new_blocks(&mut self, id: FileId, keep: usize) -> Result<(), AllocError> {
        while self.files.get(id)?.blocks.len() > keep {
            let Some(a) = self.files.get_mut(id)?.blocks.pop() else { break };
            self.free_block(a);
        }
        Ok(())
    }
}

/// Bitmap with the low `n` bits set. Fragment counts are ≤ 32 (asserted at
/// construction), so the mask is built in the u32 domain — no narrowing.
fn full_mask(n: u64) -> u32 {
    // simlint::allow(r3, "fragment counts are asserted <= 32 at construction; try_from cannot fail")
    let n = u32::try_from(n).unwrap_or_else(|_| unreachable!("fragment count {n} exceeds u32"));
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// Bitmap covering fragments `[off, off + n)`.
fn run_mask(off: u64, n: u64) -> u32 {
    // simlint::allow(r3, "fragment offsets are bounded by the <=32 fragment count")
    let off = u32::try_from(off).unwrap_or_else(|_| unreachable!("offset {off} exceeds u32"));
    full_mask(n) << off
}

/// First offset of a free run of `n` fragments in `bitmap`, if any.
fn free_run(bitmap: u32, frags_per_block: u64, n: u64) -> Option<u64> {
    (0..=frags_per_block.saturating_sub(n)).find(|&off| bitmap & run_mask(off, n) == run_mask(off, n))
}

/// Length of the longest contiguous run of set (free) bits in `bitmap`.
/// Classic bit trick: each `x &= x << 1` step shortens every run by one,
/// so the number of steps until zero is the longest run's length.
fn longest_run(bitmap: u32) -> u64 {
    let mut x = bitmap;
    let mut n = 0u64;
    while x != 0 {
        x &= x << 1;
        n += 1;
    }
    n
}

impl Policy for FfsPolicy {
    fn name(&self) -> &'static str {
        "ffs"
    }

    fn capacity_units(&self) -> u64 {
        self.capacity
    }

    fn free_units(&self) -> u64 {
        self.groups.iter().map(|g| g.free_units).sum()
    }

    fn frag_gauges(&self) -> crate::policy::FragGauges {
        // A free run is either a whole free block or a maximal run of free
        // fragments inside a fragmented block (fragment runs never join
        // neighbouring blocks: FFS grants fragments from one block only).
        let mut free_extents = 0u64;
        let mut largest = 0u64;
        for g in &self.groups {
            if !g.free_blocks.is_empty() {
                free_extents += g.free_blocks.len() as u64;
                largest = largest.max(self.block_units);
            }
            for &bitmap in g.frag_blocks.values() {
                let mut run = 0u64;
                for off in 0..self.frags_per_block {
                    if bitmap & run_mask(off, 1) != 0 {
                        run += 1;
                        if run == 1 {
                            free_extents += 1;
                        }
                        largest = largest.max(run);
                    } else {
                        run = 0;
                    }
                }
            }
        }
        crate::policy::FragGauges {
            free_units: self.free_units(),
            free_extents,
            largest_free_units: largest,
        }
    }

    fn create(&mut self, _hints: &FileHints) -> Result<FileId, AllocError> {
        let group = self.rotor;
        self.rotor = (self.rotor + 1) % self.groups.len();
        self.files.insert(FfsFile { group, ..FfsFile::default() })
    }

    fn extend(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        debug_assert!(units > 0);
        let bu = self.block_units;
        let (old_blocks, old_tail, group) = {
            let f = self.files.get(file)?;
            (f.blocks.len(), f.tail, f.group)
        };
        let old_tail_units = old_tail.map_or(0, |(_, n)| n);
        let new_total = old_blocks as u64 * bu + old_tail_units + units;
        let want_blocks = new_total / bu;
        let want_tail = new_total % bu;

        // Allocate the new full blocks first (the first of them absorbs the
        // old tail's data, FFS-style), then the new tail, then release the
        // old tail — so a failure mid-way can roll back without having
        // destroyed anything. The new blocks go straight onto the file's
        // block list; a rollback pops them off again.
        let mut prefer = self.files.get(file)?.blocks.last().map(|&b| b + bu);
        for _ in old_blocks as u64..want_blocks {
            let Some(a) = self.alloc_block(group, prefer) else {
                self.drop_new_blocks(file, old_blocks)?;
                return Err(AllocError::DiskFull(bu));
            };
            prefer = Some(a + bu);
            self.files.get_mut(file)?.blocks.push(a);
        }
        let new_tail = if want_tail > 0 {
            match self.alloc_frags(group, want_tail) {
                Ok(Some(a)) => Some((a, want_tail)),
                no_grant => {
                    // Roll back the whole-block allocations on both the
                    // disk-full (`Ok(None)`) and corrupt-state outcomes so
                    // a failed extend never leaks blocks.
                    self.drop_new_blocks(file, old_blocks)?;
                    return match no_grant {
                        Err(e) => Err(e),
                        _ => Err(AllocError::DiskFull(want_tail)),
                    };
                }
            }
        } else {
            None
        };
        if let Some((addr, n)) = old_tail {
            self.free_frags(addr, n)?;
        }
        // The map is the file's blocks followed by its tail: swap the old
        // tail for the new blocks and the new tail.
        let f = self.files.get_mut(file)?;
        f.map.pop_back(old_tail_units, |_| {});
        for &b in &f.blocks[old_blocks..] {
            f.map.push(Extent::new(b, bu));
        }
        if let Some((addr, n)) = new_tail {
            f.map.push(Extent::new(addr, n));
        }
        f.tail = new_tail;
        // FFS grants exactly: the allocation grew by `units`.
        Ok(units)
    }

    fn truncate(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        let bu = self.block_units;
        let mut freed = 0;
        // Free the tail fragments first (they are the logical end).
        if let Some((addr, n)) = self.files.get(file)?.tail {
            if n <= units {
                self.free_frags(addr, n)?;
                self.files.get_mut(file)?.tail = None;
                freed = n;
            } else {
                // Shrink the tail in place: free its uppermost fragments.
                let keep = n - units;
                self.free_frags(addr + keep, units)?;
                self.files.get_mut(file)?.tail = Some((addr, keep));
                freed = units;
            }
        }
        while units - freed >= bu {
            let Some(addr) = self.files.get_mut(file)?.blocks.pop() else { break };
            self.free_block(addr);
            freed += bu;
        }
        // The freed units are the end of the file's map.
        self.files.get_mut(file)?.map.pop_back(freed, |_| {});
        Ok(freed)
    }

    fn delete(&mut self, file: FileId) -> Result<u64, AllocError> {
        let f = self.files.remove(file)?;
        let mut total = 0;
        for addr in f.blocks {
            self.free_block(addr);
            total += self.block_units;
        }
        if let Some((addr, n)) = f.tail {
            self.free_frags(addr, n)?;
            total += n;
        }
        Ok(total)
    }

    fn file_map(&self, file: FileId) -> Result<&FileMap, AllocError> {
        Ok(&self.files.get(file)?.map)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files.ids()
    }

    fn allocation_count(&self, file: FileId) -> Result<usize, AllocError> {
        let f = self.files.get(file)?;
        Ok(f.blocks.len() + usize::from(f.tail.is_some()))
    }

    fn check_structure(&self) {
        self.check_frag_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8-fragment blocks over 2048 units with 256-unit groups.
    fn policy() -> FfsPolicy {
        FfsPolicy::new(2048, 8, 256)
    }

    #[test]
    fn construction_shapes() {
        let p = policy();
        assert_eq!(p.capacity_units(), 2048);
        assert_eq!(p.free_units(), 2048);
        assert_eq!(p.groups.len(), 8);
    }

    #[test]
    fn tiny_files_live_in_fragments() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 3).unwrap();
        assert_eq!(p.allocated_units(f).unwrap(), 3, "three fragments, no whole block");
        assert_eq!(p.allocation_count(f).unwrap(), 1, "one fragment tail");
        p.check_invariants();
    }

    #[test]
    fn growth_promotes_fragments_into_blocks() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 3).unwrap();
        p.extend(f, 10).unwrap(); // total 13 = 1 block + 5 frags
        assert_eq!(p.allocated_units(f).unwrap(), 13);
        let fl = p.files.get(f).unwrap();
        assert_eq!(fl.blocks.len(), 1);
        assert_eq!(fl.tail.map(|(_, n)| n), Some(5));
        p.check_invariants();
    }

    #[test]
    fn block_multiple_files_have_no_tail() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 16).unwrap();
        assert!(p.files.get(f).unwrap().tail.is_none());
        assert_eq!(p.allocation_count(f).unwrap(), 2);
        p.check_invariants();
    }

    #[test]
    fn internal_fragmentation_is_sub_fragment_only() {
        // The FFS pitch: a population of tiny files wastes at most the
        // round-up to one fragment each (vs a whole 8-unit block under the
        // plain fixed policy).
        let mut p = policy();
        let mut allocated = 0;
        for _ in 0..64 {
            let f = p.create(&FileHints::default()).unwrap();
            p.extend(f, 3).unwrap();
            allocated += p.allocated_units(f).unwrap();
        }
        assert_eq!(allocated, 64 * 3, "fragments fit exactly");
        p.check_invariants();
    }

    #[test]
    fn fragments_share_blocks() {
        let mut p = policy();
        let a = p.create(&FileHints::default()).unwrap();
        let b = p.create(&FileHints::default()).unwrap();
        // Different rotor groups: force same group by filling... simplest:
        // both tails of 2; check total fragmented blocks ≤ 2.
        p.extend(a, 2).unwrap();
        p.extend(b, 2).unwrap();
        let frag_blocks: usize = p.groups.iter().map(|g| g.frag_blocks.len()).sum();
        assert!(frag_blocks <= 2);
        // Same-group sharing: create files until two tails land in one
        // group, then assert the group has a single fragmented block.
        p.check_invariants();
    }

    #[test]
    fn tail_fragments_are_contiguous() {
        let mut p = policy();
        for n in 1..8u64 {
            let f = p.create(&FileHints::default()).unwrap();
            p.extend(f, n).unwrap();
            let tail = p.files.get(f).unwrap().tail.expect("tail exists");
            assert_eq!(tail.1, n);
            assert_eq!(p.file_map(f).unwrap().extents().len(), 1, "one contiguous run");
        }
        p.check_invariants();
    }

    #[test]
    fn truncate_shrinks_tail_then_blocks() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 21).unwrap(); // 2 blocks + 5 frags
        assert_eq!(p.truncate(f, 3).unwrap(), 3); // tail 5 -> 2
        assert_eq!(p.files.get(f).unwrap().tail.map(|(_, n)| n), Some(2));
        assert_eq!(p.truncate(f, 2 + 8).unwrap(), 10); // rest of tail + one block
        assert_eq!(p.files.get(f).unwrap().blocks.len(), 1);
        assert!(p.files.get(f).unwrap().tail.is_none());
        p.check_invariants();
    }

    #[test]
    fn delete_restores_everything_and_promotes_fragments() {
        let mut p = policy();
        let before = p.free_units();
        let a = p.create(&FileHints::default()).unwrap();
        let b = p.create(&FileHints::default()).unwrap();
        p.extend(a, 13).unwrap();
        p.extend(b, 7).unwrap();
        p.delete(a).unwrap();
        p.delete(b).unwrap();
        assert_eq!(p.free_units(), before);
        let frag_blocks: usize = p.groups.iter().map(|g| g.frag_blocks.len()).sum();
        assert_eq!(frag_blocks, 0, "all fragment blocks promoted back");
        p.check_invariants();
    }

    #[test]
    fn sequential_growth_prefers_contiguity() {
        let mut p: FfsPolicy = FfsPolicy::new(2048, 8, 2048); // one group
        let f = p.create(&FileHints::default()).unwrap();
        for _ in 0..8 {
            p.extend(f, 8).unwrap();
        }
        assert_eq!(p.extent_count(f).unwrap(), 1, "blocks placed back to back");
        p.check_invariants();
    }

    #[test]
    fn disk_full_is_atomic() {
        let mut p: FfsPolicy = FfsPolicy::new(64, 8, 64);
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 60).unwrap(); // 7 blocks + 4 frags
        let free_before = p.free_units();
        assert!(p.extend(f, 64).is_err());
        assert_eq!(p.free_units(), free_before);
        p.check_invariants();
    }

    #[test]
    fn bitmap_helpers() {
        assert_eq!(full_mask(8), 0xFF);
        assert_eq!(run_mask(0, 3), 0b111);
        assert_eq!(run_mask(5, 2), 0b110_0000);
        assert_eq!(free_run(0xFF, 8, 3), Some(0));
        assert_eq!(free_run(0b1111_0000, 8, 3), Some(4));
        assert_eq!(free_run(0b0101_0101, 8, 2), None);
        assert_eq!(free_run(0, 8, 1), None);
    }

    #[test]
    fn longest_run_cases() {
        assert_eq!(longest_run(0), 0);
        assert_eq!(longest_run(0b1), 1);
        assert_eq!(longest_run(0b0101_0101), 1);
        assert_eq!(longest_run(0b0111_0011), 3);
        assert_eq!(longest_run(0xFF), 8);
        assert_eq!(longest_run(u32::MAX), 32);
        // free_run(bm, fpb, n) is Some iff longest_run(bm) >= n — the
        // equivalence the index relies on.
        for bm in [0u32, 0b1, 0b0101_0101, 0b0111_0011, 0b1110_0111, 0xFF] {
            for n in 1..8u64 {
                assert_eq!(free_run(bm, 8, n).is_some(), longest_run(bm) >= n, "bm={bm:b} n={n}");
            }
        }
    }

    #[test]
    fn frag_index_tracks_blocks_through_churn() {
        let mut p = policy();
        let mut files = Vec::new();
        for n in [1u64, 3, 5, 7, 2, 6, 4, 1, 3] {
            let f = p.create(&FileHints::default()).unwrap();
            p.extend(f, n).unwrap();
            files.push(f);
            p.check_frag_index();
        }
        for f in files.iter().step_by(2) {
            p.delete(*f).unwrap();
            p.check_frag_index();
        }
        for f in files.iter().skip(1).step_by(2) {
            p.truncate(*f, 1).unwrap();
            p.check_frag_index();
        }
    }
}
