//! The fixed-block baseline (§5; §1's description of the UNIX V7 system).
//!
//! "We compare all the performance number[s] against a 4K and a 16K fixed
//! block system which does not bias towards automatic striping or
//! contiguous layout."
//!
//! Free blocks live on a free list; allocation pops the head and frees push
//! the head — exactly the V7 behaviour that makes the layout age: "as file
//! systems age, logically sequential blocks within a file get spread across
//! the entire disk". A fresh list is address-ordered (a newly built file
//! system), so early allocations are accidentally contiguous; churn then
//! scrambles it. Set `pre_age` to start from an already-scrambled list.

use crate::filemap::FileMap;
use crate::policy::Policy;
use crate::types::{AllocError, Extent, FileHints, FileId, FileSlots};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One file's state under the fixed-block policy.
#[derive(Debug, Clone, Default)]
struct FFile {
    map: FileMap,
}

/// The fixed-block policy.
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    block_units: u64,
    free_list: VecDeque<u64>,
    capacity: u64,
    files: FileSlots<FFile>,
}

impl FixedPolicy {
    /// Builds the policy with blocks of `block_units`. When `pre_age` is
    /// set the free list starts shuffled (seeded by `seed`) instead of
    /// address-ordered.
    pub fn new(capacity_units: u64, block_units: u64, pre_age: bool, seed: u64) -> Self {
        assert!(block_units > 0);
        let nblocks = capacity_units / block_units;
        assert!(nblocks > 0, "capacity below one block");
        let mut blocks: Vec<u64> = (0..nblocks).map(|i| i * block_units).collect();
        if pre_age {
            blocks.shuffle(&mut SmallRng::seed_from_u64(seed));
        }
        FixedPolicy {
            block_units,
            free_list: blocks.into(),
            // Capacity rounded down to whole blocks; any remainder is
            // permanently unusable slack and excluded from accounting.
            capacity: nblocks * block_units,
            files: FileSlots::default(),
        }
    }

    /// Block size in units.
    pub fn block_units(&self) -> u64 {
        self.block_units
    }
}

impl Policy for FixedPolicy {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn capacity_units(&self) -> u64 {
        self.capacity
    }

    fn free_units(&self) -> u64 {
        self.free_list.len() as u64 * self.block_units
    }

    fn frag_gauges(&self) -> crate::policy::FragGauges {
        // The free list's order is policy state (pop_front serves the next
        // block), so measure contiguity on a sorted copy.
        let mut addrs: Vec<u64> = self.free_list.iter().copied().collect();
        addrs.sort_unstable();
        let mut runs = 0u64;
        let mut largest_blocks = 0u64;
        let mut run_blocks = 0u64;
        let mut prev: Option<u64> = None;
        for &a in &addrs {
            match prev {
                Some(p) if a == p + self.block_units => run_blocks += 1,
                _ => {
                    runs += 1;
                    run_blocks = 1;
                }
            }
            largest_blocks = largest_blocks.max(run_blocks);
            prev = Some(a);
        }
        crate::policy::FragGauges {
            free_units: self.free_units(),
            free_extents: runs,
            largest_free_units: largest_blocks * self.block_units,
        }
    }

    fn create(&mut self, _hints: &FileHints) -> Result<FileId, AllocError> {
        self.files.insert(FFile::default())
    }

    fn extend(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        debug_assert!(units > 0);
        let f = self.files.get_mut(file)?;
        let nblocks = units.div_ceil(self.block_units);
        if (self.free_list.len() as u64) < nblocks {
            return Err(AllocError::DiskFull(self.block_units));
        }
        let mut granted = 0;
        for _ in 0..nblocks {
            // Length was checked above, so the list cannot run dry
            // mid-loop; stopping early would still be accounted correctly.
            let Some(addr) = self.free_list.pop_front() else { break };
            f.map.push(Extent::new(addr, self.block_units));
            granted += self.block_units;
        }
        Ok(granted)
    }

    fn truncate(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        let f = self.files.get_mut(file)?;
        let whole_blocks = units / self.block_units * self.block_units;
        if whole_blocks == 0 {
            return Ok(0);
        }
        let (bu, free_list) = (self.block_units, &mut self.free_list);
        Ok(f.map.pop_back(whole_blocks, |e| {
            // The map may have merged adjacent blocks; return them to the
            // list one block at a time, head-first (V7 behaviour).
            debug_assert_eq!(e.len % bu, 0);
            let mut a = e.start;
            while a < e.end() {
                free_list.push_front(a);
                a += bu;
            }
        }))
    }

    fn delete(&mut self, file: FileId) -> Result<u64, AllocError> {
        let mut f = self.files.remove(file)?;
        let mut total = 0;
        for e in f.map.take_all() {
            total += e.len;
            let mut a = e.start;
            while a < e.end() {
                self.free_list.push_front(a);
                a += self.block_units;
            }
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
        Ok((self.allocated_units(file)? / self.block_units) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> FixedPolicy {
        FixedPolicy::new(1024, 4, false, 0)
    }

    #[test]
    fn fresh_list_allocates_contiguously() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 16).unwrap();
        assert_eq!(p.extent_count(f).unwrap(), 1, "fresh free list is address ordered");
        assert_eq!(p.allocated_units(f).unwrap(), 16);
        p.check_invariants();
    }

    #[test]
    fn requests_round_up_to_blocks() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 5).unwrap();
        assert_eq!(p.allocated_units(f).unwrap(), 8, "two 4-unit blocks");
        p.check_invariants();
    }

    #[test]
    fn churn_scrambles_layout() {
        let mut p = policy();
        // Interleave two files, delete one, then allocate a third: its
        // blocks come from the scattered holes head-first.
        let a = p.create(&FileHints::default()).unwrap();
        let b = p.create(&FileHints::default()).unwrap();
        for _ in 0..20 {
            p.extend(a, 4).unwrap();
            p.extend(b, 4).unwrap();
        }
        p.delete(a).unwrap();
        let c = p.create(&FileHints::default()).unwrap();
        p.extend(c, 40).unwrap();
        assert!(p.extent_count(c).unwrap() > 1, "aged layout is discontiguous");
        p.check_invariants();
    }

    #[test]
    fn pre_aged_list_is_scrambled_and_deterministic() {
        let mut p1 = FixedPolicy::new(1024, 4, true, 9);
        let mut p2 = FixedPolicy::new(1024, 4, true, 9);
        let f1 = p1.create(&FileHints::default()).unwrap();
        let f2 = p2.create(&FileHints::default()).unwrap();
        p1.extend(f1, 64).unwrap();
        p2.extend(f2, 64).unwrap();
        assert_eq!(p1.file_map(f1).unwrap().extents(), p2.file_map(f2).unwrap().extents());
        assert!(p1.extent_count(f1).unwrap() > 2, "shuffled list scatters blocks");
    }

    #[test]
    fn truncate_frees_whole_blocks_only() {
        let mut p = policy();
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 16).unwrap();
        assert_eq!(p.truncate(f, 3).unwrap(), 0, "less than a block");
        assert_eq!(p.truncate(f, 9).unwrap(), 8);
        assert_eq!(p.allocated_units(f).unwrap(), 8);
        p.check_invariants();
    }

    #[test]
    fn freed_blocks_are_reused_head_first() {
        let mut p = policy();
        let a = p.create(&FileHints::default()).unwrap();
        p.extend(a, 4).unwrap();
        let addr = p.file_map(a).unwrap().extents()[0].start;
        assert_eq!(p.truncate(a, 4).unwrap(), 4);
        let b = p.create(&FileHints::default()).unwrap();
        p.extend(b, 4).unwrap();
        assert_eq!(p.file_map(b).unwrap().extents()[0].start, addr, "LIFO reuse");
    }

    #[test]
    fn disk_full_is_clean() {
        let mut p = FixedPolicy::new(16, 4, false, 0);
        let f = p.create(&FileHints::default()).unwrap();
        p.extend(f, 16).unwrap();
        let err = p.extend(f, 1).unwrap_err();
        assert!(matches!(err, AllocError::DiskFull(4)));
        assert_eq!(p.free_units(), 0);
        p.check_invariants();
    }

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let p = FixedPolicy::new(10, 4, false, 0);
        assert_eq!(p.capacity_units(), 8);
        assert_eq!(p.free_units(), 8);
    }
}
