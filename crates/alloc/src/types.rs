//! Shared value types for the allocation layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A contiguous run of disk units in the array's logical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First disk unit of the run.
    pub start: u64,
    /// Length in disk units (always > 0 for stored extents).
    pub len: u64,
}

impl Extent {
    /// Builds an extent; `len` must be positive.
    pub fn new(start: u64, len: u64) -> Self {
        debug_assert!(len > 0, "zero-length extent");
        Extent { start, len }
    }

    /// One-past-the-end unit.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True when `other` begins exactly where `self` ends.
    pub fn abuts(&self, other: &Extent) -> bool {
        self.end() == other.start
    }

    /// True when the two extents share at least one unit.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, +{})", self.start, self.len)
    }
}

/// Identifier of a file known to a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(pub u32);

impl FileId {
    /// Converts a storage-slot index to an id without a narrowing cast,
    /// failing with [`AllocError::TooManyFiles`] once the 32-bit id space
    /// is exhausted. `FileSlots::insert` issues every id through here, so
    /// the bound is enforced in exactly one place.
    pub fn from_index(index: usize) -> Result<FileId, AllocError> {
        u32::try_from(index).map(FileId).map_err(|_| AllocError::TooManyFiles)
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A policy's per-file records, addressed by [`FileId`]: one slot per id
/// ever issued, empty once its file is deleted. A create reuses the most
/// recently freed id first, so ids stay dense under churn.
#[derive(Debug, Clone)]
pub(crate) struct FileSlots<T> {
    slots: Vec<Option<T>>,
    /// Freed ids; the last one pushed is the next one reused.
    free: Vec<u32>,
}

impl<T> Default for FileSlots<T> {
    fn default() -> Self {
        FileSlots { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> FileSlots<T> {
    /// Stores `value` under the most recently freed id, or else under the
    /// next fresh one.
    pub(crate) fn insert(&mut self, value: T) -> Result<FileId, AllocError> {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(value);
            return Ok(FileId(slot));
        }
        let id = FileId::from_index(self.slots.len())?;
        self.slots.push(Some(value));
        Ok(id)
    }

    /// The live record of `id`.
    pub(crate) fn get(&self, id: FileId) -> Result<&T, AllocError> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref).ok_or(AllocError::DeadFile(id))
    }

    /// The live record of `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: FileId) -> Result<&mut T, AllocError> {
        self.slots.get_mut(id.0 as usize).and_then(Option::as_mut).ok_or(AllocError::DeadFile(id))
    }

    /// Takes the record of `id` out and frees the id for reuse.
    pub(crate) fn remove(&mut self, id: FileId) -> Result<T, AllocError> {
        let value = self
            .slots
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(AllocError::DeadFile(id))?;
        self.free.push(id.0);
        Ok(value)
    }

    /// The live ids, ascending.
    pub(crate) fn ids(&self) -> Vec<FileId> {
        self.slots.iter().zip(0u32..).filter(|(s, _)| s.is_some()).map(|(_, i)| FileId(i)).collect()
    }

    /// The live records, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

/// Per-file information a policy may use when creating a file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileHints {
    /// Mean extent size for extent-based systems (Table 2's "Allocation
    /// Size" parameter), in bytes. Other policies ignore it.
    pub mean_extent_bytes: u64,
}

impl Default for FileHints {
    fn default() -> Self {
        FileHints { mean_extent_bytes: 4 * 1024 }
    }
}

/// Why a policy operation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// No block/extent of the required size exists anywhere — the §3
    /// "disk full condition" that ends an allocation test. The payload is
    /// the number of units that could not be found.
    DiskFull(u64),
    /// An operation named a file id that is not live (never created, or
    /// already deleted). Always a caller bug, but reported as an error so
    /// library code never panics (simlint r3).
    DeadFile(FileId),
    /// The 32-bit file-id space is exhausted.
    TooManyFiles,
    /// The policy's internal free-space bookkeeping disagreed with itself
    /// (e.g. an index named a block its backing map does not hold). Always
    /// a library bug; reported as an error instead of `unreachable!` so
    /// library code never panics (simlint r3) and callers can surface the
    /// corruption. Debug builds additionally pinpoint the site with
    /// `debug_assert!`s.
    CorruptState,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::DiskFull(units) => write!(f, "disk full: no room for {units} units"),
            AllocError::DeadFile(id) => write!(f, "dead file id {id}"),
            AllocError::TooManyFiles => write!(f, "file id space (u32) exhausted"),
            AllocError::CorruptState => {
                write!(f, "internal allocator state corrupted (free-space bookkeeping out of sync)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_end_and_abut() {
        let a = Extent::new(0, 10);
        let b = Extent::new(10, 5);
        assert_eq!(a.end(), 10);
        assert!(a.abuts(&b));
        assert!(!b.abuts(&a));
    }

    #[test]
    fn extent_overlap_cases() {
        let a = Extent::new(10, 10);
        assert!(a.overlaps(&Extent::new(15, 1)));
        assert!(a.overlaps(&Extent::new(5, 6)));
        assert!(!a.overlaps(&Extent::new(20, 5)));
        assert!(!a.overlaps(&Extent::new(0, 10)));
    }

    #[test]
    fn file_slots_reuse_the_last_freed_id_first() {
        let mut t = FileSlots::default();
        let ids: Vec<FileId> = (0..4).map(|v| t.insert(v).unwrap()).collect();
        assert_eq!(ids, [FileId(0), FileId(1), FileId(2), FileId(3)], "fresh ids count up");
        assert_eq!(t.remove(FileId(1)), Ok(1));
        assert_eq!(t.remove(FileId(3)), Ok(3));
        assert_eq!(t.insert(30), Ok(FileId(3)), "last freed first");
        assert_eq!(t.remove(FileId(0)), Ok(0));
        assert_eq!(t.insert(10), Ok(FileId(0)));
        assert_eq!(t.insert(11), Ok(FileId(1)));
        assert_eq!(t.insert(4), Ok(FileId(4)), "fresh once nothing is free");
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), [10, 11, 2, 30, 4]);
    }

    #[test]
    fn file_slots_list_live_ids_ascending() {
        let mut t = FileSlots::default();
        for v in 0..6 {
            t.insert(v).unwrap();
        }
        for id in [4, 0, 2] {
            t.remove(FileId(id)).unwrap();
        }
        assert_eq!(t.ids(), [FileId(1), FileId(3), FileId(5)]);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), [1, 3, 5]);
    }

    #[test]
    fn file_slots_answer_dead_ids_with_dead_file() {
        let mut t = FileSlots::default();
        let a = t.insert('a').unwrap();
        t.remove(a).unwrap();
        for id in [a, FileId(7)] {
            assert_eq!(t.get(id), Err(AllocError::DeadFile(id)));
            assert_eq!(t.get_mut(id), Err(AllocError::DeadFile(id)));
            assert_eq!(t.remove(id), Err(AllocError::DeadFile(id)));
        }
        assert_eq!(t.insert('b'), Ok(a), "failed removes freed nothing twice");
        assert_eq!(t.insert('c'), Ok(FileId(1)));
    }

    #[test]
    fn error_formats() {
        let e = AllocError::DiskFull(42);
        assert!(e.to_string().contains("42"));
    }
}
