//! Struct-of-arrays hot-state tables for the engine.
//!
//! At million-user scale the decision loop touches one file record and one
//! user record per event. Keeping those records as an array-of-structs
//! (`Vec<SimFile>`) drags every field of a record into cache to read one
//! or two of them; this module packs the hot fields into parallel arrays
//! (`FileTable`, [`UserTable`]) so a field sweep is a sequential scan of
//! one contiguous array — the cache-conscious layout the affs-read
//! playbook (SNIPPETS.md) prescribes for hot loops.
//!
//! File records are append-only and addressed by `u32` index. The engine
//! appends one record per file it creates at initialization and never
//! removes one: a deleted file is re-created in its own record, and a file
//! that cannot be re-created is retired in place (`live` goes false). So
//! the indices held in `files_by_type` stay stable for a whole run, and the
//! records stay in creation order, which every digest depends on.

use readopt_alloc::FileId;

/// Per-file hot state as parallel arrays (see the module docs).
///
/// Fields are `pub(crate)` so the engine's hot loops index exactly the
/// array they need.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FileTable {
    /// The allocation policy's identifier, one per record.
    pub(crate) policy_id: Vec<FileId>,
    /// Workload file-type index, one per record.
    pub(crate) type_idx: Vec<u32>,
    /// Real data in disk units ("used" space for internal-fragmentation
    /// accounting), one per record.
    pub(crate) logical_units: Vec<u64>,
    /// Sequential-access cursor in units, one per record.
    pub(crate) cursor: Vec<u64>,
    /// False once the file has been retired (it could not be re-created
    /// after a delete on a full disk), one per record.
    pub(crate) live: Vec<bool>,
    /// Position in `files_by_type[type_idx]`, maintained so retirement is
    /// an O(1) swap-remove instead of an O(n) scan. One per record.
    pub(crate) pos_in_type: Vec<u32>,
}

impl FileTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        FileTable::default()
    }

    /// Number of records, retired ones included.
    pub(crate) fn len(&self) -> usize {
        self.policy_id.len()
    }

    /// Appends a live, empty record and returns its index.
    pub(crate) fn push(&mut self, policy_id: FileId, type_idx: u32, pos_in_type: u32) -> u32 {
        let i = u32::try_from(self.policy_id.len())
            // simlint::allow(r3, "SimConfig::validate caps the file total at u32::MAX")
            .unwrap_or_else(|_| unreachable!("file table exceeds u32 records"));
        self.policy_id.push(policy_id);
        self.type_idx.push(type_idx);
        self.logical_units.push(0);
        self.cursor.push(0);
        self.live.push(true);
        self.pos_in_type.push(pos_in_type);
        i
    }
}

/// Per-user hot state: today a single parallel array (each user's
/// file-type index), kept as a table so future per-user fields (open
/// handles, think-state) extend columns instead of widening a struct.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserTable {
    /// Index into the workload's file-type list, one per user.
    pub(crate) type_idx: Vec<u32>,
}

impl UserTable {
    /// An empty table.
    pub fn new() -> Self {
        UserTable::default()
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.type_idx.len()
    }

    /// True when no users are registered.
    pub fn is_empty(&self) -> bool {
        self.type_idx.is_empty()
    }

    /// Registers a user of the given file type; users are dense and never
    /// removed, so the returned id is `len - 1`.
    pub fn push(&mut self, type_idx: u32) -> u32 {
        self.type_idx.push(type_idx);
        u32::try_from(self.type_idx.len() - 1)
            // simlint::allow(r3, "SimConfig::validate caps the user total at u32::MAX")
            .unwrap_or_else(|_| unreachable!("user table exceeds u32 users"))
    }

    /// Drops every user (the engine re-registers on `schedule_users`).
    pub fn clear(&mut self) {
        self.type_idx.clear();
    }

    /// File-type index of `user`.
    pub fn type_of(&self, user: u32) -> u32 {
        self.type_idx[user as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_table_registers_densely() {
        let mut u = UserTable::new();
        assert_eq!(u.push(3), 0);
        assert_eq!(u.push(1), 1);
        assert_eq!(u.type_of(0), 3);
        assert_eq!(u.len(), 2);
        u.clear();
        assert!(u.is_empty());
    }
}
