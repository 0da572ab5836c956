//! Struct-of-arrays hot-state tables for the engine.
//!
//! At million-user scale the decision loop touches one file record and one
//! user record per event. Keeping those records as an array-of-structs
//! (`Vec<SimFile>`) drags every field of a record into cache to read one
//! or two of them; this module packs the hot fields into parallel arrays
//! ([`FileTable`], [`UserTable`]) so a field sweep is a sequential scan of
//! one contiguous array — the cache-conscious layout the affs-read
//! playbook (SNIPPETS.md) prescribes for hot loops.
//!
//! Slots are addressed by `u32` index. The public API hands out
//! generation-checked [`FileSlot`] handles (odd generation = live, even =
//! free) so a stale handle held across a free can never silently alias a
//! reused slot. The engine itself indexes raw `u32`s it owns — retirement marks
//! files dead without freeing the slot, so indices held in
//! `files_by_type` stay stable for a whole run and the table's insertion
//! order (and therefore every digest) is identical to the old
//! `Vec<SimFile>`.

use readopt_alloc::FileId;
use serde::{de_field, Deserialize, Error, Serialize, Value};

/// Null index for the free stack sentinel checks.
const NIL: u32 = u32::MAX;

/// Generation-checked handle into a [`FileTable`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSlot {
    /// Slot index.
    pub index: u32,
    /// Generation the slot had when the handle was minted (odd = live).
    pub generation: u32,
}

/// A read-only view of one live file record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileView {
    /// The allocation policy's identifier for this file.
    pub policy_id: FileId,
    /// Index into the workload's file-type list.
    pub type_idx: u32,
    /// Bytes of real data, in disk units.
    pub logical_units: u64,
    /// Sequential-access cursor, in units.
    pub cursor: u64,
    /// False once the file has been retired.
    pub live: bool,
    /// Position in the per-type selection index.
    pub pos_in_type: u32,
}

/// Per-file hot state as parallel arrays (see the module docs).
///
/// Fields are `pub(crate)` so the engine's hot loops index exactly the
/// array they need; external callers go through the handle API.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileTable {
    /// The allocation policy's identifier, one per slot.
    pub(crate) policy_id: Vec<FileId>,
    /// Workload file-type index, one per slot.
    pub(crate) type_idx: Vec<u32>,
    /// Real data in disk units ("used" space for internal-fragmentation
    /// accounting), one per slot.
    pub(crate) logical_units: Vec<u64>,
    /// Sequential-access cursor in units, one per slot.
    pub(crate) cursor: Vec<u64>,
    /// False once the file has been retired (its slot could not be
    /// re-created after a delete on a full disk), one per slot.
    pub(crate) live: Vec<bool>,
    /// Position in `files_by_type[type_idx]`, maintained so retirement is
    /// an O(1) swap-remove instead of an O(n) scan. One per slot.
    pub(crate) pos_in_type: Vec<u32>,
    /// Slot generations; odd = live, even = free.
    pub(crate) gen: Vec<u32>,
    /// Freed slots, reused LIFO. Serialized as-is: reuse order is ground
    /// truth for determinism, not a derived quantity.
    pub(crate) free: Vec<u32>,
}

impl FileTable {
    /// An empty table.
    pub fn new() -> Self {
        FileTable::default()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.policy_id.len() - self.free.len()
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots (live + freed).
    pub fn capacity(&self) -> usize {
        self.policy_id.len()
    }

    /// Allocates a record (zeroed cursor/logical size, live), reusing the
    /// most recently freed slot first.
    pub fn insert(&mut self, policy_id: FileId, type_idx: u32) -> FileSlot {
        if let Some(i) = self.free.pop() {
            let iu = i as usize;
            self.policy_id[iu] = policy_id;
            self.type_idx[iu] = type_idx;
            self.logical_units[iu] = 0;
            self.cursor[iu] = 0;
            self.live[iu] = true;
            self.pos_in_type[iu] = 0;
            self.gen[iu] = self.gen[iu].wrapping_add(1); // even → odd
            return FileSlot { index: i, generation: self.gen[iu] };
        }
        let i = u32::try_from(self.policy_id.len())
            // simlint::allow(r3, "4 billion live files exceeds any configured workload; slots are reused before this")
            .unwrap_or_else(|_| unreachable!("file table exceeds u32 slots"));
        self.policy_id.push(policy_id);
        self.type_idx.push(type_idx);
        self.logical_units.push(0);
        self.cursor.push(0);
        self.live.push(true);
        self.pos_in_type.push(0);
        self.gen.push(1);
        FileSlot { index: i, generation: 1 }
    }

    /// Reads a record back; `None` once the slot has been freed (stale
    /// handles never resolve, even after reuse).
    pub fn get(&self, s: FileSlot) -> Option<FileView> {
        let i = s.index as usize;
        if i < self.gen.len() && self.gen[i] == s.generation && s.generation % 2 == 1 {
            Some(FileView {
                policy_id: self.policy_id[i],
                type_idx: self.type_idx[i],
                logical_units: self.logical_units[i],
                cursor: self.cursor[i],
                live: self.live[i],
                pos_in_type: self.pos_in_type[i],
            })
        } else {
            None
        }
    }

    /// Frees the record behind `s`. Returns `false` (and does nothing)
    /// for a stale or never-valid handle.
    pub fn remove(&mut self, s: FileSlot) -> bool {
        if self.get(s).is_none() {
            return false;
        }
        let iu = s.index as usize;
        self.gen[iu] = self.gen[iu].wrapping_add(1); // odd → even
        self.live[iu] = false;
        self.free.push(s.index);
        true
    }

    /// Appends a record and returns its raw index (engine path: the
    /// engine never frees slots, so raw indices stay stable for a run).
    pub(crate) fn push(
        &mut self,
        policy_id: FileId,
        type_idx: u32,
        logical_units: u64,
        pos_in_type: u32,
    ) -> u32 {
        let slot = self.insert(policy_id, type_idx);
        let iu = slot.index as usize;
        self.logical_units[iu] = logical_units;
        self.pos_in_type[iu] = pos_in_type;
        slot.index
    }

    /// Consistency check shared by the serde load path and tests.
    fn validate(&self) -> Result<(), String> {
        let n = self.policy_id.len();
        if self.type_idx.len() != n
            || self.logical_units.len() != n
            || self.cursor.len() != n
            || self.live.len() != n
            || self.pos_in_type.len() != n
            || self.gen.len() != n
        {
            return Err("parallel arrays disagree on length".into());
        }
        let mut freed = vec![false; n];
        for &i in &self.free {
            if i == NIL || (i as usize) >= n {
                return Err(format!("free-stack index {i} out of bounds"));
            }
            let iu = i as usize;
            if freed[iu] {
                return Err(format!("slot {i} on the free stack twice"));
            }
            if self.gen[iu] % 2 == 1 {
                return Err(format!("live slot {i} on the free stack"));
            }
            if self.live[iu] {
                return Err(format!("freed slot {i} still marked live"));
            }
            freed[iu] = true;
        }
        for (idx, g) in self.gen.iter().enumerate() {
            if g % 2 == 0 && !freed[idx] {
                return Err(format!("free slot {idx} missing from the free stack"));
            }
        }
        Ok(())
    }
}

impl Serialize for FileTable {
    fn to_value(&self) -> Value {
        let ids: Vec<u32> = self.policy_id.iter().map(|f| f.0).collect();
        Value::Object(vec![
            ("policy_id".to_string(), ids.to_value()),
            ("type_idx".to_string(), self.type_idx.to_value()),
            ("logical_units".to_string(), self.logical_units.to_value()),
            ("cursor".to_string(), self.cursor.to_value()),
            ("live".to_string(), self.live.to_value()),
            ("pos_in_type".to_string(), self.pos_in_type.to_value()),
            ("gen".to_string(), self.gen.to_value()),
            ("free".to_string(), self.free.to_value()),
        ])
    }
}

impl Deserialize for FileTable {
    /// Reconstructs the table and **validates** it: length mismatches, an
    /// out-of-bounds or duplicated free stack, or generation parities
    /// that disagree with the free stack are rejected loudly instead of
    /// corrupting slot reuse later.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let ids: Vec<u32> = de_field(v, "policy_id")?;
        let table = FileTable {
            policy_id: ids.into_iter().map(FileId).collect(),
            type_idx: de_field(v, "type_idx")?,
            logical_units: de_field(v, "logical_units")?,
            cursor: de_field(v, "cursor")?,
            live: de_field(v, "live")?,
            pos_in_type: de_field(v, "pos_in_type")?,
            gen: de_field(v, "gen")?,
            free: de_field(v, "free")?,
        };
        table
            .validate()
            .map_err(|why| Error::msg(format!("corrupt FileTable snapshot: {why}")))?;
        Ok(table)
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
            // simlint::allow(r3, "user population is bounded by SimConfig validation far below u32")
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

impl Serialize for UserTable {
    fn to_value(&self) -> Value {
        Value::Object(vec![("type_idx".to_string(), self.type_idx.to_value())])
    }
}

impl Deserialize for UserTable {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(UserTable { type_idx: de_field(v, "type_idx")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_reuse_lifo_with_fresh_generations() {
        let mut t = FileTable::new();
        let a = t.insert(FileId(10), 0);
        let b = t.insert(FileId(11), 1);
        assert_eq!(t.len(), 2);
        assert!(t.remove(a));
        assert!(!t.remove(a), "double free rejected");
        assert_eq!(t.get(a), None);
        let c = t.insert(FileId(12), 2);
        assert_eq!(c.index, a.index, "LIFO reuse");
        assert_ne!(c.generation, a.generation);
        assert_eq!(t.get(a), None, "stale handle misses the reused slot");
        assert_eq!(t.get(c).map(|f| f.policy_id), Some(FileId(12)));
        assert_eq!(t.get(b).map(|f| f.type_idx), Some(1));
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn serde_round_trips_and_rejects_corruption() {
        let mut t = FileTable::new();
        let slots: Vec<_> = (0..4).map(|i| t.insert(FileId(i), i % 2)).collect();
        t.logical_units[1] = 77;
        t.remove(slots[2]);
        let v = t.to_value();
        let back = FileTable::from_value(&v).expect("round trip");
        assert_eq!(t, back);
        // Corrupt the free stack (point it at a live slot).
        let Value::Object(mut pairs) = v else { panic!("object") };
        for (k, val) in &mut pairs {
            if k == "free" {
                *val = vec![0u32].to_value();
            }
        }
        let err = FileTable::from_value(&Value::Object(pairs)).unwrap_err();
        assert!(err.to_string().contains("corrupt FileTable snapshot"), "{err}");
    }

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
