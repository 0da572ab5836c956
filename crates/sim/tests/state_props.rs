//! Property tests for the compact SoA file table: [`FileTable`] against a
//! naive model under arbitrary alloc/free/reuse sequences, stale-handle
//! safety via generation checks, and the
//! snapshot→load path (round-trip equality plus loud rejection of
//! corrupted snapshots, the same contract the allocator's `FreeBitmap`
//! established).

use proptest::prelude::*;
use readopt_alloc::FileId;
use readopt_sim::{FileSlot, FileTable};
use serde::{Deserialize, Serialize, Value};

/// One step of the op stream; fields are raw entropy shaped inside the
/// driver.
type RawOp = (u8, u16);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), 1..200)
}

/// Returns `v` with the object field `key` replaced by `new` — the
/// corruption tool for snapshot-rejection tests.
fn with_field(v: &Value, key: &str, new: Value) -> Value {
    let Value::Object(fields) = v else { panic!("snapshot is not an object") };
    assert!(fields.iter().any(|(k, _)| k == key), "no field {key} to corrupt");
    Value::Object(
        fields
            .iter()
            .map(|(k, val)| (k.clone(), if k == key { new.clone() } else { val.clone() }))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FileTable vs a naive model: every live handle reads back exactly
    /// what was written, LIFO slot reuse is observable through handle
    /// indices, and freed handles go permanently dead (stale `get` is
    /// `None`, stale `remove` is a no-op) even after the slot is reused.
    #[test]
    fn file_table_matches_model(ops in raw_ops()) {
        let mut table = FileTable::new();
        let mut live: Vec<(FileSlot, FileId, u32)> = Vec::new();
        let mut graveyard: Vec<FileSlot> = Vec::new();
        let mut free_model: Vec<u32> = Vec::new();
        let mut next_id = 0u32;
        for &(sel, arg) in &ops {
            match sel % 4 {
                0 | 3 => {
                    let id = FileId(next_id);
                    let type_idx = u32::from(arg % 7);
                    next_id += 1;
                    let slot = table.insert(id, type_idx);
                    // Most recently freed slot is reused first.
                    if let Some(expected) = free_model.pop() {
                        assert_eq!(slot.index, expected, "reuse is not LIFO");
                    } else {
                        assert_eq!(slot.index as usize, table.capacity() - 1, "fresh slots append");
                    }
                    assert_eq!(slot.generation % 2, 1, "live handles carry odd generations");
                    live.push((slot, id, type_idx));
                }
                1 if !live.is_empty() => {
                    let (slot, _, _) = live.swap_remove(arg as usize % live.len());
                    assert!(table.remove(slot), "removing a live handle succeeds");
                    assert_eq!(table.get(slot), None, "freed handle reads as dead");
                    free_model.push(slot.index);
                    graveyard.push(slot);
                }
                2 if !graveyard.is_empty() => {
                    let stale = graveyard[arg as usize % graveyard.len()];
                    assert_eq!(table.get(stale), None, "stale handle must not read");
                    let cap = table.capacity();
                    let len = table.len();
                    assert!(!table.remove(stale), "stale remove must be a no-op");
                    assert_eq!((table.capacity(), table.len()), (cap, len), "stale remove mutated");
                }
                _ => {}
            }
            assert_eq!(table.len(), live.len(), "live count diverged");
            assert_eq!(table.capacity(), live.len() + free_model.len(), "slot count diverged");
            assert_eq!(table.is_empty(), live.is_empty());
        }
        for &(slot, id, type_idx) in &live {
            let view = table.get(slot).expect("live handle reads back");
            assert_eq!((view.policy_id, view.type_idx), (id, type_idx));
        }
    }

    /// Snapshot → load rebuilds an identical FileTable (every handle,
    /// live or stale, behaves the same), and corrupted snapshots are
    /// rejected loudly rather than rebuilt into quiet slot-reuse bugs.
    #[test]
    fn file_table_snapshot_roundtrip_and_rejection(ops in raw_ops()) {
        let mut table = FileTable::new();
        let mut handles: Vec<FileSlot> = Vec::new();
        for &(sel, arg) in &ops {
            if sel % 3 != 2 || handles.is_empty() {
                handles.push(table.insert(FileId(u32::from(arg)), u32::from(arg % 5)));
            } else {
                let slot = handles[arg as usize % handles.len()];
                table.remove(slot);
            }
        }
        let json = serde_json::to_string(&table).expect("serialize");
        let back: FileTable = serde_json::from_str(&json).expect("load a clean snapshot");
        assert_eq!(table, back, "round trip is identity");
        for &h in &handles {
            assert_eq!(table.get(h), back.get(h), "handle behaviour diverged after reload");
        }

        let v = table.to_value();
        // An out-of-bounds free-stack index.
        let cap = table.capacity();
        let oob = with_field(&v, "free", vec![u32::try_from(cap).unwrap()].to_value());
        prop_assert!(FileTable::from_value(&oob).is_err(), "out-of-bounds free stack accepted");
        // Parallel arrays disagreeing on length.
        let short = with_field(&v, "live", vec![true; cap + 1].to_value());
        prop_assert!(FileTable::from_value(&short).is_err(), "ragged columns accepted");
        // A live slot pushed onto the free stack (only possible when one
        // exists).
        if let Some(live_idx) = (0..cap as u32).find(|&i| {
            table.get(FileSlot { index: i, generation: 1 }).is_some()
        }) {
            let bad = with_field(&v, "free", vec![live_idx].to_value());
            prop_assert!(FileTable::from_value(&bad).is_err(), "live slot on free stack accepted");
        }
    }
}
