//! Random op streams and their checked replay, shared by the policy
//! property tests.

use proptest::prelude::*;
use readopt_alloc::{FileHints, FileId, Policy};

/// One step of a policy op stream; the fields are raw entropy shaped by
/// [`run_checked`].
pub type RawOp = (u8, u16);

/// Op streams of 1 to 159 steps.
pub fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), 1..160)
}

/// Replays `ops` against `p`, checking every invariant after every step.
/// Two of the five arms extend a file by 1..=`max_extend` units, which
/// keeps utilization high; the others create, truncate by 1..=11 units,
/// and delete.
pub fn run_checked(p: &mut dyn Policy, ops: &[RawOp], max_extend: u64) {
    let mut files: Vec<FileId> = Vec::new();
    for &(sel, arg) in ops {
        let arg = u64::from(arg);
        match sel % 5 {
            0 => files.extend(p.create(&FileHints::default())),
            1 | 2 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                let _ = p.extend(f, arg % max_extend + 1);
            }
            3 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                p.truncate(f, arg % 11 + 1).expect("truncating a live file");
            }
            4 if !files.is_empty() => {
                let f = files.swap_remove(arg as usize % files.len());
                p.delete(f).expect("deleting a live file");
            }
            _ => {}
        }
        p.check_invariants();
    }
}
