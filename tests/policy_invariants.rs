//! Property-based tests: every allocation policy maintains its structural
//! invariants under arbitrary operation sequences.
//!
//! The invariants (checked by `Policy::check_invariants`):
//! * live extents are in-bounds, non-overlapping, non-empty;
//! * `free + data + metadata == capacity` after every operation;
//! * policy-specific structure holds (`Policy::check_structure`: buddy
//!   alignment/coalescing, restricted region accounting and the region
//!   index, the extent map's by-length index, the FFS fragment index);
//! * `extend` grows the file by exactly the units it reports (at least
//!   the request) or, failing, changes nothing; `truncate` shrinks it by
//!   exactly the units it reports (at most the request);
//! * every operation that names a deleted id answers `DeadFile`;
//! * `create` reuses the most recently freed id, or else issues the next
//!   fresh one.

use proptest::prelude::*;
use readopt::alloc::{
    AllocError, BuddyPolicy, ExtentPolicy, FfsPolicy, FileHints, FileId, FitStrategy, FixedPolicy,
    Policy, RestrictedPolicy,
};

/// A randomly generated operation against a policy.
#[derive(Debug, Clone)]
enum Op {
    Create,
    Extend { file_sel: usize, units: u64 },
    Truncate { file_sel: usize, units: u64 },
    Delete { file_sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => Just(Op::Create),
        5 => (any::<usize>(), 1u64..600).prop_map(|(file_sel, units)| Op::Extend { file_sel, units }),
        2 => (any::<usize>(), 1u64..600).prop_map(|(file_sel, units)| Op::Truncate { file_sel, units }),
        1 => any::<usize>().prop_map(|file_sel| Op::Delete { file_sel }),
    ]
}

/// The test's model of a policy's file ids: the live ones, and the
/// deleted ones in the order `create` must hand them out again.
#[derive(Default)]
struct Ids {
    live: Vec<FileId>,
    freed: Vec<FileId>,
    issued: u32,
}

impl Ids {
    /// Creates a file, checking that a successful create reuses the most
    /// recently freed id, or else issues the next fresh one.
    fn create(&mut self, policy: &mut dyn Policy, hints: &FileHints) {
        let Ok(id) = policy.create(hints) else { return };
        let want = self.freed.pop().unwrap_or_else(|| {
            self.issued += 1;
            FileId(self.issued - 1)
        });
        assert_eq!(id, want, "create must reuse the most recently freed id first");
        self.live.push(id);
    }

    /// Deletes the live file at `idx`, then checks that every operation
    /// naming its id answers `DeadFile`.
    fn delete(&mut self, policy: &mut dyn Policy, idx: usize) {
        let id = self.live.swap_remove(idx);
        policy.delete(id).expect("deleting a live file");
        self.freed.push(id);
        let dead = AllocError::DeadFile(id);
        let too_big = policy.capacity_units() + 1;
        assert_eq!(policy.extend(id, 1), Err(dead), "extend(1) of a dead id");
        assert_eq!(policy.extend(id, too_big), Err(dead), "oversized extend of a dead id");
        assert_eq!(policy.truncate(id, 1), Err(dead), "truncate of a dead id");
        assert_eq!(policy.delete(id), Err(dead), "delete of a dead id");
        assert_eq!(policy.allocated_units(id), Err(dead));
        assert_eq!(policy.allocation_count(id), Err(dead));
        assert_eq!(policy.extent_count(id), Err(dead));
        assert_eq!(policy.file_map(id).err(), Some(dead));
    }
}

/// Applies a sequence of operations, checking invariants after each.
fn exercise(policy: &mut dyn Policy, ops: &[Op]) {
    let mut ids = Ids::default();
    let hints = FileHints { mean_extent_bytes: 8 * 1024 };
    // Start with a couple of files so early ops have targets.
    for _ in 0..2 {
        ids.create(policy, &hints);
    }
    for op in ops {
        match op {
            Op::Create => ids.create(policy, &hints),
            Op::Extend { file_sel, units } => {
                if !ids.live.is_empty() {
                    let id = ids.live[file_sel % ids.live.len()];
                    let before = policy.allocated_units(id).unwrap();
                    let free_before = policy.free_units();
                    match policy.extend(id, *units) {
                        Ok(granted) => {
                            assert!(granted >= *units, "granted {granted} < asked {units}");
                            assert_eq!(policy.allocated_units(id).unwrap(), before + granted);
                        }
                        // Disk-full is fine, but it must leave no trace.
                        Err(_) => {
                            assert_eq!(policy.allocated_units(id).unwrap(), before);
                            assert_eq!(policy.free_units(), free_before);
                        }
                    }
                }
            }
            Op::Truncate { file_sel, units } => {
                if !ids.live.is_empty() {
                    let id = ids.live[file_sel % ids.live.len()];
                    let before = policy.allocated_units(id).unwrap();
                    let freed = policy.truncate(id, *units).expect("truncating a live file");
                    assert!(freed <= *units, "freed {freed} > asked {units}");
                    assert_eq!(policy.allocated_units(id).unwrap(), before - freed);
                }
            }
            Op::Delete { file_sel } => {
                if !ids.live.is_empty() {
                    ids.delete(policy, file_sel % ids.live.len());
                }
            }
        }
        policy.check_invariants();
    }
    // Tear-down: deleting everything restores all data space.
    while !ids.live.is_empty() {
        ids.delete(policy, 0);
    }
    policy.check_invariants();
    assert_eq!(
        policy.free_units() + policy.metadata_units(),
        policy.capacity_units(),
        "all data space returned after deleting every file"
    );
}

const CAPACITY: u64 = 16 * 1024; // 16 K units = 16 MB at 1 KB units

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn buddy_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p: BuddyPolicy = BuddyPolicy::new(CAPACITY, 1 << 12);
        exercise(&mut p, &ops);
    }

    #[test]
    fn restricted_clustered_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p: RestrictedPolicy = RestrictedPolicy::new(CAPACITY, &[1, 8, 64, 1024], 1, Some(4096));
        exercise(&mut p, &ops);
    }

    #[test]
    fn restricted_unclustered_grow2_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p: RestrictedPolicy = RestrictedPolicy::new(CAPACITY, &[1, 8, 64], 2, None);
        exercise(&mut p, &ops);
    }

    #[test]
    fn extent_first_fit_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p: ExtentPolicy = ExtentPolicy::new(CAPACITY, &[4, 32], FitStrategy::FirstFit, 0.1, 1024, 11);
        exercise(&mut p, &ops);
    }

    #[test]
    fn extent_best_fit_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p: ExtentPolicy = ExtentPolicy::new(CAPACITY, &[4, 32], FitStrategy::BestFit, 0.1, 1024, 12);
        exercise(&mut p, &ops);
    }

    #[test]
    fn fixed_block_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p = FixedPolicy::new(CAPACITY, 4, true, 13);
        exercise(&mut p, &ops);
    }

    #[test]
    fn ffs_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut p: FfsPolicy = FfsPolicy::new(CAPACITY, 8, 1024);
        exercise(&mut p, &ops);
    }

    #[test]
    fn allocation_never_loses_or_invents_space(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in 0u64..1000,
    ) {
        // Cross-policy conservation: run the same op list on every policy.
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(<BuddyPolicy>::new(CAPACITY, 1 << 12)),
            Box::new(<RestrictedPolicy>::new(CAPACITY, &[1, 8, 64], 1, None)),
            Box::new(<ExtentPolicy>::new(CAPACITY, &[8], FitStrategy::FirstFit, 0.1, 1024, seed)),
            Box::new(FixedPolicy::new(CAPACITY, 8, false, seed)),
        ];
        for mut p in policies {
            exercise(p.as_mut(), &ops);
        }
    }
}
