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
//!   exactly the units it reports (at most the request).

use proptest::prelude::*;
use readopt::alloc::{
    BuddyPolicy, ExtentPolicy, FfsPolicy, FileHints, FileId, FitStrategy, FixedPolicy, Policy,
    RestrictedPolicy,
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

/// Applies a sequence of operations, checking invariants after each.
fn exercise(policy: &mut dyn Policy, ops: &[Op]) {
    let mut live: Vec<FileId> = Vec::new();
    let hints = FileHints { mean_extent_bytes: 8 * 1024 };
    // Start with a couple of files so early ops have targets.
    for _ in 0..2 {
        if let Ok(id) = policy.create(&hints) {
            live.push(id);
        }
    }
    for op in ops {
        match op {
            Op::Create => {
                if let Ok(id) = policy.create(&hints) {
                    live.push(id);
                }
            }
            Op::Extend { file_sel, units } => {
                if !live.is_empty() {
                    let id = live[file_sel % live.len()];
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
                if !live.is_empty() {
                    let id = live[file_sel % live.len()];
                    let before = policy.allocated_units(id).unwrap();
                    let freed = policy.truncate(id, *units).expect("truncating a live file");
                    assert!(freed <= *units, "freed {freed} > asked {units}");
                    assert_eq!(policy.allocated_units(id).unwrap(), before - freed);
                }
            }
            Op::Delete { file_sel } => {
                if !live.is_empty() {
                    let idx = file_sel % live.len();
                    let id = live.swap_remove(idx);
                    policy.delete(id).expect("deleting a live file");
                }
            }
        }
        policy.check_invariants();
    }
    // Tear-down: deleting everything restores all data space.
    for id in live.drain(..) {
        policy.delete(id).expect("deleting a live file");
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
