//! Property tests for the restricted buddy's by-length region availability
//! index.
//!
//! Steps 2–3 of the paper's region-selection algorithm ("select a region
//! with a block of the correct size", "select the next region with
//! available space") used to walk every bookkeeping region linearly. The
//! index replaces those walks with per-class bitmap scans.
//! `check_invariants` (through `check_region_index`) asserts, after every
//! step of arbitrary op streams, that the index matches the regions and
//! that from every optimal region it picks, for every class, the region
//! the linear walk picks.

mod common;

use common::{raw_ops, run_checked};
use proptest::prelude::*;
use readopt_alloc::RestrictedPolicy;

const CAPACITY: u64 = 4096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 1K/8K/64K ladder over 32 × 128-unit clustered regions: small enough
    /// to fill within an op stream, many enough that the wrap search
    /// matters. Extends of 1..=17 units cross class boundaries, so splits
    /// and spills both fire.
    #[test]
    fn region_index_matches_linear_scan(ops in raw_ops()) {
        let mut p = RestrictedPolicy::new(CAPACITY, &[1, 8, 64], 1, Some(128));
        run_checked(&mut p, &ops, 17);
    }

    /// The unclustered configuration (one region) degenerates cleanly:
    /// steps 2–3 have no other region to offer.
    #[test]
    fn single_region_configuration_agrees(ops in raw_ops()) {
        let mut p = RestrictedPolicy::new(CAPACITY, &[1, 8, 64], 1, None);
        run_checked(&mut p, &ops, 17);
    }
}
