//! Property tests for the disk-array address mapping and free-space
//! structures — the substrate everything else trusts.
//!
//! The striped decomposition is checked against [`chunk_walk_runs`], the
//! stripe-by-stripe walk the array used before it computed the runs in
//! closed form.

use proptest::prelude::*;
use readopt::alloc::freespace::FreeSpaceMap;
use readopt::alloc::types::Extent;
use readopt::disk::array::{striped_runs, PhysicalRun};

/// Reference model: walks the range one stripe-unit chunk at a time and
/// merges each chunk into its disk's previous run when the two are
/// physically adjacent. Runs come out in the order of their first chunk.
fn chunk_walk_runs(start_byte: u64, len: u64, stripe_unit: u64, ndisks: usize) -> Vec<PhysicalRun> {
    let mut runs: Vec<PhysicalRun> = Vec::new();
    let mut last_per_disk: Vec<Option<usize>> = vec![None; ndisks];
    let mut cursor = start_byte;
    let end = start_byte + len;
    while cursor < end {
        let stripe = cursor / stripe_unit;
        let within = cursor % stripe_unit;
        let chunk = (stripe_unit - within).min(end - cursor);
        let disk = (stripe % ndisks as u64) as usize;
        let phys = (stripe / ndisks as u64) * stripe_unit + within;
        match last_per_disk[disk] {
            Some(idx) if runs[idx].start_byte + runs[idx].len == phys => {
                runs[idx].len += chunk;
            }
            _ => {
                runs.push(PhysicalRun {
                    disk,
                    start_byte: phys,
                    len: chunk,
                });
                last_per_disk[disk] = Some(runs.len() - 1);
            }
        }
        cursor += chunk;
    }
    runs
}

fn runs(start_byte: u64, len: u64, stripe_unit: u64, ndisks: usize) -> Vec<PhysicalRun> {
    striped_runs(start_byte, len, stripe_unit, ndisks).collect()
}

/// Every request shape on small arrays: empty and one-chunk requests,
/// starts and ends anywhere inside a stripe unit (including its first and
/// last byte), a single disk, and requests of up to `N + 2` full rows.
#[test]
fn striped_runs_match_the_chunk_walk_exhaustively() {
    for stripe_unit in [1u64, 2, 3, 5, 8] {
        for ndisks in 1usize..=6 {
            let row = stripe_unit * ndisks as u64;
            for start in 0..3 * row {
                for len in 0..=(ndisks as u64 + 2) * row {
                    assert_eq!(
                        runs(start, len, stripe_unit, ndisks),
                        chunk_walk_runs(start, len, stripe_unit, ndisks),
                        "start {start} len {len} stripe unit {stripe_unit} disks {ndisks}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The closed form gives the chunk walk's run list (disk, start,
    /// length and order) at sizes the exhaustive test cannot reach.
    #[test]
    fn striped_runs_match_the_chunk_walk(
        start in 0u64..1 << 40,
        len in 1u64..50_000_000,
        stripe_unit in 512u64..1 << 20,
        ndisks in 1usize..17,
    ) {
        prop_assert_eq!(
            runs(start, len, stripe_unit, ndisks),
            chunk_walk_runs(start, len, stripe_unit, ndisks)
        );
    }

    /// The striped decomposition conserves bytes, keeps every run on a
    /// valid disk, and produces per-disk physically ascending runs.
    #[test]
    fn striped_runs_partition_the_request(
        start in 0u64..10_000_000,
        len in 1u64..5_000_000,
        stripe_kb in 1u64..64,
        ndisks in 1usize..12,
    ) {
        let stripe = stripe_kb * 1024;
        let runs = runs(start, len, stripe, ndisks);
        let total: u64 = runs.iter().map(|r| r.len).sum();
        prop_assert_eq!(total, len, "bytes conserved");
        let mut last_end_per_disk = vec![0u64; ndisks];
        for r in &runs {
            prop_assert!(r.disk < ndisks);
            prop_assert!(r.len > 0);
            prop_assert!(
                r.start_byte >= last_end_per_disk[r.disk],
                "per-disk runs must ascend (merged FCFS order)"
            );
            last_end_per_disk[r.disk] = r.start_byte + r.len;
        }
    }

    /// Striping is injective: distinct logical bytes land on distinct
    /// (disk, physical byte) pairs. Two disjoint logical ranges, each
    /// mapped by the array, cover bytes they conserve and never share a
    /// physical byte, nor does any range with itself.
    #[test]
    fn striping_is_injective(
        a in 0u64..1_000_000,
        a_len in 1u64..300_000,
        gap in 0u64..100_000,
        b_len in 1u64..300_000,
        stripe_kb in 1u64..33,
        ndisks in 1usize..9,
    ) {
        let stripe = stripe_kb * 1024;
        let b = a + a_len + gap;
        let mut placed: Vec<PhysicalRun> = runs(a, a_len, stripe, ndisks);
        prop_assert_eq!(placed.iter().map(|r| r.len).sum::<u64>(), a_len);
        let b_runs = runs(b, b_len, stripe, ndisks);
        prop_assert_eq!(b_runs.iter().map(|r| r.len).sum::<u64>(), b_len);
        placed.extend(b_runs);
        for (i, x) in placed.iter().enumerate() {
            for y in &placed[i + 1..] {
                prop_assert!(
                    x.disk != y.disk
                        || x.start_byte + x.len <= y.start_byte
                        || y.start_byte + y.len <= x.start_byte,
                    "runs {:?} and {:?} share physical bytes", x, y
                );
            }
        }
    }

    /// The free-space map stays coalesced and conserves units through any
    /// mix of first-fit/best-fit allocations and releases.
    #[test]
    fn freespace_round_trip(
        takes in proptest::collection::vec((1u64..200, any::<bool>()), 1..60),
    ) {
        let capacity = 16_384u64;
        let mut m = FreeSpaceMap::with_capacity(capacity);
        let mut held: Vec<Extent> = Vec::new();
        for (len, best) in takes {
            let got = if best { m.allocate_best_fit(len) } else { m.allocate_first_fit(len) };
            if let Some(e) = got {
                prop_assert_eq!(e.len, len);
                held.push(e);
            } else {
                // Failure must mean no run was large enough.
                prop_assert!(m.largest_run() < len);
            }
            m.check_invariants();
            // Occasionally release the oldest allocation.
            if held.len() > 8 {
                let e = held.remove(0);
                m.release(e);
                m.check_invariants();
            }
        }
        let held_total: u64 = held.iter().map(|e| e.len).sum();
        prop_assert_eq!(m.free_units() + held_total, capacity);
        for e in held {
            m.release(e);
        }
        m.check_invariants();
        prop_assert_eq!(m.free_units(), capacity);
        prop_assert_eq!(m.run_count(), 1, "fully coalesced back to one run");
    }

    /// Best-fit carves from the smallest hole that can hold the request,
    /// the lowest-addressed one among equals, starting at its first unit.
    #[test]
    fn best_fit_is_minimal(
        holes in proptest::collection::vec(1u64..100, 2..12),
        want in 1u64..60,
    ) {
        // Build a map with the given hole sizes separated by 1-unit gaps.
        let mut m = FreeSpaceMap::new();
        let mut cursor = 0;
        let mut placed = Vec::new();
        for &h in &holes {
            m.release(Extent::new(cursor, h));
            placed.push((cursor, h));
            cursor += h + 1;
        }
        prop_assert_eq!(m.run_count(), holes.len(), "the gaps keep the holes apart");
        // The smallest adequate size, then the lowest start with it.
        let best = placed
            .iter()
            .filter(|&&(_, size)| size >= want)
            .min_by_key(|&&(start, size)| (size, start));
        let expected = best.map(|&(start, _)| Extent::new(start, want));
        prop_assert_eq!(m.allocate_best_fit(want), expected);
    }
}
