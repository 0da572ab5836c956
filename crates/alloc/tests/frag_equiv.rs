//! Property tests for the fragmentation-indexed fast paths.
//!
//! Two equivalences are pinned here, both load-bearing for bit-identical
//! simulation results:
//!
//! 1. `FfsPolicy`'s per-group run-length `FragIndex` picks, for every tail
//!    size, the block a linear scan over the group's fragmented blocks
//!    picks. `check_invariants` asserts that (through `check_frag_index`)
//!    after every step of arbitrary fragment-heavy op streams.
//! 2. `FreeBitmap`'s searches — steered by the lazily maintained per-word
//!    longest-run cache and started at the lowest-free hint — agree
//!    exactly with a naive bit-vector reference, including on ragged
//!    (non-multiple-of-64) lengths.

mod common;

use common::{raw_ops, run_checked};
use proptest::prelude::*;
use readopt_alloc::bitmap::FreeBitmap;
use readopt_alloc::FfsPolicy;

/// Naive longest-run reference: the first index where a free run of `k`
/// begins, from a plain bool vector.
fn naive_first_free_run(bits: &[bool], k: usize) -> Option<usize> {
    let mut run = 0usize;
    for (i, &free) in bits.iter().enumerate() {
        if free {
            run += 1;
            if run >= k {
                return Some(i + 1 - k);
            }
        } else {
            run = 0;
        }
    }
    None
}

/// The maximal runs of slots whose state is `free`, as `(start, len)`.
fn runs_of(bits: &[bool], free: bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bits.len() {
        if bits[i] == free {
            let start = i;
            while i < bits.len() && bits[i] == free {
                i += 1;
            }
            out.push((start, i - start));
        } else {
            i += 1;
        }
    }
    out
}

/// Length of the run of slots in state `free` starting at `start`, capped
/// at `cap`.
fn run_from(bits: &[bool], start: usize, free: bool, cap: usize) -> usize {
    bits[start..].iter().take(cap).take_while(|&&b| b == free).count()
}

/// Every search of `b` against the naive model `bits`, with `probe`
/// steering the `from` and `limit` arguments.
fn assert_searches_match(b: &mut FreeBitmap, bits: &[bool], ks: &[usize], probe: usize) {
    let n = bits.len();
    let naive_from = |from: usize| (from..n).find(|&i| bits[i]);
    assert_eq!(b.free_count(), bits.iter().filter(|&&f| f).count(), "free_count diverged");
    assert_eq!(b.first_free(), naive_from(0), "first_free diverged");
    let from = probe % (n + 2);
    assert_eq!(b.first_free_at_or_after(from), naive_from(from), "first_free_at_or_after({from})");
    // Searches above the hint leave it alone; one more unanchored search
    // must still agree after them.
    assert_eq!(b.first_free(), naive_from(0), "first_free after a probe diverged");
    // The bounded run-end probe is exact when it answers, and declines
    // only when the run reaches past every word it may look at.
    if let Some(start) = naive_from(probe % n) {
        let end = (start..n).find(|&i| !bits[i]).unwrap_or(n);
        for max_words in [1, 4] {
            match b.free_run_end_within(start, max_words) {
                Some(e) => assert_eq!(e, end, "free_run_end_within({start}, {max_words})"),
                None => assert!(
                    end >= (start / 64 + max_words) * 64,
                    "free_run_end_within({start}, {max_words}) declined a run ending at {end}"
                ),
            }
        }
    }
    for &k in ks {
        let want = naive_first_free_run(bits, k);
        assert_eq!(b.first_free_run(k), want, "first_free_run({k}) diverged");
        // A bounded search may stop early only when the first fit starts
        // at or past its limit; whatever it returns is the first fit.
        let limit = probe.wrapping_mul(31) % (n + 1);
        match b.first_free_run_before(k, limit) {
            Some(s) => assert_eq!(Some(s), want, "first_free_run_before({k}, {limit})"),
            None => assert!(
                want.is_none_or(|s| s >= limit),
                "first_free_run_before({k}, {limit}) missed the run at {want:?}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The run-length index picks exactly the block the linear scan picks,
    /// for every tail size, after every step. Extends of 1..=7 fragments
    /// keep nearly every operation on the tail paths.
    #[test]
    fn frag_index_matches_linear_scan(ops in raw_ops()) {
        let mut p = FfsPolicy::new(4096, 8, 512);
        run_checked(&mut p, &ops, 7);
    }

    /// The bitmap's searches agree with a naive bit vector under slot
    /// flips, range frees and uses, emptying, filling and growth, at two
    /// ragged lengths, after every step.
    #[test]
    fn bitmap_run_scan_matches_naive(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..300),
        ks in proptest::collection::vec(1usize..130, 1..8),
    ) {
        for n in [1000usize, 1601] {
            // Start short so a grow step can lengthen the bitmap to `n`.
            let mut len = n - 333;
            let mut b = FreeBitmap::new(len);
            let mut bits = vec![false; len];
            for &(sel, pos, arg) in &ops {
                let (pos, arg) = (usize::from(pos), usize::from(arg));
                let i = pos % len;
                match sel % 8 {
                    // Flip one slot.
                    0 | 1 => {
                        if bits[i] {
                            b.set_used(i);
                        } else {
                            b.set_free(i);
                        }
                        bits[i] = !bits[i];
                    }
                    // Free (or use) part of the used (or free) run at `i`.
                    2 | 3 => {
                        let free = sel % 8 == 2;
                        let count = run_from(&bits, i, !free, arg % 200 + 1);
                        if free {
                            b.set_range_free(i, count);
                        } else {
                            b.set_range_used(i, count);
                        }
                        bits[i..i + count].fill(free);
                    }
                    // All free or all used, one maximal run at a time.
                    4 | 5 => {
                        let free = sel % 8 == 4;
                        for (start, count) in runs_of(&bits, !free) {
                            if free {
                                b.set_range_free(start, count);
                            } else {
                                b.set_range_used(start, count);
                            }
                        }
                        bits.fill(free);
                    }
                    6 if len < n => {
                        len = n;
                        b.grow(len);
                        bits.resize(len, false);
                    }
                    _ => {}
                }
                assert_searches_match(&mut b, &bits, &ks, arg);
            }
        }
    }
}
