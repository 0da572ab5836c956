//! Differential property tests: the bitmap-backed free-space structures
//! against plain ordered-collection models.
//!
//! * `BitmapBlockSet`, the free list of every block-based policy, must
//!   answer exactly as a `BTreeSet<u64>` of the same lattice addresses,
//!   on lattices with any base, stride and ragged end.
//! * `FreeSpaceMap`, the extent policy's free space, must carve and
//!   coalesce exactly as a `BTreeMap<start, len>` run map ([`RunMap`])
//!   under arbitrary fit/release traffic.
//!
//! Fixed cases below pin the edges of the bitmap map's first-fit shortcut
//! (take the lowest free run when it fits), and a churn case holds the map
//! at the ≥ 95 % utilization the time-sharing allocation tests run at.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use readopt_alloc::{BitmapBlockSet, Extent, FreeSpaceMap};
use std::collections::{BTreeMap, BTreeSet};

/// Reference free-space model: maximal free runs keyed by start address,
/// coalesced on every release, searched by walking the runs in address
/// order.
#[derive(Debug)]
struct RunMap(BTreeMap<u64, u64>);

impl RunMap {
    fn with_capacity(capacity: u64) -> Self {
        RunMap(BTreeMap::from([(0, capacity)]))
    }

    fn free_units(&self) -> u64 {
        self.0.values().sum()
    }

    fn largest_run(&self) -> u64 {
        self.0.values().copied().max().unwrap_or(0)
    }

    fn runs(&self) -> Vec<Extent> {
        self.0.iter().map(|(&start, &len)| Extent::new(start, len)).collect()
    }

    fn release(&mut self, e: Extent) {
        let (mut start, mut len) = (e.start, e.len);
        if let Some((&p_start, &p_len)) = self.0.range(..e.start).next_back() {
            assert!(p_start + p_len <= e.start, "release overlaps a free run");
            if p_start + p_len == e.start {
                self.0.remove(&p_start);
                start = p_start;
                len += p_len;
            }
        }
        if let Some((&n_start, &n_len)) = self.0.range(e.start..).next() {
            assert!(e.end() <= n_start, "release overlaps a free run");
            if n_start == e.end() {
                self.0.remove(&n_start);
                len += n_len;
            }
        }
        self.0.insert(start, len);
    }

    /// Takes `[start, start + len)` out of the free run holding all of it.
    fn allocate_at(&mut self, start: u64, len: u64) -> Option<Extent> {
        let (&run_start, &run_len) = self.0.range(..=start).next_back()?;
        if run_start + run_len < start + len {
            return None;
        }
        self.0.remove(&run_start);
        if start > run_start {
            self.0.insert(run_start, start - run_start);
        }
        if run_start + run_len > start + len {
            self.0.insert(start + len, run_start + run_len - start - len);
        }
        Some(Extent::new(start, len))
    }

    /// The lowest-addressed run that holds `len`.
    fn allocate_first_fit(&mut self, len: u64) -> Option<Extent> {
        let (&start, _) = self.0.iter().find(|&(_, &run_len)| run_len >= len)?;
        self.allocate_at(start, len)
    }

    /// The smallest run that holds `len`, the lower address on a tie.
    fn allocate_best_fit(&mut self, len: u64) -> Option<Extent> {
        let (_, start) =
            self.0.iter().filter(|&(_, &l)| l >= len).map(|(&s, &l)| (l, s)).min()?;
        self.allocate_at(start, len)
    }
}

const CAPACITY: u64 = 4096;

/// A `(base, stride, end)` lattice: nonzero base; strides of 1, powers of
/// two and odd values; an end that may leave a ragged partial block.
fn lattice() -> impl Strategy<Value = (u64, u64, u64)> {
    let stride = prop_oneof![
        Just(1u64),
        (1u32..7).prop_map(|k| 1u64 << k),
        (1u64..20).prop_map(|k| 2 * k + 1),
    ];
    (1u64..5000, stride, 0u64..300, any::<u64>()).prop_map(|(base, stride, blocks, ragged)| {
        (base, stride, base + stride * blocks + ragged % stride)
    })
}

/// An address around the lattice, from raw entropy: below the base, on the
/// lattice (up to two slots past the last whole block), anywhere in the
/// span (mostly off the lattice), or past the end.
fn probe((base, stride, end): (u64, u64, u64), raw: u64) -> u64 {
    let r = raw / 4;
    match raw % 4 {
        0 => r % base,
        1 => base + r % ((end - base) / stride + 2) * stride,
        2 => base + r % (end - base + 2 * stride),
        _ => end + r % (2 * stride),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `BitmapBlockSet` agrees with a `BTreeSet` holding the same lattice
    /// addresses: inserts and removes report the same outcome, and every
    /// query agrees after every step. Off-lattice addresses are never
    /// members.
    #[test]
    fn blockset_matches_btreeset(
        lat in lattice(),
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..200),
    ) {
        let (base, stride, end) = lat;
        let on_lattice = |a: u64| a >= base && (a - base).is_multiple_of(stride) && a + stride <= end;
        let mut set = BitmapBlockSet::new(base, end, stride);
        let mut model = BTreeSet::new();
        for &(sel, raw, raw_q) in &ops {
            let a = probe(lat, raw);
            if sel % 3 == 2 {
                assert_eq!(set.remove(a), model.remove(&a), "remove({a})");
            } else {
                assert_eq!(set.insert(a), on_lattice(a) && model.insert(a), "insert({a})");
            }
            let q = probe(lat, raw_q);
            assert_eq!(set.len(), model.len(), "len");
            assert_eq!(set.is_empty(), model.is_empty(), "is_empty");
            assert_eq!(set.first(), model.first().copied(), "first");
            assert_eq!(set.contains(q), model.contains(&q), "contains({q})");
            assert_eq!(
                set.first_at_or_after(q),
                model.range(q..).next().copied(),
                "first_at_or_after({q})"
            );
        }
        assert_eq!(set.addrs(), model.into_iter().collect::<Vec<_>>(), "addrs");
    }

    /// The free-space map under direct fit/release traffic, including
    /// targeted `allocate_at` splits: run coalescing and the by-length
    /// index against the run map.
    #[test]
    fn freespace_maps_are_equivalent(ops in proptest::collection::vec(
        (any::<u8>(), 0u64..CAPACITY, 1u64..128),
        1..200,
    )) {
        let mut a = FreeSpaceMap::with_capacity(CAPACITY);
        let mut b = RunMap::with_capacity(CAPACITY);
        let mut held: Vec<Extent> = Vec::new();
        for &(sel, addr, len) in &ops {
            match sel % 4 {
                0 => {
                    let ra = a.allocate_first_fit(len);
                    assert_eq!(ra, b.allocate_first_fit(len), "first-fit diverged");
                    held.extend(ra);
                }
                1 => {
                    let ra = a.allocate_best_fit(len);
                    assert_eq!(ra, b.allocate_best_fit(len), "best-fit diverged");
                    held.extend(ra);
                }
                2 => {
                    let ra = a.allocate_at(addr, len);
                    assert_eq!(ra, b.allocate_at(addr, len), "allocate_at({addr}, {len}) diverged");
                    held.extend(ra);
                }
                3 if !held.is_empty() => {
                    let e = held.swap_remove(addr as usize % held.len());
                    a.release(e);
                    b.release(e);
                }
                _ => {}
            }
            assert_eq!(a.free_units(), b.free_units(), "free_units diverged");
            assert_eq!(a.run_count(), b.0.len(), "run_count diverged");
            assert_eq!(a.largest_run(), b.largest_run(), "largest_run diverged");
            assert_eq!(a.runs().collect::<Vec<_>>(), b.runs(), "run lists diverged");
        }
        a.check_invariants();
    }
}

/// The map and the model over `capacity` units with the `used` ranges
/// carved out.
fn maps_with_used(capacity: u64, used: &[(u64, u64)]) -> (FreeSpaceMap, RunMap) {
    let mut a = FreeSpaceMap::with_capacity(capacity);
    let mut b = RunMap::with_capacity(capacity);
    for &(start, len) in used {
        assert_eq!(a.allocate_at(start, len), b.allocate_at(start, len), "carving {start}+{len}");
    }
    (a, b)
}

/// First-fit of `len` on the map and the model: same answer, same runs
/// afterwards.
fn first_fit_agrees(a: &mut FreeSpaceMap, b: &mut RunMap, len: u64) -> Option<Extent> {
    let got = a.allocate_first_fit(len);
    assert_eq!(got, b.allocate_first_fit(len), "first-fit({len}) diverged");
    assert_eq!(a.runs().collect::<Vec<_>>(), b.runs(), "runs diverged");
    a.check_invariants();
    got
}

#[test]
fn first_fit_takes_a_lowest_run_of_exactly_len() {
    // Lowest run [10, 15): a 5-unit request consumes it whole.
    let (mut a, mut b) = maps_with_used(1000, &[(0, 10), (15, 485)]);
    assert_eq!(first_fit_agrees(&mut a, &mut b, 5), Some(Extent::new(10, 5)));
    assert_eq!(first_fit_agrees(&mut a, &mut b, 5), Some(Extent::new(500, 5)));
}

#[test]
fn first_fit_skips_a_lowest_run_one_unit_short() {
    let (mut a, mut b) = maps_with_used(1000, &[(0, 10), (15, 485)]);
    assert_eq!(first_fit_agrees(&mut a, &mut b, 6), Some(Extent::new(500, 6)));
    // The short run is still there for a request it does fit.
    assert_eq!(first_fit_agrees(&mut a, &mut b, 4), Some(Extent::new(10, 4)));
}

#[test]
fn first_fit_on_a_lowest_run_longer_than_the_end_probe() {
    // A fresh map is one run far longer than the end probe.
    let (mut a, mut b) = maps_with_used(100_000, &[]);
    assert_eq!(first_fit_agrees(&mut a, &mut b, 1), Some(Extent::new(0, 1)));
    assert_eq!(first_fit_agrees(&mut a, &mut b, 8), Some(Extent::new(1, 8)));
    // A 300-unit lowest run ends past the probe: it still wins when it
    // fits and is passed over when it does not.
    let (mut a, mut b) = maps_with_used(2000, &[(0, 3), (303, 97)]);
    assert_eq!(first_fit_agrees(&mut a, &mut b, 301), Some(Extent::new(400, 301)));
    assert_eq!(first_fit_agrees(&mut a, &mut b, 300), Some(Extent::new(3, 300)));
}

#[test]
fn first_fit_on_a_lowest_run_ending_at_a_ragged_capacity() {
    for capacity in [1000u64, 1601] {
        let (mut a, mut b) = maps_with_used(capacity, &[(0, capacity - 11)]);
        assert_eq!(first_fit_agrees(&mut a, &mut b, 12), None, "capacity {capacity}");
        assert_eq!(
            first_fit_agrees(&mut a, &mut b, 11),
            Some(Extent::new(capacity - 11, 11)),
            "capacity {capacity}"
        );
        assert_eq!(first_fit_agrees(&mut a, &mut b, 1), None, "capacity {capacity}");
    }
}

#[test]
fn first_fit_churn_at_95_percent_utilization() {
    // Time-sharing shape: 1-unit first-fit allocations and releases held
    // between 95 and 96 % full, with the odd 8-unit request.
    let capacity = 20_000 + 37;
    let (mut a, mut b) = maps_with_used(capacity, &[]);
    let mut rng = SmallRng::seed_from_u64(95);
    let mut held: Vec<Extent> = Vec::new();
    let used = |m: &FreeSpaceMap| 1.0 - m.free_units() as f64 / capacity as f64;
    while used(&a) < 0.95 {
        held.extend(first_fit_agrees(&mut a, &mut b, 1));
    }
    for step in 0..20_000 {
        if used(&a) < 0.96 {
            let len = if step % 16 == 0 { 8 } else { 1 };
            held.extend(first_fit_agrees(&mut a, &mut b, len));
        } else {
            let e = held.swap_remove(rng.random_range(0..held.len()));
            a.release(e);
            b.release(e);
        }
        assert!(used(&a) >= 0.95, "step {step} fell below 95 % utilization");
    }
}
