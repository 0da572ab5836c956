//! The host-speed yardstick: a fixed piece of work, frozen in this
//! benchmark and independent of the program's code, timed between sweep
//! points so that the end-to-end times can be corrected for how fast the
//! host ran while they were measured.
//!
//! The host this benchmark was built on runs in phases of tens of seconds
//! to minutes in which everything slows, the simulator by up to 1.8 times
//! (README, "Host noise"). A run of the benchmark sits in one or two such
//! phases, so the raw times of runs spread by more than any useful bound.
//! The yardstick is timed in the same phases as the simulator. Which kind
//! of work a phase slows changed from one probe to the next (ordered-map
//! and allocation churn in some, integer and sorting work in others), so a
//! slice is four kernels of about equal time, one of each kind.
//!
//! The yardstick's work never changes with the program: a change that
//! speeds up the simulator moves the corrected times by the same factor
//! and leaves the yardstick's as they were.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds of one slice on the development host in a quiet phase
/// (2-vCPU x86-64 VM). Corrected time = host time × `REFERENCE_SLICE_MS`
/// / mean slice time: seconds at that host speed.
pub const REFERENCE_SLICE_MS: f64 = 50.0;

/// Least host time between two slices. With ~50 ms slices this keeps the
/// yardstick near 6 % of a run.
const SAMPLE_EVERY_S: f64 = 0.8;

/// Most slices taken at once, after a long point.
const MAX_BURST: usize = 10;

/// Xorshift64: the kernels' fixed input stream.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// `BTreeMap` insert/remove churn over a 100 000-key space.
fn ordered_map(s: &mut u64) {
    let mut map = BTreeMap::new();
    for _ in 0..100_000 {
        let k = next(s) % 100_000;
        if k % 3 == 0 {
            map.remove(&(k / 3));
        } else {
            map.insert(k, *s);
        }
    }
    black_box(map.len());
}

/// Allocation churn over a pool of up to 5 000 vectors of 1–64 words.
fn allocations(s: &mut u64) {
    let mut pool: Vec<Vec<u64>> = Vec::new();
    for _ in 0..140_000 {
        let n = (next(s) % 64) as usize + 1;
        pool.push(vec![*s; n]);
        if pool.len() > 5_000 {
            let j = (next(s) % pool.len() as u64) as usize;
            pool.swap_remove(j);
        }
    }
    black_box(pool);
}

/// Four interleaved xorshift chains: integer work with instruction-level
/// parallelism.
fn integer() {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for _ in 0..3_000_000 {
        a = next(&mut a).wrapping_add(d);
        b = next(&mut b) ^ a;
        c = next(&mut c).wrapping_add(b >> 3);
        d = next(&mut d) ^ (c << 1);
    }
    black_box((a, b, c, d));
}

/// Unstable sort of 400 000 random words.
fn sorting(s: &mut u64) {
    let mut v: Vec<u64> = (0..400_000).map(|_| next(s)).collect();
    v.sort_unstable();
    black_box(v);
}

/// One slice of fixed work. Returns its host milliseconds.
pub fn slice_ms() -> f64 {
    let t = Instant::now();
    let mut s = 99u64;
    ordered_map(&mut s);
    allocations(&mut s);
    integer();
    sorting(&mut s);
    t.elapsed().as_secs_f64() * 1e3
}

/// Slices taken over a run.
pub struct Yardstick {
    slices_ms: Vec<f64>,
    last: Instant,
}

impl Yardstick {
    /// Starts a run with one slice, so even the first point has a reading
    /// before it.
    pub fn new() -> Self {
        let mut y = Yardstick {
            slices_ms: Vec::new(),
            last: Instant::now(),
        };
        y.sample();
        y
    }

    fn sample(&mut self) -> f64 {
        let ms = slice_ms();
        self.slices_ms.push(ms);
        self.last = Instant::now();
        ms
    }

    /// Takes one slice per [`SAMPLE_EVERY_S`] passed since the last one (at
    /// most [`MAX_BURST`]), so slices sample the run evenly in time however
    /// long its points are. Returns the host milliseconds they took (0 if
    /// none was taken), which the caller leaves out of the time it measures.
    pub fn maybe_sample(&mut self) -> f64 {
        let due = (self.last.elapsed().as_secs_f64() / SAMPLE_EVERY_S) as usize;
        (0..due.min(MAX_BURST)).map(|_| self.sample()).sum()
    }

    /// Slices taken so far.
    pub fn count(&self) -> usize {
        self.slices_ms.len()
    }

    /// Mean slice time over the run, ms.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ms_from(0)
    }

    /// Mean time of the slices from the `first`-th on, ms.
    pub fn mean_ms_from(&self, first: usize) -> f64 {
        let s = &self.slices_ms[first.min(self.slices_ms.len())..];
        s.iter().sum::<f64>() / s.len().max(1) as f64
    }

    /// The factor that turns this run's host times into times at the
    /// reference host speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_SLICE_MS / self.mean_ms()
    }
}
