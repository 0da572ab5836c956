//! Allocator microbenchmarks: bitmap-backed free-space structures vs their
//! `BTreeSet`/`BTreeMap` reference backends.
//!
//! For each policy family and each steady-state utilization level the
//! harness fills a disk to the target, then times an identical churn
//! stream (extend / truncate / delete+create, identical RNG seeds, so both
//! backends make byte-identical decisions — see
//! `crates/alloc/tests/bitmap_equiv.rs`) against each backend. Median
//! ns/op over several repetitions goes to stdout as a table and, with
//! `--json PATH`, into a `BENCH_alloc.json`-shaped snapshot that
//! `scripts/check.sh` uses as its perf-regression baseline.
//!
//! One more row times the shipped bitmap backend alone, in absolute ns/op:
//! first-fit extents at the time-sharing (TS) workload's 1 KB and 8 KB
//! extent sizes, churned at 95 % utilization on the paper's full array —
//! the allocator work that dominates the TS points of the paper's §3
//! allocation tests.
//!
//! Wall-clock here is measurement, not simulation: the bench crate is the
//! one place the workspace reads real time (simlint r2 exemption).

use readopt_alloc::blockset::{BTreeBlockSet, BitmapBlockSet};
use readopt_alloc::freespace::{BTreeFreeSpaceMap, FreeSpaceMap};
use readopt_alloc::{
    BuddyPolicy, ExtentPolicy, FfsPolicy, FileHints, FileId, FitStrategy, Policy,
    RestrictedPolicy,
};
use readopt_disk::ArrayConfig;
use readopt_sim::SimRng;
use serde::Serialize;
use std::time::Instant;

/// Unit capacity of the benchmark disk. Large enough that the reference
/// backends' ordered sets hold tens of thousands of entries at low
/// utilization.
const CAPACITY: u64 = 1 << 18;
/// Churn operations timed per repetition.
const CHURN_OPS: u64 = 40_000;
/// Repetitions per (policy, utilization, backend); the median is reported.
const REPS: usize = 5;
/// Ops timed per repetition in the high-fragmentation phase. The op mix is
/// all tail-sized, so every operation hits the ffs fragment paths; fewer
/// ops than the main churn keep `scripts/check.sh` fast.
const FRAG_OPS: u64 = 6_000;
/// Utilization of the high-fragmentation phase: near-full, where the
/// fragmented-block population (and thus the linear scan's work) peaks.
const FRAG_UTIL: f64 = 0.95;

/// One (policy, utilization) comparison.
#[derive(Debug, Serialize)]
struct BenchRow {
    policy: String,
    util_pct: u32,
    bitmap_ns_per_op: u64,
    btree_ns_per_op: u64,
    /// btree / bitmap — above 1.0 means the bitmap backend is faster.
    speedup: f64,
}

/// One high-fragmentation comparison: the ffs fragment path with the
/// run-length `FragIndex` vs the pre-index linear `frag_blocks` scan
/// (identical seeds, identical decisions — see
/// `crates/alloc/tests/frag_equiv.rs`).
#[derive(Debug, Serialize)]
struct FragRow {
    policy: String,
    util_pct: u32,
    indexed_ns_per_op: u64,
    linear_ns_per_op: u64,
    /// linear / indexed — above 1.0 means the index is faster.
    speedup: f64,
}

/// One absolute-cost row: the shipped bitmap backend only.
#[derive(Debug, Serialize)]
struct AbsRow {
    policy: String,
    util_pct: u32,
    ns_per_op: u64,
}

/// The `BENCH_alloc.json` snapshot.
#[derive(Debug, Serialize)]
struct BenchReport {
    capacity_units: u64,
    churn_ops: u64,
    reps: usize,
    rows: Vec<BenchRow>,
    frag_ops: u64,
    frag_rows: Vec<FragRow>,
    abs_rows: Vec<AbsRow>,
}

/// Backend selector for the policy factories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Bitmap,
    BTree,
}

/// Builds a fresh policy of the named family over the chosen backend.
fn build(policy: &str, backend: Backend) -> Box<dyn Policy> {
    match (policy, backend) {
        ("ffs", Backend::Bitmap) => {
            let p: FfsPolicy<BitmapBlockSet> = FfsPolicy::new(CAPACITY, 8, 1 << 15);
            Box::new(p)
        }
        ("ffs", Backend::BTree) => {
            let p: FfsPolicy<BTreeBlockSet> = FfsPolicy::new(CAPACITY, 8, 1 << 15);
            Box::new(p)
        }
        ("restricted", Backend::Bitmap) => {
            let p: RestrictedPolicy<BitmapBlockSet> =
                RestrictedPolicy::new(CAPACITY, &[1, 4, 16, 64], 2, None);
            Box::new(p)
        }
        ("restricted", Backend::BTree) => {
            let p: RestrictedPolicy<BTreeBlockSet> =
                RestrictedPolicy::new(CAPACITY, &[1, 4, 16, 64], 2, None);
            Box::new(p)
        }
        ("buddy", Backend::Bitmap) => {
            let p: BuddyPolicy<BitmapBlockSet> = BuddyPolicy::new(CAPACITY, 256);
            Box::new(p)
        }
        ("buddy", Backend::BTree) => {
            let p: BuddyPolicy<BTreeBlockSet> = BuddyPolicy::new(CAPACITY, 256);
            Box::new(p)
        }
        ("extent", Backend::Bitmap) => {
            let p: ExtentPolicy<FreeSpaceMap> =
                ExtentPolicy::new(CAPACITY, &[8, 64], FitStrategy::FirstFit, 0.1, 1024, 11);
            Box::new(p)
        }
        ("extent", Backend::BTree) => {
            let p: ExtentPolicy<BTreeFreeSpaceMap> =
                ExtentPolicy::new(CAPACITY, &[8, 64], FitStrategy::FirstFit, 0.1, 1024, 11);
            Box::new(p)
        }
        _ => unreachable!("unknown policy family {policy}"),
    }
}

fn utilization(p: &dyn Policy) -> f64 {
    1.0 - p.free_units() as f64 / p.capacity_units() as f64
}

/// Fills the disk to `target` utilization: 512 files grown round-robin in
/// small chunks, mimicking the simulator's initialization phase.
fn fill(p: &mut dyn Policy, rng: &mut SimRng, target: f64) -> Vec<FileId> {
    let mut files = Vec::new();
    for _ in 0..512 {
        let hints = FileHints { mean_extent_bytes: 32 * 1024 };
        if let Ok(id) = p.create(&hints) {
            files.push(id);
        }
    }
    let mut stalled = 0;
    while utilization(p) < target && stalled < files.len() {
        let f = files[rng.index(files.len())];
        let units = rng.uniform_u64(4, 32);
        if p.extend(f, units).is_ok() {
            stalled = 0;
        } else {
            stalled += 1;
        }
    }
    files
}

/// Runs `CHURN_OPS` mixed operations, nudging utilization back toward
/// `target` whenever drift exceeds three points. Returns ns/op.
fn churn(p: &mut dyn Policy, files: &mut Vec<FileId>, rng: &mut SimRng, target: f64) -> u64 {
    let start = Instant::now();
    for _ in 0..CHURN_OPS {
        let util = utilization(p);
        let roll = rng.uniform_u64(0, 99);
        // Drift control keeps the structures at the utilization under test.
        let op = if util > target + 0.03 {
            60 + roll % 40
        } else if util < target - 0.03 {
            roll % 40
        } else {
            roll
        };
        match op {
            // 40 %: extend a random file.
            0..=39 => {
                if let Some(&f) = files.get(rng.index(files.len().max(1)) % files.len().max(1)) {
                    let units = rng.uniform_u64(1, 64);
                    let _ = p.extend(f, units);
                }
            }
            // 30 %: truncate a random file.
            40..=69 => {
                if !files.is_empty() {
                    let f = files[rng.index(files.len())];
                    let units = rng.uniform_u64(1, 96);
                    let _ = p.truncate(f, units);
                }
            }
            // 30 %: delete and immediately re-create (stationary
            // population, like the simulator's §3 create op).
            _ => {
                if !files.is_empty() {
                    let i = rng.index(files.len());
                    let _ = p.delete(files[i]);
                    let hints = FileHints { mean_extent_bytes: 32 * 1024 };
                    match p.create(&hints) {
                        Ok(id) => files[i] = id,
                        Err(_) => {
                            files.swap_remove(i);
                        }
                    }
                }
            }
        }
    }
    let elapsed = start.elapsed().as_nanos();
    u64::try_from(elapsed / u128::from(CHURN_OPS)).unwrap_or(u64::MAX)
}

/// Median of a small sample (ties toward the lower middle).
fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Times one (policy, utilization, backend) cell: median ns/op over
/// `REPS` fresh fill+churn repetitions, all seeded identically.
fn measure(policy: &str, backend: Backend, target: f64) -> u64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut p = build(policy, backend);
        let mut rng = SimRng::new(1000 + rep as u64);
        let mut files = fill(p.as_mut(), &mut rng, target);
        samples.push(churn(p.as_mut(), &mut files, &mut rng, target));
    }
    median(samples)
}

/// Times the ffs fragment path under heavy fragmentation: the disk is
/// packed to `FRAG_UTIL` with tail-only (1..7-fragment) files, then a
/// tail-sized op mix churns the fragment maps. Both strategies replay the
/// same seeds and make identical decisions; only the lookup differs.
fn measure_frag(linear: bool) -> u64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut p: FfsPolicy<BitmapBlockSet> = FfsPolicy::new(CAPACITY, 8, 1 << 15);
        p.set_linear_scan(linear);
        let mut rng = SimRng::new(2000 + rep as u64);
        // Fragment-heavy fill: tiny files only, so reaching the target
        // utilization leaves thousands of fragmented blocks per group.
        let mut files: Vec<FileId> = Vec::new();
        let mut stalled = 0;
        while utilization(&p) < FRAG_UTIL && stalled < 64 {
            let Ok(id) = p.create(&FileHints::default()) else { break };
            if p.extend(id, rng.uniform_u64(1, 7)).is_ok() {
                stalled = 0;
                files.push(id);
            } else {
                let _ = p.delete(id);
                stalled += 1;
            }
        }
        let target = FRAG_UTIL;
        let start = Instant::now();
        for _ in 0..FRAG_OPS {
            let util = utilization(&p);
            let roll = rng.uniform_u64(0, 99);
            // The same drift control as the main churn, with every
            // operation tail-sized so it lands on alloc_frags/free_frags.
            let op = if util > target + 0.02 {
                45 + roll % 55
            } else if util < target - 0.02 {
                roll % 45
            } else {
                roll
            };
            match op {
                // 45 %: grow a file's fragment tail.
                0..=44 => {
                    if !files.is_empty() {
                        let f = files[rng.index(files.len())];
                        let _ = p.extend(f, rng.uniform_u64(1, 7));
                    }
                }
                // 30 %: shrink a tail.
                45..=74 => {
                    if !files.is_empty() {
                        let f = files[rng.index(files.len())];
                        let _ = p.truncate(f, rng.uniform_u64(1, 7));
                    }
                }
                // 25 %: delete and re-create a tiny file.
                _ => {
                    if !files.is_empty() {
                        let i = rng.index(files.len());
                        let _ = p.delete(files[i]);
                        match p.create(&FileHints::default()) {
                            Ok(id) => {
                                files[i] = id;
                                let _ = p.extend(id, rng.uniform_u64(1, 7));
                            }
                            Err(_) => {
                                files.swap_remove(i);
                            }
                        }
                    }
                }
            }
        }
        let elapsed = start.elapsed().as_nanos();
        samples.push(u64::try_from(elapsed / u128::from(FRAG_OPS)).unwrap_or(u64::MAX));
    }
    median(samples)
}

/// Times first-fit extent allocation in the TS shape on the paper array:
/// two small files (1 KB extents, 4 KB writes) for every large one (8 KB
/// extents, 8 KB writes), in the TS workload's 12 % / 74 % capacity split.
/// The files are grown round-robin to [`FRAG_UTIL`], then a churn of
/// extends, truncates and delete + re-creates is timed with the same drift
/// control as the other rows, held within a point of the target.
fn measure_ts_first_fit() -> u64 {
    let capacity = ArrayConfig::paper_default().capacity_units();
    let small = FileHints { mean_extent_bytes: 1024 };
    let large = FileHints { mean_extent_bytes: 8 * 1024 };
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS as u64 {
        let mut p: ExtentPolicy<FreeSpaceMap> =
            ExtentPolicy::new(capacity, &[1, 8], FitStrategy::FirstFit, 0.1, 1024, 3000 + rep);
        let mut rng = SimRng::new(3000 + rep);
        // (file, write size in units, small?)
        let mut files: Vec<(FileId, u64, bool)> = Vec::new();
        for _ in 0..capacity * 12 / 100 / 8 {
            files.push((p.create(&small).expect("fresh disk"), 4, true));
        }
        for _ in 0..capacity * 74 / 100 / 96 {
            files.push((p.create(&large).expect("fresh disk"), 8, false));
        }
        let mut stalled = 0;
        let mut k = 0;
        while utilization(&p) < FRAG_UTIL && stalled < files.len() {
            let (f, units, _) = files[k % files.len()];
            if p.extend(f, units).is_ok() {
                stalled = 0;
            } else {
                stalled += 1;
            }
            k += 1;
        }
        let start = Instant::now();
        for _ in 0..CHURN_OPS {
            let util = utilization(&p);
            let roll = rng.uniform_u64(0, 99);
            let op = if util > FRAG_UTIL + 0.01 {
                50 + roll % 50
            } else if util < FRAG_UTIL - 0.01 {
                roll % 50
            } else {
                roll
            };
            let i = rng.index(files.len());
            let (f, units, is_small) = files[i];
            match op {
                // 50 %: a write past the end.
                0..=49 => {
                    let _ = p.extend(f, units);
                }
                // 25 %: truncate by one write.
                50..=74 => {
                    let _ = p.truncate(f, units);
                }
                // 25 %: delete and re-create at a fresh initial size.
                _ => {
                    let _ = p.delete(f);
                    let (hints, initial) = if is_small {
                        (&small, rng.uniform_u64(4, 12))
                    } else {
                        (&large, rng.uniform_u64(64, 128))
                    };
                    if let Ok(id) = p.create(hints) {
                        files[i].0 = id;
                        let _ = p.extend(id, initial);
                    }
                }
            }
        }
        let elapsed = start.elapsed().as_nanos();
        samples.push(u64::try_from(elapsed / u128::from(CHURN_OPS)).unwrap_or(u64::MAX));
    }
    median(samples)
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next(),
            other => {
                eprintln!("unknown option {other} (usage: alloc_bench [--json PATH])");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Vec::new();
    println!(
        "{:<12} {:>5} {:>14} {:>14} {:>9}",
        "policy", "util", "bitmap ns/op", "btree ns/op", "speedup"
    );
    for policy in ["ffs", "restricted", "buddy", "extent"] {
        for util_pct in [50u32, 80, 95] {
            let target = f64::from(util_pct) / 100.0;
            let bitmap = measure(policy, Backend::Bitmap, target);
            let btree = measure(policy, Backend::BTree, target);
            let speedup = btree as f64 / bitmap.max(1) as f64;
            println!(
                "{policy:<12} {util_pct:>4}% {bitmap:>14} {btree:>14} {speedup:>8.2}x"
            );
            rows.push(BenchRow {
                policy: policy.to_string(),
                util_pct,
                bitmap_ns_per_op: bitmap,
                btree_ns_per_op: btree,
                speedup,
            });
        }
    }

    // High-fragmentation phase: FragIndex vs the pre-index linear scan on
    // the ffs fragment path, identical seeds and identical decisions.
    let indexed = measure_frag(false);
    let linear = measure_frag(true);
    let frag_speedup = linear as f64 / indexed.max(1) as f64;
    println!(
        "{:<12} {:>4}% {:>14} {:>14} {:>8.2}x   (indexed vs linear frag scan)",
        "ffs-frag", 95, indexed, linear, frag_speedup
    );
    let frag_rows = vec![FragRow {
        policy: "ffs-frag".to_string(),
        util_pct: 95,
        indexed_ns_per_op: indexed,
        linear_ns_per_op: linear,
        speedup: frag_speedup,
    }];

    // Absolute cost of the shipped backend in the TS first-fit shape.
    let ts = measure_ts_first_fit();
    println!("{:<12} {:>4}% {:>14}   (bitmap only, paper capacity)", "extent-ts-ff", 95, ts);
    let abs_rows = vec![AbsRow { policy: "extent-ts-ff".to_string(), util_pct: 95, ns_per_op: ts }];

    let report = BenchReport {
        capacity_units: CAPACITY,
        churn_ops: CHURN_OPS,
        reps: REPS,
        rows,
        frag_ops: FRAG_OPS,
        frag_rows,
        abs_rows,
    };
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write(&path, json + "\n").expect("write bench report");
        eprintln!("wrote {path}");
    }
}
