//! Allocator microbenchmarks: absolute ns/op of each policy's shipped
//! free-space structures.
//!
//! For each policy family and each steady-state utilization level the
//! harness fills a disk to the target, then times a churn stream (extend /
//! truncate / delete+create) with fixed RNG seeds. Two more rows time the
//! shapes that dominate particular experiments: `ffs-frag`, the FFS
//! fragment paths at 95 % utilization with tiny files only, and
//! `extent-ts-ff`, first-fit extents at the time-sharing (TS) workload's
//! 1 KB and 8 KB extent sizes, churned at 95 % utilization on the paper's
//! full array. Median ns/op over several repetitions goes to stdout as a
//! table and, with `--json PATH`, into a `BENCH_alloc.json`-shaped
//! snapshot that `scripts/check.sh` uses as its perf-regression baseline.
//!
//! Wall-clock here is measurement, not simulation: the bench crate is the
//! one place the workspace reads real time (simlint r2 exemption).

use readopt_alloc::{
    BuddyPolicy, ExtentPolicy, FfsPolicy, FileHints, FileId, FitStrategy, Policy,
    RestrictedPolicy,
};
use readopt_disk::ArrayConfig;
use readopt_sim::SimRng;
use serde::Serialize;
use std::time::Instant;

/// Unit capacity of the benchmark disk.
const CAPACITY: u64 = 1 << 18;
/// Churn operations timed per repetition.
const CHURN_OPS: u64 = 40_000;
/// Repetitions per row; the median is reported.
const REPS: usize = 5;
/// Ops timed per repetition of the `ffs-frag` row. The op mix is all
/// tail-sized, so every operation hits the ffs fragment paths.
const FRAG_OPS: u64 = 6_000;
/// Utilization of the `ffs-frag` and `extent-ts-ff` rows: near-full, where
/// the fragmented-block population and the free-run count peak.
const FRAG_UTIL: f64 = 0.95;

/// One (policy, utilization) timing.
#[derive(Debug, Serialize)]
struct BenchRow {
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
    frag_ops: u64,
    rows: Vec<BenchRow>,
}

/// Builds a fresh policy of the named family.
fn build(policy: &str) -> Box<dyn Policy> {
    match policy {
        "ffs" => Box::new(FfsPolicy::new(CAPACITY, 8, 1 << 15)),
        "restricted" => Box::new(RestrictedPolicy::new(CAPACITY, &[1, 4, 16, 64], 2, None)),
        "buddy" => Box::new(BuddyPolicy::new(CAPACITY, 256)),
        "extent" => Box::new(ExtentPolicy::new(
            CAPACITY,
            &[8, 64],
            FitStrategy::FirstFit,
            0.1,
            1024,
            11,
        )),
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

/// Times one (policy, utilization) cell: median ns/op over `REPS` fresh
/// fill+churn repetitions.
fn measure(policy: &str, target: f64) -> u64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut p = build(policy);
        let mut rng = SimRng::new(1000 + rep as u64);
        let mut files = fill(p.as_mut(), &mut rng, target);
        samples.push(churn(p.as_mut(), &mut files, &mut rng, target));
    }
    median(samples)
}

/// Times the ffs fragment path under heavy fragmentation: the disk is
/// packed to `FRAG_UTIL` with tail-only (1..7-fragment) files, then a
/// tail-sized op mix churns the fragment maps.
fn measure_frag() -> u64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut p = FfsPolicy::new(CAPACITY, 8, 1 << 15);
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
        let mut p =
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

    println!("{:<12} {:>5} {:>10}", "policy", "util", "ns/op");
    let mut rows = Vec::new();
    let mut row = |policy: &str, util_pct: u32, ns_per_op: u64| {
        println!("{policy:<12} {util_pct:>4}% {ns_per_op:>10}");
        rows.push(BenchRow { policy: policy.to_string(), util_pct, ns_per_op });
    };
    for policy in ["ffs", "restricted", "buddy", "extent"] {
        for util_pct in [50u32, 80, 95] {
            row(policy, util_pct, measure(policy, f64::from(util_pct) / 100.0));
        }
    }
    row("ffs-frag", 95, measure_frag());
    row("extent-ts-ff", 95, measure_ts_first_fit());

    let report = BenchReport {
        capacity_units: CAPACITY,
        churn_ops: CHURN_OPS,
        reps: REPS,
        frag_ops: FRAG_OPS,
        rows,
    };
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write(&path, json + "\n").expect("write bench report");
        eprintln!("wrote {path}");
    }
}
