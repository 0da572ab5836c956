//! Layer replays: each layer's public calls driven in isolation, at fixed
//! sizes, from inputs generated up front from the benchmark seed (the way
//! `alloc_bench` fills and churns). Every replay reports the median
//! host ns per operation over [`REPS`] repetitions.

use crate::stats::{median, ns};
use readopt_alloc::{Extent, FileHints, FileId, FileMap, Policy, PolicyConfig};
use readopt_core::ExperimentContext;
use readopt_disk::{calibrate_max_bandwidth, ArrayConfig, IoRequest, SimDuration, SimTime};
use readopt_sim::{EventQueue, SimRng, UserId};
use readopt_store::{StoreReader, StoreWriter};
use readopt_workloads::WorkloadKind;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions per replay; the median is reported.
pub const REPS: usize = 3;

/// Event-queue schedule+pop pairs timed per repetition.
const QUEUE_OPS: usize = 1 << 20;

/// `EventQueue` (default heap backend) at a steady pending depth: each
/// step pops the earliest event and reschedules its user one
/// exponential think time (mean 3 s, as `many_users`) later. Returns ns
/// per schedule+pop pair.
pub fn queue_ns_per_op(depth: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let spread_ms = 3000.0;
    let initial: Vec<SimTime> = (0..depth)
        .map(|_| SimTime::from_ms(rng.uniform_f64(0.0, spread_ms)))
        .collect();
    let thinks: Vec<SimDuration> = (0..QUEUE_OPS)
        .map(|_| SimDuration::from_ms(rng.exponential(spread_ms)))
        .collect();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut q = EventQueue::new();
            for (user, &t) in initial.iter().enumerate() {
                q.schedule(t, UserId(user as u32));
            }
            let start = Instant::now();
            for &think in &thinks {
                let ev = q.pop().expect("the queue holds `depth` events");
                q.schedule(ev.time + think, ev.user);
            }
            let elapsed = ns(start.elapsed());
            black_box(q.len());
            elapsed / QUEUE_OPS as f64
        })
        .collect();
    median(&samples)
}

/// Requests submitted per disk replay repetition.
const DISK_OPS: usize = 100_000;

/// Where a replayed request stream places its requests.
#[derive(Debug, Clone, Copy)]
pub enum Access {
    /// Anywhere on the array.
    Random,
    /// Random, aligned to the request size (DBMS pages).
    Aligned,
    /// Back to back, wrapping at the end of the array.
    Sequential,
}

/// The request shape of `wl`'s dominant file type in 1 KB disk units:
/// TS 4 KB random, TP 16 KB page-aligned random, SC 512 KB sequential.
pub fn paper_shape(wl: WorkloadKind) -> (Access, u64) {
    match wl {
        WorkloadKind::Timesharing => (Access::Random, 4),
        WorkloadKind::TransactionProcessing => (Access::Aligned, 16),
        WorkloadKind::Supercomputer => (Access::Sequential, 512),
    }
}

/// `Storage::submit` on `array` with `units`-unit requests placed by
/// `access`; reads and writes 50/50. Each request becomes ready when the
/// previous one completes. Returns ns per submit.
pub fn disk_submit_ns(array: &ArrayConfig, access: Access, units: u64, seed: u64) -> f64 {
    let cap = array.capacity_units();
    let mut rng = SimRng::new(seed);
    let mut next_seq = 0u64;
    let reqs: Vec<IoRequest> = (0..DISK_OPS)
        .map(|_| {
            let unit = match access {
                Access::Random => rng.uniform_u64(0, cap - units),
                Access::Aligned => rng.uniform_u64(0, cap / units - 1) * units,
                Access::Sequential => {
                    let unit = next_seq;
                    next_seq = (next_seq + units) % (cap - units);
                    unit
                }
            };
            if rng.uniform_u64(0, 1) == 0 {
                IoRequest::read(unit, units)
            } else {
                IoRequest::write(unit, units)
            }
        })
        .collect();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut storage = array.build();
            let mut ready = SimTime::ZERO;
            let start = Instant::now();
            for req in &reqs {
                ready = storage.submit(ready, req).end;
            }
            let elapsed = ns(start.elapsed());
            black_box(ready);
            elapsed / DISK_OPS as f64
        })
        .collect();
    median(&samples)
}

/// The policies the replays cover, one per family the workloads run: the
/// §5 selected configurations and the aged 4 KB fixed-block baseline.
pub fn policy_families() -> [PolicyConfig; 4] {
    [
        PolicyConfig::paper_restricted(),
        PolicyConfig::paper_extent_based(),
        PolicyConfig::paper_buddy(),
        ExperimentContext::fixed_policy(WorkloadKind::Timesharing),
    ]
}

/// Churn operations timed per allocator repetition.
const CHURN_OPS: usize = 40_000;

/// Files the allocator replay fills the disk with.
const CHURN_FILES: usize = 512;

fn utilization(p: &dyn Policy) -> f64 {
    1.0 - p.free_units() as f64 / p.capacity_units() as f64
}

/// One pre-drawn churn step: an op roll (0..100), a file pick and a size.
struct ChurnStep {
    roll: u64,
    pick: usize,
    units: u64,
}

/// Allocator create/extend/truncate/delete mix on the paper array's
/// capacity: fill to `util` with [`CHURN_FILES`] files grown round-robin,
/// then time [`CHURN_OPS`] steps (40 % extend, 30 % truncate, 30 %
/// delete + re-create, steered back when utilization drifts three points).
/// Returns ns per op.
pub fn alloc_ns_per_op(policy: &PolicyConfig, util: f64, seed: u64) -> f64 {
    let array = ArrayConfig::paper_default();
    let hints = FileHints {
        mean_extent_bytes: 32 * 1024,
    };
    let mut rng = SimRng::new(seed);
    let fill_sizes: Vec<u64> = (0..1 << 20).map(|_| rng.uniform_u64(4, 32)).collect();
    let steps: Vec<ChurnStep> = (0..CHURN_OPS)
        .map(|_| ChurnStep {
            roll: rng.uniform_u64(0, 99),
            pick: rng.index(CHURN_FILES),
            units: rng.uniform_u64(1, 96),
        })
        .collect();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut p = policy.build(array.capacity_units(), array.disk_unit_bytes, seed);
            let mut files: Vec<FileId> = (0..CHURN_FILES)
                .filter_map(|_| p.create(&hints).ok())
                .collect();
            let mut stalled = 0;
            let mut k = 0;
            while utilization(p.as_ref()) < util && stalled < files.len() {
                let f = files[k % files.len()];
                if p.extend(f, fill_sizes[k % fill_sizes.len()]).is_ok() {
                    stalled = 0;
                } else {
                    stalled += 1;
                }
                k += 1;
            }
            let start = Instant::now();
            for s in &steps {
                let drift = utilization(p.as_ref());
                let op = if drift > util + 0.03 {
                    40 + s.roll % 60
                } else if drift < util - 0.03 {
                    s.roll % 40
                } else {
                    s.roll
                };
                let i = s.pick % files.len();
                match op {
                    0..=39 => {
                        let _ = p.extend(files[i], s.units.div_ceil(2));
                    }
                    40..=69 => {
                        let _ = p.truncate(files[i], s.units);
                    }
                    _ => {
                        let _ = p.delete(files[i]);
                        if let Ok(id) = p.create(&hints) {
                            files[i] = id;
                        }
                    }
                }
            }
            let elapsed = ns(start.elapsed());
            black_box(p.free_units());
            elapsed / CHURN_OPS as f64
        })
        .collect();
    median(&samples)
}

/// Extents in the replayed file map: between the TS (5–9) and SC
/// (97–162) averages of Table 4.
pub const MAP_EXTENTS: usize = 64;

/// Lookups timed per `map_range_into` repetition.
const MAP_OPS: usize = 200_000;

/// `FileMap::map_range_into` on a [`MAP_EXTENTS`]-extent file with
/// transfer-sized (4–64 unit) lookups at random offsets. Returns ns per
/// lookup.
pub fn map_range_ns(seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let mut map = FileMap::new();
    let mut start = 0u64;
    for _ in 0..MAP_EXTENTS {
        let len = rng.uniform_u64(8, 64);
        // A gap keeps neighbours from merging into one extent.
        start += rng.uniform_u64(1, 1024);
        map.push(Extent::new(start, len));
        start += len;
    }
    let total = map.total_units();
    let queries: Vec<(u64, u64)> = (0..MAP_OPS)
        .map(|_| (rng.uniform_u64(0, total - 1), rng.uniform_u64(4, 64)))
        .collect();
    let mut out = Vec::new();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for &(offset, len) in &queries {
                map.map_range_into(offset, len, &mut out);
                black_box(out.len());
            }
            ns(start.elapsed()) / MAP_OPS as f64
        })
        .collect();
    median(&samples)
}

/// `calibrate_max_bandwidth` on `array`: median ms per call.
pub fn calibrate_ms(array: &ArrayConfig) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(calibrate_max_bandwidth(array));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `StoreWriter::append_point` of every record, then
/// `StoreReader::point` of each, in a scratch store under `dir` (removed
/// afterwards). Returns `(µs per append, µs per read)`, or an error if a
/// read disagrees with what was written.
pub fn store_us(records: &[(String, u64, String)], dir: &Path) -> Result<(f64, f64), String> {
    let path = dir.join("perfbench-replay.rrs");
    let mut appends = Vec::with_capacity(REPS);
    let mut reads = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut w =
            StoreWriter::create(&path, "{\"run\":\"perfbench\"}").map_err(|e| e.to_string())?;
        let start = Instant::now();
        for (exp, index, payload) in records {
            w.append_point(exp, *index, payload)
                .map_err(|e| e.to_string())?;
        }
        appends.push(start.elapsed().as_secs_f64() * 1e6 / records.len() as f64);
        w.finish().map_err(|e| e.to_string())?;
        let mut r = StoreReader::open(&path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let read: Result<Vec<String>, _> = records
            .iter()
            .map(|(exp, index, _)| r.point(exp, *index))
            .collect();
        reads.push(start.elapsed().as_secs_f64() * 1e6 / records.len() as f64);
        let read = read.map_err(|e| e.to_string())?;
        if let Some((exp, index, _)) = records
            .iter()
            .zip(&read)
            .find(|(rec, got)| rec.2 != **got)
            .map(|(r, _)| r)
        {
            return Err(format!(
                "store read of {exp}[{index}] differs from the appended record"
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok((median(&appends), median(&reads)))
}
