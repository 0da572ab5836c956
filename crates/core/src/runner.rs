//! Multi-threaded sweep-point runner.
//!
//! Every figure/table in the reproduction is a sweep: a list of independent
//! (workload, policy) points, each of which builds its *own* simulation from
//! the context seed. That independence makes the sweeps embarrassingly
//! parallel — and, because each point's RNG stream depends only on the
//! context and the point itself (never on execution order), running them on
//! any number of threads produces bit-identical results.
//!
//! The runner takes a `Vec<Job<T>>` (label + closure), executes the closures
//! across `jobs` OS threads with [`std::thread::scope`], and reassembles the
//! results *in submission order* along with per-job wall-clock timings. No
//! external dependencies: dispatch is a shared atomic cursor over a slot
//! vector, so threads pull the next pending point as they free up (the
//! sweeps' points vary in cost by more than an order of magnitude, which
//! defeats static chunking).
//!
//! Every experiment driver goes through `sweep`: its jobs return a
//! `PointOut` (the point plus one metrics snapshot and one latency
//! histogram per test), and the runner labels the snapshots with the
//! job's label and assembles the experiment's two sidecars. The
//! projections (table4, diag, table3's throughput columns) relabel the
//! points they derive through the same `assemble`.

use crate::context::ExperimentContext;
use crate::metrics::{ExperimentHist, ExperimentMetrics, PointHist, PointMetrics};
use readopt_sim::{TestHist, TestMetrics};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One sweep point: a label for profiling plus the work producing its result.
pub struct Job<'scope, T> {
    label: String,
    work: Box<dyn FnOnce() -> T + Send + 'scope>,
}

impl<'scope, T> Job<'scope, T> {
    /// Wraps a closure as a runnable sweep point.
    pub fn new(label: impl Into<String>, work: impl FnOnce() -> T + Send + 'scope) -> Self {
        Job { label: label.into(), work: Box::new(work) }
    }
}

/// Wall-clock cost of one executed job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTiming {
    /// The job's label, e.g. `fig1/sc/n4-g2-c`.
    pub label: String,
    /// Wall-clock milliseconds the job's closure ran for.
    pub wall_ms: f64,
}

/// Results (in submission order) plus per-job timings of one runner pass.
pub struct RunOutcome<T> {
    /// One result per job, in the order the jobs were submitted —
    /// independent of how many threads ran them or in what order they
    /// finished.
    pub results: Vec<T>,
    /// Per-job wall-clock timings, in submission order.
    pub timings: Vec<JobTiming>,
}

/// Number of worker threads to use when the user doesn't say: the OS's
/// available parallelism, or 1 if that can't be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Runs `list` on up to `jobs` OS threads and reassembles the results in
/// submission order.
///
/// With `jobs <= 1` (or at most one job) the list runs inline on the calling
/// thread with no thread or synchronization overhead. A panicking job
/// panics the whole run, matching sequential behavior.
pub fn run_jobs<'scope, T: Send>(jobs: usize, list: Vec<Job<'scope, T>>) -> RunOutcome<T> {
    let n = list.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        let mut results = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        for job in list {
            let start = Instant::now();
            results.push((job.work)());
            timings
                .push(JobTiming { label: job.label, wall_ms: start.elapsed().as_secs_f64() * 1e3 });
        }
        return RunOutcome { results, timings };
    }

    // Slot per job: workers claim indexes through the atomic cursor, take
    // the closure out of its slot, and park the result in the matching
    // output slot. Labels stay on this thread — only closures cross.
    let mut labels = Vec::with_capacity(n);
    let pending: Vec<Mutex<Option<Box<dyn FnOnce() -> T + Send + 'scope>>>> = list
        .into_iter()
        .map(|job| {
            labels.push(job.label);
            Mutex::new(Some(job.work))
        })
        .collect();
    let done: Vec<Mutex<Option<(T, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let work = pending[i].lock().unwrap().take().expect("each slot claimed once");
                let start = Instant::now();
                let result = work();
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                *done[i].lock().unwrap() = Some((result, wall_ms));
            });
        }
    });

    let mut results = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (label, slot) in labels.into_iter().zip(done) {
        let (result, wall_ms) =
            slot.into_inner().unwrap().expect("scope exit implies every job ran");
        results.push(result);
        timings.push(JobTiming { label, wall_ms });
    }
    RunOutcome { results, timings }
}

/// One sweep point's output: its result, plus one metrics snapshot and
/// one latency histogram per test it ran, in execution order.
pub(crate) type PointOut<T> = (T, Vec<TestMetrics>, Vec<TestHist>);

/// A profiled experiment: its result, per-point wall-clock timings and
/// its metrics and histogram sidecars, both in sweep order.
pub type Profiled<R> = (R, Vec<JobTiming>, ExperimentMetrics, ExperimentHist);

/// Runs one experiment's sweep on `ctx.jobs` threads and [`assemble`]s
/// its sidecars under the jobs' labels.
pub(crate) fn sweep<T: Send>(
    ctx: &ExperimentContext,
    experiment: &str,
    list: Vec<Job<'_, PointOut<T>>>,
) -> Profiled<Vec<T>> {
    let out = run_jobs(ctx.jobs, list);
    let labels = out.timings.iter().map(|t| t.label.clone());
    let (points, metrics, hists) = assemble(experiment, labels.zip(out.results));
    (points, out.timings, metrics, hists)
}

/// Splits labeled point outputs, in sweep order, into the points and the
/// experiment's metrics and histogram sidecars.
pub(crate) fn assemble<T>(
    experiment: &str,
    labeled: impl IntoIterator<Item = (String, PointOut<T>)>,
) -> (Vec<T>, ExperimentMetrics, ExperimentHist) {
    let mut points = Vec::new();
    let mut metrics = Vec::new();
    let mut hists = Vec::new();
    for (label, (point, tests, test_hists)) in labeled {
        points.push(point);
        metrics.push(PointMetrics::new(label.clone(), tests));
        hists.push(PointHist::new(label, test_hists));
    }
    (points, ExperimentMetrics::new(experiment, metrics), ExperimentHist::new(experiment, hists))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_jobs(n: usize) -> Vec<Job<'static, usize>> {
        (0..n).map(|i| Job::new(format!("sq/{i}"), move || i * i)).collect()
    }

    #[test]
    fn sequential_and_parallel_agree_in_order() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 8, 64] {
            let out = run_jobs(jobs, square_jobs(37));
            assert_eq!(out.results, expected, "jobs = {jobs}");
            assert_eq!(out.timings.len(), 37);
            assert_eq!(out.timings[5].label, "sq/5");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let out = run_jobs(4, Vec::<Job<usize>>::new());
        assert!(out.results.is_empty() && out.timings.is_empty());
        let out = run_jobs(4, square_jobs(1));
        assert_eq!(out.results, vec![0]);
    }

    #[test]
    fn borrows_from_the_enclosing_scope() {
        let base = vec![10u64, 20, 30];
        let jobs: Vec<Job<u64>> =
            base.iter().enumerate().map(|(i, v)| Job::new(format!("b/{i}"), move || v + 1)).collect();
        let out = run_jobs(2, jobs);
        assert_eq!(out.results, vec![11, 21, 31]);
    }

    #[test]
    fn uneven_job_costs_still_reassemble_in_order() {
        let jobs: Vec<Job<usize>> = (0..16)
            .map(|i| {
                Job::new(format!("u/{i}"), move || {
                    // Earlier jobs sleep longer so completion order inverts
                    // submission order.
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
                    i
                })
            })
            .collect();
        let out = run_jobs(4, jobs);
        assert_eq!(out.results, (0..16).collect::<Vec<_>>());
        assert!(out.timings.iter().all(|t| t.wall_ms > 0.0));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
