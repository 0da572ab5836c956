//! Regression tests for the experiment runner's determinism guarantee:
//! running a sweep across N worker threads must produce *byte-identical*
//! serialized results to running it sequentially. Every sweep point builds
//! its own simulation from the context seed, so results depend only on the
//! point, never on scheduling — these tests pin that property.

use readopt::experiments::runner::{run_jobs, Job};
use readopt::experiments::{fig1, fig2, fig3, table4, ExperimentContext};
use readopt::sim::Simulation;
use readopt_workloads::WorkloadKind;

fn ctx_with_jobs(jobs: usize) -> ExperimentContext {
    let mut ctx = ExperimentContext::fast(64).with_jobs(jobs);
    ctx.max_intervals = 4;
    ctx
}

#[test]
fn simulation_moves_across_threads() {
    fn assert_send<T: Send>() {}
    // The runner ships whole simulations to worker threads; this is the
    // compile-time proof that stays valid as the engine grows fields.
    assert_send::<Simulation>();
}

#[test]
fn fig1_results_are_bit_identical_at_any_job_count() {
    // A subset of the Figure 1 grid (2 workloads × 2 configs) keeps the
    // test fast; the sweep machinery is identical for the full grid.
    let workloads = [WorkloadKind::Timesharing, WorkloadKind::Supercomputer];
    let configs = [(2usize, 1u64, true), (3, 2, false)];
    let (seq, seq_timings, seq_metrics, seq_hists) =
        fig1::run_sweep(&ctx_with_jobs(1), &workloads, &configs);
    let (par, par_timings, par_metrics, par_hists) =
        fig1::run_sweep(&ctx_with_jobs(4), &workloads, &configs);
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "fig1 serialized bytes must not depend on the job count"
    );
    assert_eq!(
        serde_json::to_string(&seq_metrics).unwrap(),
        serde_json::to_string(&par_metrics).unwrap(),
        "fig1 metrics sidecar bytes must not depend on the job count"
    );
    assert_eq!(
        serde_json::to_string(&seq_hists).unwrap(),
        serde_json::to_string(&par_hists).unwrap(),
        "fig1 latency-histogram sidecar bytes must not depend on the job count"
    );
    // Timings differ run to run, but the labels (and their order) must not.
    let labels = |ts: &[readopt::experiments::runner::JobTiming]| {
        ts.iter().map(|t| t.label.clone()).collect::<Vec<_>>()
    };
    assert_eq!(labels(&seq_timings), labels(&par_timings));
    assert_eq!(seq.points.len(), 4);
}

#[test]
fn fig2_results_are_bit_identical_at_any_job_count() {
    // Performance runs are the expensive path (application + sequential
    // tests per point); one workload × two configs suffices.
    let workloads = [WorkloadKind::Timesharing];
    let configs = [(2usize, 1u64, true), (5, 1, true)];
    let (seq, _, seq_metrics, seq_hists) = fig2::run_sweep(&ctx_with_jobs(1), &workloads, &configs);
    let (par, _, par_metrics, par_hists) = fig2::run_sweep(&ctx_with_jobs(4), &workloads, &configs);
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "fig2 serialized bytes must not depend on the job count"
    );
    assert_eq!(
        serde_json::to_string(&seq_metrics).unwrap(),
        serde_json::to_string(&par_metrics).unwrap(),
        "fig2 metrics sidecar bytes must not depend on the job count"
    );
    assert_eq!(
        serde_json::to_string(&seq_hists).unwrap(),
        serde_json::to_string(&par_hists).unwrap(),
        "fig2 latency-histogram sidecar bytes must not depend on the job count"
    );
    assert_eq!(seq.points.len(), 2);
    // Each performance point snapshots both tests, in execution order.
    assert_eq!(seq_metrics.points.len(), 2);
    assert_eq!(seq_metrics.points[0].tests.len(), 2);
    assert_eq!(seq_metrics.points[0].tests[0].test, "application");
    assert_eq!(seq_metrics.points[0].tests[1].test, "sequential");
}

#[test]
fn fig3_and_table4_agree_across_job_counts() {
    let (f3_seq, _, f3_seq_m) = fig3::run_profiled(1);
    let (f3_par, _, f3_par_m) = fig3::run_profiled(4);
    assert_eq!(
        serde_json::to_string(&f3_seq).unwrap(),
        serde_json::to_string(&f3_par).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&f3_seq_m).unwrap(),
        serde_json::to_string(&f3_par_m).unwrap()
    );
    let (t4_seq, _, t4_seq_m, t4_seq_h) = table4::run_profiled(&ctx_with_jobs(1));
    let (t4_par, _, t4_par_m, t4_par_h) = table4::run_profiled(&ctx_with_jobs(3));
    assert_eq!(
        serde_json::to_string(&t4_seq).unwrap(),
        serde_json::to_string(&t4_par).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&t4_seq_m).unwrap(),
        serde_json::to_string(&t4_par_m).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&t4_seq_h).unwrap(),
        serde_json::to_string(&t4_par_h).unwrap()
    );
}

#[test]
fn fig2_results_are_bit_identical_at_any_shard_count() {
    // The sharded engine's contract, exercised through the full experiment
    // stack: serialized results AND metrics sidecars are byte-identical at
    // shard counts 1/2/4/7 (7 is prime, so no shard boundary aligns with
    // users or disks), with two effect-worker threads forced on so the
    // pipelined path really runs. Composes with --jobs: the sharded runs
    // also fan sweep points across 2 runner threads.
    let workloads = [WorkloadKind::Timesharing];
    let configs = [(2usize, 1u64, true), (5, 1, true)];
    let (seq, _, seq_metrics, seq_hists) = fig2::run_sweep(&ctx_with_jobs(1), &workloads, &configs);
    let seq_bytes = serde_json::to_string(&seq).unwrap();
    let seq_metrics_bytes = serde_json::to_string(&seq_metrics).unwrap();
    let seq_hists_bytes = serde_json::to_string(&seq_hists).unwrap();
    for shards in [2usize, 4, 7] {
        let ctx = ctx_with_jobs(2).with_shards(shards).with_shard_workers(2);
        let (sharded, _, sharded_metrics, sharded_hists) =
            fig2::run_sweep(&ctx, &workloads, &configs);
        assert_eq!(
            seq_bytes,
            serde_json::to_string(&sharded).unwrap(),
            "fig2 serialized bytes must not depend on the shard count ({shards} shards)"
        );
        assert_eq!(
            seq_metrics_bytes,
            serde_json::to_string(&sharded_metrics).unwrap(),
            "fig2 metrics sidecar bytes must not depend on the shard count ({shards} shards)"
        );
        assert_eq!(
            seq_hists_bytes,
            serde_json::to_string(&sharded_hists).unwrap(),
            "fig2 latency-histogram bytes must not depend on the shard count ({shards} shards)"
        );
    }
}

#[test]
fn fig1_results_are_bit_identical_under_sharding() {
    // Allocation-test sweeps never enter the pipelined loop (no performance
    // phase) and the event queue is the same single queue at any shard
    // count, so the shard setting reaches no code fig1 runs — this pins
    // that the allocation path stays invariant to it.
    let workloads = [WorkloadKind::Timesharing];
    let configs = [(3usize, 2u64, false)];
    let (seq, _, seq_metrics, seq_hists) = fig1::run_sweep(&ctx_with_jobs(1), &workloads, &configs);
    let ctx = ctx_with_jobs(1).with_shards(4).with_shard_workers(2);
    let (sharded, _, sharded_metrics, sharded_hists) = fig1::run_sweep(&ctx, &workloads, &configs);
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&sharded).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&seq_metrics).unwrap(),
        serde_json::to_string(&sharded_metrics).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&seq_hists).unwrap(),
        serde_json::to_string(&sharded_hists).unwrap()
    );
}

#[test]
fn fig2_results_are_bit_identical_on_the_calendar_backend() {
    // The calendar queue's contract through the full experiment stack:
    // serialized results AND metrics sidecars are byte-identical to the
    // heap-backed reference, alone and composed with sharding + runner
    // fan-out (the backend must commute with both parallelism axes).
    use readopt::sim::EventQueueKind;
    let workloads = [WorkloadKind::Timesharing];
    let configs = [(2usize, 1u64, true), (5, 1, true)];
    let (seq, _, seq_metrics, seq_hists) = fig2::run_sweep(&ctx_with_jobs(1), &workloads, &configs);
    let seq_bytes = serde_json::to_string(&seq).unwrap();
    let seq_metrics_bytes = serde_json::to_string(&seq_metrics).unwrap();
    let seq_hists_bytes = serde_json::to_string(&seq_hists).unwrap();
    for (jobs, shards, workers) in [(1usize, 1usize, 0usize), (2, 4, 2)] {
        let ctx = ctx_with_jobs(jobs)
            .with_shards(shards)
            .with_shard_workers(workers)
            .with_event_queue(EventQueueKind::Calendar);
        let (cal, _, cal_metrics, cal_hists) = fig2::run_sweep(&ctx, &workloads, &configs);
        assert_eq!(
            seq_bytes,
            serde_json::to_string(&cal).unwrap(),
            "fig2 serialized bytes must not depend on the event-queue backend \
             (jobs={jobs}, shards={shards})"
        );
        assert_eq!(
            seq_metrics_bytes,
            serde_json::to_string(&cal_metrics).unwrap(),
            "fig2 metrics sidecar bytes must not depend on the event-queue backend \
             (jobs={jobs}, shards={shards})"
        );
        assert_eq!(
            seq_hists_bytes,
            serde_json::to_string(&cal_hists).unwrap(),
            "fig2 latency-histogram bytes must not depend on the event-queue backend \
             (jobs={jobs}, shards={shards})"
        );
    }
}

#[test]
fn fig1_results_are_bit_identical_on_the_calendar_backend() {
    // The allocation-test path (no performance phase) through the calendar
    // backend — the counterpart of the sharding leg above.
    use readopt::sim::EventQueueKind;
    let workloads = [WorkloadKind::Timesharing];
    let configs = [(3usize, 2u64, false)];
    let (seq, _, seq_metrics, seq_hists) = fig1::run_sweep(&ctx_with_jobs(1), &workloads, &configs);
    let ctx = ctx_with_jobs(1).with_event_queue(EventQueueKind::Calendar);
    let (cal, _, cal_metrics, cal_hists) = fig1::run_sweep(&ctx, &workloads, &configs);
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&cal).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&seq_metrics).unwrap(),
        serde_json::to_string(&cal_metrics).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&seq_hists).unwrap(),
        serde_json::to_string(&cal_hists).unwrap()
    );
}

#[test]
fn runner_reassembles_in_submission_order_under_contention() {
    // More workers than jobs, jobs finishing out of order: results must
    // still come back in submission order.
    let jobs: Vec<Job<u64>> = (0..24u64)
        .map(|i| {
            Job::new(format!("p/{i}"), move || {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i * 7
            })
        })
        .collect();
    let out = run_jobs(8, jobs);
    assert_eq!(out.results, (0..24u64).map(|i| i * 7).collect::<Vec<_>>());
    assert_eq!(out.timings.len(), 24);
    assert_eq!(out.timings[23].label, "p/23");
}
