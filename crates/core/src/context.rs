//! Shared experiment plumbing: scale selection and simulation construction.

use readopt_alloc::PolicyConfig;
use readopt_disk::ArrayConfig;
use readopt_sim::{FragReport, PerfReport, SimConfig, Simulation, TestHist, TestMetrics};
use readopt_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

/// How an experiment run is scoped: which disk system, which seed, and how
/// patient to be.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentContext {
    /// The disk system every simulation in the experiment uses.
    pub array: ArrayConfig,
    /// Base RNG seed; individual simulations derive from it.
    pub seed: u64,
    /// Cap on measured intervals per performance test.
    pub max_intervals: usize,
    /// Worker threads sweep points run across (see `runner`). Results are
    /// bit-identical at any value; 1 means fully sequential.
    pub jobs: usize,
    /// Override for the per-test exact-latency reservoir cap (0 keeps the
    /// simulator's 200 k default). Shrinking it forces sample drops — the
    /// reservoir then degrades to histogram-derived percentiles and the
    /// drop counts surface in every profile — so tests can exercise the
    /// overflow accounting without recording millions of operations.
    /// Results-affecting: percentile fields change once samples drop.
    pub latency_sample_cap: usize,
}

impl ExperimentContext {
    /// Full paper scale: the Table 1 system (8 disks, 2.8 GB).
    pub fn full() -> Self {
        ExperimentContext {
            array: ArrayConfig::paper_default(),
            seed: 1991,
            max_intervals: 30,
            jobs: 1,
            latency_sample_cap: 0,
        }
    }

    /// Scaled-down arrays for tests and benches (capacity divided by
    /// `factor`, mechanics unchanged).
    pub fn fast(factor: u32) -> Self {
        ExperimentContext {
            array: ArrayConfig::scaled(factor),
            seed: 1991,
            max_intervals: 12,
            jobs: 1,
            latency_sample_cap: 0,
        }
    }

    /// With a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// With a different worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// With a smaller exact-latency reservoir (0 restores the default).
    pub fn with_latency_cap(mut self, cap: usize) -> Self {
        self.latency_sample_cap = cap;
        self
    }

    /// Builds the simulation configuration for one (workload, policy) pair.
    pub fn sim_config(&self, workload: WorkloadKind, policy: PolicyConfig) -> SimConfig {
        let types = workload.build(self.array.capacity_bytes());
        let mut cfg = SimConfig::new(self.array, policy, types);
        cfg.max_intervals = self.max_intervals;
        if self.latency_sample_cap > 0 {
            cfg.latency_sample_cap = self.latency_sample_cap;
        }
        cfg
    }

    /// Runs the §3 allocation test for one pair.
    pub fn run_allocation(&self, workload: WorkloadKind, policy: PolicyConfig) -> FragReport {
        self.run_allocation_observed(workload, policy).0
    }

    /// Like [`Self::run_allocation`] but also snapshots the observability
    /// view and the log-bucketed latency histogram. Snapshots are pure
    /// reads, so the report is bit-identical to the unobserved run.
    pub fn run_allocation_observed(
        &self,
        workload: WorkloadKind,
        policy: PolicyConfig,
    ) -> (FragReport, TestMetrics, TestHist) {
        let cfg = self.sim_config(workload, policy);
        let mut sim = Simulation::new(&cfg, self.seed);
        let frag = sim.run_allocation_test();
        let metrics = sim.metrics_snapshot("allocation", sim.now().as_ms());
        let hist = sim.latency_hist("allocation");
        (frag, metrics, hist)
    }

    /// Runs the §3 application + sequential tests for one pair (one
    /// simulation, application first, exactly as the paper describes).
    pub fn run_performance(
        &self,
        workload: WorkloadKind,
        policy: PolicyConfig,
    ) -> (PerfReport, PerfReport) {
        self.run_performance_observed(workload, policy).0
    }

    /// Like [`Self::run_performance`] but also snapshots the observability
    /// view and the log-bucketed latency histogram after each test. The
    /// snapshots are pure reads, and the counter/stat resets before each
    /// test touch no simulation state (clock, queue, RNG, head positions
    /// all persist), so the reports are bit-identical to the unobserved
    /// run.
    pub fn run_performance_observed(
        &self,
        workload: WorkloadKind,
        policy: PolicyConfig,
    ) -> ((PerfReport, PerfReport), Vec<TestMetrics>, Vec<TestHist>) {
        let cfg = self.sim_config(workload, policy);
        let mut sim = Simulation::new(&cfg, self.seed.wrapping_add(1));
        sim.reset_counters();
        sim.storage_reset_for_probe();
        let app = sim.run_application_test();
        let m_app = sim.metrics_snapshot("application", app.measured_ms);
        let h_app = sim.latency_hist("application");
        sim.reset_counters();
        sim.storage_reset_for_probe();
        let seq = sim.run_sequential_test();
        let m_seq = sim.metrics_snapshot("sequential", seq.measured_ms);
        let h_seq = sim.latency_hist("sequential");
        ((app, seq), vec![m_app, m_seq], vec![h_app, h_seq])
    }

    /// The extent-based policy for `workload` with `n` ranges and the given
    /// fit, using the §4.3 per-workload range tables. On scaled-down arrays
    /// the range means scale with capacity (a 16 MB extent is meaningless
    /// on a 44 MB test array), mirroring how the workload builders scale
    /// file sizes.
    pub fn extent_policy(
        &self,
        workload: WorkloadKind,
        n_ranges: usize,
        fit: readopt_alloc::FitStrategy,
    ) -> PolicyConfig {
        let scale = (self.array.capacity_bytes() as f64
            / readopt_workloads::PAPER_CAPACITY_BYTES as f64)
            .min(1.0);
        let means = workload
            .extent_ranges(n_ranges)
            .iter()
            .map(|&m| ((m as f64 * scale) as u64).max(1024))
            .collect();
        PolicyConfig::Extent(readopt_alloc::ExtentConfig {
            range_means_bytes: means,
            fit,
            sigma_frac: 0.1,
        })
    }

    /// The fixed-block baseline §5 pairs with `workload` (4 KB for TS,
    /// 16 KB for TP/SC). The free list starts pre-aged (shuffled): §5's
    /// baseline "does not bias towards automatic striping or contiguous
    /// layout", i.e. it is the aged V7 system of §1 whose "logically
    /// sequential blocks … get spread across the entire disk" — a freshly
    /// initialized list would be accidentally contiguous and tell us
    /// nothing about the policy.
    pub fn fixed_policy(workload: WorkloadKind) -> PolicyConfig {
        PolicyConfig::Fixed(readopt_alloc::FixedConfig {
            block_bytes: workload.fixed_block_bytes(),
            pre_age: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_validate() {
        ExperimentContext::full().array.validate().unwrap();
        ExperimentContext::fast(64).array.validate().unwrap();
        assert!(ExperimentContext::fast(64).array.capacity_bytes() < ExperimentContext::full().array.capacity_bytes());
    }

    #[test]
    fn sim_configs_validate_for_every_workload() {
        let ctx = ExperimentContext::fast(64);
        for wl in WorkloadKind::all() {
            ctx.sim_config(wl, PolicyConfig::paper_extent_based()).validate().unwrap();
        }
    }

    #[test]
    fn per_workload_policies() {
        use readopt_alloc::FitStrategy;
        let full = ExperimentContext::full();
        let p = full.extent_policy(WorkloadKind::Timesharing, 3, FitStrategy::FirstFit);
        match p {
            PolicyConfig::Extent(c) => {
                assert_eq!(c.range_means_bytes.len(), 3);
                assert_eq!(c.range_means_bytes, WorkloadKind::Timesharing.extent_ranges(3));
            }
            _ => panic!("wrong family"),
        }
        // Scaled arrays scale the ranges.
        let fast = ExperimentContext::fast(64);
        match fast.extent_policy(WorkloadKind::Supercomputer, 2, FitStrategy::FirstFit) {
            PolicyConfig::Extent(c) => {
                assert!(c.range_means_bytes[1] < 16 * 1024 * 1024);
                assert!(c.range_means_bytes[0] >= 1024);
            }
            _ => panic!("wrong family"),
        }
        let f = ExperimentContext::fixed_policy(WorkloadKind::Supercomputer);
        match f {
            PolicyConfig::Fixed(c) => assert_eq!(c.block_bytes, 16 * 1024),
            _ => panic!("wrong family"),
        }
    }
}
