//! The extent-based allocation policy (§4.3, \[STON89\]).
//!
//! "In the extent based models, every file has an extent size associated
//! with it. Each time a file grows beyond its current allocation,
//! additional disk storage is allocated in extent sized chunks. … an extent
//! may begin at any address. When an extent is freed, it is coalesced with
//! its adjoining extents if they are free."
//!
//! Each configuration offers a set of *extent size ranges* — normal
//! distributions whose standard deviation is 10 % of the mean. At file
//! creation the policy picks the range whose mean is nearest (in log space)
//! to the file's "Allocation Size" hint (Table 2) and draws the file's
//! extent size from it; see DESIGN.md §"Substitutions" for why log-nearest.
//!
//! Free space is searched **first-fit** or **best-fit**; the paper selects
//! first-fit for the final comparison because "the slight clustering that
//! results from [the] tendency to allocate blocks toward the beginning of
//! the disk system" buys a little seek locality.

use crate::filemap::FileMap;
use crate::freespace::FreeSpaceMap;
use crate::policy::Policy;
use crate::types::{AllocError, Extent, FileHints, FileId, FileSlots};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Free-extent search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FitStrategy {
    /// Lowest-addressed run that fits.
    FirstFit,
    /// Smallest run that fits.
    BestFit,
}

/// One file's state under the extent policy.
#[derive(Debug, Clone)]
struct EFile {
    map: FileMap,
    /// This file's extent size in units, fixed at creation.
    extent_units: u64,
}

/// The extent-based policy.
#[derive(Debug, Clone)]
pub struct ExtentPolicy {
    free: FreeSpaceMap,
    capacity: u64,
    fit: FitStrategy,
    /// Available extent-size range means, in units.
    range_means: Vec<u64>,
    /// σ as a fraction of the mean (0.1 in the paper).
    sigma_frac: f64,
    unit_bytes: u64,
    rng: SmallRng,
    files: FileSlots<EFile>,
}

impl ExtentPolicy {
    /// Builds the policy.
    ///
    /// * `range_means_units` — the configuration's extent ranges (µ of each
    ///   normal distribution), in units.
    /// * `sigma_frac` — σ/µ, 0.1 in the paper.
    /// * `unit_bytes` — disk unit size, used to convert byte-based hints.
    /// * `seed` — RNG seed for extent-size draws (deterministic runs).
    pub fn new(
        capacity_units: u64,
        range_means_units: &[u64],
        fit: FitStrategy,
        sigma_frac: f64,
        unit_bytes: u64,
        seed: u64,
    ) -> Self {
        assert!(!range_means_units.is_empty(), "at least one extent range");
        assert!(range_means_units.iter().all(|&m| m > 0));
        assert!((0.0..1.0).contains(&sigma_frac));
        let mut means = range_means_units.to_vec();
        means.sort_unstable();
        ExtentPolicy {
            free: FreeSpaceMap::with_capacity(capacity_units),
            capacity: capacity_units,
            fit,
            range_means: means,
            sigma_frac,
            unit_bytes,
            rng: SmallRng::seed_from_u64(seed),
            files: FileSlots::default(),
        }
    }

    /// The range mean nearest in log space to `target_units`.
    fn nearest_range(&self, target_units: u64) -> u64 {
        let t = (target_units.max(1) as f64).ln();
        self.range_means
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let da = ((a as f64).ln() - t).abs();
                let db = ((b as f64).ln() - t).abs();
                da.total_cmp(&db)
            })
            // simlint::allow(r3, "min_by over a non-empty set; constructor asserts ranges exist")
            .unwrap_or_else(|| unreachable!("constructor requires at least one extent range"))
    }

    /// Draws from Normal(mean, sigma_frac·mean) via Box–Muller, clamped to
    /// at least one unit.
    fn sample_extent_units(&mut self, mean: u64) -> u64 {
        let mu = mean as f64;
        let sigma = self.sigma_frac * mu;
        let u1: f64 = self.rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mu + sigma * z).round().max(1.0) as u64
    }

    fn allocate(&mut self, units: u64) -> Option<Extent> {
        match self.fit {
            FitStrategy::FirstFit => self.free.allocate_first_fit(units),
            FitStrategy::BestFit => self.free.allocate_best_fit(units),
        }
    }

    /// The extent size assigned to `file`, in units.
    pub fn file_extent_units(&self, file: FileId) -> Result<u64, AllocError> {
        Ok(self.files.get(file)?.extent_units)
    }

    /// The configured range means, in units.
    pub fn range_means_units(&self) -> &[u64] {
        &self.range_means
    }
}

impl Policy for ExtentPolicy {
    fn name(&self) -> &'static str {
        "extent"
    }

    fn capacity_units(&self) -> u64 {
        self.capacity
    }

    fn free_units(&self) -> u64 {
        self.free.free_units()
    }

    fn frag_gauges(&self) -> crate::policy::FragGauges {
        crate::policy::FragGauges {
            free_units: self.free.free_units(),
            free_extents: self.free.run_count() as u64,
            largest_free_units: self.free.largest_run(),
        }
    }

    fn create(&mut self, hints: &FileHints) -> Result<FileId, AllocError> {
        let target_units = (hints.mean_extent_bytes / self.unit_bytes).max(1);
        let mean = self.nearest_range(target_units);
        let extent_units = self.sample_extent_units(mean);
        self.files.insert(EFile { map: FileMap::new(), extent_units })
    }

    fn extend(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        debug_assert!(units > 0);
        let chunk = self.files.get(file)?.extent_units;
        let mut granted = 0;
        while granted < units {
            let Some(e) = self.allocate(chunk) else {
                // Unwind this call's extents, which are the file's last
                // `granted` units: a failed extend is atomic.
                self.truncate(file, granted)?;
                return Err(AllocError::DiskFull(chunk));
            };
            self.files.get_mut(file)?.map.push(e);
            granted += chunk;
        }
        Ok(granted)
    }

    fn truncate(&mut self, file: FileId, units: u64) -> Result<u64, AllocError> {
        let free = &mut self.free;
        Ok(self.files.get_mut(file)?.map.pop_back(units, |e| free.release(e)))
    }

    fn delete(&mut self, file: FileId) -> Result<u64, AllocError> {
        let mut f = self.files.remove(file)?;
        let mut total = 0;
        for e in f.map.take_all() {
            total += e.len;
            self.free.release(e);
        }
        Ok(total)
    }

    fn file_map(&self, file: FileId) -> Result<&FileMap, AllocError> {
        Ok(&self.files.get(file)?.map)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files.ids()
    }

    fn allocation_count(&self, file: FileId) -> Result<usize, AllocError> {
        let f = self.files.get(file)?;
        Ok(f.map.total_units().div_ceil(f.extent_units) as usize)
    }

    fn check_structure(&self) {
        self.free.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(fit: FitStrategy) -> ExtentPolicy {
        // 64 K-unit space; ranges of 8 and 64 units; 1 KB units.
        ExtentPolicy::new(1 << 16, &[8, 64], fit, 0.1, 1024, 7)
    }

    fn hints(bytes: u64) -> FileHints {
        FileHints { mean_extent_bytes: bytes }
    }

    #[test]
    fn range_assignment_is_log_nearest() {
        let p = policy(FitStrategy::FirstFit);
        assert_eq!(p.nearest_range(8), 8);
        assert_eq!(p.nearest_range(64), 64);
        assert_eq!(p.nearest_range(1), 8);
        assert_eq!(p.nearest_range(10_000), 64);
        // Geometric midpoint of 8 and 64 is ~22.6.
        assert_eq!(p.nearest_range(22), 8);
        assert_eq!(p.nearest_range(23), 64);
    }

    #[test]
    fn extent_sizes_follow_the_range() {
        let mut p = policy(FitStrategy::FirstFit);
        let mut sizes = Vec::new();
        for _ in 0..200 {
            let f = p.create(&hints(64 * 1024)).unwrap();
            sizes.push(p.file_extent_units(f).unwrap());
            p.delete(f).unwrap();
        }
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!((mean - 64.0).abs() < 3.0, "mean {mean}");
        // ~10 % σ ⇒ nearly everything within ±30 %.
        assert!(sizes.iter().all(|&s| (40..=90).contains(&s)), "{sizes:?}");
        assert!(sizes.iter().any(|&s| s != 64), "actually stochastic");
    }

    #[test]
    fn extends_allocate_in_extent_chunks() {
        let mut p = policy(FitStrategy::FirstFit);
        let f = p.create(&hints(8 * 1024)).unwrap();
        let chunk = p.file_extent_units(f).unwrap();
        p.extend(f, 1).unwrap();
        assert_eq!(p.allocated_units(f).unwrap(), chunk, "one whole extent");
        p.extend(f, chunk + 1).unwrap();
        assert_eq!(p.allocated_units(f).unwrap(), 3 * chunk);
        p.check_invariants();
    }

    #[test]
    fn sequential_growth_coalesces_on_fresh_disk() {
        let mut p = policy(FitStrategy::FirstFit);
        let f = p.create(&hints(8 * 1024)).unwrap();
        for _ in 0..5 {
            p.extend(f, 1).unwrap();
        }
        assert_eq!(p.extent_count(f).unwrap(), 1, "first-fit walks forward contiguously");
    }

    #[test]
    fn truncate_returns_exact_units() {
        let mut p = policy(FitStrategy::FirstFit);
        let f = p.create(&hints(8 * 1024)).unwrap();
        p.extend(f, 100).unwrap();
        let alloc = p.allocated_units(f).unwrap();
        assert_eq!(p.truncate(f, 37).unwrap(), 37);
        assert_eq!(p.allocated_units(f).unwrap(), alloc - 37);
        p.check_invariants();
    }

    #[test]
    fn delete_coalesces_free_space() {
        let mut p = policy(FitStrategy::FirstFit);
        let a = p.create(&hints(8 * 1024)).unwrap();
        let b = p.create(&hints(8 * 1024)).unwrap();
        p.extend(a, 50).unwrap();
        p.extend(b, 50).unwrap();
        p.delete(a).unwrap();
        p.delete(b).unwrap();
        assert_eq!(p.free.run_count(), 1, "everything coalesced back");
        assert_eq!(p.free_units(), p.capacity_units());
        p.check_invariants();
    }

    #[test]
    fn best_fit_fills_snug_holes() {
        // σ = 0 so every file of the same hint gets identical extents.
        let mut p: ExtentPolicy = ExtentPolicy::new(1 << 16, &[8, 64], FitStrategy::BestFit, 0.0, 1024, 5);
        let filler = p.create(&hints(8 * 1024)).unwrap(); // extents of 8
        let pad = p.create(&hints(8 * 1024)).unwrap();
        p.extend(filler, 8).unwrap(); // sits at the front: [0, 8)
        p.extend(pad, 80).unwrap(); // [8, 88)
        p.delete(filler).unwrap(); // snug 8-unit hole at the front + huge tail run
        let f = p.create(&hints(8 * 1024)).unwrap();
        p.extend(f, 1).unwrap();
        assert_eq!(
            p.file_map(f).unwrap().extents()[0],
            Extent::new(0, 8),
            "best-fit picks the snug hole over the big tail run"
        );
        p.check_invariants();
    }

    #[test]
    fn failure_reports_disk_full_and_is_atomic() {
        let mut p: ExtentPolicy = ExtentPolicy::new(100, &[40], FitStrategy::FirstFit, 0.0, 1024, 1);
        let f = p.create(&hints(40 * 1024)).unwrap();
        assert_eq!(p.file_extent_units(f).unwrap(), 40);
        p.extend(f, 80).unwrap(); // two extents of 40
        let free_before = p.free_units();
        let err = p.extend(f, 40).unwrap_err(); // only 20 left
        assert!(matches!(err, AllocError::DiskFull(40)));
        assert_eq!(p.free_units(), free_before);
        assert_eq!(p.allocated_units(f).unwrap(), 80);
        p.check_invariants();
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut p: ExtentPolicy = ExtentPolicy::new(1000, &[16], FitStrategy::FirstFit, 0.0, 1024, 3);
        for _ in 0..10 {
            let f = p.create(&hints(16 * 1024)).unwrap();
            assert_eq!(p.file_extent_units(f).unwrap(), 16);
        }
    }
}
