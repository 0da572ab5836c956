//! Deterministic random-variate generation.
//!
//! The paper's simulator needs three distributions: uniform (event start
//! times, file/offset selection, initial file sizes), normal (read/write
//! sizes, extent-size ranges), and exponential (think time between a user's
//! requests). They are implemented here on top of `rand`'s uniform source —
//! Box–Muller for the normal, inverse CDF for the exponential — so a single
//! `u64` seed reproduces an entire simulation run.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Seeded random-variate source for one simulation.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.inner.random_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.random_range(lo..=hi)
    }

    /// Uniform index in `[0, n)`; `n` must be positive.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.random_range(0..n)
    }

    /// A percentage draw in `[0, 100)`, for ratio-based choices.
    pub fn percent(&mut self) -> f64 {
        self.uniform_f64(0.0, 100.0)
    }

    /// Normal variate via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return mean;
        }
        let u1: f64 = self.inner.random_range(f64::EPSILON..1.0);
        let u2: f64 = self.inner.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Exponential variate with the given mean (inverse CDF).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.inner.random_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// A size draw: Normal(mean, dev) clamped to at least `min` (sizes must
    /// stay positive; Table 2's deviations are small relative to means, so
    /// clamping barely distorts the distribution).
    pub fn size_normal(&mut self, mean: u64, dev: u64, min: u64) -> u64 {
        let v = self.normal(mean as f64, dev as f64).round();
        (v.max(min as f64)) as u64
    }

    /// A size draw: Uniform(mean − dev, mean + dev), clamped to ≥ `min` —
    /// the paper's initial-file-size distribution ("a size is selected from
    /// a uniform distribution with mean equal to initial size and deviation
    /// of initial deviation").
    pub fn size_uniform(&mut self, mean: u64, dev: u64, min: u64) -> u64 {
        let lo = mean.saturating_sub(dev);
        let hi = mean.saturating_add(dev);
        self.uniform_u64(lo.max(min), hi.max(min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = SimRng::new(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(50.0, 5.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 5.0).abs() < 0.2, "sd {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(30.0)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn zero_deviation_is_exact() {
        let mut r = SimRng::new(6);
        assert_eq!(r.normal(42.0, 0.0), 42.0);
        assert_eq!(r.size_normal(42, 0, 1), 42);
        assert_eq!(r.size_uniform(42, 0, 1), 42);
    }

    #[test]
    fn size_draws_respect_min() {
        let mut r = SimRng::new(8);
        for _ in 0..1000 {
            assert!(r.size_normal(2, 10, 1) >= 1);
            assert!(r.size_uniform(2, 10, 1) >= 1);
        }
    }

    #[test]
    fn uniform_bounds_inclusive_exclusive() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.uniform_u64(3, 5);
            assert!((3..=5).contains(&v));
            let f = r.uniform_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
        }
        assert_eq!(r.uniform_u64(7, 7), 7);
        assert_eq!(r.uniform_f64(3.0, 3.0), 3.0);
    }
}
