//! hdr-histogram-style log-bucketed latency reservoir.
//!
//! [`PerfReport`](crate::results::PerfReport)'s p50/p99 come from an exact
//! sample buffer that caps at 200 k entries — past the cap (million-user
//! rungs) the tail percentiles are computed over a silently clipped prefix.
//! [`LatencyReservoir`] is the compact companion: fixed-size log-linear
//! buckets over integer microseconds, so it absorbs *every* sample at O(1)
//! cost and yields p50/p90/p99/p99.9 with a bounded relative error of
//! 1/64 ≈ 1.6 % (64 sub-buckets per power of two, the hdrhistogram idiom).
//!
//! Recording is pure integer arithmetic on a dense `Vec<u64>`; the
//! serializable [`TestHist`] snapshot stores only the non-empty buckets, so
//! the `*.hist.json` artifact stays small and — because bucket indexes and
//! counts are integers — byte-identical across process boundaries.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the full u64 microsecond range: values below
/// `SUB` get exact unit buckets, every later power of two gets `SUB`
/// sub-buckets (58 exponent groups × 64 + the exact prefix).
const N_BUCKETS: usize = (58 + 1) * SUB as usize;

/// Maps a microsecond value to its bucket index. Monotone non-decreasing
/// and continuous: values below `SUB` are exact; above, the bucket spans
/// `2^exp` microseconds starting at `(mantissa + SUB) << exp`.
fn bucket_index(us: u64) -> usize {
    if us < SUB {
        return us as usize;
    }
    let bits = 64 - us.leading_zeros();
    let exp = bits - (SUB_BITS + 1);
    let mantissa = (us >> exp) - SUB;
    (exp as usize + 1) * SUB as usize + mantissa as usize
}

/// The largest microsecond value a bucket holds (its inclusive upper edge).
fn bucket_high_us(index: usize) -> u64 {
    let idx = index as u64;
    if idx < SUB {
        return idx;
    }
    let exp = idx / SUB - 1;
    let mantissa = idx % SUB;
    ((mantissa + SUB) << exp) + (1u64 << exp) - 1
}

/// A fixed-footprint log-bucketed latency accumulator (microsecond grain).
#[derive(Debug, Clone)]
pub struct LatencyReservoir {
    counts: Vec<u64>,
    count: u64,
    max_us: u64,
}

impl Default for LatencyReservoir {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyReservoir {
    /// An empty reservoir (one dense allocation, reused via [`Self::reset`]).
    pub fn new() -> Self {
        LatencyReservoir { counts: vec![0; N_BUCKETS], count: 0, max_us: 0 }
    }

    /// Forgets every recorded sample without releasing the bucket storage.
    pub fn reset(&mut self) {
        if self.count > 0 {
            self.counts.fill(0);
        }
        self.count = 0;
        self.max_us = 0;
    }

    /// Records one latency in integer microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Records one latency in (simulated) milliseconds, rounded to the
    /// microsecond grain. Negative or non-finite inputs clamp to zero —
    /// simulated durations are non-negative by construction, so the clamp
    /// only defends the artifact against NaN poisoning.
    pub fn record_ms(&mut self, ms: f64) {
        let us = (ms * 1000.0).round();
        // f64 → u64 `as` casts saturate (NaN → 0), exactly the clamp wanted.
        self.record_us(if us.is_finite() { us.max(0.0) as u64 } else { 0 });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile in microseconds (`q` in (0, 1]): the upper
    /// edge of the bucket holding the rank-th sample, clamped to the exact
    /// observed maximum. Returns 0 when empty, matching
    /// [`crate::measure::percentile_of_sorted_ms`]'s empty-input behavior.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil()).max(1.0).min(self.count as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high_us(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Serializable snapshot with derived percentiles. `dropped` is the
    /// caller's count of samples its *exact* buffer clipped (this reservoir
    /// itself never drops); it rides along so artifact readers can see when
    /// the exact p99 in `PerfReport` was computed over a truncated prefix.
    pub fn snapshot(&self, test: &str, dropped: u64) -> TestHist {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| HistBucket { index: i as u64, count: c })
            .collect();
        TestHist {
            test: test.to_string(),
            count: self.count,
            dropped,
            p50_ms: self.percentile_us(0.50) as f64 / 1000.0,
            p90_ms: self.percentile_us(0.90) as f64 / 1000.0,
            p99_ms: self.percentile_us(0.99) as f64 / 1000.0,
            p999_ms: self.percentile_us(0.999) as f64 / 1000.0,
            max_ms: self.max_us as f64 / 1000.0,
            buckets,
        }
    }
}

/// One non-empty bucket of a [`TestHist`] (sparse encoding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Dense bucket index (see `bucket_index`); decode with the same
    /// `SUB_BITS = 6` log-linear scheme.
    pub index: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// Serialized latency histogram for one test of one sweep point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TestHist {
    /// Which §3 test the samples came from ("application", "sequential",
    /// "allocation", …).
    pub test: String,
    /// Total samples recorded (never clipped).
    pub count: u64,
    /// Samples the engine's exact 200 k latency buffer dropped — when this
    /// is non-zero, the `PerfReport` p50/p99 were computed over a truncated
    /// prefix and these bucketed percentiles are the trustworthy ones.
    pub dropped: u64,
    /// Median operation latency, ms (≤ 1.6 % relative bucket error).
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Exact maximum recorded latency, ms.
    pub max_ms: f64,
    /// Non-empty buckets in ascending index order.
    pub buckets: Vec<HistBucket>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut last = 0usize;
        for us in 0..100_000u64 {
            let i = bucket_index(us);
            assert!(i >= last, "index regressed at {us}: {i} < {last}");
            assert!(i <= last + 1, "index skipped at {us}: {last} -> {i}");
            assert!(us <= bucket_high_us(i), "{us} above its bucket edge");
            last = i;
        }
        // Full-range values stay in bounds.
        for us in [u64::MAX, u64::MAX / 2, 1 << 62] {
            assert!(bucket_index(us) < N_BUCKETS);
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for us in 0..SUB {
            let i = bucket_index(us);
            assert_eq!(i as u64, us);
            assert_eq!(bucket_high_us(i), us);
        }
    }

    #[test]
    fn percentiles_track_exact_within_bucket_error() {
        let mut r = LatencyReservoir::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut rng = crate::SimRng::new(42);
        for _ in 0..10_000 {
            // Log-uniform-ish spread across five decades.
            let decade = rng.uniform_u64(0, 5) as u32;
            let us = rng.uniform_u64(1, 10u64.pow(decade + 1));
            r.record_us(us);
            exact.push(us);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1];
            let got = r.percentile_us(q);
            assert!(got >= want, "p{q}: bucketed {got} below exact {want}");
            assert!(
                got as f64 <= want as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "p{q}: bucketed {got} too far above exact {want}"
            );
        }
    }

    #[test]
    fn snapshot_is_sparse_and_roundtrips() {
        let mut r = LatencyReservoir::new();
        for us in [5u64, 5, 5, 70_000, 70_001] {
            r.record_us(us);
        }
        let h = r.snapshot("application", 2);
        assert_eq!(h.count, 5);
        assert_eq!(h.dropped, 2);
        assert!(h.buckets.len() <= 3, "sparse: {:?}", h.buckets);
        let total: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 5);
        assert!((h.p50_ms - 0.005).abs() < 1e-9);
        assert!(h.max_ms >= 70.0 && h.max_ms <= 70.002);
        let json = serde_json::to_string(&h).ok();
        let json = json.as_deref().filter(|s| !s.is_empty());
        let back: Option<TestHist> = json.and_then(|j| serde_json::from_str(j).ok());
        assert_eq!(back.as_ref(), Some(&h), "snapshot must JSON-roundtrip exactly");
    }

    #[test]
    fn reset_and_empty_behavior() {
        let mut r = LatencyReservoir::new();
        assert_eq!(r.percentile_us(0.99), 0);
        assert_eq!(r.count(), 0);
        r.record_ms(1.5);
        r.record_ms(f64::NAN);
        assert_eq!(r.count(), 2);
        r.reset();
        assert_eq!(r.count(), 0);
        assert_eq!(r.snapshot("t", 0).buckets.len(), 0);
    }

    #[test]
    fn ms_rounding_lands_on_the_microsecond_grain() {
        let mut r = LatencyReservoir::new();
        r.record_ms(0.0124); // 12.4 µs → 12
        r.record_ms(0.0126); // 12.6 µs → 13
        let h = r.snapshot("t", 0);
        assert_eq!(h.buckets.len(), 2);
        assert_eq!(h.buckets[0].index, 12);
        assert_eq!(h.buckets[1].index, 13);
    }
}
