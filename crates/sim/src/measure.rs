//! Throughput measurement and the paper's stabilization rule (§2.2/§3).
//!
//! "The throughput, measured as a percentage of the maximum possible
//! sequential throughput of the disk system, is considered stabilized when
//! the throughput calculation for 3 consecutive 10 second intervals are
//! within .1 % of each other."
//!
//! Bytes are attributed to fixed intervals *pro rata* over each operation's
//! `[start, completion)` span, so a 46-second whole-file read contributes
//! smoothly to five intervals instead of spiking the one it completes in.

use readopt_disk::{SimDuration, SimTime};

/// Interval-bucketed throughput accounting.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    start: SimTime,
    interval: SimDuration,
    /// Bytes attributed per interval, index = interval number.
    buckets: Vec<f64>,
    total_bytes: f64,
    last_span_end: SimTime,
}

impl ThroughputMeter {
    /// Starts measuring at `start` with the given interval length.
    pub fn new(start: SimTime, interval: SimDuration) -> Self {
        assert!(!interval.is_zero());
        ThroughputMeter {
            start,
            interval,
            buckets: Vec::new(),
            total_bytes: 0.0,
            last_span_end: start,
        }
    }

    /// Measurement origin.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Latest span end recorded.
    pub fn last_span_end(&self) -> SimTime {
        self.last_span_end
    }

    fn bucket_index(&self, t: SimTime) -> usize {
        (t.since(self.start).as_us() / self.interval.as_us()) as usize
    }

    /// Records `bytes` moved over `[span_start, span_end)`, spread linearly.
    pub fn add_span(&mut self, span_start: SimTime, span_end: SimTime, bytes: u64) {
        let span_start = span_start.max(self.start);
        let span_end = span_end.max(span_start);
        self.total_bytes += bytes as f64;
        self.last_span_end = self.last_span_end.max(span_end);
        let last_bucket = self.bucket_index(span_end);
        if self.buckets.len() <= last_bucket {
            self.buckets.resize(last_bucket + 1, 0.0);
        }
        let total_us = span_end.since(span_start).as_us();
        if total_us == 0 {
            // Instantaneous transfer: all bytes to the containing bucket.
            let b = self.bucket_index(span_start);
            self.buckets[b] += bytes as f64;
            return;
        }
        // Walk the buckets the span crosses, attributing proportionally.
        let mut cursor = span_start;
        while cursor < span_end {
            let b = self.bucket_index(cursor);
            let bucket_end = self.start + SimDuration::from_us((b as u64 + 1) * self.interval.as_us());
            let piece_end = bucket_end.min(span_end);
            let piece_us = piece_end.since(cursor).as_us();
            self.buckets[b] += bytes as f64 * piece_us as f64 / total_us as f64;
            cursor = piece_end;
        }
    }

    /// Number of intervals that are *complete* at time `now` (no future
    /// event can add bytes to them, because spans begin at issue time and
    /// events are processed in time order).
    pub fn complete_intervals(&self, now: SimTime) -> usize {
        (now.since(self.start).as_us() / self.interval.as_us()) as usize
    }

    /// Throughput of interval `i` as a percentage of `max_bytes_per_ms`.
    pub fn interval_pct(&self, i: usize, max_bytes_per_ms: f64) -> f64 {
        let bytes = self.buckets.get(i).copied().unwrap_or(0.0);
        100.0 * bytes / (self.interval.as_ms() * max_bytes_per_ms)
    }

    /// Implements the paper's stopping rule: returns the mean throughput of
    /// the last `window` complete intervals when their pairwise spread is
    /// within `tolerance_pct` (percentage points), at time `now`.
    pub fn stabilized(
        &self,
        now: SimTime,
        max_bytes_per_ms: f64,
        window: usize,
        tolerance_pct: f64,
    ) -> Option<f64> {
        let complete = self.complete_intervals(now);
        if complete < window {
            return None;
        }
        // One pass in ascending interval order, which also pins the sum's
        // accumulation order (r6: no unpinned f64 `sum()`).
        let (mut lo, mut hi, mut total) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for i in complete - window..complete {
            let p = self.interval_pct(i, max_bytes_per_ms);
            lo = lo.min(p);
            hi = hi.max(p);
            total += p;
        }
        // An all-idle window while transfers are pending elsewhere (e.g.
        // queued behind a backlog) is not a steady state.
        // simlint::allow(r9, "0.0 is an exact sentinel: an idle interval's pct is assigned, never accumulated")
        if hi == 0.0 && self.total_bytes > 0.0 {
            return None;
        }
        // The epsilon absorbs float noise when the spread is exactly at the
        // tolerance (e.g. 10.05 − 9.95 in binary floats).
        if hi - lo <= tolerance_pct + 1e-9 {
            Some(total / window as f64)
        } else {
            None
        }
    }

    /// Mean throughput (%) of the last `window` complete intervals at `now`
    /// regardless of stabilization — the fallback when the time cap fires.
    pub fn recent_mean_pct(&self, now: SimTime, max_bytes_per_ms: f64, window: usize) -> f64 {
        let complete = self.complete_intervals(now);
        if complete == 0 {
            // Nothing complete: fall back to the overall average so short
            // runs still report something meaningful.
            let elapsed = self.last_span_end.since(self.start).as_ms();
            if elapsed <= 0.0 {
                return 0.0;
            }
            return 100.0 * self.total_bytes / (elapsed * max_bytes_per_ms);
        }
        let lo = complete.saturating_sub(window);
        let n = complete - lo;
        // Accumulate in ascending interval order (r6: no unpinned f64
        // `sum()`).
        let mut total = 0.0;
        for i in lo..complete {
            total += self.interval_pct(i, max_bytes_per_ms);
        }
        total / n as f64
    }
}

/// Percentile (nearest-rank) of an unsorted sample set; `q` in `[0, 1]`.
/// Returns 0 for an empty set. Sorts a copy; for several percentiles of the
/// same samples, sort once and use [`percentile_of_sorted_ms`] instead.
pub fn percentile_ms(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted_ms(&sorted, q)
}

/// Percentile (nearest-rank) of an already ascending-sorted sample set;
/// `q` in `[0, 1]`. Returns 0 for an empty set.
pub fn percentile_of_sorted_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples not sorted");
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> ThroughputMeter {
        ThroughputMeter::new(SimTime::ZERO, SimDuration::from_secs(10.0))
    }

    #[test]
    fn instantaneous_span_hits_one_bucket() {
        let mut m = meter();
        m.add_span(SimTime::from_ms(500.0), SimTime::from_ms(500.0), 100);
        assert_eq!(m.interval_pct(0, 1.0), 100.0 * 100.0 / 10_000.0);
    }

    #[test]
    fn span_splits_proportionally_across_buckets() {
        let mut m = meter();
        // 5 s .. 15 s: half in bucket 0, half in bucket 1.
        m.add_span(SimTime::from_ms(5_000.0), SimTime::from_ms(15_000.0), 1000);
        assert!((m.interval_pct(0, 1.0) - m.interval_pct(1, 1.0)).abs() < 1e-9);
        assert!((m.total_bytes() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn long_span_smears_over_many_buckets() {
        let mut m = meter();
        // 46 s span covering buckets 0..4.
        m.add_span(SimTime::ZERO, SimTime::from_ms(46_000.0), 46_000);
        for i in 0..4 {
            assert!((m.buckets[i] - 10_000.0).abs() < 1.0, "bucket {i}: {}", m.buckets[i]);
        }
        assert!((m.buckets[4] - 6_000.0).abs() < 1.0);
    }

    #[test]
    fn stabilization_requires_three_close_intervals() {
        let mut m = meter();
        // Interval 0: 1000 bytes, 1: 995, 2: 1005 at max 1 byte/ms →
        // 10 %, 9.95 %, 10.05 % — spread 0.1 → stabilized.
        m.add_span(SimTime::from_ms(1_000.0), SimTime::from_ms(2_000.0), 1000);
        m.add_span(SimTime::from_ms(11_000.0), SimTime::from_ms(12_000.0), 995);
        m.add_span(SimTime::from_ms(21_000.0), SimTime::from_ms(22_000.0), 1005);
        let now = SimTime::from_ms(30_000.0);
        let got = m.stabilized(now, 1.0, 3, 0.1).expect("stable");
        assert!((got - 10.0).abs() < 0.01);
        // Tighter tolerance: not stabilized.
        assert!(m.stabilized(now, 1.0, 3, 0.05).is_none());
        // Not enough complete intervals earlier.
        assert!(m.stabilized(SimTime::from_ms(25_000.0), 1.0, 3, 10.0).is_none());
    }

    #[test]
    fn recent_mean_handles_short_runs() {
        let mut m = meter();
        m.add_span(SimTime::ZERO, SimTime::from_ms(1_000.0), 500);
        // No complete interval yet: overall average 0.5 bytes/ms → 50 % of 1.
        let pct = m.recent_mean_pct(SimTime::from_ms(1_000.0), 1.0, 3);
        assert!((pct - 50.0).abs() < 1e-6);
        // After two complete intervals, averages those.
        m.add_span(SimTime::from_ms(10_000.0), SimTime::from_ms(11_000.0), 2000);
        let pct = m.recent_mean_pct(SimTime::from_ms(20_000.0), 1.0, 3);
        assert!((pct - (5.0 + 20.0) / 2.0 / 10.0 * 10.0 / 2.0).abs() < 10.0); // sanity only
        assert!(pct > 0.0);
    }

    #[test]
    fn idle_window_with_pending_bytes_does_not_stabilize() {
        let mut m = meter();
        // All recorded bytes land far in the future (queued behind a
        // backlog); the first three intervals are empty but the meter must
        // not report a stable 0 %.
        m.add_span(SimTime::from_ms(100_000.0), SimTime::from_ms(110_000.0), 5000);
        assert!(m.stabilized(SimTime::from_ms(35_000.0), 1.0, 3, 0.1).is_none());
        // With genuinely no activity at all, 0 % is a legitimate steady state.
        let empty = meter();
        assert_eq!(empty.stabilized(SimTime::from_ms(35_000.0), 1.0, 3, 0.1), Some(0.0));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_ms(&xs, 0.5), 3.0);
        assert_eq!(percentile_ms(&xs, 1.0), 5.0);
        assert_eq!(percentile_ms(&xs, 0.0), 1.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn spans_before_start_are_clamped() {
        let mut m = ThroughputMeter::new(SimTime::from_ms(10_000.0), SimDuration::from_secs(10.0));
        m.add_span(SimTime::ZERO, SimTime::from_ms(20_000.0), 1000);
        // Only the half after measurement start counts toward buckets, but
        // attribution is proportional to the whole span.
        assert!(m.buckets[0] > 0.0);
        assert_eq!(m.complete_intervals(SimTime::from_ms(20_000.0)), 1);
    }
}
