//! Maximum-sequential-throughput calibration.
//!
//! §3 of the paper expresses every performance number "as a percent of the
//! sustained sequential performance the disk system is capable of
//! providing" (10.8 MB/s for the Table 1 system). The paper does not say how
//! that reference was derived, so we *measure* it: read a freshly built
//! array with `2 × ndisks` concurrent maximal requests spread evenly across
//! its logical space and take the observed rate. Because the same mechanics
//! model produces both the reference and the experiment numbers, the
//! reported percentages are self-consistent (see DESIGN.md
//! §"Substitutions").

use crate::config::ArrayConfig;
use crate::geometry::MB;
use crate::request::IoRequest;
use crate::time::SimTime;

/// Sustained sequential bandwidth of a fresh instance of `config`, in
/// bytes per millisecond.
///
/// The logical space is cut into `2 × ndisks` equal segments, and one read
/// starts at the head of each, all ready at time zero. Each read is one
/// maximal contiguous run of whole stripe rows (at least one row); together
/// they cover about min(capacity, 64 MB × ndisks). The rate is the bytes
/// read over the time the last read completes. Issuing few huge requests
/// keeps per-request overhead out of the reference, and the spread
/// guarantees every spindle participates regardless of layout — a single
/// request would only touch one disk of a parity-striped array and one
/// replica of each mirrored pair, under-reporting what the hardware can
/// deliver to a concurrent workload.
pub fn calibrate_max_bandwidth(config: &ArrayConfig) -> f64 {
    let mut storage = config.build();
    let unit = storage.disk_unit_bytes();
    let row_units = (config.stripe_unit_bytes * config.ndisks as u64 / unit).max(1);
    let budget_units = (64 * MB * config.ndisks as u64 / unit).min(storage.capacity_units());
    let nchunks = 2 * config.ndisks as u64;
    let chunk_units = (budget_units / nchunks / row_units * row_units).max(row_units);
    let segment_units = storage.capacity_units() / nchunks;
    let mut bytes = 0u64;
    let mut end = SimTime::ZERO;
    for k in 0..nchunks {
        let start = k * segment_units;
        let len = chunk_units.min(storage.capacity_units().saturating_sub(start));
        if len == 0 {
            continue;
        }
        let span = storage.submit(SimTime::ZERO, &IoRequest::read(start, len));
        end = end.max(span.end);
        bytes += len * unit;
    }
    assert!(end > SimTime::ZERO, "calibration scanned nothing");
    bytes as f64 / end.as_ms()
}

/// Converts a byte count moved over a duration into a percentage of the
/// calibrated maximum bandwidth.
pub fn percent_of_max(bytes: u64, elapsed_ms: f64, max_bytes_per_ms: f64) -> f64 {
    if elapsed_ms <= 0.0 || max_bytes_per_ms <= 0.0 {
        return 0.0;
    }
    100.0 * (bytes as f64 / elapsed_ms) / max_bytes_per_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayLayout;

    #[test]
    fn paper_system_calibrates_near_10_8_mb_per_sec() {
        // Table 1 quotes 10.8 MB/s maximum throughput for the 8-disk system.
        // Our mechanics give ~10–11.5 MB/s depending on crossing penalties;
        // assert we land in that neighbourhood.
        let bw = calibrate_max_bandwidth(&ArrayConfig::scaled(8));
        let mb_per_sec = bw * 1000.0 / MB as f64;
        assert!(
            (9.5..12.0).contains(&mb_per_sec),
            "calibrated {mb_per_sec:.2} MB/s, expected ≈ 10.8"
        );
    }

    #[test]
    fn mirrored_concurrent_read_bandwidth_matches_striped() {
        // With concurrent readers, both replicas of every pair serve
        // different requests: the mirrored array reads as fast as the plain
        // 8-wide array (that's the mirroring sales pitch). Writes, of
        // course, pay 2× (covered by the write-amplification tests).
        let striped = calibrate_max_bandwidth(&ArrayConfig::scaled(16));
        let mirrored = calibrate_max_bandwidth(&ArrayConfig {
            layout: ArrayLayout::Mirrored,
            ..ArrayConfig::scaled(16)
        });
        let ratio = mirrored / striped;
        assert!((0.85..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn parity_striped_streams_one_file_from_one_disk() {
        // A pipelined whole-array scan engages every disk even under parity
        // striping (each disk streams its own region), so the *calibrated*
        // maxima are comparable. The layout's real cost shows on a single
        // contiguous file: it lives on one disk and reads at one disk's
        // rate, ~1/8 of the striped array's.
        let cfg_ps = ArrayConfig { layout: ArrayLayout::ParityStriped, ..ArrayConfig::scaled(16) };
        let cfg_st = ArrayConfig::scaled(16);
        let file_units = 4 * 1024; // 4 MB file
        let read_time = |cfg: &ArrayConfig| {
            let mut s = cfg.build();
            let mut end = crate::SimTime::ZERO;
            let mut cursor = 0;
            while cursor < file_units {
                let chunk = 192.min(file_units - cursor);
                end = end.max(s.submit(crate::SimTime::ZERO, &IoRequest::read(cursor, chunk)).end);
                cursor += chunk;
            }
            end.as_ms()
        };
        let t_ps = read_time(&cfg_ps);
        let t_st = read_time(&cfg_st);
        assert!(
            t_ps > 4.0 * t_st,
            "single-file read should lack parallelism: {t_ps} ms vs {t_st} ms"
        );
    }

    #[test]
    fn percent_of_max_basics() {
        assert_eq!(percent_of_max(0, 10.0, 100.0), 0.0);
        assert!((percent_of_max(500, 10.0, 100.0) - 50.0).abs() < 1e-12);
        assert_eq!(percent_of_max(10, 0.0, 100.0), 0.0);
    }
}
