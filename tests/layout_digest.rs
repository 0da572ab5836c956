//! Pins every array layout at the request level.
//!
//! For each [`ArrayLayout`] on `ArrayConfig::scaled(16)`, one seeded trace
//! of reads and writes is submitted: unaligned starts, lengths from one disk
//! unit to several stripe rows, some requests crossing a parity-striped data
//! region, and ready times that sometimes queue behind earlier work and
//! sometimes leave the disks idle. RAID-5 gets a second phase with one
//! failed member: partial-row writes that touch the failure, writes whose
//! parity disk failed, full-row writes and reads of lost chunks, then a
//! rebuild. Every span's `begin` and `end` and the final statistics are
//! folded into one digest per phase, so any change to a layout's service
//! order, mapping or accounting shows up as a different number.
//! `engine_digest` covers the striped layout through the engine; this pins
//! all four directly.

use readopt::disk::{ArrayConfig, ArrayLayout, IoRequest, SimTime, StorageStats};

const STRIPED: u64 = 0x39bd_2a3b_a34b_0745;
const MIRRORED: u64 = 0x6afb_0ebf_073a_4c03;
const RAID5: u64 = 0xba6c_2d01_7dfd_1df1;
const PARITY_STRIPED: u64 = 0x196c_4aad_61f6_0963;
const RAID5_DEGRADED: u64 = 0x6f66_c88e_eb1d_d548;

const REQUESTS: usize = 2_000;
const SEED: u64 = 0x5EED_1991;

/// splitmix64: a self-contained seeded source, so the trace does not depend
/// on any other crate's draw order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over the little-endian bytes of each folded word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.as_us());
    }

    fn stats(&mut self, s: &StorageStats) {
        for d in &s.per_disk {
            for w in [d.requests, d.bytes_read, d.bytes_written, d.seeks, d.queued_requests] {
                self.word(w);
            }
            for f in [d.seek_ms, d.rotational_ms, d.transfer_ms, d.busy_ms, d.head_switch_ms, d.queue_wait_ms] {
                self.word(f.to_bits());
            }
            self.word(d.queue_depth_hist.len() as u64);
            for &b in &d.queue_depth_hist {
                self.word(b);
            }
        }
        for w in [s.logical_reads, s.logical_writes, s.logical_bytes_read, s.logical_bytes_written] {
            self.word(w);
        }
    }
}

fn config(layout: ArrayLayout) -> ArrayConfig {
    ArrayConfig { layout, ..ArrayConfig::scaled(16) }
}

/// Advances `t` by a gap that mostly queues behind the disks' backlog and
/// now and then leaves them idle.
fn advance(t: &mut u64, rng: &mut Rng) {
    *t += match rng.below(10) {
        0..=6 => rng.below(3_000),
        7 | 8 => rng.below(30_000),
        _ => 200_000 + rng.below(300_000),
    };
}

/// The healthy-phase trace for `cfg`, with non-decreasing ready times.
fn trace(cfg: &ArrayConfig) -> Vec<(SimTime, IoRequest)> {
    let cap = cfg.capacity_units();
    let su = cfg.stripe_unit_bytes / cfg.disk_unit_bytes;
    let row = su * cfg.ndisks as u64;
    // A parity-striped array concatenates equal per-disk data regions.
    let region = cap / cfg.ndisks as u64;
    let mut rng = Rng(SEED);
    let mut t = 0;
    (0..REQUESTS)
        .map(|_| {
            advance(&mut t, &mut rng);
            let len = match rng.below(20) {
                0..=7 => 1 + rng.below(su),
                8..=14 => 1 + rng.below(row),
                _ => row + rng.below(3 * row),
            };
            let (unit, len) = if rng.below(8) == 0 {
                // Straddle the boundary after data region k.
                let len = len.max(2);
                let k = 1 + rng.below(cfg.ndisks as u64 - 1);
                (k * region - 1 - rng.below(len - 1), len)
            } else {
                (rng.below(cap - len), len)
            };
            let req = if rng.below(2) == 0 { IoRequest::read(unit, len) } else { IoRequest::write(unit, len) };
            (SimTime::from_us(t), req)
        })
        .collect()
}

fn healthy_digest(layout: ArrayLayout) -> u64 {
    let cfg = config(layout);
    let mut array = cfg.build();
    let mut d = Digest::new();
    for (ready, req) in trace(&cfg) {
        let span = array.submit(ready, &req);
        d.time(span.begin);
        d.time(span.end);
    }
    d.time(array.next_idle());
    d.stats(&array.stats());
    d.0
}

/// RAID-5 with disk `FAILED` down: every degraded path, then a rebuild and
/// a few healthy requests after it.
fn degraded_digest() -> u64 {
    const FAILED: u64 = 3;
    let cfg = config(ArrayLayout::Raid5);
    let mut array = cfg.build();
    array.fail_disk(FAILED as usize);
    let n = cfg.ndisks as u64;
    let su = cfg.stripe_unit_bytes / cfg.disk_unit_bytes;
    let width = n - 1;
    let row_units = su * width;
    let rows = cfg.capacity_units() / row_units;
    let parity_disk = |r: u64| n - 1 - r % n;
    // First unit of the chunk the failed disk holds in row `r` (whose
    // parity lives elsewhere).
    let lost_chunk = |r: u64| {
        let pos = if FAILED < parity_disk(r) { FAILED } else { FAILED - 1 };
        r * row_units + pos * su
    };
    let mut rng = Rng(SEED ^ 0xDE6A_DED0);
    let mut t = 0;
    let mut d = Digest::new();
    for _ in 0..600 {
        advance(&mut t, &mut rng);
        let mut r = rng.below(rows - 4);
        let req = match rng.below(5) {
            0 => {
                // Partial-row write touching the failed chunk.
                while parity_disk(r) == FAILED {
                    r += 1;
                }
                let off = rng.below(su);
                IoRequest::write(lost_chunk(r) + off, 1 + rng.below(2 * su - off))
            }
            1 => {
                // Partial-row write in a row whose parity disk failed.
                let r = r - r % n + (n - 1 - FAILED);
                let off = rng.below(row_units - 1);
                IoRequest::write(r * row_units + off, 1 + rng.below(row_units - 1 - off))
            }
            2 => IoRequest::write(r * row_units, row_units * (1 + rng.below(3))),
            3 => {
                // Read overlapping a lost chunk.
                while parity_disk(r) == FAILED {
                    r += 1;
                }
                let off = rng.below(su);
                IoRequest::read(lost_chunk(r) + off, 1 + rng.below(3 * su))
            }
            _ => {
                // Partial write that misses the failure entirely.
                while parity_disk(r) == FAILED {
                    r += 1;
                }
                let mut pos = rng.below(width);
                if pos == lost_chunk(r) % row_units / su {
                    pos = (pos + 1) % width;
                }
                let off = rng.below(su);
                IoRequest::write(r * row_units + pos * su + off, 1 + rng.below(su - off))
            }
        };
        let span = array.submit(SimTime::from_us(t), &req);
        d.time(span.begin);
        d.time(span.end);
    }
    let rebuilt = array.rebuild(SimTime::from_us(t));
    d.time(rebuilt);
    let mut t = rebuilt.as_us();
    for _ in 0..50 {
        advance(&mut t, &mut rng);
        let unit = rng.below(rows - 1) * row_units + rng.below(row_units);
        let span = array.submit(SimTime::from_us(t), &IoRequest::read(unit, 1 + rng.below(su)));
        d.time(span.begin);
        d.time(span.end);
    }
    d.time(array.next_idle());
    d.stats(&array.stats());
    d.0
}

fn check(name: &str, got: u64, pinned: u64) {
    assert_eq!(got, pinned, "{name} digest moved: got {got:#018x}, pinned {pinned:#018x}");
}

#[test]
fn striped_digest_is_pinned() {
    check("striped", healthy_digest(ArrayLayout::Striped), STRIPED);
}

#[test]
fn mirrored_digest_is_pinned() {
    check("mirrored", healthy_digest(ArrayLayout::Mirrored), MIRRORED);
}

#[test]
fn raid5_digest_is_pinned() {
    check("raid5", healthy_digest(ArrayLayout::Raid5), RAID5);
}

#[test]
fn parity_striped_digest_is_pinned() {
    check("parity-striped", healthy_digest(ArrayLayout::ParityStriped), PARITY_STRIPED);
}

#[test]
fn raid5_degraded_digest_is_pinned() {
    check("raid5 degraded", degraded_digest(), RAID5_DEGRADED);
}
