//! Pins an exact end-to-end digest of the simulation engine.
//!
//! One application-performance run and one allocation run per policy
//! family, with every headline number formatted to 12 decimal places and
//! compared as a string. Any change to RNG draw order, event scheduling,
//! allocator decisions, or percentile arithmetic shows up here as a diff —
//! the guard that hot-path refactors (swap-remove file retirement,
//! single-sort percentiles, bitmap free-space backends) stay bit-identical.

use readopt::alloc::{ExtentConfig, FitStrategy, PolicyConfig};
use readopt::disk::ArrayConfig;
use readopt::sim::{FileTypeConfig, SimConfig, Simulation};

const EXTENT_DIGEST: &str = "extent: ops=2460 bytes=140884992 thr=30.918025107602 \
    p50=67.095000000000 p99=276.038000000000 frag_ops=60000 ext=80.599537037037 \
    int=1.133516286839";

const FFS_DIGEST: &str = "ffs: ops=2711 bytes=156456960 thr=35.426058145046 \
    p50=58.780000000000 p99=215.447000000000 frag_ops=60000 ext=79.497685185185 \
    int=0.158067065598";

const BUDDY_DIGEST: &str = "buddy: ops=2770 bytes=160079872 thr=36.674232332844 \
    p50=52.421000000000 p99=213.894000000000 frag_ops=60000 ext=70.370370370370 \
    int=33.179687500000";

fn extent_policy() -> PolicyConfig {
    PolicyConfig::Extent(ExtentConfig {
        range_means_bytes: vec![8 * 1024, 64 * 1024],
        fit: FitStrategy::FirstFit,
        sigma_frac: 0.1,
    })
}

/// Runs the delete-heavy mixed workload for one policy and formats the
/// digest line.
fn digest(name: &str, policy: PolicyConfig) -> String {
    let array = ArrayConfig::scaled(64);
    let t = FileTypeConfig {
        num_files: 32,
        num_users: 8,
        initial_size_bytes: 256 * 1024,
        initial_deviation_bytes: 64 * 1024,
        // Delete-heavy so do_delete (and the retirement bookkeeping behind
        // it) is exercised hard.
        read_pct: 30.0,
        write_pct: 20.0,
        extend_pct: 25.0,
        deallocate_pct: 25.0,
        delete_fraction: 0.8,
        ..FileTypeConfig::default()
    };
    let mut c = SimConfig::new(array, policy, vec![t]);
    c.max_intervals = 4;
    c.max_allocation_ops = 60_000;
    let mut sim = Simulation::new(&c, 99);
    let app = sim.run_application_test();
    let frag = sim.run_allocation_test();
    format!(
        "{name}: ops={} bytes={} thr={:.12} p50={:.12} p99={:.12} frag_ops={} ext={:.12} int={:.12}",
        app.operations,
        app.bytes_moved,
        app.throughput_pct,
        app.op_latency_p50_ms,
        app.op_latency_p99_ms,
        frag.operations,
        frag.external_pct,
        frag.internal_pct,
    )
}

/// Collapses the continuation-indented digest consts to single-line form.
fn oneline(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn extent_digest_is_pinned() {
    assert_eq!(digest("extent", extent_policy()), oneline(EXTENT_DIGEST));
}

#[test]
fn ffs_digest_is_pinned() {
    assert_eq!(digest("ffs", PolicyConfig::ffs_classic()), oneline(FFS_DIGEST));
}

#[test]
fn buddy_digest_is_pinned() {
    assert_eq!(digest("buddy", PolicyConfig::paper_buddy()), oneline(BUDDY_DIGEST));
}
