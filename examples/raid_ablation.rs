//! §6 future work, implemented: "the impact of a RAID in the underlying
//! disk system will reduce the small write performance."
//!
//! Runs the TP workload (small random writes against big relations) under
//! all four §2.1 disk configurations and prints both relative and absolute
//! throughput plus the observed write amplification.
//!
//! ```text
//! cargo run --release --example raid_ablation [-- <scale-divisor>]
//! ```

use readopt::experiments::{ablations, ExperimentContext};

fn main() {
    let scale: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let ctx = if scale <= 1 { ExperimentContext::full() } else { ExperimentContext::fast(scale) };
    let result = ablations::run_raid_profiled(&ctx).0;
    println!("{result}");
    println!(
        "Read MB/s, not %max, is the honest cross-layout comparison: each\n\
         layout is normalized to its own calibrated maximum. RAID-5's\n\
         read-modify-write pays two extra disk operations per small write,\n\
         which is exactly the §6 caveat about parity in the disk system."
    );
}
