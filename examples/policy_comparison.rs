//! A miniature Figure 6: all four policies across all three workloads,
//! with the paper's numbers printed alongside for comparison.
//!
//! ```text
//! cargo run --release --example policy_comparison [-- <scale-divisor>]
//! ```

use readopt::experiments::{fig6, ExperimentContext};

/// The paper's Figure 6 values are bar charts, not tables; Table 3 gives
/// buddy exactly and §5 narrates the rest. These are the reference points
/// we can anchor on.
const PAPER_ANCHORS: &[(&str, &str, f64, f64)] = &[
    // (workload, policy, sequential, application)
    ("SC", "buddy", 94.4, 88.0),
    ("TP", "buddy", 93.9, 27.7),
    ("TS", "buddy", 12.0, 8.4),
];

fn main() {
    let scale: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let ctx = if scale <= 1 { ExperimentContext::full() } else { ExperimentContext::fast(scale) };
    let result = fig6::run_profiled(&ctx).0;
    println!("{result}");
    println!("paper anchor points (Table 3 buddy rows):");
    for &(wl, policy, seq, app) in PAPER_ANCHORS {
        let ours = result.cell(wl, policy).expect("cell exists");
        println!(
            "  {wl}/{policy}: paper seq {seq:.1} % vs ours {:.1} %; paper app {app:.1} % vs ours {:.1} %",
            ours.sequential_pct, ours.application_pct
        );
    }
}
