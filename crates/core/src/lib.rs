//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation, plus the §6 future-work ablations.
//!
//! Each experiment module corresponds to one table or figure:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`table1`] | Table 1 — disk parameters & calibrated max throughput |
//! | [`table2`] | Table 2 — concrete file-type parameters per workload |
//! | [`table3`] | Table 3 — buddy allocation results (throughput columns projected from [`fig6`]) |
//! | [`fig1`]   | Figure 1 — restricted buddy fragmentation sweep |
//! | [`fig2`]   | Figure 2 — restricted buddy performance sweep |
//! | [`fig3`]   | Figure 3 — grow factor × contiguity interaction |
//! | [`fig4`]   | Figure 4 — extent-based fragmentation sweep |
//! | [`fig5`]   | Figure 5 — extent-based performance sweep |
//! | [`table4`] | Table 4 — average extents per file (a projection of [`fig4`]) |
//! | [`fig6`]   | Figure 6 — comparative performance of all policies |
//! | [`ablations`] | §6 extensions: RAID-5 (incl. degraded mode), stripe unit, file-mix, Koch reallocation, FFS |
//! | [`diag`]   | disk-time decomposition diagnostics (a projection of [`fig6`]) |
//! | [`users_scale`] | `users_1e6` — one application test at rising user counts, up to a million |
//!
//! Every driver takes an [`ExperimentContext`] choosing full (paper-scale)
//! or scaled-down arrays; results are serde-serializable and printable as
//! fixed-width text tables (see [`report`]).
//!
//! Sweeps execute through [`runner`]: each driver enumerates its points as
//! labeled jobs, fans them across `ExperimentContext::jobs` OS threads, and
//! reassembles results in sweep order — bit-identical at any thread count.
//! The `run_profiled` variants additionally return per-point wall-clock
//! timings and the metrics and histogram sidecars the runner assembles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod context;
pub mod diag;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod storex;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod users_scale;

pub use context::ExperimentContext;
pub use metrics::{ExperimentMetrics, PointMetrics};
