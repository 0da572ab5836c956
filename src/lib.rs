//! # readopt — Read Optimized File System Designs, reproduced
//!
//! A full Rust reproduction of Seltzer & Stonebraker, *"Read Optimized File
//! System Designs: A Performance Evaluation"* (ICDE 1991 / UCB ERL M92/64):
//! an event-driven, stochastic workload simulator comparing disk-allocation
//! policies — binary buddy, restricted buddy, and extent-based, against
//! fixed-block baselines — on a striped disk array.
//!
//! This crate is a facade that re-exports the workspace's sub-crates:
//!
//! * [`disk`] — disk mechanics, striped/mirrored/RAID-5/parity-striped arrays
//! * [`alloc`] — the four allocation-policy families
//! * [`sim`] — the event-driven simulation engine and test drivers
//! * [`workloads`] — the paper's TS / TP / SC workload definitions
//! * [`experiments`] — drivers reproducing every table and figure
//!
//! ## Quickstart
//!
//! ```
//! use readopt::disk::ArrayConfig;
//! use readopt::sim::{Simulation, SimConfig};
//! use readopt::alloc::PolicyConfig;
//! use readopt::workloads::timesharing;
//!
//! // A scaled-down version of the paper's 8-disk array (fast to simulate).
//! let array = ArrayConfig::scaled(64);
//! let workload = timesharing(array.capacity_bytes());
//! let config = SimConfig::new(array, PolicyConfig::paper_restricted(), workload);
//! let mut sim = Simulation::new(&config, 42);
//! let frag = sim.run_allocation_test();
//! assert!(frag.utilization > 0.9, "allocation test fills the disk");
//! assert!(frag.external_pct < 10.0);
//! ```

#![forbid(unsafe_code)]

pub use readopt_alloc as alloc;
pub use readopt_core as experiments;
pub use readopt_disk as disk;
pub use readopt_sim as sim;
pub use readopt_workloads as workloads;
