//! The event-driven, stochastic workload simulator of §2.
//!
//! Three components make up the model, mirroring the paper exactly:
//!
//! 1. **the disk system** (`readopt-disk`) — an array of disks behind the
//!    [`readopt_disk::Storage`] trait;
//! 2. **the workload characterization** ([`filetype::FileTypeConfig`], the
//!    fourteen Table 2 parameters) — file types defining size, access and
//!    growth behaviour for a population of files driven by *users* (parallel
//!    event streams);
//! 3. **the allocation policies** (`readopt-alloc`) — behind the
//!    [`readopt_alloc::Policy`] trait.
//!
//! [`engine::Simulation`] wires the three together and exposes the paper's
//! three test procedures (§3):
//!
//! * **allocation test** — only extend/truncate/delete/create operations run
//!   until the first allocation failure, then internal and external
//!   fragmentation are computed;
//! * **application performance test** — the full operation mix runs with the
//!   disk 90–95 % full until throughput stabilizes (three consecutive
//!   10-second intervals within 0.1 %);
//! * **sequential performance test** — only whole-file reads and writes.
//!
//! Like the paper's simulator, each simulation is one serial loop that
//! takes the earliest event from one event queue ([`event::EventQueue`]);
//! the engine starts no threads of its own.
//!
//! Everything is deterministic given a seed:
//!
//! ```
//! use readopt_sim::{SimConfig, Simulation, FileTypeConfig};
//! use readopt_disk::ArrayConfig;
//! use readopt_alloc::PolicyConfig;
//!
//! let t = FileTypeConfig { delete_fraction: 0.0, ..FileTypeConfig::default() };
//! let config = SimConfig::new(ArrayConfig::scaled(64), PolicyConfig::paper_restricted(), vec![t]);
//! let a = Simulation::new(&config, 99).run_allocation_test();
//! let b = Simulation::new(&config, 99).run_allocation_test();
//! assert_eq!(a, b, "same seed, same result");
//! assert!(a.utilization > 0.9, "ran to the first failed allocation");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod engine;
pub mod event;
pub mod filetype;
pub mod hist;
pub mod measure;
pub mod metrics;
pub mod results;
pub mod rng;
pub mod state;

pub use config::SimConfig;
pub use engine::Simulation;
pub use event::{Event, EventQueue, EventQueueKind, UserId};
pub use filetype::{FileTypeConfig, OpKind};
pub use hist::{HistBucket, LatencyReservoir, TestHist};
pub use measure::{percentile_ms, percentile_of_sorted_ms, ThroughputMeter};
pub use metrics::{AllocGauges, DiskPhaseMetrics, EngineCounters, StorageMetrics, TestMetrics};
pub use results::{FragReport, PerfReport, SuiteReport};
pub use rng::SimRng;
