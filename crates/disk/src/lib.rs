//! Disk-system substrate for the `readopt` simulator.
//!
//! This crate models the storage hardware described in §2.1 of Seltzer &
//! Stonebraker, *"Read Optimized File System Designs: A Performance
//! Evaluation"* (ICDE 1991): a set of identical disks (§2.1 allows
//! heterogeneous ones; see DESIGN.md §"Substitutions") behind one
//! [`DiskArray`] type, laid out as the [`ArrayLayout`] of its
//! [`ArrayConfig`] names:
//!
//! * a plain **striped array** — the configuration all of the paper's
//!   published results use,
//! * a set of **mirrored disks**,
//! * a **RAID-5** array with rotated parity (which can also run degraded
//!   and rebuild: [`DiskArray::fail_disk`], [`DiskArray::rebuild`]), or
//! * a **parity-striped** array in Gray's style.
//!
//! Each individual [`Disk`] is described by its physical layout (tracks,
//! cylinders, platters) and performance characteristics (rotation speed and
//! the two-parameter seek model `ST + N·SI` from the paper). Service times
//! are computed with an exact rotational phase for the start of each request
//! and a closed-form transfer model that charges a head-switch penalty per
//! track boundary and a single-track seek per cylinder boundary (i.e. a
//! well-skewed drive; see DESIGN.md §"Substitutions").
//!
//! The array exposes a single logical linear address space measured in
//! **disk units** (the minimum unit of transfer between disk and memory,
//! §2.1) through [`DiskArray::submit`]. Per-disk queueing is modelled as an
//! open FCFS queue: each disk remembers when it becomes free, and a logical
//! request completes when the last of its per-disk chains completes.
//!
//! ```
//! use readopt_disk::{ArrayConfig, IoRequest, SimTime, calibrate_max_bandwidth};
//!
//! let config = ArrayConfig::paper_default(); // Table 1: 8 × Wren IV
//! let mut array = config.build();
//! // A full stripe row (8 × 24 KB) reads in parallel on all 8 spindles.
//! let span = array.submit(SimTime::ZERO, &IoRequest::read(0, 8 * 24));
//! assert!(span.end.as_ms() < 60.0, "one seekless row ≈ a few rotations");
//! // The §3 reference every experiment normalizes against:
//! let mb_s = calibrate_max_bandwidth(&config) * 1000.0 / (1024.0 * 1024.0);
//! assert!((9.5..12.0).contains(&mb_s), "paper: 10.8 MB/s");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod array;
pub mod calibrate;
pub mod config;
pub mod disk;
pub mod geometry;
pub mod mechanics;
pub mod request;
pub mod stats;
pub mod time;

pub use array::DiskArray;
pub use calibrate::calibrate_max_bandwidth;
pub use config::{ArrayConfig, ArrayLayout};
pub use disk::Disk;
pub use geometry::DiskGeometry;
pub use request::{IoKind, IoRequest};
pub use stats::{DiskStats, StorageStats, QUEUE_DEPTH_BUCKETS};
pub use time::{SimDuration, SimTime};
