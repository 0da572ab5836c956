//! Allocation policies for read-optimized file systems.
//!
//! This crate implements the four policy families evaluated in Seltzer &
//! Stonebraker, *"Read Optimized File System Designs"* (ICDE 1991):
//!
//! * [`buddy`] — Koch's binary buddy allocation (§4.1, \[KOCH87\]): every
//!   extent is a power-of-two multiple of the sector size and each new
//!   extent doubles the file's allocation. Simple, fast, and prone to heavy
//!   internal fragmentation (Table 3).
//! * [`restricted`] — the restricted buddy system (§4.2): a small ladder of
//!   block sizes (e.g. 1K/8K/64K/1M/16M), a *grow policy* deciding when a
//!   file moves up the ladder, optional *clustering* into 32 MB bookkeeping
//!   regions, and a strong preference for physically sequential allocation.
//! * [`extent`] — the extent-based system (§4.3, \[STON89\]): every file
//!   carries an extent size drawn from a configured size range; extents may
//!   start anywhere; free space is kept coalesced and searched first-fit or
//!   best-fit.
//! * [`fixed`] — the fixed-block baseline of §5: V7-style allocation off the
//!   head of a free list with "no bias towards automatic striping or
//!   contiguous layout".
//! * [`ffs`] — an extension beyond the paper's baselines: the BSD Fast File
//!   System's block+fragment scheme its §1 discusses \[MCKU84\].
//!
//! All policies allocate from the same linear space of *disk units* that the
//! `readopt-disk` arrays expose, so logical contiguity translates directly
//! into physical striping and minimal seeks.
//!
//! The common interface is [`Policy`]; concrete policies are built from a
//! serializable [`PolicyConfig`]:
//!
//! ```
//! use readopt_alloc::{FileHints, Policy, PolicyConfig};
//!
//! // 1 M disk units of 1 KB over the §4.2 restricted buddy policy.
//! let mut policy = PolicyConfig::paper_restricted().build(1 << 20, 1024, 7);
//! let file = policy.create(&FileHints::default()).unwrap();
//! let granted = policy.extend(file, 100).unwrap();
//! assert!(granted >= 100);
//! assert_eq!(policy.allocated_units(file).unwrap(), granted);
//! assert!(policy.extent_count(file).unwrap() <= 3, "sequential growth stays contiguous");
//! policy.delete(file).unwrap();
//! assert_eq!(policy.free_units() + policy.metadata_units(), policy.capacity_units());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitmap;
pub mod blockset;
pub mod buddy;
pub mod buddy_core;
pub mod config;
pub mod extent;
pub mod filemap;
pub mod ffs;
pub mod fixed;
pub mod freespace;
pub mod policy;
pub mod restricted;
pub mod types;

pub use blockset::{BTreeBlockSet, BitmapBlockSet, FreeBlockSet};
pub use buddy::BuddyPolicy;
pub use config::{BuddyConfig, ExtentConfig, FitStrategy, FixedConfig, PolicyConfig, RestrictedConfig};
pub use extent::ExtentPolicy;
pub use ffs::{FfsConfig, FfsPolicy};
pub use freespace::{BTreeFreeSpaceMap, FreeMap, FreeSpaceMap};
pub use filemap::FileMap;
pub use fixed::FixedPolicy;
pub use policy::{FragGauges, Policy, PolicyStats};
pub use restricted::RestrictedPolicy;
pub use types::{AllocError, Extent, FileHints, FileId};
