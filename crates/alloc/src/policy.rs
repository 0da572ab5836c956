//! The common interface all allocation policies implement.

use crate::filemap::FileMap;
use crate::types::{AllocError, Extent, FileHints, FileId};
use serde::{Deserialize, Serialize};

/// Free-space fragmentation gauges for the observability layer.
///
/// `free_extents` counts the discrete free blocks/runs the policy could
/// hand out without coalescing beyond what it already does;
/// `largest_free_units` is the biggest single allocation it could satisfy
/// contiguously. Both are computed on demand (snapshot time), never on the
/// allocation hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragGauges {
    /// Currently free units (same quantity as [`Policy::free_units`]).
    pub free_units: u64,
    /// Number of discrete free blocks / contiguous free runs.
    pub free_extents: u64,
    /// Units in the largest contiguous free block the policy can hand out.
    pub largest_free_units: u64,
}

impl FragGauges {
    /// Mean size of a free run, in units (0 when nothing is free).
    pub fn mean_free_run_units(&self) -> f64 {
        if self.free_extents == 0 {
            0.0
        } else {
            self.free_units as f64 / self.free_extents as f64
        }
    }
}

/// A disk-space allocation policy.
///
/// All quantities are in *disk units*. Policies are deterministic given
/// their construction seed and call sequence.
///
/// `extend` allocates **at least** the requested units (policies round up to
/// their block/extent granularity — the source of internal fragmentation);
/// `truncate` frees **at most** the requested units (policies that cannot
/// split blocks free only whole tail blocks).
///
/// Every operation that names a [`FileId`] is fallible: a dead id yields
/// [`AllocError::DeadFile`] instead of a panic, so library callers decide
/// how to surface the bug (workspace invariant simlint r3).
///
/// `Send` is required so boxed policies (and the simulations owning them)
/// can move to experiment-runner worker threads.
pub trait Policy: Send {
    /// Short stable name for reports ("buddy", "restricted", …).
    fn name(&self) -> &'static str;

    /// Total managed units.
    fn capacity_units(&self) -> u64;

    /// Currently free units.
    fn free_units(&self) -> u64;

    /// Units consumed by metadata (e.g. file descriptor blocks).
    fn metadata_units(&self) -> u64 {
        0
    }

    /// Registers a new, empty file. May allocate metadata.
    fn create(&mut self, hints: &FileHints) -> Result<FileId, AllocError>;

    /// Grows `file` by at least `units`, returning how many units its
    /// allocation grew by. Where the new space landed is in
    /// [`Policy::file_map`]. A failed extend is atomic: the file and the
    /// free space are left exactly as they were.
    fn extend(&mut self, file: FileId, units: u64) -> Result<u64, AllocError>;

    /// Shrinks `file` by at most `units` from its logical end, returning
    /// how many units were freed.
    fn truncate(&mut self, file: FileId, units: u64) -> Result<u64, AllocError>;

    /// Deletes `file`, freeing all of its space (and metadata). Returns the
    /// number of data units freed.
    fn delete(&mut self, file: FileId) -> Result<u64, AllocError>;

    /// The file's extent map.
    fn file_map(&self, file: FileId) -> Result<&FileMap, AllocError>;

    /// Units allocated to the file's data.
    fn allocated_units(&self, file: FileId) -> Result<u64, AllocError> {
        Ok(self.file_map(file)?.total_units())
    }

    /// Number of extents backing the file (physically merged view — the
    /// number of disjoint disk regions, i.e. of seeks a full scan pays).
    fn extent_count(&self, file: FileId) -> Result<usize, AllocError> {
        Ok(self.file_map(file)?.extent_count())
    }

    /// Number of *allocation units* backing the file — blocks for the
    /// buddy-style policies, extent-sized chunks for the extent policy —
    /// regardless of whether they happen to be physically adjacent. This is
    /// the statistic the paper's Table 4 reports ("a 96K file length /
    /// 4K extent size" gives 24, even on a freshly laid-out disk).
    fn allocation_count(&self, file: FileId) -> Result<usize, AllocError> {
        self.extent_count(file)
    }

    /// All currently live files.
    fn live_files(&self) -> Vec<FileId>;

    /// Runs the policy's offline reallocation pass, if it has one — Koch's
    /// nightly reallocator for the buddy policy \[KOCH87\], which the paper
    /// deliberately leaves out of its simulations ("we consider only the
    /// allocation and deallocation algorithm").
    ///
    /// `logical_sizes` supplies each live file's used size in units (the
    /// policy only tracks allocations). Returns the number of units
    /// rewritten, or `None` when the policy has no reallocator.
    fn reallocate(&mut self, logical_sizes: &[(FileId, u64)]) -> Result<Option<u64>, AllocError> {
        let _ = logical_sizes;
        Ok(None)
    }

    /// Free-space fragmentation gauges. The default reports only
    /// `free_units` (run structure untracked); every first-party policy
    /// overrides it with its real free-structure view.
    fn frag_gauges(&self) -> FragGauges {
        FragGauges { free_units: self.free_units(), free_extents: 0, largest_free_units: 0 }
    }

    /// Expensive global invariant check used by tests: extents of live
    /// files are in-bounds, disjoint, and `free + data + metadata` equals
    /// capacity; then the policy's own [`Policy::check_structure`].
    #[doc(hidden)]
    fn check_invariants(&self) {
        let mut spans: Vec<Extent> = Vec::new();
        let mut data = 0u64;
        for f in self.live_files() {
            let map = self
                .file_map(f)
                // simlint::allow(r3, "test-only invariant checker; panicking on violation is the point")
                .unwrap_or_else(|e| unreachable!("{}: live file {f} unmapped: {e}", self.name()));
            for e in map.extents() {
                assert!(e.len > 0, "{}: zero-length extent in {f}", self.name());
                assert!(
                    e.end() <= self.capacity_units(),
                    "{}: extent {e} of {f} out of bounds",
                    self.name()
                );
                spans.push(*e);
                data += e.len;
            }
        }
        spans.sort_unstable_by_key(|e| e.start);
        for w in spans.windows(2) {
            assert!(
                !w[0].overlaps(&w[1]),
                "{}: overlapping extents {} and {}",
                self.name(),
                w[0],
                w[1]
            );
        }
        assert_eq!(
            self.free_units() + data + self.metadata_units(),
            self.capacity_units(),
            "{}: space conservation violated (free {} + data {} + meta {} != cap {})",
            self.name(),
            self.free_units(),
            data,
            self.metadata_units(),
            self.capacity_units()
        );
        self.check_structure();
    }

    /// Policy-specific half of [`Policy::check_invariants`]: asserts the
    /// policy's free-space structures and indexes are consistent. The
    /// default checks nothing.
    #[doc(hidden)]
    fn check_structure(&self) {}
}
