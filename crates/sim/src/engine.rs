//! The simulation engine: wires a disk system, an allocation policy and a
//! workload together and runs the paper's three test procedures (§2.2, §3).

use crate::config::SimConfig;
use crate::event::{EventQueue, UserId};
use crate::filetype::{FileTypeConfig, OpKind};
use crate::hist::{LatencyReservoir, TestHist};
use crate::measure::ThroughputMeter;
use crate::metrics::{AllocGauges, EngineCounters, StorageMetrics, TestMetrics};
use crate::results::{FragReport, PerfReport, SuiteReport};
use crate::rng::SimRng;
use crate::state::{FileTable, UserTable};
use readopt_alloc::{AllocError, Extent, FileHints, FileId, Policy};
use readopt_disk::{calibrate_max_bandwidth, IoKind, IoRequest, SimDuration, SimTime, Storage};

/// Which test procedure the event loop is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full §2.2 operation mix with disk I/O.
    Application,
    /// Whole-file reads/writes only (§3's sequential test).
    Sequential,
    /// Extend/truncate/delete/create only, no I/O (§3's allocation test).
    AllocationOnly,
}

/// Converts a population-bounded count (files, users, types, positions)
/// to the `u32` width the SoA state tables index by.
fn small_u32(n: usize) -> u32 {
    u32::try_from(n)
        // simlint::allow(r3, "counts here are bounded by the configured file/user/type populations, far below u32")
        .unwrap_or_else(|_| unreachable!("population count exceeds u32"))
}

/// What a single event step produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    Ran,
    AllocationFailed,
}

/// The simulator (§2's three-component model, assembled).
pub struct Simulation {
    storage: Box<dyn Storage>,
    policy: Box<dyn Policy>,
    types: Vec<FileTypeConfig>,
    /// Per-file hot state, packed struct-of-arrays (see [`crate::state`]).
    /// Records are only appended — retirement marks a file dead in place —
    /// so raw indices stay stable for the whole run.
    files: FileTable,
    files_by_type: Vec<Vec<u32>>,
    /// user → file-type index, packed struct-of-arrays.
    users: UserTable,
    queue: EventQueue,
    rng: SimRng,
    unit_bytes: u64,
    /// Calibrated maximum sequential bandwidth, bytes/ms.
    max_bw: f64,
    clock: SimTime,
    disk_full_events: u64,
    ops: u64,
    // §3 test parameters, copied from the config.
    util_lower: f64,
    util_upper: f64,
    interval: SimDuration,
    stabilize_window: usize,
    stabilize_tolerance_pct: f64,
    max_intervals: usize,
    max_allocation_ops: u64,
    /// Cap on the exact latency buffer, copied from
    /// [`SimConfig::latency_sample_cap`]: enough for every paper sweep,
    /// exceeded only by the million-user rungs (which is what the
    /// dropped-sample counter and the log-bucketed reservoir are for).
    latency_sample_cap: usize,
    /// Per-operation latencies collected during the current measurement
    /// (exact samples, capped at `latency_sample_cap`).
    latencies: Vec<f64>,
    /// Samples the cap clipped from `latencies` since the last measurement
    /// reset — surfaced through [`Simulation::latency_hist`] so truncated
    /// p99s are visible instead of silent.
    dropped_latencies: u64,
    /// Log-bucketed companion reservoir: absorbs *every* sample (no cap)
    /// at O(1) cost for the `*.hist.json` percentile artifact.
    hist: LatencyReservoir,
    /// Scratch buffer for `transfer`'s extent-map lookups, reused across
    /// operations so the per-op hot path allocates nothing.
    runs_scratch: Vec<Extent>,
    /// Scratch buffer for `run_reallocation`'s live-file snapshot.
    realloc_scratch: Vec<(FileId, u64)>,
    /// Observability counters since the last [`Simulation::reset_counters`]
    /// (plain integer increments on the hot path; `ops` and
    /// `disk_full_events` deltas come from the baselines below).
    counters: EngineCounters,
    ops_at_counter_reset: u64,
    disk_full_at_counter_reset: u64,
    /// The service window + bytes of the current event's transfer, staged
    /// by `transfer` for `step` to meter.
    pending_span: Option<(SimTime, SimTime, u64)>,
}

impl Simulation {
    /// Builds and initializes a simulation: creates every file at its
    /// sampled initial size (§2.2's two-phase initialization) and calibrates
    /// the disk system's maximum sequential bandwidth.
    pub fn new(config: &SimConfig, seed: u64) -> Self {
        // simlint::allow(r3, "constructor contract: an invalid config is a caller bug, not a runtime condition")
        config.validate().expect("invalid simulation configuration");
        let storage = config.array.build();
        let unit_bytes = storage.disk_unit_bytes();
        let max_bw = calibrate_max_bandwidth(&config.array);
        let mut rng = SimRng::new(seed);
        let policy_seed = rng.uniform_u64(0, u64::MAX - 1);
        let policy = config.policy.build(storage.capacity_units(), unit_bytes, policy_seed);
        let mut sim = Simulation {
            storage,
            policy,
            types: config.file_types.clone(),
            files: FileTable::new(),
            files_by_type: vec![Vec::new(); config.file_types.len()],
            users: UserTable::new(),
            queue: EventQueue::new(),
            rng,
            unit_bytes,
            max_bw,
            clock: SimTime::ZERO,
            disk_full_events: 0,
            ops: 0,
            util_lower: config.util_lower,
            util_upper: config.util_upper,
            interval: config.interval,
            stabilize_window: config.stabilize_window,
            stabilize_tolerance_pct: config.stabilize_tolerance_pct,
            max_intervals: config.max_intervals,
            max_allocation_ops: config.max_allocation_ops,
            latency_sample_cap: config.latency_sample_cap,
            // Pre-sized so steady-state measurement never reallocates: the
            // latency cap is latency_sample_cap entries but typical runs
            // stay well under 16k, and push() doubling takes care of the
            // outliers.
            latencies: Vec::with_capacity(16 * 1024),
            dropped_latencies: 0,
            hist: LatencyReservoir::new(),
            runs_scratch: Vec::new(),
            realloc_scratch: Vec::new(),
            counters: EngineCounters::default(),
            ops_at_counter_reset: 0,
            disk_full_at_counter_reset: 0,
            pending_span: None,
        };
        sim.initialize_files();
        sim
    }

    /// Fraction of capacity in use.
    pub fn utilization(&self) -> f64 {
        1.0 - self.policy.free_units() as f64 / self.policy.capacity_units() as f64
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The allocation policy under test (for inspection).
    pub fn policy(&self) -> &dyn Policy {
        self.policy.as_ref()
    }

    /// The disk system under test (for inspection).
    pub fn storage(&self) -> &dyn Storage {
        self.storage.as_ref()
    }

    /// Clears the disk system's activity counters (queue state and head
    /// positions persist), so the next test's physical I/O can be inspected
    /// in isolation.
    pub fn storage_reset_for_probe(&mut self) {
        self.storage.reset_stats();
    }

    /// Clears the engine's observability counters so the next test's
    /// activity can be read in isolation. Simulation state is untouched.
    pub fn reset_counters(&mut self) {
        self.counters = EngineCounters::default();
        self.ops_at_counter_reset = self.ops;
        self.disk_full_at_counter_reset = self.disk_full_events;
    }

    /// Engine counters accumulated since the last [`Self::reset_counters`].
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            operations: self.ops - self.ops_at_counter_reset,
            disk_full_events: self.disk_full_events - self.disk_full_at_counter_reset,
            ..self.counters.clone()
        }
    }

    /// Snapshots the full observability view of the run so far: the disk
    /// system's per-phase decomposition over `window_ms`, the engine
    /// counters since the last reset, and the allocator's gauges. Pure
    /// read — calling it changes no simulation state or RNG draw.
    pub fn metrics_snapshot(&self, test: &str, window_ms: f64) -> TestMetrics {
        TestMetrics {
            test: test.to_string(),
            window_ms,
            storage: StorageMetrics::from_stats(&self.storage.stats(), window_ms),
            engine: self.engine_counters(),
            alloc: AllocGauges {
                policy: self.policy.name().to_string(),
                utilization: self.utilization(),
                frag: self.policy.frag_gauges(),
            },
        }
    }

    fn to_units(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.unit_bytes).max(1)
    }

    fn hints(t: &FileTypeConfig) -> FileHints {
        FileHints { mean_extent_bytes: t.allocation_size_bytes }
    }

    /// §2.2 phase two: "the files are created. For each file a size is
    /// selected from a uniform distribution … Allocation requests are made
    /// until the allocation length of the file is greater than or equal to
    /// this size." Requests are made in read/write-sized chunks, which is
    /// what lets the buddy policy's doubling rule unfold naturally.
    fn initialize_files(&mut self) {
        for t_idx in 0..self.types.len() {
            for _ in 0..self.types[t_idx].num_files {
                let target_bytes = self.types[t_idx].sample_initial_bytes(&mut self.rng);
                let policy_id = match self.policy.create(&Self::hints(&self.types[t_idx])) {
                    Ok(id) => id,
                    Err(_) => {
                        self.disk_full_events += 1;
                        continue;
                    }
                };
                let pos = small_u32(self.files_by_type[t_idx].len());
                let file_idx = self.files.push(policy_id, small_u32(t_idx), pos);
                self.files_by_type[t_idx].push(file_idx);
                let target_units = self.to_units(target_bytes);
                self.grow_file(file_idx as usize, target_units);
            }
        }
    }

    /// Grows `file` by repeated chunked extends until its logical size
    /// reaches `target_units` (or the disk fills). No I/O is charged.
    fn grow_file(&mut self, file_idx: usize, target_units: u64) {
        let chunk = self.to_units(self.types[self.files.type_idx[file_idx] as usize].rw_size_bytes);
        while self.files.logical_units[file_idx] < target_units {
            let delta = chunk.min(target_units - self.files.logical_units[file_idx]);
            if self.ensure_allocated(file_idx, delta).is_err() {
                self.disk_full_events += 1;
                break;
            }
            self.files.logical_units[file_idx] += delta;
        }
    }

    /// Makes sure `delta` more units fit in the file's allocation,
    /// extending through the policy when needed ("each time a file grows
    /// beyond its current allocation").
    fn ensure_allocated(&mut self, file_idx: usize, delta: u64) -> Result<(), AllocError> {
        let policy_id = self.files.policy_id[file_idx];
        let allocated = self.policy.allocated_units(policy_id)?;
        let needed = (self.files.logical_units[file_idx] + delta).saturating_sub(allocated);
        if needed > 0 {
            self.policy.extend(policy_id, needed)?;
        }
        Ok(())
    }

    /// Fills the disk to the lower utilization bound `N` before a
    /// performance test — "the lower bound, N, indicates how full the disk
    /// system should be before measurements begin". Files are grown
    /// round-robin in rw-sized chunks; no I/O is charged.
    fn fill_to_lower_bound(&mut self) {
        let nfiles = self.files.len();
        if nfiles == 0 {
            return;
        }
        let mut idx = 0;
        let mut failures = 0;
        while self.utilization() < self.util_lower && failures < nfiles {
            let file_idx = idx % nfiles;
            idx += 1;
            if !self.files.live[file_idx] {
                failures += 1;
                continue;
            }
            let chunk = self.to_units(self.types[self.files.type_idx[file_idx] as usize].rw_size_bytes);
            if self.ensure_allocated(file_idx, chunk).is_ok() {
                self.files.logical_units[file_idx] += chunk;
                failures = 0;
            } else {
                failures += 1;
            }
        }
    }

    /// Discards pending events and schedules every user afresh: start times
    /// uniform in `[now, now + users × hit frequency)` per §2.2 phase one.
    fn schedule_users(&mut self) {
        self.queue = EventQueue::new();
        self.users.clear();
        for (t_idx, t) in self.types.iter().enumerate() {
            let spread = f64::from(t.num_users) * t.hit_frequency_ms;
            let t32 = small_u32(t_idx);
            for _ in 0..t.num_users {
                let user = UserId(self.users.push(t32));
                let start = self.clock + SimDuration::from_ms(self.rng.uniform_f64(0.0, spread.max(1.0)));
                self.queue.schedule(start, user);
            }
        }
    }

    /// Processes one event: pops the head, draws every random value (file,
    /// op choice, sizes, think time) in a fixed order and runs the
    /// operation — its allocator side, plus its I/O outside the allocation
    /// test. When an operation ran, its issue→completion latency is
    /// recorded; the transfer's service window goes to `meter`, and the
    /// user's next event is scheduled at `completion + Exp(process time)`.
    fn step(&mut self, mode: Mode, meter: Option<&mut ThroughputMeter>) -> StepOutcome {
        // simlint::allow(r3, "every caller refills the queue before stepping; asserted by the run loops")
        let ev = self.queue.pop().unwrap_or_else(|| unreachable!("step called with an empty queue"));
        self.counters.events += 1;
        self.clock = ev.time;
        let t_idx = self.users.type_of(ev.user.0) as usize;
        let mut outcome = StepOutcome::Ran;
        let mut completion = self.clock;
        // A user whose file type has no live files runs no operation.
        if !self.files_by_type[t_idx].is_empty() {
            let file_idx =
                self.files_by_type[t_idx][self.rng.index(self.files_by_type[t_idx].len())] as usize;
            let op = {
                let t = &self.types[t_idx];
                match mode {
                    Mode::Application => t.choose_op(&mut self.rng),
                    Mode::Sequential => t.choose_sequential_op(&mut self.rng),
                    Mode::AllocationOnly => t.choose_allocation_op(&mut self.rng),
                }
            };
            (outcome, completion) = self.execute(file_idx, op, mode);
            self.ops += 1;
            self.record_latency(completion.since(ev.time).as_ms());
        }
        let think_ms = self.rng.exponential(self.types[t_idx].process_time_ms);
        if let Some((begin, end, bytes)) = self.pending_span.take() {
            if let Some(m) = meter {
                m.add_span(begin, end, bytes);
            }
        }
        self.queue.schedule(completion + SimDuration::from_ms(think_ms), ev.user);
        outcome
    }

    /// Records one completed operation's issue→completion latency: into
    /// the exact buffer while it has room (the `PerfReport` percentiles),
    /// counting overflow instead of silently clipping, and into the
    /// uncapped log-bucketed reservoir (the `*.hist.json` percentiles).
    fn record_latency(&mut self, latency_ms: f64) {
        if self.latencies.len() < self.latency_sample_cap {
            self.latencies.push(latency_ms);
        } else {
            self.dropped_latencies += 1;
        }
        self.hist.record_ms(latency_ms);
    }

    /// Resets the latency measurement state (exact buffer, overflow count,
    /// bucketed reservoir) at the start of a test.
    fn reset_latencies(&mut self) {
        self.latencies.clear();
        self.dropped_latencies = 0;
        self.hist.reset();
    }

    /// Log-bucketed latency snapshot of the samples recorded since the
    /// last measurement reset, labelled with the test name. Pure read.
    pub fn latency_hist(&self, test: &str) -> TestHist {
        self.hist.snapshot(test, self.dropped_latencies)
    }

    /// Executes one operation against one file. Returns (outcome,
    /// completion time). I/O is charged except in allocation mode.
    fn execute(&mut self, file_idx: usize, op: OpKind, mode: Mode) -> (StepOutcome, SimTime) {
        let io = mode != Mode::AllocationOnly;
        let whole_file = mode == Mode::Sequential;
        match op {
            OpKind::Read | OpKind::Write => {
                let logical = self.files.logical_units[file_idx];
                if logical == 0 {
                    // Nothing to transfer yet; grow instead (a brand-new
                    // file's first operation is its creation write).
                    return self.do_extend(file_idx, mode);
                }
                let t_idx = self.files.type_idx[file_idx] as usize;
                let size = if whole_file {
                    logical
                } else {
                    let bytes = self.types[t_idx].sample_rw_bytes(&mut self.rng);
                    self.to_units(bytes).min(logical)
                };
                let offset = if whole_file {
                    0
                } else if self.types[t_idx].sequential_access {
                    let cursor = &mut self.files.cursor[file_idx];
                    if *cursor + size > logical {
                        *cursor = 0;
                    }
                    let off = *cursor;
                    *cursor += size;
                    off
                } else {
                    let off = self.rng.uniform_u64(0, logical - size);
                    let t = &self.types[t_idx];
                    if t.page_aligned {
                        // Database-style page access: offsets fall on
                        // page (mean r/w size) boundaries.
                        let page = self.to_units(t.rw_size_bytes);
                        off / page * page
                    } else {
                        off
                    }
                };
                let kind = if matches!(op, OpKind::Read) { IoKind::Read } else { IoKind::Write };
                let completion = self.transfer(file_idx, offset, size, kind, io);
                (StepOutcome::Ran, completion)
            }
            OpKind::Extend => {
                // "Any extend operation occurring when the disk utilization
                // is greater than M is converted into a truncate operation."
                if mode != Mode::AllocationOnly && self.utilization() > self.util_upper {
                    return (self.do_truncate(file_idx), self.clock);
                }
                self.do_extend(file_idx, mode)
            }
            OpKind::Truncate => (self.do_truncate(file_idx), self.clock),
            OpKind::Delete => self.do_delete(file_idx, mode),
        }
    }

    /// Maps a logical range through the file's extent map and submits the
    /// physical runs, staging the metered span in `pending_span`. Returns
    /// the completion time.
    fn transfer(&mut self, file_idx: usize, offset_units: u64, size_units: u64, kind: IoKind, io: bool) -> SimTime {
        if !io || size_units == 0 {
            return self.clock;
        }
        self.counters.transfers += 1;
        // Reuse one scratch buffer for the extent-map lookup: this runs
        // once per simulated operation and a fresh Vec here dominated the
        // allocator profile.
        let mut runs = std::mem::take(&mut self.runs_scratch);
        self.policy
            .file_map(self.files.policy_id[file_idx])
            // simlint::allow(r3, "file_idx is drawn from the live set on the previous step")
            .unwrap_or_else(|_| unreachable!("transfer targets a live file"))
            .map_range_into(offset_units, size_units, &mut runs);
        let mut begin = SimTime::MAX;
        let mut completion = self.clock;
        for r in &runs {
            let span = self.storage.submit(self.clock, &IoRequest { unit: r.start, units: r.len, kind });
            begin = begin.min(span.begin);
            completion = completion.max(span.end);
        }
        self.runs_scratch = runs;
        // Bytes are attributed over the *service* window (when disks
        // actually move them), not the queue window — otherwise many
        // concurrent ops all smeared from their identical issue times
        // would inflate the early measurement intervals.
        self.pending_span = Some((begin.min(completion), completion, size_units * self.unit_bytes));
        completion
    }

    fn do_extend(&mut self, file_idx: usize, mode: Mode) -> (StepOutcome, SimTime) {
        let t = &self.types[self.files.type_idx[file_idx] as usize];
        let bytes = t.sample_rw_bytes(&mut self.rng);
        let delta = self.to_units(bytes);
        if self.ensure_allocated(file_idx, delta).is_err() {
            self.disk_full_events += 1;
            return (StepOutcome::AllocationFailed, self.clock);
        }
        let old_logical = self.files.logical_units[file_idx];
        self.files.logical_units[file_idx] += delta;
        let io = mode != Mode::AllocationOnly;
        let completion = self.transfer(file_idx, old_logical, delta, IoKind::Write, io);
        (StepOutcome::Ran, completion)
    }

    fn do_truncate(&mut self, file_idx: usize) -> StepOutcome {
        let t_units = self.to_units(self.types[self.files.type_idx[file_idx] as usize].truncate_size_bytes);
        let policy_id = self.files.policy_id[file_idx];
        let new_logical = self.files.logical_units[file_idx].saturating_sub(t_units);
        self.files.logical_units[file_idx] = new_logical;
        let allocated = self
            .policy
            .allocated_units(policy_id)
            // simlint::allow(r3, "file_idx is drawn from the live set on the previous step")
            .unwrap_or_else(|_| unreachable!("truncate targets a live file"));
        let reclaimable = allocated.saturating_sub(new_logical);
        if reclaimable > 0 {
            self.policy
                .truncate(policy_id, reclaimable)
                // simlint::allow(r3, "same live file as the allocated_units call above")
                .unwrap_or_else(|_| unreachable!("truncate targets a live file"));
        }
        StepOutcome::Ran
    }

    /// Deletes the file and immediately re-creates it at a fresh initial
    /// size (§3's "create" operation: the live-file population is
    /// stationary). In I/O modes the re-created contents are written out,
    /// which is the "created, read, and deleted" traffic of the TS workload.
    fn do_delete(&mut self, file_idx: usize, mode: Mode) -> (StepOutcome, SimTime) {
        let t_idx = self.files.type_idx[file_idx] as usize;
        self.policy
            .delete(self.files.policy_id[file_idx])
            // simlint::allow(r3, "file_idx is drawn from the live set on the previous step")
            .unwrap_or_else(|_| unreachable!("delete targets a live file"));
        let hints = Self::hints(&self.types[t_idx]);
        let Ok(new_id) = self.policy.create(&hints) else {
            self.disk_full_events += 1;
            // The file is gone and could not be re-registered; retire it.
            self.retire_file(file_idx);
            return (StepOutcome::AllocationFailed, self.clock);
        };
        self.files.policy_id[file_idx] = new_id;
        self.files.logical_units[file_idx] = 0;
        self.files.cursor[file_idx] = 0;
        let target_bytes = self.types[t_idx].sample_initial_bytes(&mut self.rng);
        let target_units = self.to_units(target_bytes);
        self.grow_file(file_idx, target_units);
        let grown = self.files.logical_units[file_idx];
        let io = mode != Mode::AllocationOnly;
        let completion = self.transfer(file_idx, 0, grown, IoKind::Write, io);
        // grow_file logged any disk-full condition and stopped short.
        let outcome = if grown < target_units { StepOutcome::AllocationFailed } else { StepOutcome::Ran };
        (outcome, completion)
    }

    /// Drops a retired file from the per-type selection index in O(1):
    /// the index's last entry is swapped into the vacated slot and its
    /// `pos_in_type` updated to match.
    fn retire_file(&mut self, file_idx: usize) {
        let t_idx = self.files.type_idx[file_idx] as usize;
        let pos = self.files.pos_in_type[file_idx] as usize;
        debug_assert_eq!(
            self.files_by_type[t_idx][pos] as usize,
            file_idx,
            "pos_in_type out of sync"
        );
        self.files_by_type[t_idx].swap_remove(pos);
        if let Some(&moved) = self.files_by_type[t_idx].get(pos) {
            self.files.pos_in_type[moved as usize] = small_u32(pos);
        }
        self.files.live[file_idx] = false;
        self.files.logical_units[file_idx] = 0;
    }

    /// Runs the policy's offline reallocation pass (Koch's nightly
    /// reallocator for the buddy policy), charging no I/O time — the paper
    /// describes it running "at night". Returns the number of units
    /// rewritten, or `None` for policies without a reallocator.
    pub fn run_reallocation(&mut self) -> Option<u64> {
        let mut logical = std::mem::take(&mut self.realloc_scratch);
        logical.clear();
        logical.extend(
            (0..self.files.len())
                .filter(|&i| self.files.live[i])
                .map(|i| (self.files.policy_id[i], self.files.logical_units[i])),
        );
        let moved = self
            .policy
            .reallocate(&logical)
            // simlint::allow(r3, "the snapshot filters on f.live immediately above")
            .unwrap_or_else(|_| unreachable!("reallocation snapshot holds only live files"));
        self.realloc_scratch = logical;
        moved
    }

    /// §3's allocation test: "run by performing only the extend, truncate,
    /// delete, and create operations … As soon as the first allocation
    /// request fails, the external and internal fragmentation are computed."
    pub fn run_allocation_test(&mut self) -> FragReport {
        self.reset_latencies();
        self.schedule_users();
        let start_ops = self.ops;
        loop {
            if self.queue.is_empty() || self.ops - start_ops >= self.max_allocation_ops {
                break;
            }
            if self.step(Mode::AllocationOnly, None) == StepOutcome::AllocationFailed {
                break;
            }
        }
        self.fragmentation_report(self.ops - start_ops)
    }

    /// Computes the §3 fragmentation metrics from the current state.
    pub fn fragmentation_report(&self, operations: u64) -> FragReport {
        let mut allocated = 0u64;
        let mut used = 0u64;
        let mut extents = 0usize;
        let mut live = 0u64;
        for i in 0..self.files.len() {
            if !self.files.live[i] {
                continue;
            }
            let policy_id = self.files.policy_id[i];
            let a = self
                .policy
                .allocated_units(policy_id)
                // simlint::allow(r3, "the loop skips non-live files two lines up")
                .unwrap_or_else(|_| unreachable!("fragmentation_report visits live files only"));
            allocated += a;
            used += self.files.logical_units[i].min(a);
            extents += self
                .policy
                .allocation_count(policy_id)
                // simlint::allow(r3, "the loop skips non-live files above")
                .unwrap_or_else(|_| unreachable!("fragmentation_report visits live files only"));
            live += 1;
        }
        let internal_pct = if allocated == 0 {
            0.0
        } else {
            100.0 * (allocated - used) as f64 / allocated as f64
        };
        let external_pct = 100.0 * self.policy.free_units() as f64 / self.policy.capacity_units() as f64;
        FragReport {
            internal_pct,
            external_pct,
            live_files: live,
            avg_extents_per_file: if live == 0 { 0.0 } else { extents as f64 / live as f64 },
            utilization: self.utilization(),
            operations,
        }
    }

    /// §3's application performance test: full operation mix, disk held
    /// between N and M full, run until the throughput stabilizes.
    pub fn run_application_test(&mut self) -> PerfReport {
        self.run_perf(Mode::Application)
    }

    /// §3's sequential performance test: "only read and write operations
    /// are performed and each read or write is to an entire file."
    pub fn run_sequential_test(&mut self) -> PerfReport {
        self.run_perf(Mode::Sequential)
    }

    /// The measurement shared by both performance tests: top the disk up
    /// to the lower bound, let a previous test's backlog drain, schedule
    /// every user afresh, then step each event in queue order until the
    /// stop rule fires, and report.
    ///
    /// The stop checks run once per measurement interval, at its first
    /// event: their verdicts depend only on the complete intervals, which
    /// no later event of the same interval changes (spans begin at or after
    /// the event's time, and `total_bytes` only grows).
    fn run_perf(&mut self, mode: Mode) -> PerfReport {
        self.fill_to_lower_bound();
        // Let any backlog from a previous test drain before measuring, so
        // this test's intervals reflect only its own traffic.
        self.clock = self.clock.max(self.storage.next_idle());
        self.schedule_users();
        self.reset_latencies();
        let ops_before = self.ops;
        let disk_full_before = self.disk_full_events;
        let mut meter = ThroughputMeter::new(self.clock, self.interval);
        let mut steps: u64 = 0;
        let mut last_eval: Option<usize> = None;
        let (stabilized, throughput_pct) = loop {
            let Some(t_next) = self.queue.peek_time() else {
                break (false, 0.0);
            };
            let iv = meter.complete_intervals(t_next);
            if last_eval != Some(iv) {
                if let Some(verdict) = self.stop_verdict(&meter, t_next, iv) {
                    break verdict;
                }
                last_eval = Some(iv);
            }
            self.step(mode, Some(&mut meter));
            steps += 1;
            // "The disk utilization is kept between N and M while
            // measurements are being taken": the upper bound is enforced by
            // extend→truncate conversion; the lower bound by topping the
            // disk back up when deletions drain it (no I/O charged, like
            // the initial fill).
            if steps.is_multiple_of(256) && self.utilization() < self.util_lower - 0.02 {
                self.counters.refill_passes += 1;
                self.fill_to_lower_bound();
            }
        };
        let end = self.clock.max(meter.last_span_end());
        let frag = self.fragmentation_report(0);
        let (p50, p99) = self.final_percentiles();
        PerfReport {
            throughput_pct,
            max_bandwidth_mb_s: self.max_bw * 1000.0 / (1024.0 * 1024.0),
            throughput_mb_s: throughput_pct / 100.0 * self.max_bw * 1000.0 / (1024.0 * 1024.0),
            stabilized,
            measured_ms: end.since(meter.start_time()).as_ms(),
            bytes_moved: meter.total_bytes() as u64,
            operations: self.ops - ops_before,
            disk_full_events: self.disk_full_events - disk_full_before,
            op_latency_p50_ms: p50,
            op_latency_p99_ms: p99,
            avg_extents_per_file: frag.avg_extents_per_file,
        }
    }

    /// Final p50/p99 of the current measurement. While the exact buffer
    /// held every sample it is authoritative (one in-place sort serves both
    /// percentiles; the buffer is cleared at the start of each measurement
    /// anyway). Once the cap clipped samples, the buffer is a *prefix* of
    /// the run — early samples only, which skews tails badly on workloads
    /// that degrade over time — so the percentiles come from the uncapped
    /// log-bucketed reservoir instead (≤ 1.6 % relative bucket error).
    fn final_percentiles(&mut self) -> (f64, f64) {
        if self.dropped_latencies > 0 {
            (
                self.hist.percentile_us(0.50) as f64 / 1000.0,
                self.hist.percentile_us(0.99) as f64 / 1000.0,
            )
        } else {
            self.latencies.sort_by(f64::total_cmp);
            let p50 = crate::measure::percentile_of_sorted_ms(&self.latencies, 0.50);
            let p99 = crate::measure::percentile_of_sorted_ms(&self.latencies, 0.99);
            (p50, p99)
        }
    }

    /// The stop rule at head event time `t_next`, with `iv` complete
    /// intervals: `(true, pct)` once the throughput has stabilized,
    /// `(false, recent mean)` when the interval cap is reached, `None` to
    /// go on.
    fn stop_verdict(
        &self,
        meter: &ThroughputMeter,
        t_next: SimTime,
        iv: usize,
    ) -> Option<(bool, f64)> {
        if let Some(pct) = meter.stabilized(
            t_next,
            self.max_bw,
            self.stabilize_window,
            self.stabilize_tolerance_pct,
        ) {
            return Some((true, pct));
        }
        if iv >= self.max_intervals {
            let pct = meter.recent_mean_pct(t_next, self.max_bw, self.stabilize_window);
            return Some((false, pct));
        }
        None
    }

    /// Runs the paper's full §3 evaluation for this configuration on three
    /// fresh simulations (so the allocation test's deliberately-filled disk
    /// does not poison the performance tests): allocation, application,
    /// then sequential.
    pub fn run_suite(config: &SimConfig, seed: u64, workload_name: &str) -> SuiteReport {
        let mut alloc_sim = Simulation::new(config, seed);
        let fragmentation = alloc_sim.run_allocation_test();
        let mut perf_sim = Simulation::new(config, seed.wrapping_add(1));
        let application = perf_sim.run_application_test();
        let sequential = perf_sim.run_sequential_test();
        SuiteReport {
            policy: config.policy.family().to_string(),
            workload: workload_name.to_string(),
            fragmentation,
            application,
            sequential,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readopt_alloc::{ExtentConfig, FitStrategy, PolicyConfig};
    use readopt_disk::ArrayConfig;

    /// An extent policy sized for the unit-test workload below (8 KB
    /// extents; the paper-scale 512 KB+ ranges would dwarf 256 KB files).
    fn small_extent_policy() -> PolicyConfig {
        PolicyConfig::Extent(ExtentConfig {
            range_means_bytes: vec![8 * 1024, 64 * 1024],
            fit: FitStrategy::FirstFit,
            sigma_frac: 0.1,
        })
    }

    /// A small, fast configuration: 8 scaled disks (~44 MB), one file type
    /// with the full operation mix (deletes included).
    fn small_config(policy: PolicyConfig) -> SimConfig {
        let array = ArrayConfig::scaled(64);
        let t = FileTypeConfig {
            num_files: 64,
            num_users: 8,
            initial_size_bytes: 256 * 1024,
            initial_deviation_bytes: 64 * 1024,
            ..FileTypeConfig::default()
        };
        let mut c = SimConfig::new(array, policy, vec![t]);
        c.max_intervals = 6;
        c.max_allocation_ops = 3_000_000;
        c
    }

    /// Like [`small_config`] but with deallocations limited to truncates,
    /// so the population drifts upward and the allocation test reaches
    /// disk-full (a delete-recreate population is stationary by design and
    /// would equilibrate below capacity).
    fn fill_config(policy: PolicyConfig) -> SimConfig {
        let mut c = small_config(policy);
        c.file_types[0].delete_fraction = 0.0;
        c.file_types[0].truncate_size_bytes = 8 * 1024;
        c
    }

    #[test]
    fn initialization_reaches_target_sizes() {
        let c = small_config(small_extent_policy());
        let sim = Simulation::new(&c, 1);
        assert_eq!(sim.files.len(), 64);
        for i in 0..sim.files.len() {
            assert!(sim.files.logical_units[i] >= (256 - 64) * 1024 / 1024, "file too small");
            assert!(
                sim.policy.allocated_units(sim.files.policy_id[i]).unwrap()
                    >= sim.files.logical_units[i],
                "allocation below logical size"
            );
        }
        sim.policy.check_invariants();
    }

    #[test]
    fn allocation_test_fills_the_disk() {
        let c = fill_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 2);
        let frag = sim.run_allocation_test();
        assert!(frag.utilization > 0.80, "utilization {}", frag.utilization);
        assert!(frag.external_pct < 20.0);
        assert!(frag.internal_pct >= 0.0 && frag.internal_pct <= 100.0);
        assert!(frag.operations > 0);
        sim.policy.check_invariants();
    }

    #[test]
    fn buddy_has_more_internal_fragmentation_than_extent() {
        let cb = fill_config(PolicyConfig::paper_buddy());
        let ce = fill_config(small_extent_policy());
        let fb = Simulation::new(&cb, 3).run_allocation_test();
        let fe = Simulation::new(&ce, 3).run_allocation_test();
        assert!(
            fb.internal_pct > fe.internal_pct,
            "buddy {} vs extent {}",
            fb.internal_pct,
            fe.internal_pct
        );
    }

    #[test]
    fn application_test_reports_throughput() {
        let c = small_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 4);
        let perf = sim.run_application_test();
        assert!(perf.throughput_pct > 0.0, "no throughput measured");
        assert!(perf.throughput_pct <= 100.0 + 1e-6, "throughput {}%", perf.throughput_pct);
        assert!(perf.bytes_moved > 0);
        assert!(perf.operations > 0);
        let util = sim.utilization();
        assert!(util >= 0.85, "utilization window not honoured: {util}");
        sim.policy.check_invariants();
    }

    #[test]
    fn sequential_beats_application_for_contiguous_policies() {
        let c = small_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 5);
        let app = sim.run_application_test();
        let seq = sim.run_sequential_test();
        assert!(
            seq.throughput_pct > app.throughput_pct,
            "sequential {} vs application {}",
            seq.throughput_pct,
            app.throughput_pct
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let c = fill_config(PolicyConfig::paper_restricted());
        let a = Simulation::new(&c, 7).run_allocation_test();
        let b = Simulation::new(&c, 7).run_allocation_test();
        assert_eq!(a, b);
        let x = Simulation::new(&c, 8).run_allocation_test();
        assert!(a != x, "different seeds should (almost surely) differ");
    }

    #[test]
    fn utilization_window_converts_extends() {
        let c = small_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 9);
        let _ = sim.run_application_test();
        // Must never exceed the upper bound by more than one op's worth.
        assert!(sim.utilization() <= 0.97, "utilization {}", sim.utilization());
    }

    #[test]
    fn sequential_test_copes_with_empty_files() {
        // Files whose logical size is zero must not wedge the whole-file
        // test: reads degrade to extends and the run still completes.
        let mut c = small_config(small_extent_policy());
        c.file_types[0].initial_size_bytes = 1; // all files ~empty
        c.file_types[0].initial_deviation_bytes = 0;
        let mut sim = Simulation::new(&c, 31);
        let seq = sim.run_sequential_test();
        assert!(seq.operations > 0);
        sim.policy().check_invariants();
    }

    #[test]
    fn suite_report_displays_headline_numbers() {
        let c = fill_config(small_extent_policy());
        let report = Simulation::run_suite(&c, 10, "demo");
        let text = report.to_string();
        assert!(text.contains("extent / demo"));
        assert!(text.contains("fragmentation:"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn reallocation_is_none_for_policies_without_one() {
        let c = small_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 12);
        assert_eq!(sim.run_reallocation(), None);
        let cb = small_config(PolicyConfig::paper_buddy());
        let mut sim = Simulation::new(&cb, 12);
        let moved = sim.run_reallocation().expect("buddy reallocates");
        assert!(moved > 0);
        sim.policy().check_invariants();
    }

    #[test]
    fn page_aligned_types_issue_single_disk_reads() {
        // 16 KB page-aligned reads against a 24 KB stripe unit: pages at
        // offsets 0/16/32/48 KB… cross a stripe-unit boundary only when
        // they straddle a 24 KB line — but with *unaligned* offsets nearly
        // every read would. Verify alignment reduces physical requests.
        let mut counts = Vec::new();
        for aligned in [true, false] {
            let mut c = small_config(small_extent_policy());
            c.file_types[0].rw_size_bytes = 16 * 1024;
            c.file_types[0].rw_deviation_bytes = 0;
            c.file_types[0].page_aligned = aligned;
            c.file_types[0].read_pct = 80.0;
            c.file_types[0].write_pct = 0.0;
            c.file_types[0].extend_pct = 15.0;
            c.file_types[0].deallocate_pct = 5.0;
            let mut sim = Simulation::new(&c, 21);
            let perf = sim.run_application_test();
            let stats = sim.storage().stats();
            let reqs_per_op = stats.combined().requests as f64 / perf.operations as f64;
            counts.push(reqs_per_op);
        }
        assert!(
            counts[0] < counts[1],
            "aligned {} vs unaligned {} physical requests per op",
            counts[0],
            counts[1]
        );
    }

    /// Regression for the clipped-percentile bug: once the exact latency
    /// buffer hit its cap, p50/p99 were computed over the *prefix* of the
    /// run that fit — so a workload that degrades after the cap reported
    /// tails from its healthy early phase. The fix switches to the uncapped
    /// log-bucketed reservoir whenever samples were dropped.
    #[test]
    fn clipped_latency_tail_comes_from_the_reservoir() {
        let mut c = small_config(small_extent_policy());
        c.latency_sample_cap = 100;
        let mut sim = Simulation::new(&c, 50);
        sim.reset_latencies();
        // 100 fast samples fill the exact buffer, then 900 slow ones
        // overflow: the run degrades *after* the cap, precisely the case
        // the clipped prefix used to hide.
        for _ in 0..100 {
            sim.record_latency(1.0);
        }
        for _ in 0..900 {
            sim.record_latency(250.0);
        }
        assert_eq!(sim.dropped_latencies, 900);
        // The old path — percentiles over the clipped prefix — would have
        // reported a 1 ms p99 for a run whose true p99 is 250 ms.
        let mut prefix = sim.latencies.clone();
        prefix.sort_by(f64::total_cmp);
        assert_eq!(crate::measure::percentile_of_sorted_ms(&prefix, 0.99), 1.0);
        // The fixed path: the reservoir absorbed every sample, so the tail
        // is right (to within its 1.6 % bucket error; exact here because
        // all clipped samples are identical).
        let (p50, p99) = sim.final_percentiles();
        assert!((p50 - 250.0).abs() <= 250.0 / 32.0, "p50 {p50}");
        assert!((p99 - 250.0).abs() <= 250.0 / 32.0, "p99 {p99}");
        // Under the cap, the exact buffer stays authoritative.
        sim.reset_latencies();
        for i in 0..50u8 {
            sim.record_latency(f64::from(i));
        }
        assert_eq!(sim.dropped_latencies, 0);
        let (p50, p99) = sim.final_percentiles();
        assert_eq!((p50, p99), (24.0, 49.0), "exact nearest-rank when nothing dropped");
    }

    #[test]
    fn metrics_snapshot_is_a_pure_read() {
        let c = small_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 40);
        sim.reset_counters();
        sim.storage_reset_for_probe();
        let perf = sim.run_application_test();
        let a = sim.metrics_snapshot("application", perf.measured_ms);
        let b = sim.metrics_snapshot("application", perf.measured_ms);
        assert_eq!(a, b, "snapshotting twice yields identical views");
        assert!(a.engine.events >= a.engine.operations);
        assert!(a.engine.operations > 0);
        assert!(a.engine.transfers > 0);
        assert_eq!(a.storage.per_disk.len(), sim.storage().ndisks());
        for d in &a.storage.per_disk {
            assert!(d.utilization <= 1.0);
            assert!((d.busy_ms - (d.seek_ms + d.rotational_ms + d.transfer_ms)).abs() < 1e-6);
        }
        assert_eq!(a.alloc.frag.free_units, sim.policy().free_units());
    }

    #[test]
    fn metrics_layer_changes_no_results() {
        // The acceptance bar for the observability layer: a run that
        // resets/reads counters and takes snapshots produces the exact
        // same reports as one that never touches the layer.
        let c = small_config(small_extent_policy());
        let mut plain = Simulation::new(&c, 41);
        let p_app = plain.run_application_test();
        let p_seq = plain.run_sequential_test();

        let mut observed = Simulation::new(&c, 41);
        observed.reset_counters();
        observed.storage_reset_for_probe();
        let o_app = observed.run_application_test();
        let _ = observed.metrics_snapshot("application", o_app.measured_ms);
        observed.reset_counters();
        observed.storage_reset_for_probe();
        let o_seq = observed.run_sequential_test();
        let _ = observed.metrics_snapshot("sequential", o_seq.measured_ms);

        assert_eq!(p_app, o_app);
        assert_eq!(p_seq, o_seq);
    }

    /// Asserts `files_by_type` and `pos_in_type` mirror each other exactly
    /// and list precisely the live files.
    fn assert_selection_index_consistent(sim: &Simulation) {
        for (t_idx, idxs) in sim.files_by_type.iter().enumerate() {
            for (pos, &file_idx) in idxs.iter().enumerate() {
                let i = file_idx as usize;
                assert!(sim.files.live[i], "retired file {file_idx} still selectable");
                assert_eq!(
                    sim.files.type_idx[i] as usize,
                    t_idx,
                    "file {file_idx} listed under wrong type"
                );
                assert_eq!(
                    sim.files.pos_in_type[i] as usize,
                    pos,
                    "stale pos_in_type for file {file_idx}"
                );
            }
        }
        let listed: usize = sim.files_by_type.iter().map(Vec::len).sum();
        let live = (0..sim.files.len()).filter(|&i| sim.files.live[i]).count();
        assert_eq!(listed, live, "index and live population disagree");
    }

    #[test]
    fn retire_swap_remove_keeps_selection_index_consistent() {
        let c = small_config(small_extent_policy());
        let mut sim = Simulation::new(&c, 17);
        assert_selection_index_consistent(&sim);
        // Retire from the middle, the front, and the back: each swap-remove
        // moves a different entry (or none) into the vacated slot.
        for file_idx in [20, 0, sim.files.len() - 1, 21] {
            sim.policy.delete(sim.files.policy_id[file_idx]).unwrap();
            sim.retire_file(file_idx);
            assert!(!sim.files.live[file_idx]);
            assert_selection_index_consistent(&sim);
        }
        // The engine still runs (selection draws only from live files) and
        // retired slots never come back.
        let perf = sim.run_application_test();
        assert!(perf.operations > 0);
        assert_selection_index_consistent(&sim);
    }

    #[test]
    fn retire_last_file_of_a_type_empties_its_index() {
        let mut c = small_config(small_extent_policy());
        c.file_types[0].num_files = 1;
        let mut sim = Simulation::new(&c, 18);
        sim.policy.delete(sim.files.policy_id[0]).unwrap();
        sim.retire_file(0);
        assert!(sim.files_by_type[0].is_empty());
        assert_selection_index_consistent(&sim);
        // Stepping with an empty population must not panic or select.
        let seq = sim.run_sequential_test();
        assert_eq!(seq.operations, 0);
    }

    #[test]
    fn suite_produces_full_report() {
        let c = fill_config(PolicyConfig::fixed_4k());
        let report = Simulation::run_suite(&c, 10, "unit-test");
        assert_eq!(report.policy, "fixed");
        assert_eq!(report.workload, "unit-test");
        assert!(report.sequential.throughput_pct > 0.0);
    }
}
