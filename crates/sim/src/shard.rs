//! The effect pipeline: a single simulation point's disk work on worker
//! threads (`SimConfig::shards` > 1 with at least two `shard_workers`).
//!
//! The serial engine interleaves two kinds of work in one loop: *decisions*
//! (which op a user performs, every RNG draw, every allocator call) and
//! *effects* (servicing the op's per-disk pieces against the disk-arm
//! model). Decisions form an inherently serial stream — each one depends on
//! the allocator and RNG state left by the last — but effects only touch
//! per-disk state, and under plain striping the pieces of one disk never
//! interact with another's. The pipeline splits along exactly that line:
//!
//! * the decision stream stays on one thread, popping the one event queue
//!   in the exact serial order (so every RNG draw and allocator mutation
//!   is bit-identical);
//! * disks are grouped `d mod shards`, and each worker thread owns the
//!   disks of a disjoint set of groups and services their pieces in
//!   decision order — a subsequence of the serial per-disk order, so every
//!   `Disk`'s f64 state evolves identically;
//! * completions are merged back and committed strictly in decision order,
//!   so the throughput meter, the latency buffer and the event queue see
//!   the same values in the same order as the serial loop.
//!
//! What keeps the decision stream in serial order is the *lookahead
//! window* (the pop rule in the engine's pipelined loop): an event at time
//! `h` may be decided while effects are still in flight only if
//! `h ≤ min(tᵢ + thinkᵢ)` over all in-flight events `i` — the earliest
//! time any pending completion could reschedule its user. Completions only
//! ever land at `completionᵢ + thinkᵢ ≥ tᵢ + thinkᵢ`, and an exact tie goes
//! to the already-queued event because pending reschedules always receive
//! larger sequence numbers from the queue's counter. The window is tracked
//! as a classic monotone min-deque.

use crate::event::UserId;
use readopt_disk::{Disk, PiecePlan, SimTime};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// One per-disk piece of one decided event, as shipped to a worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkItem {
    /// Decision-order id of the owning event (monotone from 0).
    pub event: u64,
    /// The event's decision time (the piece's `ready` time).
    pub ready: SimTime,
    /// The per-disk piece to service.
    pub plan: PiecePlan,
}

/// A worker's per-batch report for one event: the fold of its pieces'
/// service windows on that worker's disks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResultEntry {
    pub event: u64,
    pub begin: SimTime,
    pub end: SimTime,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned mutex means a worker panicked; the panic is re-raised at
    // join, so the state behind the lock is never used for results.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct InboxState {
    batches: VecDeque<Vec<WorkItem>>,
    closed: bool,
}

/// One worker's MPSC work feed: batches of [`WorkItem`]s plus a close flag.
#[derive(Debug, Default)]
pub(crate) struct WorkerInbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

impl WorkerInbox {
    fn send(&self, batch: Vec<WorkItem>) {
        let mut st = lock_ignore_poison(&self.state);
        st.batches.push_back(batch);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut st = lock_ignore_poison(&self.state);
        st.closed = true;
        self.ready.notify_one();
    }

    /// Blocks for the next batch; `None` once closed and drained.
    fn recv(&self) -> Option<Vec<WorkItem>> {
        let mut st = lock_ignore_poison(&self.state);
        loop {
            if let Some(batch) = st.batches.pop_front() {
                return Some(batch);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[derive(Debug, Default)]
struct ResultState {
    batches: Vec<Vec<ResultEntry>>,
    /// Set when a worker unwinds, so a blocked decision thread fails fast
    /// with a clear message instead of waiting for reports that will never
    /// arrive.
    dead: bool,
}

/// The workers' shared result channel back to the decision thread.
#[derive(Debug, Default)]
pub(crate) struct ResultChannel {
    state: Mutex<ResultState>,
    ready: Condvar,
}

impl ResultChannel {
    fn post(&self, batch: Vec<ResultEntry>) {
        let mut st = lock_ignore_poison(&self.state);
        st.batches.push(batch);
        self.ready.notify_one();
    }

    fn mark_dead(&self) {
        let mut st = lock_ignore_poison(&self.state);
        st.dead = true;
        self.ready.notify_all();
    }

    /// Takes whatever result batches have arrived, without blocking (an
    /// uncontended miss returns empty).
    pub(crate) fn drain_nonblocking(&self) -> Vec<Vec<ResultEntry>> {
        match self.state.try_lock() {
            Ok(mut st) => std::mem::take(&mut st.batches),
            Err(std::sync::TryLockError::Poisoned(p)) => std::mem::take(&mut p.into_inner().batches),
            Err(std::sync::TryLockError::WouldBlock) => Vec::new(),
        }
    }

    /// Blocks until at least one result batch is available, then takes all.
    ///
    /// # Panics
    ///
    /// If a worker died (unwound) while reports were still owed — the
    /// worker's own panic is re-raised when its scope joins.
    pub(crate) fn drain_blocking(&self) -> Vec<Vec<ResultEntry>> {
        let mut st = lock_ignore_poison(&self.state);
        loop {
            if !st.batches.is_empty() {
                return std::mem::take(&mut st.batches);
            }
            if st.dead {
                // simlint::allow(r3, "unblocks the decision thread so the worker's own panic can surface at join")
                panic!("an effect worker died with reports outstanding");
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The channel bundle connecting the decision thread to its workers.
#[derive(Debug)]
pub(crate) struct EffectChannels {
    pub(crate) inboxes: Vec<WorkerInbox>,
    pub(crate) results: ResultChannel,
}

impl EffectChannels {
    pub(crate) fn new(workers: usize) -> Self {
        EffectChannels {
            inboxes: (0..workers).map(|_| WorkerInbox::default()).collect(),
            results: ResultChannel::default(),
        }
    }

    pub(crate) fn close_all(&self) {
        for inbox in &self.inboxes {
            inbox.close();
        }
    }
}

/// Closes every worker inbox on drop, so workers terminate (and the scope
/// join completes) even when the decision loop unwinds from a panic.
pub(crate) struct CloseOnDrop<'a>(pub(crate) &'a EffectChannels);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close_all();
    }
}

/// Marks the result channel dead on drop; a worker thread arms one before
/// entering [`worker_loop`] and disarms it (via [`std::mem::forget`]) on a
/// normal return, so only an unwind trips it.
pub(crate) struct MarkDeadOnPanic<'a>(pub(crate) &'a ResultChannel);

impl Drop for MarkDeadOnPanic<'_> {
    fn drop(&mut self) {
        self.0.mark_dead();
    }
}

/// A worker's loop: service each batch's pieces against the owned disks,
/// folding consecutive same-event pieces into one [`ResultEntry`].
///
/// `owned` is a full-size disk table with `Some` only at indices this
/// worker owns; pieces arrive in decision order, which per disk is exactly
/// the order the serial engine would have serviced them in, with the same
/// `ready` times — so every [`Disk`]'s state trajectory is bit-identical.
pub(crate) fn worker_loop(
    inbox: &WorkerInbox,
    results: &ResultChannel,
    mut owned: Vec<Option<Disk>>,
) -> Vec<Option<Disk>> {
    while let Some(batch) = inbox.recv() {
        let mut out: Vec<ResultEntry> = Vec::with_capacity(batch.len());
        for item in &batch {
            let disk = match owned.get_mut(item.plan.disk).and_then(Option::as_mut) {
                Some(d) => d,
                // simlint::allow(r3, "routing invariant: the dispatcher only ships owned disks here")
                None => unreachable!("piece routed to a disk this worker does not own"),
            };
            let begin = disk.free_at().max(item.ready);
            let end =
                disk.service_bytes(item.ready, item.plan.start_byte, item.plan.len_bytes, item.plan.kind);
            match out.last_mut() {
                Some(e) if e.event == item.event => {
                    e.begin = e.begin.min(begin);
                    e.end = e.end.max(end);
                }
                _ => out.push(ResultEntry { event: item.event, begin, end }),
            }
        }
        if !out.is_empty() {
            results.post(out);
        }
    }
    owned
}

/// A decided-but-uncommitted event, tracked until all its pieces complete.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRec {
    pub user: UserId,
    /// Decision time (the serial loop's `clock` for this event).
    pub t: SimTime,
    /// The think-time draw made at decision time (drawn there so the RNG
    /// stream position matches the serial loop exactly).
    pub think_ms: f64,
    /// Whether an operation ran (gates the latency sample, like the serial
    /// loop's empty-file-population check).
    pub op_ran: bool,
    /// Bytes to attribute to the throughput meter (0 for I/O-free events).
    pub bytes: u64,
    /// Fold of the pieces' service-window starts (`MAX` until one lands).
    pub begin: SimTime,
    /// Fold of the pieces' completions, seeded with `t` — the serial
    /// `transfer` fold's `completion = max(clock, span.end, …)`.
    pub end: SimTime,
    /// Worker reports still outstanding. Managed by
    /// [`EffectPipeline::admit`]; callers initialize it to 0.
    pub(crate) pending: u32,
}

/// Pieces staged per event before a batch flush; one flush per ~this many
/// pieces keeps workers streaming without a lock round-trip per event.
const FLUSH_PIECES: usize = 128;

/// Decision-order pipeline between the decision thread and the effect
/// workers: stages pieces, tracks in-flight events, maintains the
/// lookahead window, and releases completed events strictly in decision
/// order.
#[derive(Debug)]
pub(crate) struct EffectPipeline {
    workers: usize,
    stages: Vec<Vec<WorkItem>>,
    staged: usize,
    inflight: VecDeque<EventRec>,
    /// Event id of `inflight.front()`.
    base: u64,
    next_event: u64,
    /// Monotone min-deque of `(event id, t + think)` over in-flight events:
    /// the front is the earliest time any pending completion could
    /// reschedule its user — the lookahead window bound.
    reserve: VecDeque<(u64, SimTime)>,
}

impl EffectPipeline {
    pub(crate) fn new(workers: usize) -> Self {
        debug_assert!((1..=64).contains(&workers), "worker mask is a u64");
        EffectPipeline {
            workers,
            stages: (0..workers).map(|_| Vec::new()).collect(),
            staged: 0,
            inflight: VecDeque::new(),
            base: 0,
            next_event: 0,
            reserve: VecDeque::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// The lookahead window bound: the earliest `t + think` over in-flight
    /// events (`MAX` when nothing is in flight, so any head passes).
    pub(crate) fn min_reserve(&self) -> SimTime {
        self.reserve.front().map_or(SimTime::MAX, |&(_, r)| r)
    }

    /// Admits a decided event: routes its pieces to the owning workers'
    /// stage buffers (shard `disk mod S`, worker `shard mod W`), registers
    /// the in-flight record, and flushes stages past the batch threshold.
    pub(crate) fn admit(
        &mut self,
        rec: EventRec,
        reserve: SimTime,
        pieces: &mut Vec<PiecePlan>,
        shards: usize,
        chans: &EffectChannels,
    ) {
        let id = self.next_event;
        self.next_event += 1;
        let mut mask: u64 = 0;
        for plan in pieces.drain(..) {
            let worker = (plan.disk % shards) % self.workers;
            self.stages[worker].push(WorkItem { event: id, ready: rec.t, plan });
            mask |= 1 << worker;
            self.staged += 1;
        }
        let mut rec = rec;
        rec.pending = mask.count_ones();
        self.inflight.push_back(rec);
        while self.reserve.back().is_some_and(|&(_, r)| r >= reserve) {
            self.reserve.pop_back();
        }
        self.reserve.push_back((id, reserve));
        if self.staged >= FLUSH_PIECES {
            self.flush(chans);
        }
    }

    /// Ships all staged batches to the workers.
    pub(crate) fn flush(&mut self, chans: &EffectChannels) {
        for (worker, stage) in self.stages.iter_mut().enumerate() {
            if !stage.is_empty() {
                chans.inboxes[worker].send(std::mem::take(stage));
            }
        }
        self.staged = 0;
    }

    /// Folds worker reports into their in-flight records.
    pub(crate) fn apply(&mut self, batches: Vec<Vec<ResultEntry>>) {
        for batch in batches {
            for entry in batch {
                debug_assert!(entry.event >= self.base, "report for an already-committed event");
                let idx = (entry.event - self.base) as usize;
                let rec = &mut self.inflight[idx];
                rec.begin = rec.begin.min(entry.begin);
                rec.end = rec.end.max(entry.end);
                debug_assert!(rec.pending > 0, "duplicate worker report");
                rec.pending -= 1;
            }
        }
    }

    /// Whether the oldest in-flight event has all its reports in.
    pub(crate) fn front_resolved(&self) -> bool {
        self.inflight.front().is_some_and(|rec| rec.pending == 0)
    }

    /// Removes and returns the oldest in-flight event (must be resolved).
    pub(crate) fn pop_front(&mut self) -> EventRec {
        let rec = match self.inflight.pop_front() {
            Some(rec) => rec,
            // simlint::allow(r3, "callers gate on front_resolved; an empty pop is a pipeline bug")
            None => unreachable!("pop_front on an empty effect pipeline"),
        };
        debug_assert_eq!(rec.pending, 0, "committing an unresolved event");
        if self.reserve.front().is_some_and(|&(id, _)| id == self.base) {
            self.reserve.pop_front();
        }
        self.base += 1;
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readopt_disk::IoKind;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn inbox_delivers_in_order_and_drains_after_close() {
        let inbox = WorkerInbox::default();
        let item = |event: u64| WorkItem {
            event,
            ready: t(0),
            plan: PiecePlan { disk: 0, start_byte: 0, len_bytes: 1, kind: IoKind::Read },
        };
        inbox.send(vec![item(0), item(1)]);
        inbox.send(vec![item(2)]);
        inbox.close();
        assert_eq!(inbox.recv().map(|b| b.len()), Some(2));
        assert_eq!(inbox.recv().map(|b| b.len()), Some(1));
        assert_eq!(inbox.recv().map(|b| b.len()), None, "closed and drained");
    }

    #[test]
    fn pipeline_tracks_lookahead_window_and_commit_order() {
        let chans = EffectChannels::new(2);
        let mut fx = EffectPipeline::new(2);
        assert_eq!(fx.min_reserve(), SimTime::MAX, "empty window blocks nothing");
        let rec = |at: u64| EventRec {
            user: UserId(0),
            t: t(at),
            think_ms: 0.0,
            op_ran: true,
            bytes: 0,
            begin: SimTime::MAX,
            end: t(at),
            pending: 0,
        };
        // Three pieceless events with reserves 50, 30, 90.
        let mut none: Vec<PiecePlan> = Vec::new();
        fx.admit(rec(10), t(50), &mut none, 4, &chans);
        fx.admit(rec(20), t(30), &mut none, 4, &chans);
        fx.admit(rec(25), t(90), &mut none, 4, &chans);
        assert_eq!(fx.min_reserve(), t(30), "min over the in-flight window");
        assert!(fx.front_resolved(), "no pieces → immediately resolved");
        assert_eq!(fx.pop_front().t, t(10), "commits in decision order");
        assert_eq!(fx.min_reserve(), t(30));
        fx.pop_front();
        assert_eq!(fx.min_reserve(), t(90), "window advances as events retire");
        fx.pop_front();
        assert!(fx.is_empty());
        assert_eq!(fx.min_reserve(), SimTime::MAX);
    }

    #[test]
    fn pipeline_routes_pieces_by_shard_then_worker_and_counts_reports() {
        let chans = EffectChannels::new(2);
        let mut fx = EffectPipeline::new(2);
        let plan = |disk: usize| PiecePlan { disk, start_byte: 0, len_bytes: 8, kind: IoKind::Write };
        // Four shards over two workers: disks 0,2 → worker 0; disks 1,3 → worker 1.
        let mut pieces = vec![plan(0), plan(1), plan(2), plan(3)];
        let rec = EventRec {
            user: UserId(1),
            t: t(5),
            think_ms: 1.0,
            op_ran: true,
            bytes: 32,
            begin: SimTime::MAX,
            end: t(5),
            pending: 0,
        };
        fx.admit(rec, t(1005), &mut pieces, 4, &chans);
        assert!(pieces.is_empty(), "admit drains the staging buffer");
        assert!(!fx.front_resolved(), "two worker reports outstanding");
        fx.flush(&chans);
        assert_eq!(chans.inboxes[0].recv().map(|b| b.len()), Some(2));
        assert_eq!(chans.inboxes[1].recv().map(|b| b.len()), Some(2));
        fx.apply(vec![vec![ResultEntry { event: 0, begin: t(7), end: t(40) }]]);
        assert!(!fx.front_resolved(), "one report is not enough");
        fx.apply(vec![vec![ResultEntry { event: 0, begin: t(6), end: t(30) }]]);
        assert!(fx.front_resolved());
        let done = fx.pop_front();
        assert_eq!(done.begin, t(6), "begin folds min across workers");
        assert_eq!(done.end, t(40), "end folds max across workers");
    }

    #[test]
    fn worker_services_pieces_and_folds_per_event() {
        use readopt_disk::DiskGeometry;
        let inbox = WorkerInbox::default();
        let results = ResultChannel::default();
        // The worker owns disk 1 of 2; disk 0's slot is None.
        let owned = vec![None, Some(Disk::new(DiskGeometry::wren_iv()))];
        let mut reference = Disk::new(DiskGeometry::wren_iv());
        let piece = |event: u64, start: u64, len: u64| WorkItem {
            event,
            ready: t(0),
            plan: PiecePlan { disk: 1, start_byte: start, len_bytes: len, kind: IoKind::Read },
        };
        inbox.send(vec![piece(0, 0, 4096), piece(0, 8192, 4096), piece(1, 0, 512)]);
        inbox.close();
        let owned = worker_loop(&inbox, &results, owned);
        let batches = results.drain_nonblocking();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2, "three pieces folded into two events");
        assert_eq!(batches[0][0].event, 0);
        assert_eq!(batches[0][1].event, 1);
        // The worker's disk state must equal serially servicing the same
        // pieces in the same order.
        let b0 = reference.free_at().max(t(0));
        let e0a = reference.service_bytes(t(0), 0, 4096, IoKind::Read);
        let e0b = reference.service_bytes(t(0), 8192, 4096, IoKind::Read);
        let e1 = reference.service_bytes(t(0), 0, 512, IoKind::Read);
        assert_eq!(batches[0][0].begin, b0);
        assert_eq!(batches[0][0].end, e0a.max(e0b));
        assert_eq!(batches[0][1].end, e1);
        let disk = owned[1].as_ref().map(|d| d.free_at());
        assert_eq!(disk, Some(reference.free_at()), "disk state matches serial servicing");
    }
}
