//! The event queue (§2.2).
//!
//! "The events are maintained in a heap, sorted by their scheduled time. The
//! simulation runs by selecting the first event from the heap … After
//! completion of an operation, the operation completion time is added to an
//! exponentially distributed value with mean equal to process time and an
//! event is scheduled at that newly calculated time."
//!
//! Ties are broken by a monotone sequence number so runs are deterministic.
//!
//! Two interchangeable backends implement this contract behind
//! [`EventQueueKind`]: the paper's binary heap (O(log n), the reference)
//! and the calendar queue in [`crate::calendar`] (amortized O(1) at
//! million-user densities). Both pop in exactly ascending
//! `(time, seq, user)` order, so the choice is invisible to digests,
//! goldens, and metrics sidecars — pinned by `tests/engine_digest.rs` and
//! the differential battery in `crates/sim/tests/queue_equiv.rs`.

use crate::calendar::CalendarQueue;
use readopt_disk::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies one user (one parallel event stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserId(pub u32);

/// A scheduled user event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Which user acts.
    pub user: UserId,
}

/// Which scheduling structure backs an [`EventQueue`].
///
/// Selected by `SimConfig::event_queue` / `repro --event-queue`. Both
/// backends are observably identical (same pop order, same results, same
/// sidecar bytes); they differ only in asymptotics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventQueueKind {
    /// Binary min-heap keyed `(time, seq, user)` — the paper's structure
    /// and the reference semantics. O(log n) per operation.
    #[default]
    Heap,
    /// Sliding calendar queue with an overflow heap and an arena-backed
    /// wheel (see [`crate::calendar`]). Amortized O(1) per operation.
    Calendar,
}

/// The two concrete scheduling structures.
#[derive(Debug)]
enum Backend {
    Heap(BinaryHeap<Reverse<(SimTime, u64, u32)>>),
    Calendar(CalendarQueue),
}

/// Min-queue of events ordered by `(time, insertion sequence, user)`,
/// backed by either structure in [`EventQueueKind`].
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue on the default (heap) backend.
    pub fn new() -> Self {
        EventQueue::with_kind(EventQueueKind::Heap)
    }

    /// An empty queue on the chosen backend.
    pub fn with_kind(kind: EventQueueKind) -> Self {
        let backend = match kind {
            EventQueueKind::Heap => Backend::Heap(BinaryHeap::new()),
            EventQueueKind::Calendar => Backend::Calendar(CalendarQueue::new()),
        };
        EventQueue { backend, seq: 0 }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> EventQueueKind {
        match self.backend {
            Backend::Heap(_) => EventQueueKind::Heap,
            Backend::Calendar(_) => EventQueueKind::Calendar,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `user` to act at `time`.
    pub fn schedule(&mut self, time: SimTime, user: UserId) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_with_seq(time, user, seq);
    }

    /// Schedules `user` at `time` under a sequence number taken from a
    /// snapshot (see [`Self::restore_entries`]) instead of the counter.
    fn schedule_with_seq(&mut self, time: SimTime, user: UserId, seq: u64) {
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse((time, seq, user.0))),
            Backend::Calendar(c) => c.insert(time, seq, user.0),
        }
    }

    /// The earliest pending event time, if any. `&mut` because the
    /// calendar backend memoizes its bucket-cursor advance while peeking
    /// (observationally pure — the answer never changes).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse((t, _, _))| *t),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// The `(time, seq)` key of the earliest pending event: its place in
    /// the pop order, as [`Self::drain_entries`] records it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse((t, s, _))| (*t, *s)),
            Backend::Calendar(c) => c.peek_key(),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse((time, _, user))| Event { time, user: UserId(user) }),
            Backend::Calendar(c) => c.pop(),
        }
    }

    /// Drains every pending event in pop order, returning the
    /// `(time, seq, user)` entries plus the sequence counter: the
    /// checkpoint form of the queue. The calendar backend cannot be
    /// cloned (its bucket cursor is lazy), so a checkpoint empties the
    /// queue and the caller rebuilds it at once via
    /// [`Self::restore_entries`].
    pub fn drain_entries(&mut self) -> (Vec<(SimTime, u64, u32)>, u64) {
        let mut out = Vec::with_capacity(self.len());
        while let (Some((time, seq)), Some(ev)) = (self.peek_key(), self.pop()) {
            out.push((time, seq, ev.user.0));
        }
        (out, self.seq)
    }

    /// Refills an empty queue from a [`Self::drain_entries`] snapshot.
    /// Each entry keeps its sequence stamp, so the pop order (ties
    /// included) is exactly what it was when the snapshot was taken, and
    /// later schedules continue from `next_seq`. Entries must arrive in
    /// strictly ascending `(time, seq)` order (the drain order) with every
    /// stamp below `next_seq`; anything else means the snapshot is
    /// corrupt, and the queue is left as it was.
    pub fn restore_entries(
        &mut self,
        entries: &[(SimTime, u64, u32)],
        next_seq: u64,
    ) -> Result<(), String> {
        if !self.is_empty() {
            return Err("restoring into a non-empty event queue".into());
        }
        // Validate everything first: a failed restore must leave the queue
        // empty, not half-filled.
        let mut prev: Option<(SimTime, u64)> = None;
        for &(time, seq, _) in entries {
            if seq >= next_seq {
                return Err(format!("event seq {seq} at or past the counter {next_seq}"));
            }
            if prev.is_some_and(|p| p >= (time, seq)) {
                return Err(format!("event entries out of pop order at seq {seq}"));
            }
            prev = Some((time, seq));
        }
        for &(time, seq, user) in entries {
            self.schedule_with_seq(time, UserId(user), seq);
        }
        self.seq = next_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [EventQueueKind; 2] = [EventQueueKind::Heap, EventQueueKind::Calendar];

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t(30.0), UserId(3));
            q.schedule(t(10.0), UserId(1));
            q.schedule(t(20.0), UserId(2));
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
            assert_eq!(order, vec![1, 2, 3], "{kind:?}");
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t(5.0), UserId(9));
            q.schedule(t(5.0), UserId(4));
            q.schedule(t(5.0), UserId(7));
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
            assert_eq!(order, vec![9, 4, 7], "FIFO among equal timestamps ({kind:?})");
        }
    }

    #[test]
    fn ties_break_by_time_then_seq_then_user() {
        // Regression: both backends order by the full (time, seq, user)
        // key, whatever stamps a restored snapshot carries, so a backend
        // swap can never reorder equal-time events.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule_with_seq(t(5.0), UserId(8), 7);
            q.schedule_with_seq(t(5.0), UserId(2), 7); // exact (time, seq) tie
            q.schedule_with_seq(t(5.0), UserId(5), 3); // lower seq wins first
            q.schedule_with_seq(t(1.0), UserId(9), 99); // earlier time wins all
            let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
            assert_eq!(order, vec![9, 5, 2, 8], "time, then seq, then user ({kind:?})");
        }
    }

    #[test]
    fn peek_matches_pop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            assert_eq!(q.peek_time(), None);
            q.schedule(t(2.0), UserId(0));
            q.schedule(t(1.0), UserId(1));
            assert_eq!(q.peek_time(), Some(t(1.0)), "{kind:?}");
            assert_eq!(q.pop().unwrap().user, UserId(1), "{kind:?}");
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            assert_eq!(q.kind(), kind);
        }
    }

    /// 100 events over six distinct times, so most of them tie with
    /// others, then 17 pops: a snapshot of it is taken mid-run, not on a
    /// pristine queue.
    fn mid_run_queue(kind: EventQueueKind) -> EventQueue {
        let mut q = EventQueue::with_kind(kind);
        for i in 0u64..100 {
            q.schedule(SimTime::from_us((i * 2654435761) % 6 * 50), UserId((i % 13) as u32));
        }
        for _ in 0..17 {
            q.pop();
        }
        q
    }

    fn pop_all(q: &mut EventQueue) -> Vec<(SimTime, u32)> {
        std::iter::from_fn(|| q.pop()).map(|e| (e.time, e.user.0)).collect()
    }

    /// Draining to checkpoint form and restoring must reproduce the exact
    /// pop order, ties included, on either backend, in place or into a
    /// fresh queue of either kind (the snapshot carries no backend state);
    /// schedules after a restore continue the restored counter.
    #[test]
    fn drain_restore_roundtrip_preserves_pop_order() {
        for kind in KINDS {
            let reference = pop_all(&mut mid_run_queue(kind));
            let mut q = mid_run_queue(kind);
            let (entries, next_seq) = q.drain_entries();
            assert!(q.is_empty(), "draining empties the queue ({kind:?})");
            assert_eq!(entries.len(), 83);
            assert_eq!(next_seq, 100, "the counter is part of the snapshot ({kind:?})");
            let drained: Vec<(SimTime, u32)> = entries.iter().map(|&(t, _, u)| (t, u)).collect();
            assert_eq!(drained, reference, "drain order is pop order ({kind:?})");
            q.restore_entries(&entries, next_seq).expect("restore in place");
            assert_eq!(pop_all(&mut q), reference, "in-place restore ({kind:?})");
            for to in KINDS {
                let mut restored = EventQueue::with_kind(to);
                restored.restore_entries(&entries, next_seq).expect("restore");
                assert_eq!(restored.len(), 83);
                assert_eq!(pop_all(&mut restored), reference, "{kind:?} -> {to:?}");
            }
            // A new event at the last restored time ties with several
            // restored ones and must pop after all of them: a counter
            // restarted at 0 would pop it first among them.
            let mut restored = EventQueue::with_kind(kind);
            restored.restore_entries(&entries, next_seq).expect("restore");
            let last = entries[entries.len() - 1].0;
            assert!(entries.iter().filter(|e| e.0 == last).count() > 1, "the snapshot has ties");
            restored.schedule(last, UserId(0));
            assert_eq!(pop_all(&mut restored).last(), Some(&(last, 0)), "{kind:?}");
            assert_eq!(restored.drain_entries(), (Vec::new(), next_seq + 1), "{kind:?}");
        }
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t(10.0), UserId(0));
            q.schedule(t(5.0), UserId(1));
            let (entries, seq) = q.drain_entries();
            assert_eq!(entries[0].0, t(5.0), "drain order is pop order");
            // A non-empty target is refused and keeps what it held.
            let mut busy = EventQueue::with_kind(kind);
            busy.schedule(t(1.0), UserId(0));
            assert!(busy.restore_entries(&entries, seq).is_err());
            assert_eq!(busy.len(), 1);
            let mut fresh = EventQueue::with_kind(kind);
            // A stamp at or past the counter.
            assert!(fresh.restore_entries(&entries, 1).is_err());
            // Entries out of pop order, or one key twice.
            let mut swapped = entries.clone();
            swapped.swap(0, 1);
            assert!(fresh.restore_entries(&swapped, seq).is_err());
            assert!(fresh.restore_entries(&[entries[0], entries[0]], seq).is_err());
            // Every failed restore left the queue empty, counter included.
            assert!(fresh.is_empty(), "failed restore leaves nothing behind ({kind:?})");
            assert_eq!(fresh.drain_entries(), (Vec::new(), 0), "{kind:?}");
            fresh.restore_entries(&entries, seq).expect("the intact snapshot still restores");
            assert_eq!(fresh.len(), 2);
        }
    }
}
