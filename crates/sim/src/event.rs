//! The event queue (§2.2).
//!
//! "The events are maintained in a heap, sorted by their scheduled time. The
//! simulation runs by selecting the first event from the heap … After
//! completion of an operation, the operation completion time is added to an
//! exponentially distributed value with mean equal to process time and an
//! event is scheduled at that newly calculated time."
//!
//! [`EventQueue`] is that heap: a binary min-heap keyed
//! `(time, seq, user)`, where ties on time are broken by a monotone
//! sequence number so runs are deterministic.

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

/// The structure behind the event queue: only the paper's binary heap.
///
/// Kept only because the benchmark still assigns
/// `SimConfig::event_queue = EventQueueKind::Heap`. Nothing reads it, and
/// the next benchmark change deletes it together with that field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventQueueKind {
    /// Binary min-heap keyed `(time, seq, user)`.
    #[default]
    Heap,
}

/// Min-queue of events ordered by `(time, insertion sequence, user)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `user` to act at `time`.
    pub fn schedule(&mut self, time: SimTime, user: UserId) {
        self.heap.push(Reverse((time, self.seq, user.0)));
        self.seq += 1;
    }

    /// The earliest pending event time, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse((time, _, user))| Event { time, user: UserId(user) })
    }

    /// Every pending `(time, seq, user)` entry in pop order, plus the
    /// sequence counter: the checkpoint form of the queue. The queue
    /// itself is left as it was.
    pub fn entries(&self) -> (Vec<(SimTime, u64, u32)>, u64) {
        let mut out: Vec<(SimTime, u64, u32)> = self.heap.iter().map(|Reverse(e)| *e).collect();
        out.sort_unstable();
        (out, self.seq)
    }

    /// Refills an empty queue from an [`Self::entries`] snapshot. Each
    /// entry keeps its sequence stamp, so the pop order (ties included) is
    /// exactly what it was when the snapshot was taken, and later
    /// schedules continue from `next_seq`. Entries must arrive in strictly
    /// ascending `(time, seq)` order (the pop order) with every stamp
    /// below `next_seq`; anything else means the snapshot is corrupt, and
    /// the queue is left as it was.
    pub fn restore_entries(
        &mut self,
        entries: &[(SimTime, u64, u32)],
        next_seq: u64,
    ) -> Result<(), String> {
        if !self.is_empty() {
            return Err("restoring into a non-empty event queue".into());
        }
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
        self.heap = entries.iter().map(|&e| Reverse(e)).collect();
        self.seq = next_seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30.0), UserId(3));
        q.schedule(t(10.0), UserId(1));
        q.schedule(t(20.0), UserId(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), UserId(9));
        q.schedule(t(5.0), UserId(4));
        q.schedule(t(5.0), UserId(7));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.user.0).collect();
        assert_eq!(order, vec![9, 4, 7], "FIFO among equal timestamps");
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(2.0), UserId(0));
        q.schedule(t(1.0), UserId(1));
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert_eq!(q.pop().unwrap().user, UserId(1));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// 100 events over six distinct times, so most of them tie with
    /// others, then 17 pops: a snapshot of it is taken mid-run, not on a
    /// pristine queue.
    fn mid_run_queue() -> EventQueue {
        let mut q = EventQueue::new();
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

    /// Taking the checkpoint form leaves the queue untouched, and
    /// restoring it into a fresh queue reproduces the exact pop order,
    /// ties included; schedules after a restore continue the restored
    /// counter.
    #[test]
    fn entries_restore_roundtrip_preserves_pop_order() {
        let reference = pop_all(&mut mid_run_queue());
        let mut q = mid_run_queue();
        let (entries, next_seq) = q.entries();
        assert_eq!(entries.len(), 83);
        assert_eq!(next_seq, 100, "the counter is part of the snapshot");
        let listed: Vec<(SimTime, u32)> = entries.iter().map(|&(t, _, u)| (t, u)).collect();
        assert_eq!(listed, reference, "entries come in pop order");
        assert_eq!(pop_all(&mut q), reference, "taking the entries is a pure read");
        let mut restored = EventQueue::new();
        restored.restore_entries(&entries, next_seq).expect("restore");
        assert_eq!(restored.len(), 83);
        assert_eq!(restored.entries(), (entries.clone(), next_seq));
        assert_eq!(pop_all(&mut restored), reference);
        // A new event at the last restored time ties with several
        // restored ones and must pop after all of them: a counter
        // restarted at 0 would pop it first among them.
        let mut restored = EventQueue::new();
        restored.restore_entries(&entries, next_seq).expect("restore");
        let last = entries[entries.len() - 1].0;
        assert!(entries.iter().filter(|e| e.0 == last).count() > 1, "the snapshot has ties");
        restored.schedule(last, UserId(0));
        assert_eq!(pop_all(&mut restored).last(), Some(&(last, 0)));
        assert_eq!(restored.entries(), (Vec::new(), next_seq + 1));
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let mut q = EventQueue::new();
        q.schedule(t(10.0), UserId(0));
        q.schedule(t(5.0), UserId(1));
        let (entries, seq) = q.entries();
        assert_eq!(entries[0].0, t(5.0), "entries come in pop order");
        // A non-empty target is refused and keeps what it held.
        let mut busy = EventQueue::new();
        busy.schedule(t(1.0), UserId(0));
        assert!(busy.restore_entries(&entries, seq).is_err());
        assert_eq!(busy.len(), 1);
        let mut fresh = EventQueue::new();
        // A stamp at or past the counter.
        assert!(fresh.restore_entries(&entries, 1).is_err());
        // Entries out of pop order, or one key twice.
        let mut swapped = entries.clone();
        swapped.swap(0, 1);
        assert!(fresh.restore_entries(&swapped, seq).is_err());
        assert!(fresh.restore_entries(&[entries[0], entries[0]], seq).is_err());
        // Every failed restore left the queue empty, counter included.
        assert!(fresh.is_empty(), "failed restore leaves nothing behind");
        assert_eq!(fresh.entries(), (Vec::new(), 0));
        fresh.restore_entries(&entries, seq).expect("the intact snapshot still restores");
        assert_eq!(fresh.len(), 2);
    }
}
