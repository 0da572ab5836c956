//! The event queue (§2.2).
//!
//! "The events are maintained in a heap, sorted by their scheduled time. The
//! simulation runs by selecting the first event from the heap … After
//! completion of an operation, the operation completion time is added to an
//! exponentially distributed value with mean equal to process time and an
//! event is scheduled at that newly calculated time."
//!
//! [`EventQueue`] is that heap: a 4-ary min-heap keyed `(time, seq)`,
//! where ties on time are broken by a monotone sequence number so runs
//! are deterministic. No two keys tie, so any correct heap pops the same
//! order; `tests/queue_model.rs` holds this one to the std binary heap it
//! replaced. Four children per node halve the levels a pop descends, and
//! a node's children share one or two cache lines: at a million pending
//! events a pop waits on a cache miss per level.

use readopt_disk::SimTime;
use serde::{Deserialize, Serialize};

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

/// The structure behind the event queue: only the paper's heap.
///
/// Kept only because the benchmark still assigns
/// `SimConfig::event_queue = EventQueueKind::Heap`. Nothing reads it, and
/// the next benchmark change deletes it together with that field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventQueueKind {
    /// The 4-ary min-heap keyed `(time, seq)`.
    #[default]
    Heap,
}

/// One pending event: `(time, seq, user)`.
type Entry = (SimTime, u64, u32);

/// Children per heap node (`sift_down`'s tournament is written for four).
const ARITY: usize = 4;

/// The heap order, `(time, seq)`. `seq` is unique within a queue, so two
/// entries never tie and the pop order is total.
#[inline]
fn earlier(a: &Entry, b: &Entry) -> bool {
    key(a) < key(b)
}

/// `(time, seq)` as one number, time in the high half: it orders exactly
/// as the pair does, in one wide compare instead of two.
#[inline]
fn key(e: &Entry) -> u128 {
    (u128::from(e.0.as_us()) << 64) | u128::from(e.1)
}

/// Min-queue of events ordered by `(time, insertion sequence)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// The heap: the children of slot `i` are `4i+1 ..= 4i+4` and its
    /// parent is `(i-1)/4`; no entry is earlier than its parent.
    heap: Vec<Entry>,
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
        let entry = (time, self.seq, user.0);
        self.seq += 1;
        let mut hole = self.heap.len();
        self.heap.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if !earlier(&entry, &self.heap[parent]) {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    /// The earliest pending event time, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.0)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&root) => {
                self.sift_down(last);
                root
            }
            None => last,
        };
        Some(Event { time: top.0, user: UserId(top.2) })
    }

    /// Moves `entry` from the root down into the hole the popped root
    /// left, shifting the earliest child up at each level.
    fn sift_down(&mut self, entry: Entry) {
        let heap = &mut self.heap[..];
        let len = heap.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            let (child, min) = if first + ARITY <= len {
                // A full group: a pairwise tournament, whose compares do
                // not wait on each other the way a scan's do.
                let c = &heap[first..first + ARITY];
                let a = if earlier(&c[1], &c[0]) { 1 } else { 0 };
                let b = if earlier(&c[3], &c[2]) { 3 } else { 2 };
                let m = if earlier(&c[b], &c[a]) { b } else { a };
                (first + m, c[m])
            } else if first < len {
                // The last, partial group: its children have none.
                let mut m = first;
                for i in first + 1..len {
                    if earlier(&heap[i], &heap[m]) {
                        m = i;
                    }
                }
                (m, heap[m])
            } else {
                break;
            };
            if earlier(&entry, &min) {
                break;
            }
            heap[hole] = min;
            hole = child;
        }
        heap[hole] = entry;
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
}
