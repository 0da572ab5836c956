//! The event queue (§2.2).
//!
//! "The events are maintained in a heap, sorted by their scheduled time. The
//! simulation runs by selecting the first event from the heap … After
//! completion of an operation, the operation completion time is added to an
//! exponentially distributed value with mean equal to process time and an
//! event is scheduled at that newly calculated time."
//!
//! [`EventQueue`] pops in that order, keyed `(time, seq)`, where ties on
//! time are broken by a monotone sequence number so runs are
//! deterministic. No two keys tie, so any correct priority queue pops the
//! same order; `tests/queue_model.rs` holds this one to the std binary
//! heap the engine once used.
//!
//! Only the imminent events are kept in heap order. The queue is one `Vec`
//! split at a *horizon* key: the prefix is a 4-ary min-heap of every entry
//! keyed below the horizon, at most `NEAR_CAP` of them, and the suffix
//! holds every later entry in no order. The engine pops the earliest event
//! and reschedules its user a think time later, mostly past the horizon:
//! at a million pending events such a schedule is one push onto the
//! suffix, and a pop sifts through a heap of at most 1.5 MB instead of
//! ~10 levels of a 25 MB array (the two tiers of Tang, Goh & Thng's
//! ladder queue, ACM TOMACS 15(3), 2005). A heap that outgrows the cap
//! keeps its earlier half and hands the rest to the suffix; a pop that
//! empties the heap refills it from the suffix in one in-place partition.
//! A queue that has held at most `NEAR_CAP` events since it was last
//! empty has no suffix: its horizon is above every key, so the same code
//! runs it as a plain heap. Every paper sweep holds at most 71.
//!
//! Four children per heap node halve the levels a pop descends, and a
//! node's children share one or two cache lines.

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
    /// The one [`EventQueue`]: a 4-ary min-heap keyed `(time, seq)` over
    /// the imminent events, with the later ones in an unordered suffix
    /// once more than `NEAR_CAP` are pending.
    #[default]
    Heap,
}

/// One pending event: `(time, seq, user)`.
type Entry = (SimTime, u64, u32);

/// Children per heap node (`sift_down`'s tournament is written for four).
const ARITY: usize = 4;

/// Most entries the heap holds (1.5 MB of them) before it spills. Replays
/// of the engine's pop-and-reschedule pattern at 10⁶ pending cost least
/// at 2¹⁶–2¹⁷: a smaller heap refills more often, a larger one misses
/// cache on more levels.
const NEAR_CAP: usize = 1 << 16;

/// Entries a spill keeps in the heap, and about as many as a refill
/// moves into it.
const REFILL: usize = NEAR_CAP / 2;

/// Suffix keys a refill samples to place its horizon.
const SAMPLE: usize = 1024;

// A refill samples only suffixes longer than `REFILL`, so every stride is
// at least one entry.
const _: () = assert!(SAMPLE <= REFILL && REFILL < NEAR_CAP);

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
#[derive(Debug)]
pub struct EventQueue {
    /// `v[..v.len() - far]` is the heap: the children of slot `i` are
    /// `4i+1 ..= 4i+4` and its parent is `(i-1)/4`; no entry is earlier
    /// than its parent, and every key is below `horizon`. The rest, the
    /// suffix, holds the entries keyed at or past `horizon`, in no order.
    /// The heap is empty only when the whole queue is, so `v[0]` is always
    /// the earliest entry.
    v: Vec<Entry>,
    /// Length of the suffix; 0 when there is none.
    far: usize,
    /// The split key. `u128::MAX` while there is no suffix: no key reaches
    /// it, since `seq` never gets to `u64::MAX`.
    horizon: u128,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue { v: Vec::new(), far: 0, horizon: u128::MAX, seq: 0 }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Schedules `user` to act at `time`. An entry at or past the horizon
    /// joins the suffix; an earlier one takes the suffix's first slot,
    /// whose entry moves to the end, and sifts up the heap. Without a
    /// suffix no key reaches the horizon, and the heap's next slot is the
    /// `Vec`'s end.
    pub fn schedule(&mut self, time: SimTime, user: UserId) {
        let entry = (time, self.seq, user.0);
        self.seq += 1;
        if key(&entry) >= self.horizon {
            self.v.push(entry);
            self.far += 1;
            return;
        }
        let hole = self.v.len() - self.far;
        let moved = self.v.get(hole).copied().unwrap_or(entry);
        self.v.push(moved);
        sift_up(&mut self.v, hole, entry);
        if hole >= NEAR_CAP {
            self.spill(hole + 1);
        }
    }

    /// The earliest pending event time, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.v.first().map(|e| e.0)
    }

    /// Removes and returns the earliest event. The heap's last slot takes
    /// the `Vec`'s last entry, which stays in the suffix if there is one,
    /// and the heap's old last entry sifts down from the root. A heap
    /// left empty is refilled.
    pub fn pop(&mut self) -> Option<Event> {
        let near = self.v.len() - self.far;
        let &root = self.v.first()?;
        let last = self.v.swap_remove(near - 1);
        if near > 1 {
            sift_down(&mut self.v[..near - 1], 0, last);
        } else {
            self.refill();
        }
        Some(Event { time: root.0, user: UserId(root.2) })
    }

    /// The heap `v[..near]` outgrew `NEAR_CAP`: its earliest `REFILL`
    /// entries stay and are heapified, the key after them becomes the
    /// horizon, and the rest joins the suffix.
    #[cold]
    fn spill(&mut self, near: usize) {
        let heap = &mut self.v[..near];
        heap.select_nth_unstable_by_key(REFILL, key);
        self.horizon = key(&heap[REFILL]);
        self.far += near - REFILL;
        heapify(&mut heap[..REFILL]);
    }

    /// Refills the empty heap from the suffix, which is then the whole
    /// queue: the entries keyed below a new horizon move to the front in
    /// one pass and are heapified. With at most `REFILL` entries all of
    /// them move and the suffix is gone; otherwise the horizon is the key
    /// of a sampled entry, which stays behind.
    #[cold]
    fn refill(&mut self) {
        let n = self.v.len();
        self.horizon = if n > REFILL { sampled_horizon(&self.v) } else { u128::MAX };
        let horizon = self.horizon;
        let v = &mut self.v[..];
        let mut near = 0;
        for i in 0..n {
            if key(&v[i]) < horizon {
                v.swap(i, near);
                near += 1;
            }
        }
        self.far = n - near;
        heapify(&mut v[..near]);
        if near > NEAR_CAP {
            self.spill(near);
        }
    }
}

/// The key about `REFILL` entries into `suffix` (longer than `REFILL`) by a
/// strided sample of its keys: that many entries are keyed below it, give
/// or take the sample's error. It is never the sample's least key, so at
/// least one entry is keyed below it.
fn sampled_horizon(suffix: &[Entry]) -> u128 {
    let mut sample = [0u128; SAMPLE];
    let stride = suffix.len() / SAMPLE;
    for (s, e) in sample.iter_mut().zip(suffix.iter().step_by(stride)) {
        *s = key(e);
    }
    let rank = (SAMPLE * REFILL / suffix.len()).max(1);
    *sample.select_nth_unstable(rank).1
}

/// Moves `entry` from `hole` up `heap`, shifting each later parent down.
#[inline(always)]
fn sift_up(heap: &mut [Entry], mut hole: usize, entry: Entry) {
    while hole > 0 {
        let parent = (hole - 1) / ARITY;
        if !earlier(&entry, &heap[parent]) {
            break;
        }
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

/// Orders `heap` as a 4-ary heap, sifting every parent down, last first.
fn heapify(heap: &mut [Entry]) {
    for i in (0..heap.len().div_ceil(ARITY)).rev() {
        sift_down(heap, i, heap[i]);
    }
}

/// Moves `entry` from `hole` down into `heap`, shifting the earliest child
/// up at each level.
#[inline(always)]
fn sift_down(heap: &mut [Entry], mut hole: usize, entry: Entry) {
    let len = heap.len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// The queue next to a std binary heap of `(time, user)`, where every
    /// user id is the schedule's ordinal, so the model orders as `(time,
    /// seq)` does. Each call checks the split's invariants and every
    /// observable against the model.
    #[derive(Default)]
    struct Checked {
        q: EventQueue,
        model: BinaryHeap<Reverse<(SimTime, u32)>>,
        next: u32,
    }

    impl Checked {
        fn schedule(&mut self, us: u64) {
            let time = SimTime::from_us(us);
            self.q.schedule(time, UserId(self.next));
            self.model.push(Reverse((time, self.next)));
            self.next += 1;
            self.check();
        }

        fn pop(&mut self) {
            let got = self.q.pop().map(|e| (e.time, e.user.0));
            assert_eq!(got, self.model.pop().map(|Reverse(e)| e));
            self.check();
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop();
            }
            self.pop();
        }

        fn check(&self) {
            let q = &self.q;
            assert_eq!(q.len(), self.model.len());
            assert_eq!(q.peek_time(), self.model.peek().map(|Reverse((time, _))| *time));
            let near = q.v.len() - q.far;
            assert!(near <= NEAR_CAP, "the heap holds at most NEAR_CAP entries");
            assert_eq!(near == 0, q.v.is_empty(), "the heap is empty only with the queue");
            assert_eq!(q.far == 0, q.horizon == u128::MAX, "a horizon only with a suffix");
        }

        /// The heap entries, and the suffix entries, that share the
        /// horizon's time.
        fn at_horizon_time(&self) -> (usize, usize) {
            let q = &self.q;
            let time = u64::try_from(q.horizon >> 64).expect("the high half");
            let near = q.v.len() - q.far;
            let count = |s: &[Entry]| s.iter().filter(|e| e.0.as_us() == time).count();
            (count(&q.v[..near]), count(&q.v[near..]))
        }
    }

    #[test]
    fn spill_and_refill_keep_the_pop_order() {
        let mut rng = SimRng::new(7);
        let mut c = Checked::default();
        for _ in 0..NEAR_CAP {
            c.schedule(rng.uniform_u64(0, 1 << 40));
        }
        assert_eq!(c.q.far, 0, "no suffix up to NEAR_CAP pending");
        c.schedule(rng.uniform_u64(0, 1 << 40));
        assert_eq!(c.q.far, NEAR_CAP + 1 - REFILL, "the spill keeps REFILL entries");
        for _ in 0..3 * NEAR_CAP {
            c.schedule(rng.uniform_u64(0, 1 << 40));
        }
        // Drain the suffix, counting the refills: the pops that shrink it.
        let mut refills = 0;
        while c.q.far > 0 {
            let far = c.q.far;
            c.pop();
            if c.q.far < far {
                refills += 1;
            }
        }
        assert!(refills >= 3, "{refills} refills");
        c.drain();
    }

    #[test]
    fn ties_straddling_the_horizon_pop_in_schedule_order() {
        // Three distinct times: the spill's horizon falls inside a run of
        // ties, so entries at the horizon's time sit on both sides of it.
        let mut c = Checked::default();
        for i in 0..=NEAR_CAP as u64 {
            c.schedule(i % 3);
        }
        let (near, far) = c.at_horizon_time();
        assert!(near > 0 && far > 0, "ties on both sides of the horizon: {near} / {far}");
        // More ties: one at the horizon's time is past it by its seq
        // alone.
        for i in 0..2 * NEAR_CAP as u64 {
            c.schedule(i % 3);
            if i % 2 == 0 {
                c.pop();
            }
        }
        c.drain();
    }

    #[test]
    fn schedules_below_the_horizon_and_backwards_in_time_join_the_heap() {
        let mut rng = SimRng::new(11);
        let mut c = Checked::default();
        for _ in 0..2 * NEAR_CAP {
            c.schedule(rng.uniform_u64(1 << 30, 1 << 40));
        }
        for step in 0..4 * NEAR_CAP {
            let horizon_us = u64::try_from(c.q.horizon >> 64).expect("a suffix exists");
            match step % 4 {
                // Before the earliest pending event: time goes backwards.
                0 => c.schedule(rng.uniform_u64(0, 1 << 30)),
                // After the earliest event, up to the horizon's time.
                1 => c.schedule(rng.uniform_u64(1 << 30, horizon_us)),
                _ => c.pop(),
            }
            assert!(c.q.far > 0, "the suffix lasts through step {step}");
        }
        c.drain();
    }

    #[test]
    fn a_drained_queue_is_a_plain_heap_again() {
        let mut rng = SimRng::new(13);
        let mut c = Checked::default();
        for round in 0..2 {
            for _ in 0..NEAR_CAP + NEAR_CAP / 2 {
                c.schedule(rng.uniform_u64(0, 1 << 20));
            }
            assert!(c.q.far > 0, "round {round} spilled");
            c.drain();
            assert_eq!((c.q.far, c.q.horizon), (0, u128::MAX), "round {round} reset the horizon");
            for _ in 0..100 {
                c.schedule(rng.uniform_u64(0, 1 << 20));
            }
            assert_eq!(c.q.far, 0, "a small queue has no suffix");
            for _ in 0..50 {
                c.pop();
            }
        }
        c.drain();
    }
}
