//! [`EventQueue`] against a reference model: the std binary heap over
//! `Reverse((time, seq, user))` plus a sequence counter, the structure the
//! queue used before its 4-ary heap and its split into a heap of imminent
//! events and an unordered suffix. Every pop, `peek_time` and `len` must
//! equal the model's, ties included, so the engine's event order (and
//! every simulated value) is the same under either. The short streams mix
//! tie storms (a handful of distinct times) with times spread over the
//! whole `u64` range and stay below the heap's cap (`NEAR_CAP` in
//! `src/event.rs`); the long runs hold the engine's pattern at 5 k
//! pending, a plain heap, and at 150 k, above that cap, where the heap
//! spills into the suffix and refills from it over and over.

use proptest::prelude::*;
use readopt_disk::SimTime;
use readopt_sim::{EventQueue, SimRng, UserId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: what `EventQueue` held before the 4-ary heap.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
}

impl Model {
    fn schedule(&mut self, time: SimTime, user: u32) {
        self.heap.push(Reverse((time, self.seq, user)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|Reverse((time, _, user))| (time, user))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }
}

/// Both sides driven in step.
#[derive(Default)]
struct Pair {
    queue: EventQueue,
    model: Model,
}

impl Pair {
    fn schedule(&mut self, time: SimTime, user: u32) {
        self.queue.schedule(time, UserId(user));
        self.model.schedule(time, user);
    }

    /// Pops both sides and checks they popped the same event.
    fn pop(&mut self, step: usize) {
        let got = self.queue.pop().map(|e| (e.time, e.user.0));
        assert_eq!(got, self.model.pop(), "pop at step {step}");
    }

    /// `len`, `is_empty` and `peek_time` agree with the model.
    fn check(&self, step: usize) {
        assert_eq!(self.queue.len(), self.model.heap.len(), "len at step {step}");
        assert_eq!(self.queue.is_empty(), self.model.heap.is_empty(), "is_empty at step {step}");
        assert_eq!(self.queue.peek_time(), self.model.peek_time(), "peek_time at step {step}");
    }
}

/// One step of a random stream; the fields are raw entropy shaped by
/// [`run_stream`].
type RawOp = (u8, u64, u32);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u32>()), 0..400)
}

/// Drives `ops` through both sides, checking `peek_time` and the rest
/// after every step. With `storm`, times come from five values, so most
/// events tie with others and only the sequence stamp orders them;
/// without it, times spread over the whole `u64` range.
fn run_stream(ops: &[RawOp], storm: bool) {
    let mut pair = Pair::default();
    for (step, &(sel, raw_time, user)) in ops.iter().enumerate() {
        let time = SimTime::from_us(if storm { raw_time % 5 * 1_000 } else { raw_time });
        match sel % 16 {
            // Schedules outnumber pops, so the queue grows past a few
            // levels before the stream ends.
            0..=8 => pair.schedule(time, user),
            _ => pair.pop(step),
        }
        pair.check(step);
    }
    // Drain what is left.
    let mut step = ops.len();
    while !pair.model.heap.is_empty() {
        pair.pop(step);
        pair.check(step);
        step += 1;
    }
    pair.pop(step);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tie_storms_match_the_binary_heap(ops in raw_ops()) {
        run_stream(&ops, true);
    }

    #[test]
    fn wide_times_match_the_binary_heap(ops in raw_ops()) {
        run_stream(&ops, false);
    }
}

/// Every size from empty to three full levels (1 + 4 + 16 = 21 entries),
/// popped down to empty: each shape of a partial last group is sifted
/// through, whatever order the entries arrived in.
#[test]
fn every_partial_last_group_pops_in_order() {
    let mut rng = SimRng::new(21);
    for size in 0..=21u64 {
        let orders: [Vec<u64>; 4] = [
            (0..size).collect(),
            (0..size).rev().collect(),
            (0..size).map(|i| i % 3).collect(),
            (0..size).map(|_| rng.uniform_u64(0, 8)).collect(),
        ];
        for (shape, times) in orders.iter().enumerate() {
            let mut pair = Pair::default();
            for (user, &t) in times.iter().enumerate() {
                pair.schedule(SimTime::from_us(t), u32::try_from(user).expect("small"));
                pair.check(user);
            }
            for step in 0..=times.len() {
                pair.pop(step);
                pair.check(step);
            }
            assert!(pair.queue.is_empty(), "size {size}, shape {shape}: drained");
        }
    }
}

/// The engine's own pattern at a steady depth of `pending`: pop the
/// earliest event and reschedule its user a random think time later, with
/// now and then an extra user or a lost one, for `steps` operations. The
/// observables are checked after every step.
fn long_run(pending: u32, steps: usize) {
    let mut rng = SimRng::new(1991);
    let mut pair = Pair::default();
    let mut next_user = 0u32;
    for _ in 0..pending {
        pair.schedule(SimTime::from_us(rng.uniform_u64(0, 3_000_000)), next_user);
        next_user += 1;
    }
    pair.check(0);
    for step in 0..steps {
        let event = pair.queue.pop().expect("the queue never drains");
        assert_eq!(Some((event.time, event.user.0)), pair.model.pop(), "pop at step {step}");
        // Whole milliseconds, so reschedules often tie.
        let think_us = rng.uniform_u64(0, 6_000) * 1_000;
        pair.schedule(SimTime::from_us(event.time.as_us() + think_us), event.user.0);
        match rng.index(64) {
            0 => {
                pair.schedule(event.time, next_user);
                next_user += 1;
            }
            1 => pair.pop(step),
            _ => {}
        }
        pair.check(step);
    }
    let depth = pair.queue.len();
    let band = pending as usize * 4 / 5..pending as usize * 6 / 5;
    assert!(band.contains(&depth), "the depth stayed near {pending} ({depth})");
    pair.check(usize::MAX);
}

#[test]
fn long_run_at_five_thousand_pending_matches_the_binary_heap() {
    long_run(5_000, 100_000);
}

/// Above the heap's cap: the run spills, refills and schedules below the
/// horizon throughout.
#[test]
fn long_run_at_150_thousand_pending_matches_the_binary_heap() {
    long_run(150_000, 400_000);
}
