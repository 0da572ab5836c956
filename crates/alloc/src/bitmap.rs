//! A word-level bitmap over block slots.
//!
//! §4.2: "A bit map is used to record the state (free or used) of every
//! maximum sized block in the system." The bitmap backs *every* policy's
//! free lists (each one a [`crate::blockset::BitmapBlockSet`]) and the
//! extent system's [`crate::freespace::FreeSpaceMap`], so the primitives
//! below are the simulator's allocation hot path.
//!
//! All scans are word-at-a-time (`u64` plus `trailing_zeros`/`count_ones`),
//! steered by two per-word *summary indexes*: `summary` (bit `j` set iff
//! word `j` has **any** free slot) lets "first free" skip fully-used
//! regions, and `full` (bit `j` set iff word `j` is **entirely** free) lets
//! the run-boundary scans ("first used", "run start") skip the interior of
//! long free runs. Either way a single summary-word probe covers 64 words
//! = 4096 slots.
//!
//! A third, lazily maintained cache accelerates the run search under heavy
//! fragmentation: `max_run[w]` is the length of the longest free run wholly
//! inside word `w`. `first_free_run_before` uses it to dismiss a mixed word
//! in O(1) — if the carried run cannot be completed by the word's leading
//! free bits and no interior run is long enough, the whole segment walk is
//! skipped. Writes only *invalidate* the entry (one byte store), so callers
//! that never search for runs pay nothing for it.
//!
//! Two cheaper shortcuts keep the common searches from rescanning what is
//! already known. A bitmap with no free slot answers "first free" in O(1)
//! from `free_count`, before touching the summary. And a lowest-free hint
//! `lo` holds the invariant "every slot below `lo` is used": frees lower
//! it, a search that starts at or below it raises it to what the search
//! found, and every forward search starts at it instead of at slot 0.

use std::cell::Cell;

/// `max_run` sentinel: the word changed since the entry was computed.
const STALE_RUN: u8 = u8::MAX;

/// Length of the longest contiguous run of set bits in `x` (0..=64).
/// Each `x &= x << 1` step shortens every run by one, so the step count is
/// the longest run's length; the all-ones word short-circuits because the
/// loop's shift would otherwise never introduce zeros.
fn longest_one_run(x: u64) -> u8 {
    if x == u64::MAX {
        return 64;
    }
    let mut x = x;
    let mut n = 0u8;
    while x != 0 {
        x &= x << 1;
        n += 1;
    }
    n
}

/// Fixed-size bitmap; bit set ⇒ slot free.
#[derive(Debug, Clone, Default, Eq)]
pub struct FreeBitmap {
    words: Vec<u64>,
    /// Summary index: bit `j` set iff `words[j] != 0`. Derived data.
    summary: Vec<u64>,
    /// Second summary level: bit `j` set iff `words[j] == u64::MAX`
    /// (every slot in the word free). Derived data.
    full: Vec<u64>,
    /// Longest free run wholly inside each word, or [`STALE_RUN`] when the
    /// word changed since the entry was computed. Derived data: invalidated
    /// word-granularly on every set/clear, recomputed lazily by the run
    /// scans.
    max_run: Vec<u8>,
    len: usize,
    free_count: usize,
    /// Lowest-free hint: every slot below `lo` is used. Frees lower it;
    /// searches that start at or below it raise it to the slot they found
    /// (or `len`). A `Cell` so the `&self` searches can move it. Derived
    /// data, not compared.
    lo: Cell<usize>,
}

/// Equality is over the ground truth only (`words`, `len`, `free_count`);
/// the summary levels are a pure function of `words`, and the `max_run`
/// cache and the `lo` hint may legitimately differ between two equal
/// bitmaps.
impl PartialEq for FreeBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words && self.len == other.len && self.free_count == other.free_count
    }
}

impl FreeBitmap {
    /// Creates a bitmap of `len` slots, all initially **used** (clear).
    pub fn new(len: usize) -> Self {
        let nwords = len.div_ceil(64);
        FreeBitmap {
            words: vec![0; nwords],
            summary: vec![0; nwords.div_ceil(64)],
            full: vec![0; nwords.div_ceil(64)],
            max_run: vec![0; nwords],
            len,
            free_count: 0,
            lo: Cell::new(0),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of free slots.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Whether slot `i` is free.
    pub fn is_free(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Refreshes both summary levels' bits for word `w` from its value and
    /// invalidates the word's longest-run cache entry (recomputed lazily by
    /// the run scans — a one-byte store is all a write path ever pays).
    fn summary_update(&mut self, w: usize) {
        let (sw, bit) = (w / 64, 1u64 << (w % 64));
        if self.words[w] != 0 {
            self.summary[sw] |= bit;
        } else {
            self.summary[sw] &= !bit;
        }
        if self.words[w] == u64::MAX {
            self.full[sw] |= bit;
        } else {
            self.full[sw] &= !bit;
        }
        self.max_run[w] = STALE_RUN;
    }

    /// Longest free run wholly inside word `w`, from the cache when fresh,
    /// recomputing (and re-caching) when the word changed since.
    fn max_run_of(&mut self, w: usize) -> usize {
        if self.max_run[w] == STALE_RUN {
            self.max_run[w] = longest_one_run(self.words[w]);
        }
        self.max_run[w] as usize
    }

    /// Marks slot `i` free. Panics in debug builds on double-free.
    pub fn set_free(&mut self, i: usize) {
        debug_assert!(i < self.len);
        debug_assert!(!self.is_free(i), "slot {i} already free");
        self.words[i / 64] |= 1 << (i % 64);
        self.summary_update(i / 64);
        self.free_count += 1;
        self.lo.set(self.lo.get().min(i));
    }

    /// Marks slot `i` used. Panics in debug builds when not free.
    pub fn set_used(&mut self, i: usize) {
        debug_assert!(i < self.len);
        debug_assert!(self.is_free(i), "slot {i} not free");
        self.words[i / 64] &= !(1 << (i % 64));
        self.summary_update(i / 64);
        self.free_count -= 1;
    }

    /// The in-word bit mask covering `[start, end)` clipped to word `w`.
    fn word_mask(w: usize, start: usize, end: usize) -> u64 {
        let lo = start.max(w * 64) - w * 64;
        let hi = end.min((w + 1) * 64) - w * 64;
        // hi ∈ 1..=64 here; build the mask without a 64-bit shift overflow.
        let upper = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
        upper & !((1u64 << lo) - 1)
    }

    /// Marks every slot in `[start, start + n)` free, word at a time.
    /// Panics in debug builds if any slot is already free.
    pub fn set_range_free(&mut self, start: usize, n: usize) {
        debug_assert!(start + n <= self.len);
        if n == 0 {
            return;
        }
        let end = start + n;
        for w in start / 64..=(end - 1) / 64 {
            let mask = Self::word_mask(w, start, end);
            debug_assert_eq!(self.words[w] & mask, 0, "double free in range at word {w}");
            self.words[w] |= mask;
            self.summary_update(w);
        }
        self.free_count += n;
        self.lo.set(self.lo.get().min(start));
    }

    /// Marks every slot in `[start, start + n)` used, word at a time.
    /// Panics in debug builds if any slot is not free.
    pub fn set_range_used(&mut self, start: usize, n: usize) {
        debug_assert!(start + n <= self.len);
        if n == 0 {
            return;
        }
        let end = start + n;
        for w in start / 64..=(end - 1) / 64 {
            let mask = Self::word_mask(w, start, end);
            debug_assert_eq!(self.words[w] & mask, mask, "using non-free slot in word {w}");
            self.words[w] &= !mask;
            self.summary_update(w);
        }
        self.free_count -= n;
    }

    /// Number of free slots in `[start, end)` by per-word popcount.
    pub fn free_in_range(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let mut total = 0usize;
        for w in start / 64..=(end - 1) / 64 {
            total += (self.words[w] & Self::word_mask(w, start, end)).count_ones() as usize;
        }
        total
    }

    /// Index of the first free slot at or after `from`, if any.
    ///
    /// An empty bitmap answers at once; otherwise the scan starts at the
    /// later of `from` and the `lo` hint. The word it starts in is probed
    /// directly; past it the summary index steers the scan straight to the
    /// next word with any free slot. A search from at or below the hint
    /// finds the lowest free slot, so it moves the hint there.
    pub fn first_free_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.len || self.free_count == 0 {
            return None;
        }
        let lo = self.lo.get();
        let found = self.scan_free(from.max(lo));
        if from <= lo {
            self.lo.set(found.unwrap_or(self.len));
        }
        found
    }

    /// The summary-steered forward scan behind
    /// [`Self::first_free_at_or_after`].
    fn scan_free(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let w = from / 64;
        let masked = self.words[w] & (u64::MAX << (from % 64));
        if masked != 0 {
            return Some(w * 64 + masked.trailing_zeros() as usize);
        }
        // Summary scan: find the next word with any free slot.
        let from_w = w + 1;
        if from_w >= self.words.len() {
            return None;
        }
        let mut sw = from_w / 64;
        let mut smasked = self.summary[sw] & (u64::MAX << (from_w % 64));
        loop {
            if smasked != 0 {
                let next_w = sw * 64 + smasked.trailing_zeros() as usize;
                return Some(next_w * 64 + self.words[next_w].trailing_zeros() as usize);
            }
            sw += 1;
            if sw >= self.summary.len() {
                return None;
            }
            smasked = self.summary[sw];
        }
    }

    /// Index of the first free slot, if any.
    pub fn first_free(&self) -> Option<usize> {
        self.first_free_at_or_after(0)
    }

    /// Index of the first **used** slot at or after `from`, or `None` when
    /// everything from `from` to the end is free.
    ///
    /// The word containing `from` is probed directly; past it the `full`
    /// summary steers the scan straight over the interior of a long free
    /// run to the next word with any used slot.
    pub fn first_used_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let w = from / 64;
        let masked = !self.words[w] & (u64::MAX << (from % 64));
        if masked != 0 {
            let i = w * 64 + masked.trailing_zeros() as usize;
            // Bits past `len` in the tail word are clear (= "used");
            // they are not real slots.
            return (i < self.len).then_some(i);
        }
        let from_w = w + 1;
        if from_w >= self.words.len() {
            return None;
        }
        let mut sw = from_w / 64;
        let mut smasked = !self.full[sw] & (u64::MAX << (from_w % 64));
        loop {
            if smasked != 0 {
                let next_w = sw * 64 + smasked.trailing_zeros() as usize;
                // `full` bits beyond the last real word read as "not
                // full"; they are not real words.
                if next_w >= self.words.len() {
                    return None;
                }
                let i = next_w * 64 + (!self.words[next_w]).trailing_zeros() as usize;
                return (i < self.len).then_some(i);
            }
            sw += 1;
            if sw >= self.full.len() {
                return None;
            }
            smasked = !self.full[sw];
        }
    }

    /// End (exclusive) of the maximal free run that contains free slot
    /// `from`, when that end lies in the `max_words` words starting at
    /// `from`'s word; `None` when the run reaches past them. A bounded
    /// [`Self::first_used_at_or_after`] for callers that only want the
    /// answer when it is cheap.
    pub fn free_run_end_within(&self, from: usize, max_words: usize) -> Option<usize> {
        debug_assert!(self.is_free(from));
        let w0 = from / 64;
        let mut w = w0;
        let mut used = !self.words[w] & (u64::MAX << (from % 64));
        loop {
            if used != 0 {
                // Ghost bits past `len` read as used, so a run touching the
                // end stops at `len`.
                return Some((w * 64 + used.trailing_zeros() as usize).min(self.len));
            }
            w += 1;
            if w == self.words.len() {
                return Some(self.len);
            }
            if w - w0 >= max_words {
                return None;
            }
            used = !self.words[w];
        }
    }

    /// Start of the maximal free run containing free slot `i`.
    ///
    /// The word containing `i` is probed directly; below it the `full`
    /// summary steers the backward scan straight over the run's interior
    /// to the nearest word with any used slot.
    pub fn free_run_start(&self, i: usize) -> usize {
        debug_assert!(self.is_free(i));
        let w = i / 64;
        // Used bits strictly below `i` within its word.
        let below = if i % 64 == 0 { 0 } else { (1u64 << (i % 64)) - 1 };
        let inv = !self.words[w] & below;
        if inv != 0 {
            return w * 64 + 63 - inv.leading_zeros() as usize + 1;
        }
        if w == 0 {
            return 0;
        }
        let to_w = w - 1;
        let mut sw = to_w / 64;
        // `full` bits at and below `to_w` only.
        let keep = to_w % 64;
        let mut smasked =
            !self.full[sw] & (if keep == 63 { u64::MAX } else { (1u64 << (keep + 1)) - 1 });
        loop {
            if smasked != 0 {
                let pw = sw * 64 + 63 - smasked.leading_zeros() as usize;
                // The word is not fully free, so it has a used bit.
                let inv = !self.words[pw];
                return pw * 64 + 63 - inv.leading_zeros() as usize + 1;
            }
            if sw == 0 {
                return 0;
            }
            sw -= 1;
            smasked = !self.full[sw];
        }
    }

    /// Start of the first maximal free run of at least `k` slots, if any.
    ///
    /// A single streaming pass: a run length is carried across words, the
    /// `summary` index skips fully-used 64-word blocks, the `full` index
    /// swallows fully-free 64-word blocks, and only mixed words are walked
    /// segment by segment. Takes `&mut self` because the walk lazily
    /// refreshes the per-word longest-run cache (`max_run`) that lets it
    /// dismiss most mixed words without walking them.
    pub fn first_free_run(&mut self, k: usize) -> Option<usize> {
        self.first_free_run_before(k, self.len)
    }

    /// Like [`Self::first_free_run`], but gives up once the next run would
    /// start at or past `limit` — the caller already knows a qualifying run
    /// begins there, so anything the scan could still find cannot be the
    /// first fit. Runs that *begin* below `limit` are followed to their end.
    ///
    /// The scan starts at the word holding the `lo` hint: every slot below
    /// the hint is used, so no run begins earlier and none is carried in.
    pub fn first_free_run_before(&mut self, k: usize, limit: usize) -> Option<usize> {
        debug_assert!(k > 0);
        let nwords = self.words.len();
        let mut run_start = 0usize;
        let mut run_len = 0usize;
        let mut w = self.lo.get() / 64;
        while w < nwords {
            if run_len == 0 && w * 64 >= limit {
                return None;
            }
            if w % 64 == 0 {
                let sw = w / 64;
                if self.summary[sw] == 0 {
                    // 64 all-used words.
                    run_len = 0;
                    w += 64;
                    continue;
                }
                if self.full[sw] == u64::MAX {
                    // 64 all-free words (only possible away from the tail).
                    if run_len == 0 {
                        run_start = w * 64;
                    }
                    run_len += 64 * 64;
                    if run_len >= k {
                        return Some(run_start);
                    }
                    w += 64;
                    continue;
                }
            }
            let word = self.words[w];
            if word == 0 {
                run_len = 0;
            } else if word == u64::MAX {
                if run_len == 0 {
                    run_start = w * 64;
                }
                run_len += 64;
                if run_len >= k {
                    return Some(run_start);
                }
            } else {
                // Mixed word. A qualifying run can only end inside it two
                // ways: the carried run grows by the word's trailing free
                // bits, or a run lies wholly within the word — and the
                // latter is bounded by the cached longest in-word run. When
                // neither reaches `k`, the segment walk below cannot return
                // here, so skip it: the state it would leave behind is
                // exactly the word's leading free bits as the carried run.
                let prefix = word.trailing_ones() as usize;
                if run_len > 0 && run_len + prefix >= k {
                    return Some(run_start);
                }
                if self.max_run_of(w) < k {
                    let suffix = word.leading_ones() as usize;
                    run_len = suffix;
                    if suffix > 0 {
                        run_start = w * 64 + 64 - suffix;
                    }
                } else {
                    // The run ends here: walk the word's used/free segments
                    // to find where.
                    let mut x = word;
                    let mut offset = 0usize;
                    while offset < 64 {
                        if x & 1 == 0 {
                            if x == 0 {
                                // Used through the top of the word.
                                run_len = 0;
                                break;
                            }
                            let used = x.trailing_zeros() as usize;
                            run_len = 0;
                            x >>= used;
                            offset += used;
                        } else {
                            // The shift above filled the top with zeros, so
                            // this counts at most the bits left in the word.
                            let free = (!x).trailing_zeros() as usize;
                            if run_len == 0 {
                                run_start = w * 64 + offset;
                            }
                            run_len += free;
                            if run_len >= k {
                                return Some(run_start);
                            }
                            x >>= free;
                            offset += free;
                        }
                    }
                }
            }
            w += 1;
        }
        None
    }

    /// Extends the bitmap to `new_len` slots; the new slots start **used**.
    pub fn grow(&mut self, new_len: usize) {
        debug_assert!(new_len >= self.len);
        let nwords = new_len.div_ceil(64);
        self.words.resize(nwords, 0);
        self.summary.resize(nwords.div_ceil(64), 0);
        self.full.resize(nwords.div_ceil(64), 0);
        // All-used new words have a longest free run of exactly 0.
        self.max_run.resize(nwords, 0);
        self.len = new_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_used() {
        let b = FreeBitmap::new(100);
        assert_eq!(b.free_count(), 0);
        assert_eq!(b.first_free(), None);
        assert!(!b.is_free(0));
    }

    #[test]
    fn set_and_find() {
        let mut b = FreeBitmap::new(200);
        b.set_free(5);
        b.set_free(130);
        assert_eq!(b.free_count(), 2);
        assert_eq!(b.first_free(), Some(5));
        assert_eq!(b.first_free_at_or_after(6), Some(130));
        assert_eq!(b.first_free_at_or_after(131), None);
        b.set_used(5);
        assert_eq!(b.first_free(), Some(130));
    }

    #[test]
    fn boundary_at_word_edges() {
        let mut b = FreeBitmap::new(128);
        b.set_free(63);
        b.set_free(64);
        b.set_free(127);
        assert_eq!(b.first_free_at_or_after(63), Some(63));
        assert_eq!(b.first_free_at_or_after(64), Some(64));
        assert_eq!(b.first_free_at_or_after(65), Some(127));
    }

    #[test]
    fn out_of_range_from_is_none() {
        let mut b = FreeBitmap::new(10);
        b.set_free(9);
        assert_eq!(b.first_free_at_or_after(10), None);
        assert_eq!(b.first_free_at_or_after(9), Some(9));
    }

    #[test]
    fn bits_beyond_len_are_ignored() {
        // len not a multiple of 64: ensure search never reports ghost slots.
        let b = FreeBitmap::new(70);
        assert_eq!(b.first_free(), None);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut b = FreeBitmap::new(4);
        b.set_free(1);
        b.set_free(1);
    }

    #[test]
    fn summary_skips_long_used_regions() {
        // One free slot far out: the scan must find it through thousands of
        // empty words.
        let mut b = FreeBitmap::new(1 << 18);
        b.set_free((1 << 18) - 3);
        assert_eq!(b.first_free(), Some((1 << 18) - 3));
        assert_eq!(b.first_free_at_or_after(12345), Some((1 << 18) - 3));
        b.set_used((1 << 18) - 3);
        assert_eq!(b.first_free(), None);
    }

    #[test]
    fn full_summary_skips_long_free_runs() {
        // A quarter-million-slot free run with used slots only at the very
        // edges: both run-boundary scans must cross it via the `full`
        // summary and still land exactly.
        let n = 1 << 18;
        let mut b = FreeBitmap::new(n);
        b.set_range_free(1, n - 2);
        assert_eq!(b.first_used_at_or_after(1), Some(n - 1));
        assert_eq!(b.free_run_start(n - 2), 1);
        assert_eq!(b.first_free_run(n - 2), Some(1));
        // Poke a hole mid-run: scans from either side stop at it, and the
        // run search rolls over to whichever half still fits.
        b.set_used(n / 2);
        assert_eq!(b.first_used_at_or_after(1), Some(n / 2));
        assert_eq!(b.free_run_start(n - 2), n / 2 + 1);
        assert_eq!(b.free_run_start(n / 2 - 1), 1);
        assert_eq!(b.first_free_run(n / 2 - 1), Some(1));
        assert_eq!(b.first_free_run(n / 2), None, "both halves now too short");
    }

    #[test]
    fn range_ops_cross_word_boundaries() {
        let mut b = FreeBitmap::new(300);
        b.set_range_free(50, 120); // spans words 0..=2
        assert_eq!(b.free_count(), 120);
        assert!(b.is_free(50) && b.is_free(169) && !b.is_free(49) && !b.is_free(170));
        assert_eq!(b.free_in_range(0, 300), 120);
        assert_eq!(b.free_in_range(60, 70), 10);
        assert_eq!(b.free_in_range(0, 51), 1);
        b.set_range_used(60, 20);
        assert_eq!(b.free_count(), 100);
        assert_eq!(b.free_in_range(50, 170), 100);
        assert!(!b.is_free(60) && !b.is_free(79) && b.is_free(59) && b.is_free(80));
    }

    #[test]
    fn range_ops_exact_word_and_single_slot() {
        let mut b = FreeBitmap::new(192);
        b.set_range_free(64, 64); // exactly word 1
        assert_eq!(b.free_in_range(64, 128), 64);
        assert_eq!(b.first_free(), Some(64));
        b.set_range_used(64, 64);
        assert_eq!(b.free_count(), 0);
        b.set_range_free(63, 1);
        assert_eq!(b.free_count(), 1);
        assert!(b.is_free(63));
    }

    #[test]
    fn first_used_and_run_scans() {
        let mut b = FreeBitmap::new(400);
        b.set_range_free(10, 30); // run [10, 40)
        b.set_range_free(100, 200); // run [100, 300)
        assert_eq!(b.first_used_at_or_after(0), Some(0));
        assert_eq!(b.first_used_at_or_after(10), Some(40));
        assert_eq!(b.first_used_at_or_after(150), Some(300));
        assert_eq!(b.free_run_start(15), 10);
        assert_eq!(b.free_run_start(10), 10);
        assert_eq!(b.free_run_start(299), 100);
        assert_eq!(b.first_free_run(20), Some(10));
        assert_eq!(b.first_free_run(31), Some(100));
        assert_eq!(b.first_free_run(200), Some(100));
        assert_eq!(b.first_free_run(201), None);
    }

    #[test]
    fn run_to_the_end_is_open() {
        let mut b = FreeBitmap::new(100);
        b.set_range_free(90, 10);
        assert_eq!(b.first_used_at_or_after(90), None);
        assert_eq!(b.first_free_run(10), Some(90));
        assert_eq!(b.free_run_start(99), 90);
    }

    #[test]
    fn grow_adds_used_slots() {
        let mut b = FreeBitmap::new(10);
        b.set_range_free(0, 10);
        b.grow(500);
        assert_eq!(b.len(), 500);
        assert_eq!(b.free_count(), 10);
        assert!(!b.is_free(10) && !b.is_free(499));
        assert_eq!(b.first_used_at_or_after(0), Some(10));
        b.set_free(499);
        assert_eq!(b.first_free_at_or_after(10), Some(499));
    }

    #[test]
    fn ragged_tail_runs_at_1000_and_1601() {
        // Unit counts not a multiple of 64 (tail word partly ghost): the
        // run scans must neither count ghost bits past `len` as free nor
        // miss runs that touch or live inside the tail word.
        for n in [1000usize, 1601] {
            let mut b = FreeBitmap::new(n);
            b.set_range_free(n - 37, 37);
            assert_eq!(b.first_free_run(37), Some(n - 37), "run touching the end (n={n})");
            assert_eq!(b.first_free_run(38), None, "ghost bits must not extend a run (n={n})");
            assert_eq!(b.first_free_run_before(37, n), Some(n - 37), "n={n}");
            assert_eq!(b.first_used_at_or_after(n - 37), None, "n={n}");
            assert_eq!(b.free_run_start(n - 1), n - 37, "n={n}");
            // Punch a hole near the end: the runs split exactly.
            b.set_used(n - 20);
            assert_eq!(b.first_free_run(18), Some(n - 19), "n={n}");
            assert_eq!(b.first_free_run(20), None, "n={n}");
            // A fully free ragged bitmap is one run of exactly `len`.
            let mut c = FreeBitmap::new(n);
            c.set_range_free(0, n);
            assert_eq!(c.first_free_run(n), Some(0), "n={n}");
            assert_eq!(c.first_free_run(n + 1), None, "n={n}");
        }
    }

    #[test]
    fn max_run_cache_tracks_mutation() {
        // The lazily maintained longest-run cache must go stale and refresh
        // correctly as words mutate — including the partial tail word.
        let mut b = FreeBitmap::new(1601);
        b.set_range_free(100, 30);
        assert_eq!(b.first_free_run(30), Some(100));
        b.set_used(110);
        assert_eq!(b.first_free_run(30), None, "cache entry must not survive the punch");
        assert_eq!(b.first_free_run(19), Some(111));
        b.set_free(110);
        assert_eq!(b.first_free_run(30), Some(100), "cache must refresh after refill");
        // Run wholly inside the ragged tail word ([1600, 1601) is the only
        // real slot of the last word).
        let mut t = FreeBitmap::new(1601);
        t.set_range_free(1595, 6);
        assert_eq!(t.first_free_run(6), Some(1595));
        assert_eq!(t.first_free_run(7), None);
        t.set_free(1594);
        assert_eq!(t.first_free_run(7), Some(1594));
    }

    #[test]
    fn equality_ignores_cache_staleness() {
        let mut a = FreeBitmap::new(200);
        a.set_range_free(10, 50);
        let b = a.clone();
        // Refresh a's cache only; the bitmaps still hold the same slots.
        assert_eq!(a.first_free_run(8), Some(10));
        assert_eq!(a, b);
    }
}
