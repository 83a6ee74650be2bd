//! The global event queue.
//!
//! A hierarchical timing wheel keyed by `(time, sequence)` where the
//! sequence number is a monotonically increasing insertion counter. Two
//! events scheduled for the same virtual instant are therefore delivered in
//! the order they were scheduled, which makes the whole simulation
//! deterministic.
//!
//! Layout: a `due` front buffer holds the events of the earliest non-empty
//! slot as a binary min-heap on `(time, seq)`: the minimum sits at `due[0]`,
//! so [`EventQueue::peek_time`] and the limit test of
//! [`EventQueue::pop_due`] are `O(1)`, while a pop and a push into the
//! slot being drained are `O(log n)` — a burst of thousands of events
//! landing in the current ~1 µs slot shifts no buffer. A refill of `due`
//! from a wheel slot sorts it ascending, and a sorted array is already a
//! valid min-heap. Two wheel levels of 256 slots each cover ~262 µs at
//! ~1 µs granularity (level 0) and ~67 ms at ~262 µs granularity (level 1);
//! everything beyond the level-1 horizon parks in a binary-heap overflow
//! level (the same heap routines as `due`) and is cascaded in as the cursor
//! reaches it. Occupancy bitmaps make the slot scans branch-light, and
//! [`EventQueue::clear`] keeps every backing allocation (and the insertion
//! counter) so drain/refill cycles do not reallocate.
//!
//! The pop order is exactly the `(time, seq)` min-heap order of the previous
//! binary-heap implementation: keys are unique, so any correct min-heap
//! pops them in the same order — `random_fill_drains_sorted_and_stable`,
//! `wheel_matches_reference_heap` and `due_burst_matches_reference_heap`
//! below pin that equivalence.

use crate::time::SimTime;

/// log2 of the level-0 slot granularity in nanoseconds (1024 ns ≈ 1 µs).
const SHIFT0: u32 = 10;
/// log2 of the slot count per wheel level.
const LOG_SLOTS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << LOG_SLOTS;
/// Physical-slot mask.
const MASK: u64 = (SLOTS as u64) - 1;
/// log2 of the level-1 slot granularity in nanoseconds (one full level-0 span).
const SHIFT1: u32 = SHIFT0 + LOG_SLOTS;
/// Words in a per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Running counters describing how the wheel routed and surfaced events —
/// published by the engine as the `sim.wheel.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Pushes that landed directly in the `due` front-buffer heap.
    pub push_due: u64,
    /// Pushes routed to a level-0 wheel slot.
    pub push_l0: u64,
    /// Pushes routed to a level-1 wheel slot.
    pub push_l1: u64,
    /// Pushes parked in the far-future overflow heap.
    pub push_overflow: u64,
    /// Level-1 → level-0 slot cascades (overflow drains included).
    pub cascades: u64,
}

/// Min-queue of timestamped events with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Events of the earliest slot: a binary min-heap on `(time, seq)`, so
    /// the global minimum is `due[0]`.
    due: Vec<Entry<E>>,
    /// Exclusive upper bound on the times `due` is responsible for; wheel
    /// and overflow events are all `>= due_limit`.
    due_limit: SimTime,
    /// Absolute level-0 slot index of `due_limit` (cursor).
    cur_slot0: u64,
    /// Highest absolute level-1 slot whose wheel-1 entries and overflow
    /// events have been cascaded into level 0.
    cascaded1: u64,
    wheel0: Vec<Vec<Entry<E>>>,
    wheel1: Vec<Vec<Entry<E>>>,
    occ0: [u64; OCC_WORDS],
    occ1: [u64; OCC_WORDS],
    len0: usize,
    len1: usize,
    /// Far-future overflow: binary min-heap on `(time, seq)`.
    overflow: Vec<Entry<E>>,
    next_seq: u64,
    peak: usize,
    stats: WheelStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bit_set(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot / 64] |= 1u64 << (slot % 64);
}

#[inline]
fn bit_clear(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot / 64] &= !(1u64 << (slot % 64));
}

/// First set bit at physical index `>= from`, scanning upward (no wrap).
#[inline]
fn first_set_from(occ: &[u64; OCC_WORDS], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = occ[w] & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w >= OCC_WORDS {
            return None;
        }
        word = occ[w];
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            due: Vec::new(),
            due_limit: SimTime::ZERO,
            cur_slot0: 0,
            cascaded1: 0,
            wheel0: (0..SLOTS).map(|_| Vec::new()).collect(),
            wheel1: (0..SLOTS).map(|_| Vec::new()).collect(),
            occ0: [0; OCC_WORDS],
            occ1: [0; OCC_WORDS],
            len0: 0,
            len1: 0,
            overflow: Vec::new(),
            next_seq: 0,
            peak: 0,
            stats: WheelStats::default(),
        }
    }

    /// An empty queue with room for `cap` events in the front buffer and the
    /// overflow level before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.due = Vec::with_capacity(cap);
        q.overflow = Vec::with_capacity(cap);
        q
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, event);
    }

    fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        let e = Entry {
            time: at,
            seq,
            event,
        };
        if at < self.due_limit {
            // The cursor has already passed this event's slot: push it onto
            // the front-buffer heap.
            heap_push(&mut self.due, e);
            self.stats.push_due += 1;
        } else {
            self.route(e);
            if self.due.is_empty() {
                self.advance();
            }
        }
        let n = self.len();
        if n > self.peak {
            self.peak = n;
        }
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.due.first().map(|e| e.time)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = heap_pop(&mut self.due)?;
        if self.due.is_empty() && !self.wheels_empty() {
            self.advance();
        }
        Some((e.time, e.event))
    }

    /// Remove and return the earliest event **iff** it is due at or before
    /// `limit` — the scheduler's peek-then-pop collapsed into one call.
    #[inline]
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.due.first() {
            Some(e) if e.time <= limit => self.pop(),
            _ => None,
        }
    }

    /// Drop all pending events, keeping the backing allocations (and the
    /// insertion counter) so a refill does not reallocate.
    pub fn clear(&mut self) {
        self.due.clear();
        self.overflow.clear();
        if self.len0 > 0 {
            for s in &mut self.wheel0 {
                s.clear();
            }
        }
        if self.len1 > 0 {
            for s in &mut self.wheel1 {
                s.clear();
            }
        }
        self.occ0 = [0; OCC_WORDS];
        self.occ1 = [0; OCC_WORDS];
        self.len0 = 0;
        self.len1 = 0;
        self.due_limit = SimTime::ZERO;
        self.cur_slot0 = 0;
        self.cascaded1 = 0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.due.len() + self.len0 + self.len1 + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Total number of events ever scheduled (insertion counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Peak occupancy ever reached (survives [`EventQueue::clear`]).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Routing/cascade counters for the `sim.wheel.*` metrics.
    pub fn wheel_stats(&self) -> WheelStats {
        self.stats
    }

    #[inline]
    fn wheels_empty(&self) -> bool {
        self.len0 == 0 && self.len1 == 0 && self.overflow.is_empty()
    }

    /// Exclusive end (absolute level-0 slot) of the level-1 slot the cursor
    /// is in — the level-0 wheel only ever holds events up to this boundary.
    #[inline]
    fn end0(&self) -> u64 {
        ((self.cur_slot0 >> LOG_SLOTS) + 1) << LOG_SLOTS
    }

    /// File an entry at or beyond `due_limit` into the right level.
    fn route(&mut self, e: Entry<E>) {
        let abs0 = e.time.0 >> SHIFT0;
        debug_assert!(abs0 >= self.cur_slot0);
        if abs0 < self.end0() {
            let p = (abs0 & MASK) as usize;
            self.wheel0[p].push(e);
            bit_set(&mut self.occ0, p);
            self.len0 += 1;
            self.stats.push_l0 += 1;
        } else {
            let abs1 = e.time.0 >> SHIFT1;
            let cur_abs1 = self.cur_slot0 >> LOG_SLOTS;
            if abs1 < cur_abs1 + SLOTS as u64 {
                let p = (abs1 & MASK) as usize;
                self.wheel1[p].push(e);
                bit_set(&mut self.occ1, p);
                self.len1 += 1;
                self.stats.push_l1 += 1;
            } else {
                heap_push(&mut self.overflow, e);
                self.stats.push_overflow += 1;
            }
        }
    }

    /// Cascade level-1 slot `a`'s wheel entries and overflow events into the
    /// level-0 wheel, exactly once per level-1 slot the cursor enters.
    fn enter_slot1(&mut self, a: u64) {
        if self.cascaded1 >= a {
            return;
        }
        self.cascaded1 = a;
        let p1 = (a & MASK) as usize;
        if (self.occ1[p1 / 64] >> (p1 % 64)) & 1 == 1 {
            let slot = std::mem::take(&mut self.wheel1[p1]);
            bit_clear(&mut self.occ1, p1);
            self.len1 -= slot.len();
            self.stats.cascades += 1;
            for e in slot {
                debug_assert_eq!(e.time.0 >> SHIFT1, a);
                let p = ((e.time.0 >> SHIFT0) & MASK) as usize;
                self.wheel0[p].push(e);
                bit_set(&mut self.occ0, p);
                self.len0 += 1;
            }
        }
        let bound = SimTime((a + 1) << SHIFT1);
        while self.overflow.first().is_some_and(|e| e.time < bound) {
            let e = heap_pop(&mut self.overflow).expect("non-empty");
            debug_assert!(e.time >= self.due_limit);
            let p = ((e.time.0 >> SHIFT0) & MASK) as usize;
            self.wheel0[p].push(e);
            bit_set(&mut self.occ0, p);
            self.len0 += 1;
            self.stats.cascades += 1;
        }
    }

    /// Refill `due` with the earliest non-empty slot's events. Caller
    /// guarantees `due` is empty and at least one wheel level is not.
    fn advance(&mut self) {
        debug_assert!(self.due.is_empty());
        loop {
            let cur_abs1 = self.cur_slot0 >> LOG_SLOTS;
            // Entering a level-1 slot (including implicitly, by the level-0
            // cursor rolling over a boundary) pulls in its stragglers first.
            self.enter_slot1(cur_abs1);
            if self.len0 > 0 {
                let from = (self.cur_slot0 & MASK) as usize;
                // The window never wraps: it ends at a level-1 slot
                // boundary, i.e. physical index SLOTS.
                let p = first_set_from(&self.occ0, from)
                    .expect("len0 > 0 but no occupied slot in window");
                let abs0 = (self.cur_slot0 & !MASK) + p as u64;
                debug_assert!(abs0 >= self.cur_slot0 && abs0 < self.end0());
                std::mem::swap(&mut self.due, &mut self.wheel0[p]);
                bit_clear(&mut self.occ0, p);
                self.len0 -= self.due.len();
                // An ascending array is already a valid min-heap. Keys are
                // unique (seq), so unstable sort is deterministic.
                self.due.sort_unstable_by_key(|e| e.key());
                self.cur_slot0 = abs0 + 1;
                self.due_limit = SimTime(self.cur_slot0 << SHIFT0);
                return;
            }
            // Current level-1 slot exhausted: jump to the next one holding
            // events, considering both the level-1 wheel and the overflow
            // heap (whichever is earlier).
            let mut a: Option<u64> = None;
            if self.len1 > 0 {
                let from = ((cur_abs1 + 1) & MASK) as usize;
                let p = match first_set_from(&self.occ1, from) {
                    Some(p) => p,
                    // Wrap: the window is [cur_abs1+1, cur_abs1+SLOTS).
                    None => {
                        first_set_from(&self.occ1, 0).expect("len1 > 0 but occupancy bitmap empty")
                    }
                };
                let delta = (p as u64).wrapping_sub(from as u64) & MASK;
                a = Some(cur_abs1 + 1 + delta);
            }
            if let Some(t) = self.overflow.first().map(|e| e.time) {
                let a_of = t.0 >> SHIFT1;
                a = Some(match a {
                    Some(a1) => a1.min(a_of),
                    None => a_of,
                });
            }
            let a = a.expect("advance called on an empty queue");
            debug_assert!(a > cur_abs1, "enter_slot1 already drained this slot");
            self.cur_slot0 = a << LOG_SLOTS;
            self.due_limit = SimTime(self.cur_slot0 << SHIFT0);
            // Loop back: enter_slot1(a) cascades, then the level-0 scan
            // surfaces the earliest slot.
        }
    }
}

// --- binary min-heap on (time, seq), shared by `due` and `overflow` ---------

/// Push `e` onto the min-heap `h`: `O(log n)`, and `O(1)` when `e` sorts
/// after its parent (the common case of a later event).
fn heap_push<E>(h: &mut Vec<Entry<E>>, e: Entry<E>) {
    h.push(e);
    let last = h.len() - 1;
    sift_up(h, last);
}

/// Remove the minimum of the min-heap `h`: `O(log n)`. The last entry
/// takes the root's place and walks down along the smaller children to a
/// leaf (one comparison per level), then sifts back up — usually not far,
/// since it came from the bottom.
fn heap_pop<E>(h: &mut Vec<Entry<E>>) -> Option<Entry<E>> {
    if h.is_empty() {
        return None;
    }
    let min = h.swap_remove(0);
    let n = h.len();
    if n > 1 {
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let c = if l + 1 < n && h[l + 1].key() < h[l].key() {
                l + 1
            } else {
                l
            };
            h.swap(i, c);
            i = c;
        }
        sift_up(h, i);
    }
    Some(min)
}

/// Move `h[i]` up until its parent is smaller.
fn sift_up<E>(h: &mut [Entry<E>], mut i: usize) {
    let key = h[i].key();
    while i > 0 {
        let parent = (i - 1) / 2;
        if key > h[parent].key() {
            break;
        }
        h.swap(i, parent);
        i = parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn pop_due_respects_limit() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop_due(t(5)), None);
        assert_eq!(q.pop_due(t(10)), Some((t(10), "a")));
        assert_eq!(q.pop_due(t(15)), None);
        assert_eq!(q.pop_due(t(25)), Some((t(20), "b")));
        assert_eq!(q.pop_due(t(1_000)), None);
    }

    #[test]
    fn random_fill_drains_sorted_and_stable() {
        // Wheel order must match a stable sort by (time, seq) for arbitrary
        // interleavings — the determinism contract of the whole engine.
        let mut rng = SplitMix64::new(0xDECAF);
        for round in 0..20 {
            let mut q = EventQueue::with_capacity(64);
            let n = 1 + (rng.next_below(200) as usize);
            let mut expect: Vec<(SimTime, u64)> = Vec::new();
            for i in 0..n as u64 {
                let at = SimTime(rng.next_below(50));
                q.push(at, i);
                expect.push((at, i));
            }
            expect.sort_by_key(|&(at, i)| (at, i));
            let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(got, expect, "round {round}");
        }
    }

    /// Reference implementation: the binary heap the wheel replaced.
    struct RefHeap {
        v: Vec<(SimTime, u64)>,
        seq: u64,
    }

    impl RefHeap {
        fn new() -> Self {
            RefHeap {
                v: Vec::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at: SimTime) {
            self.v.push((at, self.seq));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let i = self
                .v
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| k)
                .map(|(i, _)| i)?;
            Some(self.v.remove(i))
        }
        fn peek(&self) -> Option<(SimTime, u64)> {
            self.v.iter().min().copied()
        }
    }

    #[test]
    fn due_burst_matches_reference_heap() {
        // The conn_scale pattern: thousands of events landing in the slot
        // the cursor is draining (all times below its 1024 ns limit), at
        // one shared instant and interleaved over the slot, with pop_due
        // interleaved. Every push lands in the front-buffer heap.
        let mut rng = SplitMix64::new(0xB0_0575);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r = RefHeap::new();
        q.push(SimTime(0), r.seq);
        r.push(SimTime(0));
        assert_eq!(q.pop(), r.pop(), "load the first slot");
        for i in 0..4096u64 {
            let at = match i % 3 {
                0 => SimTime(700),
                1 => SimTime(300 + i % 11),
                _ => SimTime(rng.next_below(1024)),
            };
            q.push(at, r.seq);
            r.push(at);
            assert_eq!(q.due.first().map(Entry::key), r.peek(), "push {i}");
            if rng.next_below(3) == 0 {
                let limit = SimTime(rng.next_below(1024));
                let want = match r.peek() {
                    Some((t, _)) if t <= limit => r.pop(),
                    _ => None,
                };
                assert_eq!(q.pop_due(limit), want, "pop_due after push {i}");
            }
        }
        assert_eq!(
            q.wheel_stats().push_due,
            4096,
            "every push hit the front buffer"
        );
        assert_eq!(q.len(), r.v.len());
        loop {
            let got = q.pop();
            assert_eq!(got, r.pop(), "drain");
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_reference_heap() {
        // Property test across every level: times span due-buffer inserts,
        // both wheel levels, and the overflow heap, with interleaved pops.
        let mut rng = SplitMix64::new(0xBEEF_CAFE);
        for round in 0..40 {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut r = RefHeap::new();
            let ops = 1 + rng.next_below(400);
            for _ in 0..ops {
                if rng.next_below(3) == 0 && !q.is_empty() {
                    assert_eq!(q.pop(), r.pop(), "round {round}");
                } else {
                    // Mix scales: same-slot ties, level-0/1 spans, far future.
                    let at = match rng.next_below(4) {
                        0 => SimTime(rng.next_below(2_000)),
                        1 => SimTime(rng.next_below(1 << 12)),
                        2 => SimTime(rng.next_below(1 << 20)),
                        _ => SimTime(rng.next_below(1 << 34)),
                    };
                    q.push(at, r.seq);
                    r.push(at);
                }
            }
            loop {
                let got = q.pop();
                assert_eq!(got, r.pop(), "round {round} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn far_future_overflow_cascades_in_order() {
        let mut q = EventQueue::new();
        // One event per scale: due slot, level 0, level 1, overflow.
        q.push(SimTime(1 << 30), 3);
        q.push(SimTime(1 << 20), 2);
        q.push(SimTime(1 << 12), 1);
        q.push(SimTime(100), 0);
        assert!(q.wheel_stats().push_overflow >= 1);
        for i in 0..4 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.pop().is_none());
        assert!(q.wheel_stats().cascades >= 1);
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak(), 0);
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.pop();
        q.push(t(3), 2);
        assert_eq!(q.peak(), 2, "pop then push stays at the high-water mark");
        q.clear();
        assert_eq!(q.peak(), 2, "peak survives clear");
    }

    #[test]
    fn clear_keeps_capacity_and_counter() {
        let mut q = EventQueue::with_capacity(4);
        for i in 0..10 {
            q.push(t(i), i);
        }
        let cap = q.due.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.due.capacity(), cap);
        assert_eq!(q.scheduled_total(), 10, "seq counter survives clear");
        q.push(t(1), 99);
        assert_eq!(q.pop(), Some((t(1), 99)));
    }
}
