//! Deterministic event queue.
//!
//! The simulation is driven by a single priority queue of timestamped
//! events. Two events with the same timestamp are delivered in the order
//! they were pushed (FIFO tie-breaking via a monotonically increasing
//! sequence number), which makes every run bit-for-bit reproducible for a
//! given seed.
//!
//! Two interchangeable backends implement that contract:
//!
//! * [`SchedulerKind::Wheel`] (the default) — a hierarchical timing wheel
//!   (Varghese & Lauck) with three tiers:
//!   1. a level-1 ring of 256 slots of 8192 cycles (≈ 0.78 ms at
//!      2.7 GHz) for packets, softirqs and process wakes;
//!   2. a level-2 ring of 256 buckets, each 128 level-1 slots wide
//!      (≈ 99 ms in all), for protocol timers — TIME_WAIT expiry, RTO
//!      and hold releases. A bucket cascades into the level-1 ring
//!      once, shortly before its first slot comes due;
//!   3. a binary heap for the rare timers beyond that horizon, such as
//!      2-second client timeouts.
//!
//!   Pushes into either ring are O(1), so the common timers never sift
//!   past the tens of thousands of far-future timeouts in the heap.
//! * [`SchedulerKind::Heap`] — the original global `BinaryHeap`, kept as
//!   the differential-testing and benchmarking baseline.
//!
//! Both backends produce bit-identical pop orders; the differential
//! proptests in `tests/prop_event_diff.rs` and `tests/wheel_epoch.rs`
//! drive them with identical push/pop schedules and assert exactly that.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use sim_trace::Tracer;

use crate::time::Cycles;

/// A dispatch-count hook: the tracer plus the event-labeling function.
type DispatchTrace<E> = (Tracer, fn(&E) -> &'static str);

/// Which event-queue backend drives the simulation.
///
/// Both orders are proven identical; the knob exists so benchmarks and
/// tests can compare them and so a regression can be bisected to the
/// scheduler in one config flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Two-level timing wheel + far-future heap (default, fast).
    #[default]
    Wheel,
    /// Single global binary heap (baseline).
    Heap,
}

/// Log2 of the level-1 slot width in cycles: 8192 cycles ≈ 3 µs per slot.
const SLOT_BITS: u32 = 13;
/// Number of level-1 slots; the near horizon is `SLOTS << SLOT_BITS`
/// cycles (≈ 0.78 ms at 2.7 GHz) — comfortably past one RTT, so every
/// packet, softirq and wake event stays on the level-1 ring.
const WHEEL_SLOTS: usize = 256;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
/// Log2 of the level-1 slots one level-2 bucket spans.
const BUCKET_BITS: u32 = 7;
const BUCKET_SLOTS: u64 = 1 << BUCKET_BITS;
/// Number of level-2 buckets (≈ 99 ms of horizon at 2.7 GHz).
const BUCKETS: usize = 256;
const BUCKET_MASK: u64 = BUCKETS as u64 - 1;
/// Both rings share one occupancy-bitmap shape.
const OCC_WORDS: usize = 4;

// A bucket cascades while the level-1 cursor sits in the bucket before
// it, so the whole bucket must fit the exclusive level-1 window
// `(cur_slot, cur_slot + WHEEL_SLOTS)` from any cursor position there:
// a bucket may span at most half a rotation.
const _: () = assert!(2 * BUCKET_SLOTS <= WHEEL_SLOTS as u64);
const _: () = assert!(WHEEL_SLOTS == OCC_WORDS * 64 && BUCKETS == OCC_WORDS * 64);

/// One full rotation of the level-1 ring, in cycles. An event scheduled
/// exactly this far ahead has the same `slot & WHEEL_MASK` ring index
/// as the current slot — the epoch-aliasing hazard. The push-side
/// bound is strict (`slot < cur_slot + WHEEL_SLOTS`), so such an event
/// is routed to a level-2 bucket rather than aliasing into the current
/// rotation; `tests/wheel_epoch.rs` pins that behaviour across multiple
/// rotations.
pub const WHEEL_SPAN_CYCLES: Cycles = (WHEEL_SLOTS as u64) << SLOT_BITS;

/// Width of one level-2 bucket, in cycles (half a level-1 rotation).
/// Bucket `b` covers `[b * BUCKET_SPAN_CYCLES, (b + 1) * BUCKET_SPAN_CYCLES)`.
pub const BUCKET_SPAN_CYCLES: Cycles = BUCKET_SLOTS << SLOT_BITS;

/// One full rotation of the level-2 ring, in cycles. Events more than
/// about this far ahead of the current slot wait in the far-future heap.
pub const LEVEL2_SPAN_CYCLES: Cycles = (BUCKETS as u64) * BUCKET_SPAN_CYCLES;

/// An event queue ordered by `(time, insertion order)`: equal-time
/// events dispatch in the order they were scheduled.
///
/// # Example
///
/// ```
/// # use sim_core::event::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, 'b');
/// q.push(10, 'a');
/// q.push(20, 'c');
/// assert_eq!(q.pop(), Some((10, 'a')));
/// assert_eq!(q.pop(), Some((20, 'b')));
/// assert_eq!(q.pop(), Some((20, 'c')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    seq: u64,
    popped: u64,
    trace: Option<DispatchTrace<E>>,
}

#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    Wheel(Box<Wheel<E>>),
}

#[derive(Debug)]
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// First set bit of a 256-bit ring bitmap at absolute index in
/// `[start, limit)` (`limit - start <= 256`), scanning a word at a time.
fn first_set(bits: &[u64; OCC_WORDS], start: u64, limit: u64) -> Option<u64> {
    let mut abs = start;
    while abs < limit {
        let idx = (abs & WHEEL_MASK) as usize;
        let word = bits[idx / 64] >> (idx % 64);
        if word != 0 {
            let cand = abs + u64::from(word.trailing_zeros());
            return (cand < limit).then_some(cand);
        }
        abs += 64 - (idx % 64) as u64;
    }
    None
}

fn set_bit(bits: &mut [u64; OCC_WORDS], idx: usize) {
    bits[idx / 64] |= 1 << (idx % 64);
}

fn clear_bit(bits: &mut [u64; OCC_WORDS], idx: usize) {
    bits[idx / 64] &= !(1 << (idx % 64));
}

/// Three-tier scheduler state.
///
/// Invariants:
/// * `batch` holds *all* pending events whose slot is `<= cur_slot`,
///   sorted descending by `(time, seq)` so `Vec::pop` yields the minimum.
/// * `ring[s]` holds events whose absolute slot is in
///   `(cur_slot, cur_slot + WHEEL_SLOTS)`; `occupied` mirrors non-empty
///   slots.
/// * `buckets[b]` holds events whose absolute bucket (`slot >>
///   BUCKET_BITS`) is in `[bucket_base(), bucket_base() + BUCKETS)` —
///   every one starts after `cur_slot`; `bucket_occ` mirrors non-empty
///   buckets.
/// * `far` holds only events that were past the level-2 window when
///   pushed; they are compared by time on every advance, never moved.
#[derive(Debug)]
struct Wheel<E> {
    /// Absolute slot index (`time >> SLOT_BITS`) the batch covers.
    cur_slot: u64,
    /// Events of the current slot, sorted descending; pop from the end.
    batch: Vec<Entry<E>>,
    /// Level 1: near-future slots, indexed by absolute slot & `WHEEL_MASK`.
    ring: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `ring` (one bit per slot).
    occupied: [u64; OCC_WORDS],
    /// Level 2: timer buckets, indexed by absolute bucket & `BUCKET_MASK`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `buckets`.
    bucket_occ: [u64; OCC_WORDS],
    /// Far-future tier: timers beyond the level-2 horizon.
    far: BinaryHeap<Entry<E>>,
    len: usize,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            cur_slot: 0,
            batch: Vec::new(),
            ring: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            bucket_occ: [0; OCC_WORDS],
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    /// The first bucket that starts after `cur_slot`: the low end of the
    /// level-2 window.
    fn bucket_base(&self) -> u64 {
        (self.cur_slot >> BUCKET_BITS) + 1
    }

    fn push(&mut self, time: Cycles, seq: u64, event: E) {
        self.len += 1;
        let entry = Entry { time, seq, event };
        let slot = time >> SLOT_BITS;
        if slot <= self.cur_slot {
            // Current (or past) slot: merge into the sorted batch. The
            // batch is descending, so find the first entry not greater
            // than the new key and insert before it.
            let pos = self
                .batch
                .partition_point(|e| (e.time, e.seq) > (entry.time, entry.seq));
            self.batch.insert(pos, entry);
        } else if slot < self.cur_slot + WHEEL_SLOTS as u64 {
            self.push_ring(slot, entry);
        } else {
            // `slot >= cur_slot + 2 * BUCKET_SLOTS`, so the bucket is at
            // or past `bucket_base()`.
            let bucket = slot >> BUCKET_BITS;
            if bucket < self.bucket_base() + BUCKETS as u64 {
                let idx = (bucket & BUCKET_MASK) as usize;
                self.buckets[idx].push(entry);
                set_bit(&mut self.bucket_occ, idx);
            } else {
                self.far.push(entry);
            }
        }
    }

    fn push_ring(&mut self, slot: u64, entry: Entry<E>) {
        let idx = (slot & WHEEL_MASK) as usize;
        self.ring[idx].push(entry);
        set_bit(&mut self.occupied, idx);
    }

    /// Moves every event of level-2 `bucket` into the level-1 ring.
    ///
    /// The cursor first enters the previous bucket (it never moves back),
    /// which puts the bucket's last slot, `first + BUCKET_SLOTS - 1`,
    /// inside the exclusive window `(cur_slot, cur_slot + WHEEL_SLOTS)`.
    /// Only called from `advance`, when no event is pending before the
    /// bucket's first slot.
    fn cascade(&mut self, bucket: u64) {
        let first = bucket << BUCKET_BITS;
        debug_assert!(first > self.cur_slot, "bucket {bucket} already due");
        self.cur_slot = self.cur_slot.max(first - BUCKET_SLOTS);
        let idx = (bucket & BUCKET_MASK) as usize;
        clear_bit(&mut self.bucket_occ, idx);
        // The bucket's vector is freed, not kept for reuse: timer waves
        // (an RTO per segment sent) visit every bucket in turn, so
        // keeping each bucket's peak capacity would hold the wave's
        // peak 256 times over.
        for entry in std::mem::take(&mut self.buckets[idx]) {
            self.push_ring(entry.time >> SLOT_BITS, entry);
        }
    }

    /// Refills `batch` from the earliest non-empty tier. Called only when
    /// `batch` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.batch.is_empty());
        let target = loop {
            let ring_slot = first_set(
                &self.occupied,
                self.cur_slot + 1,
                self.cur_slot + WHEEL_SLOTS as u64,
            );
            let far_slot = self.far.peek().map(|e| e.time >> SLOT_BITS);
            let next = match (ring_slot, far_slot) {
                (Some(r), Some(f)) => Some(r.min(f)),
                (r, f) => r.or(f),
            };
            // A bucket that starts at or before the next ring/far slot
            // may hold the earliest event: cascade it and look again.
            let base = self.bucket_base();
            let due = first_set(&self.bucket_occ, base, base + BUCKETS as u64)
                .filter(|&b| next.is_none_or(|n| b << BUCKET_BITS <= n));
            match due {
                Some(b) => self.cascade(b),
                None => break next.expect("advance called on empty wheel"),
            }
        };
        self.cur_slot = target;
        // The target's ring slot, if occupied, becomes the batch.
        let idx = (target & WHEEL_MASK) as usize;
        if self.occupied[idx / 64] & (1 << (idx % 64)) != 0 {
            std::mem::swap(&mut self.batch, &mut self.ring[idx]);
            clear_bit(&mut self.occupied, idx);
        }
        // Drain every far event that belongs to the new current slot so
        // the batch invariant (all pending events of cur_slot) holds.
        while self
            .far
            .peek()
            .is_some_and(|e| e.time >> SLOT_BITS == target)
        {
            self.batch
                .push(self.far.pop().expect("peeked entry vanished"));
        }
        // Descending order: the minimum (time, seq) sits at the end.
        self.batch
            .sort_unstable_by_key(|e| core::cmp::Reverse((e.time, e.seq)));
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.len == 0 {
            return None;
        }
        if self.batch.is_empty() {
            self.advance();
        }
        self.len -= 1;
        self.batch.pop()
    }

    fn peek_time(&mut self) -> Option<Cycles> {
        if self.len == 0 {
            return None;
        }
        if self.batch.is_empty() {
            self.advance();
        }
        self.batch.last().map(|e| e.time)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default (wheel) scheduler.
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::default(), 0)
    }

    /// Creates an empty queue sized for about `cap` pending events (see
    /// [`EventQueue::with_scheduler`]).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_scheduler(SchedulerKind::default(), cap)
    }

    /// Creates an empty queue with an explicit backend. The heap backend
    /// pre-allocates `cap` entries. The wheel's tiers all grow on demand:
    /// its far-future heap holds only the timers past the level-2
    /// horizon, usually a small share of the backlog, so pre-sizing it
    /// for the whole backlog would only hold memory.
    pub fn with_scheduler(kind: SchedulerKind, cap: usize) -> Self {
        let backend = match kind {
            SchedulerKind::Wheel => Backend::Wheel(Box::new(Wheel::new())),
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::with_capacity(cap)),
        };
        EventQueue {
            backend,
            seq: 0,
            popped: 0,
            trace: None,
        }
    }

    /// Which backend this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.backend {
            Backend::Heap(_) => SchedulerKind::Heap,
            Backend::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    /// Counts every delivered event under the label `label(&event)`
    /// returns, feeding the tracer's dispatch-mix table.
    pub fn set_tracer(&mut self, tracer: Tracer, label: fn(&E) -> &'static str) {
        self.trace = Some((tracer, label));
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: Cycles, event: E) {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(Entry { time, seq, event }),
            Backend::Wheel(wheel) => wheel.push(time, seq, event),
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = match &mut self.backend {
            Backend::Heap(heap) => heap.pop()?,
            Backend::Wheel(wheel) => wheel.pop()?,
        };
        self.popped += 1;
        if let Some((tracer, label)) = &self.trace {
            tracer.count_dispatch(label(&e.event));
        }
        Some((e.time, e.event))
    }

    /// Drains every pending event that shares the earliest timestamp into
    /// `out` (in FIFO order) and returns that timestamp, or `None` when
    /// empty. Events the caller schedules *at* the returned timestamp
    /// while dispatching the batch get later sequence numbers, so they
    /// form the next batch — exactly the order per-event `pop` yields.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<Cycles> {
        let (t, first) = self.pop()?;
        out.push(first);
        while self.peek_time() == Some(t) {
            let (_, e) = self.pop().expect("peeked event vanished");
            out.push(e);
        }
        Some(t)
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Cycles> {
        match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.time),
            Backend::Wheel(wheel) => wheel.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Wheel(wheel) => wheel.len,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (diagnostics).
    pub fn delivered(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [EventQueue<u32>; 2] {
        [
            EventQueue::with_scheduler(SchedulerKind::Wheel, 0),
            EventQueue::with_scheduler(SchedulerKind::Heap, 0),
        ]
    }

    #[test]
    fn orders_by_time() {
        for mut q in both() {
            q.push(5, 5u32);
            q.push(1, 1);
            q.push(3, 3);
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 3, 5]);
        }
    }

    #[test]
    fn fifo_on_equal_time() {
        for mut q in both() {
            for i in 0..100u32 {
                q.push(42, i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut q = EventQueue::with_scheduler(kind, 0);
            q.push(10, "a");
            q.push(30, "c");
            assert_eq!(q.pop(), Some((10, "a")));
            q.push(20, "b");
            assert_eq!(q.pop(), Some((20, "b")));
            assert_eq!(q.pop(), Some((30, "c")));
        }
    }

    #[test]
    fn far_future_events_cascade_back() {
        // Past the level-1 horizon (level-2 buckets) and past the
        // level-2 horizon (far heap), with pushes between pops.
        for horizon in [WHEEL_SPAN_CYCLES, LEVEL2_SPAN_CYCLES] {
            for mut q in both() {
                q.push(3 * horizon, 3u32);
                q.push(1, 1);
                q.push(7 * horizon, 7);
                q.push(horizon + 5, 2);
                assert_eq!(q.pop(), Some((1, 1)));
                assert_eq!(q.pop(), Some((horizon + 5, 2)));
                q.push(5 * horizon, 5);
                assert_eq!(q.pop(), Some((3 * horizon, 3)));
                assert_eq!(q.pop(), Some((5 * horizon, 5)));
                assert_eq!(q.pop(), Some((7 * horizon, 7)));
                assert_eq!(q.pop(), None);
            }
        }
    }

    #[test]
    fn lone_event_in_last_slot_of_a_bucket_pops() {
        // 331,342,594 cycles is in slot 40447, the last level-1 slot of
        // a bucket. A bucket spanning a whole rotation, cascaded from
        // the slot before it, would leave this slot outside the level-1
        // window and lose the event. (Here it is past the level-2
        // horizon, so it waits in the far heap.)
        let mut times = vec![331_342_594];
        // The same edge for buckets inside the level-2 window, which
        // do cascade: the last slot's first and last cycle, and the
        // first cycle of the next bucket.
        for b in [1u64, 2, 5, 128, 255] {
            let last = (b + 1) * BUCKET_SPAN_CYCLES - 1;
            times.extend([last, last + 1, last - (1 << SLOT_BITS) + 1]);
        }
        for t in times {
            for mut q in both() {
                q.push(t, 1u32);
                assert_eq!(q.pop(), Some((t, 1)), "lone event at {t} lost");
                assert_eq!(q.pop(), None);
            }
        }
    }

    #[test]
    fn bucket_cascade_merges_with_level1_and_batch_pushes() {
        // One slot reached through a level-2 bucket, the level-1 ring
        // and a late batch push keeps (time, seq) order.
        let t = 5 * BUCKET_SPAN_CYCLES + 3;
        for mut q in both() {
            q.push(t + 1, 10u32); // level 2 at push time
            q.push(0, 0);
            q.push(t - WHEEL_SPAN_CYCLES / 2, 1);
            assert_eq!(q.pop(), Some((0, 0)));
            assert_eq!(q.pop(), Some((t - WHEEL_SPAN_CYCLES / 2, 1)));
            q.push(t + 1, 11); // level 1 now
            q.push(t, 9);
            assert_eq!(q.pop(), Some((t, 9)));
            q.push(t + 1, 12); // current slot: straight into the batch
            assert_eq!(q.pop(), Some((t + 1, 10)));
            assert_eq!(q.pop(), Some((t + 1, 11)));
            assert_eq!(q.pop(), Some((t + 1, 12)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn same_slot_mixed_tiers_keep_fifo() {
        // Events in one slot arriving via ring, far tier and late pushes
        // must still come out in (time, seq) order.
        let t = ((WHEEL_SLOTS as u64) + 3) << SLOT_BITS;
        for mut q in both() {
            q.push(t + 2, 20u32); // far at creation time
            q.push(t + 1, 10);
            q.push(t + 2, 21);
            q.push(0, 0);
            assert_eq!(q.pop(), Some((0, 0)));
            // Now cur advances into range; same-slot push lands in batch.
            assert_eq!(q.pop(), Some((t + 1, 10)));
            q.push(t + 2, 22);
            assert_eq!(q.pop(), Some((t + 2, 20)));
            assert_eq!(q.pop(), Some((t + 2, 21)));
            assert_eq!(q.pop(), Some((t + 2, 22)));
        }
    }

    #[test]
    fn pop_batch_groups_equal_times() {
        for mut q in both() {
            q.push(10, 1u32);
            q.push(10, 2);
            q.push(20, 3);
            q.push(10, 4);
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(&mut out), Some(10));
            assert_eq!(out, vec![1, 2, 4]);
            out.clear();
            assert_eq!(q.pop_batch(&mut out), Some(20));
            assert_eq!(out, vec![3]);
            out.clear();
            assert_eq!(q.pop_batch(&mut out), None);
            assert_eq!(q.delivered(), 4);
        }
    }

    #[test]
    fn dispatch_labels_reach_the_tracer() {
        let mut q = EventQueue::new();
        let t = Tracer::enabled(1, 16);
        q.set_tracer(t.clone(), |e: &u32| {
            if (*e).is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        });
        for i in 0..5u32 {
            q.push(i as Cycles, i);
        }
        while q.pop().is_some() {}
        let counts = t.dispatch_counts();
        assert_eq!(counts, vec![("even", 3), ("odd", 2)]);
    }

    #[test]
    fn counters_track_len_and_delivered() {
        for mut q in both() {
            assert!(q.is_empty());
            q.push(1, 1);
            q.push(2, 2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(1));
            q.pop();
            assert_eq!(q.delivered(), 1);
            assert_eq!(q.len(), 1);
        }
    }
}
