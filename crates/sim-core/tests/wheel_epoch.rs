//! Wheel epoch-boundary regression tests.
//!
//! An event scheduled exactly one full level-1 span (`WHEEL_SLOTS`
//! slots' worth of cycles) ahead of the current slot computes the
//! *same* ring index under `slot & WHEEL_MASK` as the current slot. If
//! the push path ever classified such an event as near-future it would
//! alias into the current rotation and pop a whole span early. The
//! push bound is strict (`slot < cur_slot + WHEEL_SLOTS`), which routes
//! span-ahead events to a level-2 bucket. The level-2 ring has the same
//! hazard one level up: a bucket exactly one level-2 span ahead shares
//! its ring index with a bucket already in use, so it must go to the
//! far-future heap. These tests pin both, with targeted cases and with
//! a multi-rotation differential proptest against the binary-heap
//! oracle.

use proptest::prelude::*;
use sim_core::event::{BUCKET_SPAN_CYCLES, LEVEL2_SPAN_CYCLES, WHEEL_SPAN_CYCLES};
use sim_core::{Cycles, EventQueue, SchedulerKind};

/// Drains both queues completely, asserting identical pop order.
fn assert_identical_drain(wheel: &mut EventQueue<u64>, heap: &mut EventQueue<u64>) {
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "wheel diverged from heap oracle");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn span_ahead_event_does_not_alias_into_current_slot() {
    let mut q: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel, 16);
    // Same ring index (slot & MASK), one full rotation apart.
    q.push(0, 0);
    q.push(WHEEL_SPAN_CYCLES, 1);
    q.push(WHEEL_SPAN_CYCLES + 1, 2);
    q.push(5, 3);
    assert_eq!(q.pop(), Some((0, 0)));
    assert_eq!(q.pop(), Some((5, 3)));
    // The span-ahead events must surface *after* the near ones, in
    // time order — not interleaved into slot 0's batch.
    assert_eq!(q.pop(), Some((WHEEL_SPAN_CYCLES, 1)));
    assert_eq!(q.pop(), Some((WHEEL_SPAN_CYCLES + 1, 2)));
    assert_eq!(q.pop(), None);
}

#[test]
fn multiple_whole_rotations_keep_time_order() {
    let mut wheel: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel, 64);
    let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap, 64);
    // Events at k whole spans + the same intra-slot offset, pushed in
    // scrambled order: every one shares the aliased ring index.
    for &k in &[3u64, 0, 7, 1, 5, 2, 6, 4] {
        let t = k * WHEEL_SPAN_CYCLES + 42;
        wheel.push(t, k);
        heap.push(t, k);
    }
    assert_identical_drain(&mut wheel, &mut heap);
}

#[test]
fn aliased_pushes_after_partial_drain_stay_ordered() {
    // Advance the wheel mid-rotation first, then push events that alias
    // the *new* current slot — the regression is not specific to slot 0.
    let mut wheel: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel, 64);
    let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap, 64);
    for (t, v) in [(100_000u64, 0u64), (150_000, 1)] {
        wheel.push(t, v);
        heap.push(t, v);
    }
    assert_eq!(wheel.pop(), Some((100_000, 0)));
    assert_eq!(heap.pop(), Some((100_000, 0)));
    // cur_slot now covers 100_000; alias it one and two spans out.
    for (t, v) in [
        (100_000 + WHEEL_SPAN_CYCLES, 2u64),
        (100_000 + 2 * WHEEL_SPAN_CYCLES, 3),
        (100_001 + WHEEL_SPAN_CYCLES, 4),
    ] {
        wheel.push(t, v);
        heap.push(t, v);
    }
    assert_identical_drain(&mut wheel, &mut heap);
}

#[test]
fn level2_span_ahead_bucket_does_not_alias() {
    let mut wheel: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel, 64);
    let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap, 64);
    // From slot 0 the level-2 window starts at bucket 1. Bucket 1 and
    // the buckets one and two level-2 rotations past it share a ring
    // index. Each gets events at its first cycle (plus 7), one level-1
    // slot later, and its last cycle.
    let t = BUCKET_SPAN_CYCLES + 7;
    for (k, v) in [(2u64, 0u64), (0, 1), (1, 2)] {
        for (d, w) in [
            (0, 0),
            (WHEEL_SPAN_CYCLES / 256, 10),
            (BUCKET_SPAN_CYCLES - 1, 20),
        ] {
            wheel.push(t + k * LEVEL2_SPAN_CYCLES + d, v + w);
            heap.push(t + k * LEVEL2_SPAN_CYCLES + d, v + w);
        }
    }
    assert_identical_drain(&mut wheel, &mut heap);
}

#[test]
fn level2_aliases_after_partial_drain_stay_ordered() {
    // Move the cursor deep into the level-2 ring first, then push events
    // whose buckets alias buckets still pending in it.
    let mut wheel: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel, 64);
    let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap, 64);
    let start = 200 * BUCKET_SPAN_CYCLES + 11;
    // The bucket after the cursor's: the low end of the level-2 window.
    let next = start + BUCKET_SPAN_CYCLES;
    for (t, v) in [(start, 0u64), (start + 40 * BUCKET_SPAN_CYCLES, 1)] {
        wheel.push(t, v);
        heap.push(t, v);
    }
    assert_eq!(wheel.pop(), Some((start, 0)));
    assert_eq!(heap.pop(), Some((start, 0)));
    for (t, v) in [
        (next + LEVEL2_SPAN_CYCLES, 2u64),
        (next, 3),
        (start + 40 * BUCKET_SPAN_CYCLES + LEVEL2_SPAN_CYCLES, 4),
        (next + LEVEL2_SPAN_CYCLES - BUCKET_SPAN_CYCLES, 5),
        (start + 2 * LEVEL2_SPAN_CYCLES + 1, 6),
    ] {
        wheel.push(t, v);
        heap.push(t, v);
    }
    assert_identical_drain(&mut wheel, &mut heap);
}

/// One step of the generated schedule: push at `now + offset` (offsets
/// engineered to land on whole-span aliases of either ring), or pop
/// from both queues.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(Cycles),
    Pop,
}

fn decode(kind: u8, spans: u64, jitter: u64) -> Step {
    match kind % 11 {
        // Exact whole-span aliases of the current slot, 1–8 rotations
        // out — the epoch-boundary hazard itself.
        0 | 1 | 2 => Step::Push((1 + spans % 8) * WHEEL_SPAN_CYCLES),
        // One slot either side of a whole span, so the boundary's
        // neighbours are exercised too.
        3 => Step::Push((1 + spans % 4) * WHEEL_SPAN_CYCLES - 1 - (jitter % 8192)),
        4 => Step::Push((1 + spans % 4) * WHEEL_SPAN_CYCLES + 1 + (jitter % 8192)),
        // Near-future filler so rotations actually advance.
        5 => Step::Push(jitter % 10_000),
        // The same hazard one level up: whole level-2 spans, 1–3
        // rotations out, exactly and one bucket either side.
        6 => Step::Push((1 + spans % 3) * LEVEL2_SPAN_CYCLES),
        7 => Step::Push((1 + spans % 3) * LEVEL2_SPAN_CYCLES - BUCKET_SPAN_CYCLES + jitter % 8192),
        8 => Step::Push((1 + spans % 3) * LEVEL2_SPAN_CYCLES + BUCKET_SPAN_CYCLES - jitter % 8192),
        // Level-2 filler so the cursor crosses buckets.
        9 => Step::Push(jitter % (4 * BUCKET_SPAN_CYCLES)),
        _ => Step::Pop,
    }
}

proptest! {
    /// Multi-rotation differential: under schedules dense in exact
    /// whole-span offsets, the wheel must reproduce the heap oracle's
    /// pop order bit-for-bit.
    #[test]
    fn wheel_matches_heap_across_epoch_boundaries(
        raw in collection::vec((0u8..11, 0u64..64, 0u64..u64::MAX), 1..300)
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Wheel, 16);
        let mut heap: EventQueue<u64> = EventQueue::with_scheduler(SchedulerKind::Heap, 16);
        let mut now: Cycles = 0;
        let mut next_val: u64 = 0;
        for (kind, spans, jitter) in raw {
            match decode(kind, spans, jitter) {
                Step::Push(offset) => {
                    wheel.push(now + offset, next_val);
                    heap.push(now + offset, next_val);
                    next_val += 1;
                }
                Step::Pop => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b, "wheel diverged from heap");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
            }
        }
        // Drain the tail: every remaining event must agree too.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "wheel diverged from heap in final drain");
            if a.is_none() {
                break;
            }
        }
    }
}
