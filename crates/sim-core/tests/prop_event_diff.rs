//! Differential proptest: the timing-wheel scheduler must reproduce the
//! binary heap's pop order bit-for-bit — including FIFO tie-breaking at
//! duplicate timestamps — under arbitrary interleaved push/pop schedules.

use proptest::prelude::*;
use sim_core::event::{SchedulerKind, BUCKET_SPAN_CYCLES, LEVEL2_SPAN_CYCLES};
use sim_core::{Cycles, EventQueue};

/// Width of one level-1 slot, in cycles.
const SLOT_CYCLES: Cycles = 8192;

/// Decodes one raw `(kind, magnitude)` pair into a schedule step; `now`
/// is the time of the last pop.
///
/// * `0..=7` — push at `now + offset`, with the offset scaled so cases
///   cluster on duplicate timestamps and same-slot collisions but also
///   reach past the level-1 horizon (~2.1M cycles) into the level-2
///   buckets. Simulations only ever schedule at or after "now", which
///   is why offsets are relative to the last pop.
/// * `8..=11` — pop one event from both queues.
/// * `12..=13` — drain one same-timestamp batch from both queues.
/// * `14` — push on a level-2 bucket edge: the first or the last
///   level-1 slot of a bucket up to 300 buckets ahead (some past the
///   level-2 window), each ±1 cycle.
/// * `15` — push past the level-2 span, into the far-future heap.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(Cycles),
    Pop,
    PopBatch,
}

fn decode(kind: u8, magnitude: u64, now: Cycles) -> Step {
    match kind % 16 {
        0 | 1 => Step::Push(0),
        2 | 3 => Step::Push(magnitude % 8),
        4 | 5 => Step::Push(magnitude % 10_000),
        6 => Step::Push(magnitude % 3_000_000),
        7 => Step::Push(magnitude % 600_000_000),
        8..=11 => Step::Pop,
        12 | 13 => Step::PopBatch,
        14 => {
            let bucket = now / BUCKET_SPAN_CYCLES + 1 + magnitude % 300;
            let first = bucket * BUCKET_SPAN_CYCLES;
            let last = first + BUCKET_SPAN_CYCLES - SLOT_CYCLES;
            let edge = if magnitude & (1 << 32) == 0 {
                first
            } else {
                last
            };
            // -1, 0 or +1 cycle around the slot's first cycle.
            let at = edge + (magnitude >> 40) % 3 - 1;
            Step::Push(at - now)
        }
        _ => Step::Push(LEVEL2_SPAN_CYCLES + magnitude % (4 * LEVEL2_SPAN_CYCLES)),
    }
}

/// Raw schedules: `(kind, magnitude)` pairs for [`decode`].
fn schedules() -> impl Strategy<Value = Vec<(u8, u64)>> {
    collection::vec((0u8..16, 0u64..u64::MAX), 1..400)
}

/// Drives the wheel and the heap oracle through one schedule, then
/// drains both; every pop, batch and length must agree.
fn check_schedule(raw: Vec<(u8, u64)>) -> Result<(), String> {
    let mut wheel: EventQueue<u32> = EventQueue::with_scheduler(SchedulerKind::Wheel, 0);
    let mut heap: EventQueue<u32> = EventQueue::with_scheduler(SchedulerKind::Heap, 0);
    let mut now: Cycles = 0;
    let mut id: u32 = 0;
    let (mut wb, mut hb) = (Vec::new(), Vec::new());
    for (kind, magnitude) in raw {
        match decode(kind, magnitude, now) {
            Step::Push(off) => {
                wheel.push(now + off, id);
                heap.push(now + off, id);
                id += 1;
            }
            Step::Pop => {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(w, h);
                if let Some((t, _)) = w {
                    now = t;
                }
            }
            Step::PopBatch => {
                wb.clear();
                hb.clear();
                let wt = wheel.pop_batch(&mut wb);
                let ht = heap.pop_batch(&mut hb);
                prop_assert_eq!(wt, ht);
                prop_assert_eq!(&wb, &hb);
                if let Some(t) = wt {
                    now = t;
                }
            }
        }
        prop_assert_eq!(wheel.len(), heap.len());
    }
    // Drain the rest: the full residual order must match too.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h);
        if w.is_none() {
            break;
        }
    }
    prop_assert_eq!(wheel.delivered(), heap.delivered());
    Ok(())
}

/// Release-mode soak of the differential: 100K deterministic schedules.
/// Run with `cargo test --release -p sim-core --test prop_event_diff --
/// --ignored`.
#[test]
#[ignore = "soak: run in release mode"]
fn wheel_and_heap_soak() {
    let strategy = schedules();
    for case in 0..100_000 {
        let mut rng = TestRng::for_case("prop_event_diff::wheel_and_heap_soak", case);
        if let Err(msg) = check_schedule(strategy.generate(&mut rng)) {
            panic!("soak case {case} failed:\n{msg}");
        }
    }
}

proptest! {
    #[test]
    fn wheel_and_heap_pop_identically(raw in schedules()) {
        check_schedule(raw)?;
    }
}
