//! Property tests for the timed lock model: reservations never overlap
//! while live, waits are never negative, and statistics are conserved;
//! and a differential test against a reference linear-scan model.

use std::collections::VecDeque;

use proptest::prelude::*;
use sim_core::{CoreId, Cycles};
use sim_sync::{Acquisition, ClassStats, LockClass, LockCosts, LockTable};

/// Reference model of one lock: the straightforward acquire that walks
/// every retained reservation from the front.
#[derive(Default)]
struct RefLock {
    last_owner: Option<CoreId>,
    pollers: u64,
    census_cnt: u32,
    census_prev: u32,
    reservations: VecDeque<(Cycles, Cycles)>,
}

/// Reference lock table: what `LockTable` must reproduce exactly.
struct RefTable {
    locks: Vec<(LockClass, RefLock)>,
    stats: [ClassStats; LockClass::COUNT],
    costs: LockCosts,
    epoch: Cycles,
}

impl RefTable {
    fn acquire(&mut self, lock: usize, core: CoreId, now: Cycles, hold: Cycles) -> Acquisition {
        let costs = self.costs;
        let (class, lock) = &mut self.locks[lock];
        while lock
            .reservations
            .front()
            .is_some_and(|&(_, end)| end <= self.epoch)
        {
            lock.reservations.pop_front();
        }
        let line_transfer = lock.last_owner.is_some_and(|o| o != core);
        let acquire_cost = costs.uncontended + if line_transfer { costs.remote_line } else { 0 };
        lock.pollers |= 1u64 << (core.0 % 64);
        lock.census_cnt += 1;
        if lock.census_cnt >= costs.poller_census {
            lock.census_prev = lock.pollers.count_ones();
            lock.pollers = 1u64 << (core.0 % 64);
            lock.census_cnt = 0;
        }
        let pollers = u64::from(lock.pollers.count_ones().max(lock.census_prev));
        let storm = costs.handoff_per_waiter * pollers.saturating_sub(1);
        let need_free = acquire_cost + hold;
        let need_contended = need_free + storm;
        let mut cursor = now;
        let mut waiters = 0u64;
        let mut insert_at = 0;
        for (i, &(start, end)) in lock.reservations.iter().enumerate() {
            if end <= cursor {
                insert_at = i + 1;
                continue;
            }
            let need = if waiters > 0 {
                need_contended
            } else {
                need_free
            };
            if cursor + need <= start {
                break;
            }
            cursor = cursor.max(end);
            waiters += 1;
            insert_at = i + 1;
        }
        let spin = cursor - now;
        let contended = spin > 0;
        let release_at = cursor + if contended { need_contended } else { need_free };
        lock.reservations.insert(insert_at, (cursor, release_at));
        lock.last_owner = Some(core);
        let st = &mut self.stats[*class as usize];
        st.acquisitions += 1;
        if contended {
            st.contentions += 1;
            st.wait_cycles += spin;
        }
        if line_transfer {
            st.line_transfers += 1;
        }
        st.hold_cycles += release_at - cursor;
        Acquisition {
            spin,
            acquire_cost,
            acquired_at: cursor,
            contended,
            line_transfer,
        }
    }

    fn all_stats(&self) -> Vec<(LockClass, ClassStats)> {
        LockClass::ALL
            .iter()
            .map(|&c| (c, self.stats[c as usize]))
            .collect()
    }
}

/// Classes of the locks a differential schedule drives.
const DIFF_CLASSES: [LockClass; 3] = [LockClass::Slock, LockClass::EhashLock, LockClass::BaseLock];

/// One differential schedule: cost knobs `(poller_census,
/// handoff_per_waiter)` and raw `(kind, lock, core, delta, hold)` steps.
type LockSchedule = ((u32, u64), Vec<(u8, u8, u16, u64, u64)>);

fn lock_schedules() -> impl Strategy<Value = LockSchedule> {
    (
        (1u32..80, 0u64..500),
        collection::vec(
            (0u8..8, 0u8..3, 0u16..12, 0u64..u64::MAX, 0u64..3_000),
            1..300,
        ),
    )
}

/// Runs one schedule through `LockTable` and the reference, comparing
/// every acquisition and the final per-class statistics. Step kinds:
///
/// * `0` — advance the epoch by up to 20K cycles;
/// * `1` — destroy the lock and register a fresh one in its slot;
/// * `2..=5` — acquire at up to 30K cycles ahead of the epoch;
/// * `6..=7` — acquire at up to 10K cycles behind it (a lagging core).
fn check_lock_schedule((knobs, steps): LockSchedule) -> Result<(), String> {
    let costs = LockCosts {
        poller_census: knobs.0,
        handoff_per_waiter: knobs.1,
        ..LockCosts::default()
    };
    let mut t = LockTable::new(costs);
    let mut ids: Vec<_> = DIFF_CLASSES.iter().map(|&c| t.register(c)).collect();
    let mut r = RefTable {
        locks: DIFF_CLASSES
            .iter()
            .map(|&c| (c, RefLock::default()))
            .collect(),
        stats: [ClassStats::default(); LockClass::COUNT],
        costs,
        epoch: 0,
    };
    for (kind, lock, core, delta, hold) in steps {
        let l = usize::from(lock) % DIFF_CLASSES.len();
        let now = match kind {
            0 => {
                r.epoch += delta % 20_000;
                t.set_epoch(r.epoch);
                continue;
            }
            1 => {
                t.destroy(ids[l]);
                ids[l] = t.register(DIFF_CLASSES[l]);
                r.locks[l].1 = RefLock::default();
                continue;
            }
            2..=5 => r.epoch + delta % 30_000,
            _ => r.epoch.saturating_sub(delta % 10_000),
        };
        let got = t.acquire(ids[l], CoreId(core), now, hold);
        let want = r.acquire(l, CoreId(core), now, hold);
        prop_assert_eq!(
            got,
            want,
            "acquire(lock {}, core {}, now {}, hold {})",
            l,
            core,
            now,
            hold
        );
    }
    prop_assert_eq!(t.all_stats().to_vec(), r.all_stats());
    Ok(())
}

/// Release-mode soak of the differential: 100K deterministic schedules.
/// Run with `cargo test --release -p sim-sync --test prop_locks --
/// --ignored`.
#[test]
#[ignore = "soak: run in release mode"]
fn lock_matches_reference_soak() {
    let strategy = lock_schedules();
    for case in 0..100_000 {
        let mut rng = TestRng::for_case("prop_locks::lock_matches_reference_soak", case);
        if let Err(msg) = check_lock_schedule(strategy.generate(&mut rng)) {
            panic!("soak case {case} failed:\n{msg}");
        }
    }
}

proptest! {
    /// The binary-searched acquire grants, charges and counts exactly
    /// what the linear walk over every retained reservation does —
    /// across cores, hold lengths, lock recycling and epoch advances,
    /// with callers both ahead of and behind the epoch.
    #[test]
    fn acquire_matches_linear_scan_reference(schedule in lock_schedules()) {
        check_lock_schedule(schedule)?;
    }

    /// For any interleaving of acquisitions (arbitrary cores, times and
    /// hold durations), every granted interval starts at or after the
    /// request time, and the per-class statistics add up.
    #[test]
    fn acquisitions_are_sane(
        reqs in collection::vec(
            (0u16..8, 0u64..100_000, 10u64..3_000),
            1..200
        )
    ) {
        let mut t = LockTable::new(LockCosts::default());
        let lock = t.register(LockClass::Slock);
        let mut granted: Vec<(u64, u64)> = Vec::new();
        let mut contended = 0u64;
        let mut wait_total = 0u64;
        for (core, now, hold) in reqs {
            let a = t.acquire(lock, CoreId(core), now, hold);
            prop_assert!(a.acquired_at >= now);
            prop_assert_eq!(a.spin, a.acquired_at - now);
            prop_assert_eq!(a.contended, a.spin > 0);
            granted.push((a.acquired_at, a.acquired_at + a.acquire_cost + hold));
            if a.contended {
                contended += 1;
                wait_total += a.spin;
            }
        }
        let stats = t.stats(LockClass::Slock);
        prop_assert_eq!(stats.acquisitions, granted.len() as u64);
        prop_assert_eq!(stats.contentions, contended);
        prop_assert_eq!(stats.wait_cycles, wait_total);
    }

    /// Mutual exclusion: granted hold intervals never overlap, for any
    /// request pattern (reservations may be longer than requested when
    /// a contended handoff extends service — use the reported release).
    #[test]
    fn mutual_exclusion(
        reqs in collection::vec(
            (0u16..8, 0u64..50_000, 10u64..2_000),
            2..150
        )
    ) {
        let mut t = LockTable::new(LockCosts::default());
        let lock = t.register(LockClass::EpLock);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (core, now, hold) in reqs {
            let a = t.acquire(lock, CoreId(core), now, hold);
            // The minimum guaranteed-exclusive span.
            spans.push((a.acquired_at, a.acquired_at + a.acquire_cost + hold));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0,
                "granted holds overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// Without concurrent holders there is never contention: strictly
    /// spaced single-core acquisitions are all free.
    #[test]
    fn serial_use_never_contends(holds in collection::vec(1u64..1_000, 1..100)) {
        let mut t = LockTable::new(LockCosts::default());
        let lock = t.register(LockClass::BaseLock);
        let mut now = 0u64;
        for hold in holds {
            let a = t.acquire(lock, CoreId(0), now, hold);
            prop_assert!(!a.contended);
            now = a.acquired_at + a.acquire_cost + hold + 1;
        }
        prop_assert_eq!(t.stats(LockClass::BaseLock).contentions, 0);
    }
}
