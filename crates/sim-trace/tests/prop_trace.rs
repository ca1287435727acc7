//! Property tests for the tracer's core invariants:
//!
//! 1. Each core's event record is monotone in timestamp, no matter how
//!    the instrumentation sites interleave (the ring clamps regressions
//!    to its high-water mark).
//! 2. Balanced enter/exit sequences nest cleanly: no unbalanced exits,
//!    empty stacks afterwards, and attributed self-cycles summing
//!    exactly to the time at least one span was open per core.
//! 3. The interned-path [`SpanFolder`] attributes exactly like the
//!    straightforward folder it replaced ([`OracleFolder`], which keys
//!    a hash map by the whole open stack), on arbitrary edge sequences
//!    including unmatched exits, early returns and window resets.

use proptest::prelude::*;
use sim_trace::{EventKind, SpanFolder, TraceEvent, TraceLabel, Tracer};
use std::collections::HashMap;

const LABELS: [TraceLabel; 8] = [
    TraceLabel::Softirq,
    TraceLabel::NetRx,
    TraceLabel::Handshake,
    TraceLabel::Vfs,
    TraceLabel::Epoll,
    TraceLabel::Timer,
    TraceLabel::SysAccept,
    TraceLabel::AppWork,
];

proptest! {
    /// Arbitrary (timestamp, core, label) triples — including ones that
    /// jump backwards in time — come back out of the tracer monotone
    /// per core.
    #[test]
    fn per_core_timestamps_are_monotone(
        raw in collection::vec((0u64..10_000, 0u16..4, 0usize..LABELS.len()), 1..300),
    ) {
        let t = Tracer::enabled(4, 64);
        for &(ts, core, li) in &raw {
            t.record(TraceEvent::enter(ts, core, LABELS[li]));
        }
        let events = t.events();
        prop_assert!(!events.is_empty());
        for core in 0..4u16 {
            let mut last = 0u64;
            for ev in events.iter().filter(|e| e.core == core) {
                prop_assert!(
                    ev.ts >= last,
                    "core {} regressed: {} after {}", core, ev.ts, last
                );
                last = ev.ts;
            }
        }
    }

    /// Random balanced span sequences across three cores: every exit
    /// matches an enter, every stack drains, and the folded attribution
    /// conserves cycles — the sum of all self-cycles equals the total
    /// time each core had at least one span open.
    #[test]
    fn balanced_spans_nest_and_conserve_cycles(
        ops in collection::vec(0u8..=255, 1..400),
    ) {
        // Ring capacity exceeds 2 * ops, so no event is ever overwritten
        // and the recorded stream is the full ground truth.
        let t = Tracer::enabled(3, 1024);
        let mut stacks: [Vec<TraceLabel>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut ts = 0u64;
        for &b in &ops {
            ts += 1 + u64::from(b & 0x7); // strictly increasing clock
            let core = usize::from(b % 3);
            let push = (b / 3) % 2 == 0 || stacks[core].is_empty();
            if push {
                let label = LABELS[usize::from(b / 6) % LABELS.len()];
                stacks[core].push(label);
                t.enter(ts, core as u16, label);
            } else {
                let label = stacks[core].pop().unwrap();
                t.exit(ts, core as u16, label);
            }
        }
        // Drain whatever is still open, innermost first.
        for (core, stack) in stacks.iter_mut().enumerate() {
            while let Some(label) = stack.pop() {
                ts += 1;
                t.exit(ts, core as u16, label);
            }
        }
        prop_assert_eq!(t.unbalanced_exits(), 0);
        for core in 0..3u16 {
            prop_assert_eq!(t.depth(core), 0, "core {} stack not drained", core);
        }
        // Cycle conservation: replay the recorded stream to get the time
        // each core spent with at least one open span; the folder must
        // attribute exactly that many self-cycles, no more, no less.
        let events = t.events();
        let mut expected = 0u64;
        for core in 0..3u16 {
            let mut depth = 0usize;
            let mut open_from = 0u64;
            for ev in events.iter().filter(|e| e.core == core) {
                match ev.kind {
                    EventKind::Enter => {
                        if depth == 0 {
                            open_from = ev.ts;
                        }
                        depth += 1;
                    }
                    EventKind::Exit => {
                        depth -= 1;
                        if depth == 0 {
                            expected += ev.ts - open_from;
                        }
                    }
                    EventKind::Instant => {}
                }
            }
        }
        let attributed: u64 = t.collapsed().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(attributed, expected, "self-cycles must tile the busy time");
    }
}

/// Every span label, so the oracle test reaches every row of the
/// interned folder's child table.
const ALL_LABELS: [TraceLabel; 25] = [
    TraceLabel::Softirq,
    TraceLabel::ProcWake,
    TraceLabel::ClientWork,
    TraceLabel::CoreOp,
    TraceLabel::NetRx,
    TraceLabel::LockWait,
    TraceLabel::ListenLookup,
    TraceLabel::EstLookup,
    TraceLabel::RfdSteer,
    TraceLabel::Vfs,
    TraceLabel::Epoll,
    TraceLabel::Timer,
    TraceLabel::Handshake,
    TraceLabel::AppWork,
    TraceLabel::SysAccept,
    TraceLabel::SysConnect,
    TraceLabel::SysSend,
    TraceLabel::SysRecv,
    TraceLabel::SysClose,
    TraceLabel::SysEpollWait,
    TraceLabel::SysEpollCtl,
    TraceLabel::SynArrival,
    TraceLabel::Established,
    TraceLabel::FirstByte,
    TraceLabel::Closed,
];

/// The reference folder: on every span exit it copies the whole open
/// stack into a fresh `Vec` and accumulates self-cycles under it in a
/// hash map. Slow, but obviously right.
#[derive(Default)]
struct OracleFolder {
    stacks: Vec<Vec<(TraceLabel, u64, u64)>>,
    folded: HashMap<Vec<TraceLabel>, u64>,
    unbalanced_exits: u64,
}

impl OracleFolder {
    fn stack(&mut self, core: u16) -> &mut Vec<(TraceLabel, u64, u64)> {
        let idx = usize::from(core);
        if idx >= self.stacks.len() {
            self.stacks.resize_with(idx + 1, Vec::new);
        }
        &mut self.stacks[idx]
    }

    fn enter(&mut self, core: u16, label: TraceLabel, ts: u64) {
        self.stack(core).push((label, ts, 0));
    }

    fn exit(&mut self, core: u16, label: TraceLabel, ts: u64) {
        if !self.stack(core).iter().any(|s| s.0 == label) {
            self.unbalanced_exits += 1;
            return;
        }
        while self.pop_top(core, ts) != Some(label) {}
    }

    fn pop_top(&mut self, core: u16, ts: u64) -> Option<TraceLabel> {
        let stack = self.stack(core);
        let (label, entered_at, child_cycles) = stack.pop()?;
        let total = ts.saturating_sub(entered_at);
        let mut path: Vec<TraceLabel> = stack.iter().map(|s| s.0).collect();
        path.push(label);
        if let Some(parent) = stack.last_mut() {
            parent.2 += total;
        }
        *self.folded.entry(path).or_insert(0) += total.saturating_sub(child_cycles);
        Some(label)
    }

    fn finish(&mut self, ts: u64) {
        for core in 0..self.stacks.len() as u16 {
            while self.pop_top(core, ts).is_some() {}
        }
    }

    fn depth(&self, core: u16) -> usize {
        self.stacks.get(usize::from(core)).map_or(0, Vec::len)
    }

    fn collapsed(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .folded
            .iter()
            .filter(|(_, &cycles)| cycles > 0)
            .map(|(path, &cycles)| {
                let joined = path.iter().map(|l| l.name()).collect::<Vec<_>>().join(";");
                (joined, cycles)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    fn to_folded_text(&self) -> String {
        self.collapsed()
            .iter()
            .map(|(path, cycles)| format!("{path} {cycles}\n"))
            .collect()
    }

    fn self_cycles(&self, label: TraceLabel) -> u64 {
        self.folded
            .iter()
            .filter(|(path, _)| path.last() == Some(&label))
            .map(|(_, &c)| c)
            .sum()
    }

    fn clear(&mut self) {
        self.folded.clear();
        self.unbalanced_exits = 0;
    }
}

/// One step of a random span-edge script.
#[derive(Debug, Clone)]
enum Step {
    /// Open `label` on `core`.
    Enter(u16, usize),
    /// Close `label` on `core`, whether or not it is open.
    Exit(u16, usize),
    /// Close the `n`-th open span from the top of `core`'s stack
    /// (modulo depth), closing every span above it first.
    ExitOpen(u16, usize),
    /// Reset the measurement window.
    Clear,
    /// Close everything still open.
    Finish,
}

/// Steps weighted 6 enter : 2 exit : 4 open-exit : 1 clear : 1 finish,
/// on cores 0..5 against folders sized for 3 (so stacks also grow on
/// first touch).
fn step() -> impl Strategy<Value = Step> {
    (0u8..14, 0u16..5, 0..ALL_LABELS.len()).prop_map(|(kind, core, x)| match kind {
        0..=5 => Step::Enter(core, x),
        6..=7 => Step::Exit(core, x),
        8..=11 => Step::ExitOpen(core, x % 4),
        12 => Step::Clear,
        _ => Step::Finish,
    })
}

proptest! {
    /// Random multi-core edge scripts, with timestamps that mostly
    /// advance but sometimes step back (the folder saturates instead
    /// of underflowing): the interned folder, the tracer that wraps
    /// one, and the oracle agree on every attribution read after every
    /// step.
    #[test]
    fn interned_folder_matches_oracle(
        script in collection::vec((step(), 0u64..40, any::<bool>()), 1..250),
    ) {
        let mut folder = SpanFolder::new(3);
        let tracer = Tracer::enabled(3, 16);
        let mut oracle = OracleFolder::default();
        let mut ts = 1_000u64;
        for (step, dt, back) in script {
            ts = if back { ts.saturating_sub(dt) } else { ts + dt };
            match step {
                Step::Enter(core, li) => {
                    let label = ALL_LABELS[li];
                    folder.enter(core, label, ts);
                    tracer.enter(ts, core, label);
                    oracle.enter(core, label, ts);
                }
                Step::Exit(core, li) => {
                    let label = ALL_LABELS[li];
                    folder.exit(core, label, ts);
                    tracer.exit(ts, core, label);
                    oracle.exit(core, label, ts);
                }
                Step::ExitOpen(core, n) => {
                    let open = oracle.stack(core);
                    if let Some(&(label, _, _)) = open.iter().rev().nth(n % open.len().max(1)) {
                        folder.exit(core, label, ts);
                        tracer.exit(ts, core, label);
                        oracle.exit(core, label, ts);
                    }
                }
                Step::Clear => {
                    folder.clear();
                    tracer.reset_window();
                    oracle.clear();
                }
                Step::Finish => {
                    folder.finish(ts);
                    tracer.finish(ts);
                    oracle.finish(ts);
                }
            }
            let expected = oracle.collapsed();
            prop_assert_eq!(&folder.collapsed(), &expected);
            prop_assert_eq!(&tracer.collapsed(), &expected);
            let text = oracle.to_folded_text();
            prop_assert_eq!(&folder.to_folded_text(), &text);
            prop_assert_eq!(&tracer.folded(), &text);
            for label in ALL_LABELS {
                let cycles = oracle.self_cycles(label);
                prop_assert_eq!(folder.self_cycles(label), cycles, "{:?}", label);
                prop_assert_eq!(tracer.self_cycles(label), cycles, "{:?}", label);
            }
            prop_assert_eq!(folder.unbalanced_exits(), oracle.unbalanced_exits);
            prop_assert_eq!(tracer.unbalanced_exits(), oracle.unbalanced_exits);
            for core in 0..6u16 {
                prop_assert_eq!(folder.depth(core), oracle.depth(core), "core {}", core);
                prop_assert_eq!(tracer.depth(core), oracle.depth(core), "core {}", core);
            }
        }
    }
}
