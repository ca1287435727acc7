//! Streaming span attribution: enter/exit edges fold into perf-style
//! collapsed stacks as they arrive, so cycle attribution survives ring
//! overwrites and costs O(stack depth) memory per core.
//!
//! # Interned call paths
//!
//! Every distinct root-to-leaf label path gets a dense `u32` id the
//! first time a span opens on it. A path node stores its parent id,
//! its leaf label and the self-cycles attributed to it, so the full
//! path is the chain of parent links. Child lookup is a flat table:
//! the child of path `p` under `label` lives at
//! `(p + 1) * LABELS + label`, with the empty root path as `p = -1`.
//!
//! Each open span carries its path id, resolved on `enter` by one
//! table load (plus one node push the first time the path is seen).
//! Closing a span is then one add into its node: no allocation and no
//! hashing on the exit path, which every traced operation, syscall and
//! lock wait takes. The `;`-joined frame strings are rebuilt from the
//! parent links only when attribution is read.
//!
//! [`SpanFolder::clear`] zeroes the counters but keeps the ids, so a
//! span that is open across a window reset still closes onto a valid
//! node.

use crate::event::TraceLabel;

/// Number of [`TraceLabel`] variants: the fan-out of one path node in
/// the child table.
const LABELS: usize = TraceLabel::Closed as usize + 1;

/// Sentinel path id: "no path" in the child table, and the parent of
/// every root-level node. Its successor wraps to 0, so the root's
/// children sit at the front of the table.
const NONE: u32 = u32::MAX;

/// One open span on a core's stack.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    /// The path's leaf, kept here so `exit`'s stack scan needs no
    /// table lookup.
    label: TraceLabel,
    /// Interned id of the root-to-this-span label path.
    path: u32,
    entered_at: u64,
    /// Cycles already attributed to completed children.
    child_cycles: u64,
}

/// One interned root-to-leaf label path.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// The path without its leaf, or [`NONE`] for a root-level frame.
    parent: u32,
    leaf: TraceLabel,
    self_cycles: u64,
}

/// Per-core span stacks folding into per-path self-cycles.
#[derive(Debug)]
pub struct SpanFolder {
    /// Open-span stack per core (indexed by core id).
    stacks: Vec<Vec<OpenSpan>>,
    /// Interned paths, indexed by path id.
    paths: Vec<PathNode>,
    /// `(parent + 1) * LABELS + label` to child path id, or [`NONE`].
    children: Vec<u32>,
    /// Exit edges that had no matching enter (instrumentation bugs
    /// surface here instead of corrupting attribution).
    unbalanced_exits: u64,
}

impl Default for SpanFolder {
    fn default() -> SpanFolder {
        SpanFolder::new(0)
    }
}

impl SpanFolder {
    /// A folder for `cores` per-core timelines.
    pub fn new(cores: u16) -> SpanFolder {
        SpanFolder {
            stacks: (0..cores).map(|_| Vec::new()).collect(),
            paths: Vec::new(),
            children: vec![NONE; LABELS],
            unbalanced_exits: 0,
        }
    }

    fn stack(&mut self, core: u16) -> &mut Vec<OpenSpan> {
        let idx = usize::from(core);
        if idx >= self.stacks.len() {
            self.stacks.resize_with(idx + 1, Vec::new);
        }
        &mut self.stacks[idx]
    }

    /// The id of path `parent` extended by `label`, interning it on
    /// first sight.
    fn child(&mut self, parent: u32, label: TraceLabel) -> u32 {
        let slot = parent.wrapping_add(1) as usize * LABELS + label as usize;
        let id = self.children[slot];
        if id != NONE {
            return id;
        }
        let id = u32::try_from(self.paths.len()).expect("span path ids exhausted");
        self.paths.push(PathNode {
            parent,
            leaf: label,
            self_cycles: 0,
        });
        self.children.resize(self.children.len() + LABELS, NONE);
        self.children[slot] = id;
        id
    }

    /// Opens a span.
    pub fn enter(&mut self, core: u16, label: TraceLabel, ts: u64) {
        let parent = self.stack(core).last().map_or(NONE, |s| s.path);
        let path = self.child(parent, label);
        self.stacks[usize::from(core)].push(OpenSpan {
            label,
            path,
            entered_at: ts,
            child_cycles: 0,
        });
    }

    /// Closes the innermost open span with `label` (closing any deeper
    /// spans first, as an early-return would).
    pub fn exit(&mut self, core: u16, label: TraceLabel, ts: u64) {
        let stack = self.stack(core);
        if !stack.iter().any(|s| s.label == label) {
            self.unbalanced_exits += 1;
            return;
        }
        loop {
            let closed = self.pop_top(core, ts);
            if closed == Some(label) {
                break;
            }
        }
    }

    /// Closes the top span, attributing its self time.
    fn pop_top(&mut self, core: u16, ts: u64) -> Option<TraceLabel> {
        let stack = self.stack(core);
        let top = stack.pop()?;
        let total = ts.saturating_sub(top.entered_at);
        if let Some(parent) = stack.last_mut() {
            parent.child_cycles += total;
        }
        self.paths[top.path as usize].self_cycles += total.saturating_sub(top.child_cycles);
        Some(top.label)
    }

    /// Closes every still-open span at `ts` (end of run).
    pub fn finish(&mut self, ts: u64) {
        for core in 0..self.stacks.len() as u16 {
            while self.pop_top(core, ts).is_some() {}
        }
    }

    /// Current stack depth on a core (open spans).
    pub fn depth(&self, core: u16) -> usize {
        self.stacks.get(usize::from(core)).map_or(0, Vec::len)
    }

    /// Exit edges that never matched an enter.
    pub fn unbalanced_exits(&self) -> u64 {
        self.unbalanced_exits
    }

    /// The folded stacks as `(root;child;leaf, self_cycles)` rows,
    /// sorted by descending cycles — the flamegraph `.folded` format
    /// (one `stack-path space count` line per row).
    pub fn collapsed(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .paths
            .iter()
            .filter(|node| node.self_cycles > 0)
            .map(|node| (self.path_name(node), node.self_cycles))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Renders the collapsed stacks as flamegraph.pl-compatible
    /// `.folded` text.
    pub fn to_folded_text(&self) -> String {
        let mut out = String::new();
        for (path, cycles) in self.collapsed() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }

    /// Total self-cycles attributed to stacks whose leaf is `label`.
    pub fn self_cycles(&self, label: TraceLabel) -> u64 {
        self.paths
            .iter()
            .filter(|node| node.leaf == label)
            .map(|node| node.self_cycles)
            .sum()
    }

    /// The `root;child;leaf` frame string of the path ending at `leaf`.
    fn path_name(&self, leaf: &PathNode) -> String {
        let mut frames = vec![leaf.leaf.name()];
        let mut at = leaf.parent;
        while at != NONE {
            let node = &self.paths[at as usize];
            frames.push(node.leaf.name());
            at = node.parent;
        }
        frames.reverse();
        frames.join(";")
    }

    /// Drops all attribution (open stacks survive a window reset so
    /// spans crossing the boundary still close cleanly; interned path
    /// ids survive with them).
    pub fn clear(&mut self) {
        for node in &mut self.paths {
            node.self_cycles = 0;
        }
        self.unbalanced_exits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TraceLabel::*;

    #[test]
    fn self_time_excludes_children() {
        let mut f = SpanFolder::new(1);
        f.enter(0, Softirq, 0);
        f.enter(0, NetRx, 10);
        f.enter(0, EstLookup, 20);
        f.exit(0, EstLookup, 30);
        f.exit(0, NetRx, 50);
        f.exit(0, Softirq, 100);
        assert_eq!(f.self_cycles(EstLookup), 10);
        assert_eq!(f.self_cycles(NetRx), 30); // 40 total − 10 child
        assert_eq!(f.self_cycles(Softirq), 60); // 100 total − 40 child
        let folded = f.to_folded_text();
        assert!(
            folded.contains("softirq;net_rx;est_lookup 10\n"),
            "{folded}"
        );
        assert!(folded.contains("softirq;net_rx 30\n"), "{folded}");
        assert!(folded.contains("softirq 60\n"), "{folded}");
    }

    #[test]
    fn early_return_closes_inner_spans() {
        let mut f = SpanFolder::new(1);
        f.enter(0, SysAccept, 0);
        f.enter(0, Vfs, 5);
        // No Vfs exit: the syscall wrapper closes SysAccept directly.
        f.exit(0, SysAccept, 25);
        assert_eq!(f.depth(0), 0);
        assert_eq!(f.self_cycles(Vfs), 20);
        assert_eq!(f.self_cycles(SysAccept), 5);
        assert_eq!(f.unbalanced_exits(), 0);
    }

    #[test]
    fn unmatched_exit_is_counted_not_misattributed() {
        let mut f = SpanFolder::new(1);
        f.enter(0, Softirq, 0);
        f.exit(0, Epoll, 10);
        assert_eq!(f.unbalanced_exits(), 1);
        assert_eq!(f.depth(0), 1);
        f.exit(0, Softirq, 20);
        assert_eq!(f.self_cycles(Softirq), 20);
    }

    #[test]
    fn cores_are_independent() {
        let mut f = SpanFolder::new(2);
        f.enter(0, Softirq, 0);
        f.enter(1, ProcWake, 0);
        f.exit(1, ProcWake, 7);
        f.exit(0, Softirq, 11);
        assert_eq!(f.self_cycles(ProcWake), 7);
        assert_eq!(f.self_cycles(Softirq), 11);
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut f = SpanFolder::new(1);
        f.enter(0, ProcWake, 10);
        f.enter(0, SysRecv, 15);
        f.finish(40);
        assert_eq!(f.depth(0), 0);
        assert_eq!(f.self_cycles(SysRecv), 25);
        assert_eq!(f.self_cycles(ProcWake), 5);
    }

    #[test]
    fn identical_stacks_accumulate() {
        let mut f = SpanFolder::new(1);
        for round in 0..3u64 {
            let t0 = round * 100;
            f.enter(0, Softirq, t0);
            f.exit(0, Softirq, t0 + 9);
        }
        assert_eq!(f.collapsed(), vec![("softirq".to_string(), 27)]);
    }
}
