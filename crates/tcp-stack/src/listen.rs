//! The listen table in three variants (§2.1, §3.2.1).
//!
//! * [`ListenVariant::Global`] — one listen socket per port, shared by
//!   every worker process (Linux 2.6.32). Its `slock` serializes SYN
//!   processing, handshake promotion and `accept()` across all cores.
//! * [`ListenVariant::ReusePort`] — `SO_REUSEPORT` (Linux 3.13): each
//!   process has a private copy, all linked into one bucket; there is no
//!   shared accept queue, but `inet_lookup_listener` must walk the
//!   bucket — O(n) in the number of cores, with a remote cache line per
//!   entry. This is the 0.26% → 24.2% CPU blow-up the paper measures.
//! * [`ListenVariant::Local`] — Fastsocket's Local Listen Table: a
//!   per-core table whose entry is found in O(1) with no lock, plus the
//!   original global listen socket kept for robustness. The fast path
//!   and slow path of Figure 2 are implemented in
//!   [`crate::stack::TcpStack`] on top of this structure.

use std::collections::{HashMap, VecDeque};

use sim_core::{CoreId, CycleClass};
use sim_net::FlowTuple;
use sim_os::epoll::EpollId;
use sim_os::process::Pid;
use sim_os::{KernelCtx, Op};

use crate::costs::StackCosts;
use crate::established::{flow_hash, FnvBuild};
use crate::state::TcpState;
use crate::stats::StackStats;
use crate::tcb::{SockId, SockTable};

/// Which listen-table design is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListenVariant {
    /// One shared listen socket per port.
    Global,
    /// SO_REUSEPORT per-process copies.
    ReusePort,
    /// Fastsocket Local Listen Table + global fallback.
    Local,
}

/// Identifies one listen socket (global, copy, or local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LsId(u32);

/// One kernel listen socket with its queues.
#[derive(Debug)]
pub struct ListenSocket {
    /// Backing TCB (holds the `slock` and cache object).
    pub sock: SockId,
    /// Owning process for copies/local sockets; `None` for the shared
    /// global socket.
    pub owner: Option<Pid>,
    /// Core of the owning process (`None` for the global socket).
    pub core: Option<CoreId>,
    /// Pending (mid-handshake) connections, keyed by the connection's
    /// local-perspective flow.
    pub syn_queue: HashMap<FlowTuple, SockId, FnvBuild>,
    /// Fully established connections awaiting `accept()`.
    pub accept_queue: VecDeque<SockId>,
    /// Maximum of `syn_queue` + `accept_queue` before SYN drops.
    pub backlog: usize,
    /// Epoll instances watching this socket (with the owner process of
    /// each instance, for wakeups, and the registered `epoll_data`).
    pub watchers: Vec<(EpollId, Pid, u64)>,
}

impl ListenSocket {
    /// Whether the backlog has room for another embryonic connection.
    pub fn has_room(&self) -> bool {
        self.syn_queue.len() + self.accept_queue.len() < self.backlog
    }
}

/// Connections stranded by [`ListenTable::destroy_process_socket`]:
/// mid-handshake embryos (with their flows, so they can be re-keyed
/// into another syn queue) and established-but-unaccepted sockets.
/// Both lists are sorted by [`SockId`] for determinism.
#[derive(Debug, Default)]
pub struct DestroyedListener {
    /// Mid-handshake connections from the dead socket's SYN queue.
    pub embryos: Vec<(FlowTuple, SockId)>,
    /// Established connections from the dead socket's accept queue.
    pub accepted: Vec<SockId>,
}

impl DestroyedListener {
    /// Whether the dead listener stranded nothing.
    pub fn is_empty(&self) -> bool {
        self.embryos.is_empty() && self.accepted.is_empty()
    }

    /// Total stranded connections.
    pub fn len(&self) -> usize {
        self.embryos.len() + self.accepted.len()
    }
}

#[derive(Debug)]
struct PortEntry {
    global: LsId,
    copies: Vec<LsId>,
    local: Vec<Option<LsId>>,
}

/// The listen table for all ports.
#[derive(Debug)]
pub struct ListenTable {
    variant: ListenVariant,
    sockets: Vec<ListenSocket>,
    by_port: HashMap<u16, PortEntry>,
    cores: usize,
}

impl ListenTable {
    /// Creates an empty table for a machine with `cores` cores.
    pub fn new(variant: ListenVariant, cores: usize) -> Self {
        ListenTable {
            variant,
            sockets: Vec::new(),
            by_port: HashMap::new(),
            cores,
        }
    }

    /// The active variant.
    pub fn variant(&self) -> ListenVariant {
        self.variant
    }

    fn push_socket(
        &mut self,
        ctx: &mut KernelCtx,
        socks: &mut SockTable,
        port: u16,
        backlog: usize,
        owner: Option<Pid>,
        core: CoreId,
    ) -> LsId {
        let flow = FlowTuple::new(
            std::net::Ipv4Addr::UNSPECIFIED,
            port,
            std::net::Ipv4Addr::UNSPECIFIED,
            0,
        );
        let sock = socks.alloc(ctx, flow, TcpState::Listen, false, core);
        let id = LsId(self.sockets.len() as u32);
        self.sockets.push(ListenSocket {
            sock,
            owner,
            core: owner.map(|_| core),
            syn_queue: HashMap::default(),
            accept_queue: VecDeque::new(),
            backlog,
            watchers: Vec::new(),
        });
        id
    }

    /// `listen()`: creates the original (global) listen socket for
    /// `port`. Must be called once per port before copies or local
    /// listen sockets are added; a duplicate `listen()` is reported to
    /// the sanitizer (when enabled) and returns the existing socket
    /// (`EADDRINUSE` in a real kernel).
    pub fn listen(
        &mut self,
        ctx: &mut KernelCtx,
        socks: &mut SockTable,
        port: u16,
        backlog: usize,
        core: CoreId,
    ) -> LsId {
        if let Some(entry) = self.by_port.get(&port) {
            ctx.checker.invariant_violation(
                "listen_table",
                core.0,
                format!("port {port} already listened"),
            );
            return entry.global;
        }
        let global = self.push_socket(ctx, socks, port, backlog, None, core);
        let cores = self.cores;
        self.by_port.insert(
            port,
            PortEntry {
                global,
                copies: Vec::new(),
                local: vec![None; cores],
            },
        );
        global
    }

    /// `SO_REUSEPORT`: adds a per-process copy of the listen socket.
    pub fn add_reuseport_copy(
        &mut self,
        ctx: &mut KernelCtx,
        socks: &mut SockTable,
        port: u16,
        backlog: usize,
        owner: Pid,
        core: CoreId,
    ) -> LsId {
        debug_assert_eq!(self.variant, ListenVariant::ReusePort);
        let id = self.push_socket(ctx, socks, port, backlog, Some(owner), core);
        self.entry_mut(port).copies.push(id);
        id
    }

    /// Fastsocket `local_listen()`: copies the listen socket into
    /// `core`'s local listen table (Figure 2, step 2).
    pub fn local_listen(
        &mut self,
        ctx: &mut KernelCtx,
        socks: &mut SockTable,
        port: u16,
        backlog: usize,
        owner: Pid,
        core: CoreId,
    ) -> LsId {
        debug_assert_eq!(self.variant, ListenVariant::Local);
        if let Some(existing) = self.entry(port).local[core.index()] {
            // Double registration is a workload bug, not a kernel one:
            // report it and hand back the existing local socket.
            ctx.checker.invariant_violation(
                "listen_table",
                core.0,
                format!("core {core} already has a local listen socket for port {port}"),
            );
            return existing;
        }
        let id = self.push_socket(ctx, socks, port, backlog, Some(owner), core);
        self.entry_mut(port).local[core.index()] = Some(id);
        id
    }

    /// Simulates the owner process of `core`'s local listen socket (or
    /// reuseport copy) crashing: the kernel destroys the copied socket.
    /// Embryonic and un-accepted connections on it are returned for the
    /// caller to migrate to the global fallback (Fastsocket) or to
    /// reset/free (stock kernels). Both lists come back sorted by
    /// socket id so every downstream decision is deterministic — the
    /// syn queue is a `HashMap` and drains in random order.
    pub fn destroy_process_socket(&mut self, port: u16, core: CoreId) -> DestroyedListener {
        let removed: Option<LsId> = match self.variant {
            ListenVariant::Local => self.entry_mut(port).local[core.index()].take(),
            ListenVariant::ReusePort => {
                let victim = self.by_port[&port]
                    .copies
                    .iter()
                    .copied()
                    .find(|&id| self.sockets[id.0 as usize].core == Some(core));
                if let Some(v) = victim {
                    self.entry_mut(port).copies.retain(|&id| id != v);
                }
                victim
            }
            ListenVariant::Global => None,
        };
        match removed {
            Some(id) => {
                let ls = &mut self.sockets[id.0 as usize];
                let mut embryos: Vec<(FlowTuple, SockId)> = ls.syn_queue.drain().collect();
                embryos.sort_unstable_by_key(|&(_, s)| s);
                let accepted: Vec<SockId> = ls.accept_queue.drain(..).collect();
                ls.watchers.clear();
                DestroyedListener { embryos, accepted }
            }
            None => DestroyedListener::default(),
        }
    }

    fn entry(&self, port: u16) -> &PortEntry {
        self.by_port
            .get(&port)
            .unwrap_or_else(|| panic!("port {port} is not listened"))
    }

    fn entry_mut(&mut self, port: u16) -> &mut PortEntry {
        self.by_port
            .get_mut(&port)
            .unwrap_or_else(|| panic!("port {port} is not listened"))
    }

    /// Whether any listen socket exists for `port` (RFD rule 3 probe).
    pub fn has_listener(&self, port: u16) -> bool {
        self.by_port.contains_key(&port)
    }

    /// `inet_lookup_listener`: finds the listen socket that should take
    /// a SYN arriving on `core` for `flow` (local perspective), charging
    /// the variant's lookup cost. Returns `None` when the port is not
    /// listened (caller sends RST).
    #[allow(clippy::too_many_arguments)]
    pub fn lookup(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        core: CoreId,
        flow: &FlowTuple,
        socks: &SockTable,
        costs: &StackCosts,
        stats: &mut StackStats,
    ) -> Option<LsId> {
        op.trace_enter(sim_trace::TraceLabel::ListenLookup);
        let found = self.lookup_inner(ctx, op, core, flow, socks, costs, stats);
        op.trace_exit(sim_trace::TraceLabel::ListenLookup);
        found
    }

    #[allow(clippy::too_many_arguments)]
    fn lookup_inner(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        core: CoreId,
        flow: &FlowTuple,
        socks: &SockTable,
        costs: &StackCosts,
        stats: &mut StackStats,
    ) -> Option<LsId> {
        let port = flow.src_port; // local perspective: src = local = service port
        stats.listen_lookups += 1;
        op.work(CycleClass::ListenLookup, costs.listen_lookup);
        let entry = self.by_port.get(&port)?;
        match self.variant {
            ListenVariant::Global => {
                stats.listen_entries_walked += 1;
                let ls = &self.sockets[entry.global.0 as usize];
                op.touch(ctx, socks.get(ls.sock).obj);
                Some(entry.global)
            }
            ListenVariant::ReusePort => {
                // Walk the whole bucket, touching every copy's socket
                // (they live on different cores), then select by flow
                // hash — `reuseport_select_sock`.
                let n = entry.copies.len();
                if n == 0 {
                    stats.listen_entries_walked += 1;
                    let ls = &self.sockets[entry.global.0 as usize];
                    op.touch(ctx, socks.get(ls.sock).obj);
                    return Some(entry.global);
                }
                stats.listen_entries_walked += n as u64;
                op.work(CycleClass::ListenLookup, costs.listen_walk_entry * n as u64);
                let copies: Vec<LsId> = entry.copies.clone();
                for &c in &copies {
                    let obj = socks.get(self.sockets[c.0 as usize].sock).obj;
                    op.touch_class(ctx, obj, CycleClass::ListenLookup);
                }
                let pick = (flow_hash(flow) as usize) % n;
                Some(copies[pick])
            }
            ListenVariant::Local => {
                match entry.local[core.index()] {
                    Some(local) => {
                        // Fast path: O(1), core-local.
                        stats.listen_entries_walked += 1;
                        let obj = socks.get(self.sockets[local.0 as usize].sock).obj;
                        op.touch(ctx, obj);
                        Some(local)
                    }
                    None => {
                        // Slow path (Figure 2, step 11): fall back to
                        // the global listen socket.
                        stats.listen_entries_walked += 1;
                        let ls = &self.sockets[entry.global.0 as usize];
                        op.touch(ctx, socks.get(ls.sock).obj);
                        Some(entry.global)
                    }
                }
            }
        }
    }

    /// The global listen socket for `port`.
    pub fn global_of(&self, port: u16) -> LsId {
        self.entry(port).global
    }

    /// The local listen socket of `core` for `port`, if present.
    pub fn local_of(&self, port: u16, core: CoreId) -> Option<LsId> {
        self.entry(port).local[core.index()]
    }

    /// The reuseport copy owned by the process on `core`, if present.
    pub fn copy_of(&self, port: u16, core: CoreId) -> Option<LsId> {
        self.entry(port)
            .copies
            .iter()
            .copied()
            .find(|&id| self.sockets[id.0 as usize].core == Some(core))
    }

    /// Access a listen socket.
    pub fn ls(&self, id: LsId) -> &ListenSocket {
        &self.sockets[id.0 as usize]
    }

    /// Access a listen socket mutably.
    pub fn ls_mut(&mut self, id: LsId) -> &mut ListenSocket {
        &mut self.sockets[id.0 as usize]
    }

    /// All ports with listeners.
    pub fn ports(&self) -> impl Iterator<Item = u16> + '_ {
        self.by_port.keys().copied()
    }
}
