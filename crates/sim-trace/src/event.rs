//! Trace event model: what happened, where, when, and to which
//! connection.
//!
//! `sim-trace` sits below `sim-core` in the crate graph (so the engine
//! itself can be instrumented), which is why timestamps and core ids
//! are plain `u64`/`u16` here rather than `sim_core::{Cycles, CoreId}`.

use serde::{Deserialize, Serialize};

/// What a [`TraceEvent`] marks: the opening or closing edge of a span,
/// or a point-in-time instant (lifecycle transitions, dispatch marks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A span opens at this timestamp.
    Enter,
    /// The innermost open span with this label closes.
    Exit,
    /// A point event.
    Instant,
}

/// Where in the simulated kernel an event originates. Labels double as
/// flamegraph frame names (see [`TraceLabel::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TraceLabel {
    // ---- per-core root contexts (driver-level) ----
    /// A NET_RX softirq batch on one core.
    Softirq,
    /// A worker-process wakeup (epoll_wait + syscall burst).
    ProcWake,
    /// Client-side driver work (connection initiation, packet handling).
    ClientWork,
    /// One committed per-core operation (CPU occupancy lane).
    CoreOp,

    // ---- kernel path spans ----
    /// Per-packet receive processing inside a softirq batch.
    NetRx,
    /// Spinning on a contended lock (the wait, not the hold).
    LockWait,
    /// Listen-table lookup (`inet_lookup_listener`).
    ListenLookup,
    /// Established-table lookup (`__inet_lookup_established`).
    EstLookup,
    /// Receive Flow Deliver classification and steering decision.
    RfdSteer,
    /// VFS work: allocating/freeing the socket's dentry + inode.
    Vfs,
    /// Epoll bookkeeping: ctl, event posting, ready-list draining.
    Epoll,
    /// Timer wheel arm/modify/disarm.
    Timer,
    /// Handshake/teardown segment processing (TCP state machine).
    Handshake,
    /// Application-level work modelled between syscalls.
    AppWork,

    // ---- syscall spans (BSD socket API boundary) ----
    /// `accept()`.
    SysAccept,
    /// `connect()`.
    SysConnect,
    /// `send()`.
    SysSend,
    /// `recv()`.
    SysRecv,
    /// `close()`.
    SysClose,
    /// `epoll_wait()`.
    SysEpollWait,
    /// `epoll_ctl()`.
    SysEpollCtl,

    // ---- connection lifecycle instants ----
    /// First SYN of a passive connection arrived.
    SynArrival,
    /// The connection reached ESTABLISHED.
    Established,
    /// First payload byte was delivered to the socket.
    FirstByte,
    /// The socket was torn down. Keep this the last variant: the span
    /// folder sizes its child table by `Closed as usize + 1`.
    Closed,
}

impl TraceLabel {
    /// The flamegraph/chrome frame name for this label.
    pub fn name(self) -> &'static str {
        match self {
            TraceLabel::Softirq => "softirq",
            TraceLabel::ProcWake => "proc_wake",
            TraceLabel::ClientWork => "client_work",
            TraceLabel::CoreOp => "core_op",
            TraceLabel::NetRx => "net_rx",
            TraceLabel::LockWait => "lock_wait",
            TraceLabel::ListenLookup => "listen_lookup",
            TraceLabel::EstLookup => "est_lookup",
            TraceLabel::RfdSteer => "rfd_steer",
            TraceLabel::Vfs => "vfs",
            TraceLabel::Epoll => "epoll",
            TraceLabel::Timer => "timer",
            TraceLabel::Handshake => "handshake",
            TraceLabel::AppWork => "app_work",
            TraceLabel::SysAccept => "sys_accept",
            TraceLabel::SysConnect => "sys_connect",
            TraceLabel::SysSend => "sys_send",
            TraceLabel::SysRecv => "sys_recv",
            TraceLabel::SysClose => "sys_close",
            TraceLabel::SysEpollWait => "sys_epoll_wait",
            TraceLabel::SysEpollCtl => "sys_epoll_ctl",
            TraceLabel::SynArrival => "syn_arrival",
            TraceLabel::Established => "established",
            TraceLabel::FirstByte => "first_byte",
            TraceLabel::Closed => "closed",
        }
    }

    /// Whether this label marks a connection-lifecycle transition.
    pub fn is_lifecycle(self) -> bool {
        matches!(
            self,
            TraceLabel::SynArrival
                | TraceLabel::Established
                | TraceLabel::FirstByte
                | TraceLabel::Closed
        )
    }
}

/// One entry of a per-core trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Cycle timestamp (simulated time).
    pub ts: u64,
    /// Core the event happened on.
    pub core: u16,
    /// Connection/flow identifier, or 0 when not tied to a connection.
    pub conn: u64,
    /// Edge or instant.
    pub kind: EventKind,
    /// What the event is.
    pub label: TraceLabel,
}

impl TraceEvent {
    /// A span-opening edge.
    pub fn enter(ts: u64, core: u16, label: TraceLabel) -> TraceEvent {
        TraceEvent {
            ts,
            core,
            conn: 0,
            kind: EventKind::Enter,
            label,
        }
    }

    /// A span-closing edge.
    pub fn exit(ts: u64, core: u16, label: TraceLabel) -> TraceEvent {
        TraceEvent {
            ts,
            core,
            conn: 0,
            kind: EventKind::Exit,
            label,
        }
    }

    /// A point event tied to a connection.
    pub fn instant(ts: u64, core: u16, conn: u64, label: TraceLabel) -> TraceEvent {
        TraceEvent {
            ts,
            core,
            conn,
            kind: EventKind::Instant,
            label,
        }
    }

    /// Copies the event with a connection id attached.
    pub fn with_conn(mut self, conn: u64) -> TraceEvent {
        self.conn = conn;
        self
    }
}
