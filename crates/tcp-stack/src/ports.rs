//! Ephemeral port allocation for active connections.
//!
//! Two allocators are modelled:
//!
//! * [`PortAllocVariant::Global`] — the stock kernel's allocator: a
//!   single cursor over the ephemeral range protected by a global lock
//!   (every `connect()` on every core serializes here);
//! * [`PortAllocVariant::PerCore`] — Fastsocket's RFD-aware allocator:
//!   core `c` only hands out ports with `hash(p) = c`, walking the
//!   range with stride `mask+1`; allocation is lock-free and the chosen
//!   port *encodes the core*, which is what Receive Flow Deliver decodes
//!   on the receive side.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use sim_core::{CoreId, CycleClass};
use sim_os::{KernelCtx, Op};
use sim_sync::{LockClass, LockId};

use crate::costs::StackCosts;
use crate::established::FnvBuild;
use crate::rfd::Rfd;

/// Start of the ephemeral port range (Linux default).
pub const EPHEMERAL_MIN: u16 = 32_768;
/// End of the ephemeral port range, exclusive (Linux default 61000).
pub const EPHEMERAL_MAX: u16 = 61_000;

/// Which allocator is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortAllocVariant {
    /// Global cursor + global lock.
    Global,
    /// Per-core RFD-partitioned, lock-free.
    PerCore,
}

/// The ephemeral port allocator.
#[derive(Debug)]
pub struct PortAlloc {
    variant: PortAllocVariant,
    rfd: Rfd,
    lock: Option<LockId>,
    cursor: u16,
    per_core_cursor: Vec<u16>,
    /// Ports in use, per destination (a port may be reused towards a
    /// different destination).
    used: HashSet<(Ipv4Addr, u16, u16), FnvBuild>,
}

impl PortAlloc {
    /// Creates the allocator; the `Global` variant registers its lock.
    pub fn new(ctx: &mut KernelCtx, variant: PortAllocVariant, cores: u16) -> Self {
        Self::with_rfd(ctx, variant, cores, Rfd::new(cores))
    }

    /// Creates the allocator with an explicit RFD engine (needed when
    /// the security shift moves the core field).
    pub fn with_rfd(ctx: &mut KernelCtx, variant: PortAllocVariant, cores: u16, rfd: Rfd) -> Self {
        let lock = match variant {
            PortAllocVariant::Global => Some(ctx.locks.register(LockClass::PortAlloc)),
            PortAllocVariant::PerCore => None,
        };
        let per_core_cursor = (0..cores)
            .map(|c| {
                // First port in the range with hash(p) == c.
                let mut p = EPHEMERAL_MIN;
                while !rfd.port_matches_core(p, CoreId(c)) {
                    p += 1;
                }
                p
            })
            .collect();
        PortAlloc {
            variant,
            rfd,
            lock,
            cursor: EPHEMERAL_MIN,
            per_core_cursor,
            used: HashSet::default(),
        }
    }

    /// Allocates a source port towards `(dst_ip, dst_port)` from `core`,
    /// charging costs to `op`. Returns `None` when the range towards
    /// that destination is exhausted.
    pub fn alloc(
        &mut self,
        ctx: &mut KernelCtx,
        op: &mut Op,
        core: CoreId,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        costs: &StackCosts,
    ) -> Option<u16> {
        match self.variant {
            PortAllocVariant::Global => {
                let lock = self.lock.expect("global variant has a lock");
                op.lock_do(
                    &mut ctx.locks,
                    lock,
                    CycleClass::TcbManage,
                    costs.port_alloc_hold,
                );
                let span = (EPHEMERAL_MAX - EPHEMERAL_MIN) as u32;
                for _ in 0..span {
                    let p = self.cursor;
                    self.cursor = if self.cursor + 1 >= EPHEMERAL_MAX {
                        EPHEMERAL_MIN
                    } else {
                        self.cursor + 1
                    };
                    if self.used.insert((dst_ip, dst_port, p)) {
                        return Some(p);
                    }
                }
                None
            }
            PortAllocVariant::PerCore => {
                op.work(CycleClass::TcbManage, costs.port_alloc_hold / 2);
                let stride = (u32::from(self.rfd.mask()) + 1) << self.rfd.shift();
                let slots = (EPHEMERAL_MAX - EPHEMERAL_MIN) as u32 / stride.max(1) + 2;
                // Each stride window contains 2^shift ports for this
                // core; advance port-by-port within the window, then
                // jump to the next window.
                for _ in 0..slots * (1 << self.rfd.shift()) {
                    let p = self.per_core_cursor[core.index()];
                    // Advance the cursor to the next matching port.
                    let mut next = u32::from(p) + 1;
                    loop {
                        if next >= u32::from(EPHEMERAL_MAX) {
                            next = u32::from(EPHEMERAL_MIN);
                        }
                        if self.rfd.port_matches_core(next as u16, core) {
                            break;
                        }
                        next += 1;
                    }
                    self.per_core_cursor[core.index()] = next as u16;
                    debug_assert!(self.rfd.port_matches_core(p, core));
                    if self.used.insert((dst_ip, dst_port, p)) {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    /// Releases a port previously allocated towards a destination.
    pub fn release(&mut self, dst_ip: Ipv4Addr, dst_port: u16, port: u16) {
        let removed = self.used.remove(&(dst_ip, dst_port, port));
        debug_assert!(removed, "releasing port {port} that was not allocated");
    }

    /// Number of ports currently allocated.
    pub fn in_use(&self) -> usize {
        self.used.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;
    use sim_mem::{CacheCosts, CacheModel};
    use sim_sync::{LockCosts, LockTable};

    fn ctx(cores: usize) -> KernelCtx {
        KernelCtx::new(
            cores,
            LockTable::new(LockCosts::default()),
            CacheModel::new(CacheCosts::default()),
            SimRng::seed(17),
        )
    }

    fn dst() -> (Ipv4Addr, u16) {
        (Ipv4Addr::new(10, 0, 0, 100), 80)
    }

    #[test]
    fn per_core_ports_encode_the_core() {
        let mut c = ctx(24);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::PerCore, 24);
        let costs = StackCosts::default();
        let rfd = Rfd::new(24);
        let (ip, port) = dst();
        for core in [0u16, 5, 11, 23] {
            let mut op = c.begin(CoreId(core), 0);
            for _ in 0..50 {
                let p = alloc
                    .alloc(&mut c, &mut op, CoreId(core), ip, port, &costs)
                    .unwrap();
                assert!(
                    rfd.port_matches_core(p, CoreId(core)),
                    "port {p} core {core}"
                );
                assert!((EPHEMERAL_MIN..EPHEMERAL_MAX).contains(&p));
            }
            op.commit(&mut c.cpu);
        }
    }

    #[test]
    fn global_allocator_never_reuses_inflight_port() {
        let mut c = ctx(2);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::Global, 2);
        let costs = StackCosts::default();
        let (ip, port) = dst();
        let mut seen = HashSet::new();
        let mut op = c.begin(CoreId(0), 0);
        for _ in 0..2_000 {
            let p = alloc
                .alloc(&mut c, &mut op, CoreId(0), ip, port, &costs)
                .unwrap();
            assert!(seen.insert(p), "duplicate port {p}");
        }
        op.commit(&mut c.cpu);
        assert_eq!(alloc.in_use(), 2_000);
    }

    #[test]
    fn released_ports_are_reusable() {
        let mut c = ctx(1);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::PerCore, 1);
        let costs = StackCosts::default();
        let (ip, port) = dst();
        let mut op = c.begin(CoreId(0), 0);
        let p = alloc
            .alloc(&mut c, &mut op, CoreId(0), ip, port, &costs)
            .unwrap();
        alloc.release(ip, port, p);
        assert_eq!(alloc.in_use(), 0);
        // The cursor has moved on, but after a full wrap the port comes
        // back; just verify a new allocation still succeeds.
        assert!(alloc
            .alloc(&mut c, &mut op, CoreId(0), ip, port, &costs)
            .is_some());
        op.commit(&mut c.cpu);
    }

    #[test]
    fn same_port_ok_for_different_destinations() {
        let mut c = ctx(1);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::Global, 1);
        let costs = StackCosts::default();
        let mut op = c.begin(CoreId(0), 0);
        let a = alloc
            .alloc(
                &mut c,
                &mut op,
                CoreId(0),
                Ipv4Addr::new(10, 0, 0, 1),
                80,
                &costs,
            )
            .unwrap();
        // Exhaust nothing: just check the tuple-keyed used set allows
        // the same port to a different destination.
        alloc.used.insert((Ipv4Addr::new(10, 0, 0, 2), 80, a));
        op.commit(&mut c.cpu);
        assert_eq!(alloc.in_use(), 2);
    }

    #[test]
    fn global_variant_contends_across_cores() {
        let mut c = ctx(4);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::Global, 4);
        let costs = StackCosts::default();
        let (ip, port) = dst();
        for core in 0..4u16 {
            let mut op = c.begin(CoreId(core), 0);
            alloc
                .alloc(&mut c, &mut op, CoreId(core), ip, port, &costs)
                .unwrap();
            op.commit(&mut c.cpu);
        }
        assert!(c.locks.stats(LockClass::PortAlloc).contentions > 0);
    }

    #[test]
    fn per_core_variant_takes_no_lock() {
        let mut c = ctx(4);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::PerCore, 4);
        let costs = StackCosts::default();
        let (ip, port) = dst();
        for core in 0..4u16 {
            let mut op = c.begin(CoreId(core), 0);
            alloc
                .alloc(&mut c, &mut op, CoreId(core), ip, port, &costs)
                .unwrap();
            op.commit(&mut c.cpu);
        }
        assert_eq!(c.locks.stats(LockClass::PortAlloc).acquisitions, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut c = ctx(1);
        let mut alloc = PortAlloc::new(&mut c, PortAllocVariant::Global, 1);
        let costs = StackCosts::default();
        let (ip, port) = dst();
        let mut op = c.begin(CoreId(0), 0);
        let span = (EPHEMERAL_MAX - EPHEMERAL_MIN) as usize;
        for _ in 0..span {
            assert!(alloc
                .alloc(&mut c, &mut op, CoreId(0), ip, port, &costs)
                .is_some());
        }
        assert_eq!(
            alloc.alloc(&mut c, &mut op, CoreId(0), ip, port, &costs),
            None
        );
        op.commit(&mut c.cpu);
    }
}
