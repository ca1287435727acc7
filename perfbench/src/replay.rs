//! Host-time replays of each layer's public calls, fed with inputs
//! taken from the workload: its client flows, core count, table
//! population and event-time mix. Each replay precomputes its inputs,
//! then times only the calls under one span; the figure reported is
//! the median over [`REPEATS`] spans of host nanoseconds per call.

use crate::spans::{Span, Spans};
use crate::stats::median;
use fastsocket::sim::SERVER_IP;
use sim_core::{CoreId, Cycles, EventQueue, SimRng};
use sim_load::{ArrivalGen, ArrivalProcess, RateProfile};
use sim_mem::{CacheCosts, CacheModel, ObjKind};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_nic::{Nic, NicConfig, SteeringMode};
use sim_os::KernelCtx;
use sim_sync::{LockClass, LockCosts, LockTable};
use std::hint::black_box;
use std::net::Ipv4Addr;
use tcp_stack::costs::StackCosts;
use tcp_stack::established::{flow_hash, EstTable};
use tcp_stack::{EstVariant, SockId};

/// Calls timed per span.
pub const CALLS: usize = 200_000;
/// Spans per replay; the median is reported.
pub const REPEATS: usize = 3;

/// What a replay needs to know about the workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Simulated server cores.
    pub cores: u16,
    /// Client population (closed-loop slots or open-loop pool).
    pub population: u32,
    /// Benchmark seed (replay inputs are drawn from it).
    pub seed: u64,
    /// Client↔server round-trip time in cycles.
    pub rtt: Cycles,
    /// Mean modeled busy cycles per simulated event.
    pub service: Cycles,
    /// Typical timer horizon in cycles (RTO, or the hold time).
    pub timer: Cycles,
    /// Share of dispatched events that are packets on the wire.
    pub wire_share: f64,
    /// Share of dispatched events that are timers.
    pub timer_share: f64,
    /// Hottest lock: mean hold cycles per acquisition.
    pub lock_hold: Cycles,
    /// Hottest lock: mean cycles between acquisitions.
    pub lock_gap: Cycles,
    /// Arrival rate the generator replays, in connections per second.
    pub arrival_cps: f64,
}

/// The simulator's client address plan: slot `s` talks from
/// `10.(1 + s/250).(s%250).2`.
fn client_ip(slot: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, (1 + slot / 250) as u8, (slot % 250) as u8, 2)
}

/// One server-perspective flow per client slot, with seeded ephemeral
/// ports.
pub fn workload_flows(inp: &Inputs) -> Vec<FlowTuple> {
    let mut rng = SimRng::stream(inp.seed, 0x666c_6f77);
    (0..inp.population)
        .map(|slot| {
            let port = 1_024 + rng.below(64_511) as u16;
            FlowTuple::new(SERVER_IP, 80, client_ip(slot), port)
        })
        .collect()
}

/// Times `REPEATS` spans of `calls` calls each; returns median ns/call.
fn timed(spans: &mut Spans, name: &str, calls: usize, mut body: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        spans.enter(name);
        body();
        let secs = spans.exit().map_or(0.0, Span::secs);
        per_call.push(secs * 1e9 / calls as f64);
    }
    median(&per_call)
}

/// `sim-core.queue_ns_per_event`: `EventQueue::push` + `pop_batch`
/// per pushed event, with one pending event per client and the
/// workload's dispatch mix of wire hops (`rtt/2` plus service time),
/// timers, and CPU completions (exponential service time).
pub fn event_queue(inp: &Inputs, spans: &mut Spans) -> f64 {
    let mut rng = SimRng::stream(inp.seed, 1);
    let offsets: Vec<Cycles> = (0..CALLS)
        .map(|_| {
            let service = rng.exponential(inp.service as f64) as Cycles;
            let u = rng.unit();
            if u < inp.wire_share {
                inp.rtt / 2 + service
            } else if u < inp.wire_share + inp.timer_share {
                inp.timer
            } else {
                service
            }
            .max(1)
        })
        .collect();
    let depth = inp.population as usize;
    let mut out = Vec::new();
    timed(spans, "sim-core::EventQueue::push+pop_batch", CALLS, || {
        let mut q = EventQueue::with_capacity(depth);
        for (i, &off) in offsets.iter().take(depth).enumerate() {
            q.push(off, i);
        }
        let mut next = depth;
        while next < CALLS {
            let Some(now) = q.pop_batch(&mut out) else {
                break;
            };
            for e in out.drain(..) {
                q.push(now + offsets[next % CALLS], e);
                next += 1;
            }
        }
        black_box(q.len());
    })
}

/// `sim-sync.acquire_ns`: `LockTable::acquire` on one lock hammered
/// round-robin by every core at the hottest lock's arrival gap and hold
/// time.
pub fn lock_acquire(inp: &Inputs, spans: &mut Spans) -> f64 {
    let cores = inp.cores.max(1);
    timed(spans, "sim-sync::LockTable::acquire", CALLS, || {
        let mut t = LockTable::new(LockCosts::default());
        let id = t.register(LockClass::Slock);
        let mut now = 0;
        for i in 0..CALLS {
            now += inp.lock_gap;
            t.set_epoch(now);
            black_box(t.acquire(id, CoreId(i as u16 % cores), now, inp.lock_hold));
        }
    })
}

/// `sim-mem.access_ns`: `CacheModel::access` to one TCB per client
/// from random cores.
pub fn cache_access(inp: &Inputs, spans: &mut Spans) -> f64 {
    let mut rng = SimRng::stream(inp.seed, 2);
    let n = inp.population.max(1);
    let pattern: Vec<(u32, u16)> = (0..CALLS)
        .map(|_| {
            let obj = rng.below(u64::from(n)) as u32;
            (obj, rng.below(u64::from(inp.cores.max(1))) as u16)
        })
        .collect();
    let mut cache = CacheModel::new(CacheCosts::default());
    let objs: Vec<_> = (0..n)
        .map(|i| {
            cache.alloc(
                ObjKind::Tcb,
                CoreId((i % u32::from(inp.cores.max(1))) as u16),
            )
        })
        .collect();
    let mut access_rng = SimRng::stream(inp.seed, 3);
    timed(spans, "sim-mem::CacheModel::access", CALLS, || {
        for &(obj, core) in &pattern {
            black_box(cache.access(objs[obj as usize], CoreId(core), &mut access_rng));
        }
    })
}

/// `sim-net.to_wire_ns.<len>` and `sim-net.parse_ns.<len>`: encoding
/// and parsing data segments with `len`-byte payloads over the
/// workload's flows.
pub fn packet_codec(inp: &Inputs, spans: &mut Spans, len: u16) -> (f64, f64) {
    let flows = workload_flows(inp);
    let pkts: Vec<Packet> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            Packet::new(f, TcpFlags::PSH | TcpFlags::ACK)
                .with_seq(i as u32)
                .with_ack(1)
                .with_payload(len)
        })
        .collect();
    let to_wire = timed(
        spans,
        &format!("sim-net::Packet::to_wire {len}B"),
        CALLS,
        || {
            for i in 0..CALLS {
                black_box(pkts[i % pkts.len()].to_wire());
            }
        },
    );
    let wires: Vec<_> = pkts.iter().map(Packet::to_wire).collect();
    let parse = timed(
        spans,
        &format!("sim-net::Packet::parse {len}B"),
        CALLS,
        || {
            for i in 0..CALLS {
                black_box(Packet::parse(&wires[i % wires.len()]).is_ok());
            }
        },
    );
    (to_wire, parse)
}

/// `sim-nic.rx_queue_ns`: RSS steering of the workload's SYNs.
pub fn nic_rx_queue(inp: &Inputs, spans: &mut Spans) -> f64 {
    let pkts: Vec<Packet> = workload_flows(inp)
        .into_iter()
        .map(|f| Packet::new(f.reversed(), TcpFlags::SYN))
        .collect();
    let mut nic = Nic::new(NicConfig::new(inp.cores.max(1), SteeringMode::Rss));
    timed(spans, "sim-nic::Nic::rx_queue", CALLS, || {
        for i in 0..CALLS {
            black_box(nic.rx_queue(&pkts[i % pkts.len()]));
        }
    })
}

/// `tcp-stack.flow_hash_ns`: the established-table hash over the
/// workload's flows.
pub fn flow_hashing(inp: &Inputs, spans: &mut Spans) -> f64 {
    let flows = workload_flows(inp);
    timed(spans, "tcp-stack::flow_hash", CALLS, || {
        for i in 0..CALLS {
            black_box(flow_hash(&flows[i % flows.len()]));
        }
    })
}

/// `tcp-stack.est_lookup_ns`: `EstTable::lookup` in the shared-table
/// (global) variant populated with one connection per client.
pub fn est_lookup(inp: &Inputs, spans: &mut Spans) -> f64 {
    let cores = inp.cores.max(1);
    let flows = workload_flows(inp);
    let costs = StackCosts::default();
    let mut ctx = KernelCtx::new(
        usize::from(cores),
        LockTable::new(LockCosts::default()),
        CacheModel::new(CacheCosts::default()),
        SimRng::seed(inp.seed),
    );
    let mut table = EstTable::new(
        &mut ctx,
        EstVariant::Global,
        usize::from(cores),
        flows.len(),
    );
    let mut op = ctx.begin(CoreId(0), 0);
    for (i, f) in flows.iter().enumerate() {
        table.insert(&mut ctx, &mut op, CoreId(0), *f, SockId(i as u32), &costs);
    }
    op.commit(&mut ctx.cpu);
    let mut rng = SimRng::stream(inp.seed, 4);
    let order: Vec<(usize, u16)> = (0..CALLS)
        .map(|_| {
            let f = rng.below(flows.len() as u64) as usize;
            (f, rng.below(u64::from(cores)) as u16)
        })
        .collect();
    timed(spans, "tcp-stack::EstTable::lookup", CALLS, || {
        let mut op = ctx.begin(CoreId(0), 0);
        for &(f, core) in &order {
            black_box(table.lookup(&mut ctx, &mut op, CoreId(core), &flows[f], &costs));
        }
        op.commit(&mut ctx.cpu);
    })
}

/// `sim-load.arrival_ns`: `ArrivalGen::next_arrival` for a Poisson
/// process at the workload's arrival rate.
pub fn arrivals(inp: &Inputs, spans: &mut Spans) -> f64 {
    let rate = inp.arrival_cps.max(1.0);
    timed(spans, "sim-load::ArrivalGen::next_arrival", CALLS, || {
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Poisson { rate_cps: rate },
            RateProfile::Constant,
            SimRng::stream(inp.seed, 5),
        );
        for _ in 0..CALLS {
            black_box(gen.next_arrival());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Inputs {
        Inputs {
            cores: 4,
            population: 300,
            seed: 9,
            rtt: 270_000,
            service: 5_000,
            timer: 13_500_000,
            wire_share: 0.5,
            timer_share: 0.05,
            lock_hold: 1_000,
            lock_gap: 4_000,
            arrival_cps: 50_000.0,
        }
    }

    #[test]
    fn flows_follow_the_client_address_plan() {
        let flows = workload_flows(&inputs());
        assert_eq!(flows.len(), 300);
        assert_eq!(flows[251].dst_ip, Ipv4Addr::new(10, 2, 1, 2));
        assert_eq!(flows, workload_flows(&inputs()), "seeded");
    }

    #[test]
    fn every_replay_records_its_spans() {
        let inp = inputs();
        let mut spans = Spans::new("t".into(), true);
        let ns = [
            event_queue(&inp, &mut spans),
            lock_acquire(&inp, &mut spans),
            cache_access(&inp, &mut spans),
            nic_rx_queue(&inp, &mut spans),
            flow_hashing(&inp, &mut spans),
            est_lookup(&inp, &mut spans),
            arrivals(&inp, &mut spans),
        ];
        assert!(ns.iter().all(|&x| x > 0.0), "{ns:?}");
        let (w, p) = packet_codec(&inp, &mut spans, 600);
        assert!(w > 0.0 && p > 0.0);
        assert_eq!(spans.len(), 9 * REPEATS);
    }
}
