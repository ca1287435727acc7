//! The four benchmark workloads and the cells they run: every workload
//! runs the paper's three kernels, one cell each.

use fastsocket::{
    AppSpec, DataPlaneConfig, KernelSpec, LongLivedMix, MemConfig, OpenLoopConfig, SimConfig,
};
use sim_nic::BatchConfig;
use tcp_stack::CcAlgo;

/// The kernels every workload runs, with the short key used in metric
/// names.
pub const KERNELS: [(&str, KernelSpec); 3] = [
    ("base", KernelSpec::BaseLinux),
    ("linux313", KernelSpec::Linux313),
    ("fastsocket", KernelSpec::Fastsocket),
];

/// Measurement window used by the warm-up-only set-up runs: the
/// simulation is built and simulates its warm-up, then stops 1 µs in.
pub const SETUP_WINDOW_SECS: f64 = 1e-6;

/// The `i`-th simulation seed of a benchmark run at `seed`; the 0th is
/// `seed` itself.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `hold`: modeled concurrent sockets the open loop sustains.
const HOLD_TARGET_SOCKETS: u64 = 1 << 20;
/// `hold`: modeled sockets per simulated socket (`MemConfig::scale`).
const HOLD_SCALE: u32 = 256;
/// `hold`: modeled RAM budget the ledger charges against.
const HOLD_RAM_MB: u64 = 8_192;
/// `hold`: fraction of sessions that park their connection.
const HOLD_FRACTION: f64 = 0.9;
/// `hold`: how long a held session parks before closing (shorter than
/// the warm-up, so the population is standing when measurement starts).
pub const HOLD_SECS: f64 = 0.08;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// nginx, closed loop, one 600 B / 1,200 B exchange per
    /// connection, 24 cores (Fig. 4a).
    Short,
    /// HAProxy in front of backends, same clients, 24 cores (Fig. 4b/5).
    Proxy,
    /// nginx streaming 64 KiB responses over the CUBIC data plane with
    /// GSO/GRO offload, 8 cores.
    Bulk,
    /// nginx under Poisson arrivals holding ~1M modeled sockets, with
    /// the memory ledger and lifecycle tracer armed, 8 cores.
    Hold,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Short,
        Workload::Proxy,
        Workload::Bulk,
        Workload::Hold,
    ];

    /// The workload's name on the command line and in outputs.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Short => "short",
            Workload::Proxy => "proxy",
            Workload::Bulk => "bulk",
            Workload::Hold => "hold",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated server cores.
    pub fn cores(self) -> u16 {
        match self {
            Workload::Short | Workload::Proxy => 24,
            Workload::Bulk | Workload::Hold => 8,
        }
    }

    /// `(warm-up, measurement)` windows in simulated seconds.
    pub fn windows(self) -> (f64, f64) {
        match self {
            Workload::Short => (0.1, 0.1),
            Workload::Proxy => (0.1, 0.1),
            Workload::Bulk => (0.2, 0.3),
            Workload::Hold => (0.12, 0.2),
        }
    }

    /// Seeds at which the cell of kernel `key` takes its modeled metrics,
    /// pooled per benchmark run. Each count was chosen to keep the
    /// cell's modeled metrics within a few percent from one run seed to
    /// the next. One seed pins `short` to well under 1 %. `bulk`
    /// completes 64 KiB transfers in lumps, with the widest setup tail
    /// on linux-3.13, and `proxy`'s fastsocket cell swings between
    /// RTO-storm regimes from seed to seed.
    pub fn sub_seeds(self, key: &str) -> usize {
        match (self, key) {
            (Workload::Proxy, "fastsocket") => 20,
            (Workload::Bulk, "linux313") => 8,
            (Workload::Bulk, _) => 4,
            (Workload::Hold, _) => 3,
            _ => 1,
        }
    }

    /// Response payload bytes per request.
    pub fn response_bytes(self) -> u32 {
        match self {
            Workload::Bulk => 65_536,
            _ => 1_200,
        }
    }

    /// Whether the cells run with `SimConfig::trace` on. Only `hold`
    /// does: it is the workload whose modeled latency is the point.
    pub fn sim_traced(self) -> bool {
        self == Workload::Hold
    }

    /// The open-loop arrival rate of `hold`, sized by Little's law so
    /// that `rate × held fraction × hold time` simulated sockets stand
    /// open — [`HOLD_TARGET_SOCKETS`] modeled ones at [`HOLD_SCALE`].
    pub fn hold_rate_cps() -> f64 {
        let sim_sockets = (HOLD_TARGET_SOCKETS / u64::from(HOLD_SCALE)) as f64;
        sim_sockets / (HOLD_FRACTION * HOLD_SECS)
    }

    /// Client population: closed-loop slots, or the open loop's pool.
    pub fn population(self) -> u32 {
        match self {
            // 2x headroom over the standing population: an arrival that
            // finds every slot busy is abandoned, a client artifact.
            Workload::Hold => 2 * (HOLD_TARGET_SOCKETS / u64::from(HOLD_SCALE)) as u32,
            _ => 500 * u32::from(self.cores()),
        }
    }

    /// The cell configuration for `kernel` at `seed`, measuring for
    /// `measure_secs` simulated seconds.
    pub fn config(self, kernel: &KernelSpec, seed: u64, measure_secs: f64) -> SimConfig {
        let (warmup, _) = self.windows();
        let app = match self {
            Workload::Proxy => AppSpec::proxy(),
            _ => AppSpec::web(),
        };
        let cfg = SimConfig::new(kernel.clone(), app, self.cores())
            .seed(seed)
            .warmup_secs(warmup)
            .measure_secs(measure_secs)
            .check(false);
        match self {
            Workload::Short | Workload::Proxy => cfg,
            Workload::Bulk => cfg.data_plane(DataPlaneConfig {
                cc: CcAlgo::Cubic,
                response_bytes: self.response_bytes(),
                batch: BatchConfig::offload(),
                ..DataPlaneConfig::default()
            }),
            Workload::Hold => cfg
                .trace(true)
                .mem(MemConfig::ram_mb(HOLD_RAM_MB).scaled(HOLD_SCALE))
                .open_loop(
                    OpenLoopConfig::poisson(Workload::hold_rate_cps())
                        .population(self.population())
                        .longlived(LongLivedMix::fraction_held(HOLD_FRACTION, HOLD_SECS)),
                ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_start_at_the_seed_and_differ() {
        assert_eq!(Workload::Short.sub_seeds("base"), 1);
        assert!(Workload::Proxy.sub_seeds("fastsocket") > Workload::Proxy.sub_seeds("base"));
        assert_eq!(sub_seed(42, 0), 42);
        let seeds: std::collections::BTreeSet<u64> = (0..6).map(|i| sub_seed(42, i)).collect();
        assert_eq!(seeds.len(), 6);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn hold_sizes_a_million_modeled_sockets() {
        let standing = Workload::hold_rate_cps() * HOLD_FRACTION * HOLD_SECS;
        let modeled = standing * f64::from(HOLD_SCALE);
        assert!((modeled - (1u64 << 20) as f64).abs() < 1.0);
        assert!(f64::from(Workload::Hold.population()) >= 2.0 * standing - 1.0);
        let (warmup, _) = Workload::Hold.windows();
        assert!(
            HOLD_SECS < warmup,
            "held population stands before measuring"
        );
    }

    #[test]
    fn only_hold_traces_and_only_bulk_streams() {
        for w in Workload::ALL {
            let cfg = w.config(&KernelSpec::Fastsocket, 7, 0.01);
            assert_eq!(cfg.trace, w == Workload::Hold);
            assert_eq!(cfg.data_plane.is_some(), w == Workload::Bulk);
            assert_eq!(cfg.open_loop.is_some(), w == Workload::Hold);
            assert!(!cfg.check && cfg.faults.is_empty() && cfg.edge.is_none());
        }
    }
}
