//! Whole-system tracing integration: latency percentiles in run
//! reports, provenance fields, the paper-level tail-latency claim, and
//! the chrome://tracing export round-trip.

use fastsocket::{AppSpec, KernelSpec, RunReport, SimConfig, Simulation};
use sim_core::usecs_to_cycles;
use sim_trace::{ChromeTrace, Tracer};

fn traced(kernel: KernelSpec, cores: u16) -> (RunReport, Tracer) {
    let cfg = SimConfig::new(kernel, AppSpec::web(), cores)
        .warmup_secs(0.02)
        .measure_secs(0.08)
        .concurrency(u32::from(cores) * 50)
        .trace(true);
    let sim = Simulation::new(cfg);
    let tracer = sim.tracer();
    let report = sim.run();
    (report, tracer)
}

#[test]
fn traced_runs_surface_latency_and_provenance() {
    let (report, tracer) = traced(KernelSpec::Fastsocket, 4);
    assert_eq!(
        report.seed, 0xfa57_50c7,
        "default seed surfaces in the report"
    );
    assert_eq!(
        report.config_hash.len(),
        16,
        "config digest is a 64-bit hex string"
    );
    let lat = report.latency.as_ref().expect("traced run reports latency");
    assert!(
        lat.setup.count > 100,
        "too few setups measured: {}",
        lat.setup.count
    );
    assert!(lat.setup.p50_us <= lat.setup.p99_us);
    assert!(lat.setup.p99_us <= lat.setup.p999_us);
    assert!(
        lat.ttfb.p50_us >= lat.setup.p50_us,
        "first byte cannot precede setup"
    );
    assert_eq!(
        tracer.unbalanced_exits(),
        0,
        "every exit edge must match an enter"
    );
    assert!(tracer.established_count() > 0);
    assert!(
        !tracer.folded().is_empty(),
        "cycle attribution must be populated"
    );
    assert!(
        tracer
            .dispatch_counts()
            .iter()
            .any(|(l, _)| *l == "softirq"),
        "engine dispatch counts must include softirqs"
    );
}

#[test]
fn untraced_runs_pay_nothing_and_report_no_latency() {
    let cfg = SimConfig::new(KernelSpec::Fastsocket, AppSpec::web(), 2)
        .warmup_secs(0.02)
        .measure_secs(0.05)
        .concurrency(100);
    let sim = Simulation::new(cfg);
    let tracer = sim.tracer();
    let report = sim.run();
    assert!(
        report.latency.is_none(),
        "latency requires SimConfig::trace"
    );
    assert!(!tracer.is_enabled());
    assert!(tracer.events().is_empty());
    assert_eq!(report.seed, 0xfa57_50c7);
}

#[test]
fn fastsocket_p99_setup_beats_base_at_24_cores() {
    // The paper's motivation restated as tail latency: at high core
    // counts the base kernel's shared accept queue and lock contention
    // stretch connection setup; Fastsocket's per-core partitioning
    // keeps the p99 at or below it.
    let (fs, _) = traced(KernelSpec::Fastsocket, 24);
    let (base, _) = traced(KernelSpec::BaseLinux, 24);
    let fs_p99 = fs.latency.expect("fastsocket latency").setup.p99_us;
    let base_p99 = base.latency.expect("base latency").setup.p99_us;
    assert!(
        fs_p99 <= base_p99,
        "fastsocket p99 setup {fs_p99:.1}us should not exceed base {base_p99:.1}us at 24 cores"
    );
}

#[test]
fn chrome_export_round_trips_through_serde_json() {
    let (_, tracer) = traced(KernelSpec::Fastsocket, 2);
    let trace = tracer.chrome_trace(usecs_to_cycles(1.0) as f64);
    assert!(!trace.traceEvents.is_empty());
    let json = trace.to_json();
    let back: ChromeTrace = serde_json::from_str(&json).expect("chrome JSON parses back");
    assert_eq!(back, trace);
    assert!(
        trace.traceEvents.iter().any(|e| e.ph == "X"),
        "export must contain complete spans"
    );
    assert!(
        trace.traceEvents.iter().any(|e| e.ph == "i"),
        "export must contain lifecycle instants"
    );
}

/// 64-bit FNV-1a, the digest the golden pins below are stated in.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn traced_attribution_output_is_pinned() {
    // Golden digests of the two attribution exports for one small
    // traced cell. Any change to how spans fold into stacks, how the
    // stacks render, or which events reach the rings moves these.
    let (_, tracer) = traced(KernelSpec::Fastsocket, 4);
    assert_eq!(tracer.unbalanced_exits(), 0);
    let folded = fnv1a(tracer.folded().as_bytes());
    let chrome = fnv1a(
        tracer
            .chrome_trace(usecs_to_cycles(1.0) as f64)
            .to_json()
            .as_bytes(),
    );
    assert_eq!(folded, 0xff04_aa91_da3f_b734, "folded-stack digest moved");
    assert_eq!(chrome, 0xd999_9962_1948_1a0d, "chrome-trace digest moved");
}
