//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <short|proxy|bulk|hold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs the paper's three kernels (`base-2.6.32`,
//! `linux-3.13`, `fastsocket`) one after another on one host thread,
//! through the public `fastsocket` API. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer
//! metrics, records host-time spans around its calls into each layer
//! and writes them to `perfbench/out/`. The last line of standard
//! output is the JSON result. `METRICS.md` documents every metric.

mod cells;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workload;

use cells::{guarded, output_checks, run_cell, same_work, CellRun, Tally};
use fastsocket::{run_sharded, KernelSpec, ParConfig, RunReport, SimConfig};
use metrics::{modeled_layers, Metrics};
use serde_json::Value;
use sim_core::time::CYCLES_PER_USEC;
use sim_core::{secs_to_cycles, CYCLES_PER_SEC};
use spans::Spans;
use stats::{bucket_percentile, busy_cycles, failures, fastest_sum, iqr_share, merge_buckets};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use workload::{sub_seed, Workload, KERNELS, SETUP_WINDOW_SECS};

const USAGE: &str =
    "usage: perfbench --workload <short|proxy|bulk|hold> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest timed repetitions per pass, however long they take.
const MIN_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The benchmark's own directory, and the repository root above it.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> &'static Path {
    bench_dir().parent().unwrap_or(Path::new("."))
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let field = |v: &Value, key: &str| match v {
        Value::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(Value::Array(items)) = field(&doc, section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Some(Value::String(n)), Some(Value::String(u))) => Ok((n, u)),
            _ => Err(format!("malformed {section} entry in BENCHMARK.json")),
        })
        .collect()
}

/// Provenance carried by every output: source revision, host, build
/// profile, seed and workloads.
fn provenance(args: &Args, run_id: &str) -> Value {
    let s = |x: &str| Value::String(x.to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::Object(vec![
        ("run".into(), s(run_id)),
        ("rev".into(), s(&git_rev(repo_root()))),
        ("host_nproc".into(), Value::UInt(nproc as u64)),
        (
            "profile".into(),
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("workload".into(), s(args.workload.name())),
        (
            "workloads".into(),
            Value::Array(Workload::ALL.iter().map(|w| s(w.name())).collect()),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One pass of timed repetitions of a workload's three cells at the
/// run's seed. Every repetition simulates identical work, so each
/// cell's fastest repetition is the one least disturbed by other load
/// on the host; the pass's figures sum those over the cells.
struct Pass {
    /// The first repetition's cells, in [`KERNELS`] order.
    first: Vec<CellRun>,
    /// Per cell, per repetition: host seconds to build the cell and
    /// simulate its warm-up (a run with a 1 µs measurement window).
    setup_s: Vec<Vec<f64>>,
    /// Per cell: simulated events at warm-up end.
    warm_events: Vec<u64>,
    /// Per cell, per repetition: host seconds in `Simulation::new`.
    build_s: Vec<Vec<f64>>,
    /// Per cell, per repetition: host seconds in `Simulation::run`.
    run_s: Vec<Vec<f64>>,
}

impl Pass {
    fn reps(&self) -> usize {
        self.run_s.first().map_or(0, Vec::len)
    }

    /// Fastest `run()` host seconds per cell, summed over cells.
    fn run_secs(&self) -> f64 {
        fastest_sum(&self.run_s)
    }

    /// Fastest `new` + `run()` host seconds per cell, summed.
    fn wall_secs(&self) -> f64 {
        fastest_sum(&self.build_s) + self.run_secs()
    }

    /// Simulated connections per host second inside `run()`.
    fn conns_per_s(&self) -> f64 {
        self.first.iter().map(|c| c.report.completed).sum::<u64>() as f64 / self.run_secs()
    }

    /// Simulated events per host second inside `run()`.
    fn events_per_s(&self) -> f64 {
        self.first.iter().map(|c| c.report.events).sum::<u64>() as f64 / self.run_secs()
    }

    /// Adds `later`'s repetitions of the same work to this pass.
    fn extend(&mut self, later: Pass) {
        for (mine, theirs) in [
            (&mut self.setup_s, later.setup_s),
            (&mut self.build_s, later.build_s),
            (&mut self.run_s, later.run_s),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.extend(b);
            }
        }
    }

    /// Per repetition, `run()` host seconds summed over cells.
    fn rep_run_secs(&self) -> Vec<f64> {
        (0..self.reps())
            .map(|r| self.run_s.iter().map(|cell| cell[r]).sum())
            .collect()
    }
}

/// One workload at one seed.
struct Bench {
    w: Workload,
    seed: u64,
}

impl Bench {
    fn label(&self, key: &str, sub: usize) -> String {
        format!("{}/{key}/seed{}", self.w.name(), sub_seed(self.seed, sub))
    }

    /// Cell configuration for `kernel` at sub-seed `sub`.
    fn config(&self, kernel: &KernelSpec, sub: usize) -> SimConfig {
        let seed = sub_seed(self.seed, sub);
        self.w.config(kernel, seed, self.w.windows().1)
    }

    /// Runs the cell of each kernel `key` once at each of its first
    /// `subs(key)` sub-seeds with `SimConfig::trace` set to `trace`, and
    /// returns the runs per kernel. Every run must pass the output
    /// checks; at sub-seed 0 it must also simulate exactly the work
    /// `reference` did, when given.
    fn per_seed_runs(
        &self,
        subs: impl Fn(&str) -> usize,
        trace: bool,
        reference: Option<&[CellRun]>,
        spans: &mut Spans,
        tally: &mut Tally,
    ) -> Result<Vec<Vec<CellRun>>, String> {
        let mut out = Vec::new();
        for (i, (key, kernel)) in KERNELS.iter().enumerate() {
            let mut runs = Vec::new();
            for sub in 0..subs(key) {
                let label = format!("{} trace={trace}", self.label(key, sub));
                let cfg = self.config(kernel, sub).trace(trace);
                let reference = reference.filter(|_| sub == 0).map(|r| &r[i]);
                let run = tally
                    .checked(run_cell(cfg, &label, spans), |c| {
                        let mut errors = output_checks(&label, c);
                        if let Some(r) = reference {
                            errors.extend(same_work(&label, "run with tracing flipped", r, c));
                        }
                        errors
                    })
                    .ok_or(label)?;
                runs.push(run);
            }
            out.push(runs);
        }
        Ok(out)
    }

    /// Times repetitions of all three cells at the run's seed until
    /// `budget_s` host seconds have passed (at least [`MIN_REPS`]). With
    /// `setup`, each repetition first builds every cell and simulates
    /// only its warm-up, so set-up samples spread over the whole pass.
    /// Every repetition must pass the output checks and simulate exactly
    /// the work of `reference` — or of the first repetition.
    fn measure(
        &self,
        budget_s: f64,
        setup: bool,
        spans: &mut Spans,
        tally: &mut Tally,
        reference: Option<&[CellRun]>,
    ) -> Result<Pass, String> {
        let start = Instant::now();
        let mut pass = Pass {
            first: Vec::new(),
            setup_s: vec![Vec::new(); KERNELS.len()],
            warm_events: Vec::new(),
            build_s: vec![Vec::new(); KERNELS.len()],
            run_s: vec![Vec::new(); KERNELS.len()],
        };
        while pass.reps() < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
            let first_rep = pass.reps() == 0;
            let reference = reference.or((!first_rep).then_some(pass.first.as_slice()));
            let mut row = Vec::new();
            for (i, (key, kernel)) in KERNELS.iter().enumerate() {
                let label = self.label(key, 0);
                if setup {
                    let label = format!("{label} set-up");
                    let cfg = self.w.config(kernel, self.seed, SETUP_WINDOW_SECS);
                    let warm = tally
                        .checked(run_cell(cfg, &label, spans), |_| Vec::new())
                        .ok_or(label)?;
                    pass.setup_s[i].push(warm.build_s + warm.run_s);
                    if first_rep {
                        pass.warm_events.push(warm.report.events);
                    }
                }
                let cell = tally
                    .checked(run_cell(self.config(kernel, 0), &label, spans), |c| {
                        let mut errors = output_checks(&label, c);
                        if let Some(r) = reference {
                            errors.extend(same_work(&label, "rerun at the same seed", &r[i], c));
                        }
                        errors
                    })
                    .ok_or_else(|| label.clone())?;
                pass.build_s[i].push(cell.build_s);
                pass.run_s[i].push(cell.run_s);
                row.push(cell);
            }
            if first_rep {
                pass.first = row;
            }
        }
        Ok(pass)
    }
}

fn cells_of(runs: &[CellRun]) -> Vec<(&'static str, &RunReport)> {
    KERNELS
        .iter()
        .zip(runs)
        .map(|((key, _), c)| (*key, &c.report))
        .collect()
}

/// Modeled goodput in Gbps: the data plane's own figure on `bulk`,
/// otherwise response payload bits delivered per simulated second.
fn goodput_gbps(w: Workload, r: &RunReport) -> f64 {
    r.bulk.as_ref().map_or_else(
        || r.responses as f64 * f64::from(w.response_bytes()) * 8.0 / r.measure_secs / 1e9,
        |b| b.goodput_gbps,
    )
}

/// Prints one line per cell: the equal-work fingerprint.
fn print_fingerprints<'a>(
    b: &Bench,
    runs: impl IntoIterator<Item = (&'a str, usize, &'a CellRun)>,
) {
    for (key, sub, c) in runs {
        let r = &c.report;
        println!(
            "cell {} kernel={} completed={} events={} results_digest={} failures={}",
            b.label(key, sub),
            r.kernel,
            r.completed,
            r.events,
            r.results_digest(),
            failures(r),
        );
    }
}

/// `--trace 0`: the end-to-end metrics. The host ones time untraced
/// repetitions at the run's seed, half before and half after the
/// modeled runs so that they sample the host over the whole run. The
/// modeled ones pool one traced run of each cell per sub-seed; at the
/// run's seed it must simulate exactly the work of the untraced ones.
fn end_to_end(args: &Args, b: &Bench, tally: &mut Tally) -> Result<Metrics, String> {
    let mut off = Spans::new(String::new(), false);
    let mut pass = b.measure(args.seconds / 2.0, true, &mut off, tally, None)?;
    let modeled = b.per_seed_runs(
        |key| b.w.sub_seeds(key),
        true,
        Some(&pass.first),
        &mut off,
        tally,
    )?;
    print_fingerprints(
        b,
        KERNELS.iter().zip(&modeled).flat_map(|((key, _), runs)| {
            runs.iter().enumerate().map(move |(sub, c)| (*key, sub, c))
        }),
    );
    let later = b.measure(args.seconds / 2.0, true, &mut off, tally, Some(&pass.first))?;
    pass.extend(later);
    println!(
        "host run() seconds per repetition over {} repetitions: iqr/median {:.4}",
        pass.reps(),
        iqr_share(&pass.rep_run_secs()),
    );

    let mut m = Metrics::default();
    m.push("sim_conns_per_s", pass.conns_per_s(), "conn/s");
    m.push("setup_s", fastest_sum(&pass.setup_s), "s");
    m.push("peak_rss_mib", peak_rss_mib()?, "MiB");
    let mean = |runs: &[CellRun], f: &dyn Fn(&RunReport) -> f64| {
        runs.iter().map(|c| f(&c.report)).sum::<f64>() / runs.len() as f64
    };
    for ((key, _), runs) in KERNELS.iter().zip(&modeled) {
        m.push(
            format!("model_cps.{key}"),
            mean(runs, &|r| r.throughput_cps),
            "conn/s",
        );
    }
    for ((key, _), runs) in KERNELS.iter().zip(&modeled) {
        m.push(
            format!("model_goodput_gbps.{key}"),
            mean(runs, &|r| goodput_gbps(b.w, r)),
            "Gbps",
        );
    }
    let pooled: Vec<Vec<(u64, u64)>> = modeled
        .iter()
        .map(|runs| merge_buckets(runs.iter().map(|c| c.setup_buckets.as_slice())))
        .collect();
    let to_us = |cycles: f64| cycles / CYCLES_PER_USEC as f64;
    for (q, name) in [(0.5, "model_setup_p50_us"), (0.99, "model_setup_p99_us")] {
        for ((key, _), buckets) in KERNELS.iter().zip(&pooled) {
            m.push(
                format!("{name}.{key}"),
                to_us(bucket_percentile(buckets, q)),
                "us",
            );
        }
    }
    for (((key, _), buckets), runs) in KERNELS.iter().zip(&pooled).zip(&modeled) {
        let samples: u64 = buckets.iter().map(|&(_, c)| c).sum();
        println!(
            "setup latency {}/{key}: {samples} samples over {} seeds",
            b.w.name(),
            runs.len()
        );
    }
    let reports: Vec<&RunReport> = modeled.iter().flatten().map(|c| &c.report).collect();
    let fail_ratio = stats::fail_ratio(&reports);
    println!("model_fail_ratio {fail_ratio}");
    m.push("model_success_ratio", 1.0 - fail_ratio, "ratio");
    Ok(m)
}

/// Runs `cfg` through `run_sharded`, timed, inside a span.
fn sharded(cfg: SimConfig, label: &str, spans: &mut Spans) -> Result<(RunReport, f64), String> {
    guarded(label, spans, |spans| {
        let t = Instant::now();
        let r = spans.scope("core::run_sharded", || run_sharded(cfg));
        (r, t.elapsed().as_secs_f64())
    })
}

/// The lane probe: the `short` fastsocket cell at 1 lane and at 2
/// lanes on the serial executor (timed) and the threaded one (identity
/// check). Records the lane-count sensitivity; gates only on the two
/// executors agreeing.
fn lane_probe(
    seed: u64,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let w = Workload::Short;
    let cfg = w.config(&KernelSpec::Fastsocket, seed, w.windows().1);
    let mut run = |cfg: SimConfig, label: &str| -> Result<(RunReport, f64), String> {
        let out = sharded(cfg, label, spans);
        match &out {
            Ok((r, _)) if r.completed == 0 => {
                tally.record(vec![format!("{label}: completed no connections")]);
            }
            Ok(_) => tally.record(Vec::new()),
            Err(e) => tally.record(vec![e.clone()]),
        }
        out
    };
    let (one, one_s) = run(cfg.clone(), "par short/fastsocket 1 lane")?;
    let (serial, serial_s) = run(
        cfg.clone().par(ParConfig::lanes(2).threads(false)),
        "par short/fastsocket 2 lanes serial",
    )?;
    let (threads, _) = run(
        cfg.par(ParConfig::lanes(2).threads(true)),
        "par short/fastsocket 2 lanes threaded",
    )?;
    let identical = serial.results_digest() == threads.results_digest();
    if !identical {
        tally.record(vec![
            "par short/fastsocket: serial and threaded executors disagree".into(),
        ]);
    }
    println!(
        "lane probe: 1 lane {:.0} cps, 2 lanes {:.0} cps, executors identical: {identical}",
        one.throughput_cps, serial.throughput_cps
    );
    m.push(
        "par.lane_cps_ratio",
        serial.throughput_cps / one.throughput_cps,
        "ratio",
    );
    m.push(
        "par.host_s_per_conn_ratio",
        (serial_s / serial.completed as f64) / (one_s / one.completed as f64),
        "ratio",
    );
    m.push(
        "par.executors_identical",
        f64::from(u8::from(identical)),
        "bool",
    );
    Ok(())
}

/// Replay inputs taken from the workload's cells at the run's seed:
/// `plain` the untraced reports, `traced` the same cells traced (for
/// the dispatch mix), `warm_events` the events at warm-up end.
fn replay_inputs(
    b: &Bench,
    plain: &[CellRun],
    traced: &[CellRun],
    warm_events: &[u64],
) -> replay::Inputs {
    let fs = &plain[2].report;
    let window_events = fs.events.saturating_sub(warm_events[2]).max(1);
    let dispatched: u64 = traced[2].dispatch.iter().map(|&(_, n)| n).sum();
    let share = |labels: &[&str]| {
        let n: u64 = traced[2]
            .dispatch
            .iter()
            .filter(|(l, _)| labels.contains(l))
            .map(|&(_, n)| n)
            .sum();
        n as f64 / dispatched.max(1) as f64
    };
    // The shared-table kernel's hottest lock sets the contention replay.
    let base = &plain[0].report;
    let window = base.measure_secs * CYCLES_PER_SEC as f64;
    let hot = base.locks.iter().max_by_key(|l| l.wait_cycles);
    let (lock_gap, lock_hold) = hot
        .filter(|l| l.acquisitions > 0)
        .map_or((4_000, 1_000), |l| {
            let gap = (window / l.acquisitions as f64).max(1.0);
            let hold = (l.reserved_cycles as f64 / l.acquisitions as f64).min(0.9 * gap);
            (gap as u64, hold as u64)
        });
    let cfg = b.config(&KernelSpec::Fastsocket, 0);
    replay::Inputs {
        cores: b.w.cores(),
        population: b.w.population(),
        seed: b.seed,
        rtt: cfg.rtt,
        service: (busy_cycles(fs) / window_events as f64) as u64,
        timer: if b.w == Workload::Hold {
            secs_to_cycles(workload::HOLD_SECS)
        } else {
            cfg.kernel.resolve(cfg.cores).rto
        },
        wire_share: share(&["to_server", "to_peer"]),
        timer_share: share(&["rto", "tw_expire", "client_timeout", "client_release"]),
        lock_hold,
        lock_gap,
        arrival_cps: cfg
            .open_loop
            .as_ref()
            .map_or(fs.throughput_cps, |o| o.arrivals.mean_rate_cps()),
    }
}

/// `--trace 1`: the per-layer metrics, with spans written to
/// `perfbench/out/`. Modeled metrics come from the run's own seed.
fn per_layer(
    args: &Args,
    b: &Bench,
    run_id: &str,
    prov: &Value,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut off = Spans::new(String::new(), false);
    let plain = b.measure(args.seconds / 2.0, true, &mut off, tally, None)?;
    let warm_events = &plain.warm_events;
    print_fingerprints(
        b,
        KERNELS
            .iter()
            .zip(&plain.first)
            .map(|((key, _), c)| (*key, 0, c)),
    );

    let mut spans = Spans::new(run_id.to_string(), true);
    spans.enter("perfbench::traced_pass");
    let traced = b.measure(
        args.seconds / 2.0,
        false,
        &mut spans,
        tally,
        Some(&plain.first),
    )?;
    spans.exit();
    spans.enter("perfbench::trace_twins");
    let flip = !b.w.sim_traced();
    let twins: Vec<CellRun> = b
        .per_seed_runs(|_| 1, flip, Some(&plain.first), &mut spans, tally)?
        .into_iter()
        .flatten()
        .collect();
    spans.exit();
    let own = &plain.first;

    let mut m = Metrics::default();
    m.push("core.build_s", fastest_sum(&traced.build_s), "s");
    m.push("core.run_s", traced.run_secs(), "s");
    m.push("sim-core.events_per_s", plain.events_per_s(), "ev/s");
    let window_events: Vec<u64> = own
        .iter()
        .zip(warm_events)
        .map(|(c, &w)| c.report.events.saturating_sub(w))
        .collect();
    modeled_layers(&mut m, &cells_of(own), &window_events);

    // SimConfig::trace on ÷ off, same seed, same work: the twin's
    // run() against the untraced pass's fastest repetitions.
    let twin_s: f64 = twins.iter().map(|c| c.run_s).sum();
    let pass_s = plain.run_secs();
    let (on, on_s, off_s) = if b.w.sim_traced() {
        (own, pass_s, twin_s)
    } else {
        (&twins, twin_s, pass_s)
    };
    m.push("sim-trace.overhead_ratio", on_s / off_s, "ratio");

    let inp = replay_inputs(b, own, on, warm_events);
    spans.enter("perfbench::replays");
    m.push(
        "sim-core.queue_ns_per_event",
        replay::event_queue(&inp, &mut spans),
        "ns",
    );
    m.push(
        "sim-sync.acquire_ns",
        replay::lock_acquire(&inp, &mut spans),
        "ns",
    );
    m.push(
        "sim-mem.access_ns",
        replay::cache_access(&inp, &mut spans),
        "ns",
    );
    for len in [600, 1_448] {
        let (to_wire, parse) = replay::packet_codec(&inp, &mut spans, len);
        m.push(format!("sim-net.to_wire_ns.{len}"), to_wire, "ns");
        m.push(format!("sim-net.parse_ns.{len}"), parse, "ns");
    }
    m.push(
        "sim-nic.rx_queue_ns",
        replay::nic_rx_queue(&inp, &mut spans),
        "ns",
    );
    m.push(
        "tcp-stack.flow_hash_ns",
        replay::flow_hashing(&inp, &mut spans),
        "ns",
    );
    m.push(
        "tcp-stack.est_lookup_ns",
        replay::est_lookup(&inp, &mut spans),
        "ns",
    );
    m.push(
        "sim-load.arrival_ns",
        replay::arrivals(&inp, &mut spans),
        "ns",
    );
    spans.exit();

    spans.enter("perfbench::lane_probe");
    lane_probe(b.seed, &mut spans, tally, &mut m)?;
    spans.exit();

    // The span recorder's own cost: traced pass ÷ untraced pass, on
    // identical work.
    let overhead = traced.wall_secs() / plain.wall_secs();
    println!("span recorder overhead vs untraced pass: {overhead:.4}x");
    m.push("perfbench.span_overhead_ratio", overhead, "ratio");

    let path = bench_dir()
        .join("out")
        .join(format!("spans-{}-seed{}.json", b.w.name(), b.seed));
    let doc = Value::Object(vec![
        ("provenance".into(), prov.clone()),
        ("spans".into(), spans.to_json()),
    ]);
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&doc).unwrap_or_default()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(m)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = match declared_metrics(section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let run_id = format!("{}-seed{}-{stamp}", args.workload.name(), args.seed);
    let prov = provenance(&args, &run_id);
    println!(
        "provenance {}",
        serde_json::to_string(&prov).unwrap_or_default()
    );

    let b = Bench {
        w: args.workload,
        seed: args.seed,
    };
    let mut tally = Tally::default();
    let result = if args.trace {
        per_layer(&args, &b, &run_id, &prov, &mut tally)
    } else {
        end_to_end(&args, &b, &mut tally)
    };
    let metrics = match result {
        Ok(m) => {
            let missing = m.mismatches(&declared);
            if !missing.is_empty() {
                tally.record(missing);
            }
            m
        }
        Err(cell) => {
            tally.failures.push(format!("stopped after {cell} failed"));
            Metrics::default()
        }
    };
    for m in &metrics.0 {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    let correct = tally.failed == 0 && tally.failures.is_empty();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(tally.attempted.max(1))),
        ("failed".into(), Value::UInt(tally.failed)),
        ("metrics".into(), metrics.to_json()),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse("--workload hold --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Hold);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse("--workload hold --seed 3 --seconds 10").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload short --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload short --seed 3 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn declared_metrics_cover_the_goodput_and_lane_probe() {
        let e2e = declared_metrics("end_to_end").unwrap();
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(e2e
            .iter()
            .any(|(n, _)| n == "model_goodput_gbps.fastsocket"));
        let layers = declared_metrics("per_layer").unwrap();
        assert!(layers.iter().any(|(n, _)| n == "par.lane_cps_ratio"));
    }
}
