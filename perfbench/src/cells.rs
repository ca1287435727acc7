//! Running cells: one simulation of one kernel on one workload, timed
//! on the host, checked, and fingerprinted.

use crate::spans::Spans;
use fastsocket::{RunReport, SimConfig, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One finished simulation.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The simulator's report.
    pub report: RunReport,
    /// Host seconds in `Simulation::new`.
    pub build_s: f64,
    /// Host seconds in `Simulation::run`.
    pub run_s: f64,
    /// Connection-setup histogram as `(upper bound cycles, count)`
    /// pairs — empty unless the simulation traced.
    pub setup_buckets: Vec<(u64, u64)>,
    /// Engine event-dispatch counts by event label — empty unless the
    /// simulation traced.
    pub dispatch: Vec<(&'static str, u64)>,
}

impl CellRun {
    /// The equal-work fingerprint: completed connections, simulated
    /// events, and the results digest of the report without its latency
    /// block and config hash — the two fields `SimConfig::trace` changes
    /// by itself — so traced and untraced runs of one configuration
    /// compare.
    pub fn fingerprint(&self) -> (u64, u64, String) {
        let mut r = self.report.clone();
        r.latency = None;
        r.config_hash.clear();
        (r.completed, r.events, r.results_digest())
    }
}

/// Runs `f` inside a span named `label`. A panic inside the simulator
/// is caught and returned as an error naming the cell.
pub fn guarded<T>(
    label: &str,
    spans: &mut Spans,
    f: impl FnOnce(&mut Spans) -> T,
) -> Result<T, String> {
    let depth = spans.depth();
    spans.enter(label);
    let out = catch_unwind(AssertUnwindSafe(|| f(spans)));
    spans.unwind_to_depth(depth);
    out.map_err(|_| format!("{label}: simulator panicked"))
}

/// Builds and runs `cfg` inside spans `<label>` > `Simulation::new` /
/// `Simulation::run`.
pub fn run_cell(cfg: SimConfig, label: &str, spans: &mut Spans) -> Result<CellRun, String> {
    guarded(label, spans, |spans| {
        let t0 = Instant::now();
        let sim = spans.scope("core::Simulation::new", || Simulation::new(cfg));
        let tracer = sim.tracer();
        let t1 = Instant::now();
        let report = spans.scope("core::Simulation::run", || sim.run());
        let t2 = Instant::now();
        let setup_buckets = tracer
            .lifecycle_histograms()
            .map(|[setup, _, _]| setup.nonzero_buckets())
            .unwrap_or_default();
        CellRun {
            report,
            build_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            setup_buckets,
            dispatch: tracer.dispatch_counts(),
        }
    })
}

/// Operation accounting for the final result line: every simulation
/// run is one attempted operation, failed if it panicked or any check
/// on its output failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, naming the cell.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation with the failed checks `errors` (empty =
    /// passed).
    pub fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.extend(errors);
        }
    }

    /// Records a run that either finished (checked by `check`) or
    /// panicked; returns the run if it finished.
    pub fn checked(
        &mut self,
        run: Result<CellRun, String>,
        check: impl FnOnce(&CellRun) -> Vec<String>,
    ) -> Option<CellRun> {
        match run {
            Ok(cell) => {
                self.record(check(&cell));
                Some(cell)
            }
            Err(e) => {
                self.record(vec![e]);
                None
            }
        }
    }
}

/// The output checks every measured cell must pass.
pub fn output_checks(label: &str, cell: &CellRun) -> Vec<String> {
    let r = &cell.report;
    let mut errors = Vec::new();
    if r.completed == 0 {
        errors.push(format!("{label}: completed no connections"));
    }
    if let Some(b) = &r.bulk {
        if b.payload_bytes == 0 {
            errors.push(format!("{label}: bulk cell moved no payload"));
        }
    }
    if let Some(m) = &r.mem {
        if !m.balanced {
            errors.push(format!("{label}: memory accounts unbalanced at drain"));
        }
    }
    errors
}

/// Check that `cell` simulated exactly the work `reference` did.
pub fn same_work(label: &str, what: &str, reference: &CellRun, cell: &CellRun) -> Vec<String> {
    let (a, b) = (reference.fingerprint(), cell.fingerprint());
    if a == b {
        Vec::new()
    } else {
        vec![format!("{label}: {what} differs: {a:?} vs {b:?}")]
    }
}
