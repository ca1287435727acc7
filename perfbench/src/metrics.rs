//! Named metrics with units, and the modeled per-layer metrics derived
//! from one cell's [`RunReport`].

use crate::stats::{cycles_per_conn, per_conn};
use fastsocket::RunReport;
use serde_json::Value;
use sim_core::CycleClass;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends one metric per kernel: `<prefix>.<kernel key>`.
    pub fn per_kernel(
        &mut self,
        prefix: &str,
        unit: &'static str,
        cells: &[(&str, &RunReport)],
        f: impl Fn(&RunReport) -> f64,
    ) {
        for (key, r) in cells {
            self.push(format!("{prefix}.{key}"), f(r), unit);
        }
    }

    /// The metrics as the result line's `metrics` object.
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(m.value)),
                            ("unit".into(), Value::String(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Differences between these metrics and the `(name, unit)` list
    /// `expected` (from `BENCHMARK.json`), one line each.
    pub fn mismatches(&self, expected: &[(String, String)]) -> Vec<String> {
        let mut out = Vec::new();
        for (name, unit) in expected {
            match self.0.iter().find(|m| &m.name == name) {
                None => out.push(format!("metric {name} was not measured")),
                Some(m) if m.unit != unit => {
                    out.push(format!("metric {name} has unit {} not {unit}", m.unit));
                }
                Some(m) if !m.value.is_finite() => {
                    out.push(format!("metric {name} is not finite"));
                }
                Some(_) => {}
            }
        }
        for m in &self.0 {
            if !expected.iter().any(|(n, _)| n == &m.name) {
                out.push(format!("metric {} is not in BENCHMARK.json", m.name));
            }
        }
        out
    }
}

/// Modeled cycles-per-connection metrics: `(layer, metric stem, class)`.
const CLASS_METRICS: [(&str, &str, CycleClass); 14] = [
    ("sim-sync", "lock_spin", CycleClass::LockSpin),
    ("sim-mem", "cache_miss", CycleClass::CacheMiss),
    ("sim-nic", "steering", CycleClass::Steering),
    ("sim-nic", "softirq", CycleClass::SoftirqBase),
    ("tcp-stack", "listen_lookup", CycleClass::ListenLookup),
    ("tcp-stack", "est_lookup", CycleClass::EstLookup),
    ("tcp-stack", "handshake", CycleClass::Handshake),
    ("tcp-stack", "tcb_manage", CycleClass::TcbManage),
    ("tcp-stack", "tx_path", CycleClass::TxPath),
    ("sim-os", "vfs", CycleClass::Vfs),
    ("sim-os", "epoll", CycleClass::Epoll),
    ("sim-os", "syscall", CycleClass::Syscall),
    ("sim-os", "timer", CycleClass::Timer),
    ("apps", "app_work", CycleClass::AppWork),
];

/// Every modeled per-layer metric that comes straight from the
/// kernels' run reports; `window_events[i]` is the number of events
/// cell `i` simulated inside its measurement window.
pub fn modeled_layers(out: &mut Metrics, cells: &[(&str, &RunReport)], window_events: &[u64]) {
    for ((key, r), &events) in cells.iter().zip(window_events) {
        out.push(
            format!("sim-core.events_per_conn.{key}"),
            per_conn(events as f64, r),
            "ev/conn",
        );
    }
    for (layer, stem, class) in CLASS_METRICS {
        out.per_kernel(
            &format!("{layer}.{stem}_cyc_per_conn"),
            "cyc/conn",
            cells,
            |r| cycles_per_conn(r, class),
        );
    }
    out.per_kernel("sim-sync.contentions_per_conn", "1/conn", cells, |r| {
        per_conn(r.locks.iter().map(|l| l.contentions as f64).sum(), r)
    });
    out.per_kernel("sim-sync.wait_cyc_per_conn", "cyc/conn", cells, |r| {
        per_conn(r.locks.iter().map(|l| l.wait_cycles as f64).sum(), r)
    });
    out.per_kernel("sim-mem.l3_miss_rate", "ratio", cells, |r| r.l3_miss_rate);
    out.per_kernel("sim-nic.local_packet_proportion", "ratio", cells, |r| {
        r.local_packet_proportion
    });
    out.per_kernel("tcp-stack.avg_listen_walk", "entries", cells, |r| {
        r.avg_listen_walk
    });
    out.per_kernel("tcp-stack.rto_rtx_per_conn", "1/conn", cells, |r| {
        per_conn(r.stack.retransmits as f64, r)
    });
    out.per_kernel("tcp-stack.fast_rtx_per_conn", "1/conn", cells, |r| {
        per_conn(
            r.stack
                .dp
                .as_ref()
                .map_or(0.0, |d| d.fast_retransmits as f64),
            r,
        )
    });
    out.per_kernel("sim-res.bytes_per_held_conn", "B/conn", cells, |r| {
        r.mem.as_ref().map_or(0.0, |m| {
            if m.peak_sockets == 0 {
                0.0
            } else {
                m.peak_bytes as f64 / m.peak_sockets as f64
            }
        })
    });
    out.per_kernel("sim-res.peak_sockets", "count", cells, |r| {
        r.mem.as_ref().map_or(0.0, |m| m.peak_sockets as f64)
    });
    out.per_kernel("sim-res.pressure_enters", "count", cells, |r| {
        r.mem
            .as_ref()
            .map_or(0.0, |m| m.stats.enter_pressure as f64)
    });
    let load = |f: fn(&fastsocket::LoadReport) -> u64| -> f64 {
        cells
            .iter()
            .filter_map(|(_, r)| r.load.as_ref())
            .map(|l| f(l) as f64)
            .fold(0.0, |a, b| a + b)
    };
    out.push(
        "sim-load.queued_admissions",
        load(|l| l.queued_admissions),
        "count",
    );
    out.push(
        "sim-load.abandoned",
        load(|l| l.abandoned_wait + l.abandoned_connect),
        "count",
    );
}
