//! The benchmark's own arithmetic: order statistics, histogram
//! percentiles, and the per-connection derivations applied to a
//! [`RunReport`].

use fastsocket::RunReport;
use sim_core::{CycleClass, CYCLES_PER_SEC};

/// Median of `values` (mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Per-cell host timings `per_cell[cell][repetition]` of identical
/// work: each cell's fastest repetition, summed over cells. On a shared
/// host, other tenants only ever add time, so the minimum is the
/// repetition least disturbed by them.
pub fn fastest_sum(per_cell: &[Vec<f64>]) -> f64 {
    per_cell
        .iter()
        .map(|reps| reps.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Interquartile range as a share of the median — the spread figure
/// the benchmark's bounds are checked against. 0 when undefined.
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some([q1, _, q3]) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Width of the latency-histogram bucket whose upper bound is `upper`.
///
/// Mirrors `sim_trace::LatencyHistogram`'s layout: values below 32
/// have exact buckets; above that every power-of-two octave splits
/// into 16 equal sub-buckets.
fn bucket_width(upper: u64) -> u64 {
    if upper < 32 {
        1
    } else {
        let octave = 63 - u64::from(upper.leading_zeros());
        1 << (octave - 4)
    }
}

/// The `q`-quantile (`q` in `[0, 1]`) of a log-bucketed histogram
/// given as ascending `(bucket upper bound, count)` pairs, linearly
/// interpolated inside the containing bucket. Bucket upper bounds
/// alone step by ~6 %, so a tail percentile read off them jumps
/// between neighbouring buckets from seed to seed; interpolation
/// keeps it continuous. 0 for an empty histogram.
pub fn bucket_percentile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0.0;
    for &(upper, count) in buckets {
        let c = count as f64;
        if c > 0.0 && seen + c >= rank {
            let width = bucket_width(upper) as f64;
            let lower = upper as f64 - width;
            return lower + width * ((rank - seen) / c);
        }
        seen += c;
    }
    buckets.last().map_or(0.0, |&(upper, _)| upper as f64)
}

/// Sums several histograms given as ascending `(upper bound, count)`
/// pairs into one.
pub fn merge_buckets<'a>(hists: impl IntoIterator<Item = &'a [(u64, u64)]>) -> Vec<(u64, u64)> {
    let mut merged = std::collections::BTreeMap::new();
    for &(upper, count) in hists.into_iter().flatten() {
        *merged.entry(upper).or_insert(0) += count;
    }
    merged.into_iter().collect()
}

/// Modeled busy cycles summed over all cores in the measured window.
pub fn busy_cycles(r: &RunReport) -> f64 {
    let window = r.measure_secs * CYCLES_PER_SEC as f64;
    r.core_utilization.iter().sum::<f64>() * window
}

/// `numerator` per completed connection (0 when nothing completed).
pub fn per_conn(numerator: f64, r: &RunReport) -> f64 {
    if r.completed == 0 {
        0.0
    } else {
        numerator / r.completed as f64
    }
}

/// Modeled cycles per completed connection spent in `class`: the
/// class's share of busy cycles × busy cycles ÷ completed connections.
pub fn cycles_per_conn(r: &RunReport, class: CycleClass) -> f64 {
    per_conn(r.cycle_share(class) * busy_cycles(r), r)
}

/// Failed client attempts in the window: client resets, connect
/// timeouts, and (open loop only) arrivals abandoned before or during
/// connect.
pub fn failures(r: &RunReport) -> u64 {
    let abandoned = r
        .load
        .as_ref()
        .map_or(0, |l| l.abandoned_wait + l.abandoned_connect);
    r.resets + r.timeouts + abandoned
}

/// Failures ÷ (completed connections + failures) over `reports`; 0
/// when the windows saw neither.
pub fn fail_ratio(reports: &[&RunReport]) -> f64 {
    let failed: u64 = reports.iter().map(|r| failures(r)).sum();
    let base = reports.iter().map(|r| r.completed).sum::<u64>() + failed;
    if base == 0 {
        0.0
    } else {
        failed as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsocket::{LoadReport, LockReport};
    use tcp_stack::StackStats;

    fn report() -> RunReport {
        RunReport {
            kernel: "fastsocket".into(),
            app: "nginx".into(),
            cores: 2,
            steering: "rss".into(),
            seed: 1,
            config_hash: String::new(),
            latency: None,
            checks: None,
            robustness: None,
            measure_secs: 0.5,
            throughput_cps: 2_000.0,
            requests_per_sec: 2_000.0,
            completed: 1_000,
            responses: 1_000,
            resets: 0,
            timeouts: 0,
            core_utilization: vec![0.5, 0.25],
            locks: Vec::<LockReport>::new(),
            l3_miss_rate: 0.0,
            local_packet_proportion: 1.0,
            cycle_shares: CycleClass::ALL
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name().to_string(), (i + 1) as f64 / 105.0))
                .collect(),
            stack: StackStats::default(),
            avg_listen_walk: 1.0,
            events: 0,
            live_sockets: 0,
            load: None,
            bulk: None,
            edge: None,
            mem: None,
        }
    }

    fn load(abandoned_wait: u64, abandoned_connect: u64) -> LoadReport {
        LoadReport {
            offered: 0,
            admitted: 0,
            queued_admissions: 0,
            abandoned_wait,
            abandoned_connect,
            completed_sessions: 0,
            peak_backlog: 0,
            offered_cps: 0.0,
            schedule_digest: String::new(),
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_sum_takes_each_cells_minimum() {
        let per_cell = vec![vec![0.3, 0.2, 0.9], vec![1.0, 1.5]];
        assert!((fastest_sum(&per_cell) - 1.2).abs() < 1e-12);
        assert_eq!(fastest_sum(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(quartiles(&[7.0]), None);
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_percentile_interpolates_inside_buckets() {
        // One exact bucket: every quantile is (about) its value.
        assert!((bucket_percentile(&[(10, 4)], 0.5) - 9.5).abs() < 1e-12);
        // 1023 tops the last 32-wide bucket of the 512..1024 octave;
        // 1087 tops the first 64-wide bucket of the next one.
        assert_eq!(bucket_width(1_023), 32);
        assert_eq!(bucket_width(1_087), 64);
        let b = [(1_023, 50), (1_087, 50)];
        assert!((bucket_percentile(&b, 0.25) - (991.0 + 16.0)).abs() < 1e-9);
        assert!((bucket_percentile(&b, 0.5) - 1_023.0).abs() < 1e-9);
        assert!((bucket_percentile(&b, 0.99) - (1_023.0 + 64.0 * 0.98)).abs() < 1e-9);
        assert_eq!(bucket_percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn bucket_percentile_agrees_with_histogram_bounds() {
        let mut h = sim_trace::LatencyHistogram::new();
        for v in [40, 300, 5_000, 5_001, 70_000, 1_000_000] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        // Below the top bucket, whose reported bound the histogram
        // clamps to the largest sample.
        for q in [0.1, 0.5, 0.8] {
            let upper = h.percentile(q) as f64;
            let x = bucket_percentile(&buckets, q);
            let (u, _) = buckets
                .iter()
                .copied()
                .find(|&(u, _)| u as f64 >= x)
                .unwrap();
            assert!(x <= upper && x > u as f64 - bucket_width(u) as f64);
        }
    }

    #[test]
    fn merged_buckets_sum_counts_per_bound() {
        let a = [(10, 1), (40, 2)];
        let b = [(20, 5), (40, 3)];
        assert_eq!(
            merge_buckets([&a[..], &b[..]]),
            vec![(10, 1), (20, 5), (40, 5)]
        );
    }

    #[test]
    fn class_cycles_sum_to_busy_cycles_per_conn() {
        let r = report();
        // 0.75 core-windows of 0.5 s at 2.7 GHz.
        assert!((busy_cycles(&r) - 0.75 * 0.5 * 2.7e9).abs() < 1e-3);
        let total: f64 = CycleClass::ALL
            .iter()
            .map(|&c| cycles_per_conn(&r, c))
            .sum();
        let expect = busy_cycles(&r) / 1_000.0;
        assert!((total - expect).abs() < 1e-6 * expect);
        let mut idle = report();
        idle.completed = 0;
        assert_eq!(cycles_per_conn(&idle, CycleClass::Vfs), 0.0);
    }

    #[test]
    fn fail_ratio_base_for_closed_and_open_loops() {
        let mut closed = report();
        assert_eq!(fail_ratio(&[&closed]), 0.0);
        closed.resets = 30;
        closed.timeouts = 20;
        // Closed loop: failures over completed + failures.
        assert!((fail_ratio(&[&closed]) - 50.0 / 1_050.0).abs() < 1e-12);
        // Open loop: abandoned arrivals join both sides.
        let mut open = closed.clone();
        open.load = Some(load(40, 10));
        assert_eq!(failures(&open), 100);
        assert!((fail_ratio(&[&open]) - 100.0 / 1_100.0).abs() < 1e-12);
        // Over several cells the ratio pools counts, not ratios.
        let clean = report();
        assert!((fail_ratio(&[&open, &clean]) - 100.0 / 2_100.0).abs() < 1e-12);
        let mut empty = report();
        empty.completed = 0;
        assert_eq!(fail_ratio(&[&empty]), 0.0);
    }
}
