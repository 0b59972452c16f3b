//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! `tests/catalogue.rs` keeps the two in step.

use crate::run::{Outcome, Window};
use crate::stats::{median, ratio};

/// End-to-end metrics, measured with tracing off and bounded in
/// `BENCHMARK.json`: `(name, unit)`. They make up the result line.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics an untraced run prints but `BENCHMARK.json` does not
/// bound: the p99 spread by more than the largest bound over ten runs (it
/// follows the host's scheduling and disk), and a correct run reads 0
/// failures.
pub const UNBOUNDED: [(&str, &str); 2] = [("latency_p99_us", "us"), ("failed_op_frac", "ratio")];

/// Per-layer metrics, measured in the traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("counter.suspensions_per_op", "count/op"),
    ("counter.slow_path_entries_per_op", "count/op"),
    ("counter.notifies_per_suspension", "ratio"),
    ("counter.fast_increment_frac", "ratio"),
    ("counter.fast_check_frac", "ratio"),
    ("counter.increment_ns_p50", "ns"),
    ("counter.wake_us_p50", "us"),
    ("counter.wake_us_p99", "us"),
    ("counter.check_wait_us_p50", "us"),
    ("counter.max_live_nodes", "count"),
    ("sharded.ns_per_increment", "ns"),
    ("sharded.fast_increment_frac", "ratio"),
    ("sharded.slow_path_entries_per_op", "count/op"),
    ("broadcast.push_ns_p50", "ns"),
    ("broadcast.next_wait_us_p50", "us"),
    ("fw.row_wait_share", "ratio"),
    ("fw.spawn_join_us", "us"),
    ("fw.compute_share", "ratio"),
    ("wal.fsync_us_p50", "us"),
    ("wal.fsync_us_p99", "us"),
    ("wal.append_us_p50", "us"),
    ("wal.records_per_fsync", "count/fsync"),
    ("wal.fsync_busy_share", "ratio"),
    ("wal.retries_per_op", "count/op"),
    ("durable.ack_minus_fsync_us_p50", "us"),
    ("trace_overhead_frac", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: u64,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The end-to-end metrics of an untraced run: the [`END_TO_END`] ones, then
/// the [`UNBOUNDED`] ones. `latency_p99_us` is the median of the windows'
/// p99s when every window holds enough samples for one, else the
/// workload's [`pooled_p99_ns`](Outcome::pooled_p99_ns); when neither
/// exists the percentile rule leaves it out.
///
/// # Errors
///
/// When a metric cannot be computed: no set-up or no completed window, or a
/// window with too few latency samples for its p50.
pub fn end_to_end(o: &Outcome, peak_rss_mib: f64) -> Result<Vec<Metric>, String> {
    let e2e = |name: &'static str, value: f64, samples: u64| Metric {
        name,
        unit: unit_of(&END_TO_END, name)
            .or_else(|| unit_of(&UNBOUNDED, name))
            .expect("metric is in the catalogue"),
        value,
        samples,
    };
    let (attempted, failed) = (o.timed.attempted(), o.timed.failed());
    let windows = &o.timed.untraced;
    let rates: Vec<f64> = windows.iter().map(|w| w.rate()).collect();
    let completed: u64 = windows.iter().map(|w| w.ops - w.failed).sum();
    let lat_n: u64 = windows.iter().map(|w| w.samples).sum();
    let per_window = |q: fn(&Window) -> Option<f64>, what: &str| {
        let values: Option<Vec<f64>> = windows.iter().map(q).collect();
        values.and_then(|v| median(&v)).ok_or(format!(
            "a window has too few latency samples for its {what}"
        ))
    };
    let setup = median(&o.setup_s).ok_or("no set-up was timed")?;
    let throughput = median(&rates).ok_or("no window completed")?;
    let p50 = per_window(|w| w.p50_ns, "p50")?;
    let p99 = per_window(|w| w.p99_ns, "p99").ok().or(o.pooled_p99_ns);
    let mut metrics = vec![
        e2e("setup_s", setup, o.setup_s.len() as u64),
        e2e("throughput_ops_s", throughput, rates.len() as u64),
        e2e("latency_p50_us", p50 / 1e3, lat_n),
        e2e(
            "cpu_us_per_op",
            ratio(o.timed.untraced_cpu_s * 1e6, completed as f64),
            completed,
        ),
        e2e("peak_rss_mib", peak_rss_mib, 1),
    ];
    metrics.extend(p99.map(|p99| e2e("latency_p99_us", p99 / 1e3, lat_n)));
    metrics.push(e2e(
        "failed_op_frac",
        ratio(failed as f64, attempted as f64),
        attempted,
    ));
    Ok(metrics)
}

/// The per-layer metrics of a traced run, in catalogue order, with
/// `trace_overhead_frac` from the throughput of the traced half against the
/// untraced half of the same run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let untraced: Vec<f64> = o.timed.untraced.iter().map(|w| w.rate()).collect();
    let traced: Vec<f64> = o.timed.traced.iter().map(|w| w.rate()).collect();
    let overhead = match (median(&untraced), median(&traced)) {
        (Some(u), Some(t)) if u > 0.0 => 1.0 - t / u,
        _ => 0.0,
    };
    let traced_ops: u64 = o.timed.traced.iter().map(|w| w.ops).sum();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace_overhead_frac" {
                overhead
            } else {
                o.layers.get(name).copied().unwrap_or(0.0)
            };
            Metric {
                name,
                unit,
                value,
                samples: traced_ops,
            }
        })
        .collect()
}

/// Formats a number for JSON: every digit of a finite value, 0 otherwise.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// where `metrics` holds those of `metrics` that are bounded (all of a
/// traced run's, only the [`END_TO_END`] ones of an untraced run's).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| unit_of(&UNBOUNDED, m.name).is_none())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}
