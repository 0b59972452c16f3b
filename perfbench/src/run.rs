//! What every workload shares: the configuration, repeated timed set-up,
//! the windowed timed phase with its per-window latency, and counter
//! statistics.

use crate::stats::{sorted, tail_percentile};
use mc_counter::StatsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this often; `setup_s` is the median.
pub const SETUP_MIN_REPS: usize = 5;
/// Set-up is repeated further until this much time is spent on it (or
/// [`SETUP_MAX_REPS`] is reached), so a set-up of a few microseconds is the
/// median of many repetitions.
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// The most set-up repetitions.
pub const SETUP_MAX_REPS: usize = 1001;

/// How long one blocking wait may take before it counts as a lost wakeup.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(5);

/// Spans kept per thread in a traced run. The traced phase ends at the
/// first window in which a tracer reaches it (see [`timed_phase`]).
pub const SPAN_CAP: usize = 1 << 18;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: the second half of the timed phase records spans.
    pub trace: bool,
    /// Scratch directory for WAL directories and span files.
    pub work_dir: PathBuf,
    /// CPUs the process may run on; load threads are pinned to them in turn.
    pub cpus: Vec<usize>,
}

/// One closed-loop window of operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Operations attempted in the window.
    pub ops: u64,
    /// Of those, operations that failed (timeout, poison, WAL error or a
    /// wrong answer).
    pub failed: u64,
    /// Time from the window's first operation to its last.
    pub elapsed_ns: u64,
    /// Latency samples taken in the window.
    pub samples: u64,
    /// The window's median latency sample in nanoseconds.
    pub p50_ns: Option<f64>,
    /// The window's 99th-percentile latency sample in nanoseconds, present
    /// only when at least [`MIN_TAIL_SAMPLES`](crate::stats::MIN_TAIL_SAMPLES)
    /// samples lie beyond it.
    pub p99_ns: Option<f64>,
    /// A traced window in which a tracer reached its cap and dropped spans:
    /// part of it ran untraced, so it is not counted as traced.
    pub spans_dropped: bool,
}

impl Window {
    /// Summarises the window's latency samples (nanoseconds).
    pub fn set_latency(&mut self, samples: Vec<f64>) {
        let samples = sorted(samples);
        self.samples = samples.len() as u64;
        self.p50_ns = tail_percentile(&samples, 0.5);
        self.p99_ns = tail_percentile(&samples, 0.99);
    }

    /// Completed operations per second.
    pub fn rate(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            (self.ops - self.failed) as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// The windows of the timed phase, split by whether spans were recorded.
#[derive(Debug, Default)]
pub struct Timed {
    /// Windows run with tracing off (all of them in an untraced run).
    pub untraced: Vec<Window>,
    /// Windows run with tracing on whose spans were all kept (the second
    /// half of a traced run, up to the span cap).
    pub traced: Vec<Window>,
    /// Windows that count only towards attempted and failed operations: the
    /// traced window in which a tracer reached its cap, and the untraced
    /// windows that fill the rest of the phase after it.
    pub uncounted: Vec<Window>,
    /// Process CPU seconds spent across the untraced windows.
    pub untraced_cpu_s: f64,
    /// Descriptions of the failures found in the windows.
    pub failures: Vec<String>,
}

impl Timed {
    /// All windows.
    pub fn all(&self) -> impl Iterator<Item = &Window> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .chain(&self.uncounted)
    }

    /// Operations attempted across the phase.
    pub fn attempted(&self) -> u64 {
        self.all().map(|w| w.ops).sum()
    }

    /// Operations failed across the phase.
    pub fn failed(&self) -> u64 {
        self.all().map(|w| w.failed).sum()
    }

    /// Completed operations and elapsed nanoseconds across the traced windows.
    pub fn traced_totals(&self) -> (u64, u64) {
        self.traced.iter().fold((0, 0), |(ops, ns), w| {
            (ops + w.ops - w.failed, ns + w.elapsed_ns)
        })
    }
}

/// Runs set-up repeatedly (see [`SETUP_MIN_REPS`] and [`SETUP_BUDGET`]),
/// timing each repetition, and keeps the last state. Earlier states are
/// dropped between repetitions, outside the timing.
pub fn timed_setups<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut kept = None;
    let mut secs = Vec::new();
    let begun = Instant::now();
    while secs.len() < SETUP_MIN_REPS
        || (begun.elapsed() < SETUP_BUDGET && secs.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let state = setup(secs.len())?;
        secs.push(start.elapsed().as_secs_f64());
        kept = Some(state);
    }
    Ok((kept.expect("at least one set-up ran"), secs))
}

/// Runs windows until `cfg.seconds` have passed, stopping early after a
/// window with failures. `window(traced)` runs one window; in a traced run
/// the first half of the phase is untraced and the second half traced, so
/// the two halves give the tracing overhead. The traced windows end at the
/// first one that reports [`Window::spans_dropped`]; it and the rest of the
/// phase, run untraced, go to [`Timed::uncounted`].
pub fn timed_phase(
    cfg: &Config,
    mut window: impl FnMut(bool, &mut Vec<String>) -> Window,
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    let total = Duration::from_secs_f64(cfg.seconds);
    let untraced_until = if cfg.trace { total / 2 } else { total };
    let cpu_before = crate::procfs::cpu_seconds().unwrap_or(0.0);
    while start.elapsed() < untraced_until {
        let w = window(false, &mut timed.failures);
        timed.untraced.push(w);
        if w.failed > 0 {
            break;
        }
    }
    timed.untraced_cpu_s = crate::procfs::cpu_seconds().unwrap_or(0.0) - cpu_before;
    let mut tracing = cfg.trace;
    while timed.failed() == 0 && start.elapsed() < total {
        let w = window(tracing, &mut timed.failures);
        if tracing && !w.spans_dropped {
            timed.traced.push(w);
        } else {
            tracing = false;
            timed.uncounted.push(w);
        }
    }
    timed
}

/// The splitmix64 generator: a small, seedable source for inputs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value derived from a seed and a stream index.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// `steps` strictly increasing levels in `(base, base + total]`, the last
/// one `base + total`, spaced by seeded cut points: the staircase a main
/// thread blocks through while load threads count up to the total.
pub fn staircase(seed: u64, base: u64, total: u64, steps: usize) -> Vec<u64> {
    assert!(total >= steps as u64, "need at least one unit per step");
    let mut rng = seed;
    let mut cuts: Vec<u64> = (1..steps as u64)
        .map(|s| {
            // Jitter each evenly spaced cut by up to a quarter step.
            let even = s * total / steps as u64;
            let quarter = total / steps as u64 / 4;
            let jitter = if quarter == 0 {
                0
            } else {
                splitmix64(&mut rng) % (2 * quarter + 1)
            };
            (even + jitter).saturating_sub(quarter).max(1)
        })
        .collect();
    cuts.push(total);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.into_iter().map(|c| base + c).collect()
}

/// Counter statistics summed over the counters a workload used.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterTotals {
    /// Increments performed.
    pub increments: u64,
    /// Checks performed.
    pub checks: u64,
    /// Checks that suspended.
    pub suspensions: u64,
    /// Condition-variable broadcasts.
    pub notifies: u64,
    /// Increments that stayed on the lock-free path.
    pub fast_increments: u64,
    /// Checks satisfied by one atomic load.
    pub fast_checks: u64,
    /// Operations that took the slow-path lock.
    pub slow_path_entries: u64,
    /// Highest number of simultaneously live wait nodes.
    pub max_live_nodes: u64,
}

impl CounterTotals {
    /// Adds what a counter gained between two snapshots.
    pub fn add_delta(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.increments += after.increments - before.increments;
        self.checks += after.checks - before.checks;
        self.suspensions += after.suspensions - before.suspensions;
        self.notifies += after.notifies - before.notifies;
        self.fast_increments += after.fast_increments - before.fast_increments;
        self.fast_checks += after.fast_checks - before.fast_checks;
        self.slow_path_entries += after.slow_path_entries - before.slow_path_entries;
        self.max_live_nodes = self.max_live_nodes.max(after.max_live_nodes);
    }

    /// Adds a fresh counter's whole history.
    pub fn add(&mut self, stats: &StatsSnapshot) {
        self.add_delta(&StatsSnapshot::default(), stats);
    }

    /// The `counter.*` count metrics per completed operation.
    pub fn layer_metrics(&self, ops: u64, out: &mut Layers) {
        use crate::stats::ratio;
        let ops = ops as f64;
        out.insert(
            "counter.suspensions_per_op",
            ratio(self.suspensions as f64, ops),
        );
        out.insert(
            "counter.slow_path_entries_per_op",
            ratio(self.slow_path_entries as f64, ops),
        );
        out.insert(
            "counter.notifies_per_suspension",
            ratio(self.notifies as f64, self.suspensions as f64),
        );
        out.insert(
            "counter.fast_increment_frac",
            ratio(self.fast_increments as f64, self.increments as f64),
        );
        out.insert(
            "counter.fast_check_frac",
            ratio(self.fast_checks as f64, self.checks as f64),
        );
        out.insert("counter.max_live_nodes", self.max_live_nodes as f64);
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up repetition's duration in seconds.
    pub setup_s: Vec<f64>,
    /// The timed phase.
    pub timed: Timed,
    /// The p99 of the latency samples of all untraced windows together, for
    /// a workload whose windows are too short for a p99 each.
    pub pooled_p99_ns: Option<f64>,
    /// Per-layer metrics (traced run).
    pub layers: Layers,
    /// Recorded spans (traced run).
    pub spans: Vec<crate::trace::Span>,
    /// Failures found by checks after the timed phase.
    pub post_failures: Vec<String>,
}

/// The duration of each span named `name`, in units of `unit_ns` ns.
pub fn durations(spans: &[crate::trace::Span], name: &str, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / unit_ns)
        .collect()
}

/// Median of `values`, or 0 when empty (a layer the run never reached).
pub fn median_or_zero(values: &[f64]) -> f64 {
    crate::stats::median(values).unwrap_or(0.0)
}

/// The p99 of `values` under the percentile rule, or 0 when there are too
/// few samples.
pub fn p99_or_zero(values: Vec<f64>) -> f64 {
    crate::stats::tail_percentile(&crate::stats::sorted(values), 0.99).unwrap_or(0.0)
}
