//! `fw`: Floyd–Warshall with one counter (the paper's Section 4.5 program).
//!
//! One operation is one all-pairs solve of a dense seeded graph with
//! [`floyd_warshall::with_counter`] on two threads, checked against
//! [`floyd_warshall::sequential`]. Compute dominates: each solve makes about
//! `2N` checks and `N` increments, so this is the workload on which a
//! counter-layer change should show no change.

use crate::affinity::pin_slot;
use crate::run::{
    derive, durations, median_or_zero, timed_phase, timed_setups, Config, CounterTotals, Layers,
    Outcome, Window, SPAN_CAP,
};
use crate::stats::{sorted, tail_percentile};
use crate::trace::{now_ns, Span, Tracer};
use mc_algos::floyd_warshall;
use mc_algos::graph::dense_graph;
use mc_algos::SquareMatrix;
use mc_counter::{
    CheckError, Counter, CounterDiagnostics, CounterOverflowError, FailureInfo, MonotonicCounter,
    StatsSnapshot, Value,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Duration;

/// Vertices per graph. At 128, on a 2-CPU virtual machine, cross-CPU
/// wake-ups rather than compute set a solve's time whenever waking an idle
/// CPU was slow: half of each worker's time then went to waiting and to
/// spawning and joining the workers, and two sets of runs of one build
/// differed by 36% in throughput. At 256 a solve does eight times the
/// compute for twice the waits.
pub const N: usize = 256;
/// Worker threads per solve.
pub const THREADS: usize = 2;
/// Distinct seeded graphs, solved in turn.
pub const GRAPHS: usize = 8;
/// Solves per window (about two seconds). Too few for a p99 per window;
/// the p99 comes from the solve times of all untraced windows together.
pub const SOLVES_PER_WINDOW: u64 = 128;
/// Solves per traced window. A traced solve records about `3N` spans, so
/// this keeps a good number of windows under the span cap.
pub const SOLVES_PER_TRACED_WINDOW: u64 = 16;
/// Largest edge weight.
const MAX_WEIGHT: i64 = 1000;

struct Inputs {
    graphs: Vec<SquareMatrix>,
    answers: Vec<SquareMatrix>,
}

fn setup(seed: u64) -> Inputs {
    let graphs: Vec<SquareMatrix> = (0..GRAPHS as u64)
        .map(|g| dense_graph(N, MAX_WEIGHT, derive(seed, g)))
        .collect();
    let answers = graphs.iter().map(floyd_warshall::sequential).collect();
    Inputs { graphs, answers }
}

/// One counter call recorded inside a traced solve.
#[derive(Debug, Clone, Copy)]
struct Call {
    name: &'static str,
    thread: ThreadId,
    start: u64,
    end: u64,
}

/// What one traced solve's counter saw.
#[derive(Debug)]
struct SolveTrace {
    calls: Vec<Call>,
    stats: StatsSnapshot,
}

/// Traced solves hand their counter's record here when the counter drops.
static SOLVES: Mutex<Vec<SolveTrace>> = Mutex::new(Vec::new());

/// The CPUs solver threads are pinned to, in order of their first call.
static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
/// Whether solves record their counter calls (the traced half of a run).
static TRACING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this solver thread has been pinned yet.
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// The counter the solves run with. [`floyd_warshall::with_counter_impl`]
/// builds it with `Default`; it forwards every call to an ordinary
/// [`Counter`], as [`floyd_warshall::with_counter`] would use.
///
/// On a worker's first call it pins that worker to its own CPU (the solver
/// spawns its threads itself, so this is the first point the benchmark
/// sees them): left to the scheduler, both workers sometimes share a CPU
/// for a whole solve, doubling it, and the share of such solves decides
/// the tail. While [`TRACING`] is set it also times each `check` and
/// `increment`, and hands the record over when dropped.
#[derive(Default)]
pub struct FwCounter {
    inner: Counter,
    workers: AtomicUsize,
    calls: Mutex<Vec<Call>>,
}

impl FwCounter {
    #[inline]
    fn enter(&self) {
        PINNED.with(|pinned| {
            if !pinned.get() {
                pinned.set(true);
                let slot = self.workers.fetch_add(1, Ordering::Relaxed);
                pin_slot(CPUS.get().map_or(&[][..], Vec::as_slice), slot);
            }
        });
    }

    fn log(&self, name: &'static str, start: u64) {
        let call = Call {
            name,
            thread: std::thread::current().id(),
            start,
            end: now_ns(),
        };
        self.calls
            .lock()
            .expect("call log is only pushed to")
            .push(call);
    }
}

impl MonotonicCounter for FwCounter {
    fn increment(&self, amount: Value) {
        self.enter();
        if !TRACING.load(Ordering::Relaxed) {
            return self.inner.increment(amount);
        }
        let start = now_ns();
        self.inner.increment(amount);
        self.log("counter.increment", start);
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.inner.try_increment(amount)
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        self.enter();
        if !TRACING.load(Ordering::Relaxed) {
            return self.inner.wait(level);
        }
        let start = now_ns();
        let result = self.inner.wait(level);
        self.log("counter.check", start);
        result
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        self.inner.wait_timeout(level, timeout)
    }

    fn poison(&self, info: FailureInfo) {
        self.inner.poison(info);
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.inner.poison_info()
    }

    fn advance_to(&self, target: Value) {
        self.inner.advance_to(target);
    }
}

impl Drop for FwCounter {
    fn drop(&mut self) {
        if !TRACING.load(Ordering::Relaxed) {
            return;
        }
        let calls = std::mem::take(self.calls.get_mut().unwrap_or_else(|p| p.into_inner()));
        let trace = SolveTrace {
            calls,
            stats: self.inner.stats(),
        };
        if let Ok(mut solves) = SOLVES.lock() {
            solves.push(trace);
        }
    }
}

/// Per-solve breakdown: blocked time in `check`, the spawn/join share and
/// the longest worker's span.
#[derive(Debug, Default)]
struct Breakdown {
    solve_ns: u64,
    wait_ns: u64,
    /// `Σ_t (solve − span_t)` over the worker threads.
    idle_ns: u64,
    /// `solve − max_t span_t`.
    spawn_join_ns: u64,
}

/// Turns one traced solve into spans under `solve_idx` and its breakdown. A
/// worker's span runs from its first counter call to its last.
fn absorb(tr: &mut Tracer, op: u64, solve: Span, solve_idx: u32, trace: SolveTrace) -> Breakdown {
    let mut threads: HashMap<ThreadId, (u32, u64, u64)> = HashMap::new();
    let mut wait_ns = 0;
    for c in &trace.calls {
        let next = threads.len() as u32 + 1;
        let t = threads.entry(c.thread).or_insert((next, c.start, c.end));
        t.1 = t.1.min(c.start);
        t.2 = t.2.max(c.end);
        if c.name == "counter.check" {
            wait_ns += c.end - c.start;
        }
        tr.record(Span {
            name: c.name,
            op,
            start: c.start,
            end: c.end,
            parent: solve_idx,
            thread: t.0,
        });
    }
    let solve_ns = solve.duration();
    let spans: Vec<u64> = threads.values().map(|t| t.2 - t.1).collect();
    let longest = spans.iter().copied().max().unwrap_or(0);
    Breakdown {
        solve_ns,
        wait_ns,
        idle_ns: spans.iter().map(|s| solve_ns.saturating_sub(*s)).sum(),
        spawn_join_ns: solve_ns.saturating_sub(longest),
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (inputs, setup_s) = timed_setups(|_| Ok(setup(cfg.seed)))?;
    CPUS.get_or_init(|| cfg.cpus.clone());
    let mut tr = Tracer::new(cfg.trace, 0, SPAN_CAP);
    let mut totals = CounterTotals::default();
    let mut breakdowns = Vec::new();
    let mut solve_ns = Vec::new();
    let mut op = 0u64;
    let timed = timed_phase(cfg, |traced, failures| {
        let mut w = Window::default();
        let solves = if traced {
            SOLVES_PER_TRACED_WINDOW
        } else {
            SOLVES_PER_WINDOW
        };
        let mut lat = Vec::with_capacity(solves as usize);
        let (mark, kept_solves) = (tr.spans().len(), breakdowns.len());
        let mut window_stats = Vec::new();
        let first = now_ns();
        for _ in 0..solves {
            let g = (op % GRAPHS as u64) as usize;
            let start = now_ns();
            TRACING.store(traced, Ordering::Relaxed);
            let out = floyd_warshall::with_counter_impl::<FwCounter>(&inputs.graphs[g], THREADS);
            let end = now_ns();
            lat.push((end - start) as f64);
            if traced {
                let solve = Span {
                    name: "fw.solve",
                    op,
                    start,
                    end,
                    parent: crate::trace::NO_PARENT,
                    thread: 0,
                };
                let trace = SOLVES
                    .lock()
                    .expect("solve log is only pushed to")
                    .pop()
                    .expect("a traced solve leaves its record");
                window_stats.push(trace.stats);
                if let Some(idx) = tr.record(solve) {
                    breakdowns.push(absorb(&mut tr, op, solve, idx, trace));
                }
            }
            w.ops += 1;
            if out != inputs.answers[g] {
                w.failed += 1;
                failures.push(format!(
                    "fw: solve {op} (graph {g}) differs from sequential"
                ));
            }
            op += 1;
        }
        w.elapsed_ns = now_ns() - first;
        if !traced {
            solve_ns.extend_from_slice(&lat);
        }
        w.set_latency(lat);
        if traced {
            w.spans_dropped = tr.dropped();
            if w.spans_dropped {
                tr.truncate(mark);
                breakdowns.truncate(kept_solves);
            } else {
                window_stats.iter().for_each(|st| totals.add(st));
            }
        }
        w
    });

    let mut layers = Layers::new();
    if cfg.trace {
        let spans = tr.spans();
        let (ops, _) = timed.traced_totals();
        totals.layer_metrics(ops, &mut layers);
        layers.insert(
            "counter.check_wait_us_p50",
            median_or_zero(&durations(spans, "counter.check", 1e3)),
        );
        layers.insert(
            "counter.increment_ns_p50",
            median_or_zero(&durations(spans, "counter.increment", 1.0)),
        );
        let sum = |f: fn(&Breakdown) -> u64| breakdowns.iter().map(f).sum::<u64>() as f64;
        let budget = THREADS as f64 * sum(|b| b.solve_ns);
        let wait_share = crate::stats::ratio(sum(|b| b.wait_ns), budget);
        let idle_share = crate::stats::ratio(sum(|b| b.idle_ns), budget);
        let spawn_join: Vec<f64> = breakdowns
            .iter()
            .map(|b| b.spawn_join_ns as f64 / 1e3)
            .collect();
        layers.insert("fw.row_wait_share", wait_share);
        layers.insert("fw.spawn_join_us", median_or_zero(&spawn_join));
        layers.insert(
            "fw.compute_share",
            if budget > 0.0 {
                1.0 - wait_share - idle_share
            } else {
                0.0
            },
        );
    }
    Ok(Outcome {
        setup_s,
        timed,
        pooled_p99_ns: tail_percentile(&sorted(solve_ns), 0.99),
        layers,
        spans: tr.into_spans(),
        post_failures: Vec::new(),
    })
}
