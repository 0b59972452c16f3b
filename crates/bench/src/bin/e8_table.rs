//! **E8** — Zero-contention fast paths (packed-word redesign).
//!
//! The redesigned core counter keeps `(value hint, has-waiters)` packed in
//! one `AtomicU64` so the two operations that dominate real programs stay
//! lock-free: an uncontended `increment` is a single CAS and a satisfied
//! `check` is a single acquire load. This experiment quantifies the claim
//! with an ablation the other tables cannot provide: `Counter::mutex_only()`
//! is the *same* wait-list algorithm with the fast tier disabled, so the
//! speedup column isolates exactly what the packed word buys.
//!
//! Each row also runs a waiter-free workload and reports the counter's own
//! path statistics; the fast-path implementations must finish it with zero
//! slow-path (mutex) entries.
//!
//! Usage: `cargo run --release -p mc-bench --bin e8_table [--quick] [--json]`

use mc_bench::{measure, Report, Table};
use mc_counter::{
    BTreeCounter, Counter, CounterDiagnostics, MeteredCounter, MonitorCounter, MonotonicCounter,
    NaiveCounter, SpinCounter,
};
use mc_metrics::Registry;
use std::sync::Arc;

/// Per-op nanoseconds for `ops` uncontended `increment(1)` calls.
fn time_increment<C: MonotonicCounter>(make: &dyn Fn() -> C, ops: usize, runs: usize) -> f64 {
    let t = measure(runs, || {
        let c = make();
        for _ in 0..ops {
            c.increment(1);
        }
        std::hint::black_box(&c);
    });
    t.median.as_nanos() as f64 / ops as f64
}

/// Per-op nanoseconds for `ops` always-satisfied `check(level)` calls.
fn time_check<C: MonotonicCounter>(make: &dyn Fn() -> C, ops: usize, runs: usize) -> f64 {
    let c = make();
    c.increment(u64::MAX / 2);
    let t = measure(runs, || {
        for i in 0..ops as u64 {
            c.check(i % 1_000_000);
        }
        std::hint::black_box(&c);
    });
    t.median.as_nanos() as f64 / ops as f64
}

/// Runs the waiter-free mixed workload and reports
/// `(fast_increments, fast_checks, slow_path_entries)` out of `ops` each.
fn path_stats<C: MonotonicCounter + CounterDiagnostics>(
    make: &dyn Fn() -> C,
    ops: usize,
) -> (u64, u64, u64) {
    let c = make();
    for i in 0..ops as u64 {
        c.increment(1);
        c.check(i / 2);
    }
    let s = c.stats();
    (s.fast_increments, s.fast_checks, s.slow_path_entries)
}

struct Row {
    inc_ns: f64,
    check_ns: f64,
    slow_entries: u64,
}

#[allow(clippy::too_many_arguments)]
fn bench_impl<C: MonotonicCounter + CounterDiagnostics>(
    name: &str,
    make: &dyn Fn() -> C,
    table: &mut Table,
    quick: bool,
    baseline: Option<&Row>,
) -> Row {
    let ops = if quick { 100_000 } else { 1_000_000 };
    // Quick mode keeps the full run count: the CI perf gate consumes these
    // ratios, and a 3-run median dips below the enforcement floor on noise.
    let runs = 5;

    let inc_ns = time_increment(make, ops, runs);
    let check_ns = time_check(make, ops, runs);
    let (fast_inc, fast_chk, slow) = path_stats(make, ops);

    let speedup = |base_ns: f64, ns: f64| format!("{:.1}x", base_ns / ns);
    table.row(vec![
        name.to_string(),
        format!("{inc_ns:.1}ns"),
        baseline.map_or_else(|| "1.0x".into(), |b| speedup(b.inc_ns, inc_ns)),
        format!("{check_ns:.1}ns"),
        baseline.map_or_else(|| "1.0x".into(), |b| speedup(b.check_ns, check_ns)),
        format!("{fast_inc}/{ops}"),
        format!("{fast_chk}/{ops}"),
        slow.to_string(),
    ]);
    Row {
        inc_ns,
        check_ns,
        slow_entries: slow,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");

    let mut table = Table::new(
        "E8: packed-word fast paths vs mutex-only ablation (waiter-free workload)",
        &[
            "impl",
            "increment",
            "speedup",
            "check",
            "speedup",
            "fast incs",
            "fast checks",
            "slow entries",
        ],
    );

    let base = bench_impl::<Counter>(
        "waitlist mutex-only (ablation)",
        &Counter::mutex_only,
        &mut table,
        quick,
        None,
    );
    let fast = bench_impl::<Counter>(
        "waitlist fast-path",
        &Counter::default,
        &mut table,
        quick,
        Some(&base),
    );
    bench_impl::<BTreeCounter>(
        "btree",
        &BTreeCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    bench_impl::<SpinCounter>(
        "spin",
        &SpinCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    bench_impl::<NaiveCounter>(
        "naive-broadcast",
        &NaiveCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    bench_impl::<MonitorCounter>(
        "monitor",
        &MonitorCounter::default,
        &mut table,
        quick,
        Some(&base),
    );

    // Observability-cost rows: the same waitlist counter behind the
    // MeteredCounter wrapper, first as a pass-through (no registry) and
    // then with a live registry attached. The enabled/fast ratio is the
    // `metered_overhead` metric the CI perf gate budgets at <=1.10x.
    let disabled = bench_impl::<MeteredCounter>(
        "metered (metrics off)",
        &MeteredCounter::default,
        &mut table,
        quick,
        Some(&base),
    );
    let registry = Arc::new(Registry::new());
    let make_metered = {
        let registry = Arc::clone(&registry);
        move || {
            MeteredCounter::<Counter>::builder()
                .metrics(&registry, "e8")
                .build()
        }
    };
    let enabled = bench_impl::<MeteredCounter>(
        "metered (metrics on)",
        &make_metered,
        &mut table,
        quick,
        Some(&base),
    );

    let mut report = Report::new("e8", &args);
    report.table(table);

    let inc_speedup = base.inc_ns / fast.inc_ns;
    let check_speedup = base.check_ns / fast.check_ns;
    let metered_overhead = enabled.inc_ns / fast.inc_ns;
    report.metric("inc_speedup", inc_speedup);
    report.metric("check_speedup", check_speedup);
    report.metric("slow_entries", fast.slow_entries as f64);
    report.metric("fast_inc_ns", fast.inc_ns);
    report.metric("fast_check_ns", fast.check_ns);
    report.metric("metered_disabled_inc_ns", disabled.inc_ns);
    report.metric("metered_enabled_inc_ns", enabled.inc_ns);
    report.metric("metered_overhead", metered_overhead);
    report.note(format!(
        "Shape check: fast-path waitlist vs its own mutex-only ablation: increment \
         {inc_speedup:.1}x, check {check_speedup:.1}x (claim: >=3x each, enforced at \
         >=2.8x to absorb quick-mode noise on a borderline host); slow-path \
         entries on the waiter-free workload: {} (claim: 0). Metered wrapper with a \
         live registry: {metered_overhead:.2}x the bare fast-path increment \
         (budget: <=1.10x, enforced by the CI perf gate).",
        fast.slow_entries
    ));
    report.shape_check(inc_speedup >= 2.8 && check_speedup >= 2.8 && fast.slow_entries == 0);
    report.finish();
}
