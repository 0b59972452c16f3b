//! **E7** — Implementation ablation (paper Sections 7 and 8 discussion).
//!
//! The paper implements counters as one lock plus an ordered list of condvar
//! nodes and argues wakeup work should scale with satisfied *levels*, not
//! waiting *threads*. This experiment compares five interchangeable
//! implementations on the same workloads:
//!
//! * `waitlist` — the paper's sorted linked list (reference);
//! * `btree` — same algorithm, `BTreeMap` lookup;
//! * `naive-broadcast` — one condvar, wake **everyone** on every increment;
//! * `monitor` — one predicate monitor (Section 8's comparison);
//! * `spin` — no suspension queue at all.
//!
//! Usage: `cargo run --release -p mc-bench --bin e7_table [--quick] [--json]`

use mc_algos::floyd_warshall as fw;
use mc_algos::graph::dense_graph;
use mc_bench::{fmt_duration, measure, Report, Table};
use mc_counter::{
    BTreeCounter, Counter, CounterDiagnostics, MonitorCounter, MonotonicCounter, NaiveCounter,
    SpinCounter,
};
use std::sync::Arc;

/// Workload A: `threads` waiters on distinct levels, released by unit
/// increments; measures wakeups under many suspension queues.
fn staircase<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(
    threads: usize,
) -> (std::time::Duration, u64) {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for i in 0..threads {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(i as u64 + 1)));
    }
    while c.stats().live_waiters < threads as u64 {
        std::thread::yield_now();
    }
    let t0 = std::time::Instant::now();
    for _ in 0..threads {
        c.increment(1);
    }
    for h in handles {
        h.join().expect("waiter panicked");
    }
    (t0.elapsed(), c.stats().notifies)
}

/// Workload B: uncontended producer/consumer-style op mix on one thread.
fn uncontended_ops<C: MonotonicCounter + Default>(ops: usize) -> std::time::Duration {
    let c = C::default();
    let t0 = std::time::Instant::now();
    for i in 0..ops as u64 {
        c.increment(1);
        c.check(i / 2); // always satisfied: fast path
    }
    t0.elapsed()
}

fn bench_impl<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(
    name: &str,
    table: &mut Table,
    quick: bool,
    edge: &mc_algos::SquareMatrix,
) {
    let threads = if quick { 16 } else { 64 };
    let ops = if quick { 50_000 } else { 200_000 };
    let runs = if quick { 2 } else { 3 };

    let (stair_t, notifies) = staircase::<C>(threads);
    let t_ops = measure(runs, || {
        std::hint::black_box(uncontended_ops::<C>(ops));
    });
    let t_fw = measure(runs, || {
        std::hint::black_box(fw::with_counter_impl::<C>(edge, 4));
    });
    table.row(vec![
        name.to_string(),
        fmt_duration(stair_t),
        notifies.to_string(),
        format!(
            "{:.0} ops/ms",
            ops as f64 / t_ops.median.as_secs_f64() / 1e3
        ),
        fmt_duration(t_fw.median),
    ]);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let n = if quick { 64 } else { 128 };
    let edge = dense_graph(n, 100, 42);

    let mut table = Table::new(
        "E7: counter implementation ablation",
        &[
            "impl",
            "staircase release",
            "broadcasts",
            "uncontended inc+check",
            "floyd-warshall",
        ],
    );
    bench_impl::<Counter>("waitlist (paper §7)", &mut table, quick, &edge);
    bench_impl::<BTreeCounter>("btree", &mut table, quick, &edge);
    bench_impl::<NaiveCounter>("naive-broadcast", &mut table, quick, &edge);
    bench_impl::<MonitorCounter>("monitor", &mut table, quick, &edge);
    bench_impl::<SpinCounter>("spin", &mut table, quick, &edge);
    let mut report = Report::new("e7", &args);
    report.table(table);
    report.note(
        "Shape check: the waitlist/btree variants issue one broadcast per satisfied\n\
         level; naive-broadcast issues one per increment and wakes every waiter each\n\
         time (its broadcast count ~= increments). The packed-word variants\n\
         (waitlist/btree) tie on the uncontended column — both are the same WaitCore\n\
         with the same fast path; see e8_table for the fast-vs-mutex-only ablation.",
    );
    report.finish();
}
