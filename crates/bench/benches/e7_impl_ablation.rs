//! Criterion counterpart of experiment **E7**: the queue-structured and
//! naive counter implementations on the staircase-release and
//! uncontended-ops workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_counter::{BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter};
use std::sync::Arc;
use std::time::Duration;

fn staircase<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(threads: usize) {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for i in 0..threads {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(i as u64 + 1)));
    }
    while c.stats().live_waiters < threads as u64 {
        std::thread::yield_now();
    }
    for _ in 0..threads {
        c.increment(1);
    }
    for h in handles {
        h.join().expect("waiter panicked");
    }
}

fn uncontended<C: MonotonicCounter + Default>(ops: usize) {
    let c = C::default();
    for i in 0..ops as u64 {
        c.increment(1);
        c.check(i / 2);
    }
}

fn bench_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_impl_ablation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    macro_rules! bench_one {
        ($ty:ty, $name:expr) => {
            group.bench_function(BenchmarkId::new("staircase16", $name), |b| {
                b.iter(|| staircase::<$ty>(16))
            });
            group.bench_function(BenchmarkId::new("uncontended10k", $name), |b| {
                b.iter(|| uncontended::<$ty>(10_000))
            });
        };
    }
    bench_one!(Counter, "waitlist");
    bench_one!(BTreeCounter, "btree");
    bench_one!(NaiveCounter, "naive");
    group.finish();
}

criterion_group!(benches, bench_impls);
criterion_main!(benches);
