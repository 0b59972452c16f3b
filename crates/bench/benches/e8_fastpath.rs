//! Criterion counterpart of experiment **E8**: the packed-word fast paths.
//!
//! Measures the two operations the fast path accelerates — uncontended
//! `increment(1)` and an always-satisfied `check(level)` — on the fast-path
//! `Counter` against its own mutex-only ablation (`Counter::mutex_only()`),
//! plus the other packed-word implementations for cross-checking. A third
//! shape keeps one parked waiter resident so increments are forced through
//! the slow path, bounding what the fast path can ever save.

use criterion::{criterion_group, criterion_main, Criterion};
use mc_counter::{BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, SpinCounter};
use std::sync::Arc;
use std::time::Duration;

fn bench_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_increment_uncontended");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    group.bench_function("waitlist_fastpath", |b| {
        let c = Counter::default();
        b.iter(|| c.increment(1));
    });
    group.bench_function("waitlist_mutex_only", |b| {
        let c = Counter::mutex_only();
        b.iter(|| c.increment(1));
    });
    group.bench_function("btree", |b| {
        let c = BTreeCounter::default();
        b.iter(|| c.increment(1));
    });
    group.bench_function("spin", |b| {
        let c = SpinCounter::default();
        b.iter(|| c.increment(1));
    });
    group.finish();
}

fn bench_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_check_satisfied");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    fn satisfied_check<C: MonotonicCounter + Default>() -> impl FnMut() {
        let c = C::default();
        c.increment(u64::MAX / 2);
        let mut level = 0u64;
        move || {
            level = (level + 1) % 1_000_000;
            c.check(level);
        }
    }

    group.bench_function("waitlist_fastpath", |b| {
        let mut op = satisfied_check::<Counter>();
        b.iter(&mut op);
    });
    group.bench_function("waitlist_mutex_only", |b| {
        let c = Counter::mutex_only();
        c.increment(u64::MAX / 2);
        let mut level = 0u64;
        b.iter(|| {
            level = (level + 1) % 1_000_000;
            c.check(level);
        });
    });
    group.bench_function("btree", |b| {
        let mut op = satisfied_check::<BTreeCounter>();
        b.iter(&mut op);
    });
    group.bench_function("spin", |b| {
        let mut op = satisfied_check::<SpinCounter>();
        b.iter(&mut op);
    });
    group.finish();
}

fn bench_slow_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_increment_with_waiter");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // One parked waiter keeps the waiters bit set, so every increment(0)
    // takes the slow path: this is the fast path's worst case and should
    // cost about the same as the mutex-only ablation's increments.
    group.bench_function("waitlist_fastpath", |b| {
        let c = Arc::new(Counter::default());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.check(u64::MAX / 2));
        while c.stats().live_waiters == 0 {
            std::thread::yield_now();
        }
        b.iter(|| c.increment(0));
        c.increment(u64::MAX / 2);
        h.join().expect("waiter panicked");
    });
    group.finish();
}

criterion_group!(benches, bench_increment, bench_check, bench_slow_path);
criterion_main!(benches);
