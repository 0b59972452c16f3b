//! Conformance battery: every `MonotonicCounter` implementation must pass
//! the identical suite of semantic tests. A macro instantiates the battery
//! per implementation so a failure names the offender.

use mc_counter::{
    BTreeCounter, CheckError, Counter, CounterDiagnostics, FailureInfo, MeteredCounter,
    MonitorCounter, MonotonicCounter, NaiveCounter, Resettable, ShardedCounter, SpinCounter,
    TracingCounter,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHORT: Duration = Duration::from_millis(40);

/// The full surface a conforming implementation must provide: the
/// synchronization core, the diagnostics used by the battery's assertions,
/// phase reuse, and uniform construction.
trait Conformant: MonotonicCounter + CounterDiagnostics + Resettable + Default {}
impl<C: MonotonicCounter + CounterDiagnostics + Resettable + Default> Conformant for C {}

fn starts_at_zero<C: Conformant>() {
    let c = C::default();
    assert_eq!(c.debug_value(), 0);
    c.check(0); // never suspends
}

fn increment_accumulates<C: Conformant>() {
    let c = C::default();
    c.increment(2);
    c.increment(0);
    c.increment(5);
    assert_eq!(c.debug_value(), 7);
}

fn check_blocks_until_level<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check(3));
    c.increment(2);
    std::thread::sleep(SHORT);
    assert!(!h.is_finished(), "woke below level");
    c.increment(1);
    h.join().unwrap();
}

fn one_increment_many_levels<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for level in [1u64, 2, 3, 4] {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(level)));
    }
    while c.stats().live_waiters < 4 {
        std::thread::yield_now();
    }
    c.increment(4);
    for h in handles {
        h.join().unwrap();
    }
}

fn timeout_err_then_success<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    assert!(c.check_timeout(1, SHORT).is_err());
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check_timeout(1, Duration::from_secs(10)));
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    c.increment(1);
    assert!(h.join().unwrap().is_ok());
}

fn try_increment_overflow<C: Conformant>() {
    let c = C::default();
    c.increment(u64::MAX);
    let err = c.try_increment(1).unwrap_err();
    assert_eq!(err.value, u64::MAX);
    assert_eq!(c.debug_value(), u64::MAX);
}

fn advance_to_is_monotonic_max<C: Conformant>() {
    let c = C::default();
    c.advance_to(5);
    assert_eq!(c.debug_value(), 5);
    c.advance_to(3); // lower: no-op
    assert_eq!(c.debug_value(), 5);
    c.advance_to(5); // equal: no-op
    assert_eq!(c.debug_value(), 5);
    c.advance_to(9);
    assert_eq!(c.debug_value(), 9);
    c.check(9);
}

fn advance_to_wakes_waiters<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for level in [2u64, 7] {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(level)));
    }
    while c.stats().live_waiters < 2 {
        std::thread::yield_now();
    }
    c.advance_to(7);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.debug_value(), 7);
}

fn concurrent_advance_to_takes_max<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    std::thread::scope(|s| {
        for target in [3u64, 9, 5, 9, 1] {
            let c = Arc::clone(&c);
            s.spawn(move || c.advance_to(target));
        }
    });
    assert_eq!(
        c.debug_value(),
        9,
        "concurrent advances must resolve to the max"
    );
}

fn reset_restores_zero<C: Conformant>() {
    let mut c = C::default();
    c.increment(4);
    c.reset();
    assert_eq!(c.debug_value(), 0);
    c.increment(1);
    c.check(1);
}

fn same_level_waiters_all_wake<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for _ in 0..6 {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.check(2)));
    }
    while c.stats().live_waiters < 6 {
        std::thread::yield_now();
    }
    c.increment(2);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.stats().live_waiters, 0);
}

fn impl_name_is_stable<C: Conformant>() {
    let c = C::default();
    assert!(!c.impl_name().is_empty());
    assert_eq!(c.impl_name(), C::default().impl_name());
}

fn poison_wakes_blocked_waiters<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for level in [5u64, 5, 9] {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.wait(level)));
    }
    while c.stats().live_waiters < 3 {
        std::thread::yield_now();
    }
    c.poison(FailureInfo::new("producer failed"));
    for h in handles {
        match h.join().unwrap() {
            Err(CheckError::Poisoned(info)) => {
                assert_eq!(info.message(), "producer failed");
            }
            other => panic!("expected Poisoned, got {other:?}"),
        }
    }
    // Future blocked waits fail immediately with the same cause.
    assert!(matches!(c.wait(100), Err(CheckError::Poisoned(_))));
    assert_eq!(c.poison_info().unwrap().message(), "producer failed");
}

fn check_panics_with_the_poison_cause<C: Conformant + 'static>() {
    let c = C::default();
    c.poison(FailureInfo::new("root cause here"));
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.check(1)))
        .expect_err("check on a poisoned counter must panic");
    let msg = payload
        .downcast_ref::<String>()
        .expect("poison panic carries a String message");
    assert!(
        msg.contains("monotonic counter poisoned") && msg.contains("root cause here"),
        "got: {msg}"
    );
}

fn satisfied_levels_survive_poison<C: Conformant>() {
    let c = C::default();
    c.increment(3);
    c.poison(FailureInfo::new("late failure"));
    assert!(c.wait(3).is_ok(), "satisfied waits owe the failure nothing");
    c.check(2); // must not panic
    assert!(c.check_timeout(3, SHORT).is_ok());
    // Increments still apply after poison, satisfying new levels.
    c.increment(2);
    assert!(c.wait(5).is_ok());
    assert_eq!(c.debug_value(), 5);
}

fn first_poison_wins<C: Conformant>() {
    let c = C::default();
    c.poison(FailureInfo::new("first"));
    c.poison(FailureInfo::new("second"));
    assert_eq!(c.poison_info().unwrap().message(), "first");
}

fn check_timeout_waits_at_least_the_timeout<C: Conformant>() {
    let c = C::default();
    let t0 = Instant::now();
    let err = c.check_timeout(1, SHORT).unwrap_err();
    let elapsed = t0.elapsed();
    assert_eq!(err.level, 1);
    assert!(
        elapsed >= SHORT,
        "returned after {elapsed:?}, before the {SHORT:?} timeout"
    );
    // Liveness: a loose upper bound that survives CI scheduling noise but
    // catches a wait that effectively never wakes.
    assert!(elapsed < SHORT * 100, "timed wait overshot: {elapsed:?}");
}

fn timed_wait_with_poison_bit_set_stays_live<C: Conformant>() {
    let c = C::default();
    c.increment(2);
    c.poison(FailureInfo::new("poisoned early"));
    // Satisfied level: must succeed promptly even though the poison flag is
    // set (the satisfied fast tier ignores it).
    let t0 = Instant::now();
    assert!(c.wait_timeout(2, Duration::from_secs(10)).is_ok());
    // Unsatisfied level: must report Poisoned (not Timeout), promptly.
    match c.wait_timeout(3, Duration::from_secs(10)) {
        Err(CheckError::Poisoned(info)) => assert_eq!(info.message(), "poisoned early"),
        other => panic!("expected Poisoned, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "poison-aware timed waits must not consume their timeouts"
    );
}

/// Deadline-drift pin: a timed wait hit by a storm of sub-level increments
/// (each one a spurious-style wakeup for the waiter — single-queue
/// implementations broadcast on every increment) must still time out close
/// to its deadline. An implementation that re-passes the *full* duration to
/// its condvar on each wakeup instead of recomputing `deadline - now` from
/// the saved `Instant` drifts by one full timeout per wakeup and blows far
/// past the upper bound.
fn timed_wait_does_not_drift_under_wakeup_storm<C: Conformant + 'static>() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let c = Arc::new(C::default());
    let timeout = Duration::from_millis(80);
    // The storm outlives the correct deadline by several multiples, so a
    // drifting implementation (deadline pushed back on every wakeup) cannot
    // time out before the bound below.
    let storm_for = timeout * 5;
    let stop = Arc::new(AtomicBool::new(false));
    let stormer = {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            while t0.elapsed() < storm_for && !stop.load(Ordering::Relaxed) {
                c.increment(1); // never reaches the waited level
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let t0 = Instant::now();
    let err = c.wait_timeout(u64::MAX / 2, timeout).unwrap_err();
    let elapsed = t0.elapsed();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    stormer.join().unwrap();
    assert!(matches!(err, CheckError::Timeout(_)));
    assert!(
        elapsed >= timeout,
        "timed out early under storm: {elapsed:?}"
    );
    assert!(
        elapsed < storm_for - timeout,
        "deadline drifted under wakeup storm: waited {elapsed:?} for a {timeout:?} timeout"
    );
}

fn poison_reclaims_waiter_nodes<C: Conformant + 'static>() {
    let c = Arc::new(C::default());
    let mut handles = Vec::new();
    for level in [4u64, 4, 6, 8] {
        let c = Arc::clone(&c);
        handles.push(std::thread::spawn(move || c.wait(level)));
    }
    while c.stats().live_waiters < 4 {
        std::thread::yield_now();
    }
    c.poison(FailureInfo::new("sweep"));
    for h in handles {
        assert!(h.join().unwrap().is_err());
    }
    let stats = c.stats();
    assert_eq!(stats.live_waiters, 0, "no waiter survives the sweep");
    assert_eq!(
        stats.nodes_created, stats.nodes_freed,
        "poisoning must not leak waiter nodes"
    );
}

macro_rules! conformance {
    ($module:ident, $ty:ty) => {
        mod $module {
            use super::*;

            #[test]
            fn starts_at_zero() {
                super::starts_at_zero::<$ty>();
            }
            #[test]
            fn increment_accumulates() {
                super::increment_accumulates::<$ty>();
            }
            #[test]
            fn check_blocks_until_level() {
                super::check_blocks_until_level::<$ty>();
            }
            #[test]
            fn one_increment_many_levels() {
                super::one_increment_many_levels::<$ty>();
            }
            #[test]
            fn timeout_err_then_success() {
                super::timeout_err_then_success::<$ty>();
            }
            #[test]
            fn try_increment_overflow() {
                super::try_increment_overflow::<$ty>();
            }
            #[test]
            fn advance_to_is_monotonic_max() {
                super::advance_to_is_monotonic_max::<$ty>();
            }
            #[test]
            fn advance_to_wakes_waiters() {
                super::advance_to_wakes_waiters::<$ty>();
            }
            #[test]
            fn concurrent_advance_to_takes_max() {
                super::concurrent_advance_to_takes_max::<$ty>();
            }
            #[test]
            fn reset_restores_zero() {
                super::reset_restores_zero::<$ty>();
            }
            #[test]
            fn same_level_waiters_all_wake() {
                super::same_level_waiters_all_wake::<$ty>();
            }
            #[test]
            fn impl_name_is_stable() {
                super::impl_name_is_stable::<$ty>();
            }
            #[test]
            fn poison_wakes_blocked_waiters() {
                super::poison_wakes_blocked_waiters::<$ty>();
            }
            #[test]
            fn check_panics_with_the_poison_cause() {
                super::check_panics_with_the_poison_cause::<$ty>();
            }
            #[test]
            fn satisfied_levels_survive_poison() {
                super::satisfied_levels_survive_poison::<$ty>();
            }
            #[test]
            fn first_poison_wins() {
                super::first_poison_wins::<$ty>();
            }
            #[test]
            fn check_timeout_waits_at_least_the_timeout() {
                super::check_timeout_waits_at_least_the_timeout::<$ty>();
            }
            #[test]
            fn timed_wait_with_poison_bit_set_stays_live() {
                super::timed_wait_with_poison_bit_set_stays_live::<$ty>();
            }
            #[test]
            fn timed_wait_does_not_drift_under_wakeup_storm() {
                super::timed_wait_does_not_drift_under_wakeup_storm::<$ty>();
            }
            #[test]
            fn poison_reclaims_waiter_nodes() {
                super::poison_reclaims_waiter_nodes::<$ty>();
            }
            #[test]
            fn resume_from_restores_value() {
                use mc_counter::ResumableCounter;
                let c = <$ty as ResumableCounter>::resume_from(23);
                assert_eq!(c.debug_value(), 23);
                c.check(23); // recovered value satisfies waiters immediately
                assert!(c.poison_info().is_none());
            }
            #[test]
            fn resumable_surface_conforms() {
                mc_counter::testkit::exercise_resumable::<$ty>();
            }
            #[test]
            fn restart_cycle_conforms() {
                mc_counter::testkit::exercise_restart::<$ty>();
            }
            #[test]
            fn builder_initial_starts_at_value() {
                let c = <$ty>::builder().initial(17).build();
                assert_eq!(c.debug_value(), 17);
                c.check(17); // already satisfied
                c.increment(3);
                assert_eq!(c.debug_value(), 20);
            }
            // Near `u64::MAX` the packed-word hint saturates, so
            // implementations fall back to their slow paths; timeouts must
            // remain precise and satisfied checks live in that regime too.
            #[test]
            fn timeout_liveness_near_saturation() {
                use std::time::{Duration, Instant};
                const SHORT: Duration = Duration::from_millis(30);
                let c = <$ty>::builder().initial(u64::MAX - 5).build();
                // Satisfied: returns promptly regardless of the hint regime.
                assert!(c
                    .check_timeout(u64::MAX - 5, Duration::from_secs(10))
                    .is_ok());
                // Unsatisfied: times out, and waits at least the timeout.
                let t0 = Instant::now();
                assert!(c.check_timeout(u64::MAX - 1, SHORT).is_err());
                assert!(t0.elapsed() >= SHORT, "timed out early near saturation");
                c.increment(4);
                assert!(c
                    .check_timeout(u64::MAX - 1, Duration::from_secs(10))
                    .is_ok());
            }
        }
    };
}

conformance!(waitlist, Counter);
conformance!(btree, BTreeCounter);
conformance!(naive, NaiveCounter);
conformance!(traced, TracingCounter);
conformance!(spin, SpinCounter);
conformance!(monitor, MonitorCounter);
conformance!(sharded, ShardedCounter);
conformance!(metered, MeteredCounter<Counter>);

/// The metered wrapper must forward the complete `MonotonicCounter` surface
/// even with instrumentation ENABLED — a recording path that forgot to call
/// through (or called a different method) would silently change semantics
/// exactly when observability is switched on.
#[test]
fn metered_forwards_everything_with_metrics_enabled() {
    use mc_counter::testkit::{self, RecordingCounter};
    use mc_metrics::Registry;
    let registry = Arc::new(Registry::new());
    let sink = mc_counter::MetricsSink::new(Arc::clone(&registry), "fwd");
    let c = MeteredCounter::wrap(RecordingCounter::default(), Some(&sink));
    testkit::exercise_all(&c);
    testkit::assert_all_forwarded(c.inner());
    // And the instruments really were live during the exercise: waits are
    // counted inline, hot-path counts arrive via publish_stats.
    assert!(registry.event("fwd.waits").get() > 0);
    c.publish_stats();
    assert!(registry.event("fwd.increments").get() > 0);
    assert!(registry.event("fwd.checks").get() > 0);
}
