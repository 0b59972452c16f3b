//! Fast-path protocol tests, run against every packed-word implementation.
//!
//! The properties under test are the ones the packed-word design must
//! guarantee (see the `fastpath` module docs in `mc-counter`):
//!
//! 1. **No lost wakeup at the boundary**: a `check(level)` racing an
//!    `increment` that satisfies exactly `level` always terminates.
//! 2. **The waiters bit never sticks**: after all waiters drain, increments
//!    return to the fast path (observable as `fast_increments` growing).
//! 3. **Waiter-free workloads never lock**: `slow_path_entries == 0`.
//! 4. **Stats are consistent across tiers**: fast hits are included in the
//!    operation totals, never double-counted.
//! 5. **Saturated regime stays exact**: above the 63-bit hint cap, values and
//!    checks keep exact `u64` semantics.

use mc_counter::{BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, ShardedCounter};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Mirrors `fastpath::FAST_CAP` (private): the packed hint saturates here.
const FAST_CAP: u64 = (1 << 63) - 1;

fn boundary_race<C: MonotonicCounter + Default + 'static>(amounts: Vec<u64>) {
    // One thread performs the increments; one checker waits for exactly the
    // final total — the boundary where a missed wakeup would deadlock. The
    // 5s timeout converts a protocol bug into a test failure, not a hang.
    let c = Arc::new(C::default());
    let total: u64 = amounts.iter().sum();
    std::thread::scope(|s| {
        let waiter = {
            let c = Arc::clone(&c);
            s.spawn(move || c.check_timeout(total, Duration::from_secs(5)))
        };
        let c2 = Arc::clone(&c);
        s.spawn(move || {
            for a in amounts {
                c2.increment(a);
            }
        });
        assert_eq!(
            waiter.join().unwrap(),
            Ok(()),
            "checker missed the wakeup at the exact boundary"
        );
    });
}

fn bit_never_sticks<C: MonotonicCounter + CounterDiagnostics + Default + 'static>() {
    let c = Arc::new(C::default());
    for round in 1..=10u64 {
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.check(round * 10));
        while c.stats().live_waiters == 0 {
            std::thread::yield_now();
        }
        c.increment(10);
        h.join().unwrap();
        // The waiter has drained; the next increment must be a fast one.
        let before = c.stats().fast_increments;
        c.advance_to(round * 10); // no-op, must not disturb anything
        c.increment(0);
        assert_eq!(
            c.stats().fast_increments,
            before + 1,
            "waiters bit stuck after round {round}"
        );
        // Re-align the value for the next round (the increment(0) added 0).
    }
}

fn waiter_free_is_lock_free<C: MonotonicCounter + CounterDiagnostics + Default>() {
    let c = C::default();
    for i in 0..1000u64 {
        c.increment(1);
        c.check(i / 2);
        if i % 100 == 0 {
            c.advance_to(i);
        }
    }
    let s = c.stats();
    assert_eq!(s.slow_path_entries, 0, "locked without any waiter: {s}");
    assert_eq!(s.fast_checks, s.checks);
    assert_eq!(s.fast_increments, s.increments);
}

fn stats_tiers_are_consistent<C: MonotonicCounter + CounterDiagnostics + Default + 'static>() {
    let c = Arc::new(C::default());
    // Mix fast ops with a genuine suspension.
    c.increment(1);
    c.check(1);
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check(5));
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    c.increment(4);
    h.join().unwrap();
    let s = c.stats();
    assert!(s.fast_checks <= s.immediate_checks, "{s}");
    assert!(s.immediate_checks <= s.checks, "{s}");
    assert!(s.fast_increments <= s.increments, "{s}");
    assert_eq!(s.checks, 2, "{s}");
    assert_eq!(s.suspensions, 1, "{s}");
    assert!(s.slow_path_entries >= 2, "waiter + sweeping increment: {s}");
}

fn saturated_regime_is_exact<C: MonotonicCounter + CounterDiagnostics + Default + 'static>(
    with_value: impl Fn(u64) -> C,
) {
    let c = with_value(FAST_CAP - 1);
    assert_eq!(c.debug_value(), FAST_CAP - 1);
    c.increment(2); // crosses the cap
    assert_eq!(c.debug_value(), FAST_CAP + 1);
    c.check(FAST_CAP + 1); // satisfied in the saturated regime
                           // A waiter above the current value still wakes exactly at its level.
    let c = Arc::new(with_value(u64::MAX - 3));
    let c2 = Arc::clone(&c);
    let h = std::thread::spawn(move || c2.check(u64::MAX));
    while c.stats().live_waiters == 0 {
        std::thread::yield_now();
    }
    c.increment(2);
    std::thread::sleep(Duration::from_millis(20));
    assert!(!h.is_finished(), "woke below u64::MAX");
    c.increment(1);
    h.join().unwrap();
    assert_eq!(c.debug_value(), u64::MAX);
    assert!(c.try_increment(1).is_err(), "overflow must still be exact");
}

macro_rules! fastpath_battery {
    ($module:ident, $ty:ty) => {
        mod $module {
            use super::*;

            #[test]
            fn bit_never_sticks() {
                super::bit_never_sticks::<$ty>();
            }
            #[test]
            fn waiter_free_is_lock_free() {
                super::waiter_free_is_lock_free::<$ty>();
            }
            #[test]
            fn stats_tiers_are_consistent() {
                super::stats_tiers_are_consistent::<$ty>();
            }
            #[test]
            fn saturated_regime_is_exact() {
                super::saturated_regime_is_exact(|v| <$ty>::builder().initial(v).build());
            }

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(32))]

                #[test]
                fn no_lost_wakeup_at_boundary(
                    amounts in proptest::collection::vec(0u64..100, 1..20),
                ) {
                    super::boundary_race::<$ty>(amounts);
                }
            }
        }
    };
}

fastpath_battery!(waitlist, Counter);
fastpath_battery!(btree, BTreeCounter);
fastpath_battery!(sharded, ShardedCounter);

/// The ablation counter must do the same work entirely under the mutex.
#[test]
fn mutex_only_ablation_reports_zero_fast_hits() {
    let c = Counter::mutex_only();
    c.increment(3);
    c.check(2);
    let s = c.stats();
    assert_eq!(s.fast_increments, 0);
    assert_eq!(s.fast_checks, 0);
    assert_eq!(s.slow_path_entries, 2);
}
