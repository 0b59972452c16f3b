//! Property-based tests of the counter semantics, checking every
//! implementation against a simple reference model.

use mc_counter::{
    BTreeCounter, Counter, CounterDiagnostics, MonotonicCounter, NaiveCounter, ShardedCounter,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// An operation in a single-threaded semantic script. Checks are always for
/// levels at or below the model value so the script can never suspend.
#[derive(Debug, Clone)]
enum Op {
    Increment(u64),
    CheckSatisfied { below_by: u64 },
    TryIncrement(u64),
    UnsatisfiedCheckTimeout { above_by: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000).prop_map(Op::Increment),
        (0u64..50).prop_map(|below_by| Op::CheckSatisfied { below_by }),
        (0u64..1_000).prop_map(Op::TryIncrement),
        (1u64..50).prop_map(|above_by| Op::UnsatisfiedCheckTimeout { above_by }),
    ]
}

/// Applies the script to a default-built implementation and the model.
fn run_script<C: MonotonicCounter + CounterDiagnostics + Default>(ops: &[Op]) {
    run_script_on(C::default(), ops);
}

/// Applies the script to `c` and the model, asserting agreement after every
/// step.
fn run_script_on<C: MonotonicCounter + CounterDiagnostics>(c: C, ops: &[Op]) {
    let mut model: u64 = 0;
    for op in ops {
        match *op {
            Op::Increment(amount) => {
                c.increment(amount);
                model += amount; // amounts bounded: no overflow
            }
            Op::CheckSatisfied { below_by } => {
                let level = model.saturating_sub(below_by);
                c.check(level); // must not block
            }
            Op::TryIncrement(amount) => {
                c.try_increment(amount)
                    .expect("no overflow in bounded script");
                model += amount;
            }
            Op::UnsatisfiedCheckTimeout { above_by } => {
                let level = model + above_by;
                let err = c
                    .check_timeout(level, Duration::from_millis(1))
                    .expect_err("level above value must time out");
                assert_eq!(err.level, level);
            }
        }
        assert_eq!(c.debug_value(), model, "value diverged from model");
    }
    // After a single-threaded script no waiters or nodes may linger.
    let stats = c.stats();
    assert_eq!(stats.live_waiters, 0);
    assert_eq!(stats.nodes_created, stats.nodes_freed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn waitlist_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<Counter>(&ops);
    }

    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<BTreeCounter>(&ops);
    }

    #[test]
    fn naive_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<NaiveCounter>(&ops);
    }

    #[test]
    fn sharded_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script::<ShardedCounter>(&ops);
    }

    /// The wait core's locked path alone, with the fast path switched off.
    #[test]
    fn mutex_only_matches_model(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        run_script_on(Counter::mutex_only(), &ops);
    }

    /// Concurrent wakeup completeness: for arbitrary waiter levels and a
    /// total increment that covers them all, every waiter resumes and node
    /// storage is exactly the number of distinct levels.
    #[test]
    fn concurrent_waiters_all_wake(
        levels in proptest::collection::vec(1u64..100, 1..12),
        extra in 0u64..50,
    ) {
        let c = Arc::new(Counter::default());
        let max = *levels.iter().max().unwrap();
        let distinct = {
            let mut d = levels.clone();
            d.sort_unstable();
            d.dedup();
            d.len() as u64
        };
        let mut handles = Vec::new();
        for level in &levels {
            let c = Arc::clone(&c);
            let level = *level;
            handles.push(std::thread::spawn(move || c.check(level)));
        }
        while c.stats().live_waiters < levels.len() as u64 {
            std::thread::yield_now();
        }
        prop_assert_eq!(c.stats().live_nodes, distinct);
        c.increment(max + extra);
        for h in handles {
            h.join().expect("waiter panicked");
        }
        prop_assert_eq!(c.stats().live_waiters, 0);
        prop_assert_eq!(c.stats().live_nodes, 0);
        // One broadcast per distinct level, not per thread.
        prop_assert_eq!(c.stats().notifies, distinct);
    }

    /// Monotonicity means a check satisfied once is satisfied forever: any
    /// subsequent increments keep every earlier check immediate.
    #[test]
    fn satisfied_levels_stay_satisfied(
        initial in 0u64..1000,
        later in proptest::collection::vec(0u64..100, 0..10),
    ) {
        let c = Counter::default();
        c.increment(initial);
        c.check(initial);
        for amount in later {
            c.increment(amount);
            c.check(initial); // still immediate, value only grew
        }
        prop_assert_eq!(c.stats().suspensions, 0);
    }

    /// `check_all` over multiple counters terminates whenever each level is
    /// individually satisfied, regardless of order.
    #[test]
    fn check_all_order_independent(
        values in proptest::collection::vec(0u64..50, 1..6),
        perm_seed in 0usize..1000,
    ) {
        use mc_counter::check_all;
        let counters: Vec<Counter> = values.iter().map(|&v| {
            let c = Counter::default();
            c.increment(v);
            c
        }).collect();
        let mut pairs: Vec<(&Counter, u64)> =
            counters.iter().zip(values.iter().copied()).collect();
        // A cheap deterministic permutation.
        let len = pairs.len();
        pairs.rotate_left(perm_seed % len);
        check_all(pairs);
    }
}
