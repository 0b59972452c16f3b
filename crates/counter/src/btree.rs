//! [`BTreeCounter`]: the Section 7 algorithm with the ordered waiting list
//! stored in a `BTreeMap` instead of the paper's linked list.
//!
//! Identical semantics to [`crate::Counter`] — both are a [`WaitCore`], and
//! only the queue differs: level lookup on the slow path is O(log L) rather
//! than O(L). Experiments E5 and E7 ablate this choice.

use crate::node::WaitNode;
use crate::waitcore::{LevelQueue, Sealed, WaitCore};
use crate::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A monotonic counter whose per-level suspension queues live in a `BTreeMap`.
///
/// Semantically interchangeable with [`crate::Counter`]; see the crate docs
/// for the implementation comparison table.
pub type BTreeCounter = WaitCore<BTreeMap<Value, Arc<WaitNode>>>;

impl Sealed for BTreeMap<Value, Arc<WaitNode>> {}

impl LevelQueue for BTreeMap<Value, Arc<WaitNode>> {
    const NAME: &'static str = "btree";

    #[inline]
    fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool) {
        let mut inserted = false;
        let node = self.entry(level).or_insert_with(|| {
            inserted = true;
            Arc::new(WaitNode::new(level))
        });
        (Arc::clone(node), inserted)
    }

    #[inline]
    fn remove_satisfied(&mut self, value: Value) -> Vec<Arc<WaitNode>> {
        match value.checked_add(1) {
            Some(next) => {
                let rest = self.split_off(&next);
                std::mem::replace(self, rest).into_values().collect()
            }
            // value == u64::MAX satisfies every possible level.
            None => std::mem::take(self).into_values().collect(),
        }
    }

    fn remove_level(&mut self, level: Value) -> Option<Arc<WaitNode>> {
        self.remove(&level)
    }

    #[inline]
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }

    fn nodes(&self) -> Vec<Arc<WaitNode>> {
        self.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{CheckError, FailureInfo};
    use crate::traits::{CounterDiagnostics, MonotonicCounter};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn basic_wait_and_wake() {
        let c = Arc::new(BTreeCounter::default());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(10));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.increment(10);
        h.join().unwrap();
        assert_eq!(c.stats().nodes_created, 1);
        assert_eq!(c.stats().nodes_freed, 1);
    }

    #[test]
    fn timeout_cleans_map_entry() {
        let c = BTreeCounter::default();
        assert!(c.check_timeout(9, Duration::from_millis(30)).is_err());
        assert_eq!(c.stats().live_nodes, 0);
        // The abandoned waiter must also clear the waiters bit so increments
        // return to the fast path.
        c.increment(1);
        assert_eq!(c.stats().fast_increments, 1);
    }

    #[test]
    fn distinct_levels_distinct_nodes() {
        let c = Arc::new(BTreeCounter::default());
        let mut handles = Vec::new();
        for level in [3u64, 6, 9] {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.check(level)));
        }
        while c.stats().live_nodes < 3 {
            thread::yield_now();
        }
        c.increment(9);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().nodes_created, 3);
    }

    #[test]
    fn poison_wakes_and_frees_all_nodes() {
        let c = Arc::new(BTreeCounter::default());
        let mut handles = Vec::new();
        for level in [4u64, 8, 12] {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || c.wait(level)));
        }
        while c.stats().live_waiters < 3 {
            thread::yield_now();
        }
        c.poison(FailureInfo::new("worker panicked"));
        for h in handles {
            assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
        }
        let s = c.stats();
        assert_eq!(s.nodes_created, s.nodes_freed);
        assert_eq!(s.live_nodes, 0);
        // Satisfied waits still succeed; would-block waits still fail.
        c.increment(4);
        assert!(c.wait(4).is_ok());
        assert!(c.wait(5).is_err());
    }

    #[test]
    fn waiter_free_workload_stays_on_fast_path() {
        let c = BTreeCounter::builder().initial(5).build();
        c.check(3);
        c.increment(4);
        c.advance_to(100);
        let s = c.stats();
        assert_eq!(s.slow_path_entries, 0);
        assert_eq!(s.fast_checks, 1);
        assert_eq!(s.fast_increments, 2);
        assert_eq!(c.debug_value(), 100);
    }
}
