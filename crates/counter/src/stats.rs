//! Always-on, low-overhead counter instrumentation.
//!
//! The paper's Section 7 claims that storage and time are "proportional to the
//! number of different levels on which threads are waiting, not to the total
//! number of waiting threads". These statistics make that claim *measurable*:
//! experiment E5 reads them to show live wait-node counts tracking the number
//! of distinct levels.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Internal statistics accumulator shared by all counter implementations.
///
/// All fields are updated with relaxed atomics; the counters' own locks
/// already order the updates, and readers only need eventually-consistent
/// aggregate numbers.
///
/// Slow-path and fast-path operations bump *separate* counters and the
/// totals are derived at snapshot time: a fast increment is one `fetch_add`,
/// not two, keeping the instrumented fast path a genuinely short straight
/// line (the E8 tables measure it with stats enabled).
#[derive(Debug, Default)]
pub(crate) struct Stats {
    /// Set when the counter was built with `.stats(false)`: every record
    /// method becomes a no-op and snapshots report zeros. `false` (the
    /// `Default`) keeps the historical always-on behavior.
    disabled: bool,
    slow_increments: AtomicU64,
    slow_checks: AtomicU64,
    slow_immediate_checks: AtomicU64,
    suspensions: AtomicU64,
    nodes_created: AtomicU64,
    nodes_freed: AtomicU64,
    live_nodes: AtomicU64,
    max_live_nodes: AtomicU64,
    live_waiters: AtomicU64,
    max_live_waiters: AtomicU64,
    notifies: AtomicU64,
    fast_increments: AtomicU64,
    fast_checks: AtomicU64,
    slow_path_entries: AtomicU64,
}

fn bump_max(max: &AtomicU64, candidate: u64) {
    let mut cur = max.load(Relaxed);
    while candidate > cur {
        match max.compare_exchange_weak(cur, candidate, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

impl Stats {
    /// A stats block honoring the builder's `.stats(enabled)` knob; the
    /// `Default` construction is the always-on equivalent.
    pub(crate) fn with_enabled(enabled: bool) -> Self {
        Stats {
            disabled: !enabled,
            ..Stats::default()
        }
    }

    #[inline]
    pub(crate) fn record_increment(&self) {
        if self.disabled {
            return;
        }
        self.slow_increments.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn record_check_immediate(&self) {
        if self.disabled {
            return;
        }
        self.slow_checks.fetch_add(1, Relaxed);
        self.slow_immediate_checks.fetch_add(1, Relaxed);
    }

    #[inline]
    pub(crate) fn record_check_suspended(&self) {
        if self.disabled {
            return;
        }
        self.slow_checks.fetch_add(1, Relaxed);
        self.suspensions.fetch_add(1, Relaxed);
        let live = self.live_waiters.fetch_add(1, Relaxed) + 1;
        bump_max(&self.max_live_waiters, live);
    }

    #[inline]
    pub(crate) fn record_waiter_resumed(&self) {
        if self.disabled {
            return;
        }
        self.live_waiters.fetch_sub(1, Relaxed);
    }

    #[inline]
    pub(crate) fn record_node_created(&self) {
        if self.disabled {
            return;
        }
        self.nodes_created.fetch_add(1, Relaxed);
        let live = self.live_nodes.fetch_add(1, Relaxed) + 1;
        bump_max(&self.max_live_nodes, live);
    }

    #[inline]
    pub(crate) fn record_node_freed(&self) {
        if self.disabled {
            return;
        }
        self.nodes_freed.fetch_add(1, Relaxed);
        self.live_nodes.fetch_sub(1, Relaxed);
    }

    #[inline]
    pub(crate) fn record_notify(&self) {
        if self.disabled {
            return;
        }
        self.notifies.fetch_add(1, Relaxed);
    }

    /// An `increment`/`advance_to` that completed on the lock-free fast path.
    ///
    /// One `fetch_add`; the snapshot folds it into the `increments` total.
    #[inline]
    pub(crate) fn record_fast_increment(&self) {
        if self.disabled {
            return;
        }
        self.fast_increments.fetch_add(1, Relaxed);
    }

    /// A `check` satisfied by a single atomic load, without the lock.
    ///
    /// One `fetch_add`; the snapshot folds it into the `checks` and
    /// `immediate_checks` totals.
    #[inline]
    pub(crate) fn record_fast_check(&self) {
        if self.disabled {
            return;
        }
        self.fast_checks.fetch_add(1, Relaxed);
    }

    /// Any operation that acquired the slow-path mutex.
    #[inline]
    pub(crate) fn record_slow_entry(&self) {
        if self.disabled {
            return;
        }
        self.slow_path_entries.fetch_add(1, Relaxed);
    }

    /// Clears all statistics (used when a counter is reset between phases).
    #[cfg(test)]
    pub(crate) fn reset(&self) {
        self.slow_increments.store(0, Relaxed);
        self.slow_checks.store(0, Relaxed);
        self.slow_immediate_checks.store(0, Relaxed);
        self.suspensions.store(0, Relaxed);
        self.nodes_created.store(0, Relaxed);
        self.nodes_freed.store(0, Relaxed);
        self.live_nodes.store(0, Relaxed);
        self.max_live_nodes.store(0, Relaxed);
        self.live_waiters.store(0, Relaxed);
        self.max_live_waiters.store(0, Relaxed);
        self.notifies.store(0, Relaxed);
        self.fast_increments.store(0, Relaxed);
        self.fast_checks.store(0, Relaxed);
        self.slow_path_entries.store(0, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let fast_increments = self.fast_increments.load(Relaxed);
        let fast_checks = self.fast_checks.load(Relaxed);
        StatsSnapshot {
            increments: self.slow_increments.load(Relaxed) + fast_increments,
            checks: self.slow_checks.load(Relaxed) + fast_checks,
            immediate_checks: self.slow_immediate_checks.load(Relaxed) + fast_checks,
            suspensions: self.suspensions.load(Relaxed),
            nodes_created: self.nodes_created.load(Relaxed),
            nodes_freed: self.nodes_freed.load(Relaxed),
            live_nodes: self.live_nodes.load(Relaxed),
            max_live_nodes: self.max_live_nodes.load(Relaxed),
            live_waiters: self.live_waiters.load(Relaxed),
            max_live_waiters: self.max_live_waiters.load(Relaxed),
            notifies: self.notifies.load(Relaxed),
            fast_increments,
            fast_checks,
            slow_path_entries: self.slow_path_entries.load(Relaxed),
            io_retries: 0,
        }
    }
}

/// A point-in-time copy of a counter's internal statistics.
///
/// Obtained from
/// [`CounterDiagnostics::stats`](crate::CounterDiagnostics::stats).
/// The node counts expose the paper's Section 7 complexity claim: a counter's
/// storage is one wait node per **distinct level** currently waited on,
/// regardless of how many threads wait at each level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total `increment` operations performed.
    pub increments: u64,
    /// Total `check` operations performed.
    pub checks: u64,
    /// `check` operations that were satisfied without suspending.
    pub immediate_checks: u64,
    /// `check` operations that suspended the calling thread.
    pub suspensions: u64,
    /// Wait nodes (distinct-level suspension queues) ever created.
    pub nodes_created: u64,
    /// Wait nodes freed after their last waiter resumed.
    pub nodes_freed: u64,
    /// Wait nodes currently alive (waiting or draining).
    pub live_nodes: u64,
    /// High-water mark of simultaneously alive wait nodes.
    pub max_live_nodes: u64,
    /// Threads currently suspended in `check`.
    pub live_waiters: u64,
    /// High-water mark of simultaneously suspended threads.
    pub max_live_waiters: u64,
    /// Condition-variable broadcast (`notify_all`) events issued.
    pub notifies: u64,
    /// `increment`/`advance_to` operations completed on the lock-free fast
    /// path (single CAS, wait list untouched). Zero for implementations
    /// without a fast path.
    pub fast_increments: u64,
    /// `check` operations satisfied by a single atomic load, without the
    /// lock. Always `<= immediate_checks`.
    pub fast_checks: u64,
    /// Operations (of any kind) that acquired the slow-path mutex. A
    /// waiter-free workload on a fast-path counter reports **zero** here —
    /// the acceptance criterion of the E8 experiment.
    pub slow_path_entries: u64,
    /// IO operations that were retried after a transient failure. Always
    /// zero for in-memory counters; filled in by wrappers backed by fallible
    /// external resources (the durability layer's retry policy).
    pub io_retries: u64,
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inc {} | chk {} ({} immediate, {} suspended) | nodes {}/{} live/max \
             (created {}, freed {}) | waiters {}/{} live/max | broadcasts {} | \
             fast {} inc / {} chk | slow entries {} | io retries {}",
            self.increments,
            self.checks,
            self.immediate_checks,
            self.suspensions,
            self.live_nodes,
            self.max_live_nodes,
            self.nodes_created,
            self.nodes_freed,
            self.live_waiters,
            self.max_live_waiters,
            self.notifies,
            self.fast_increments,
            self.fast_checks,
            self.slow_path_entries,
            self.io_retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_display_is_compact_one_liner() {
        let s = Stats::default();
        s.record_increment();
        s.record_check_immediate();
        let text = s.snapshot().to_string();
        assert!(text.contains("inc 1"), "{text}");
        assert!(text.contains("chk 1"), "{text}");
        assert!(!text.contains('\n'));
    }

    #[test]
    fn snapshot_starts_zeroed() {
        let s = Stats::default();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn immediate_check_counts() {
        let s = Stats::default();
        s.record_check_immediate();
        s.record_check_immediate();
        let snap = s.snapshot();
        assert_eq!(snap.checks, 2);
        assert_eq!(snap.immediate_checks, 2);
        assert_eq!(snap.suspensions, 0);
    }

    #[test]
    fn node_lifecycle_tracks_live_and_max() {
        let s = Stats::default();
        s.record_node_created();
        s.record_node_created();
        s.record_node_freed();
        s.record_node_created();
        let snap = s.snapshot();
        assert_eq!(snap.nodes_created, 3);
        assert_eq!(snap.nodes_freed, 1);
        assert_eq!(snap.live_nodes, 2);
        assert_eq!(snap.max_live_nodes, 2);
    }

    #[test]
    fn waiter_lifecycle_tracks_live_and_max() {
        let s = Stats::default();
        s.record_check_suspended();
        s.record_check_suspended();
        s.record_check_suspended();
        s.record_waiter_resumed();
        let snap = s.snapshot();
        assert_eq!(snap.suspensions, 3);
        assert_eq!(snap.live_waiters, 2);
        assert_eq!(snap.max_live_waiters, 3);
    }

    #[test]
    fn reset_clears_everything() {
        let s = Stats::default();
        s.record_increment();
        s.record_node_created();
        s.record_check_suspended();
        s.record_notify();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn fast_and_slow_path_counters() {
        let s = Stats::default();
        s.record_fast_increment();
        s.record_fast_increment();
        s.record_fast_check();
        s.record_slow_entry();
        s.record_increment();
        let snap = s.snapshot();
        assert_eq!(snap.fast_increments, 2);
        assert_eq!(snap.increments, 3, "fast increments count as increments");
        assert_eq!(snap.fast_checks, 1);
        assert_eq!(snap.immediate_checks, 1, "fast checks are immediate");
        assert_eq!(snap.slow_path_entries, 1);
    }

    #[test]
    fn bump_max_is_monotonic() {
        let m = AtomicU64::new(5);
        bump_max(&m, 3);
        assert_eq!(m.load(Relaxed), 5);
        bump_max(&m, 9);
        assert_eq!(m.load(Relaxed), 9);
    }
}
