//! Structure tracing for reproducing the paper's **Figure 2**.
//!
//! Figure 2 shows the internal structure of a counter `c` across seven states:
//!
//! | state | action | value | waiting list (level, count, set) |
//! |-------|--------|-------|----------------------------------|
//! | (a) | construction | 0 | — |
//! | (b) | `c.Check(5)` by T1 | 0 | (5, 1, unset) |
//! | (c) | `c.Check(9)` by T2 | 0 | (5, 1, unset) → (9, 1, unset) |
//! | (d) | `c.Check(5)` by T3 | 0 | (5, 2, unset) → (9, 1, unset) |
//! | (e) | `c.Increment(7)` by T0 | 7 | (5, 2, **set**) → (9, 1, unset) |
//! | (f) | first level-5 waiter resumes | 7 | (5, 1, **set**) → (9, 1, unset) |
//! | (g) | second level-5 waiter resumes | 7 | (9, 1, unset) |
//!
//! A [`TracingCounter`] appends a [`CounterSnapshot`] to its log at every
//! structural transition *while holding the counter's lock*, so the exact
//! sequence of states is captured even though thread scheduling is
//! nondeterministic.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::counter::Counter;
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::stats::StatsSnapshot;
use crate::traits::{
    CounterDiagnostics, MonotonicCounter, Resettable, ResumableCounter, WaitingLevel,
};
use crate::waitcore::{Inner, LevelQueue};
use crate::Value;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The state of one wait node, as drawn in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The level threads at this node wait for.
    pub level: Value,
    /// Number of threads still registered at the node.
    pub count: usize,
    /// Whether the node's condition has been signalled ("set" in the figure).
    pub set: bool,
}

/// The full structure of a counter at one instant: its value and its wait
/// nodes in ascending level order (unsatisfied nodes and satisfied nodes that
/// are still draining, exactly as Figure 2 draws them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// The counter value.
    pub value: Value,
    /// Wait nodes in ascending level order.
    pub nodes: Vec<NodeSnapshot>,
}

impl CounterSnapshot {
    /// Convenience constructor for writing expected snapshots in tests:
    /// `CounterSnapshot::of(7, &[(5, 2, true), (9, 1, false)])`.
    pub fn of(value: Value, nodes: &[(Value, usize, bool)]) -> Self {
        CounterSnapshot {
            value,
            nodes: nodes
                .iter()
                .map(|&(level, count, set)| NodeSnapshot { level, count, set })
                .collect(),
        }
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {}", self.value)?;
        if self.nodes.is_empty() {
            write!(f, " | waiting: (empty)")?;
        } else {
            write!(f, " | waiting:")?;
            for n in &self.nodes {
                write!(
                    f,
                    " -> [level {} | {} | count {}]",
                    n.level,
                    if n.set { "set" } else { "not set" },
                    n.count
                )?;
            }
        }
        Ok(())
    }
}

/// Shared log of snapshots, appended under the counter's lock.
#[derive(Debug, Default)]
pub(crate) struct TraceLog {
    snapshots: Mutex<Vec<CounterSnapshot>>,
}

impl TraceLog {
    pub(crate) fn push(&self, snap: CounterSnapshot) {
        self.snapshots
            .lock()
            .expect("trace log poisoned")
            .push(snap);
    }
}

/// Builds a snapshot from a counter's locked state. The value is passed
/// separately because `Inner` only stores the exact value in the saturated
/// regime; the caller decodes it from the packed word under the lock.
pub(crate) fn snapshot_of<Q: LevelQueue>(inner: &Inner<Q>, value: Value) -> CounterSnapshot {
    let mut nodes: Vec<NodeSnapshot> = inner
        .waiting
        .nodes()
        .iter()
        .chain(inner.draining.iter())
        .map(|n| NodeSnapshot {
            level: n.level,
            count: n.waiter_count(),
            set: n.is_set(),
        })
        .collect();
    nodes.sort_by_key(|n| n.level);
    CounterSnapshot { value, nodes }
}

/// A [`Counter`] that records a [`CounterSnapshot`] at every structural
/// transition: construction, waiter registration, increment, and waiter
/// resumption. Used to reproduce Figure 2 and to debug synchronization
/// structure; not intended for performance-sensitive code.
pub struct TracingCounter {
    counter: Counter,
    log: Arc<TraceLog>,
}

impl Default for TracingCounter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Buildable for TracingCounter {
    fn from_config(cfg: &BuildConfig) -> Self {
        let (counter, log) = Counter::new_traced(cfg);
        TracingCounter { counter, log }
    }
}

impl TracingCounter {
    /// Starts building a counter; see [`CounterBuilder`]. The log starts with
    /// the construction state (Figure 2 (a)).
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// The sequence of structure snapshots recorded so far, oldest first.
    pub fn log(&self) -> Vec<CounterSnapshot> {
        self.log
            .snapshots
            .lock()
            .expect("trace log poisoned")
            .clone()
    }

    /// The current structure of the counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.counter.with_inner(snapshot_of)
    }
}

impl MonotonicCounter for TracingCounter {
    fn increment(&self, amount: Value) {
        self.counter.increment(amount);
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        self.counter.try_increment(amount)
    }

    fn advance_to(&self, target: Value) {
        self.counter.advance_to(target);
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        self.counter.wait(level)
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        self.counter.wait_timeout(level, timeout)
    }

    fn poison(&self, info: FailureInfo) {
        self.counter.poison(info);
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.counter.poison_info()
    }

    fn check(&self, level: Value) {
        self.counter.check(level);
    }

    fn check_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckTimeoutError> {
        self.counter.check_timeout(level, timeout)
    }
}

impl ResumableCounter for TracingCounter {
    fn resume_from(value: Value) -> Self {
        Self::builder().initial(value).build()
    }
}

impl Resettable for TracingCounter {
    fn reset(&mut self) {
        self.counter.reset();
    }
}

impl CounterDiagnostics for TracingCounter {
    fn debug_value(&self) -> Value {
        self.counter.debug_value()
    }

    fn stats(&self) -> StatsSnapshot {
        self.counter.stats()
    }

    fn impl_name(&self) -> &'static str {
        "waitlist-traced"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.counter.waiters()
    }

    fn durable_watermark(&self) -> Option<Value> {
        self.counter.durable_watermark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn construction_records_state_a() {
        let c = TracingCounter::default();
        assert_eq!(c.log(), vec![CounterSnapshot::of(0, &[])]);
    }

    #[test]
    fn snapshot_display_matches_figure_vocabulary() {
        let snap = CounterSnapshot::of(7, &[(5, 2, true), (9, 1, false)]);
        let s = snap.to_string();
        assert_eq!(
            s,
            "value 7 | waiting: -> [level 5 | set | count 2] -> [level 9 | not set | count 1]"
        );
    }

    #[test]
    fn empty_snapshot_display() {
        assert_eq!(
            CounterSnapshot::of(0, &[]).to_string(),
            "value 0 | waiting: (empty)"
        );
    }

    /// The full Figure 2 reproduction: states (a) through (g).
    #[test]
    fn figure2_sequence_is_reproduced() {
        let c = Arc::new(TracingCounter::default());

        // (b) T1: Check(5). Wait until the node is registered.
        let t1 = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.check(5))
        };
        while c.snapshot().nodes.first().map(|n| n.count) != Some(1) {
            thread::yield_now();
        }
        assert_eq!(c.snapshot(), CounterSnapshot::of(0, &[(5, 1, false)]));

        // (c) T2: Check(9).
        let t2 = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.check(9))
        };
        while c.snapshot().nodes.len() != 2 {
            thread::yield_now();
        }
        assert_eq!(
            c.snapshot(),
            CounterSnapshot::of(0, &[(5, 1, false), (9, 1, false)])
        );

        // (d) T3: Check(5) — joins T1's node.
        let t3 = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.check(5))
        };
        while c.snapshot().nodes.first().map(|n| n.count) != Some(2) {
            thread::yield_now();
        }
        assert_eq!(
            c.snapshot(),
            CounterSnapshot::of(0, &[(5, 2, false), (9, 1, false)])
        );

        // (e) T0: Increment(7) — level 5 satisfied and set, level 9 not.
        c.increment(7);
        // (f), (g): T1 and T3 resume and drain the level-5 node.
        t1.join().unwrap();
        t3.join().unwrap();
        assert_eq!(c.snapshot(), CounterSnapshot::of(7, &[(9, 1, false)]));

        // The log must contain the exact sequence (a)-(g); states (a)-(d)
        // were asserted live above, so check the transition tail recorded
        // under the lock.
        let log = c.log();
        let expected_tail = [
            CounterSnapshot::of(7, &[(5, 2, true), (9, 1, false)]), // (e)
            CounterSnapshot::of(7, &[(5, 1, true), (9, 1, false)]), // (f)
            CounterSnapshot::of(7, &[(9, 1, false)]),               // (g)
        ];
        assert_eq!(&log[log.len() - 3..], &expected_tail, "full log: {log:#?}");

        // Release T2 so the test ends cleanly.
        c.increment(2);
        t2.join().unwrap();
        assert_eq!(c.snapshot(), CounterSnapshot::of(9, &[]));
    }
}
