//! [`WaitCore`]: the one implementation of the Section 7 slow path.
//!
//! Every packed-word counter is the same machine: a [`FastWord`] fast path in
//! front of one mutex guarding (wide value, ordered queue of wait nodes,
//! draining nodes, poison cause). Each distinct waited level owns one
//! [`WaitNode`] with a condition variable; raising the value detaches the
//! satisfied prefix of the queue, signals it and broadcasts; woken threads
//! drain their node and the last one frees it. Only the queue's data
//! structure varies, so it is the type parameter:
//!
//! * [`Counter`](crate::Counter) is `WaitCore<SortedList>` — the paper's
//!   sorted singly-linked list of Figure 2;
//! * [`BTreeCounter`](crate::BTreeCounter) is `WaitCore` over a `BTreeMap`
//!   — the list-vs-tree ablation of experiments E5 and E7;
//! * [`ShardedCounter`](crate::ShardedCounter) puts striped cells and a
//!   combiner in front of a `WaitCore` and calls its slow half.
//!
//! The invariants argued here once, instead of once per copy:
//!
//! * **Register before re-read.** A would-be waiter sets the packed word's
//!   waiters bit with an RMW under the lock and re-tests its level against
//!   the value that RMW returned; a fast increment not visible in that
//!   value is ordered after the RMW and sees the bit, so it takes the lock
//!   and sweeps the node (see the `fastpath` module docs).
//! * **Satisfied → poisoned → deadline.** A woken waiter reports success if
//!   its node was satisfied (a satisfied level owes nothing, even when
//!   poisoning raced in), then poison, and only then considers its deadline.
//! * **The last waiter frees the node.** A swept node moves to the draining
//!   list; the waiter whose deregistration brings its count to zero removes
//!   it.
//! * **A timeout removes its node only if it was the last waiter and the
//!   node is unsatisfied** — a satisfied or poisoned node has already left
//!   the queue and drains like any other.
//!
//! `WaitCore` is generic, so its code is compiled in every crate that uses a
//! `Counter`. The small `FastWord`, `Stats` and `WaitNode` methods it calls
//! are `#[inline]` so those crates can inline them, as this crate always
//! could.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::fastpath::{FastAdvance, FastIncrement, FastWord, FAST_CAP};
use crate::node::WaitNode;
use crate::stats::{Stats, StatsSnapshot};
use crate::trace::{snapshot_of, TraceLog};
use crate::traits::{
    CounterDiagnostics, MonotonicCounter, Resettable, ResumableCounter, WaitingLevel,
};
use crate::Value;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

mod sealed {
    pub trait Sealed {}
}
pub(crate) use sealed::Sealed;

/// The ordered per-level queue a [`WaitCore`] keeps its wait nodes in.
///
/// Sealed: the crate provides the paper's sorted list (behind
/// [`Counter`](crate::Counter)) and a `BTreeMap` (behind
/// [`BTreeCounter`](crate::BTreeCounter)). Every implementation keeps the
/// Section 7 invariants: ascending levels, one node per distinct level, and
/// no level at or below the counter value once a sweep has run.
pub trait LevelQueue: Default + Send + Sealed {
    /// The implementation name reported by
    /// [`CounterDiagnostics::impl_name`].
    const NAME: &'static str;

    /// The node for `level`, inserting a fresh one if none exists. Returns
    /// `(node, inserted)`.
    fn find_or_insert(&mut self, level: Value) -> (Arc<WaitNode>, bool);

    /// Removes and returns every node with level `<= value`, ascending.
    fn remove_satisfied(&mut self, value: Value) -> Vec<Arc<WaitNode>>;

    /// Removes the node at exactly `level`, if present.
    fn remove_level(&mut self, level: Value) -> Option<Arc<WaitNode>>;

    /// Number of nodes (distinct waited levels).
    fn len(&self) -> usize;

    /// Whether no level is waited on.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every node, ascending by level.
    fn nodes(&self) -> Vec<Arc<WaitNode>>;
}

/// The state behind a [`WaitCore`]'s mutex.
pub(crate) struct Inner<Q> {
    /// The exact value once the packed hint has saturated at [`FAST_CAP`];
    /// stale (and unused) below that. See the `fastpath` module docs.
    pub(crate) wide: Value,
    /// Nodes for levels still unsatisfied. Never contains a level <= value.
    pub(crate) waiting: Q,
    /// Nodes whose level has been satisfied (or poisoned) but whose waiters
    /// have not all resumed yet — the "set" nodes still drawn in Figure 2
    /// (e) and (f). The last waiter to resume removes its node from here.
    pub(crate) draining: Vec<Arc<WaitNode>>,
    /// The first poisoning cause, if any. Set at most once.
    pub(crate) poisoned: Option<FailureInfo>,
}

/// A packed-word fast path over the Section 7 waitlist, generic over the
/// queue that orders the wait nodes. Use it through
/// [`Counter`](crate::Counter) or [`BTreeCounter`](crate::BTreeCounter).
///
/// * `check` with a satisfied level returns after a single atomic load.
/// * `increment` with no registered waiters is a single CAS.
/// * `check` with an unsatisfied level finds-or-inserts the node for that
///   level and suspends on its condition variable; all threads waiting on
///   the same level share one node.
/// * `increment` while waiters exist takes the lock, bumps the value, sweeps
///   every node the new value satisfies, sets its signal flag, and
///   broadcasts.
///
/// Storage and operation time on the slow path are proportional to the
/// number of **distinct levels currently waited on**, not to the number of
/// waiting threads; the fast paths cost no storage at all.
#[repr(C)] // field order is cache-line placement: see `stats`
pub struct WaitCore<Q: LevelQueue> {
    pub(crate) fast: FastWord,
    /// `false` disables the lock-free tier so every operation takes the
    /// mutex — the ablation baseline for experiment E8 and the mode used
    /// while tracing (every transition must be recorded under the lock).
    pub(crate) fast_enabled: bool,
    /// `false` turns `poison` into a no-op ([`PoisonPolicy::Ignore`]).
    ///
    /// [`PoisonPolicy::Ignore`]: crate::PoisonPolicy::Ignore
    poison_enabled: bool,
    /// When present (via [`crate::TracingCounter`]), a structure snapshot is
    /// appended at every transition, under the lock.
    pub(crate) trace: Option<Arc<TraceLog>>,
    inner: Mutex<Inner<Q>>,
    /// Last, more than a cache line after `fast`: every sharded writer
    /// bumps `fast_increments`, and that line must not be the one holding
    /// the packed word every `check` reads.
    pub(crate) stats: Stats,
}

impl<Q: LevelQueue> Default for WaitCore<Q> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<Q: LevelQueue> Buildable for WaitCore<Q> {
    fn from_config(cfg: &BuildConfig) -> Self {
        WaitCore {
            fast: FastWord::new(cfg.initial()),
            fast_enabled: true,
            inner: Mutex::new(Inner {
                wide: cfg.initial(),
                waiting: Q::default(),
                draining: Vec::new(),
                poisoned: None,
            }),
            stats: Stats::with_enabled(cfg.stats_enabled()),
            poison_enabled: cfg.poison_propagates(),
            trace: None,
        }
    }
}

impl<Q: LevelQueue> std::fmt::Debug for WaitCore<Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        let levels: Vec<Value> = inner.waiting.nodes().iter().map(|n| n.level).collect();
        f.debug_struct("WaitCore")
            .field("queue", &Q::NAME)
            .field("value", &self.fast.locked_value(inner.wide))
            .field("waiting_levels", &levels)
            .field("draining", &inner.draining.len())
            .finish()
    }
}

impl<Q: LevelQueue> WaitCore<Q> {
    /// Starts building a counter: set the knobs, then
    /// [`build`](CounterBuilder::build).
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// Levels currently waited on, in ascending order (diagnostics/tests).
    pub fn waiting_levels(&self) -> Vec<Value> {
        self.lock()
            .waiting
            .nodes()
            .iter()
            .map(|n| n.level)
            .collect()
    }

    /// Number of live wait nodes: unsatisfied levels plus satisfied levels
    /// still draining (diagnostics/tests, Section 7 storage measurements).
    pub fn live_nodes(&self) -> usize {
        let inner = self.lock();
        inner.waiting.len() + inner.draining.len()
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner<Q>> {
        // Lock poisoning can only arise from a panic inside these short
        // critical sections, which would indicate a bug in this crate, not in
        // user code; propagating the panic is the correct response.
        self.inner.lock().expect("counter lock poisoned")
    }

    /// Runs `f` on the locked state and the exact value.
    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&Inner<Q>, Value) -> R) -> R {
        let inner = self.lock();
        f(&inner, self.fast.locked_value(inner.wide))
    }

    /// Whether the packed word currently advertises waiters
    /// (diagnostics/tests for the fast-path protocol).
    #[cfg(test)]
    pub(crate) fn advertises_waiters(&self) -> bool {
        self.fast.has_waiters()
    }

    /// Appends the current structure to the trace log, if tracing.
    fn record(&self, inner: &Inner<Q>) {
        if let Some(log) = &self.trace {
            log.push(snapshot_of(inner, self.fast.locked_value(inner.wide)));
        }
    }

    /// Detaches every node `value` satisfies, marks it (`WaitNode::signal`,
    /// or `WaitNode::poison` when poisoning) and moves it to the draining
    /// list. Returns the nodes to notify once the lock is released.
    fn sweep(&self, inner: &mut Inner<Q>, value: Value, mark: fn(&WaitNode)) -> Vec<Arc<WaitNode>> {
        let swept = inner.waiting.remove_satisfied(value);
        for node in &swept {
            mark(node);
            inner.draining.push(Arc::clone(node));
            self.stats.record_notify();
        }
        swept
    }

    /// Locked exact add plus sweep. Leaves the waiters bit alone, so a
    /// caller with a registration in flight can use it ([`release`] settles
    /// the bit), and leaves the increment count to the caller: publishing
    /// already-counted sharded deltas is not a new increment.
    ///
    /// [`release`]: Self::release
    pub(crate) fn add_locked(
        &self,
        inner: &mut Inner<Q>,
        amount: Value,
    ) -> Result<Vec<Arc<WaitNode>>, CounterOverflowError> {
        let value = self.fast.locked_add(&mut inner.wide, amount)?;
        Ok(self.sweep(inner, value, WaitNode::signal))
    }

    /// Locked `advance_to` plus sweep, like [`add_locked`](Self::add_locked);
    /// `None` when the target was already reached.
    pub(crate) fn advance_locked(
        &self,
        inner: &mut Inner<Q>,
        target: Value,
    ) -> Option<Vec<Arc<WaitNode>>> {
        let value = self.fast.locked_advance(&mut inner.wide, target)?;
        Some(self.sweep(inner, value, WaitNode::signal))
    }

    /// Ends a raising critical section: clears the waiters bit if no
    /// unsatisfied level remains, records the trace, releases the lock, and
    /// broadcasts to `woken` outside it. The signal flags were set under the
    /// lock, so a waiter that re-checks before the broadcast arrives simply
    /// exits its wait loop; nobody can miss the wakeup.
    pub(crate) fn release(&self, inner: MutexGuard<'_, Inner<Q>>, woken: Vec<Arc<WaitNode>>) {
        if inner.waiting.is_empty() {
            self.fast.clear_waiters();
        }
        self.record(&inner);
        drop(inner);
        for node in woken {
            node.cv.notify_all();
        }
    }

    /// Slow-path increment: lock, exact add, sweep, wake. Kept out of line,
    /// like `wait_until`, so the fast paths inlined into callers stay small:
    /// with both inlinable, E8's waiter-free fast-path increment and check
    /// ran ~15% slower (6 alternating `--quick` pairs, 2-thread x86-64 host).
    #[inline(never)]
    fn raise(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let mut inner = self.lock();
        self.stats.record_slow_entry();
        let woken = self.add_locked(&mut inner, amount)?;
        self.stats.record_increment();
        self.release(inner, woken);
        Ok(())
    }

    /// The one blocking function: waits until the value reaches `level`,
    /// the counter is poisoned, or `deadline` passes.
    ///
    /// `register` runs under the lock, must set the packed word's waiters
    /// bit, and returns the value to re-test the level against (see the
    /// module docs); the sharded counter also drains its cells there.
    #[inline(never)]
    pub(crate) fn wait_until(
        &self,
        level: Value,
        deadline: Option<Instant>,
        register: impl FnOnce(&mut Inner<Q>) -> Value,
    ) -> Result<(), CheckError> {
        let mut inner = self.lock();
        self.stats.record_slow_entry();
        let value = register(&mut inner);
        if value >= level {
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            self.stats.record_check_immediate();
            return Ok(());
        }
        // A wait that would suspend on a poisoned counter fails immediately:
        // the increments it depends on are owed by a thread that is gone.
        if let Some(info) = inner.poisoned.clone() {
            if inner.waiting.is_empty() {
                self.fast.clear_waiters();
            }
            return Err(CheckError::Poisoned(info));
        }
        let (node, inserted) = inner.waiting.find_or_insert(level);
        if inserted {
            self.stats.record_node_created();
        }
        node.add_waiter();
        self.stats.record_check_suspended();
        self.record(&inner);
        loop {
            // Satisfied first, then poisoned: a swept node has left the
            // queue and drains through `draining`, so the timeout branch
            // below must not run for it.
            if node.is_set() || node.is_poisoned() {
                self.stats.record_waiter_resumed();
                if node.remove_waiter() {
                    inner.draining.retain(|n| !Arc::ptr_eq(n, &node));
                    self.stats.record_node_freed();
                }
                self.record(&inner);
                if node.is_set() {
                    return Ok(());
                }
                let info = inner.poisoned.clone();
                return Err(CheckError::Poisoned(
                    info.expect("poisoned wait node without a recorded cause"),
                ));
            }
            let Some(deadline) = deadline else {
                inner = node
                    .cv
                    .wait(inner)
                    .expect("counter lock poisoned while waiting");
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                // Abandon the wait. The last waiter of a still-unsatisfied
                // level takes its node out of the queue, or a later sweep
                // would signal a dead node and the storage count would lie.
                self.stats.record_waiter_resumed();
                if node.remove_waiter() {
                    inner.waiting.remove_level(level);
                    self.stats.record_node_freed();
                    if inner.waiting.is_empty() {
                        self.fast.clear_waiters();
                    }
                }
                self.record(&inner);
                return Err(CheckError::Timeout(CheckTimeoutError { level }));
            }
            inner = node
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("counter lock poisoned while waiting")
                .0;
        }
    }

    /// Poisons the counter: records the first cause, then marks and wakes
    /// every waiting node. `publish` runs under the lock first and returns
    /// nodes it already swept as satisfied (the sharded counter publishes
    /// its pending deltas there, so waiters the true value satisfies succeed
    /// instead of failing).
    pub(crate) fn poison_after(
        &self,
        info: FailureInfo,
        publish: impl FnOnce(&mut Inner<Q>) -> Vec<Arc<WaitNode>>,
    ) {
        if !self.poison_enabled {
            return;
        }
        let mut inner = self.lock();
        if inner.poisoned.is_some() {
            return; // the first failure is the cause; later ones are noise
        }
        let mut woken = publish(&mut inner);
        self.fast.set_poison();
        inner.poisoned = Some(info);
        // Sweep *every* waiting node (u64::MAX satisfies all levels): each
        // is marked poisoned instead of set and drains through the same
        // last-waiter-frees protocol as a satisfied node.
        woken.extend(self.sweep(&mut inner, Value::MAX, WaitNode::poison));
        self.release(inner, woken);
    }
}

impl<Q: LevelQueue> MonotonicCounter for WaitCore<Q> {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        if self.fast_enabled {
            match self.fast.try_increment(amount) {
                FastIncrement::Done => {
                    self.stats.record_fast_increment();
                    return Ok(());
                }
                FastIncrement::Overflow(e) => return Err(e),
                FastIncrement::Contended => {}
            }
        }
        self.raise(amount)
    }

    fn advance_to(&self, target: Value) {
        if self.fast_enabled {
            match self.fast.try_advance(target) {
                FastAdvance::Raised => {
                    self.stats.record_fast_increment();
                    return;
                }
                FastAdvance::NoOp => return,
                FastAdvance::Contended => {}
            }
        }
        let mut inner = self.lock();
        self.stats.record_slow_entry();
        if let Some(woken) = self.advance_locked(&mut inner, target) {
            self.stats.record_increment();
            self.release(inner, woken);
        }
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        if self.fast_enabled && self.fast.is_satisfied(level) {
            self.stats.record_fast_check();
            return Ok(());
        }
        self.wait_until(level, None, |inner| self.fast.register_waiter(inner.wide))
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        if self.fast_enabled && self.fast.is_satisfied(level) {
            self.stats.record_fast_check();
            return Ok(());
        }
        let deadline = Instant::now() + timeout;
        self.wait_until(level, Some(deadline), |inner| {
            self.fast.register_waiter(inner.wide)
        })
    }

    fn poison(&self, info: FailureInfo) {
        self.poison_after(info, |_| Vec::new());
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        // The packed word's poison bit is set under the same lock that
        // publishes the cause, so a clear bit means "not poisoned" without
        // taking the lock.
        if !self.fast.is_poisoned() {
            return None;
        }
        self.lock().poisoned.clone()
    }
}

impl<Q: LevelQueue> ResumableCounter for WaitCore<Q> {
    fn resume_from(value: Value) -> Self {
        Self::builder().initial(value).build()
    }
}

impl<Q: LevelQueue> Resettable for WaitCore<Q> {
    fn reset(&mut self) {
        let inner = self.inner.get_mut().expect("counter lock poisoned");
        debug_assert!(
            inner.waiting.is_empty() && inner.draining.is_empty(),
            "reset called while threads wait on the counter"
        );
        inner.wide = 0;
        inner.poisoned = None;
        self.fast.reset(0);
    }
}

impl<Q: LevelQueue> CounterDiagnostics for WaitCore<Q> {
    fn debug_value(&self) -> Value {
        // Below FAST_CAP the hint is exact, so no lock is needed; above it
        // the exact value lives in `wide` under the lock.
        let hint = self.fast.value_hint();
        if hint < FAST_CAP {
            hint
        } else {
            self.lock().wide
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn impl_name(&self) -> &'static str {
        // Only `Counter::mutex_only` (and the tracer) disables the fast tier.
        if self.fast_enabled {
            Q::NAME
        } else {
            "waitlist-mutex-only"
        }
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.lock()
            .waiting
            .nodes()
            .iter()
            .map(|n| WaitingLevel {
                level: n.level,
                threads: n.waiter_count(),
            })
            .collect()
    }
}

/// One battery over the [`LevelQueue`] contract, run for both queues.
#[cfg(test)]
mod queue_tests {
    use super::*;
    use crate::list::SortedList;
    use std::collections::BTreeMap;

    fn levels<Q: LevelQueue>(q: &Q) -> Vec<Value> {
        q.nodes().iter().map(|n| n.level).collect()
    }

    fn filled<Q: LevelQueue>(levels: &[Value]) -> Q {
        let mut q = Q::default();
        for &level in levels {
            assert!(q.find_or_insert(level).1, "level {level} inserted twice");
        }
        q
    }

    fn sorted_and_shared<Q: LevelQueue>() {
        let mut q: Q = filled(&[5, 9, 2, 7, 3]);
        assert_eq!(levels(&q), vec![2, 3, 5, 7, 9]);
        let (a, _) = q.find_or_insert(5);
        let (b, inserted) = q.find_or_insert(5);
        assert!(!inserted, "same-level waiters must share one node");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
    }

    /// Queued levels, `remove_satisfied` argument, levels taken, levels left.
    type SweepCase = (&'static [Value], Value, &'static [Value], &'static [Value]);

    /// `remove_satisfied` takes exactly the levels `<= value`, inclusive of
    /// the boundary, including at `u64::MAX`.
    fn remove_satisfied_boundaries<Q: LevelQueue>() {
        let cases: [SweepCase; 7] = [
            (&[1, 5, 6, 7], 6, &[1, 5, 6], &[7]),
            (&[2, 5, 7, 9], 6, &[2, 5], &[7, 9]),
            (&[7], 7, &[7], &[]),
            (&[10], 9, &[], &[10]),
            (&[], u64::MAX, &[], &[]),
            (&[u64::MAX], u64::MAX, &[u64::MAX], &[]),
            (&[3, u64::MAX], u64::MAX, &[3, u64::MAX], &[]),
        ];
        for (start, value, taken, left) in cases {
            let mut q: Q = filled(start);
            let out: Vec<Value> = q.remove_satisfied(value).iter().map(|n| n.level).collect();
            assert_eq!(out, taken, "{} remove_satisfied({value})", Q::NAME);
            assert_eq!(levels(&q), left);
            assert_eq!(q.len(), left.len());
        }
    }

    /// The last timed-out waiter removes its unsatisfied level; the rest of
    /// the queue and later inserts are unaffected.
    fn remove_level_after_timeout<Q: LevelQueue>() {
        let mut q: Q = filled(&[1, 3, 5, 7]);
        let (node, _) = q.find_or_insert(5);
        node.add_waiter();
        assert!(node.remove_waiter(), "the only waiter is the last");
        let removed = q.remove_level(5).expect("level 5 is queued");
        assert!(Arc::ptr_eq(&removed, &node));
        assert_eq!(levels(&q), vec![1, 3, 7]);
        assert!(q.remove_level(5).is_none());
        assert!(q.remove_level(42).is_none());
        assert_eq!(q.remove_level(1).map(|n| n.level), Some(1)); // head
        assert_eq!(q.remove_level(7).map(|n| n.level), Some(7)); // tail
        assert!(q.find_or_insert(5).1, "a removed level gets a fresh node");
        assert_eq!(levels(&q), vec![3, 5]);
    }

    macro_rules! battery {
        ($name:ident, $queue:ty) => {
            mod $name {
                use super::*;
                #[test]
                fn sorted_and_shared() {
                    super::sorted_and_shared::<$queue>();
                }
                #[test]
                fn remove_satisfied_boundaries() {
                    super::remove_satisfied_boundaries::<$queue>();
                }
                #[test]
                fn remove_level_after_timeout() {
                    super::remove_level_after_timeout::<$queue>();
                }
            }
        };
    }

    battery!(sorted_list, SortedList);
    battery!(btree_map, BTreeMap<Value, Arc<WaitNode>>);
}
