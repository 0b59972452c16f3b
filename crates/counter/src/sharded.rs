//! [`ShardedCounter`]: striped increments for write-heavy contention.
//!
//! Every other packed-word implementation funnels all increments through one
//! CAS word, so under all-writer contention the cache line holding that word
//! ping-pongs between cores and throughput *drops* as threads are added. A
//! `ShardedCounter` splits the increment hot path across per-thread,
//! cache-line-padded cells:
//!
//! ```text
//!   increment(a) ──► cells[thread_slot].fetch_add(a)      (private line)
//!                              │
//!                              ▼   (combiner: eager when waiters exist,
//!                                   lazy at the adaptive flush threshold)
//!   published ◄──── FastWord  (value hint | poison | has-waiters)
//!                              │
//!   check(level) ───► one Acquire load of the published word
//! ```
//!
//! The *published* value lives in the same [`FastWord`] the other
//! implementations use, so the read side is completely unchanged: a satisfied
//! `check` is still a single `Acquire` load, and the suspend/wake slow path is
//! a [`BTreeCounter`]'s [`WaitCore`](crate::WaitCore) (one node per distinct
//! level, satisfied nodes swept on publication). Only the write side
//! changes: an increment lands in a striped cell and becomes *visible to
//! checks* when a combiner publishes the accumulated deltas into the word.
//!
//! # Publication rules (the combiner)
//!
//! Increments must not linger in cells while somebody waits — that would turn
//! the paper's "wake exactly when satisfied" semantics into "wake when the
//! flush timer feels like it". Publication is therefore **waiter-aware**:
//!
//! * **Eager** — when the packed word's has-waiters bit is set, every
//!   increment drains all cells and publishes under the lock (exactly the
//!   slow path every other implementation takes when waiters exist), so a
//!   waited-on level is crossed the moment the increment that crosses it
//!   returns.
//! * **Lazy** — with no waiters registered, a cell accumulates until its
//!   pending delta reaches the *adaptive flush threshold*; the flush drains
//!   all cells and publishes with one CAS (lock-free, nobody to wake). The
//!   threshold starts low and doubles on every quiet flush (up to the
//!   builder's `capacity` backlog bound), so sustained write storms publish
//!   rarely, while a counter that just lost its waiters stays fresh.
//!
//! Waits themselves self-serve: a `check` that is not satisfied by the
//! published value first drains and publishes the cells itself (lock-free in
//! the common case) and re-tests before suspending — so a value that has
//! logically been reached never blocks its own observer.
//!
//! # Why the waiter/flush race cannot lose a wakeup
//!
//! The hazard: an incrementer parks a delta in its cell and sees "no
//! waiters", while a checker simultaneously drains the cells, sees "level
//! unreached", and goes to sleep — with the parked delta satisfying its
//! level. The handshake mirrors the [`FastWord`] protocol one level up, with
//! `SeqCst` fences standing in for the single-word RMW trick:
//!
//! * The incrementer performs the cell RMW, then a `SeqCst` fence, then
//!   loads the packed word to test the has-waiters bit.
//! * The checker (holding the slow-path mutex) sets the has-waiters bit with
//!   an RMW, then a `SeqCst` fence, then drains the cells with RMW swaps.
//!
//! If the incrementer misses the bit, its cell RMW is ordered before the
//! checker's drain by the fence pair, so the drain collects the delta and the
//! checker's locked re-test sees the published value. If it sees the bit, it
//! takes the locked publish path, which the mutex serializes after the
//! checker's node is enqueued (the condvar releases the lock only once the
//! node is in the list), and the publish sweep signals the node. Either way
//! the wakeup is delivered.
//!
//! # Exactness
//!
//! The cells-only fast tier is restricted to a regime where overflow is
//! impossible: amounts at most 2^30, per-cell backlogs at most the capacity
//! bound (itself clamped to 2^30), and a published hint below 2^61 (half
//! the [`FastWord`] hint range). Everything outside that regime — huge
//! amounts, values near saturation — funnels through the lock, where
//! [`FastWord::locked_add`] keeps exact `u64` arithmetic and exact overflow
//! errors, pending deltas included (they are drained and published before
//! the fallible add).
//!
//! One racy corner remains: the regime gate is a load, so a delta can park
//! concurrently with an `advance_to`/`raise` that jumps the published value
//! near `u64::MAX`. The incrementer re-checks the gate after parking and
//! flushes through the lock immediately if it lost that race; if the delta
//! is nonetheless flushed against a value it no longer fits above,
//! publication saturates at `u64::MAX` (a valid linearization — the parked
//! increment overlapped the jump and is ordered before it) instead of
//! failing.

use crate::btree::BTreeCounter;
use crate::builder::{BuildConfig, Buildable, CounterBuilder, MetricsSink};
use crate::error::{CheckError, CounterOverflowError, FailureInfo};
use crate::fastpath::{FastAdvance, FastIncrement};
use crate::node::WaitNode;
use crate::stats::StatsSnapshot;
use crate::traits::{
    CounterDiagnostics, MonotonicCounter, Resettable, ResumableCounter, WaitingLevel,
};
use crate::waitcore::Inner;
use crate::Value;
use mc_metrics::{Event, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{
    fence, AtomicU64, AtomicUsize,
    Ordering::{AcqRel, Relaxed, SeqCst},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest amount the cells-only fast tier accepts; bigger increments take
/// the exact locked path. Keeps any conceivable pending sum far below the
/// regime where `u64` arithmetic could wrap.
const MAX_FAST_AMOUNT: Value = 1 << 30;

/// Published values at or above this route every increment through the lock:
/// pending sums then cannot push the true value anywhere near `u64::MAX`, so
/// overflow checking stays exact without per-increment global arithmetic.
const FAST_REGIME_LIMIT: Value = 1 << 61;

/// Lower bound of the adaptive flush threshold — a fresh counter (or one
/// that recently had waiters) publishes after this many pending units.
const MIN_FLUSH_THRESHOLD: u64 = 8;

/// Default upper bound of the adaptive flush threshold (per cell), i.e. the
/// default of the builder's `capacity` knob for sharded counters.
const DEFAULT_MAX_BACKLOG: u64 = 1024;

/// Hard ceiling on the builder's `capacity` knob. Per-cell backlogs must
/// stay far below the headroom between [`FAST_REGIME_LIMIT`] and
/// `u64::MAX`, or the "pending sums cannot overflow" regime argument the
/// combiner relies on stops holding; an unbounded user value like
/// `usize::MAX` would break it outright.
const MAX_BACKLOG_LIMIT: u64 = 1 << 30;

/// One increment stripe, padded to its own cache line so writers on
/// different shards never invalidate each other.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Cell {
    pending: AtomicU64,
}

type WaitMap = BTreeMap<Value, Arc<WaitNode>>;

/// Combiner observability, attached when the builder carries a
/// [`MetricsSink`]. Records *why* the combiner published (a waiter forced an
/// eager flush vs. a cell crossed the lazy threshold) and how much backlog
/// each threshold flush carried — the two numbers that tell whether the
/// adaptive threshold is actually batching under a given workload.
#[derive(Debug)]
struct CombinerMetrics {
    /// Publications forced by a registered waiter (the eager path).
    eager_publishes: Arc<Event>,
    /// Publications triggered by a cell reaching the flush threshold.
    threshold_publishes: Arc<Event>,
    /// The triggering cell's pending delta at each threshold flush.
    flush_backlog: Arc<Histogram>,
}

impl CombinerMetrics {
    fn attach(sink: &MetricsSink) -> Self {
        CombinerMetrics {
            eager_publishes: sink.event("combiner.eager_publishes"),
            threshold_publishes: sink.event("combiner.threshold_publishes"),
            flush_backlog: sink.histogram("combiner.flush_backlog"),
        }
    }
}

/// A monotonic counter whose increments are striped across cache-line-padded
/// per-thread cells, for write-heavy contention.
///
/// Semantically interchangeable with [`crate::Counter`]: checks and wake-ups
/// observe a single monotonically published value, waiters suspend on the
/// Section 7 waitlist, and poisoning behaves identically. The difference is
/// purely operational: uncontended *and contended* increments are one
/// `fetch_add` on a private cache line, and the running sum is published
/// into the packed fast word by a waiter-aware combiner (see the module
/// docs).
///
/// Construct via [`ShardedCounter::builder`]; the builder's `shards` knob
/// sets the stripe count (rounded up to a power of two, default derived from
/// [`std::thread::available_parallelism`]) and its `capacity` knob bounds
/// the per-cell unpublished backlog.
#[repr(C)] // `core` last keeps its stats block away from the hot fields
pub struct ShardedCounter {
    cells: Box<[Cell]>,
    /// `cells.len() - 1`; cell count is always a power of two.
    mask: usize,
    /// Adaptive lazy-flush threshold, in `[MIN_FLUSH_THRESHOLD,
    /// max_backlog]`. Doubled on quiet flushes, reset when a waiter
    /// registers.
    flush_threshold: AtomicU64,
    /// Upper bound for `flush_threshold` (the builder's `capacity`).
    max_backlog: u64,
    metrics: Option<CombinerMetrics>,
    /// The published value, the waitlist and the stats: everything but the
    /// cells and the combiner.
    core: BTreeCounter,
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCounter")
            .field("published", &self.core.fast.value_hint())
            .field("pending", &self.pending())
            .field("shards", &self.cells.len())
            .finish()
    }
}

/// Round-robin allocator for per-thread stripe slots: the first counter a
/// thread touches assigns it a process-wide slot, reused for every sharded
/// counter (distinct counters have distinct cell arrays, so sharing the slot
/// keeps a thread on one line per counter without per-counter registration).
fn thread_slot() -> usize {
    static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT_SLOT.fetch_add(1, Relaxed);
    }
    SLOT.with(|s| *s)
}

/// Default stripe count: the machine's parallelism rounded up to a power of
/// two, clamped to `[4, 64]` (a floor of 4 keeps striping observable on
/// small hosts; 64 bounds the drain cost and the footprint).
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 64)
}

impl ShardedCounter {
    /// Starts building a sharded counter: set `shards`, `capacity`,
    /// `initial`, then [`build`](CounterBuilder::build).
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// The number of increment stripes (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Sum of the not-yet-published per-cell deltas. Diagnostics only: the
    /// snapshot is not atomic across cells.
    pub fn pending(&self) -> Value {
        self.cells.iter().map(|c| c.pending.load(Relaxed)).sum()
    }

    /// The current adaptive flush threshold (diagnostics/tests).
    pub fn flush_threshold(&self) -> u64 {
        self.flush_threshold.load(Relaxed)
    }

    fn cell(&self) -> &Cell {
        &self.cells[thread_slot() & self.mask]
    }

    /// Drains every cell. The caller must publish the returned sum (the
    /// deltas are no longer anywhere else); every call site publishes before
    /// returning to the user.
    fn drain_cells(&self) -> Value {
        self.cells.iter().map(|c| c.pending.swap(0, AcqRel)).sum()
    }

    /// Drains the cells and publishes their sum under the lock; see
    /// [`publish`](Self::publish).
    fn publish_locked(&self, inner: &mut Inner<WaitMap>) -> Vec<Arc<WaitNode>> {
        let pending = self.drain_cells();
        self.publish(inner, pending)
    }

    /// Publishes drained deltas into the fast word under the lock, sweeping
    /// the newly satisfied waiters. Returns the swept nodes (signalled, not
    /// yet notified). Infallible: pending sums stay far below overflow while
    /// the published value is in the fast regime, and the one way out of
    /// that regime mid-park (a concurrent jump, below) saturates instead of
    /// failing.
    ///
    /// Like the core's `add_locked`, this does **not** clear the waiters bit
    /// on an emptied queue: `register_and_drain` calls it between setting
    /// the bit and the caller's node insertion, where clearing would let
    /// increments go lazy under a live waiter. Every other call site ends in
    /// `WaitCore::release`, which settles the bit once no registration is in
    /// flight.
    fn publish(&self, inner: &mut Inner<WaitMap>, pending: Value) -> Vec<Arc<WaitNode>> {
        if pending == 0 {
            return Vec::new();
        }
        // Deltas are parked only while the published value is inside the
        // fast regime, but the gate load in `try_increment` races concurrent
        // `advance_to`/`raise` jumps that can land the value near
        // `u64::MAX` before the delta is flushed. Such a delta necessarily
        // overlapped the jump (a non-overlapping increment re-reads the word
        // and takes the exact locked path), so linearizing it *before* the
        // jump — where it fits below the jump target and is subsumed by it —
        // is a valid history: saturate at `u64::MAX`, the counter's terminal
        // value, rather than panic in whichever thread flushes next.
        self.core.add_locked(inner, pending).unwrap_or_else(|_| {
            self.core
                .advance_locked(inner, Value::MAX)
                .unwrap_or_default()
        })
    }

    /// Drains the cells and publishes, taking the lock only when waiters (or
    /// word saturation) force it. Called from the lazy-flush trigger and from
    /// the self-service tier of `wait`.
    fn combine(&self) {
        let pending = self.drain_cells();
        if pending == 0 {
            return;
        }
        match self.core.fast.try_increment(pending) {
            FastIncrement::Done => {}
            // Waiters registered or hint saturated: publish under the lock
            // so the sweep runs (`publish` absorbs the saturation corner, so
            // no error can surface here).
            FastIncrement::Contended | FastIncrement::Overflow(_) => {
                let mut inner = self.core.lock();
                self.core.stats.record_slow_entry();
                let woken = self.publish(&mut inner, pending);
                self.core.release(inner, woken);
            }
        }
    }

    /// The eager publication path: the caller observed the has-waiters bit
    /// (or a published value outside the fast regime) after parking a delta,
    /// so drain and publish under the lock, waking whoever the new value
    /// satisfies.
    fn flush_for_waiters(&self) {
        let mut inner = self.core.lock();
        self.core.stats.record_slow_entry();
        let woken = self.publish_locked(&mut inner);
        self.core.release(inner, woken);
    }

    /// Grows the adaptive threshold after a flush no waiter was hurt by.
    fn relax_threshold(&self) {
        let cur = self.flush_threshold.load(Relaxed);
        if cur < self.max_backlog {
            // Racy doubling is fine: the threshold is a heuristic, and every
            // transition keeps it within [MIN_FLUSH_THRESHOLD, max_backlog].
            self.flush_threshold
                .store((cur * 2).min(self.max_backlog), Relaxed);
        }
    }

    /// Slow path of `increment`: drain, publish pending, then apply `amount`
    /// with exact overflow checking, sweeping and waking as one atomic step
    /// under the lock.
    fn raise(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let mut inner = self.core.lock();
        self.core.stats.record_slow_entry();
        let mut woken = self.publish_locked(&mut inner);
        // The pending publication may have swept waiters, so the overflow
        // arm must still wake them — an early `?` here would strand them in
        // `Condvar::wait`.
        let result = self.core.add_locked(&mut inner, amount).map(|more| {
            self.core.stats.record_increment();
            woken.extend(more);
        });
        self.core.release(inner, woken);
        result
    }

    /// Registers the waiter bit, drains the cells (the fence pair with the
    /// increment fast path — see the module docs), publishes, and returns
    /// the resulting value. Lock held.
    fn register_and_drain(&self, inner: &mut Inner<WaitMap>) -> Value {
        self.core.fast.register_waiter(inner.wide);
        fence(SeqCst);
        for node in self.publish_locked(inner) {
            // Notifying while holding the lock is safe (waiters re-acquire
            // it inside `Condvar::wait` anyway) and keeps this path simple.
            node.cv.notify_all();
        }
        // With the bit set no lock-free path moves the word any more, so
        // this is the registering RMW's value plus what was just published.
        self.core.fast.locked_value(inner.wide)
    }

    /// The slow half of `wait`/`wait_timeout`: self-service combine, then
    /// the core's blocking wait with cell draining as its registration step.
    fn wait_slow(&self, level: Value, timeout: Option<Duration>) -> Result<(), CheckError> {
        // Tier 2: self-service combine — publish the cells and re-test, so a
        // logically reached value never suspends its observer. Lock-free
        // while no waiters are registered.
        self.combine();
        if self.core.fast.is_satisfied(level) {
            self.core.stats.record_fast_check();
            return Ok(());
        }
        // Tier 3: the Section 7 waitlist. A waiter snaps the threshold back
        // to eager, so the published value stays fresh while it watches.
        let deadline = timeout.map(|t| Instant::now() + t);
        self.flush_threshold.store(MIN_FLUSH_THRESHOLD, Relaxed);
        self.core
            .wait_until(level, deadline, |inner| self.register_and_drain(inner))
    }
}

impl MonotonicCounter for ShardedCounter {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let fast = &self.core.fast;
        // Fast-regime gate: one read-mostly load. Outside it (huge amounts,
        // waiters already known, values near saturation) take the exact
        // locked path directly instead of parking the delta.
        if amount > MAX_FAST_AMOUNT || fast.value_hint() >= FAST_REGIME_LIMIT {
            return self.raise(amount);
        }
        let cell = &self.cell().pending;
        let pend = cell.fetch_add(amount, AcqRel) + amount;
        self.core.stats.record_fast_increment();
        // Dekker handshake with a registering waiter: cell RMW, fence, then
        // the waiters-bit test (the waiter does bit RMW, fence, cell drain).
        fence(SeqCst);
        if fast.value_hint() >= FAST_REGIME_LIMIT {
            // A concurrent advance/raise jumped the published value past the
            // regime gate while we parked. Flush through the lock right away
            // so the delta is folded in (or saturated, see `publish_locked`)
            // instead of lingering in a cell outside the bounded regime.
            self.flush_for_waiters();
        } else if fast.has_waiters() {
            if let Some(m) = &self.metrics {
                m.eager_publishes.incr();
            }
            self.flush_for_waiters();
        } else if pend >= self.flush_threshold.load(Relaxed) {
            if let Some(m) = &self.metrics {
                m.threshold_publishes.incr();
                m.flush_backlog.record(pend);
            }
            self.combine();
            self.relax_threshold();
        }
        Ok(())
    }

    fn advance_to(&self, target: Value) {
        // Published ≥ target ⇒ the true value is too: nothing to do.
        if self.core.fast.is_satisfied(target) {
            return;
        }
        // Self-service combine: the logical value may already satisfy the
        // target even though the published word lags.
        self.combine();
        match self.core.fast.try_advance(target) {
            FastAdvance::Raised => {
                self.core.stats.record_fast_increment();
                return;
            }
            FastAdvance::NoOp => return,
            FastAdvance::Contended => {}
        }
        let mut inner = self.core.lock();
        self.core.stats.record_slow_entry();
        let mut woken = self.publish_locked(&mut inner);
        if let Some(more) = self.core.advance_locked(&mut inner, target) {
            self.core.stats.record_increment();
            woken.extend(more);
        }
        self.core.release(inner, woken);
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        // Tier 1: one Acquire load of the published word (identical to every
        // other packed-word implementation — sharding does not touch this).
        if self.core.fast.is_satisfied(level) {
            self.core.stats.record_fast_check();
            return Ok(());
        }
        self.wait_slow(level, None)
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        if self.core.fast.is_satisfied(level) {
            self.core.stats.record_fast_check();
            return Ok(());
        }
        self.wait_slow(level, Some(timeout))
    }

    fn poison(&self, info: FailureInfo) {
        // Publish pending deltas first: waiters whose levels the true value
        // already satisfies wake successfully (satisfied-first semantics),
        // only genuinely unsatisfiable ones are poisoned.
        self.core
            .poison_after(info, |inner| self.publish_locked(inner));
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.core.poison_info()
    }
}

impl Buildable for ShardedCounter {
    fn from_config(cfg: &BuildConfig) -> Self {
        let shards = cfg
            .shards()
            .unwrap_or_else(default_shards)
            .clamp(1, 1024)
            .next_power_of_two();
        let max_backlog = cfg
            .capacity()
            .map(|c| (c as u64).clamp(MIN_FLUSH_THRESHOLD, MAX_BACKLOG_LIMIT))
            .unwrap_or(DEFAULT_MAX_BACKLOG);
        ShardedCounter {
            core: BTreeCounter::from_config(cfg),
            cells: (0..shards).map(|_| Cell::default()).collect(),
            mask: shards - 1,
            flush_threshold: AtomicU64::new(MIN_FLUSH_THRESHOLD),
            max_backlog,
            metrics: cfg.metrics().map(CombinerMetrics::attach),
        }
    }
}

impl ResumableCounter for ShardedCounter {
    fn resume_from(value: Value) -> Self {
        Self::builder().initial(value).build()
    }
}

impl Resettable for ShardedCounter {
    fn reset(&mut self) {
        for cell in self.cells.iter_mut() {
            *cell.pending.get_mut() = 0;
        }
        self.core.reset();
        *self.flush_threshold.get_mut() = MIN_FLUSH_THRESHOLD;
    }
}

impl CounterDiagnostics for ShardedCounter {
    fn debug_value(&self) -> Value {
        // Published plus unpublished. Racy across cells (diagnostics only),
        // exact whenever the counter is quiescent.
        self.core.debug_value() + self.pending()
    }

    fn stats(&self) -> StatsSnapshot {
        self.core.stats()
    }

    fn impl_name(&self) -> &'static str {
        "sharded"
    }

    fn waiters(&self) -> Vec<WaitingLevel> {
        self.core.waiters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonotonicCounter;
    use std::thread;

    #[test]
    fn increments_park_in_cells_until_the_threshold() {
        let c = ShardedCounter::builder().build();
        c.increment(1);
        assert_eq!(c.pending(), 1, "small increments stay in the cell");
        assert_eq!(c.debug_value(), 1, "debug_value includes pending");
        // Cross the minimum threshold: everything publishes.
        c.increment(MIN_FLUSH_THRESHOLD);
        assert_eq!(c.pending(), 0, "threshold flush drains the cells");
        assert_eq!(c.debug_value(), MIN_FLUSH_THRESHOLD + 1);
    }

    #[test]
    fn satisfied_check_is_fast_even_with_pending() {
        let c = ShardedCounter::builder().build();
        c.increment(20); // crosses the threshold, publishes
        c.check(20);
        let s = c.stats();
        assert_eq!(s.fast_checks, 1);
        assert_eq!(s.slow_path_entries, 0);
    }

    #[test]
    fn check_self_serves_pending_deltas() {
        let c = ShardedCounter::builder().build();
        c.increment(3); // below threshold: parked
                        // The published word says 0, but the check must not suspend.
        c.check(3);
        assert_eq!(c.pending(), 0, "the check published the cells itself");
        let s = c.stats();
        assert_eq!(s.suspensions, 0);
    }

    #[test]
    fn threshold_adapts_up_and_snaps_back() {
        let c = ShardedCounter::builder().capacity(64).build();
        assert_eq!(c.flush_threshold(), MIN_FLUSH_THRESHOLD);
        for _ in 0..100 {
            c.increment(MIN_FLUSH_THRESHOLD);
        }
        assert!(
            c.flush_threshold() > MIN_FLUSH_THRESHOLD,
            "quiet flushes must relax the threshold"
        );
        assert!(c.flush_threshold() <= 64, "capacity bounds the threshold");
        // An (unsatisfied) wait snaps it back to eager.
        let _ = c.wait_timeout(u64::MAX / 2, Duration::from_millis(1));
        assert_eq!(c.flush_threshold(), MIN_FLUSH_THRESHOLD);
    }

    #[test]
    fn waiter_forces_eager_publication() {
        let c = Arc::new(ShardedCounter::builder().build());
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(3));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        // Each increment must publish eagerly now: one single-unit increment
        // at a time, far below any threshold.
        c.increment(1);
        c.increment(1);
        c.increment(1);
        h.join().unwrap();
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn no_lost_increments_across_threads() {
        let c = Arc::new(ShardedCounter::builder().shards(8).build());
        let threads = 8;
        let per_thread = 10_000u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..per_thread {
                    c.increment(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.debug_value(), threads as u64 * per_thread);
        c.check(threads as u64 * per_thread);
    }

    #[test]
    fn writers_race_waiters_without_losing_wakeups() {
        for _ in 0..20 {
            let c = Arc::new(ShardedCounter::builder().shards(4).build());
            let mut handles = Vec::new();
            for level in 1..=8u64 {
                let c = Arc::clone(&c);
                handles.push(thread::spawn(move || {
                    c.check_timeout(level * 4, Duration::from_secs(10))
                }));
            }
            for _ in 0..8 {
                let c = Arc::clone(&c);
                handles.push(thread::spawn(move || {
                    for _ in 0..4 {
                        c.increment(1);
                    }
                    Ok(())
                }));
            }
            for h in handles {
                assert_eq!(h.join().unwrap(), Ok(()));
            }
            assert_eq!(c.debug_value(), 32);
        }
    }

    #[test]
    fn exact_overflow_errors_with_pending_deltas() {
        let c = ShardedCounter::builder().build();
        c.increment(5); // parked
        c.increment(u64::MAX - 6); // huge: locked path, publishes the 5 first
        assert_eq!(c.debug_value(), u64::MAX - 1);
        let err = c.try_increment(2).unwrap_err();
        assert_eq!(err.value, u64::MAX - 1);
        assert_eq!(err.amount, 2);
        c.increment(1);
        assert_eq!(c.debug_value(), u64::MAX);
        c.check(u64::MAX);
    }

    #[test]
    fn advance_to_respects_pending_deltas() {
        let c = ShardedCounter::builder().build();
        c.increment(5); // parked: published word still 0
        c.advance_to(3); // below the true value: must be a no-op
        assert_eq!(c.debug_value(), 5, "advance below the true value raised it");
        c.advance_to(9);
        assert_eq!(c.debug_value(), 9);
    }

    #[test]
    fn poison_publishes_before_sweeping() {
        let c = Arc::new(ShardedCounter::builder().build());
        let sat = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(2))
        };
        let unsat = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(100))
        };
        while c.stats().live_waiters < 2 {
            thread::yield_now();
        }
        // Parked via the eager path (waiters exist), so both are published;
        // then poison. The level-2 waiter must succeed, the level-100 one
        // must fail.
        c.increment(2);
        c.poison(FailureInfo::new("writer died"));
        assert_eq!(sat.join().unwrap(), Ok(()));
        assert!(matches!(
            unsat.join().unwrap(),
            Err(CheckError::Poisoned(_))
        ));
    }

    /// Regression: an overflowing `raise` used to early-return after the
    /// pending publication had already signalled-and-removed waiters,
    /// skipping their `notify_all` — the waiter below would hang forever.
    #[test]
    fn overflowing_raise_still_wakes_swept_waiters() {
        let c = Arc::new(ShardedCounter::builder().build());
        let waiter = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.wait(1))
        };
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        // Park a delta directly in a cell, bypassing the eager flush — the
        // in-flight window between an increment's fetch_add and its
        // waiters-bit test.
        c.cells[0].pending.fetch_add(1, AcqRel);
        // The huge increment drains and publishes the delta (satisfying the
        // waiter) and then overflows in the same critical section.
        let err = c.try_increment(u64::MAX).unwrap_err();
        assert_eq!(err.value, 1);
        assert_eq!(err.amount, u64::MAX);
        assert_eq!(waiter.join().unwrap(), Ok(()));
    }

    /// Regression: a delta parked behind a stale fast-regime gate used to
    /// panic the next flusher when a concurrent jump pushed the published
    /// value to `u64::MAX`; publication now saturates.
    #[test]
    fn flush_after_value_jump_saturates_instead_of_panicking() {
        let c = ShardedCounter::builder().build();
        c.advance_to(u64::MAX);
        // Simulate the racy incrementer whose gate load predated the jump.
        c.cells[0].pending.fetch_add(5, AcqRel);
        c.combine();
        assert_eq!(c.debug_value(), u64::MAX);
        c.check(u64::MAX);
        // Exact overflow errors continue at the terminal value.
        let err = c.try_increment(1).unwrap_err();
        assert_eq!(err.value, u64::MAX);
        assert_eq!(err.amount, 1);
    }

    #[test]
    fn capacity_is_clamped_to_safe_bounds() {
        let huge = ShardedCounter::builder().capacity(usize::MAX).build();
        assert_eq!(huge.max_backlog, MAX_BACKLOG_LIMIT);
        let tiny = ShardedCounter::builder().capacity(0).build();
        assert_eq!(tiny.max_backlog, MIN_FLUSH_THRESHOLD);
    }

    #[test]
    fn shard_count_is_power_of_two_and_clamped() {
        assert_eq!(ShardedCounter::builder().shards(3).build().shard_count(), 4);
        assert_eq!(ShardedCounter::builder().shards(1).build().shard_count(), 1);
        let d = ShardedCounter::builder().build().shard_count();
        assert!(d.is_power_of_two() && (4..=64).contains(&d));
    }

    #[test]
    fn combiner_metrics_distinguish_eager_from_threshold() {
        let registry = Arc::new(mc_metrics::Registry::new());
        let c = Arc::new(
            ShardedCounter::builder()
                .metrics(&registry, "sc")
                .shards(1)
                .build(),
        );
        // Lazy regime: crossing the threshold publishes and records backlog.
        c.increment(MIN_FLUSH_THRESHOLD);
        assert_eq!(registry.event("sc.combiner.threshold_publishes").get(), 1);
        let backlog = registry.histogram("sc.combiner.flush_backlog").snapshot();
        assert_eq!(backlog.count(), 1);
        assert!(backlog.max >= MIN_FLUSH_THRESHOLD);
        // Eager regime: a registered waiter forces per-increment publication.
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || c2.check(MIN_FLUSH_THRESHOLD + 2));
        while c.stats().live_waiters == 0 {
            thread::yield_now();
        }
        c.increment(1);
        c.increment(1);
        h.join().unwrap();
        assert!(registry.event("sc.combiner.eager_publishes").get() >= 1);
    }

    #[test]
    fn reset_clears_cells_and_threshold() {
        let mut c = ShardedCounter::builder().build();
        c.increment(3);
        for _ in 0..50 {
            c.increment(MIN_FLUSH_THRESHOLD);
        }
        c.reset();
        assert_eq!(c.debug_value(), 0);
        assert_eq!(c.pending(), 0);
        assert_eq!(c.flush_threshold(), MIN_FLUSH_THRESHOLD);
        c.increment(1);
        c.check(1);
    }
}
