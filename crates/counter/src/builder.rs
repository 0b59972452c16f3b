//! [`CounterBuilder`]: the single construction path for every counter
//! implementation.
//!
//! Before the builder, each implementation grew its own ad-hoc constructors
//! (`new`, `with_value`, tracing and ablation variants), and adding a knob
//! meant touching every one of them. The builder centralizes construction:
//!
//! ```
//! use mc_counter::{Counter, ShardedCounter, MonotonicCounter};
//!
//! let c = Counter::builder().initial(10).build();
//! c.check(10);
//!
//! let s = ShardedCounter::builder()
//!     .shards(8)       // increment stripes (sharded counters only)
//!     .capacity(256)   // max unpublished backlog per stripe
//!     .build();
//! s.increment(1);
//! ```
//!
//! Every implementation accepts every knob; knobs that do not apply to an
//! implementation (e.g. `shards` on a mutex-only counter) are documented as
//! ignored rather than rejected, so generic code can configure a
//! `CounterBuilder<C>` without knowing `C`. It is the only constructor:
//! `Type::default()` builds with every knob at its default.

use crate::Value;
use mc_metrics::{Event, Histogram, Registry};
use std::marker::PhantomData;
use std::sync::Arc;

/// A destination for a counter's metrics: a shared [`Registry`] plus the
/// dot-separated name prefix this counter publishes under. Passed through
/// the builder ([`CounterBuilder::metrics`]); implementations that support
/// instrumentation (the [`MeteredCounter`](crate::MeteredCounter) wrapper,
/// [`ShardedCounter`](crate::ShardedCounter)'s combiner) attach to it at
/// construction, everything else ignores it. `None` — the default — costs
/// nothing: no handle is held and no record call is compiled into the path.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    registry: Arc<Registry>,
    prefix: String,
}

impl MetricsSink {
    /// A sink publishing under `prefix` (e.g. `"jobs"` → `jobs.increments`).
    pub fn new(registry: Arc<Registry>, prefix: impl Into<String>) -> Self {
        MetricsSink {
            registry,
            prefix: prefix.into(),
        }
    }

    /// The registry metrics are published to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The name prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The event counter `<prefix>.<suffix>`, created on first use.
    pub fn event(&self, suffix: &str) -> Arc<Event> {
        self.registry.event(&format!("{}.{suffix}", self.prefix))
    }

    /// The histogram `<prefix>.<suffix>`, created on first use.
    pub fn histogram(&self, suffix: &str) -> Arc<Histogram> {
        self.registry
            .histogram(&format!("{}.{suffix}", self.prefix))
    }
}

/// What [`MonotonicCounter::poison`](crate::MonotonicCounter::poison) does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoisonPolicy {
    /// Record the failure and wake all blocked waiters with
    /// [`CheckError::Poisoned`](crate::CheckError::Poisoned) — the default,
    /// and the PR-2 failure-propagation semantics.
    #[default]
    Propagate,
    /// Ignore `poison` calls entirely: waits keep blocking until satisfied.
    /// For harnesses that inject failures elsewhere and want the counter
    /// itself inert.
    Ignore,
    /// Degrade instead of poisoning when the counter's *backing resource*
    /// fails (the durability layer's WAL): the counter keeps serving from
    /// the in-memory fast path, reports `Degraded` health, and self-heals
    /// when the resource recovers. Explicit `poison` calls still propagate
    /// exactly as under [`Propagate`] — the policy only reroutes *internal*
    /// resource failures. Purely in-memory counters have no backing resource
    /// to degrade on, so for them this behaves identically to `Propagate`.
    Degrade,
}

/// The resolved knob set a [`CounterBuilder`] hands to
/// [`Buildable::from_config`].
///
/// Public so external implementations of [`Buildable`] can read the knobs;
/// constructed only through the builder.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    initial: Value,
    shards: Option<usize>,
    capacity: Option<usize>,
    stats: bool,
    poison: PoisonPolicy,
    metrics: Option<MetricsSink>,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            initial: 0,
            shards: None,
            capacity: None,
            stats: true,
            poison: PoisonPolicy::Propagate,
            metrics: None,
        }
    }
}

impl BuildConfig {
    /// The starting value (default 0).
    pub fn initial(&self) -> Value {
        self.initial
    }

    /// Requested increment-stripe count, if set. Only sharded
    /// implementations consult it.
    pub fn shards(&self) -> Option<usize> {
        self.shards
    }

    /// Requested capacity bound, if set. For sharded implementations this
    /// bounds the unpublished per-stripe backlog; others ignore it.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether statistics collection is on (default true).
    pub fn stats_enabled(&self) -> bool {
        self.stats
    }

    /// The poison policy (default [`PoisonPolicy::Propagate`]).
    pub fn poison_policy(&self) -> PoisonPolicy {
        self.poison
    }

    /// The metrics sink, if instrumentation was requested
    /// ([`CounterBuilder::metrics`]). Implementations without
    /// instrumentation points ignore it.
    pub fn metrics(&self) -> Option<&MetricsSink> {
        self.metrics.as_ref()
    }

    /// Convenience: whether explicit `poison` calls take effect. True for
    /// [`PoisonPolicy::Propagate`] and [`PoisonPolicy::Degrade`] (which only
    /// reroutes internal resource failures), false for
    /// [`PoisonPolicy::Ignore`].
    pub fn poison_propagates(&self) -> bool {
        self.poison != PoisonPolicy::Ignore
    }
}

/// Implemented by every counter that can be constructed from a
/// [`BuildConfig`] — the hook [`CounterBuilder::build`] calls.
pub trait Buildable: Sized {
    /// Constructs the counter from the resolved knob set. Implementations
    /// must honor `initial`, `stats_enabled` and `poison_policy`, and may
    /// ignore knobs that do not apply to their design (documenting so).
    fn from_config(cfg: &BuildConfig) -> Self;
}

/// Fluent construction for any counter implementation.
///
/// Obtain one from the implementation's inherent `builder()` method (e.g.
/// [`Counter::builder`](crate::Counter::builder)) or, in generic code, from
/// `CounterBuilder::<C>::new()`.
#[derive(Debug)]
pub struct CounterBuilder<C: Buildable> {
    cfg: BuildConfig,
    _counter: PhantomData<fn() -> C>,
}

impl<C: Buildable> Default for CounterBuilder<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Buildable> CounterBuilder<C> {
    /// A builder with all knobs at their defaults: initial value 0, stats
    /// on, poisoning propagates, implementation-chosen shards/capacity.
    pub fn new() -> Self {
        CounterBuilder {
            cfg: BuildConfig::default(),
            _counter: PhantomData,
        }
    }

    /// Starting value (phase-reuse and resume scenarios; equivalent to
    /// building at 0 and calling `advance_to(value)`).
    pub fn initial(mut self, value: Value) -> Self {
        self.cfg.initial = value;
        self
    }

    /// Number of increment stripes for sharded implementations (rounded up
    /// to a power of two; implementation-clamped). Ignored by unsharded
    /// implementations.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = Some(shards);
        self
    }

    /// Capacity bound. For sharded implementations: the maximum unpublished
    /// backlog a stripe may accumulate before a flush is forced, clamped to
    /// `[8, 2^30]` — the upper bound keeps pending sums far below the range
    /// where publication arithmetic could overflow. Ignored by
    /// implementations without internal buffering.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.cfg.capacity = Some(capacity);
        self
    }

    /// Turns statistics collection on or off (default on). With stats off,
    /// [`CounterDiagnostics::stats`](crate::CounterDiagnostics::stats)
    /// reports zeros — including `live_waiters`, which tests often poll — so
    /// leave stats on anywhere diagnostics matter.
    pub fn stats(mut self, enabled: bool) -> Self {
        self.cfg.stats = enabled;
        self
    }

    /// Sets the poison policy (default [`PoisonPolicy::Propagate`]).
    pub fn poison_policy(mut self, policy: PoisonPolicy) -> Self {
        self.cfg.poison = policy;
        self
    }

    /// Publishes this counter's metrics under `prefix` in `registry`
    /// (default: no instrumentation, zero overhead). Only implementations
    /// with instrumentation points consult the sink: the
    /// [`MeteredCounter`](crate::MeteredCounter) wrapper records operation
    /// counts and latency histograms, and
    /// [`ShardedCounter`](crate::ShardedCounter) records combiner
    /// publications and flush backlog. Plain implementations ignore it.
    pub fn metrics(mut self, registry: &Arc<Registry>, prefix: impl Into<String>) -> Self {
        self.cfg.metrics = Some(MetricsSink::new(Arc::clone(registry), prefix));
        self
    }

    /// Constructs the counter.
    pub fn build(self) -> C {
        C::from_config(&self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BTreeCounter, Counter, CounterDiagnostics, FailureInfo, MonitorCounter, MonotonicCounter,
        NaiveCounter, ShardedCounter, SpinCounter, TracingCounter,
    };

    fn exercise<C: Buildable + MonotonicCounter + CounterDiagnostics>() {
        let c = CounterBuilder::<C>::new().initial(5).build();
        assert_eq!(c.debug_value(), 5);
        c.increment(2);
        c.check(7);
    }

    #[test]
    fn every_impl_builds_with_initial_value() {
        exercise::<Counter>();
        exercise::<BTreeCounter>();
        exercise::<NaiveCounter>();
        exercise::<TracingCounter>();
        exercise::<SpinCounter>();
        exercise::<MonitorCounter>();
        exercise::<ShardedCounter>();
    }

    #[test]
    fn stats_off_reports_zeros() {
        let c = Counter::builder().stats(false).build();
        c.increment(3);
        c.check(1);
        let s = c.stats();
        assert_eq!(s.increments, 0);
        assert_eq!(s.checks, 0);
        assert_eq!(s.slow_path_entries, 0);
    }

    #[test]
    fn poison_ignore_keeps_waits_alive() {
        let c = Counter::builder()
            .poison_policy(PoisonPolicy::Ignore)
            .build();
        c.poison(FailureInfo::new("ignored"));
        assert!(c.poison_info().is_none());
        // A satisfied wait still works; an unsatisfied one would block, so
        // only probe the satisfied side here.
        c.increment(1);
        assert_eq!(c.wait(1), Ok(()));
    }

    #[test]
    fn defaults_match_the_legacy_constructors() {
        let built = Counter::builder().build();
        assert_eq!(built.debug_value(), 0);
        assert!(built.poison_info().is_none());
        let snap = built.stats();
        assert_eq!(snap, crate::StatsSnapshot::default());
    }
}
