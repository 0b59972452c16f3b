//! [`MonitorCounter`]: a counter expressed as a predicate monitor.
//!
//! The paper's Section 8 places counters alongside monitors in the design
//! space; this implementation demonstrates the layering directly — a counter
//! *is* expressible as a monitor on its value with the predicate
//! `value >= level`, at the cost of the monitor's single suspension queue:
//! like [`crate::NaiveCounter`], every state change wakes every waiter.
//! Included for the E7 ablation discussion.

use crate::builder::{BuildConfig, Buildable, CounterBuilder};
use crate::error::{CheckError, CheckTimeoutError, CounterOverflowError, FailureInfo};
use crate::stats::{Stats, StatsSnapshot};
use crate::traits::{CounterDiagnostics, MonotonicCounter, Resettable, ResumableCounter};
use crate::Value;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

struct State {
    value: Value,
    poisoned: Option<FailureInfo>,
}

/// A monotonic counter implemented in monitor style: one mutex-guarded value,
/// one condition variable, predicate waits.
pub struct MonitorCounter {
    state: Mutex<State>,
    cv: Condvar,
    stats: Stats,
    poison_enabled: bool,
}

impl Default for MonitorCounter {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Buildable for MonitorCounter {
    fn from_config(cfg: &BuildConfig) -> Self {
        MonitorCounter {
            state: Mutex::new(State {
                value: cfg.initial(),
                poisoned: None,
            }),
            cv: Condvar::new(),
            stats: Stats::with_enabled(cfg.stats_enabled()),
            poison_enabled: cfg.poison_propagates(),
        }
    }
}

impl MonitorCounter {
    /// Starts building a counter; see [`CounterBuilder`].
    pub fn builder() -> CounterBuilder<Self> {
        CounterBuilder::new()
    }

    /// Monitor-style update: mutate under the lock, then signal all waiters
    /// so they re-evaluate their predicates.
    fn update(
        &self,
        f: impl FnOnce(&mut Value) -> Result<(), CounterOverflowError>,
    ) -> Result<(), CounterOverflowError> {
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        f(&mut state.value)?;
        drop(state);
        self.stats.record_notify();
        self.cv.notify_all();
        Ok(())
    }
}

impl MonotonicCounter for MonitorCounter {
    fn increment(&self, amount: Value) {
        self.try_increment(amount)
            .unwrap_or_else(|e| panic!("monotonic counter overflow: {e}"));
    }

    fn try_increment(&self, amount: Value) -> Result<(), CounterOverflowError> {
        let r = self.update(|value| {
            *value = value.checked_add(amount).ok_or(CounterOverflowError {
                value: *value,
                amount,
            })?;
            Ok(())
        });
        if r.is_ok() {
            self.stats.record_increment();
        }
        r
    }

    fn wait(&self, level: Value) -> Result<(), CheckError> {
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        if state.value >= level {
            self.stats.record_check_immediate();
            return Ok(());
        }
        self.stats.record_check_suspended();
        while state.value < level {
            if let Some(info) = &state.poisoned {
                let info = info.clone();
                self.stats.record_waiter_resumed();
                return Err(CheckError::Poisoned(info));
            }
            state = self.cv.wait(state).expect("counter lock poisoned");
        }
        self.stats.record_waiter_resumed();
        Ok(())
    }

    fn wait_timeout(&self, level: Value, timeout: Duration) -> Result<(), CheckError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        if state.value >= level {
            self.stats.record_check_immediate();
            return Ok(());
        }
        self.stats.record_check_suspended();
        while state.value < level {
            if let Some(info) = &state.poisoned {
                let info = info.clone();
                self.stats.record_waiter_resumed();
                return Err(CheckError::Poisoned(info));
            }
            let now = Instant::now();
            if now >= deadline {
                self.stats.record_waiter_resumed();
                return Err(CheckError::Timeout(CheckTimeoutError { level }));
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("counter lock poisoned");
            state = guard;
        }
        self.stats.record_waiter_resumed();
        Ok(())
    }

    fn poison(&self, info: FailureInfo) {
        if !self.poison_enabled {
            return;
        }
        let mut state = self.state.lock().expect("counter lock poisoned");
        if state.poisoned.is_some() {
            return;
        }
        state.poisoned = Some(info);
        self.stats.record_notify();
        drop(state);
        self.cv.notify_all();
    }

    fn poison_info(&self) -> Option<FailureInfo> {
        self.state
            .lock()
            .expect("counter lock poisoned")
            .poisoned
            .clone()
    }

    fn advance_to(&self, target: Value) {
        let mut state = self.state.lock().expect("counter lock poisoned");
        self.stats.record_slow_entry();
        if target <= state.value {
            return;
        }
        state.value = target;
        self.stats.record_increment();
        drop(state);
        self.stats.record_notify();
        self.cv.notify_all();
    }
}

impl ResumableCounter for MonitorCounter {
    fn resume_from(value: Value) -> Self {
        Self::builder().initial(value).build()
    }
}

impl Resettable for MonitorCounter {
    fn reset(&mut self) {
        let state = self.state.get_mut().expect("counter lock poisoned");
        state.value = 0;
        state.poisoned = None;
    }
}

impl CounterDiagnostics for MonitorCounter {
    fn debug_value(&self) -> Value {
        self.state.lock().expect("counter lock poisoned").value
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn impl_name(&self) -> &'static str {
        "monitor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_and_wake() {
        let c = Arc::new(MonitorCounter::default());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.check(3));
        c.increment(3);
        h.join().unwrap();
    }

    #[test]
    fn every_increment_signals() {
        let c = MonitorCounter::default();
        c.increment(1);
        c.increment(1);
        assert_eq!(c.stats().notifies, 2);
    }

    #[test]
    fn poison_fails_the_predicate_wait() {
        let c = Arc::new(MonitorCounter::default());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.wait(5));
        while c.stats().live_waiters == 0 {
            std::thread::yield_now();
        }
        c.poison(FailureInfo::new("monitor failure"));
        assert!(matches!(h.join().unwrap(), Err(CheckError::Poisoned(_))));
        assert_eq!(c.poison_info().unwrap().message(), "monitor failure");
    }

    #[test]
    fn overflow_does_not_signal() {
        let c = MonitorCounter::default();
        c.increment(u64::MAX);
        let before = c.stats().notifies;
        assert!(c.try_increment(1).is_err());
        assert_eq!(c.stats().notifies, before, "failed update must not signal");
    }
}
