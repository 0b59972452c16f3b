//! `contended`: two threads increment one [`ShardedCounter`] while the main
//! thread blocks through a staircase of levels up to the total.
//!
//! One operation is one `increment(1)`. These are writes beside reads on the
//! packed word, the striped cells, the combiner and the shared statistics.
//! Latency is sampled per batch of [`BATCH`](writers::BATCH) increments and
//! reported per increment.

use super::writers::{self, PER_WRITER, STEPS, WRITERS};
use crate::affinity::pin_slot;
use crate::run::{
    derive, durations, median_or_zero, staircase, timed_phase, timed_setups, Config, CounterTotals,
    Layers, Outcome, SPAN_CAP,
};
use crate::trace::{keep_window, marks, merge, Tracer};
use mc_counter::{CounterDiagnostics, ShardedCounter};

/// One window's counter and the staircase the main thread climbs.
struct Round {
    counter: ShardedCounter,
    levels: Vec<u64>,
}

fn setup(seed: u64, index: u64) -> Round {
    Round {
        counter: ShardedCounter::default(),
        levels: staircase(derive(seed, index), 0, WRITERS as u64 * PER_WRITER, STEPS),
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Every thread of this workload shares one CPU, set-up included; see
    // `crate::affinity`.
    pin_slot(&cfg.cpus, 0);
    let (first, setup_s) = timed_setups(|_| Ok(setup(cfg.seed, 0)))?;
    let mut next = Some(first);
    let mut tracers: Vec<Tracer> = (0..=WRITERS as u32)
        .map(|t| Tracer::new(cfg.trace, t, SPAN_CAP))
        .collect();
    let mut totals = CounterTotals::default();
    let mut index = 0u64;
    let timed = timed_phase(cfg, |traced, failures| {
        let round = next.take().unwrap_or_else(|| setup(cfg.seed, index));
        let counter = &round.counter;
        let marks = marks(&tracers);
        let mut w = writers::window(
            counter,
            &round.levels,
            index,
            traced,
            &mut tracers,
            failures,
        );
        let value = counter.debug_value();
        if value != w.ops {
            failures.push(format!(
                "contended: window {index} ended at {value}, expected {}",
                w.ops
            ));
            w.failed = w.failed.max(w.ops.abs_diff(value));
        }
        if traced {
            w.spans_dropped = !keep_window(&mut tracers, &marks);
            if !w.spans_dropped {
                totals.add(&counter.stats());
            }
        }
        index += 1;
        w
    });

    let spans = merge(tracers.into_iter().map(Tracer::into_spans).collect());
    let mut layers = Layers::new();
    if cfg.trace {
        let (ops, _) = timed.traced_totals();
        totals.layer_metrics(ops, &mut layers);
        layers.insert(
            "counter.check_wait_us_p50",
            median_or_zero(&durations(&spans, "counter.check", 1e3)),
        );
        let loop_ns: f64 = durations(&spans, "writer", 1.0).iter().sum();
        let loops = spans.iter().filter(|s| s.name == "writer").count() as u64;
        layers.insert(
            "sharded.ns_per_increment",
            crate::stats::ratio(loop_ns, (loops * PER_WRITER) as f64),
        );
        layers.insert(
            "sharded.fast_increment_frac",
            crate::stats::ratio(totals.fast_increments as f64, totals.increments as f64),
        );
        layers.insert(
            "sharded.slow_path_entries_per_op",
            crate::stats::ratio(totals.slow_path_entries as f64, ops as f64),
        );
    }
    Ok(Outcome {
        setup_s,
        timed,
        pooled_p99_ns: None,
        layers,
        spans,
        post_failures: Vec::new(),
    })
}
