//! `handoff`: one writer and one reader on a [`Broadcast`], one item in
//! flight.
//!
//! The writer publishes each item (a push followed by a flush: one
//! `increment(1)` per item, as with block size 1) and then waits until the
//! reader acknowledges it on a second [`Counter`]. One operation is one
//! item's round trip: two suspensions, two slow-path increments and two
//! condition-variable wakes, so the waitlist and wake layer is nearly all
//! of the time.

use crate::affinity::pin_slot;
use crate::run::{
    derive, durations, median_or_zero, p99_or_zero, timed_phase, timed_setups, Config,
    CounterTotals, Layers, Outcome, Window, SPAN_CAP, WAIT_TIMEOUT,
};
use crate::trace::{keep_window, marks, merge, now_ns, self_times, Span, Tracer};
use mc_counter::{Counter, CounterDiagnostics, FailureInfo, MonotonicCounter};
use mc_patterns::Broadcast;
use std::collections::HashMap;
use std::sync::Barrier;

/// Items per window (the capacity of each window's broadcast).
pub const ITEMS: usize = 16384;

const WRITER: u32 = 1;
const READER: u32 = 2;

/// One window's buffers: the broadcast and the acknowledgement counter.
struct Buffers {
    items: Broadcast<u64>,
    ack: Counter,
}

fn alloc() -> Buffers {
    Buffers {
        items: Broadcast::new(ITEMS),
        ack: Counter::default(),
    }
}

/// The seeded value of item `i` of window `window`.
fn item(seed: u64, window: u64, i: u64) -> u64 {
    derive(seed ^ window.rotate_left(32), i)
}

/// Runs one window of [`ITEMS`] round trips.
fn window(
    cfg: &Config,
    index: u64,
    op_base: u64,
    bufs: &Buffers,
    wtr: &mut Tracer,
    rtr: &mut Tracer,
    failures: &mut Vec<String>,
) -> Window {
    let seed = cfg.seed;
    let start_line = Barrier::new(2);
    let (items, ack) = (&bufs.items, &bufs.ack);
    let (writer, reader_failed) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut failed = None;
            pin_slot(&cfg.cpus, 1);
            start_line.wait();
            let mut r = items.reader();
            for i in 0..ITEMS as u64 {
                let op = op_base + i;
                let next = rtr.begin("broadcast.next", op);
                let got = r.try_next().map(|v| v.copied());
                rtr.end(next);
                let expected = item(seed, index, i);
                match got {
                    Ok(Some(v)) if v == expected => {}
                    other => {
                        let why = format!("handoff: item {i} of window {index}: got {other:?}, expected {expected}");
                        ack.poison(FailureInfo::new(why.clone()));
                        failed = Some(why);
                        break;
                    }
                }
                let inc = rtr.begin("counter.increment", op);
                ack.increment(1);
                rtr.end(inc);
            }
            failed
        });
        start_line.wait();
        let mut w = Window::default();
        let mut lat = Vec::with_capacity(ITEMS);
        let mut failed = None;
        // A block larger than the buffer: `push` never publishes on its own,
        // the explicit `flush` after each push is the item's one increment.
        let mut out = items.writer_with_block(ITEMS + 1);
        let first = now_ns();
        let mut last = first;
        for i in 0..ITEMS as u64 {
            let op = op_base + i;
            let t0 = now_ns();
            let round = wtr.begin("handoff.op", op);
            let push = wtr.begin("broadcast.push", op);
            out.push(item(seed, index, i));
            let publish = wtr.begin("counter.increment", op);
            out.flush();
            wtr.end(publish);
            wtr.end(push);
            let wait = wtr.begin("counter.check", op);
            let acked = ack.wait_timeout(i + 1, WAIT_TIMEOUT);
            wtr.end(wait);
            wtr.end(round);
            w.ops += 1;
            if let Err(e) = acked {
                w.failed += 1;
                let why = format!("handoff: acknowledgement of item {i} of window {index}: {e}");
                items.poison(FailureInfo::new(why.clone()));
                failed = Some(why);
                break;
            }
            last = now_ns();
            lat.push((last - t0) as f64);
        }
        w.elapsed_ns = last - first;
        w.set_latency(lat);
        drop(out);
        let reader_failed = reader
            .join()
            .unwrap_or_else(|_| Some("handoff: reader panicked".into()));
        failures.extend(failed);
        (w, reader_failed)
    });
    let mut w = writer;
    if let Some(why) = reader_failed {
        w.failed = w.failed.max(1);
        failures.push(why);
    }
    w
}

/// Pairs, per operation, a start on one thread with an end on the other.
fn cross_thread_us(spans: &[Span], from: (&str, u32), to: (&str, u32)) -> Vec<f64> {
    let starts: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == from.0 && s.thread == from.1)
        .map(|s| (s.op, s.start))
        .collect();
    spans
        .iter()
        .filter(|s| s.name == to.0 && s.thread == to.1)
        .filter_map(|s| {
            starts
                .get(&s.op)
                .map(|&t| s.end.saturating_sub(t) as f64 / 1e3)
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // The writer is this thread; set-up runs on the writer's CPU.
    pin_slot(&cfg.cpus, 0);
    let (first, setup_s) = timed_setups(|_| Ok(alloc()))?;
    let mut next = Some(first);
    let mut tracers = [
        Tracer::new(cfg.trace, WRITER, SPAN_CAP),
        Tracer::new(cfg.trace, READER, SPAN_CAP),
    ];
    let mut totals = CounterTotals::default();
    let mut index = 0u64;
    let timed = timed_phase(cfg, |traced, failures| {
        let bufs = next.take().unwrap_or_else(alloc);
        let op_base = index * ITEMS as u64;
        let marks = marks(&tracers);
        let mut off = [Tracer::off(), Tracer::off()];
        let [w_tr, r_tr] = if traced { &mut tracers } else { &mut off };
        let mut w = window(cfg, index, op_base, &bufs, w_tr, r_tr, failures);
        if traced {
            w.spans_dropped = !keep_window(&mut tracers, &marks);
            if !w.spans_dropped {
                totals.add(&bufs.items.counter().stats());
                totals.add(&bufs.ack.stats());
            }
        }
        index += 1;
        w
    });

    let spans = merge(tracers.map(Tracer::into_spans).into());
    let mut layers = Layers::new();
    if cfg.trace {
        let (ops, _) = timed.traced_totals();
        totals.layer_metrics(ops, &mut layers);
        // The reader's acknowledgement always has the writer waiting on it.
        let ack_inc: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "counter.increment" && s.thread == READER)
            .map(|s| s.duration() as f64)
            .collect();
        layers.insert("counter.increment_ns_p50", median_or_zero(&ack_inc));
        let mut wakes = cross_thread_us(
            &spans,
            ("counter.increment", WRITER),
            ("broadcast.next", READER),
        );
        wakes.extend(cross_thread_us(
            &spans,
            ("counter.increment", READER),
            ("counter.check", WRITER),
        ));
        layers.insert("counter.wake_us_p50", median_or_zero(&wakes));
        layers.insert("counter.wake_us_p99", p99_or_zero(wakes));
        layers.insert(
            "counter.check_wait_us_p50",
            median_or_zero(&durations(&spans, "counter.check", 1e3)),
        );
        let selfs = self_times(&spans);
        let push_self: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "broadcast.push")
            .map(|(_, &t)| t as f64)
            .collect();
        layers.insert("broadcast.push_ns_p50", median_or_zero(&push_self));
        layers.insert(
            "broadcast.next_wait_us_p50",
            median_or_zero(&durations(&spans, "broadcast.next", 1e3)),
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
