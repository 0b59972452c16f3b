//! The window `contended` and `durable` share: two writer threads call
//! `increment(1)` in timed batches while the calling thread blocks through a
//! staircase of levels up to the window's total.

use crate::run::{Window, WAIT_TIMEOUT};
use crate::trace::{now_ns, Tracer};
use mc_counter::MonotonicCounter;
use std::sync::Barrier;

/// Load threads.
pub const WRITERS: usize = 2;
/// Increments per writer per window.
pub const PER_WRITER: u64 = 1 << 19;
/// Increments per latency sample: timing each ~100 ns increment on its own
/// would perturb it.
pub const BATCH: u64 = 1024;
/// Levels the calling thread blocks through per window.
pub const STEPS: usize = 64;

/// A writer loop's start and end and the per-increment time of each batch.
type Loop = (u64, u64, Vec<f64>);

/// One writer's loop: [`PER_WRITER`] increments in timed batches.
fn write<C: MonotonicCounter>(
    counter: &C,
    start_line: &Barrier,
    batch_base: u64,
    tr: &mut Tracer,
) -> Loop {
    let mut lat = Vec::with_capacity((PER_WRITER / BATCH) as usize);
    start_line.wait();
    let start = now_ns();
    let whole = tr.begin("writer", batch_base);
    for b in 0..PER_WRITER / BATCH {
        let span = tr.begin("counter.increment_batch", batch_base + b);
        let t0 = now_ns();
        for _ in 0..BATCH {
            counter.increment(1);
        }
        let t1 = now_ns();
        tr.end(span);
        lat.push((t1 - t0) as f64 / BATCH as f64);
    }
    tr.end(whole);
    (start, now_ns(), lat)
}

/// Runs window `index` on `counter`: the writers add [`WRITERS`] ×
/// [`PER_WRITER`] to it while this thread waits for each of `levels` in turn.
/// `tracers` holds this thread's tracer and then one per writer; they
/// record only when `traced`.
pub fn window<C: MonotonicCounter>(
    counter: &C,
    levels: &[u64],
    index: u64,
    traced: bool,
    tracers: &mut [Tracer],
    failures: &mut Vec<String>,
) -> Window {
    let mut off: Vec<Tracer> = (0..=WRITERS).map(|_| Tracer::off()).collect();
    let trs = if traced { tracers } else { &mut off[..] };
    let (main_tr, writer_trs) = trs.split_first_mut().expect("a main tracer");
    let start_line = Barrier::new(WRITERS + 1);
    let (results, stuck) = std::thread::scope(|s| {
        let handles: Vec<_> = writer_trs
            .iter_mut()
            .enumerate()
            .map(|(t, tr)| {
                let base = (index * WRITERS as u64 + t as u64) * (PER_WRITER / BATCH);
                let start_line = &start_line;
                s.spawn(move || write(counter, start_line, base, tr))
            })
            .collect();
        start_line.wait();
        let mut stuck = None;
        for (step, &level) in levels.iter().enumerate() {
            let wait = main_tr.begin("counter.check", index * STEPS as u64 + step as u64);
            let reached = counter.wait_timeout(level, WAIT_TIMEOUT);
            main_tr.end(wait);
            if let Err(e) = reached {
                stuck = Some(format!("level {level}: {e}"));
                break;
            }
        }
        let results: Vec<Result<Loop, String>> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "writer panicked".to_string()))
            .collect();
        (results, stuck)
    });
    let mut w = Window {
        ops: WRITERS as u64 * PER_WRITER,
        ..Window::default()
    };
    let mut loops = Vec::new();
    for result in results.into_iter().chain(stuck.map(Err)) {
        match result {
            Ok(l) => loops.push(l),
            Err(why) => {
                failures.push(format!("window {index}: {why}"));
                w.failed += 1;
            }
        }
    }
    let start = loops.iter().map(|l| l.0).min().unwrap_or(0);
    let end = loops.iter().map(|l| l.1).max().unwrap_or(0);
    w.elapsed_ns = end.saturating_sub(start);
    w.set_latency(loops.into_iter().flat_map(|l| l.2).collect());
    w
}
