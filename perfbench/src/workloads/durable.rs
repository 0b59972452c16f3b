//! `durable`: increments on a `DurableCounter<Counter>` in batched mode.
//!
//! Two threads make closed-loop increments while the main thread blocks
//! through a staircase of levels, and the flusher keeps appending the
//! current value to the WAL and fsyncing it. It is the one workload that
//! runs the WAL and its flusher. Batched, not strict: a strict increment
//! waits for an fsync, so its time is the shared disk's, which on the
//! benchmark host drifted by a third within an hour. Here the WAL's cost is
//! what it takes from the increment path and the CPU it shares.
//!
//! Set-up opens a fresh WAL directory (open plus recovery). After the timed
//! phase `sync` must make the total durable, and reopening the directory
//! must recover exactly the total with no poison.

use super::writers::{self, PER_WRITER, STEPS, WRITERS};
use crate::affinity::pin_slot;
use crate::run::{
    derive, durations, median_or_zero, p99_or_zero, staircase, timed_phase, timed_setups, Config,
    CounterTotals, Layers, Outcome, SPAN_CAP,
};
use crate::trace::{keep_window, marks, merge, now_ns, Span, Tracer, NO_PARENT};
use mc_counter::{Counter, CounterDiagnostics, HealthStatus};
use mc_durable::{DurabilityMode, DurableCounter, DurableOptions, FsWal, WalFile, WalStats};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The flusher thread's id in the span list.
const FLUSHER: u32 = WRITERS as u32 + 1;

/// Whether [`TimedWal`] records spans (the traced windows of a traced run).
static WAL_TRACING: AtomicBool = AtomicBool::new(false);
/// The flusher's tracer: [`TimedWal`] records into it.
static WAL_TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

/// The production [`FsWal`], timed: each `append` and `sync` becomes a span
/// while [`WAL_TRACING`] is set. Used only in traced runs.
struct TimedWal {
    inner: FsWal,
}

impl TimedWal {
    fn timed(name: &'static str, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        if !WAL_TRACING.load(Ordering::Relaxed) {
            return f();
        }
        let start = now_ns();
        let result = f();
        let span = Span {
            name,
            op: 0,
            start,
            end: now_ns(),
            parent: NO_PARENT,
            thread: FLUSHER,
        };
        if let Some(tr) = wal_tracer().as_mut() {
            tr.record(span);
        }
        result
    }
}

impl WalFile for TimedWal {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        Self::timed("wal.append", || self.inner.append(buf))
    }

    fn sync(&mut self) -> io::Result<()> {
        Self::timed("wal.fsync", || self.inner.sync())
    }

    fn truncate_all(&mut self) -> io::Result<()> {
        self.inner.truncate_all()
    }

    fn rewind_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.rewind_to(len)
    }
}

/// The flusher's tracer slot, whether or not a panic poisoned its lock.
fn wal_tracer() -> std::sync::MutexGuard<'static, Option<Tracer>> {
    WAL_TRACER.lock().unwrap_or_else(|p| p.into_inner())
}

/// WAL statistics summed over the traced windows.
#[derive(Debug, Default)]
struct WalTotals {
    records_logged: u64,
    fsyncs: u64,
    retries: u64,
}

impl WalTotals {
    fn add_delta(&mut self, before: &WalStats, after: &WalStats) {
        self.records_logged += after.records_logged - before.records_logged;
        self.fsyncs += after.fsyncs - before.fsyncs;
        self.retries += after.retries - before.retries;
    }
}

fn options() -> DurableOptions {
    DurableOptions {
        mode: DurabilityMode::Batched,
        ..DurableOptions::default()
    }
}

/// A fresh WAL directory and the counter opened on it. The directory is
/// removed on drop.
struct Store {
    dir: PathBuf,
    counter: Option<DurableCounter<Counter>>,
}

impl Drop for Store {
    fn drop(&mut self) {
        drop(self.counter.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open(dir: &Path, traced: bool) -> Result<DurableCounter<Counter>, String> {
    let opened = if traced {
        DurableCounter::open_with_wal(
            dir,
            options(),
            Box::new(|path| {
                Ok(Box::new(TimedWal {
                    inner: FsWal::open(path)?,
                }) as Box<dyn WalFile>)
            }),
        )
    } else {
        DurableCounter::open_with(dir, options())
    };
    let (counter, recovery) =
        opened.map_err(|e| format!("durable: open {}: {e}", dir.display()))?;
    if recovery.value != 0 || recovery.poison_restored {
        return Err(format!("durable: fresh directory recovered {recovery:?}"));
    }
    Ok(counter)
}

fn setup(cfg: &Config, rep: usize) -> Result<Store, String> {
    let dir = cfg
        .work_dir
        .join(format!("wal-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("durable: create {}: {e}", dir.display()))?;
    let mut store = Store { dir, counter: None };
    store.counter = Some(open(&store.dir, cfg.trace)?);
    Ok(store)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("durable: create {}: {e}", cfg.work_dir.display()))?;
    // Every thread of this workload, the flusher included (it inherits the
    // opener's CPU set), shares one CPU; see `crate::affinity`.
    pin_slot(&cfg.cpus, 0);
    let (mut store, setup_s) = timed_setups(|rep| setup(cfg, rep))?;
    let counter = store.counter.take().expect("set-up opened the counter");
    // The main thread's and the writers' tracers, then the flusher's (which
    // moves into `WAL_TRACER` while a window runs).
    let mut tracers: Vec<Tracer> = (0..=FLUSHER)
        .map(|t| Tracer::new(cfg.trace, t, SPAN_CAP))
        .collect();
    let mut totals = CounterTotals::default();
    let mut wal = WalTotals::default();
    let mut total = 0u64;
    let mut index = 0u64;
    let per_window = WRITERS as u64 * PER_WRITER;
    let timed = timed_phase(cfg, |traced, failures| {
        let levels = staircase(derive(cfg.seed, index), total, per_window, STEPS);
        let marks = marks(&tracers);
        let (stats_before, wal_before) = (counter.stats(), counter.wal_stats());
        *wal_tracer() = tracers.pop();
        WAL_TRACING.store(traced, Ordering::Relaxed);
        let mut w = writers::window(&counter, &levels, index, traced, &mut tracers, failures);
        WAL_TRACING.store(false, Ordering::Relaxed);
        tracers.extend(wal_tracer().take());
        total += per_window;
        if traced {
            w.spans_dropped = !keep_window(&mut tracers, &marks);
            if !w.spans_dropped {
                totals.add_delta(&stats_before, &counter.stats());
                wal.add_delta(&wal_before, &counter.wal_stats());
            }
        }
        index += 1;
        w
    });

    // Checks after timing: the total made durable, then a reopen.
    let mut post_failures = Vec::new();
    if let Err(e) = counter.sync() {
        post_failures.push(format!("durable: sync: {e}"));
    }
    let durable = counter.durable_value();
    let value = counter.debug_value();
    if timed.failed() == 0 && (durable != total || value != total) {
        post_failures.push(format!(
            "durable: {total} acknowledged, durable_value {durable}, value {value}"
        ));
    }
    if let HealthStatus::Poisoned | HealthStatus::Degraded { .. } = counter.health() {
        post_failures.push(format!("durable: counter ended {}", counter.health()));
    }
    drop(counter);
    match DurableCounter::<Counter>::open_with(&store.dir, options()) {
        Ok((reopened, recovery)) => {
            if recovery.poison_restored || (timed.failed() == 0 && recovery.value != total) {
                post_failures.push(format!(
                    "durable: reopen recovered {recovery:?}, expected value {total}"
                ));
            }
            drop(reopened);
        }
        Err(e) => post_failures.push(format!("durable: reopen: {e}")),
    }
    drop(store);

    let spans = merge(tracers.into_iter().map(Tracer::into_spans).collect());
    let mut layers = Layers::new();
    if cfg.trace {
        let (ops, traced_ns) = timed.traced_totals();
        totals.layer_metrics(ops, &mut layers);
        layers.insert(
            "counter.check_wait_us_p50",
            median_or_zero(&durations(&spans, "counter.check", 1e3)),
        );
        let fsyncs_us = durations(&spans, "wal.fsync", 1e3);
        layers.insert("wal.fsync_us_p50", median_or_zero(&fsyncs_us));
        layers.insert(
            "wal.fsync_busy_share",
            crate::stats::ratio(fsyncs_us.iter().sum::<f64>() * 1e3, traced_ns as f64),
        );
        layers.insert("wal.fsync_us_p99", p99_or_zero(fsyncs_us));
        layers.insert(
            "wal.append_us_p50",
            median_or_zero(&durations(&spans, "wal.append", 1e3)),
        );
        layers.insert(
            "wal.records_per_fsync",
            crate::stats::ratio(wal.records_logged as f64, wal.fsyncs as f64),
        );
        layers.insert(
            "wal.retries_per_op",
            crate::stats::ratio(wal.retries as f64, ops as f64),
        );
        layers.insert(
            "durable.ack_minus_fsync_us_p50",
            median_or_zero(&ack_minus_fsync_us(&spans)),
        );
    }
    Ok(Outcome {
        setup_s,
        timed,
        pooled_p99_ns: None,
        layers,
        spans,
        post_failures,
    })
}

/// For each batch, the time from its last increment's return to the start
/// of the fsync that made it durable: the fsync after the first append to
/// begin once the batch returned. This is the time to durability less the
/// fsync itself, the flusher's hand-off share.
fn ack_minus_fsync_us(spans: &[Span]) -> Vec<f64> {
    let starts = |name: &str| -> Vec<u64> {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.start)
            .collect();
        v.sort_unstable();
        v
    };
    let (appends, fsyncs) = (starts("wal.append"), starts("wal.fsync"));
    spans
        .iter()
        .filter(|s| s.name == "counter.increment_batch")
        .filter_map(|s| {
            let append = *appends.get(appends.partition_point(|&a| a < s.end))?;
            let fsync = *fsyncs.get(fsyncs.partition_point(|&f| f < append))?;
            Some((fsync - s.end) as f64 / 1e3)
        })
        .collect()
}
