//! In-memory spans for the traced run.
//!
//! Each thread records into its own [`Tracer`]; the spans are merged and
//! written out when the run ends. A span has a name, a start and end on the
//! process-wide [`now_ns`] clock, the span that caused it (`parent`), the
//! recording thread, and the id of the operation it belongs to, so spans of
//! one operation on different threads can be joined.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide base instant: one clock shared by
/// every thread, so cross-thread intervals (a wake-up) can be measured.
pub fn now_ns() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call the span covers, e.g. `counter.check`.
    pub name: &'static str,
    /// The operation (per workload) the span belongs to.
    pub op: u64,
    /// Start, on the [`now_ns`] clock.
    pub start: u64,
    /// End, on the [`now_ns`] clock.
    pub end: u64,
    /// Index of the causing span in the same span list, or [`NO_PARENT`].
    pub parent: u32,
    /// The recording thread (workload-assigned, 0 = main).
    pub thread: u32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and never
/// reads the clock. Once `cap` spans are held, whole new root spans (with
/// all their children) are dropped, so no kept span loses a child, and the
/// tracer reports [`dropped`](Self::dropped) from then on.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u32,
    cap: usize,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Nesting depth inside a dropped root span.
    suppressed: usize,
    /// Whether a span was ever dropped at the cap.
    dropped: bool,
}

/// A handle from [`Tracer::begin`], consumed by [`Tracer::end`].
#[must_use = "end the span with Tracer::end"]
#[derive(Debug)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0, 0)
    }

    /// A tracer for `thread` holding at most `cap` spans when `enabled`.
    pub fn new(enabled: bool, thread: u32, cap: usize) -> Self {
        Tracer {
            enabled,
            thread,
            cap,
            spans: Vec::new(),
            open: Vec::new(),
            suppressed: 0,
            dropped: false,
        }
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.suppressed > 0 || (self.open.is_empty() && self.spans.len() >= self.cap) {
            self.dropped = true;
            self.suppressed += 1;
            return Open(None);
        }
        let start = now_ns();
        let idx = self.push(Span {
            name,
            op,
            start,
            end: start,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            thread: self.thread,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, open: Open) {
        match open.0 {
            Some(idx) => {
                self.spans[idx as usize].end = now_ns();
                let top = self.open.pop();
                debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            }
            None if self.suppressed > 0 => self.suppressed -= 1,
            None => {}
        }
    }

    /// Records an already-timed span as a child of the innermost open span
    /// (or with the given explicit parent), returning its index.
    pub fn record(&mut self, mut span: Span) -> Option<u32> {
        if !self.enabled || self.suppressed > 0 {
            return None;
        }
        if self.open.is_empty() && self.spans.len() >= self.cap {
            self.dropped = true;
            return None;
        }
        if span.parent == NO_PARENT {
            span.parent = self.open.last().copied().unwrap_or(NO_PARENT);
        }
        Some(self.push(span))
    }

    fn push(&mut self, span: Span) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("span count fits in u32");
        self.spans.push(span);
        idx
    }

    /// Whether a span has been dropped at the cap.
    pub fn dropped(&self) -> bool {
        self.dropped
    }

    /// Forgets every span recorded after the first `len`. Call it with no
    /// span open.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.open.is_empty(), "truncate with a span open");
        self.spans.truncate(len);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Where `tracers` stand before a window, for [`keep_window`].
pub fn marks(tracers: &[Tracer]) -> Vec<usize> {
    tracers.iter().map(|t| t.spans.len()).collect()
}

/// Ends a traced window: when any of `tracers` dropped a span at its cap,
/// takes back every span recorded since `marks` and returns `false`, since
/// part of the window ran untraced; otherwise returns `true`.
pub fn keep_window(tracers: &mut [Tracer], marks: &[usize]) -> bool {
    if !tracers.iter().any(Tracer::dropped) {
        return true;
    }
    for (t, &len) in tracers.iter_mut().zip(marks) {
        t.truncate(len);
    }
    false
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = u32::try_from(out.len()).expect("span count fits in u32");
        out.extend(list.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and a
/// child's time outside its parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Writes spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"thread\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.name, s.thread, s.op, s.start, s.end, parent
        )?;
    }
    out.flush()
}
