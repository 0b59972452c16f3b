//! Tests for the benchmark's own code: the percentile rule, the `/proc`
//! parsers, span self time and the seeded inputs.

use perfbench::procfs::{parse_mountinfo_fstype, parse_stat_cpu_ticks, parse_status_kib};
use perfbench::run::{staircase, timed_phase, Config, Window};
use perfbench::stats::{median, sorted, tail_percentile};
use perfbench::trace::{keep_window, marks, merge, self_times, Span, Tracer, NO_PARENT};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    // 1000 samples: rank 990, so exactly 10 lie beyond.
    assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
    // 999 samples: rank 990, only 9 beyond.
    assert_eq!(tail_percentile(&ramp(999), 0.99), None);
    assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
    assert_eq!(tail_percentile(&[], 0.5), None);
}

#[test]
fn nearest_rank_percentiles_and_median() {
    assert_eq!(tail_percentile(&ramp(100), 0.5), Some(50.0));
    assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
    // The top rank has no samples beyond it.
    assert_eq!(tail_percentile(&ramp(100), 1.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    assert_eq!(sorted(vec![2.0, -1.0, 0.5]), vec![-1.0, 0.5, 2.0]);
}

#[test]
fn window_latency_needs_a_thousand_samples_for_its_p99() {
    let mut w = Window::default();
    w.set_latency((1..=1000).rev().map(f64::from).collect());
    assert_eq!(
        (w.samples, w.p50_ns, w.p99_ns),
        (1000, Some(500.0), Some(990.0))
    );
    w.set_latency((1..=999).map(f64::from).collect());
    assert_eq!((w.samples, w.p50_ns, w.p99_ns), (999, Some(500.0), None));
}

#[test]
fn stat_parser_counts_fields_after_the_command_name() {
    // The command name holds spaces and a parenthesis.
    let line = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                157 43 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
    assert_eq!(parse_stat_cpu_ticks(line), Some(200));
    assert_eq!(parse_stat_cpu_ticks("4242 (truncated) S 1 2"), None);
    assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
}

#[test]
fn status_parser_reads_kib_lines() {
    let text = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    6744 kB\nThreads:\t3\n";
    assert_eq!(parse_status_kib(text, "VmHWM"), Some(6744));
    assert_eq!(parse_status_kib(text, "VmPeak"), Some(20000));
    assert_eq!(parse_status_kib(text, "VmRSS"), None);
    // A key that is only a prefix of another does not match it.
    assert_eq!(parse_status_kib(text, "Vm"), None);
    assert_eq!(parse_status_kib(text, "Threads"), None);
}

#[test]
fn mountinfo_parser_picks_the_deepest_mount() {
    let text = "\
22 1 8:1 / / rw,relatime - ext4 /dev/sda1 rw
23 22 0:21 / /tmp rw,nosuid - tmpfs tmpfs rw
24 22 0:22 / /tmp/my\\040dir rw - overlay overlay rw
25 22 0:23 / /tmpfoo rw - xfs /dev/sdb rw
";
    let fs = |p: &str| parse_mountinfo_fstype(text, Path::new(p));
    assert_eq!(fs("/home/user/x").as_deref(), Some("ext4"));
    assert_eq!(fs("/tmp/wal").as_deref(), Some("tmpfs"));
    assert_eq!(fs("/tmp/my dir/wal").as_deref(), Some("overlay"));
    // `/tmpfoo` is not under `/tmp`.
    assert_eq!(fs("/tmpfoo/a").as_deref(), Some("xfs"));
}

fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
    Span {
        name,
        op: 0,
        start,
        end,
        parent,
        thread: 0,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = vec![
        span("root", 0, 100, NO_PARENT),
        span("a", 10, 30, 0),
        span("b", 20, 50, 0),  // overlaps a: 10..50 covered once
        span("c", 90, 120, 0), // runs past the root: only 90..100 counts
        span("a.child", 12, 18, 1),
    ];
    assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
}

#[test]
fn tracer_nests_spans_and_drops_whole_roots_at_the_cap() {
    let mut tr = Tracer::new(true, 3, 2);
    let root = tr.begin("root", 1);
    let child = tr.begin("child", 1);
    tr.end(child);
    tr.end(root);
    // At the cap: this root and its child are both dropped.
    let root = tr.begin("root", 2);
    let child = tr.begin("child", 2);
    tr.end(child);
    tr.end(root);
    assert!(tr.dropped());
    let spans = tr.into_spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].parent, NO_PARENT);
    assert_eq!(spans[1].parent, 0);
    assert!(spans
        .iter()
        .all(|s| s.op == 1 && s.thread == 3 && s.end >= s.start));

    let mut off = Tracer::off();
    let s = off.begin("x", 0);
    off.end(s);
    assert!(off.spans().is_empty());
}

#[test]
fn merge_rebases_parents() {
    let a = vec![span("a", 0, 10, NO_PARENT), span("a1", 1, 2, 0)];
    let b = vec![span("b", 0, 10, NO_PARENT), span("b1", 1, 2, 0)];
    let merged = merge(vec![a, b]);
    let parents: Vec<u32> = merged.iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![NO_PARENT, 0, NO_PARENT, 2]);
}

#[test]
fn staircase_is_seeded_increasing_and_ends_at_the_total() {
    let levels = staircase(9, 1000, 4096, 64);
    assert_eq!(levels.len(), 64);
    assert_eq!(*levels.last().unwrap(), 1000 + 4096);
    assert!(levels.windows(2).all(|w| w[0] < w[1]));
    assert!(levels[0] > 1000);
    assert_eq!(levels, staircase(9, 1000, 4096, 64));
    assert_ne!(levels, staircase(10, 1000, 4096, 64));
}

#[test]
fn a_window_in_which_a_tracer_drops_spans_is_taken_back() {
    let mut tracers = [Tracer::new(true, 1, 3), Tracer::new(true, 2, 3)];
    let root = tracers[0].begin("a", 0);
    tracers[0].end(root);
    let before = marks(&tracers);
    for op in 1..=2 {
        let root = tracers[1].begin("b", op);
        tracers[1].end(root);
    }
    // Nothing dropped yet: the window is kept.
    assert!(keep_window(&mut tracers, &before));
    let before = marks(&tracers);
    for op in 1..=3 {
        let root = tracers[0].begin("a", op);
        tracers[0].end(root);
    }
    // Tracer 0 reached its cap in this window: all its spans go, on every
    // tracer, back to the marks.
    assert!(!keep_window(&mut tracers, &before));
    assert_eq!(marks(&tracers), vec![1, 2]);
}

#[test]
fn windows_past_the_span_cap_are_not_counted_as_traced() {
    let cfg = Config {
        seed: 1,
        seconds: 0.2,
        trace: true,
        work_dir: PathBuf::from("unused"),
        cpus: Vec::new(),
    };
    let mut calls = Vec::new();
    let timed = timed_phase(&cfg, |traced, _| {
        let traced_so_far = calls.iter().filter(|&&t| t).count();
        calls.push(traced);
        std::thread::sleep(Duration::from_millis(2));
        Window {
            ops: 10,
            elapsed_ns: 2_000_000,
            // The third traced window reaches the cap.
            spans_dropped: traced && traced_so_far == 2,
            ..Window::default()
        }
    });
    assert_eq!(timed.traced.len(), 2);
    assert!(timed.traced.iter().all(|w| !w.spans_dropped));
    assert!(timed.uncounted[0].spans_dropped);
    assert!(timed.uncounted.len() > 1, "the phase runs on untraced");
    // Once the cap is hit no further window is traced.
    let first_traced = calls.iter().position(|&t| t).unwrap();
    assert_eq!(calls[first_traced..first_traced + 3], [true; 3]);
    assert!(calls[first_traced + 3..].iter().all(|&t| !t));
    assert!(!timed.untraced.is_empty());
    assert_eq!(
        timed.attempted(),
        10 * (timed.untraced.len() + 2 + timed.uncounted.len()) as u64
    );
}
