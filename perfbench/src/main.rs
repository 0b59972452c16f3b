//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fw|handoff|contended|durable|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's environment and every metric by name with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits nonzero when any correctness check fails.

use perfbench::metrics::{self, Metric};
use perfbench::run::{Config, Outcome};
use perfbench::{procfs, trace, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Environment variables that arm fault injection in the durability layer;
/// with any of them set the benchmark would measure the fault injector.
const CHAOS_VARS: [&str; 3] = ["MC_CHAOS_WAL", "MC_CHAOS_FAILPOINTS", "MC_CHAOS_SEED"];

const USAGE: &str =
    "usage: perfbench --workload <fw|handoff|contended|durable|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// The checked-out commit, when the benchmark runs from a git work tree.
fn commit(dir: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<34} {:>16.6} {:<12} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Runs every workload in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for name in workloads::NAMES {
        println!("== {name}");
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = CHAOS_VARS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it arms fault injection");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    trace::now_ns();
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: manifest_dir.join("work"),
        cpus: perfbench::affinity::allowed_cpus(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} commit={} nproc={} work_fs={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        commit(&manifest_dir),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        procfs::fstype_of(&cfg.work_dir).unwrap_or_else(|| "unknown".into()),
    );

    // A hang (a lost wakeup nothing times out on) must end the run, not
    // stall it: past the limit, report a failure and exit.
    let (done, watch) = mpsc::channel::<()>();
    let limit = Duration::from_secs_f64((2.0 * cfg.seconds + 60.0).min(170.0));
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = watch.recv_timeout(limit) {
            eprintln!("perfbench: run exceeded {limit:?}; a wait never returned");
            println!("{}", metrics::result_line(false, 1, 1, &[]));
            std::process::exit(3);
        }
    });

    let result = workloads::run(&args.workload, &cfg).expect("workload name checked above");
    drop(done);
    let _ = watchdog.join();
    let outcome: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", metrics::result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };

    let attempted = outcome.timed.attempted();
    let failed = outcome.timed.failed();
    let mut problems: Vec<String> = outcome.timed.failures.clone();
    problems.extend(outcome.post_failures.iter().cloned());
    let reported = if cfg.trace {
        let path = cfg.work_dir.join(format!("spans-{}.jsonl", args.workload));
        match trace::write_jsonl(&path, &outcome.spans) {
            Ok(()) => println!(
                "# {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => problems.push(format!("writing spans: {e}")),
        }
        Ok(metrics::per_layer(&outcome))
    } else {
        metrics::end_to_end(&outcome, procfs::peak_rss_mib().unwrap_or(0.0))
    };
    let metrics = match reported {
        Ok(m) => m,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    print_metrics(&metrics);
    if !cfg.trace && !metrics.is_empty() && !metrics.iter().any(|m| m.name == "latency_p99_us") {
        println!("# latency_p99_us not reported: fewer than 10 samples lie beyond it");
    }
    for p in problems.iter().take(8) {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0 && attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
