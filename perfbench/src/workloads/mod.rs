//! The benchmark's workloads. Each is a closed loop run in windows; see
//! `perfbench/README.md` for why each was chosen.

pub mod contended;
pub mod durable;
pub mod fw;
pub mod handoff;
mod writers;

use crate::run::{Config, Outcome};

/// Every workload by name, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["fw", "handoff", "contended", "durable"];

/// Runs the named workload, or `None` for an unknown name.
pub fn run(name: &str, cfg: &Config) -> Option<Result<Outcome, String>> {
    Some(match name {
        "fw" => fw::run(cfg),
        "handoff" => handoff::run(cfg),
        "contended" => contended::run(cfg),
        "durable" => durable::run(cfg),
        _ => return None,
    })
}
