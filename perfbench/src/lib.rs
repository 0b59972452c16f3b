//! The repository benchmark: counter workloads measured end to end and, in
//! a separate traced run, layer by layer. `src/main.rs` is the command; this
//! library holds the parts its tests exercise.

pub mod affinity;
pub mod metrics;
pub mod procfs;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
