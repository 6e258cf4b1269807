//! `strip-benchmark` — the repo's one benchmark.
//!
//! Four workloads over the two pipelines this repository ships — the
//! discrete-event simulator and the live `stripd` update-stream server —
//! measured in one schema, with checked outputs. See `README.md` beside
//! this package for why each workload and metric exists.

#![forbid(unsafe_code)]

pub mod client;
pub mod diff;
pub mod host;
pub mod json;
pub mod layers;
pub mod live_burst;
pub mod live_mix;
pub mod report;
pub mod sim_sweep;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
