//! `strip-bench` — the measurements `benchmark/` does not cover yet.
//!
//! The simulator and the live ingest path are timed in one place, the
//! `benchmark/` package at the repository root (README.md, "Benchmark").
//! What remains here waits for it to grow the fsync-cadence and
//! stripe-scaling workloads: [`live_perf`] and the `durability_harness` /
//! `shard_harness` binaries under `src/bin/`, which write `BENCH_7.json`
//! and `BENCH_8.json`. Every simulator experiment, the paper's and the
//! extensions alike, is a figure of the `repro` binary.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod live_perf;
