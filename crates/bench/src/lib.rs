//! `strip-bench` — the measurements `benchmark/` does not cover yet.
//!
//! The simulator and the live ingest path are timed in one place, the
//! `benchmark/` package at the repository root (README.md, "Benchmark").
//! Two things remain here until it grows the workloads that replace them:
//!
//! * [`live_perf`] and the `durability_harness` / `shard_harness` binaries
//!   under `src/bin/`, which write `BENCH_7.json` (fsync cadence) and
//!   `BENCH_8.json` (stripe scaling).
//! * `benches/ablation` and `benches/ext_*` — `harness = false` sweeps of
//!   the model ablations and extensions whose tables EXPERIMENTS.md quotes.
//!   They print results, they time nothing. The paper's own figures and
//!   tables come from the `repro` binary.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod live_perf;
