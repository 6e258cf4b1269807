//! What every workload shares: its inputs, its result, and the names of
//! the end-to-end metrics each one reports.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::stats::Summary;
use crate::trace::Trace;

/// The seed used when none is given (the repo's golden-pin seed).
pub const DEFAULT_SEED: u64 = 0x5712_1995;

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["sim_sweep", "live_drain", "live_durable", "live_mix"];

/// End-to-end metric names and units. Every workload reports every one of
/// them; `benchmark/README.md` says what each means on each workload.
pub const SETUP_S: (&str, &str) = ("setup_s", "s");
pub const THROUGHPUT: (&str, &str) = ("throughput_per_s", "1/s");
pub const SUCCESS_FRAC: (&str, &str) = ("success_frac", "frac");
pub const FRESH_FRAC: (&str, &str) = ("fresh_frac", "frac");

/// The package directory (`benchmark/`), fixed when the binary is built in
/// its checkout; everything the benchmark reads or writes lives under it
/// or under its parent, the repository root.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (holds `BENCHMARK.json`).
pub fn repo_root() -> PathBuf {
    package_dir()
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Scratch and result directory, git-ignored: traces, WAL directories,
/// result documents.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Inputs of one run of one workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Smoke mode: tiny inputs, numbers not comparable.
    pub quick: bool,
    /// Span recorder (detached for the timed rounds).
    pub trace: Trace,
}

impl Ctx {
    /// The instant the measuring window closes.
    pub fn deadline(&self, started: Instant) -> Instant {
        started + Duration::from_secs_f64(self.seconds)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (updates sent, queries sent, transactions
    /// submitted, simulation points run).
    pub attempted: u64,
    /// Operations that failed: shed or lost updates, unanswered queries,
    /// unaccounted transactions, acked updates missing after recovery.
    pub failed: u64,
    /// Output checks that did not hold. Any entry makes the run incorrect,
    /// and no rate is reported for an incorrect run.
    pub violations: Vec<String>,
    /// End-to-end metrics: `(name, unit, value over rounds)`.
    pub e2e: Vec<(&'static str, &'static str, Summary)>,
    /// Per-layer observations of this workload: `(name, unit, value)`.
    pub layers: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn put(&mut self, metric: (&'static str, &'static str), summary: Summary) {
        self.e2e.push((metric.0, metric.1, summary));
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push((name, unit, value));
    }

    /// The value reported for an end-to-end metric.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, s)| s.value)
    }
}

/// FNV-1a, 64-bit: the digest the sweep pins its reports with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
