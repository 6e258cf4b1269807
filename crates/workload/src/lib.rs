//! `strip-workload` — workload generation for the SIGMOD 1995
//! update-streams reproduction.
//!
//! * [`generators`] — the paper's Poisson update stream (Table 1) and
//!   transaction stream (Table 2), with independent RNG sub-streams per
//!   stochastic process.
//! * [`disturbance`] — a feed outage over the update stream (robustness
//!   extension, figR1).
//! * [`scenarios`] — presets for the paper's three motivating domains:
//!   program trading, plant control, telecommunications.
//! * [`run_paper_sim`] — one-call entry point: build both generators from a
//!   [`SimConfig`] and run the full simulation.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod disturbance;
pub mod generators;
pub mod scenarios;

pub use disturbance::DisturbedUpdates;
pub use generators::{PeriodicUpdates, PoissonTxns, PoissonUpdates, UpdateStream};

use strip_core::config::{ConfigError, SimConfig};
use strip_core::controller::run_simulation;
use strip_core::report::RunReport;
use strip_obs::{TraceConfig, TraceData};

/// Runs one simulation of `cfg` with the paper's Poisson workload model.
///
/// # Example
///
/// ```
/// use strip_core::config::{Policy, SimConfig};
/// use strip_workload::run_paper_sim;
///
/// let cfg = SimConfig::builder()
///     .policy(Policy::OnDemand)
///     .duration(5.0)
///     .seed(42)
///     .build()
///     .unwrap();
/// let report = run_paper_sim(&cfg);
/// assert!(report.txns.arrived > 0);
/// assert!(report.cpu.utilization() > 0.0);
/// ```
#[must_use]
pub fn run_paper_sim(cfg: &SimConfig) -> RunReport {
    run_paper_sim_checked(cfg).expect("invalid SimConfig")
}

/// Fallible variant of [`run_paper_sim`]: surfaces config-validation
/// failures as a value so sweep drivers can record them per point.
///
/// The update stream is whatever [`UpdateStream::from_config`] builds for
/// `cfg`, feed outage included.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_paper_sim_checked(cfg: &SimConfig) -> Result<RunReport, ConfigError> {
    let (report, _) = run_simulation(
        cfg,
        UpdateStream::from_config(cfg),
        PoissonTxns::from_config(cfg),
        None,
    )?;
    Ok(report)
}

/// Like [`run_paper_sim_checked`], but with a flight recorder attached
/// (see `strip-obs`): returns the trace capture alongside the report. The
/// report is bit-identical to [`run_paper_sim_checked`]'s for the same
/// `cfg` — tracing is observation-only.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_paper_sim_traced(
    cfg: &SimConfig,
    trace: TraceConfig,
) -> Result<(RunReport, TraceData), ConfigError> {
    let (report, data) = run_simulation(
        cfg,
        UpdateStream::from_config(cfg),
        PoissonTxns::from_config(cfg),
        Some(trace),
    )?;
    Ok((report, data.expect("a traced run returns its capture")))
}
