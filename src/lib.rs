//! `strip` — umbrella crate for the reproduction of
//! *Applying Update Streams in a Soft Real-Time Database System*
//! (Adelberg, Garcia-Molina, Kao — SIGMOD 1995).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel.
//! * [`db`] — the soft real-time main-memory database substrate (object
//!   store, staleness tracking, OS/update queues, CPU cost model).
//! * [`core`] — the paper's contribution: the controller with the UF / TF /
//!   SU / OD update-scheduling policies and the extended metrics.
//! * [`obs`] — trace-level observability: ring-buffered typed trace
//!   records, periodic gauge sampling, Chrome-trace/CSV exporters.
//! * [`workload`] — Poisson update-stream and transaction generators plus
//!   scenario presets.
//! * [`experiments`] — the harness that regenerates every figure of the
//!   paper's evaluation.
//! * [`live`] — the wall-clock soft real-time runtime (`stripd` server and
//!   `strip-loadgen` client) running the same policies in real time.
//!
//! # Quickstart
//!
//! ```
//! use strip::core::config::{Policy, SimConfig};
//! use strip::run_paper_sim;
//!
//! let cfg = SimConfig::builder()
//!     .policy(Policy::OnDemand)
//!     .duration(5.0)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let report = run_paper_sim(&cfg);
//! assert!(report.txns.arrived > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub use strip_core as core;
pub use strip_db as db;
pub use strip_experiments as experiments;
pub use strip_live as live;
pub use strip_obs as obs;
pub use strip_sim as sim;
pub use strip_workload as workload;

pub use strip_core::config::{Policy, QueuePolicy, SimConfig, StalenessDef};
pub use strip_core::report::RunReport;
pub use strip_workload::run_paper_sim;
