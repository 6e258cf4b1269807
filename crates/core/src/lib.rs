//! `strip-core` — update-stream scheduling for a soft real-time database.
//!
//! This crate is the reproduction of the core contribution of
//! *Applying Update Streams in a Soft Real-Time Database System*
//! (Adelberg, Garcia-Molina, Kao — SIGMOD 1995): a controller that shares
//! one CPU between deadline/value-driven transactions and the continuous
//! installation of an external update stream, under four scheduling
//! policies:
//!
//! | Policy | Behaviour |
//! |--------|-----------|
//! | **UF** (Updates First) | every update preempts transactions and is applied on arrival |
//! | **TF** (Transactions First) | updates queue; installed only when no transaction waits |
//! | **SU** (Split Updates) | high-importance updates like UF, low-importance like TF |
//! | **OD** (On Demand) | like TF, plus stale objects are refreshed from the queue during reads |
//!
//! plus the paper's §7 future-work extensions (fixed CPU fraction for
//! updates, hash-indexed update queue, transaction preemption).
//!
//! Entry points:
//!
//! * [`config::SimConfig`] — all parameters of the paper's Tables 1–3.
//! * [`scheduler::Scheduler`] — the scheduling state machine itself, with no
//!   clock behind it; the simulator below and the `strip-live` server are
//!   its two drivers.
//! * [`controller::run_simulation`] — run one simulation against
//!   [`sources::UpdateSource`] / [`sources::TxnSource`] implementations
//!   (Poisson generators live in `strip-workload`).
//! * [`report::RunReport`] — every raw counter and derived metric of §3.5.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod controller;
pub mod fingerprint;
pub mod metrics;
pub mod policy;
pub mod ready;
pub mod report;
pub mod scheduler;
pub mod sources;
pub mod stripe;
pub mod txn;

pub use config::{Policy, QueuePolicy, SimConfig, StalenessDef};
pub use controller::{run_simulation, Controller, Event};
pub use fingerprint::config_fingerprint;
pub use report::RunReport;
pub use scheduler::Scheduler;
pub use sources::{ScriptedTxns, ScriptedUpdates, TxnSource, UpdateSource, UpdateSpec};
pub use stripe::StripeMap;
pub use txn::{Transaction, TxnSpec};
