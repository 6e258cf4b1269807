//! `strip-live` — a wall-clock soft real-time runtime for the STRIP
//! update-scheduling policies.
//!
//! The simulator (`strip-core`) answers *what the policies do* under
//! controlled virtual time; this crate answers *whether the same code
//! runs them for real*. It reuses the entire `strip-db` substrate — the
//! snapshot store, the bounded OS receive queue, the generation-ordered
//! update queue with its shedding policies, and the exact staleness
//! tracker — and drives it from the shared, clock-agnostic
//! [`strip_core::policy`] decision module, against the machine's
//! monotonic clock instead of an event calendar.
//!
//! Pieces:
//!
//! * [`clock`] — the single wall-clock boundary ([`LiveClock`]); everything
//!   above it speaks `SimTime`.
//! * [`protocol`] — the length-prefixed binary wire format spoken over TCP
//!   (updates, transactions, queries, stats and report requests, plus
//!   batched update frames with credit-based flow control).
//! * [`spsc`] — the bounded lock-free single-producer/single-consumer
//!   ring that hands every wire update, in its frame's block, from its
//!   connection thread to the executor without a lock on the hot path.
//! * [`executor`] — the single-threaded wall-clock driver of the
//!   scheduling core: a scheduling point per quantum, runs of update work
//!   at planned instants, quantum-chunked transaction slices, UF/SU
//!   arrival preemption, firm-deadline watchdogs, MA expiry timers, and
//!   the same [`strip_core::report::RunReport`] at the end.
//! * [`wal`] — crash durability: an append-only, CRC-protected log of
//!   accepted updates, group-committed by a dedicated flusher thread so
//!   the quantum loop never blocks on `fsync`.
//! * [`snapshot`] — the byte format of the periodic store images; each
//!   one cuts the log.
//! * [`logdir`] — the durability directory: the one module that names,
//!   truncates, renames, unlinks or fsyncs a file, and the order it does
//!   so in.
//! * [`recovery`] — snapshot load + WAL chain replay (longest valid
//!   prefix), run before the listener binds.
//! * [`signal`] — a SIGTERM/SIGINT latch so operator kills take the
//!   orderly drain-seal-report path.
//! * [`server`] — the `stripd` front end: a TCP accept loop whose
//!   connection threads send updates over the rings and control over the
//!   executor's ingest channel, plus a Prometheus-style `/metrics` page
//!   served on the same port.
//! * [`loadgen`] — `strip-loadgen`: replays the `strip-workload` Poisson
//!   generators against a live server at real-time rate and retrieves the
//!   server's own report, so live runs and simulations are compared
//!   through one code path.

#![warn(missing_docs)]
#![warn(clippy::all)]
// D4, D8 and the unsafe boundary (DESIGN.md §11): `unsafe` lives in the
// three modules that `expect` it, each block with a `SAFETY:` comment; a
// panic site in the live runtime names its invariant in an
// `#[allow(.., reason = ..)]`.
#![deny(unsafe_code)]
#![deny(
    clippy::allow_attributes_without_reason,
    clippy::undocumented_unsafe_blocks
)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod clock;
mod crc32;
pub mod credit;
pub mod executor;
pub mod loadgen;
pub mod logdir;
pub mod protocol;
pub mod recovery;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod spsc;
pub mod wal;

pub use clock::LiveClock;
pub use executor::{Executor, Ingest, LiveConfig, LiveConfigError};
pub use loadgen::{replay, LoadgenSummary};
pub use protocol::{
    FrameReader, Msg, WireQuery, WireQueryResponse, WireStats, WireTxn, WireUpdate,
};
pub use recovery::{recover, recover_all, Recovered};
pub use server::{serve, serve_recovered, stats_from_report, ServerHandle, ShutdownTrigger};
pub use wal::{DurabilityConfig, FsyncPolicy, WalHandle};
