//! `strip-db` — the soft real-time main-memory database substrate for the
//! SIGMOD 1995 update-streams reproduction.
//!
//! This crate implements everything the paper's conceptual model (§3)
//! assumes underneath the scheduler:
//!
//! * [`object`] / [`store`] — the partitioned main-memory database: low- and
//!   high-importance snapshot *view* objects refreshed by the external
//!   update stream, plus *general* data read/written by transactions.
//! * [`update`] — external updates carrying generation timestamps.
//! * [`osqueue`] — the small kernel-space FIFO where arriving updates wait
//!   until the controller receives them (`OS_max`).
//! * [`shed`] — pluggable overflow shedding policies shared by both bounded
//!   queues (robustness extension).
//! * [`update_queue`] — the generation-ordered, bounded application-level
//!   update queue with FIFO/LIFO service, MA expiry discard, overflow
//!   discard, per-object lookup, and the hash-index/dedup extension.
//! * [`staleness`] — Maximum Age, Unapplied Update and combined staleness
//!   criteria with exact time-weighted `fold` accounting.
//! * [`history`] — historical views (paper §2/§7 extension): per-object
//!   version chains with age/cap retention and as-of queries.
//! * [`triggers`] — update-triggered rules maintaining derived general data
//!   (paper §7 extension).
//! * [`dag`] — derived-view DAGs maintained by incremental delta
//!   propagation with transitive staleness.
//! * [`cost`] — the instruction-count CPU cost model of Table 3.
//!
//! The scheduler itself (the paper's contribution) lives in `strip-core`.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod cost;
pub mod dag;
pub mod history;
pub mod object;
pub mod osqueue;
pub mod shed;
pub mod staleness;
pub mod store;
pub mod triggers;
pub mod update;
pub mod update_queue;

pub use cost::CostModel;
pub use dag::{DagSpec, DagState, ViewDag};
pub use history::{HistoryPolicy, HistoryStore, Version};
pub use object::{Importance, ViewObject, ViewObjectId};
pub use osqueue::{Delivery, OsQueue};
pub use shed::ShedPolicy;
pub use staleness::{ExpiryWatch, StalenessSpec, StalenessTracker};
pub use store::{InstallOutcome, Store};
pub use triggers::{Rule, RuleSet};
pub use update::Update;
pub use update_queue::{InsertOutcome, UpdateQueue};
