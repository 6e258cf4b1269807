//! Load-shedding policies for the bounded update queue (robustness
//! extension).
//!
//! The paper bounds both queues (`OS_max`, `UQ_max`) and prescribes one
//! overflow reaction each: the OS queue rejects the arriving message
//! (§3.3), the update queue discards its oldest update (§4.2). The OS
//! queue keeps the kernel's rule. Under disturbed streams — catch-up
//! floods after an outage, sustained bursts — *which* queued update is
//! sacrificed decides how staleness degrades, so the update queue's
//! overflow reaction is a pluggable [`ShedPolicy`]. The paper's rule
//! remains the default.

use serde::{Deserialize, Serialize};

/// Which update a full queue sacrifices when a new one arrives.
///
/// Every variant still sheds exactly one update per overflow event, so the
/// conservation law `installed + superseded + expired + overflow + dedup +
/// dropped + left + in-flight == arrived` holds for all of them (see the
/// shedding property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Reject the newest *generation*, which may be the arrival itself —
    /// the update-queue counterpart of the OS queue's fixed rule (§3.3:
    /// the kernel discards the arriving message).
    DropNewest,
    /// Evict the oldest update. This is the paper's update-queue overflow
    /// rule (§4.2) — the oldest generation is the closest to expiring
    /// anyway.
    DropOldest,
    /// Evict the oldest *low-importance* update; fall back to the oldest
    /// overall when only high-importance updates are queued. Extends the
    /// paper's two-level importance split (§3.2) to overflow decisions:
    /// high-importance freshness is protected while the flood lasts.
    DropLowestImportance,
    /// Evict the oldest update that is already superseded by a newer queued
    /// update for the same object (its install would be wasted work); fall
    /// back to the oldest overall when every queued update is its object's
    /// newest. A lazy, overflow-time version of the hash-index dedup
    /// extension (§4.2/§4.4).
    CoalescePerObject,
}

impl ShedPolicy {
    /// Short label used in figure series.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ShedPolicy::DropNewest => "drop-newest",
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::DropLowestImportance => "drop-low-imp",
            ShedPolicy::CoalescePerObject => "coalesce",
        }
    }

    /// All policies, in documentation order (used by sweeps).
    pub const ALL: [ShedPolicy; 4] = [
        ShedPolicy::DropNewest,
        ShedPolicy::DropOldest,
        ShedPolicy::DropLowestImportance,
        ShedPolicy::CoalescePerObject,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = ShedPolicy::ALL.iter().map(ShedPolicy::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ShedPolicy::ALL.len());
    }
}
