//! External updates.
//!
//! Each update refreshes exactly one view object (paper §3.3) and carries
//! the timestamp at which its value was *generated* by the external source.
//! Updates age in the network before arriving, so `arrival_ts >=
//! generation_ts`; the update queue is kept in generation order, not arrival
//! order.

use serde::{Deserialize, Serialize};
use strip_sim::time::SimTime;

use crate::object::ViewObjectId;
use crate::staleness::ma_stale;

/// One update to a snapshot view object. An update is *complete* (provides
/// every attribute, the paper's focus) or *partial* (provides a subset —
/// paper §2, evaluated as an extension here).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Update {
    /// Global arrival sequence number (assigned by the receiver; unique).
    pub seq: u64,
    /// The view object this update refreshes.
    pub object: ViewObjectId,
    /// Generation timestamp at the external source.
    pub generation_ts: SimTime,
    /// Arrival timestamp at the database system.
    pub arrival_ts: SimTime,
    /// The new value.
    pub payload: f64,
    /// Bitmask of the attributes provided ([`Update::COMPLETE`] = all).
    pub attr_mask: u64,
}

impl Update {
    /// Mask meaning "every attribute" (a complete update).
    pub const COMPLETE: u64 = u64::MAX;

    /// Number of attributes this update provides, for an object with
    /// `attrs` attributes.
    #[inline]
    #[must_use]
    pub fn provided_attrs(&self, attrs: u32) -> u32 {
        if attrs >= 64 {
            return self.attr_mask.count_ones();
        }
        (self.attr_mask & ((1u64 << attrs) - 1)).count_ones()
    }

    /// Whether this update provides every one of `attrs` attributes:
    /// `provided_attrs(attrs) == attrs` without counting bits.
    #[inline]
    #[must_use]
    pub fn provides_all(&self, attrs: u32) -> bool {
        match attrs {
            0..64 => {
                let all = (1u64 << attrs) - 1;
                self.attr_mask & all == all
            }
            64 => self.attr_mask == u64::MAX,
            _ => false,
        }
    }

    /// Age of the update's value at time `now`.
    #[inline]
    #[must_use]
    pub fn age_at(&self, now: SimTime) -> f64 {
        now.since(self.generation_ts)
    }

    /// True if the update's value has reached the maximum age `alpha` at
    /// `now` (it would install an already-stale value under the MA
    /// criterion: [`ma_stale`]).
    #[inline]
    #[must_use]
    pub fn expired_at(&self, now: SimTime, alpha: f64) -> bool {
        ma_stale(self.generation_ts, alpha, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::Importance;

    fn upd(gen: f64, arr: f64) -> Update {
        Update {
            seq: 0,
            object: ViewObjectId::new(Importance::Low, 0),
            generation_ts: SimTime::from_secs(gen),
            arrival_ts: SimTime::from_secs(arr),
            payload: 1.0,
            attr_mask: Update::COMPLETE,
        }
    }

    #[test]
    fn age_accounts_for_network_delay() {
        let u = upd(1.0, 1.5);
        assert_eq!(u.age_at(SimTime::from_secs(2.0)), 1.0);
    }

    #[test]
    fn provided_attrs_counts_within_width() {
        let mut u = upd(0.0, 0.1);
        assert_eq!(u.provided_attrs(4), 4);
        u.attr_mask = 0b0101;
        assert_eq!(u.provided_attrs(4), 2);
        assert_eq!(u.provided_attrs(2), 1);
        assert_eq!(u.provided_attrs(64), 2);
    }

    #[test]
    fn provides_all_is_a_full_count() {
        let mut u = upd(0.0, 0.1);
        for mask in [0, 1, 0b0101, 0b1111, u64::MAX >> 1, u64::MAX] {
            u.attr_mask = mask;
            for attrs in [0, 1, 2, 4, 5, 63, 64, 65] {
                assert_eq!(
                    u.provides_all(attrs),
                    u.provided_attrs(attrs) == attrs,
                    "mask {mask:#x}, {attrs} attributes"
                );
            }
        }
    }

    #[test]
    fn expiry_starts_at_generation_plus_alpha() {
        let u = upd(0.0, 0.1);
        assert!(!u.expired_at(SimTime::from_secs(6.9999), 7.0));
        assert!(u.expired_at(SimTime::from_secs(7.0), 7.0));
        assert!(u.expired_at(SimTime::from_secs(7.0001), 7.0));
    }
}
