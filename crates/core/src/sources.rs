//! Workload source traits.
//!
//! The controller pulls arrivals lazily from two sources — one for the
//! external update stream, one for transactions. Generators (Poisson
//! processes per the paper's §5) live in `strip-workload`; deterministic
//! scripted sources are provided here for tests.

use strip_db::object::ViewObjectId;
use strip_sim::time::SimTime;

use crate::txn::TxnSpec;

/// One update arrival produced by a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateSpec {
    /// Arrival time at the database system (step 2 of Figure 2).
    pub arrival: SimTime,
    /// The view object refreshed.
    pub object: ViewObjectId,
    /// Generation timestamp at the external source (≤ arrival).
    pub generation_ts: SimTime,
    /// The new value.
    pub payload: f64,
    /// Attributes provided (`u64::MAX` = complete update, the paper's
    /// model).
    pub attr_mask: u64,
}

/// Produces the external update stream in non-decreasing arrival order.
pub trait UpdateSource {
    /// The next update arrival, or `None` when the stream ends.
    fn next_update(&mut self) -> Option<UpdateSpec>;

    /// Arrivals generated inside a feed outage so far, delivered or not
    /// (zero for well-behaved sources).
    fn outage_held(&self) -> u64 {
        0
    }
}

/// Produces transaction arrivals in non-decreasing arrival order.
pub trait TxnSource {
    /// The next transaction, or `None` when the stream ends.
    fn next_txn(&mut self) -> Option<TxnSpec>;
}

/// A scripted update source backed by a vector (tests, trace replay).
#[derive(Debug, Clone, Default)]
pub struct ScriptedUpdates {
    items: std::collections::VecDeque<UpdateSpec>,
}

impl ScriptedUpdates {
    /// Creates a source that replays `items` in order.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing.
    #[must_use]
    pub fn new(items: Vec<UpdateSpec>) -> Self {
        assert!(
            items.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "update arrivals must be non-decreasing"
        );
        ScriptedUpdates {
            items: items.into(),
        }
    }
}

impl UpdateSource for ScriptedUpdates {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        self.items.pop_front()
    }
}

/// A scripted transaction source backed by a vector (tests, trace replay).
#[derive(Debug, Clone, Default)]
pub struct ScriptedTxns {
    items: std::collections::VecDeque<TxnSpec>,
}

impl ScriptedTxns {
    /// Creates a source that replays `items` in order.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing.
    #[must_use]
    pub fn new(items: Vec<TxnSpec>) -> Self {
        assert!(
            items.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "txn arrivals must be non-decreasing"
        );
        ScriptedTxns {
            items: items.into(),
        }
    }
}

impl TxnSource for ScriptedTxns {
    fn next_txn(&mut self) -> Option<TxnSpec> {
        self.items.pop_front()
    }
}

/// An empty source (no arrivals) for either stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoArrivals;

impl UpdateSource for NoArrivals {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        None
    }
}

impl TxnSource for NoArrivals {
    fn next_txn(&mut self) -> Option<TxnSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_db::object::Importance;

    #[test]
    fn scripted_updates_replay_in_order() {
        let u = |t: f64| UpdateSpec {
            arrival: SimTime::from_secs(t),
            object: ViewObjectId::new(Importance::Low, 0),
            generation_ts: SimTime::from_secs(t - 0.1),
            payload: 0.0,
            attr_mask: u64::MAX,
        };
        let mut s = ScriptedUpdates::new(vec![u(1.0), u(2.0)]);
        assert_eq!(s.next_update().unwrap().arrival.as_secs(), 1.0);
        assert_eq!(s.next_update().unwrap().arrival.as_secs(), 2.0);
        assert!(s.next_update().is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn scripted_updates_reject_disorder() {
        let u = |t: f64| UpdateSpec {
            arrival: SimTime::from_secs(t),
            object: ViewObjectId::new(Importance::Low, 0),
            generation_ts: SimTime::from_secs(t),
            payload: 0.0,
            attr_mask: u64::MAX,
        };
        let _ = ScriptedUpdates::new(vec![u(2.0), u(1.0)]);
    }

    #[test]
    fn no_arrivals_is_empty() {
        let mut s = NoArrivals;
        assert!(UpdateSource::next_update(&mut s).is_none());
        assert!(TxnSource::next_txn(&mut s).is_none());
    }
}
