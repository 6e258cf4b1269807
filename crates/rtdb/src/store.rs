//! The main-memory object store.
//!
//! Holds the two view partitions (low/high importance) plus the general
//! partition (paper §3.2, Figure 1). View objects are refreshed exclusively
//! by installing updates; transactions may read view data and read/write
//! general data. Installs enforce the *worthiness check* of §3.3: an update
//! whose generation timestamp is not newer than the installed value is
//! skipped (this happens when updates are applied out of order).
//!
//! Both view partitions live in one table, a row per object at
//! [`ViewObjectId::slot`], so finding an object is one multiply-add and
//! no branch on its class; the class sizes are kept beside it for the
//! range check.

use serde::{Deserialize, Serialize};
use strip_sim::time::SimTime;

use crate::object::{Importance, ViewObject, ViewObjectId};
use crate::staleness::ma_stale;
use crate::update::Update;

/// Result of attempting to install an update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InstallOutcome {
    /// The update advanced at least one attribute and was written.
    Installed {
        /// The object's version counter after the write.
        new_version: u64,
        /// The object's (minimum-attribute) generation after the write —
        /// what the Maximum Age criterion measures.
        min_generation: SimTime,
    },
    /// The database already held values at least as recent for every
    /// covered attribute; the update was skipped after the lookup (paper
    /// §3.3: "the update can be skipped").
    Superseded,
}

/// The partitioned main-memory database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Store {
    /// Both view partitions, a row per object at its slot; the rows no
    /// object has (only when the class sizes differ) are never read.
    views: Vec<ViewObject>,
    /// Objects per class, by [`Importance::index`].
    class_len: [u32; 2],
    general: Vec<f64>,
    installs: u64,
    superseded: u64,
}

impl Store {
    /// Creates a store with `n_low` + `n_high` view objects and `n_general`
    /// general objects. Every view object starts with payload 0 and the
    /// given initial generation timestamp.
    #[inline]
    #[must_use]
    pub fn new(n_low: u32, n_high: u32, n_general: u32, initial_ts: SimTime) -> Self {
        Self::restore(n_low, n_high, n_general, |_| {
            ViewObject::new(0.0, initial_ts)
        })
    }

    /// Creates a store where each view object's initial generation timestamp
    /// is produced by `init_ts(id)` — used to start staleness statistics in
    /// steady state (see DESIGN.md). `attrs` sets the attributes per view
    /// object (1 = the paper's model; >1 enables partial updates).
    #[must_use]
    pub fn with_initial_timestamps<F>(
        n_low: u32,
        n_high: u32,
        n_general: u32,
        attrs: u32,
        mut init_ts: F,
    ) -> Self
    where
        F: FnMut(ViewObjectId) -> SimTime,
    {
        Self::restore(n_low, n_high, n_general, |id| {
            ViewObject::with_attrs(0.0, init_ts(id), attrs)
        })
    }

    /// Rebuilds a store from persisted per-object state: `restore(id)`
    /// supplies each view object (see [`ViewObject::restore`]); the store
    /// invokes it once per id, every low-importance one in index order
    /// and then every high-importance one. General data is
    /// transaction-private scratch and restarts zeroed; the
    /// install/superseded counters restart at zero too (they are run
    /// metrics, not state — the recovered run's report counts its own
    /// installs, with replays accounted separately).
    #[must_use]
    pub fn restore<F>(n_low: u32, n_high: u32, n_general: u32, mut restore: F) -> Self
    where
        F: FnMut(ViewObjectId) -> ViewObject,
    {
        let mut views =
            vec![ViewObject::new(0.0, SimTime::ZERO); ViewObjectId::slots(n_low, n_high)];
        for (class, n) in [(Importance::Low, n_low), (Importance::High, n_high)] {
            for i in 0..n {
                let id = ViewObjectId::new(class, i);
                views[id.slot()] = restore(id);
            }
        }
        Store {
            views,
            class_len: [n_low, n_high],
            general: vec![0.0; n_general as usize],
            installs: 0,
            superseded: 0,
        }
    }

    /// Number of view objects in a class.
    #[inline]
    #[must_use]
    pub fn class_len(&self, class: Importance) -> usize {
        self.class_len[class.index()] as usize
    }

    /// The row of `id`, range-checked against its class.
    #[inline]
    fn row(&self, id: ViewObjectId) -> usize {
        assert!(
            id.index < self.class_len[id.class.index()],
            "no view object {id:?}"
        );
        id.slot()
    }

    /// Immutable access to a view object.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range for the class.
    #[inline]
    #[must_use]
    pub fn view(&self, id: ViewObjectId) -> &ViewObject {
        &self.views[self.row(id)]
    }

    #[inline]
    fn view_mut(&mut self, id: ViewObjectId) -> &mut ViewObject {
        let row = self.row(id);
        &mut self.views[row]
    }

    /// Installs `update`, applying the worthiness check (for partial
    /// updates: at least one covered attribute must advance).
    #[inline]
    pub fn install(&mut self, update: &Update) -> InstallOutcome {
        let obj = self.view_mut(update.object);
        if !obj.apply(update.generation_ts, update.payload, update.attr_mask) {
            self.superseded += 1;
            return InstallOutcome::Superseded;
        }
        let new_version = obj.version;
        let min_generation = obj.generation_ts;
        self.installs += 1;
        InstallOutcome::Installed {
            new_version,
            min_generation,
        }
    }

    /// True if the object's installed value has reached the maximum age
    /// `alpha` at `now` (the Maximum Age staleness test, paper §2:
    /// [`ma_stale`]).
    #[inline]
    #[must_use]
    pub fn is_stale_ma(&self, id: ViewObjectId, now: SimTime, alpha: f64) -> bool {
        ma_stale(self.view(id).generation_ts, alpha, now)
    }

    /// Reads a general object.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    #[must_use]
    pub fn read_general(&self, index: usize) -> f64 {
        self.general[index]
    }

    /// Writes a general object.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn write_general(&mut self, index: usize, value: f64) {
        self.general[index] = value;
    }

    /// Successful installs so far.
    #[inline]
    #[must_use]
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Updates skipped as superseded so far.
    #[inline]
    #[must_use]
    pub fn superseded(&self) -> u64 {
        self.superseded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn upd(class: Importance, idx: u32, gen: f64, payload: f64) -> Update {
        Update {
            seq: 0,
            object: ViewObjectId::new(class, idx),
            generation_ts: t(gen),
            arrival_ts: t(gen + 0.1),
            payload,
            attr_mask: Update::COMPLETE,
        }
    }

    #[test]
    fn install_writes_payload_and_bumps_version() {
        let mut s = Store::new(2, 2, 1, t(-1.0));
        let u = upd(Importance::Low, 0, 1.0, 42.0);
        let outcome = s.install(&u);
        assert_eq!(
            outcome,
            InstallOutcome::Installed {
                new_version: 1,
                min_generation: t(1.0),
            }
        );
        let o = s.view(u.object);
        assert_eq!(o.payload, 42.0);
        assert_eq!(o.generation_ts, t(1.0));
        assert_eq!(s.installs(), 1);
    }

    #[test]
    fn stale_update_is_superseded() {
        let mut s = Store::new(1, 1, 0, t(0.0));
        assert!(matches!(
            s.install(&upd(Importance::High, 0, 5.0, 1.0)),
            InstallOutcome::Installed { .. }
        ));
        // An older generation (out-of-order arrival) is skipped.
        assert_eq!(
            s.install(&upd(Importance::High, 0, 3.0, 2.0)),
            InstallOutcome::Superseded
        );
        // Equal generation is also skipped (not newer).
        assert_eq!(
            s.install(&upd(Importance::High, 0, 5.0, 2.0)),
            InstallOutcome::Superseded
        );
        assert_eq!(s.view(ViewObjectId::new(Importance::High, 0)).payload, 1.0);
        assert_eq!(s.superseded(), 2);
    }

    #[test]
    fn ma_staleness_test() {
        let mut s = Store::new(1, 0, 0, t(0.0));
        let id = ViewObjectId::new(Importance::Low, 0);
        s.install(&upd(Importance::Low, 0, 1.0, 1.0));
        assert!(!s.is_stale_ma(id, t(7.9), 7.0));
        // Stale from generation + α on: at age == α exactly, as the
        // tracker's metric counts it.
        assert!(s.is_stale_ma(id, t(8.0), 7.0));
        assert!(s.is_stale_ma(id, t(8.1), 7.0));
    }

    #[test]
    fn general_data_read_write() {
        let mut s = Store::new(0, 0, 4, t(0.0));
        s.write_general(2, 9.5);
        assert_eq!(s.read_general(2), 9.5);
        assert_eq!(s.read_general(0), 0.0);
        assert_eq!(s.general.len(), 4);
    }

    #[test]
    fn partial_updates_through_the_store() {
        let mut s = Store::with_initial_timestamps(1, 0, 0, 2, |_| t(0.0));
        let id = ViewObjectId::new(Importance::Low, 0);
        let mut u = upd(Importance::Low, 0, 4.0, 1.5);
        u.attr_mask = 0b01;
        assert!(
            matches!(s.install(&u), InstallOutcome::Installed { min_generation, .. } if min_generation == t(0.0))
        );
        // MA staleness follows the oldest attribute.
        assert!(s.is_stale_ma(id, t(8.0), 7.0));
        let mut u2 = upd(Importance::Low, 0, 6.0, 2.5);
        u2.attr_mask = 0b10;
        assert!(
            matches!(s.install(&u2), InstallOutcome::Installed { min_generation, .. } if min_generation == t(4.0))
        );
        assert!(!s.is_stale_ma(id, t(8.0), 7.0));
        // A partial update to an already-newer attribute is superseded.
        let mut u3 = upd(Importance::Low, 0, 3.0, 0.0);
        u3.attr_mask = 0b01;
        assert_eq!(s.install(&u3), InstallOutcome::Superseded);
    }

    #[test]
    fn initial_timestamps_are_applied() {
        let s = Store::with_initial_timestamps(2, 1, 0, 1, |id| match (id.class, id.index) {
            (Importance::Low, 0) => t(-1.0),
            (Importance::Low, 1) => t(-2.0),
            _ => t(-3.0),
        });
        assert_eq!(
            s.view(ViewObjectId::new(Importance::Low, 1)).generation_ts,
            t(-2.0)
        );
        assert_eq!(
            s.view(ViewObjectId::new(Importance::High, 0)).generation_ts,
            t(-3.0)
        );
    }

    #[test]
    fn restore_rebuilds_objects_and_resets_counters() {
        let mut orig = Store::new(2, 1, 3, t(0.0));
        orig.install(&upd(Importance::Low, 1, 2.0, 7.0));
        let restored = Store::restore(2, 1, 3, |id| orig.view(id).clone());
        let id = ViewObjectId::new(Importance::Low, 1);
        assert_eq!(restored.view(id).payload, 7.0);
        assert_eq!(restored.view(id).version, 1);
        assert_eq!(restored.view(id).generation_ts, t(2.0));
        assert_eq!(restored.general.len(), 3);
        // Run counters are metrics, not state: they restart at zero.
        assert_eq!(restored.installs(), 0);
        assert_eq!(restored.superseded(), 0);
        // Worthiness still applies against the restored generations.
        let mut restored = restored;
        assert_eq!(
            restored.install(&upd(Importance::Low, 1, 1.5, 9.0)),
            InstallOutcome::Superseded
        );
    }
}
