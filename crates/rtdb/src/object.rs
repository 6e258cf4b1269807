//! Database objects and their identifiers.
//!
//! The database is partitioned (paper §3.2) into *view* data — refreshed
//! only by the external update stream, read-only for transactions — and
//! *general* data — read and written only by transactions. View data is
//! further split into a **low-importance** and a **high-importance** group;
//! low-value transactions read the former, high-value transactions the
//! latter, and updates carry the importance of the object they refresh.

use serde::{Deserialize, Serialize};
use strip_sim::time::SimTime;

/// The importance class of a view object (and of transactions/updates that
/// touch it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Importance {
    /// Low-importance view data, read by low-value transactions.
    Low,
    /// High-importance view data, read by high-value transactions.
    High,
}

impl Importance {
    /// Both classes, in a fixed order (useful for per-class accounting).
    pub const ALL: [Importance; 2] = [Importance::Low, Importance::High];

    /// Index for per-class arrays: Low = 0, High = 1.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Importance::Low => 0,
            Importance::High => 1,
        }
    }

    /// Inverse of [`Importance::index`], for decoding wire formats.
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> Option<Importance> {
        match index {
            0 => Some(Importance::Low),
            1 => Some(Importance::High),
            _ => None,
        }
    }
}

/// Identifier of a view object: importance class plus index within the
/// class's partition (`0..N_low` or `0..N_high`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ViewObjectId {
    /// Which partition the object lives in.
    pub class: Importance,
    /// Index within the partition.
    pub index: u32,
}

impl ViewObjectId {
    /// Convenience constructor.
    #[must_use]
    pub fn new(class: Importance, index: u32) -> Self {
        ViewObjectId { class, index }
    }

    /// Dense index over both classes, `index · 2 + class`: the row of
    /// every per-object table (store, staleness tracker, update-queue
    /// chains, DAG base dependents, the live executor's expiry bits). No
    /// branch on the class; when the classes differ in size, the larger
    /// one's tail leaves every other row of a table unused.
    #[inline]
    #[must_use]
    pub fn slot(self) -> usize {
        self.index as usize * 2 + self.class.index()
    }

    /// Inverse of [`ViewObjectId::slot`].
    #[inline]
    #[must_use]
    pub fn from_slot(slot: usize) -> Self {
        ViewObjectId::new(Importance::ALL[slot & 1], (slot / 2) as u32)
    }

    /// Rows a per-object table needs for `n_low` + `n_high` objects.
    #[inline]
    #[must_use]
    pub fn slots(n_low: u32, n_high: u32) -> usize {
        (n_low as usize * 2).max(n_high as usize * 2)
    }
}

/// A snapshot view object: the current externally sourced value, the
/// generation timestamp of that value at its external source, and a local
/// version counter of its installs.
///
/// An object may carry multiple *attributes* (the partial-update extension,
/// paper §2): each attribute then has its own generation timestamp, and
/// `generation_ts` is the **minimum** over attributes — the age that the
/// Maximum Age criterion cares about, since an object is up to date only
/// when every attribute is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ViewObject {
    /// Current payload (e.g. a price). The simulator carries a real payload
    /// so that install paths move actual data, not just timestamps.
    pub payload: f64,
    /// Generation timestamp of the installed value — for multi-attribute
    /// objects, the oldest attribute's generation.
    pub generation_ts: SimTime,
    /// Monotonic install counter; bumped on every install.
    pub version: u64,
    /// Per-attribute generation timestamps; empty for single-attribute
    /// objects (the paper's model).
    attr_gens: Vec<SimTime>,
}

impl ViewObject {
    /// Creates a single-attribute object whose current value was generated
    /// at `generation_ts`.
    #[must_use]
    pub fn new(payload: f64, generation_ts: SimTime) -> Self {
        ViewObject {
            payload,
            generation_ts,
            version: 0,
            attr_gens: Vec::new(),
        }
    }

    /// Creates an object with `attrs` attributes, all generated at
    /// `generation_ts`.
    #[must_use]
    pub fn with_attrs(payload: f64, generation_ts: SimTime, attrs: u32) -> Self {
        let attr_gens = if attrs <= 1 {
            Vec::new()
        } else {
            vec![generation_ts; attrs as usize]
        };
        ViewObject {
            payload,
            generation_ts,
            version: 0,
            attr_gens,
        }
    }

    /// Rebuilds an object from persisted state: the payload, the install
    /// version counter, and every attribute's generation timestamp (one
    /// entry for the paper's single-attribute model). `generation_ts` is
    /// re-derived as the minimum attribute generation, exactly as
    /// [`ViewObject::apply`] maintains it. An empty `attr_generations` is
    /// treated as a single attribute at `SimTime::ZERO` (a decoder should
    /// never produce it, but restore must not panic on hostile input).
    #[must_use]
    pub fn restore(payload: f64, version: u64, attr_generations: Vec<SimTime>) -> Self {
        let generation_ts = attr_generations
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO);
        let attr_gens = if attr_generations.len() <= 1 {
            Vec::new()
        } else {
            attr_generations
        };
        ViewObject {
            payload,
            generation_ts,
            version,
            attr_gens,
        }
    }

    /// Number of attributes (1 for the paper's single-attribute model).
    #[must_use]
    pub fn attr_count(&self) -> u32 {
        if self.attr_gens.is_empty() {
            1
        } else {
            self.attr_gens.len() as u32
        }
    }

    /// Generation timestamp of one attribute.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range.
    #[must_use]
    pub fn attr_generation(&self, attr: u32) -> SimTime {
        if self.attr_gens.is_empty() {
            assert_eq!(attr, 0, "single-attribute object");
            self.generation_ts
        } else {
            self.attr_gens[attr as usize]
        }
    }

    /// Applies a value generated at `gen` covering the attributes in
    /// `mask`. Returns `true` if any covered attribute advanced (the
    /// worthiness check of paper §3.3); on advance the version is bumped
    /// and `generation_ts` re-derived as the minimum attribute generation.
    pub fn apply(&mut self, gen: SimTime, payload: f64, mask: u64) -> bool {
        if self.attr_gens.is_empty() {
            if gen <= self.generation_ts {
                return false;
            }
            self.generation_ts = gen;
            self.payload = payload;
            self.version += 1;
            return true;
        }
        let mut advanced = false;
        for (i, ag) in self.attr_gens.iter_mut().enumerate() {
            if i < 64 && (mask >> i) & 1 == 1 && gen > *ag {
                *ag = gen;
                advanced = true;
            }
        }
        if advanced {
            self.payload = payload;
            self.generation_ts = self
                .attr_gens
                .iter()
                .copied()
                .min()
                .expect("non-empty attr_gens");
            self.version += 1;
        }
        advanced
    }

    /// Age of the installed value at time `now` (seconds). For
    /// multi-attribute objects this is the age of the *oldest* attribute.
    #[inline]
    #[must_use]
    pub fn age_at(&self, now: SimTime) -> f64 {
        now.since(self.generation_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importance_indices_are_stable() {
        assert_eq!(Importance::Low.index(), 0);
        assert_eq!(Importance::High.index(), 1);
        assert_eq!(Importance::ALL.len(), 2);
        for class in Importance::ALL {
            assert_eq!(Importance::from_index(class.index()), Some(class));
        }
        assert_eq!(Importance::from_index(2), None);
    }

    #[test]
    fn view_object_age() {
        let o = ViewObject::new(1.0, SimTime::from_secs(2.0));
        assert_eq!(o.age_at(SimTime::from_secs(5.0)), 3.0);
        assert_eq!(o.version, 0);
        assert_eq!(o.attr_count(), 1);
        assert_eq!(o.attr_generation(0), SimTime::from_secs(2.0));
    }

    #[test]
    fn single_attribute_apply_is_worthiness_checked() {
        let mut o = ViewObject::new(0.0, SimTime::from_secs(1.0));
        assert!(!o.apply(SimTime::from_secs(0.5), 9.0, u64::MAX));
        assert_eq!(o.payload, 0.0);
        assert!(o.apply(SimTime::from_secs(2.0), 9.0, u64::MAX));
        assert_eq!(o.payload, 9.0);
        assert_eq!(o.version, 1);
    }

    #[test]
    fn partial_apply_tracks_minimum_generation() {
        let mut o = ViewObject::with_attrs(0.0, SimTime::from_secs(0.0), 3);
        assert_eq!(o.attr_count(), 3);
        // Refresh attribute 0 only: min generation stays at 0.
        assert!(o.apply(SimTime::from_secs(5.0), 1.0, 0b001));
        assert_eq!(o.generation_ts, SimTime::from_secs(0.0));
        assert_eq!(o.attr_generation(0), SimTime::from_secs(5.0));
        // Refresh the remaining two: min generation advances.
        assert!(o.apply(SimTime::from_secs(6.0), 2.0, 0b110));
        assert_eq!(o.generation_ts, SimTime::from_secs(5.0));
        // A partial update covering only already-newer attributes is
        // superseded.
        assert!(!o.apply(SimTime::from_secs(4.0), 3.0, 0b001));
        assert_eq!(o.version, 2);
    }

    #[test]
    fn complete_apply_on_multi_attribute_object() {
        let mut o = ViewObject::with_attrs(0.0, SimTime::from_secs(0.0), 4);
        assert!(o.apply(SimTime::from_secs(3.0), 1.0, u64::MAX));
        assert_eq!(o.generation_ts, SimTime::from_secs(3.0));
        for a in 0..4 {
            assert_eq!(o.attr_generation(a), SimTime::from_secs(3.0));
        }
    }

    #[test]
    fn restore_rederives_min_generation() {
        let o = ViewObject::restore(
            3.5,
            7,
            vec![SimTime::from_secs(2.0), SimTime::from_secs(1.0)],
        );
        assert_eq!(o.version, 7);
        assert_eq!(o.payload, 3.5);
        assert_eq!(o.generation_ts, SimTime::from_secs(1.0));
        assert_eq!(o.attr_count(), 2);
        assert_eq!(o.attr_generation(0), SimTime::from_secs(2.0));
        let single = ViewObject::restore(1.0, 2, vec![SimTime::from_secs(5.0)]);
        assert_eq!(single.attr_count(), 1);
        assert_eq!(single.generation_ts, SimTime::from_secs(5.0));
        // Hostile input: no attribute generations at all.
        let empty = ViewObject::restore(0.0, 0, Vec::new());
        assert_eq!(empty.generation_ts, SimTime::ZERO);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = ViewObjectId::new(Importance::Low, 3);
        let b = ViewObjectId::new(Importance::High, 3);
        assert!(a < b);
        let mut s = HashSet::new();
        s.insert(a);
        s.insert(b);
        s.insert(a);
        assert_eq!(s.len(), 2);
    }
}
