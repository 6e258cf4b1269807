//! Feed outage over the update stream (robustness extension, figR1).
//!
//! Wraps any [`UpdateSource`] and silences it for a window `[from, to)`:
//! an inner arrival generated inside the window is delivered at `to`, in
//! the catch-up flood, and every other arrival passes through unchanged.
//! The map is monotone, so the output keeps the inner order and the
//! controller's contract that arrivals come in non-decreasing time. The
//! layer draws no random numbers, so the inner stream is bit-identical
//! with or without it.

use std::collections::VecDeque;

use strip_core::config::DisturbanceSpec;
use strip_core::sources::{UpdateSource, UpdateSpec};
use strip_sim::time::SimTime;

/// An [`UpdateSource`] adapter applying the outage of a [`DisturbanceSpec`]
/// to `inner`.
#[derive(Debug, Clone)]
pub struct DisturbedUpdates<S> {
    inner: S,
    /// The outage window `[from, to)`; `None` passes everything through.
    window: Option<(SimTime, SimTime)>,
    /// The window's arrivals, re-stamped to `to`, then the first arrival
    /// after it. Filled from `inner` in one go the first time the stream
    /// reaches the window, so `held` also counts the arrivals that a
    /// horizon before `to` strands.
    flood: VecDeque<UpdateSpec>,
    held: u64,
}

impl<S: UpdateSource> DisturbedUpdates<S> {
    /// Wraps `inner` with the outage described by `spec`.
    #[must_use]
    pub fn new(inner: S, spec: DisturbanceSpec) -> Self {
        let window = spec
            .outage_window()
            .map(|(from, to)| (SimTime::from_secs(from), SimTime::from_secs(to)));
        DisturbedUpdates {
            inner,
            window,
            flood: VecDeque::new(),
            held: 0,
        }
    }
}

impl<S: UpdateSource> UpdateSource for DisturbedUpdates<S> {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        if let Some(spec) = self.flood.pop_front() {
            return Some(spec);
        }
        let spec = self.inner.next_update()?;
        match self.window {
            Some((from, to)) if spec.arrival >= from && spec.arrival < to => {
                // The feed is silent until `to`: everything it generates
                // meanwhile joins the flood. The inner stream is
                // non-decreasing, so after the first arrival at or past
                // `to` none is in the window.
                let mut next = Some(spec);
                while let Some(mut held) = next.filter(|u| u.arrival < to) {
                    held.arrival = to;
                    self.flood.push_back(held);
                    self.held += 1;
                    next = self.inner.next_update();
                }
                self.flood.extend(next);
                self.flood.pop_front()
            }
            _ => Some(spec),
        }
    }

    fn outage_held(&self) -> u64 {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_core::sources::ScriptedUpdates;
    use strip_db::object::{Importance, ViewObjectId};

    fn spec_at(t: f64, idx: u32) -> UpdateSpec {
        UpdateSpec {
            arrival: SimTime::from_secs(t),
            object: ViewObjectId::new(Importance::Low, idx % 500),
            generation_ts: SimTime::from_secs((t - 0.05).max(0.0)),
            payload: 1.0,
            attr_mask: u64::MAX,
        }
    }

    #[test]
    fn outage_floods_at_window_end() {
        let spec = DisturbanceSpec {
            outage_from: 5.0,
            outage_secs: 3.0,
        };
        // Arrivals at 0.05, 0.15, … keep clear of the float boundaries at
        // 5.0 and 8.0; exactly 30 fall inside the window.
        let items: Vec<_> = (0..200)
            .map(|i| spec_at(f64::from(i) * 0.1 + 0.05, i))
            .collect();
        let mut s = DisturbedUpdates::new(ScriptedUpdates::new(items), spec);
        let out: Vec<_> = std::iter::from_fn(|| s.next_update()).collect();
        assert_eq!(out.len(), 200);
        assert!(out.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(out
            .iter()
            .all(|u| !(5.0..8.0).contains(&u.arrival.as_secs())));
        let flood = out
            .iter()
            .filter(|u| u.arrival == SimTime::from_secs(8.0))
            .count() as u64;
        assert_eq!(s.outage_held(), 30);
        assert_eq!(flood, 30);
    }
}
