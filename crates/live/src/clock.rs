// lint: allow-file(wall-clock, reason=this module is the live runtime's single wall-clock boundary; everything above it speaks SimTime)
//! The wall-clock boundary of the live runtime.
//!
//! The whole `strip-db` substrate (store, queues, staleness tracker,
//! metrics) speaks [`SimTime`]. [`LiveClock`] maps monotonic wall time onto
//! that axis — `SimTime::ZERO` is the instant the clock was started — so
//! the executor reuses the substrate unchanged. This module is the *only*
//! place in the workspace's deterministic crates where `Instant` appears;
//! everything above it is clock-agnostic (see `strip_core::policy`).

use std::time::{Duration, Instant};

use strip_sim::time::SimTime;

#[cfg(test)]
thread_local! {
    /// Clock readings taken on this thread — the executor is
    /// single-threaded, so a test that runs it inline gets an exact count.
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Monotonic wall clock anchored at an origin instant.
#[derive(Debug, Clone, Copy)]
pub struct LiveClock {
    origin: Instant,
}

impl LiveClock {
    /// Starts the clock; the current instant becomes `SimTime::ZERO`.
    #[must_use]
    pub fn start() -> Self {
        LiveClock {
            origin: Instant::now(),
        }
    }

    /// Wall time elapsed since the origin, on the substrate's time axis.
    #[must_use]
    pub fn now(&self) -> SimTime {
        #[cfg(test)]
        READS.with(|r| r.set(r.get() + 1));
        SimTime::from_secs(self.origin.elapsed().as_secs_f64())
    }

    /// Clock readings this thread has taken so far (test-only counter).
    #[cfg(test)]
    pub(crate) fn reads() -> u64 {
        READS.with(std::cell::Cell::get)
    }

    /// Burns CPU until the clock reads at least `deadline` (spin wait) and
    /// returns the reading that ended the wait — exactly one reading when
    /// the deadline has already passed. The executor charges slices in
    /// chunks far below the scheduler's sleep granularity, so spinning is
    /// the only way to model the paper's busy CPU faithfully; callers bound
    /// the distance to `deadline` by the preemption quantum.
    pub fn spin_until(&self, deadline: SimTime) -> SimTime {
        loop {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            std::hint::spin_loop();
        }
    }

    /// Maps a protocol timestamp (signed microseconds on this clock's axis)
    /// to substrate time. Negative values are legitimate: an external
    /// source may have generated a value before this server started.
    #[must_use]
    pub fn micros_to_sim(micros: i64) -> SimTime {
        SimTime::from_secs(micros as f64 * 1e-6)
    }

    /// Inverse of [`LiveClock::micros_to_sim`].
    #[must_use]
    pub fn sim_to_micros(t: SimTime) -> i64 {
        (t.as_secs() * 1e6).round() as i64
    }

    /// Burns CPU until `secs` of wall time have passed from the call:
    /// [`LiveClock::spin_until`] on a clock started here.
    pub fn spin_for(secs: f64) {
        if secs > 0.0 {
            LiveClock::start().spin_until(SimTime::from_secs(secs));
        }
    }

    /// Sleeps approximately `secs` (used only on idle paths, where
    /// precision does not matter).
    pub fn coarse_sleep(secs: f64) {
        if secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_from_zero() {
        let c = LiveClock::start();
        let a = c.now();
        LiveClock::spin_for(0.002);
        let b = c.now();
        assert!(a.as_secs() >= 0.0);
        assert!(
            b.since(a) >= 0.002 - 1e-9,
            "spin under-waited: {}",
            b.since(a)
        );
    }

    #[test]
    fn spin_until_returns_a_reading_at_or_past_the_deadline() {
        let c = LiveClock::start();
        let deadline = c.now() + 0.001;
        let before = LiveClock::reads();
        let end = c.spin_until(deadline);
        assert!(
            end >= deadline,
            "spin ended at {end:?}, before {deadline:?}"
        );
        assert!(LiveClock::reads() - before > 1, "a future deadline spins");
        assert!(c.now() >= end);
    }

    #[test]
    fn spin_until_a_past_deadline_takes_exactly_one_reading() {
        let c = LiveClock::start();
        let past = c.now();
        LiveClock::spin_for(20e-6);
        let before = LiveClock::reads();
        let end = c.spin_until(past);
        assert_eq!(LiveClock::reads() - before, 1);
        assert!(end >= past + 20e-6);
    }

    #[test]
    fn micros_mapping_round_trips_and_keeps_sign() {
        for m in [-2_500_000i64, -1, 0, 1, 7_000_000] {
            let t = LiveClock::micros_to_sim(m);
            assert_eq!(LiveClock::sim_to_micros(t), m);
        }
        assert!(LiveClock::micros_to_sim(-1_000_000).as_secs() < 0.0);
    }
}
