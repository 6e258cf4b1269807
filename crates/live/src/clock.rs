//! The wall-clock boundary of the live runtime.
//!
//! The whole `strip-db` substrate (store, queues, staleness tracker,
//! metrics) speaks [`SimTime`]. A [`Clock`] tells time on that axis: the
//! executor and the WAL flusher read time only through one, so a test can
//! hand them a clock it owns. [`LiveClock`], the only production clock,
//! maps monotonic wall time onto the axis — `SimTime::ZERO` is the instant
//! it was started. This module is the *only* place in the workspace's
//! deterministic crates where `Instant` appears, by the one allowance of
//! rule D1's `disallowed-types` lint (the root `clippy.toml`, DESIGN.md
//! §11); everything above it is clock-agnostic (see `strip_core::policy`).

#![allow(
    clippy::disallowed_types,
    reason = "the live runtime's single wall-clock boundary; everything above it speaks SimTime"
)]

use std::time::Instant;

use strip_sim::time::SimTime;

/// A source of time on the substrate's axis, never going back.
pub trait Clock {
    /// The current reading.
    fn now(&self) -> SimTime;

    /// Burns CPU until the clock reads at least `deadline` (spin wait) and
    /// returns the reading that ended the wait — exactly one reading when
    /// the deadline has already passed. The executor charges slices in
    /// chunks far below the scheduler's sleep granularity, so spinning is
    /// the only way to model the paper's busy CPU faithfully; callers bound
    /// the distance to `deadline` by the preemption quantum.
    fn spin_until(&self, deadline: SimTime) -> SimTime {
        loop {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

/// Monotonic wall clock anchored at an origin instant.
#[derive(Debug, Clone, Copy)]
pub struct LiveClock {
    origin: Instant,
}

impl Clock for LiveClock {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.origin.elapsed().as_secs_f64())
    }
}

impl LiveClock {
    /// Starts the clock; the current instant becomes `SimTime::ZERO`.
    #[must_use]
    pub fn start() -> Self {
        LiveClock {
            origin: Instant::now(),
        }
    }

    /// Wall time elapsed since the origin, on the substrate's time axis
    /// ([`Clock::now`], callable without the trait in scope).
    #[must_use]
    pub fn now(&self) -> SimTime {
        Clock::now(self)
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
    /// [`Clock::spin_until`] on a clock started here.
    pub fn spin_for(secs: f64) {
        if secs > 0.0 {
            LiveClock::start().spin_until(SimTime::from_secs(secs));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock the test owns: every reading advances it by a fixed step,
    /// `spin_until` jumps straight to its deadline, and every reading is
    /// counted. [`TestClock::advance`] moves it without a reading.
    #[derive(Debug)]
    pub(crate) struct TestClock {
        at: Cell<SimTime>,
        step: f64,
        reads: Cell<u64>,
    }

    impl TestClock {
        /// A clock at zero whose readings are `step` seconds apart.
        pub(crate) fn new(step: f64) -> Self {
            TestClock {
                at: Cell::new(SimTime::ZERO),
                step,
                reads: Cell::new(0),
            }
        }

        /// Readings taken so far (`spin_until` counts two when it waits:
        /// the one that found the deadline ahead and the one at it).
        pub(crate) fn reads(&self) -> u64 {
            self.reads.get()
        }

        /// Lets `secs` pass.
        pub(crate) fn advance(&self, secs: f64) {
            self.at.set(self.at.get() + secs);
        }
    }

    impl Clock for TestClock {
        fn now(&self) -> SimTime {
            self.reads.set(self.reads.get() + 1);
            self.advance(self.step);
            self.at.get()
        }

        fn spin_until(&self, deadline: SimTime) -> SimTime {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            self.reads.set(self.reads.get() + 1);
            self.at.set(deadline);
            deadline
        }
    }

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

    /// Counts the readings of the wall clock it wraps, so the default
    /// `spin_until` is checked on real time.
    struct Counted {
        clock: LiveClock,
        reads: Cell<u64>,
    }

    impl Clock for Counted {
        fn now(&self) -> SimTime {
            self.reads.set(self.reads.get() + 1);
            self.clock.now()
        }
    }

    fn counted() -> Counted {
        Counted {
            clock: LiveClock::start(),
            reads: Cell::new(0),
        }
    }

    #[test]
    fn spin_until_returns_a_reading_at_or_past_the_deadline() {
        let c = counted();
        let deadline = c.now() + 0.001;
        let before = c.reads.get();
        let end = c.spin_until(deadline);
        assert!(
            end >= deadline,
            "spin ended at {end:?}, before {deadline:?}"
        );
        assert!(c.reads.get() - before > 1, "a future deadline spins");
        assert!(c.now() >= end);
    }

    #[test]
    fn spin_until_a_past_deadline_takes_exactly_one_reading() {
        let c = counted();
        let past = c.now();
        LiveClock::spin_for(20e-6);
        let before = c.reads.get();
        let end = c.spin_until(past);
        assert_eq!(c.reads.get() - before, 1);
        assert!(end >= past + 20e-6);
    }

    #[test]
    fn the_test_clock_steps_per_reading_and_jumps_to_a_deadline() {
        let c = TestClock::new(1e-6);
        assert_eq!(c.now(), SimTime::from_secs(1e-6));
        assert_eq!(c.spin_until(SimTime::ZERO), SimTime::from_secs(2e-6));
        let deadline = SimTime::from_secs(0.5);
        assert_eq!(c.spin_until(deadline), deadline);
        assert_eq!(c.reads(), 4);
        c.advance(0.25);
        assert_eq!(c.now(), SimTime::from_secs(0.75 + 1e-6));
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
