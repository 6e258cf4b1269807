//! Simulation time.
//!
//! Simulated time is a non-negative number of seconds represented as `f64`.
//! The newtype [`SimTime`] provides a total order (simulation times are never
//! NaN by construction) so it can key ordered collections such as the event
//! queue and the generation-ordered update queue.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, in seconds since the start of the simulation.
///
/// `SimTime` is totally ordered. Constructors reject NaN, which is the only
/// source of partiality in `f64` comparisons; all arithmetic on non-NaN
/// operands stays non-NaN.
///
/// Times may be negative: view objects are initialised with generation
/// timestamps *before* the simulation start so that staleness statistics
/// begin in steady state (see the design notes in `DESIGN.md`).
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every time reachable in a simulation.
    pub const FAR_FUTURE: SimTime = SimTime(f64::INFINITY);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    #[inline]
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime must not be NaN");
        SimTime(secs)
    }

    /// The time as seconds.
    #[inline]
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `self - earlier` as a duration in seconds.
    #[inline]
    #[must_use]
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }

    /// The later of two times.
    #[inline]
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if other > self {
            other
        } else {
            self
        }
    }

    /// The earlier of two times.
    #[inline]
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if other < self {
            other
        } else {
            self
        }
    }

    /// The time as a `u64` whose unsigned order is the time order: the
    /// sign-flip bijection `f64::total_cmp` applies on every comparison,
    /// hoisted so an ordered structure pays it once per key. `-0.0` is
    /// first canonicalised to `+0.0` (`== 0.0` holds for both, so they
    /// must share a key); otherwise the map is injective, and strictly
    /// monotone: `a < b` ⇔ `a.order_bits() < b.order_bits()`.
    #[inline]
    #[must_use]
    pub fn order_bits(self) -> u64 {
        // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
        let b = (self.0 + 0.0).to_bits() as i64;
        (b ^ (((b >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63)
    }

    /// Inverse of [`SimTime::order_bits`] (a key made from `-0.0` comes
    /// back as `+0.0`): the conditional mantissa flip depends only on the
    /// preserved sign bit, so undoing the sign toggle and re-applying the
    /// flip recovers the bits exactly.
    #[inline]
    #[must_use]
    pub fn from_order_bits(bits: u64) -> SimTime {
        let m = (bits ^ (1 << 63)) as i64;
        SimTime(f64::from_bits(
            (m ^ (((m >> 63) as u64) >> 1) as i64) as u64,
        ))
    }
}

// The order is the hardware float compare: total because no `SimTime` is
// NaN, and consistent with the derived `PartialEq` (`-0.0 == 0.0`), which
// `f64::total_cmp` is not.
impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn lt(&self, other: &Self) -> bool {
        self.0 < other.0
    }

    #[inline]
    fn le(&self, other: &Self) -> bool {
        self.0 <= other.0
    }

    #[inline]
    fn gt(&self, other: &Self) -> bool {
        self.0 > other.0
    }

    #[inline]
    fn ge(&self, other: &Self) -> bool {
        self.0 >= other.0
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        if self.0 < other.0 {
            core::cmp::Ordering::Less
        } else if self.0 > other.0 {
            core::cmp::Ordering::Greater
        } else {
            core::cmp::Ordering::Equal
        }
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, secs: f64) -> SimTime {
        SimTime::from_secs(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;

    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_numeric() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(SimTime::ZERO < SimTime::FAR_FUTURE);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from_secs(3.5) + 1.25;
        assert_eq!(t.as_secs(), 4.75);
        assert_eq!(t - SimTime::from_secs(4.0), 0.75);
        assert_eq!(t.since(SimTime::ZERO), 4.75);
    }

    #[test]
    fn negative_times_are_allowed() {
        let t = SimTime::from_secs(-2.5);
        assert!(t < SimTime::ZERO);
        assert_eq!(SimTime::ZERO.since(t), 2.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn order_agrees_with_eq_and_order_bits() {
        use core::cmp::Ordering;
        let times: Vec<SimTime> = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::from_bits(1), // the smallest-magnitude negative subnormal
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ]
        .into_iter()
        .map(SimTime::from_secs)
        .collect();
        for &a in &times {
            assert_eq!(SimTime::from_order_bits(a.order_bits()), a);
            for &b in &times {
                assert_eq!(a == b, a.cmp(&b) == Ordering::Equal, "{a:?} vs {b:?}");
                assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
                assert_eq!(a < b, a.cmp(&b) == Ordering::Less);
                assert_eq!(a >= b, a.cmp(&b) != Ordering::Less);
                assert_eq!(a.order_bits().cmp(&b.order_bits()), a.cmp(&b));
            }
        }
        let (neg, pos) = (SimTime::from_secs(-0.0), SimTime::ZERO);
        assert_eq!(neg, pos);
        assert_eq!(neg.order_bits(), pos.order_bits());
        assert!(SimTime::from_order_bits(neg.order_bits())
            .as_secs()
            .is_sign_positive());
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += 0.5;
        t += 0.5;
        assert_eq!(t.as_secs(), 1.0);
    }
}
