//! Online statistics for simulation outputs.
//!
//! The paper's headline staleness metric `fold` is a *time-weighted* average
//! of the stale fraction (Section 3.5), so the central type here is
//! [`TimeWeighted`], an exact piecewise-constant integrator. [`Welford`]
//! accumulates means/variances of per-entity observations (response times,
//! values) in one pass.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Exact integrator for a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the running
/// integral of the signal over time is maintained exactly. The time-weighted
/// mean over `[start, end]` is `integral / (end - start)`.
///
/// # Example
///
/// ```
/// use strip_sim::stats::TimeWeighted;
/// use strip_sim::time::SimTime;
///
/// let t = SimTime::from_secs;
/// let mut stale_count = TimeWeighted::new(t(0.0), 0.0);
/// stale_count.set(t(2.0), 5.0); // five objects stale from t = 2
/// stale_count.set(t(8.0), 0.0); // all refreshed at t = 8
/// assert_eq!(stale_count.integral_through(t(10.0)), 30.0);
/// assert_eq!(stale_count.mean_over(t(0.0), t(10.0)), 3.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Creates an integrator starting at `start` with initial signal `value`.
    #[must_use]
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value,
            integral: 0.0,
        }
    }

    /// Records that the signal takes value `value` from time `now` onward.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `now` precedes the previous change —
    /// signals evolve forward in time.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(
            now >= self.last_time,
            "TimeWeighted::set moved backwards: {now:?} < {:?}",
            self.last_time
        );
        self.integral += self.value * now.since(self.last_time);
        self.last_time = now;
        self.value = value;
    }

    /// Adds `delta` to the current signal value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The current signal value.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The integral of the signal from the start time through `end`.
    #[must_use]
    pub fn integral_through(&self, end: SimTime) -> f64 {
        self.integral + self.value * end.since(self.last_time).max(0.0)
    }

    /// The time-weighted mean of the signal over `[start, end]` where
    /// `start` is the construction time.
    ///
    /// Returns 0 for an empty interval.
    #[must_use]
    pub fn mean_over(&self, start: SimTime, end: SimTime) -> f64 {
        let span = end.since(start);
        if span <= 0.0 {
            return 0.0;
        }
        self.integral_through(end) / span
    }
}

/// One-pass mean and variance (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Reconstructs an accumulator from summary moments — `n` observations
    /// with sample mean `mean` and (unbiased) sample standard deviation
    /// `std_dev`. Together with [`Welford::merge`] this pools per-replica
    /// `(mean, sd, n)` summaries into the exact all-observation statistics.
    #[must_use]
    pub fn from_moments(n: u64, mean: f64, std_dev: f64) -> Self {
        Welford {
            n,
            mean: if n == 0 { 0.0 } else { mean },
            m2: if n < 2 {
                0.0
            } else {
                std_dev * std_dev * (n - 1) as f64
            },
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sum of the observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n_total as f64;
        self.mean += delta * other.n as f64 / n_total as f64;
        self.n = n_total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn time_weighted_integrates_steps() {
        let mut tw = TimeWeighted::new(t(0.0), 0.0);
        tw.set(t(1.0), 1.0); // 0 for [0,1)
        tw.set(t(3.0), 0.5); // 1 for [1,3)
                             // 0.5 for [3,5]
        assert!((tw.integral_through(t(5.0)) - (0.0 + 2.0 + 1.0)).abs() < 1e-12);
        assert!((tw.mean_over(t(0.0), t(5.0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_tracks_counts() {
        let mut tw = TimeWeighted::new(t(0.0), 2.0);
        tw.add(t(1.0), 3.0);
        assert_eq!(tw.current(), 5.0);
        tw.add(t(2.0), -5.0);
        assert_eq!(tw.current(), 0.0);
        assert!((tw.integral_through(t(2.0)) - (2.0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_empty_interval_is_zero() {
        let tw = TimeWeighted::new(t(2.0), 1.0);
        assert_eq!(tw.mean_over(t(2.0), t(2.0)), 0.0);
    }

    #[test]
    fn time_weighted_repeated_set_same_time() {
        let mut tw = TimeWeighted::new(t(0.0), 1.0);
        tw.set(t(1.0), 2.0);
        tw.set(t(1.0), 3.0);
        assert!((tw.integral_through(t(2.0)) - (1.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 =
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
        assert!((w.sum() - 31.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn from_moments_round_trips_and_pools() {
        let xs: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).cos() * 4.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        // Summarise two halves, reconstruct, merge: pooled stats must match
        // the single-pass accumulation over every observation.
        let (mut a, mut b) = (Welford::new(), Welford::new());
        for &x in &xs[..25] {
            a.push(x);
        }
        for &x in &xs[25..] {
            b.push(x);
        }
        let mut pooled = Welford::from_moments(a.count(), a.mean(), a.std_dev());
        pooled.merge(&Welford::from_moments(b.count(), b.mean(), b.std_dev()));
        assert_eq!(pooled.count(), all.count());
        assert!((pooled.mean() - all.mean()).abs() < 1e-9);
        assert!((pooled.std_dev() - all.std_dev()).abs() < 1e-9);
        // Degenerate summaries stay well-defined.
        assert_eq!(Welford::from_moments(0, 5.0, 2.0).mean(), 0.0);
        assert_eq!(Welford::from_moments(1, 5.0, 0.0).std_dev(), 0.0);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }
}
