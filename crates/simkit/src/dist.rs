//! Probability distributions used by the simulation model.
//!
//! The paper's workload (Section 5) uses exponential inter-arrival times
//! (Poisson processes), exponentially distributed update ages, normally
//! distributed transaction values / computation times / read-set sizes, and
//! uniformly distributed slack. All are implemented here over the
//! deterministic [`Xoshiro256pp`] generator.

use serde::{Deserialize, Serialize};

use crate::rng::Xoshiro256pp;

/// A distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64;
}

/// Uniform over `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    #[inline]
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "lo must not exceed hi");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
}

/// Exponential with the given mean (rate = 1 / mean).
///
/// A mean of zero is allowed and degenerates to the constant 0, which models
/// e.g. "updates arrive with no network delay".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    #[inline]
    #[must_use]
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
        Exponential { mean }
    }

    /// Creates an exponential distribution with rate `rate` (events/sec).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[inline]
    #[must_use]
    pub fn from_rate(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be > 0");
        Exponential { mean: 1.0 / rate }
    }

    /// The distribution mean.
    #[inline]
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Distribution for Exponential {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        // Inverse transform; next_f64_open_zero avoids ln(0).
        -self.mean * rng.next_f64_open_zero().ln()
    }
}

/// Normal (Gaussian) via the Marsaglia polar method.
///
/// The polar method draws pairs; to keep sampling stateless (`&self`) the
/// second variate is discarded. The simulator samples a few million normals
/// per run, so the 2x rejection cost is irrelevant next to determinism and
/// simplicity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is negative or either parameter is not finite.
    #[inline]
    #[must_use]
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(mean.is_finite() && sd.is_finite(), "params must be finite");
        assert!(sd >= 0.0, "sd must be >= 0");
        Normal { mean, sd }
    }
}

impl Distribution for Normal {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        if self.sd == 0.0 {
            return self.mean;
        }
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.sd * (u * factor);
            }
        }
    }
}

/// A normal clamped below at `floor` — used where the paper draws a "normally
/// distributed" quantity that must be non-negative (computation times,
/// read-set sizes). With the paper's parameters the clamp almost never
/// engages (e.g. compute time N(0.12, 0.01) is 12 standard deviations from
/// zero).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClampedNormal {
    inner: Normal,
    floor: f64,
}

impl ClampedNormal {
    /// Creates a normal clamped below at `floor`.
    #[inline]
    #[must_use]
    pub fn new(mean: f64, sd: f64, floor: f64) -> Self {
        ClampedNormal {
            inner: Normal::new(mean, sd),
            floor,
        }
    }
}

impl Distribution for ClampedNormal {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.inner.sample(rng).max(self.floor)
    }
}

/// Poisson-distributed non-negative counts with the given mean, sampled
/// with Knuth's product-of-uniforms method — O(mean) uniforms per draw, so
/// intended for small means such as per-transaction derived-read counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    /// `exp(-mean)`; 1.0 for a zero mean, which always draws 0.
    limit: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    #[inline]
    #[must_use]
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
        Poisson {
            limit: (-mean).exp(),
        }
    }

    /// Draws one count.
    #[inline]
    pub fn sample_count(&self, rng: &mut Xoshiro256pp) -> u64 {
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.next_f64();
            if p <= self.limit {
                return k;
            }
            k += 1;
        }
    }
}

/// Zipf distribution over ranks `0..n` (rank 0 most popular):
/// `P(k) ∝ 1 / (k + 1)^s`. The classic skewed-access model for database
/// workloads. `s = 0` degenerates to the discrete uniform.
///
/// Sampling uses an explicit CDF table with binary search — exact,
/// deterministic, and O(log n) per draw; the table is O(n), fine for the
/// object universes this simulator models (≤ millions).
///
/// # Example
///
/// ```
/// use strip_sim::dist::Zipf;
/// use strip_sim::rng::Xoshiro256pp;
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = Xoshiro256pp::seed_from_u64(7);
/// let hot_hits = (0..1000)
///     .filter(|_| zipf.sample_rank(&mut rng) < 10)
///     .count();
/// // The top 10% of ranks draw roughly half the accesses.
/// assert!(hot_hits > 400);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `s` is negative or not finite.
    #[inline]
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample_rank(&self, rng: &mut Xoshiro256pp) -> u64 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }

    /// Number of ranks.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (the distribution has at least one rank).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(d: &impl Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..n {
            let x = d.sample(&mut rng);
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        (mean, m2 / (n - 1) as f64)
    }

    #[test]
    fn uniform_bounds_and_moments() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..=6.0).contains(&x));
        }
        let (mean, var) = moments(&d, 200_000, 2);
        assert!((mean - 4.0).abs() < 0.02, "mean {mean}");
        assert!((var - 16.0 / 12.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn uniform_degenerate_point() {
        let d = Uniform::new(3.0, 3.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 3.0);
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(0.1);
        let (mean, var) = moments(&d, 400_000, 3);
        assert!((mean - 0.1).abs() < 0.002, "mean {mean}");
        assert!((var - 0.01).abs() < 0.001, "var {var}");
    }

    #[test]
    fn exponential_from_rate() {
        let d = Exponential::from_rate(400.0);
        assert!((d.mean() - 0.0025).abs() < 1e-12);
        let (mean, _) = moments(&d, 400_000, 4);
        assert!((mean - 0.0025).abs() < 5e-5, "mean {mean}");
    }

    #[test]
    fn exponential_zero_mean_is_constant_zero() {
        let d = Exponential::new(0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::new(1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..100_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(2.0, 0.5);
        let (mean, var) = moments(&d, 400_000, 5);
        assert!((mean - 2.0).abs() < 0.005, "mean {mean}");
        assert!((var - 0.25).abs() < 0.005, "var {var}");
    }

    #[test]
    fn normal_zero_sd_is_constant() {
        let d = Normal::new(1.5, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 1.5);
    }

    #[test]
    fn clamped_normal_respects_floor() {
        let d = ClampedNormal::new(0.0, 1.0, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut clamped = 0;
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            if x == 0.0 {
                clamped += 1;
            }
        }
        // About half the mass of N(0,1) is below 0.
        assert!(clamped > 4_000 && clamped < 6_000, "clamped {clamped}");
    }

    #[test]
    fn zipf_ranks_in_range_and_skewed() {
        let z = Zipf::new(100, 1.0);
        assert_eq!(z.len(), 100);
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            let k = z.sample_rank(&mut rng) as usize;
            assert!(k < 100);
            counts[k] += 1;
        }
        // Rank 0 should draw ~1/H(100) ≈ 19.3% of the mass.
        let frac0 = f64::from(counts[0]) / 100_000.0;
        assert!((frac0 - 0.193).abs() < 0.01, "frac0 {frac0}");
        // Monotone-ish decay: head far above tail.
        assert!(counts[0] > 10 * counts[99].max(1));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let f = f64::from(c) / 100_000.0;
            assert!((f - 0.1).abs() < 0.01, "uniform bucket {f}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn poisson_counts_match_mean_and_variance() {
        let p = Poisson::new(2.0);
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let n = 100_000;
        for i in 0..n {
            let x = p.sample_count(&mut rng) as f64;
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let var = m2 / (n - 1) as f64;
        // Poisson(2): mean = variance = 2.
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 2.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn poisson_zero_mean_always_draws_zero() {
        let p = Poisson::new(0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(24);
        for _ in 0..100 {
            assert_eq!(p.sample_count(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "mean must be >= 0")]
    fn poisson_rejects_negative_mean() {
        let _ = Poisson::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "sd must be >= 0")]
    fn normal_rejects_negative_sd() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "mean must be >= 0")]
    fn exponential_rejects_negative_mean() {
        let _ = Exponential::new(-0.5);
    }
}
