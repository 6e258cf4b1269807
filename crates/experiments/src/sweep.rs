//! Campaign settings and the parallel job loop under
//! [`crate::runner::SweepRunner`].
//!
//! Results come back in submission order regardless of completion order, so
//! figures are deterministic. Collection is lock-free: jobs are claimed from
//! a shared atomic cursor and every worker writes each finished result into
//! that job's own pre-allocated slot (a `OnceLock` per index), so no two
//! workers ever contend on a slot and no mutex guards the hot path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use strip_core::config::SimConfig;

/// Global knobs of a reproduction campaign.
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// Simulated seconds per data point (the paper uses 1000).
    pub duration: f64,
    /// Base RNG seed; each point derives its own stream from the config.
    pub seed: u64,
    /// Worker threads for the sweep (`0` = autodetect).
    pub threads: usize,
    /// Independent replications per data point (seeds `seed..seed+replicas`);
    /// figures report each metric's mean and standard deviation across them.
    pub replicas: usize,
}

impl Default for RunSettings {
    fn default() -> Self {
        RunSettings {
            duration: default_duration(),
            seed: 0x5712_1995,
            threads: 0,
            replicas: 1,
        }
    }
}

/// Reads the default per-point duration from `REPRO_SECONDS` (falling back
/// to the paper's 1000 simulated seconds).
#[must_use]
pub fn default_duration() -> f64 {
    std::env::var("REPRO_SECONDS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|d| *d > 0.0)
        .unwrap_or(1_000.0)
}

impl RunSettings {
    /// Quick settings for tests: short runs, single thread.
    #[must_use]
    pub fn quick(duration: f64) -> Self {
        RunSettings {
            duration,
            seed: 0x5712_1995,
            threads: 1,
            replicas: 1,
        }
    }

    /// Applies the campaign duration/seed to a configuration.
    #[must_use]
    pub fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.duration = self.duration;
        cfg.seed = self.seed;
        cfg
    }

    pub(crate) fn worker_count(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let n = if self.threads == 0 { hw } else { self.threads };
        n.clamp(1, jobs.max(1))
    }
}

/// Runs `n` indexed jobs across `workers` threads; slot `i` of the result
/// receives `f(i)`. Jobs are claimed from a shared atomic cursor and each
/// slot is written exactly once by whichever worker claimed it, so
/// collection needs no lock.
pub(crate) fn run_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if slots[i].set(f(i)).is_err() {
                    panic!("each job index is claimed by exactly one worker");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_apply_overrides() {
        let s = RunSettings {
            duration: 42.0,
            seed: 9,
            threads: 1,
            replicas: 1,
        };
        let cfg = s.apply(SimConfig::default());
        assert_eq!(cfg.duration, 42.0);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn run_indexed_fills_every_slot_in_order() {
        for workers in [1, 3] {
            assert_eq!(run_indexed(6, workers, |i| i * i), [0, 1, 4, 9, 16, 25]);
            assert!(run_indexed(0, workers, |i| i).is_empty());
        }
    }
}
