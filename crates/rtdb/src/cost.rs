//! The CPU cost model (paper §3.3, §5.3, Table 3).
//!
//! All service demands are expressed in *instructions* and converted to
//! seconds by dividing by the processor speed `ips`. Only CPU costs are
//! modelled: the database is main-memory resident, so there is no I/O, and
//! concurrency control on general data is folded into transaction
//! computation time (paper §5.2).

use serde::{Deserialize, Serialize};

/// Instruction-count cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Instructions executed per second (`ips`, Table 3: 50 × 10⁶).
    pub ips: f64,
    /// Instructions to locate a data object through the index
    /// (`x_lookup`, Table 3: 4000).
    pub x_lookup: f64,
    /// Instructions to write an update into a located object
    /// (`x_update`, Table 3: 20000).
    pub x_update: f64,
    /// Instructions for one context switch (`x_switch`, Table 3: 0).
    /// Preempting a transaction to receive an update costs `2 · x_switch`.
    pub x_switch: f64,
    /// Proportionality constant for queue insert/remove: the cost of one
    /// operation is `x_queue · ln(n)` where `n` is the queue length
    /// (`x_queue`, Table 3: 0).
    pub x_queue: f64,
    /// Proportionality constant for scanning the update queue: a scan over
    /// `n_q` queued updates costs `x_scan · n_q` (`x_scan`, Table 3: 0).
    pub x_scan: f64,
}

impl Default for CostModel {
    /// The paper's Table 3 baseline.
    fn default() -> Self {
        CostModel {
            ips: 50.0e6,
            x_lookup: 4_000.0,
            x_update: 20_000.0,
            x_switch: 0.0,
            x_queue: 0.0,
            x_scan: 0.0,
        }
    }
}

impl CostModel {
    /// Converts an instruction count to seconds.
    #[inline]
    #[must_use]
    pub fn secs(&self, instructions: f64) -> f64 {
        instructions / self.ips
    }

    /// Time to locate one object via the index.
    #[inline]
    #[must_use]
    pub fn lookup_time(&self) -> f64 {
        self.secs(self.x_lookup)
    }

    /// Time to install an update into a located object (excludes lookup).
    #[inline]
    #[must_use]
    pub fn update_write_time(&self) -> f64 {
        self.secs(self.x_update)
    }

    /// Full install time: lookup plus write (paper §5.3:
    /// "the number of instructions to perform an update is
    /// `x_lookup + x_update`").
    #[inline]
    #[must_use]
    pub fn install_time(&self) -> f64 {
        self.secs(self.x_lookup + self.x_update)
    }

    /// Time to preempt a running transaction to receive an update: two
    /// switches (out and back, paper §3.3 step 2).
    #[inline]
    #[must_use]
    pub fn preempt_time(&self) -> f64 {
        self.secs(2.0 * self.x_switch)
    }

    /// Time to add or remove one update to/from a queue currently holding
    /// `n` updates: `x_queue · ln(n)` (paper §3.3 step 3). Defined as zero
    /// for `n <= 1` (ln is clamped at zero). The baseline's `x_queue` is 0,
    /// and then the `ln` is skipped: `+0.0 / ips` is the same `+0.0`.
    #[inline]
    #[must_use]
    pub fn queue_op_time(&self, n: usize) -> f64 {
        if n <= 1 || self.x_queue == 0.0 {
            return 0.0;
        }
        self.secs(self.x_queue * (n as f64).ln())
    }

    /// Time to scan `n_q` updates in the update queue: `x_scan · n_q`
    /// (paper §4.4).
    #[inline]
    #[must_use]
    pub fn scan_time(&self, n_q: usize) -> f64 {
        self.secs(self.x_scan * n_q as f64)
    }

    /// Constant-time queue probe used when the hash-indexed update queue
    /// extension is enabled: one `x_scan` worth of work regardless of
    /// queue length (the paper's §4.4 "with the help of an index ... the
    /// amortized cost ... would be much less").
    #[inline]
    #[must_use]
    pub fn indexed_probe_time(&self) -> f64 {
        self.secs(self.x_scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_3() {
        let c = CostModel::default();
        assert_eq!(c.ips, 50.0e6);
        assert_eq!(c.x_lookup, 4_000.0);
        assert_eq!(c.x_update, 20_000.0);
        assert_eq!(c.x_switch, 0.0);
        assert_eq!(c.x_queue, 0.0);
        assert_eq!(c.x_scan, 0.0);
    }

    #[test]
    fn install_time_is_24000_instructions() {
        let c = CostModel::default();
        assert!((c.install_time() - 24_000.0 / 50.0e6).abs() < 1e-15);
        // 400 installs/sec should consume ~19.2% of the CPU — the paper's
        // "about one-fifth of the system time".
        assert!((400.0 * c.install_time() - 0.192).abs() < 1e-12);
    }

    #[test]
    fn queue_op_scales_logarithmically() {
        let c = CostModel {
            x_queue: 100.0,
            ..CostModel::default()
        };
        assert_eq!(c.queue_op_time(0), 0.0);
        assert_eq!(c.queue_op_time(1), 0.0);
        let t10 = c.queue_op_time(10);
        let t100 = c.queue_op_time(100);
        assert!(t100 > t10);
        assert!((t100 / t10 - 2.0).abs() < 0.01, "ln(100)/ln(10) = 2");
        // The baseline's x_queue = 0 costs nothing at any length, and the
        // zero is the +0.0 that `0 · ln(n) / ips` would give.
        let free = CostModel::default();
        for n in [2, 10, 1_000_000] {
            let t = free.queue_op_time(n);
            assert_eq!(t.to_bits(), (0.0 * (n as f64).ln() / free.ips).to_bits());
        }
    }

    #[test]
    fn scan_scales_linearly() {
        let c = CostModel {
            x_scan: 50.0,
            ..CostModel::default()
        };
        assert_eq!(c.scan_time(0), 0.0);
        assert!((c.scan_time(200) - c.secs(10_000.0)).abs() < 1e-18);
        assert!((c.indexed_probe_time() - c.secs(50.0)).abs() < 1e-18);
    }

    #[test]
    fn preempt_is_two_switches() {
        let c = CostModel {
            x_switch: 1_000.0,
            ..CostModel::default()
        };
        assert!((c.preempt_time() - 2.0 * c.x_switch / c.ips).abs() < 1e-18);
    }
}
