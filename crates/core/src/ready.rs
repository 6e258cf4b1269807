//! The transaction ready queue.
//!
//! Transactions are prioritised by **value density** — value divided by
//! remaining processing time (paper §3.4). Under the *feasible deadline*
//! policy, transactions that can no longer meet their deadline are aborted
//! at scheduling points rather than wasting CPU. The queue is a plain vector
//! scanned at dispatch: the ready set in this model is small (tens at the
//! highest loads studied), so O(n) selection beats the constant factors and
//! removal awkwardness of a heap.

use strip_sim::time::SimTime;

use crate::txn::Transaction;

/// Value-density-ordered set of runnable transactions.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    txns: Vec<Transaction>,
}

impl ReadyQueue {
    /// Creates an empty queue.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        ReadyQueue { txns: Vec::new() }
    }

    /// Adds a transaction.
    #[inline]
    pub fn push(&mut self, txn: Transaction) {
        self.txns.push(txn);
    }

    /// Removes and returns the highest value-density transaction.
    #[inline]
    pub fn pop_best(&mut self) -> Option<Transaction> {
        if self.txns.is_empty() {
            return None;
        }
        let mut best = 0;
        let mut best_density = self.txns[0].value_density();
        for (i, t) in self.txns.iter().enumerate().skip(1) {
            let d = t.value_density();
            if d > best_density {
                best = i;
                best_density = d;
            }
        }
        Some(self.txns.swap_remove(best))
    }

    /// The highest value density currently queued (for preemption checks).
    #[inline]
    #[must_use]
    pub fn best_density(&self) -> Option<f64> {
        self.txns
            .iter()
            .map(Transaction::value_density)
            .max_by(f64::total_cmp)
    }

    /// Removes and returns every transaction that cannot finish by its
    /// deadline if started at `now` (the feasible-deadline purge).
    #[inline]
    pub fn drain_infeasible(&mut self, now: SimTime) -> Vec<Transaction> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.txns.len() {
            if self.txns[i].feasible_at(now) {
                i += 1;
            } else {
                out.push(self.txns.swap_remove(i));
            }
        }
        out
    }

    /// Removes the transaction with the given id, if queued (used by the
    /// firm-deadline watchdog).
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<Transaction> {
        let idx = self.txns.iter().position(|t| t.id() == id)?;
        Some(self.txns.swap_remove(idx))
    }

    /// The queued transactions, in no particular order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.txns.iter()
    }

    /// Number of queued transactions.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when no transactions are waiting.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnSpec;
    use strip_db::cost::CostModel;
    use strip_db::object::Importance;

    fn txn(id: u64, value: f64, compute: f64, arrival: f64, slack: f64) -> Transaction {
        Transaction::new(
            TxnSpec {
                id,
                class: Importance::Low,
                value,
                arrival: SimTime::from_secs(arrival),
                slack,
                compute_time: compute,
                reads: vec![],
                derived_reads: vec![],
            },
            0.0,
            &CostModel::default(),
        )
    }

    #[test]
    fn pops_by_value_density() {
        let mut q = ReadyQueue::new();
        q.push(txn(1, 1.0, 0.1, 0.0, 1.0)); // density 10
        q.push(txn(2, 2.0, 0.1, 0.0, 1.0)); // density 20
        q.push(txn(3, 1.0, 0.2, 0.0, 1.0)); // density 5
        assert_eq!(q.pop_best().unwrap().id(), 2);
        assert_eq!(q.pop_best().unwrap().id(), 1);
        assert_eq!(q.pop_best().unwrap().id(), 3);
        assert!(q.pop_best().is_none());
    }

    #[test]
    fn best_density_peeks() {
        let mut q = ReadyQueue::new();
        assert!(q.best_density().is_none());
        q.push(txn(1, 1.0, 0.1, 0.0, 1.0));
        q.push(txn(2, 3.0, 0.1, 0.0, 1.0));
        assert!((q.best_density().unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_purge() {
        let mut q = ReadyQueue::new();
        // deadline = 0 + 0.1 + 0.5 = 0.6
        q.push(txn(1, 1.0, 0.1, 0.0, 0.5));
        // deadline = 0 + 0.1 + 5.0 = 5.1
        q.push(txn(2, 1.0, 0.1, 0.0, 5.0));
        let dropped = q.drain_infeasible(SimTime::from_secs(0.55));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].id(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_by_id() {
        let mut q = ReadyQueue::new();
        q.push(txn(7, 1.0, 0.1, 0.0, 1.0));
        q.push(txn(8, 1.0, 0.1, 0.0, 1.0));
        assert_eq!(q.remove(7).unwrap().id(), 7);
        assert!(q.remove(7).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
