//! Transactions (paper §3.4, §5.2).
//!
//! A transaction has a firm deadline and a value; past its deadline it is
//! worthless and is aborted. Execution follows the three-phase pattern of
//! §3.4: (1) a `p_view` fraction of the computation, (2) the view reads with
//! a staleness check after each, (3) the remaining computation. The plan is
//! compiled into a sequence of CPU *segments* at admission; the controller
//! runs segments as CPU slices and may inject extra on-demand work (queue
//! scans, update applies) between them.

use serde::{Deserialize, Serialize};
use strip_db::cost::CostModel;
use strip_db::object::{Importance, ViewObjectId};
use strip_sim::time::SimTime;

/// Workload-level description of one transaction, produced by a
/// transaction source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnSpec {
    /// Unique id (assigned by the source, strictly increasing).
    pub id: u64,
    /// Value class; low-value transactions read low-importance view data.
    pub class: Importance,
    /// The value gained if the transaction commits by its deadline.
    pub value: f64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Slack added on top of the (perfectly estimated) execution time when
    /// computing the deadline.
    pub slack: f64,
    /// Pure computation time in seconds (includes general-data access).
    pub compute_time: f64,
    /// The view objects read in phase 2.
    pub reads: Vec<ViewObjectId>,
    /// Derived DAG nodes read in phase 2, after the view reads (empty
    /// unless the run configures a derived-view DAG).
    pub derived_reads: Vec<u32>,
}

/// One CPU segment of a transaction's compiled plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// Pure computation for the given number of seconds.
    Work(f64),
    /// Lookup + read of one view object (costs `x_lookup`).
    ReadView(ViewObjectId),
    /// Lookup + read of one derived DAG node (costs `x_lookup`); under OD
    /// the controller may inject a recursive ancestor-closure refresh
    /// before the verdict.
    ReadDerived(u32),
}

/// A transaction admitted to the system.
#[derive(Debug, Clone)]
pub struct Transaction {
    spec: TxnSpec,
    deadline: SimTime,
    /// Perfect execution-time estimate: compute time + read lookups.
    base_exec: f64,
    segments: Vec<Segment>,
    cursor: usize,
    /// Seconds left in the current segment.
    segment_remaining: f64,
    /// Seconds of planned work left in total (drives value density and
    /// feasibility; on-demand extras are *not* included, matching the
    /// paper's "perfect estimation" of the planned work only).
    total_remaining: f64,
    /// Set when any view read returned stale data (metric criterion).
    read_stale: bool,
}

impl Transaction {
    /// Compiles `spec` into an executable plan under `costs`.
    #[inline]
    #[must_use]
    pub fn new(spec: TxnSpec, p_view: f64, costs: &CostModel) -> Self {
        let lookup = costs.lookup_time();
        let pre = spec.compute_time * p_view.clamp(0.0, 1.0);
        let post = spec.compute_time - pre;
        let mut segments = Vec::with_capacity(spec.reads.len() + spec.derived_reads.len() + 2);
        if pre > 0.0 {
            segments.push(Segment::Work(pre));
        }
        segments.extend(spec.reads.iter().map(|&id| Segment::ReadView(id)));
        segments.extend(spec.derived_reads.iter().map(|&n| Segment::ReadDerived(n)));
        if post > 0.0 {
            segments.push(Segment::Work(post));
        }
        let base_exec =
            spec.compute_time + lookup * (spec.reads.len() + spec.derived_reads.len()) as f64;
        let deadline = spec.arrival + base_exec + spec.slack;
        let segment_remaining = segments
            .first()
            .map(|s| Self::segment_cost(s, lookup))
            .unwrap_or(0.0);
        Transaction {
            spec,
            deadline,
            base_exec,
            segments,
            cursor: 0,
            segment_remaining,
            total_remaining: base_exec,
            read_stale: false,
        }
    }

    #[inline]
    fn segment_cost(seg: &Segment, lookup: f64) -> f64 {
        match seg {
            Segment::Work(t) => *t,
            Segment::ReadView(_) | Segment::ReadDerived(_) => lookup,
        }
    }

    /// The admission-time description.
    #[inline]
    #[must_use]
    pub fn spec(&self) -> &TxnSpec {
        &self.spec
    }

    /// Unique id.
    #[inline]
    #[must_use]
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// The firm deadline: `arrival + execution estimate + slack`.
    #[inline]
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The perfect execution-time estimate.
    #[inline]
    #[must_use]
    pub fn base_exec(&self) -> f64 {
        self.base_exec
    }

    /// Planned work remaining, seconds.
    #[inline]
    #[must_use]
    pub fn total_remaining(&self) -> f64 {
        self.total_remaining
    }

    /// Value density: value divided by remaining processing time (§3.4).
    #[inline]
    #[must_use]
    pub fn value_density(&self) -> f64 {
        self.spec.value / self.total_remaining.max(1e-12)
    }

    /// True if the transaction can still finish its planned work by its
    /// deadline starting now.
    #[inline]
    #[must_use]
    pub fn feasible_at(&self, now: SimTime) -> bool {
        now + self.total_remaining <= self.deadline + 1e-12
    }

    /// The current segment, or `None` if the plan is complete.
    #[inline]
    #[must_use]
    pub fn current_segment(&self) -> Option<Segment> {
        self.segments.get(self.cursor).copied()
    }

    /// Seconds needed to finish the current segment.
    #[inline]
    #[must_use]
    pub fn segment_remaining(&self) -> f64 {
        self.segment_remaining
    }

    /// Consumes `dt` seconds of CPU from the current segment (partial
    /// progress, e.g. before a preemption).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `dt` exceeds the segment remainder by
    /// more than rounding error.
    #[inline]
    pub fn consume(&mut self, dt: f64) {
        debug_assert!(
            dt <= self.segment_remaining + 1e-9,
            "consumed {dt} > segment remainder {}",
            self.segment_remaining
        );
        let dt = dt.min(self.segment_remaining);
        self.segment_remaining -= dt;
        self.total_remaining = (self.total_remaining - dt).max(0.0);
    }

    /// Marks the current segment complete and advances the cursor. Returns
    /// the segment that was just finished.
    ///
    /// # Panics
    ///
    /// Panics if the plan is already complete.
    #[inline]
    pub fn complete_segment(&mut self) -> Segment {
        let finished = self.segments[self.cursor];
        self.total_remaining = (self.total_remaining - self.segment_remaining).max(0.0);
        self.segment_remaining = 0.0;
        self.cursor += 1;
        finished
    }

    /// Re-arms `segment_remaining` for the (new) current segment. Called by
    /// the controller after `complete_segment`, with the lookup cost from
    /// its cost model.
    #[inline]
    pub fn arm_segment(&mut self, costs: &CostModel) {
        self.segment_remaining = self
            .current_segment()
            .map(|s| Self::segment_cost(&s, costs.lookup_time()))
            .unwrap_or(0.0);
    }

    /// True once every planned segment has completed.
    #[inline]
    #[must_use]
    pub fn finished(&self) -> bool {
        self.cursor >= self.segments.len()
    }

    /// Records that a view read observed stale data.
    #[inline]
    pub fn mark_stale_read(&mut self) {
        self.read_stale = true;
    }

    /// True if any view read observed stale data.
    #[inline]
    #[must_use]
    pub fn read_stale(&self) -> bool {
        self.read_stale
    }

    /// Number of view-read segments in the plan.
    #[inline]
    #[must_use]
    pub fn read_count(&self) -> usize {
        self.spec.reads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(compute: f64, reads: usize, slack: f64) -> TxnSpec {
        TxnSpec {
            id: 1,
            class: Importance::Low,
            value: 2.0,
            arrival: SimTime::from_secs(10.0),
            slack,
            compute_time: compute,
            reads: (0..reads as u32)
                .map(|i| ViewObjectId::new(Importance::Low, i))
                .collect(),
            derived_reads: Vec::new(),
        }
    }

    fn costs() -> CostModel {
        CostModel::default() // lookup = 4000 / 50e6 = 80 µs
    }

    #[test]
    fn plan_compiles_three_phases() {
        let c = costs();
        let t = Transaction::new(spec(0.12, 2, 0.5), 0.25, &c);
        // pre-work 0.03, two reads, post-work 0.09
        assert_eq!(t.current_segment(), Some(Segment::Work(0.03)));
        let expected_exec = 0.12 + 2.0 * c.lookup_time();
        assert!((t.base_exec() - expected_exec).abs() < 1e-15);
        assert_eq!(t.deadline(), SimTime::from_secs(10.0) + expected_exec + 0.5);
    }

    #[test]
    fn p_view_zero_starts_with_reads() {
        let c = costs();
        let t = Transaction::new(spec(0.12, 1, 0.5), 0.0, &c);
        assert!(matches!(t.current_segment(), Some(Segment::ReadView(_))));
    }

    #[test]
    fn p_view_one_has_no_post_work() {
        let c = costs();
        let mut t = Transaction::new(spec(0.12, 1, 0.5), 1.0, &c);
        assert_eq!(t.current_segment(), Some(Segment::Work(0.12)));
        t.complete_segment();
        t.arm_segment(&c);
        assert!(matches!(t.current_segment(), Some(Segment::ReadView(_))));
        t.complete_segment();
        t.arm_segment(&c);
        assert!(t.finished());
    }

    #[test]
    fn consume_and_complete_track_remaining() {
        let c = costs();
        let mut t = Transaction::new(spec(0.1, 0, 0.5), 1.0, &c);
        assert!((t.total_remaining() - 0.1).abs() < 1e-15);
        t.consume(0.04);
        assert!((t.total_remaining() - 0.06).abs() < 1e-15);
        assert!((t.segment_remaining() - 0.06).abs() < 1e-15);
        t.complete_segment();
        t.arm_segment(&c);
        assert!(t.finished());
        assert_eq!(t.total_remaining(), 0.0);
    }

    #[test]
    fn value_density_uses_remaining_time() {
        let c = costs();
        let mut t = Transaction::new(spec(0.1, 0, 0.5), 1.0, &c);
        let d0 = t.value_density();
        assert!((d0 - 2.0 / 0.1).abs() < 1e-9);
        t.consume(0.05);
        assert!(t.value_density() > d0);
    }

    #[test]
    fn feasibility_window() {
        let c = costs();
        let t = Transaction::new(spec(0.1, 0, 0.5), 1.0, &c);
        // deadline = 10 + 0.1 + 0.5 = 10.6; needs 0.1s of work
        assert!(t.feasible_at(SimTime::from_secs(10.5)));
        assert!(!t.feasible_at(SimTime::from_secs(10.51)));
    }

    #[test]
    fn derived_reads_compile_after_view_reads_and_cost_a_lookup() {
        let c = costs();
        let mut s = spec(0.12, 1, 0.5);
        s.derived_reads = vec![7, 3];
        let mut t = Transaction::new(s, 0.25, &c);
        let expected_exec = 0.12 + 3.0 * c.lookup_time();
        assert!((t.base_exec() - expected_exec).abs() < 1e-15);
        // pre-work, view read, then the derived reads in spec order.
        assert!(matches!(t.current_segment(), Some(Segment::Work(_))));
        t.complete_segment();
        t.arm_segment(&c);
        assert!(matches!(t.current_segment(), Some(Segment::ReadView(_))));
        t.complete_segment();
        t.arm_segment(&c);
        assert_eq!(t.current_segment(), Some(Segment::ReadDerived(7)));
        assert!((t.segment_remaining() - c.lookup_time()).abs() < 1e-15);
        t.complete_segment();
        t.arm_segment(&c);
        assert_eq!(t.current_segment(), Some(Segment::ReadDerived(3)));
    }

    #[test]
    fn stale_flag_latches() {
        let c = costs();
        let mut t = Transaction::new(spec(0.1, 1, 0.5), 0.0, &c);
        assert!(!t.read_stale());
        t.mark_stale_read();
        assert!(t.read_stale());
        assert_eq!(t.read_count(), 1);
    }
}
