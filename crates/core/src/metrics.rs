//! Online metric collection during a run.
//!
//! [`Metrics`] gates every counter on the measurement window (everything at
//! or after `warmup`), clips CPU busy intervals to it, and snapshots the
//! staleness integrals at the warm-up boundary so `fold` is computed over
//! the window only. The controller drives it; [`Metrics::finalize`] emits
//! the [`RunReport`].

use strip_db::object::Importance;
use strip_db::staleness::StalenessTracker;
use strip_sim::stats::Welford;
use strip_sim::time::SimTime;

use crate::report::{
    CpuStats, DagStats, DurabilityStats, HistoryStats, ResilienceStats, RunReport, TimelineWindow,
    TriggerStats, TxnCounts, UpdateCounts,
};
use crate::txn::Transaction;

/// Which activity a CPU busy interval is attributed to (paper Figure 3:
/// context-switch time is charged to the activity being started).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Transaction work: planned segments (computation and view lookups).
    Txn,
    /// Update work: receiving, enqueueing, scanning and installing updates
    /// (including on-demand installs performed while a transaction waits).
    Update,
}

/// Why a transaction left the system without committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The firm deadline passed.
    MissedDeadline,
    /// The feasible-deadline policy dropped it early.
    Infeasible,
    /// It read stale data under abort-on-stale.
    StaleRead,
}

/// Accumulates all run metrics.
///
/// `Clone` lets a long-lived collector (the live executor) produce interim
/// [`RunReport`]s via `clone().finalize(..)` without ending the run.
#[derive(Debug, Clone)]
pub struct Metrics {
    warmup_end: SimTime,
    txns: TxnCounts,
    updates: UpdateCounts,
    busy_txn: f64,
    busy_update: f64,
    response: Welford,
    fold_base: [f64; 2],
    fold_base_taken: bool,
    history: HistoryStats,
    triggers: TriggerStats,
    rule_lag: Welford,
    dag: DagStats,
    dag_lag: Welford,
    io_misses_reads: u64,
    io_misses_installs: u64,
    timeline_width: Option<f64>,
    timeline: Vec<TimelineWindow>,
}

impl Metrics {
    /// Creates a collector whose measurement window starts at `warmup_end`.
    #[must_use]
    pub fn new(warmup_end: SimTime) -> Self {
        Metrics {
            warmup_end,
            txns: TxnCounts::default(),
            updates: UpdateCounts::default(),
            busy_txn: 0.0,
            busy_update: 0.0,
            response: Welford::new(),
            fold_base: [0.0; 2],
            fold_base_taken: false,
            history: HistoryStats::default(),
            triggers: TriggerStats::default(),
            rule_lag: Welford::new(),
            dag: DagStats::default(),
            dag_lag: Welford::new(),
            io_misses_reads: 0,
            io_misses_installs: 0,
            timeline_width: None,
            timeline: Vec::new(),
        }
    }

    /// Enables per-window outcome collection with windows of `width`
    /// seconds.
    pub fn enable_timeline(&mut self, width: f64) {
        debug_assert!(width > 0.0);
        self.timeline_width = Some(width);
    }

    fn window_at(&mut self, now: SimTime) -> Option<&mut TimelineWindow> {
        let width = self.timeline_width?;
        let idx = (now.as_secs() / width).floor().max(0.0) as usize;
        if self.timeline.len() <= idx {
            let old_len = self.timeline.len();
            self.timeline.resize_with(idx + 1, TimelineWindow::default);
            for (i, w) in self.timeline.iter_mut().enumerate().skip(old_len) {
                w.t_start = i as f64 * width;
            }
        }
        Some(&mut self.timeline[idx])
    }

    #[inline]
    fn in_window(&self, t: SimTime) -> bool {
        t >= self.warmup_end
    }

    /// Snapshots the staleness integrals at the warm-up boundary. Must be
    /// called exactly once, at `warmup_end` (a no-op when warm-up is zero,
    /// where the base integrals are zero anyway).
    pub fn snapshot_warmup(&mut self, tracker: &StalenessTracker, now: SimTime) {
        self.fold_base = [
            tracker.stale_count_integral(Importance::Low, now),
            tracker.stale_count_integral(Importance::High, now),
        ];
        self.fold_base_taken = true;
    }

    /// True while a configured warm-up window has not been closed by
    /// [`Metrics::snapshot_warmup`].
    #[must_use]
    pub fn warmup_pending(&self) -> bool {
        !self.fold_base_taken && self.warmup_end > SimTime::ZERO
    }

    // ---- transaction events ------------------------------------------------

    /// A transaction arrived.
    pub fn txn_arrived(&mut self, arrival: SimTime, class: Importance) {
        if self.in_window(arrival) {
            self.txns.arrived += 1;
            self.txns.by_class[class.index()].arrived += 1;
        }
    }

    /// A transaction committed at `now`.
    pub fn txn_committed(&mut self, txn: &Transaction, now: SimTime) {
        if !self.in_window(txn.spec().arrival) {
            return;
        }
        self.txns.committed += 1;
        self.txns.value_committed += txn.spec().value;
        let class = txn.spec().class;
        self.txns.by_class[class.index()].committed += 1;
        let fresh = !txn.read_stale();
        if fresh {
            self.txns.committed_fresh += 1;
            self.txns.by_class[class.index()].committed_fresh += 1;
        }
        self.response.push(now.since(txn.spec().arrival));
        if let Some(w) = self.window_at(now) {
            w.finished += 1;
            w.committed += 1;
            if fresh {
                w.committed_fresh += 1;
            }
        }
    }

    /// A transaction was aborted at `now`.
    pub fn txn_aborted_at(&mut self, txn: &Transaction, reason: AbortReason, now: SimTime) {
        if !self.in_window(txn.spec().arrival) {
            return;
        }
        match reason {
            AbortReason::MissedDeadline => self.txns.missed_deadline += 1,
            AbortReason::Infeasible => self.txns.aborted_infeasible += 1,
            AbortReason::StaleRead => self.txns.aborted_stale += 1,
        }
        if let Some(w) = self.window_at(now) {
            w.finished += 1;
        }
    }

    /// A transaction was still in the system at the horizon.
    pub fn txn_in_flight(&mut self, txn: &Transaction) {
        if self.in_window(txn.spec().arrival) {
            self.txns.in_flight_at_end += 1;
        }
    }

    /// A view read completed; `stale` is the metric-criterion outcome.
    pub fn view_read(&mut self, txn_arrival: SimTime, stale: bool) {
        if !self.in_window(txn_arrival) {
            return;
        }
        self.txns.view_reads += 1;
        if stale {
            self.txns.stale_reads += 1;
        }
    }

    /// A historical (as-of) view read completed; `hit` is whether the
    /// requested instant was inside the retained window.
    pub fn historical_read(&mut self, txn_arrival: SimTime, hit: bool) {
        if !self.in_window(txn_arrival) {
            return;
        }
        self.history.historical_reads += 1;
        if !hit {
            self.history.misses += 1;
        }
    }

    /// Records the history store's end-of-run totals.
    pub fn history_store_totals(&mut self, appends: u64, pruned: u64, entries_at_end: u64) {
        self.history.appends = appends;
        self.history.pruned = pruned;
        self.history.entries_at_end = entries_at_end;
    }

    /// A rule fired (`coalesced`/`dropped` describe queueing outcomes).
    pub fn rule_fired(&mut self, now: SimTime, coalesced: bool, dropped: bool) {
        if !self.in_window(now) {
            return;
        }
        self.triggers.fired += 1;
        if coalesced {
            self.triggers.coalesced += 1;
        }
        if dropped {
            self.triggers.dropped += 1;
        }
    }

    /// A rule execution completed; `lag` is seconds since its firing.
    pub fn rule_executed(&mut self, now: SimTime, lag: f64) {
        if !self.in_window(now) {
            return;
        }
        self.triggers.executed += 1;
        self.rule_lag.push(lag);
    }

    /// Tracks the pending-rule high-water mark.
    pub fn observe_rule_queue(&mut self, len: usize) {
        self.triggers.max_pending = self.triggers.max_pending.max(len as u64);
    }

    /// Records leftover pending rule executions at the horizon.
    pub fn rules_pending_at_end(&mut self, pending: u64) {
        self.triggers.pending_at_end = pending;
    }

    // ---- derived-view DAG events (extension) -------------------------------
    //
    // The propagation buckets (`enqueued`/`applied`/`coalesced`/`shed`/
    // `pending_at_end`) are copied verbatim from the DAG state's own
    // counters in [`Metrics::dag_totals`] and are deliberately *not*
    // warm-up-gated: the delta conservation law is checked on run totals,
    // and gating some buckets but not others would break it. Per-read and
    // per-refresh observations below are gated like their rule/view twins.

    /// A derived-node read completed; `stale` is whether the node was
    /// (transitively) stale at read time.
    pub fn derived_read(&mut self, txn_arrival: SimTime, stale: bool) {
        if !self.in_window(txn_arrival) {
            return;
        }
        self.dag.derived_reads += 1;
        if stale {
            self.dag.stale_derived_reads += 1;
        }
    }

    /// A pending DAG delta was applied; `lag` is seconds since the entry's
    /// first enqueue.
    pub fn dag_delta_applied(&mut self, now: SimTime, lag: f64) {
        if self.in_window(now) {
            self.dag_lag.push(lag);
        }
    }

    /// A recursive on-demand refresh pass ran before a derived read.
    pub fn dag_od_refresh(&mut self, now: SimTime) {
        if self.in_window(now) {
            self.dag.od_refreshes += 1;
        }
    }

    /// Tracks the pending-delta high-water mark.
    pub fn observe_dag_pending(&mut self, len: usize) {
        self.dag.max_pending = self.dag.max_pending.max(len as u64);
    }

    /// Copies the DAG state's end-of-run propagation counters and the
    /// time-weighted derived staleness fold into the report.
    pub fn dag_totals(
        &mut self,
        counters: strip_db::dag::DagCounters,
        pending_at_end: u64,
        fold_derived: f64,
    ) {
        self.dag.enqueued = counters.enqueued;
        self.dag.applied = counters.applied;
        self.dag.coalesced = counters.coalesced;
        self.dag.shed = counters.shed;
        self.dag.pending_at_end = pending_at_end;
        self.dag.fold_derived = fold_derived;
    }

    // ---- update events -----------------------------------------------------

    /// An update arrived at the system; `os_accepted` is false when the OS
    /// queue overflowed.
    pub fn update_arrived(&mut self, arrival: SimTime, os_accepted: bool) {
        if !self.in_window(arrival) {
            return;
        }
        self.updates.arrived += 1;
        if !os_accepted {
            self.updates.os_dropped += 1;
        }
    }

    /// A low-importance arrival was shed by controller admission control
    /// before reaching the OS queue (robustness extension). Counts as
    /// arrived + shed, never as an OS drop.
    pub fn update_admission_shed(&mut self, arrival: SimTime) {
        if self.in_window(arrival) {
            self.updates.arrived += 1;
            self.updates.admission_shed += 1;
        }
    }

    /// An update entered the application-level update queue.
    pub fn update_enqueued(&mut self, now: SimTime) {
        if self.in_window(now) {
            self.updates.enqueued += 1;
        }
    }

    /// An update was installed; attribute to a path.
    pub fn update_installed(&mut self, now: SimTime, path: InstallPath) {
        if !self.in_window(now) {
            return;
        }
        match path {
            InstallPath::Background => self.updates.installed_background += 1,
            InstallPath::Immediate => self.updates.installed_immediate += 1,
            InstallPath::OnDemand => self.updates.installed_on_demand += 1,
        }
    }

    /// An install was skipped after lookup because the stored value was at
    /// least as recent.
    pub fn update_superseded(&mut self, now: SimTime) {
        if self.in_window(now) {
            self.updates.superseded_skips += 1;
        }
    }

    /// Tracks high-water marks of the two queues.
    pub fn observe_queue_lengths(&mut self, os_len: usize, uq_len: usize) {
        self.updates.max_os_len = self.updates.max_os_len.max(os_len as u64);
        self.updates.max_uq_len = self.updates.max_uq_len.max(uq_len as u64);
    }

    /// A buffer-pool miss occurred (disk extension).
    pub fn io_miss(&mut self, now: SimTime, on_install: bool) {
        if !self.in_window(now) {
            return;
        }
        if on_install {
            self.io_misses_installs += 1;
        } else {
            self.io_misses_reads += 1;
        }
    }

    // ---- CPU accounting ----------------------------------------------------

    /// Charges the interval `[start, end]` of CPU time to `activity`,
    /// clipped to the measurement window.
    pub fn charge_busy(&mut self, activity: Activity, start: SimTime, end: SimTime) {
        let start = start.max(self.warmup_end);
        let dt = end.since(start);
        if dt <= 0.0 {
            return;
        }
        match activity {
            Activity::Txn => self.busy_txn += dt,
            Activity::Update => self.busy_update += dt,
        }
    }

    // ---- finalisation ------------------------------------------------------

    /// Closes the window at `end` and produces the report. Queue-side drop
    /// counters are read from the queue structures by the controller and
    /// passed in via `queue_drops`; disturbance counters and the recovery
    /// time come pre-assembled in `resilience` (the admission-shed mirror is
    /// filled in here from this collector's own counter).
    #[allow(clippy::too_many_arguments)]
    pub fn finalize(
        mut self,
        policy_label: &str,
        seed: u64,
        duration: f64,
        end: SimTime,
        tracker: &StalenessTracker,
        queue_drops: QueueDrops,
        mut resilience: ResilienceStats,
        events_processed: u64,
    ) -> RunReport {
        debug_assert!(
            self.fold_base_taken || self.warmup_end <= SimTime::ZERO,
            "warm-up snapshot missing"
        );
        let span = end.since(self.warmup_end).max(0.0);
        let fold = |class: Importance, base: f64| -> f64 {
            let n = tracker.class_len(class);
            if n == 0 || span <= 0.0 {
                return 0.0;
            }
            (tracker.stale_count_integral(class, end) - base) / (n as f64 * span)
        };
        self.updates.expired_dropped = queue_drops.expired;
        self.updates.overflow_dropped = queue_drops.overflow;
        self.updates.dedup_dropped = queue_drops.dedup;
        self.updates.left_in_os = queue_drops.left_in_os;
        self.updates.left_in_update_queue = queue_drops.left_in_uq;
        self.updates.in_flight_at_end = queue_drops.in_flight;
        self.txns.response_mean = self.response.mean();
        self.txns.response_sd = self.response.std_dev();
        resilience.admission_shed = self.updates.admission_shed;
        RunReport {
            policy: policy_label.to_string(),
            seed,
            duration,
            warmup: self.warmup_end.as_secs(),
            fold_low: fold(Importance::Low, self.fold_base[0]),
            fold_high: fold(Importance::High, self.fold_base[1]),
            txns: self.txns,
            updates: self.updates,
            history: self.history,
            triggers: {
                let mut t = self.triggers;
                t.lag_mean = self.rule_lag.mean();
                t
            },
            dag: {
                let mut d = self.dag;
                d.lag_mean = self.dag_lag.mean();
                d
            },
            resilience,
            durability: DurabilityStats::default(),
            timeline: self.timeline,
            stripes: Vec::new(),
            cpu: CpuStats {
                busy_txn: self.busy_txn,
                busy_update: self.busy_update,
                measured_secs: span,
                events_processed,
                io_misses_reads: self.io_misses_reads,
                io_misses_installs: self.io_misses_installs,
            },
        }
    }

    /// Busy seconds charged to updates so far (used by the fixed-fraction
    /// extension policy).
    #[must_use]
    pub fn busy_update_so_far(&self) -> f64 {
        self.busy_update
    }

    /// Busy seconds charged to transactions so far.
    #[must_use]
    pub fn busy_txn_so_far(&self) -> f64 {
        self.busy_txn
    }
}

/// Which path installed an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallPath {
    /// The background update process (queue drain, or the UF stream).
    Background,
    /// On arrival, preempting transactions (UF; SU high importance).
    Immediate,
    /// On demand during a transaction's stale read (OD).
    OnDemand,
}

/// End-of-run drop counters and residues read from the queues.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueDrops {
    /// MA-expired discards from the update queue.
    pub expired: u64,
    /// `UQ_max` overflow discards.
    pub overflow: u64,
    /// Hash-index dedup removals.
    pub dedup: u64,
    /// Updates still in the OS queue at the horizon.
    pub left_in_os: u64,
    /// Updates still in the update queue at the horizon.
    pub left_in_uq: u64,
    /// Updates on the CPU at the horizon.
    pub in_flight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxnSpec;
    use strip_db::cost::CostModel;
    use strip_db::staleness::StalenessSpec;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn txn_at(arrival: f64, value: f64) -> Transaction {
        Transaction::new(
            TxnSpec {
                id: 0,
                class: Importance::Low,
                value,
                arrival: t(arrival),
                slack: 1.0,
                compute_time: 0.1,
                reads: vec![],
                derived_reads: vec![],
            },
            0.0,
            &CostModel::default(),
        )
    }

    fn tracker() -> StalenessTracker {
        StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 1, t(0.0), |_| t(0.0))
    }

    #[test]
    fn warmup_gates_counters() {
        let mut m = Metrics::new(t(10.0));
        m.txn_arrived(t(5.0), Importance::Low);
        m.txn_arrived(t(15.0), Importance::Low);
        let early = txn_at(5.0, 1.0);
        let late = txn_at(15.0, 2.0);
        m.txn_committed(&early, t(6.0));
        m.txn_committed(&late, t(16.0));
        m.txn_aborted_at(&early, AbortReason::MissedDeadline, t(6.5));
        m.view_read(t(5.0), true);
        m.view_read(t(15.0), true);
        m.update_arrived(t(5.0), true);
        m.update_arrived(t(15.0), false);
        let tr = tracker();
        m.snapshot_warmup(&tr, t(10.0));
        let r = m.finalize(
            "TF",
            1,
            20.0,
            t(20.0),
            &tr,
            QueueDrops::default(),
            ResilienceStats::default(),
            0,
        );
        assert_eq!(r.txns.arrived, 1);
        assert_eq!(r.txns.committed, 1);
        assert_eq!(r.txns.missed_deadline, 0);
        assert_eq!(r.txns.stale_reads, 1);
        assert_eq!(r.txns.value_committed, 2.0);
        assert_eq!(r.updates.arrived, 1);
        assert_eq!(r.updates.os_dropped, 1);
        assert_eq!(r.cpu.measured_secs, 10.0);
    }

    #[test]
    fn busy_intervals_are_clipped_to_window() {
        let mut m = Metrics::new(t(10.0));
        m.charge_busy(Activity::Txn, t(8.0), t(12.0)); // clips to 2s
        m.charge_busy(Activity::Update, t(14.0), t(15.0));
        m.charge_busy(Activity::Txn, t(4.0), t(6.0)); // fully before: 0
        assert!((m.busy_txn_so_far() - 2.0).abs() < 1e-12);
        assert!((m.busy_update_so_far() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fold_uses_post_warmup_integral() {
        let mut tr =
            StalenessTracker::new(StalenessSpec::UnappliedUpdate, 1, 0, t(0.0), |_| t(0.0));
        let id = strip_db::object::ViewObjectId::new(Importance::Low, 0);
        // Stale over [2, 30].
        tr.on_receive(id, t(2.0), t(2.0));
        let mut m = Metrics::new(t(10.0));
        m.snapshot_warmup(&tr, t(10.0));
        let r = m.finalize(
            "TF",
            1,
            30.0,
            t(30.0),
            &tr,
            QueueDrops::default(),
            ResilienceStats::default(),
            0,
        );
        // Stale throughout the 20s window.
        assert!((r.fold_low - 1.0).abs() < 1e-12);
    }

    #[test]
    fn response_time_stats() {
        let mut m = Metrics::new(t(0.0));
        let a = txn_at(1.0, 1.0);
        let b = txn_at(2.0, 1.0);
        m.txn_committed(&a, t(1.5));
        m.txn_committed(&b, t(3.0));
        let tr = tracker();
        m.snapshot_warmup(&tr, t(0.0));
        let r = m.finalize(
            "TF",
            1,
            10.0,
            t(10.0),
            &tr,
            QueueDrops::default(),
            ResilienceStats::default(),
            0,
        );
        assert!((r.txns.response_mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dag_metrics_flow_into_report() {
        let mut m = Metrics::new(t(10.0));
        m.derived_read(t(5.0), true); // before the window: ignored
        m.derived_read(t(15.0), true);
        m.derived_read(t(16.0), false);
        m.dag_delta_applied(t(15.0), 2.0);
        m.dag_delta_applied(t(16.0), 4.0);
        m.dag_od_refresh(t(15.0));
        m.observe_dag_pending(3);
        m.observe_dag_pending(7);
        m.dag_totals(
            strip_db::dag::DagCounters {
                enqueued: 10,
                applied: 6,
                coalesced: 2,
                shed: 1,
            },
            1,
            0.25,
        );
        let tr = tracker();
        m.snapshot_warmup(&tr, t(10.0));
        let r = m.finalize(
            "OD",
            1,
            20.0,
            t(20.0),
            &tr,
            QueueDrops::default(),
            ResilienceStats::default(),
            0,
        );
        assert_eq!(r.dag.derived_reads, 2);
        assert_eq!(r.dag.stale_derived_reads, 1);
        assert_eq!(r.dag.od_refreshes, 1);
        assert_eq!(r.dag.max_pending, 7);
        assert!((r.dag.lag_mean - 3.0).abs() < 1e-12);
        assert_eq!(r.dag.enqueued, r.dag.terminal_total());
        assert!((r.dag.fold_derived - 0.25).abs() < 1e-12);
    }

    #[test]
    fn queue_drops_and_high_water_marks() {
        let mut m = Metrics::new(t(0.0));
        m.observe_queue_lengths(5, 10);
        m.observe_queue_lengths(3, 20);
        let tr = tracker();
        m.snapshot_warmup(&tr, t(0.0));
        let r = m.finalize(
            "OD",
            1,
            10.0,
            t(10.0),
            &tr,
            QueueDrops {
                expired: 7,
                overflow: 8,
                dedup: 9,
                ..QueueDrops::default()
            },
            ResilienceStats::default(),
            42,
        );
        assert_eq!(r.updates.max_os_len, 5);
        assert_eq!(r.updates.max_uq_len, 20);
        assert_eq!(r.updates.expired_dropped, 7);
        assert_eq!(r.updates.overflow_dropped, 8);
        assert_eq!(r.updates.dedup_dropped, 9);
        assert_eq!(r.cpu.events_processed, 42);
        assert_eq!(r.policy, "OD");
    }
}
