//! The scheduler core: CPU scheduling of transactions and the update
//! process, as one sans-I/O state machine.
//!
//! This module is the paper's core contribution (§3.1, §4). A single CPU is
//! shared between transaction processes and one update-installation process;
//! the scheduling policy decides, at every scheduling point, whether the
//! next CPU slice goes to a transaction (chosen by value density, subject to
//! the feasible-deadline purge) or to update work (receiving arrivals from
//! the OS queue, moving them into the generation-ordered update queue, and
//! installing them into the store).
//!
//! The four algorithms of §4 map onto two mechanisms:
//!
//! * **arrival reaction** — UF and SU preempt a running transaction when an
//!   update arrives (charging `2·x_switch`); TF, OD and the fixed-fraction
//!   extension let arrivals wait in the OS queue;
//! * **dispatch priority** — UF and SU (for its immediate class) serve the
//!   OS queue before transactions; TF/OD serve transactions first and drain
//!   queues only when idle; OD additionally refreshes stale objects from the
//!   update queue *during* a transaction's view read.
//!
//! All CPU consumption — including queue inserts (`x_queue·ln n`), queue
//! scans (`x_scan·N_q`) and on-demand installs — is modelled as cancellable
//! CPU slices, so preemption and the firm-deadline watchdog interact with
//! every activity exactly as they would in the real system.
//!
//! # Drivers
//!
//! [`Scheduler`] owns every piece of scheduling state and makes every
//! decision, but has no clock, calendar, channel or file behind it. A
//! driver feeds it inputs stamped with the driver's own reading of time —
//! [`Scheduler::on_update`], [`Scheduler::on_txn`],
//! [`Scheduler::on_deadline`], [`Scheduler::on_expiry`] — asks it for the
//! next CPU slice with [`Scheduler::next_slice`], lets that much time pass,
//! and reports back through [`Scheduler::finish`] (the slice ran its full
//! length) or [`Scheduler::interrupt`] (it was cut); what the slice does
//! stays in the core meanwhile. The simulator's
//! `Controller` turns a slice into a `CpuDone` calendar event; the
//! `strip-live` executor burns it on the wall clock in quanta. Both run
//! this one copy of the algorithms, so their decisions agree by
//! construction.
//!
//! A driver keeps three promises: inputs carry non-decreasing times; at
//! most one slice is out at a time, and while none is out (after a
//! `finish`, an `interrupt`, a `preempt`, or an input that found the CPU
//! idle) it calls `next_slice` before letting time pass; and it arms the
//! MA-expiry watch a `finish` returns, delivering it to `on_expiry` at its
//! instant. An arrival that wants the slice that is out cut short says so
//! with a [`Preempt`] verdict — [`Scheduler::on_update`] and
//! [`Scheduler::on_txn`] return the same `Option<Preempt>` — and the driver
//! hands that verdict back through [`Scheduler::preempt`], which cuts the
//! slice and does the bookkeeping the verdict implies. A driver never
//! needs to know which kind it was given, so every driver honours both. A
//! deadline is the driver's own timer: it [`Scheduler::interrupt`]s a slice
//! of the transaction that is due, then calls [`Scheduler::on_deadline`].
//!
//! The same holds for configuration: whatever `SimConfig::validate`
//! accepts, every driver runs. Admission control, value-density
//! preemption, historical views, rules and the disk model are state and
//! decisions in here, and a slice's modelled I/O stall is one more cost a
//! driver lets pass like any other.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use strip_db::cost::CostModel;
use strip_db::dag::{generate_dag, DagState, ViewDag};
use strip_db::history::HistoryStore;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::osqueue::OsQueue;
use strip_db::staleness::{DerivedStaleness, ExpiryWatch, StalenessSpec, StalenessTracker};
use strip_db::store::{InstallOutcome, Store};
use strip_db::triggers::{generate_rules, RuleSet};
use strip_db::update::Update;
use strip_db::update_queue::DualUpdateQueue;
use strip_obs::{
    GaugeValues, TraceAbort, TraceConfig, TraceData, TraceJob, TraceKind, TracePath, TraceSink,
    TraceTrack,
};
use strip_sim::dist::{Distribution, Exponential};
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

use crate::config::SimConfig;
use crate::metrics::{AbortReason, Activity, InstallPath, Metrics, QueueDrops};
use crate::policy::{self, ArrivalRoute, ReadCheck, ServiceOrder, WorkState};
use crate::ready::ReadyQueue;
use crate::report::{ResilienceStats, RunReport};
use crate::sources::UpdateSpec;
use crate::txn::{Segment, Transaction, TxnSpec};

/// What kind of transaction-attributed CPU slice is running.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TxnSliceKind {
    /// The current plan segment (work or view-read lookup).
    Segment,
    /// Scanning the update queue (UU staleness check, or OD's search for an
    /// applicable update under MA).
    StaleScan {
        obj: ViewObjectId,
        /// Seconds left in the scan (survives preemption).
        remaining: f64,
    },
    /// Applying an on-demand update taken from the queue (OD).
    OdApply { obj: ViewObjectId, remaining: f64 },
    /// Waiting out a buffer-pool miss on a view read (disk extension).
    IoStall { obj: ViewObjectId, remaining: f64 },
    /// Recursively refreshing the stale ancestors of a derived node before
    /// its read is answered (OD generalised to the view DAG).
    DagRefresh { node: u32, remaining: f64 },
}

impl TxnSliceKind {
    /// Seconds left in an injected slice; `None` for a plan segment, whose
    /// remainder the transaction itself tracks.
    fn remaining_mut(&mut self) -> Option<&mut f64> {
        match self {
            TxnSliceKind::Segment => None,
            TxnSliceKind::StaleScan { remaining, .. }
            | TxnSliceKind::OdApply { remaining, .. }
            | TxnSliceKind::IoStall { remaining, .. }
            | TxnSliceKind::DagRefresh { remaining, .. } => Some(remaining),
        }
    }

    fn remaining(mut self) -> Option<f64> {
        self.remaining_mut().map(|r| *r)
    }
}

/// The work of one CPU slice (see [`Scheduler::next_slice`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// Running the bound transaction.
    Txn(TxnSliceKind),
    /// Installing one update (lookup + write, or lookup-only when
    /// superseded); the update itself waits in `Scheduler::installing`.
    Install { path: InstallPath, superseded: bool },
    /// Receiving/enqueueing updates from the OS queue into the update queue.
    QueueTransfer,
    /// Executing one fired rule (triggers extension).
    RuleExec { rule_id: u32, fired_at: SimTime },
    /// Applying one pending DAG delta in the background (derived-view
    /// extension): recompute the node from its current inputs, cascade on
    /// change.
    DagApply { node: u32 },
}

impl Work {
    /// Which side of the CPU split the slice is charged to.
    fn activity(&self) -> Activity {
        match self {
            Work::Txn(TxnSliceKind::Segment | TxnSliceKind::IoStall { .. }) => Activity::Txn,
            // Queue scans, on-demand installs and on-demand DAG refreshes
            // are update work (the paper counts OD's on-demand installs in
            // ρu — Figure 3b).
            Work::Txn(_)
            | Work::Install { .. }
            | Work::QueueTransfer
            | Work::RuleExec { .. }
            | Work::DagApply { .. } => Activity::Update,
        }
    }

    /// The exported (track, job-kind) pair of the slice.
    fn trace_job(&self) -> (TraceTrack, TraceJob) {
        let track = match self.activity() {
            Activity::Txn => TraceTrack::Txn,
            Activity::Update => TraceTrack::Update,
        };
        let kind = match self {
            Work::Txn(TxnSliceKind::Segment) => TraceJob::Segment,
            Work::Txn(TxnSliceKind::StaleScan { .. }) => TraceJob::StaleScan,
            Work::Txn(TxnSliceKind::OdApply { .. }) => TraceJob::OdApply,
            Work::Txn(TxnSliceKind::IoStall { .. }) => TraceJob::IoStall,
            Work::Txn(TxnSliceKind::DagRefresh { .. }) => TraceJob::DagRefresh,
            Work::Install { .. } => TraceJob::Install,
            Work::QueueTransfer => TraceJob::QueueTransfer,
            Work::RuleExec { .. } => TraceJob::RuleExec,
            Work::DagApply { .. } => TraceJob::DagApply,
        };
        (track, kind)
    }
}

/// The transaction currently bound to the CPU (possibly preempted).
#[derive(Debug)]
struct RunningTxn {
    txn: Transaction,
    /// Kind of the slice in progress or to resume.
    slice: TxnSliceKind,
    /// OD update taken from the queue, to be installed by `OdApply`.
    pending_apply: Option<Update>,
}

impl RunningTxn {
    /// Seconds the slice in progress or to resume still needs.
    fn slice_secs(&self) -> f64 {
        self.slice
            .remaining()
            .unwrap_or_else(|| self.txn.segment_remaining())
    }
}

/// Result of one attempted step of update work.
enum UpdateStep {
    /// A CPU slice of this many seconds was put on the CPU.
    Slice(f64),
    /// Zero-cost work was performed (e.g. a free enqueue); re-evaluate.
    InstantProgress,
    /// No update work available.
    Nothing,
}

/// Why an arrival wants the transaction slice that is out cut short: the
/// verdict of [`Scheduler::on_update`] and [`Scheduler::on_txn`], handed
/// back through [`Scheduler::preempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preempt {
    /// An update arrived under a policy that serves arrivals first (UF,
    /// SU): the next update slice owes the two context switches.
    ByUpdate,
    /// A transaction of higher value density arrived (the value-density
    /// preemption extension): the bound transaction goes back to the ready
    /// queue; no switch cost is modelled between transactions.
    ByTxn,
}

/// The answer to a monitoring-plane read of one derived node (see
/// [`Scheduler::read_derived`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedAnswer {
    /// The node's materialised value.
    pub value: f64,
    /// The node is (still) transitively stale.
    pub stale: bool,
    /// An on-demand refresh ran before answering.
    pub refreshed: bool,
}

/// The store a fresh (non-recovering) run starts from: view objects carry
/// steady-state exponential initial ages drawn from the run seed (see
/// DESIGN.md), so staleness statistics begin in steady state rather than
/// with a cold synchronized store.
#[must_use]
pub fn initial_store(cfg: &SimConfig) -> Store {
    let mut init_rng = Xoshiro256pp::seed_from_u64(cfg.seed).substream(0xA9E);
    let mut ages = |n: u32, mean: f64| -> Vec<SimTime> {
        (0..n)
            .map(|_| {
                let age = if mean.is_finite() {
                    Exponential::new(mean).sample(&mut init_rng)
                } else {
                    0.0
                };
                SimTime::from_secs(-age)
            })
            .collect()
    };
    let low = ages(cfg.n_low, cfg.per_object_refresh_mean(true));
    let high = ages(cfg.n_high, cfg.per_object_refresh_mean(false));
    Store::with_initial_timestamps(
        cfg.n_low,
        cfg.n_high,
        cfg.n_general,
        cfg.attrs_per_object,
        |id| match id.class {
            Importance::Low => low[id.index as usize],
            Importance::High => high[id.index as usize],
        },
    )
}

/// The scheduling state machine shared by the simulator and the live
/// runtime (see the module docs for the driver contract).
#[derive(Debug)]
pub struct Scheduler {
    cfg: SimConfig,
    costs: CostModel,
    alpha: Option<f64>,
    store: Store,
    tracker: StalenessTracker,
    os_queue: OsQueue,
    uq: DualUpdateQueue,
    ready: ReadyQueue,
    running: Option<RunningTxn>,
    /// The slice out with the driver — or, at the end of a run, the update
    /// work that was cut and so is still in flight.
    on_cpu: Option<Work>,
    /// The update a [`Work::Install`] slice is installing. It is kept
    /// beside the enum, not inside it: a variant that carries the 48-byte
    /// update is assembled on the stack and copied into place from an
    /// odd offset, and that copy stalls on store forwarding — about
    /// 7 ns of a 165 ns back-to-back install.
    installing: Option<Update>,
    /// The bound transaction's next slice follows the one just finished
    /// with no scheduling point in between.
    chained: bool,
    /// When the slice in `on_cpu` started.
    slice_started: SimTime,
    /// The MA-expiry watch armed by the install of the slice being
    /// finished, on its way out to the driver.
    watch: Option<ExpiryWatch>,
    metrics: Metrics,
    update_seq: u64,
    /// `2·x_switch` owed by the next update slice after a preemption.
    pending_preempt_cost: f64,
    /// Historical views (extension): version chains plus the RNG deciding
    /// which reads are as-of reads.
    history: Option<HistoryStore>,
    hist_rng: Xoshiro256pp,
    /// Update-triggered rules (extension). `rule_pending` maps a pending
    /// rule to the set of distinct sources that changed since it was
    /// queued — the delta-scaled execution charge depends on it.
    rules: Option<RuleSet>,
    rule_queue: VecDeque<(u32, SimTime)>,
    rule_pending: BTreeMap<u32, BTreeSet<ViewObjectId>>,
    /// Derived-view DAG (extension): topology, maintenance state and the
    /// transitive-staleness observer.
    dag: Option<ViewDag>,
    dag_state: Option<DagState>,
    derived_stale: Option<DerivedStaleness>,
    /// Buffer-pool model (disk extension).
    io_rng: Xoshiro256pp,
    /// Per-object view-read counts, feeding the HotFirst discipline
    /// (indexed `[class][index]`).
    read_counts: [Vec<u64>; 2],
    /// Flight recorder (strip-obs). `None` unless tracing was requested;
    /// every record site is behind one `is_some` check, and the sink never
    /// feeds back into scheduling, so a traced run is bit-identical to an
    /// untraced one.
    trace: Option<Box<TraceSink>>,
}

impl Scheduler {
    /// Builds the core over `store` for an already validated `cfg`;
    /// `update_seq` is the sequence number the next arrival gets. A fresh
    /// run passes [`initial_store`] and 0, a recovering one the recovered
    /// image and its successor sequence. The staleness tracker is seeded
    /// from the store's own generation timestamps, so a recovered store
    /// resumes tracking exactly where the crash left it.
    #[must_use]
    pub fn new(cfg: SimConfig, store: Store, update_seq: u64) -> Self {
        let root = Xoshiro256pp::seed_from_u64(cfg.seed);
        let tracker =
            StalenessTracker::new(cfg.staleness, cfg.n_low, cfg.n_high, SimTime::ZERO, |id| {
                store.view(id).generation_ts
            });
        let mut metrics = Metrics::new(SimTime::from_secs(cfg.warmup));
        if let Some(width) = cfg.timeline_window {
            metrics.enable_timeline(width);
        }
        let history = cfg
            .history
            .map(|h| HistoryStore::new(h.policy, cfg.n_low, cfg.n_high));
        let rules = cfg.triggers.map(|t| {
            let mut rule_rng = root.substream(0x712);
            generate_rules(
                t.n_rules,
                t.sources_per_rule,
                t.exec_instr,
                cfg.n_low,
                cfg.n_high,
                cfg.n_general,
                &mut rule_rng,
            )
        });
        // The DAG sub-stream (0xDA6) is only drawn when the extension is
        // on, so DAG-less configs stay bit-identical to the seed. Derived
        // state is computed from the store image, so a recovered store
        // yields exactly the derived values a full recompute implies.
        let dag = cfg.dag.map(|spec| {
            let mut dag_rng = root.substream(0xDA6);
            generate_dag(&spec, cfg.n_low, cfg.n_high, &mut dag_rng)
        });
        let dag_state = dag
            .as_ref()
            .map(|d| DagState::new(d, &store, cfg.dag.map_or(1, |s| s.max_pending)));
        let derived_stale = dag
            .as_ref()
            .map(|d| DerivedStaleness::new(d.len(), SimTime::ZERO));
        Scheduler {
            costs: cfg.costs,
            alpha: cfg.staleness.alpha(),
            store,
            tracker,
            os_queue: OsQueue::with_shed(cfg.os_max, cfg.os_shed),
            uq: DualUpdateQueue::with_shed(
                cfg.uq_max,
                cfg.indexed_queue,
                cfg.split_update_queue,
                cfg.uq_shed,
            ),
            ready: ReadyQueue::new(),
            running: None,
            on_cpu: None,
            installing: None,
            chained: false,
            slice_started: SimTime::ZERO,
            watch: None,
            metrics,
            update_seq,
            pending_preempt_cost: 0.0,
            history,
            hist_rng: root.substream(0x415),
            rules,
            rule_queue: VecDeque::new(),
            rule_pending: BTreeMap::new(),
            dag,
            dag_state,
            derived_stale,
            io_rng: root.substream(0xD15C),
            read_counts: [vec![0; cfg.n_low as usize], vec![0; cfg.n_high as usize]],
            trace: None,
            cfg,
        }
    }

    // ---- read-only views ----------------------------------------------------

    /// The configuration the core was built for.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read-only access to the store.
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Read-only access to the staleness tracker.
    #[must_use]
    pub fn tracker(&self) -> &StalenessTracker {
        &self.tracker
    }

    /// Read-only access to the metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The sequence number the next accepted update will carry.
    #[must_use]
    pub fn update_seq(&self) -> u64 {
        self.update_seq
    }

    /// The transaction bound to the CPU (running or preempted), if any.
    #[must_use]
    pub fn bound_txn(&self) -> Option<&Transaction> {
        self.running.as_ref().map(|rt| &rt.txn)
    }

    /// The bound transaction, when it is a slice of it that is out — the
    /// only kind of slice an arrival or a deadline may cut short (installs
    /// are not preempted, §4.2).
    #[must_use]
    pub fn txn_on_cpu(&self) -> Option<&Transaction> {
        match self.on_cpu {
            Some(Work::Txn(_)) => self.bound_txn(),
            _ => None,
        }
    }

    // ---- scheduling invariants ----------------------------------------------

    /// The running transaction, with a descriptive panic when the
    /// scheduling invariant (an event that implies a bound transaction)
    /// is violated. Takes the field rather than `&mut self` so callers
    /// can keep other field borrows alive.
    fn running<'a>(
        running: &'a mut Option<RunningTxn>,
        now: SimTime,
        event: &str,
    ) -> &'a mut RunningTxn {
        running.as_mut().unwrap_or_else(|| {
            // lint: allow(live-panic, reason=a txn slice or read step exists only while a transaction is bound; a driver that breaks this has lost the schedule)
            panic!(
                "invariant violated: no running transaction at t={:.6}s while handling {event}",
                now.as_secs()
            )
        })
    }

    /// Unbinds and returns the running transaction; panics like
    /// [`Scheduler::running`] when the invariant is violated.
    fn take_running(running: &mut Option<RunningTxn>, now: SimTime, event: &str) -> RunningTxn {
        running.take().unwrap_or_else(|| {
            // lint: allow(live-panic, reason=same invariant as `running`: the caller just observed the bound transaction)
            panic!(
                "invariant violated: no running transaction at t={:.6}s while handling {event}",
                now.as_secs()
            )
        })
    }

    // ---- tracing (strip-obs) ------------------------------------------------

    /// Installs a flight recorder; subsequent scheduling points are
    /// recorded into it. Tracing is observation-only: it must not (and by
    /// construction cannot) change the schedule.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        let policy = self.cfg.policy.label();
        self.trace = Some(Box::new(TraceSink::new(cfg, policy)));
    }

    /// Detaches the recorder and returns its capture; `None` when tracing
    /// was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.trace.take().map(|sink| sink.finish())
    }

    /// Records one trace event when a sink is installed; a single branch
    /// otherwise, keeping untraced runs at full speed.
    #[inline]
    fn emit(&mut self, now: SimTime, kind: TraceKind) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(now.as_secs(), kind);
        }
    }

    /// Records the post-change OS/update queue depths.
    #[inline]
    fn emit_queue_depth(&mut self, now: SimTime) {
        if self.trace.is_some() {
            let os = self.os_queue.len() as u32;
            let uq = self.uq.len() as u32;
            self.emit(now, TraceKind::QueueDepth { os, uq });
        }
    }

    fn emit_abort(&mut self, now: SimTime, txn: &Transaction, reason: TraceAbort) {
        self.emit(
            now,
            TraceKind::Abort {
                txn: txn.id(),
                reason,
            },
        );
    }

    fn emit_slice_end(&mut self, now: SimTime, work: &Work, interrupted: bool) {
        if self.trace.is_some() {
            let (track, job) = work.trace_job();
            self.emit(
                now,
                TraceKind::SliceEnd {
                    track,
                    job,
                    interrupted,
                },
            );
        }
    }

    /// Samples the gauge set into the trace when a sample is due. A driver
    /// calls this from an observation hook after each input, never from a
    /// scheduled event of its own, so a traced run takes exactly the same
    /// inputs as an untraced one.
    pub fn sample_gauges(&mut self, now: SimTime) {
        let Some(sink) = self.trace.as_deref_mut() else {
            return;
        };
        let at = now.as_secs();
        if !sink.gauge_due(at) {
            return;
        }
        let (rho_t, rho_u) = if at > 0.0 {
            (
                self.metrics.busy_txn_so_far() / at,
                self.metrics.busy_update_so_far() / at,
            )
        } else {
            (0.0, 0.0)
        };
        let values = GaugeValues {
            os_depth: self.os_queue.len() as u32,
            uq_depth: self.uq.len() as u32,
            ready_len: self.ready.len() as u32,
            stale_low: self.tracker.stale_count(Importance::Low),
            stale_high: self.tracker.stale_count(Importance::High),
            rho_t,
            rho_u,
        };
        sink.push_gauges(at, values);
    }

    // ---- inputs -------------------------------------------------------------

    /// An external update arrives (`spec.arrival` is `now`). Returns a
    /// verdict when the arrival preempts the transaction slice that is out:
    /// the driver must hand it back through [`Scheduler::preempt`].
    pub fn on_update(&mut self, spec: &UpdateSpec, now: SimTime) -> Option<Preempt> {
        debug_assert!(spec.arrival == now);
        // Admission control (robustness extension): past the utilisation
        // threshold, low-importance arrivals are shed before the OS queue.
        // The object still becomes UU-stale — the external world moved on
        // whether or not the message was kept.
        let shed = self.admission_sheds(spec.object.class, now);
        if shed {
            self.metrics.update_admission_shed(now);
        } else {
            let update = Update {
                seq: self.update_seq,
                object: spec.object,
                generation_ts: spec.generation_ts,
                arrival_ts: now,
                payload: spec.payload,
                attr_mask: spec.attr_mask,
            };
            self.update_seq += 1;
            // Exactly one update is lost per overflow event, whichever
            // victim the shedding policy picked.
            let outcome = self.os_queue.deliver(update);
            self.metrics.update_arrived(now, !outcome.lost_one());
        }
        // The system has been handed this update: under UU the object is now
        // stale until a value at least this recent is installed.
        self.tracker
            .on_receive(spec.object, spec.generation_ts, now);
        self.metrics
            .observe_queue_lengths(self.os_queue.len(), self.uq.len());
        self.emit_queue_depth(now);
        (!shed && policy::preempts_on_arrival(self.cfg.policy) && self.txn_on_cpu().is_some())
            .then_some(Preempt::ByUpdate)
    }

    /// True when the admission controller sheds this arrival: low
    /// importance only, and the measured CPU utilisation so far exceeds
    /// the configured threshold.
    fn admission_sheds(&self, class: Importance, now: SimTime) -> bool {
        let Some(admission) = self.cfg.admission else {
            return false;
        };
        if class != Importance::Low {
            return false;
        }
        let elapsed = now.as_secs();
        if elapsed <= 0.0 {
            return false;
        }
        let busy = self.metrics.busy_update_so_far() + self.metrics.busy_txn_so_far();
        busy / elapsed > admission.util_threshold
    }

    /// A transaction arrives (`spec.arrival` is `now`). Returns its firm
    /// deadline, at which the driver must call [`Scheduler::on_deadline`],
    /// and a verdict when it out-bids the transaction whose plan segment is
    /// out (the value-density preemption extension): the driver must hand
    /// it back through [`Scheduler::preempt`].
    pub fn on_txn(&mut self, spec: TxnSpec, now: SimTime) -> (SimTime, Option<Preempt>) {
        debug_assert!(spec.arrival == now);
        self.metrics.txn_arrived(now, spec.class);
        let txn = Transaction::new(spec, self.cfg.p_view, &self.costs);
        let outbids = self.cfg.txn_preemption
            && matches!(self.on_cpu, Some(Work::Txn(TxnSliceKind::Segment)))
            && self
                .bound_txn()
                .is_some_and(|bound| txn.value_density() > bound.value_density());
        let deadline = txn.deadline();
        self.ready.push(txn);
        (deadline, outbids.then_some(Preempt::ByTxn))
    }

    /// The firm-deadline watchdog of transaction `txn_id` fires: abort it
    /// wherever it is; a transaction that already finished is left alone.
    /// If a slice of that very transaction is out
    /// ([`Scheduler::txn_on_cpu`]), the driver must
    /// [`Scheduler::interrupt`] it first.
    pub fn on_deadline(&mut self, txn_id: u64, now: SimTime) {
        let txn = if self.bound_txn().is_some_and(|t| t.id() == txn_id) {
            self.running.take().map(|rt| rt.txn)
        } else {
            self.ready.remove(txn_id)
        };
        if let Some(txn) = txn {
            self.metrics
                .txn_aborted_at(&txn, AbortReason::MissedDeadline, now);
            self.emit_abort(now, &txn, TraceAbort::MissedDeadline);
        }
    }

    /// The MA staleness watchdog of one installed value fires.
    pub fn on_expiry(&mut self, watch: ExpiryWatch, now: SimTime) {
        self.tracker.on_expiry(watch, now);
    }

    /// The metric warm-up window ends: measurement starts here.
    pub fn on_warmup_end(&mut self, now: SimTime) {
        self.metrics.snapshot_warmup(&self.tracker, now);
    }

    /// The watchdogs of the values the store starts with.
    #[must_use]
    pub fn initial_watches(&self) -> Vec<ExpiryWatch> {
        self.tracker.initial_watches()
    }

    // ---- slices -------------------------------------------------------------

    /// The main scheduling point: chooses the next CPU slice, taking every
    /// instant transition (free enqueues, infeasibility aborts) on the
    /// way. Returns the length in seconds of the slice it put on the CPU;
    /// `None` when there is nothing to run.
    pub fn next_slice(&mut self, now: SimTime) -> Option<f64> {
        debug_assert!(self.on_cpu.is_none(), "a slice is already out");
        let secs = match self.chained_slice() {
            Some(secs) => secs,
            None => self.dispatch(now)?,
        };
        debug_assert!(secs >= 0.0);
        if let (Some(work), true) = (&self.on_cpu, self.trace.is_some()) {
            let (track, job) = work.trace_job();
            self.emit(now, TraceKind::SliceStart { track, job, secs });
        }
        self.slice_started = now;
        Some(secs)
    }

    /// The slice that is out ran its full length: charge it, perform its
    /// effect (install, commit, staleness verdict, …) and line up what
    /// follows. Returns the MA-expiry watch of the value it installed, if
    /// any: the driver must deliver it to [`Scheduler::on_expiry`] at its
    /// instant.
    pub fn finish(&mut self, now: SimTime) -> Option<ExpiryWatch> {
        let Some(work) = self.on_cpu.take() else {
            debug_assert!(false, "finish without a slice out");
            return None;
        };
        self.metrics
            .charge_busy(work.activity(), self.slice_started, now);
        self.emit_slice_end(now, &work, false);
        match work {
            Work::Install { path, superseded } => {
                if let Some(update) = self.installing.take() {
                    let applied = !superseded && self.apply_update(&update, now);
                    self.record_install(&update, path, applied, now);
                }
            }
            Work::QueueTransfer => {}
            Work::RuleExec { rule_id, fired_at } => {
                if let Some(rules) = self.rules.as_ref() {
                    rules.execute(rule_id, &mut self.store);
                }
                self.rule_pending.remove(&rule_id);
                self.metrics.rule_executed(now, now.since(fired_at));
            }
            Work::DagApply { node } => self.dag_apply(node, now),
            Work::Txn(kind) => self.on_txn_slice_done(kind, now),
        }
        self.watch.take()
    }

    /// The slice that is out was cut after `performed_secs` of its length
    /// (a deadline, the end of the run; a preemption goes through
    /// [`Scheduler::preempt`]): charge it and keep
    /// a transaction slice's partial progress. Update work is not
    /// resumable — installs are never preempted (§4.2) — so a driver only
    /// cuts it when the run ends; it then stays on the CPU, and
    /// [`Scheduler::report`] counts it as in flight.
    pub fn interrupt(&mut self, performed_secs: f64, now: SimTime) {
        let Some(work) = self.on_cpu.take() else {
            debug_assert!(false, "interrupt without a slice out");
            return;
        };
        self.metrics
            .charge_busy(work.activity(), self.slice_started, now);
        self.emit_slice_end(now, &work, true);
        match work {
            Work::Txn(mut kind) => {
                if let Some(rt) = self.running.as_mut() {
                    match kind.remaining_mut() {
                        None => rt.txn.consume(performed_secs),
                        Some(remaining) => {
                            *remaining = (*remaining - performed_secs).max(0.0);
                            rt.slice = kind;
                        }
                    }
                }
            }
            work => self.on_cpu = Some(work),
        }
    }

    /// The driver cut the slice that is out, after `performed_secs` of its
    /// length, on the verdict an arrival returned: [`Scheduler::interrupt`]
    /// plus what the verdict implies for the transaction that lost the CPU.
    pub fn preempt(&mut self, verdict: Preempt, performed_secs: f64, now: SimTime) {
        self.interrupt(performed_secs, now);
        match verdict {
            Preempt::ByUpdate => {
                let cost_secs = self.costs.preempt_time();
                self.pending_preempt_cost = cost_secs;
                if let Some(txn) = self.bound_txn().map(Transaction::id) {
                    self.emit(now, TraceKind::Preempt { txn, cost_secs });
                }
            }
            Preempt::ByTxn => {
                if let Some(rt) = self.running.take() {
                    // No switch cost is modelled between transactions.
                    let (txn, cost_secs) = (rt.txn.id(), 0.0);
                    self.emit(now, TraceKind::Preempt { txn, cost_secs });
                    self.ready.push(rt.txn);
                }
            }
        }
    }

    // ---- reports ------------------------------------------------------------

    /// Queue/CPU occupancy at this instant, for the report's conservation
    /// identity (`terminal_total == arrived`).
    #[must_use]
    pub fn queue_drops(&self) -> QueueDrops {
        let on_cpu = u64::from(self.installing.is_some());
        let pending_od = self
            .running
            .as_ref()
            .map_or(0, |rt| u64::from(rt.pending_apply.is_some()));
        QueueDrops {
            expired: self.uq.expired_dropped(),
            overflow: self.uq.overflow_dropped(),
            dedup: self.uq.dedup_dropped(),
            left_in_os: self.os_queue.len() as u64,
            left_in_uq: self.uq.len() as u64,
            in_flight: on_cpu + pending_od,
        }
    }

    /// The report as of `now`, interim or final: the run itself continues
    /// untouched. Every transaction and update still in the system is
    /// accounted as in flight, so both conservation identities hold at any
    /// instant; `events` is the driver's processed-input count.
    #[must_use]
    pub fn report(&self, now: SimTime, events: u64, resilience: ResilienceStats) -> RunReport {
        let mut m = self.metrics.clone();
        if m.warmup_pending() {
            // The measurement window has not opened yet: open it at `now`
            // on the copy so folds are well-defined (and zero-width).
            m.snapshot_warmup(&self.tracker, now);
        }
        for txn in self.bound_txn().into_iter().chain(self.ready.iter()) {
            m.txn_in_flight(txn);
        }
        if let Some(history) = self.history.as_ref() {
            m.history_store_totals(
                history.appends(),
                history.pruned(),
                history.total_entries() as u64,
            );
        }
        let rule_on_cpu = u64::from(matches!(self.on_cpu, Some(Work::RuleExec { .. })));
        m.rules_pending_at_end(self.rule_queue.len() as u64 + rule_on_cpu);
        // A DagApply slice that was cut never removed its entry from the
        // pending map, so the map alone is the pending bucket.
        if let Some(state) = self.dag_state.as_ref() {
            let fold = self.derived_stale.as_ref().map_or(0.0, |ds| ds.fold(now));
            m.dag_totals(state.stats, state.pending_len() as u64, fold);
        }
        m.finalize(
            self.cfg.policy.label(),
            self.cfg.seed,
            now.as_secs(),
            now,
            &self.tracker,
            self.queue_drops(),
            resilience,
            events,
        )
    }

    // ---- installs -----------------------------------------------------------

    /// Draws the buffer-pool miss penalty for one object access (seconds);
    /// 0 for the paper's main-memory model.
    fn io_penalty(&mut self, now: SimTime, on_install: bool) -> f64 {
        let Some(io) = self.cfg.io else {
            return 0.0;
        };
        if self.io_rng.chance(io.hit_ratio) {
            return 0.0;
        }
        self.metrics.io_miss(now, on_install);
        self.costs.secs(io.x_io)
    }

    /// Puts the install slice for `update` on the CPU. `path` records how the install was
    /// triggered; `extra` is additional CPU owed by this slice (queue
    /// dequeue cost).
    fn install_slice(
        &mut self,
        now: SimTime,
        update: Update,
        path: InstallPath,
        extra: f64,
    ) -> UpdateStep {
        let obj = self.store.view(update.object);
        let superseded = if obj.attr_count() == 1 {
            update.generation_ts <= obj.generation_ts
        } else {
            // Partial updates: superseded only if no covered attribute
            // would advance.
            (0..obj.attr_count())
                .filter(|a| *a < 64 && (update.attr_mask >> a) & 1 == 1)
                .all(|a| update.generation_ts <= obj.attr_generation(a))
        };
        let work = if superseded {
            // The lookup reveals a value at least as recent; skip the write.
            self.costs.lookup_time()
        } else {
            // A partial update writes only its covered attributes, so its
            // write cost scales with the fraction provided.
            let attrs = self.cfg.attrs_per_object.max(1);
            let frac = f64::from(update.provided_attrs(attrs)) / f64::from(attrs);
            self.costs.lookup_time() + self.costs.update_write_time() * frac
        };
        let io = self.io_penalty(now, true);
        let duration = work + extra + io + self.take_preempt_cost();
        self.installing = Some(update);
        self.on_cpu = Some(Work::Install { path, superseded });
        UpdateStep::Slice(duration)
    }

    fn take_preempt_cost(&mut self) -> f64 {
        std::mem::take(&mut self.pending_preempt_cost)
    }

    /// Applies a (non-superseded) update to the store and staleness
    /// tracking; arms the MA expiry watchdog.
    fn apply_update(&mut self, update: &Update, now: SimTime) -> bool {
        match self.store.install(update) {
            InstallOutcome::Installed {
                new_version,
                min_generation,
            } => {
                // The MA-relevant generation is the object's oldest
                // attribute after the write (equals the update's generation
                // for complete updates on single-attribute objects).
                if let Some(watch) =
                    self.tracker
                        .on_install(update.object, min_generation, new_version, now)
                {
                    debug_assert!(self.watch.is_none(), "one install per finished slice");
                    self.watch = Some(watch);
                }
                if let Some(history) = self.history.as_mut() {
                    history.record(update.object, update.generation_ts, update.payload);
                }
                self.fire_rules(update.object, now);
                self.propagate_base_install(update, now);
                true
            }
            InstallOutcome::Superseded => false,
        }
    }

    /// Accounts one completed install slice, whichever path ran it.
    fn record_install(&mut self, update: &Update, path: InstallPath, applied: bool, now: SimTime) {
        if applied {
            self.metrics.update_installed(now, path);
        } else {
            self.metrics.update_superseded(now);
        }
        self.emit(
            now,
            TraceKind::Install {
                path: match path {
                    InstallPath::Background => TracePath::Background,
                    InstallPath::Immediate => TracePath::Immediate,
                    InstallPath::OnDemand => TracePath::OnDemand,
                },
                high_class: update.object.class == Importance::High,
                superseded: !applied,
            },
        );
    }

    // ---- dispatch -----------------------------------------------------------

    /// The observable scheduler state the pure policy functions decide on.
    fn work_state(&self) -> WorkState {
        WorkState {
            os_empty: self.os_queue.is_empty(),
            uq_empty: self.uq.is_empty(),
            busy_update: self.metrics.busy_update_so_far(),
            busy_txn: self.metrics.busy_txn_so_far(),
        }
    }

    /// The bound transaction's next slice, when the handler of the one
    /// just finished lined it up.
    fn chained_slice(&mut self) -> Option<f64> {
        if !std::mem::take(&mut self.chained) {
            return None;
        }
        // `None`: a deadline that fired between the two slices unbound it.
        let rt = self.running.as_ref()?;
        self.on_cpu = Some(Work::Txn(rt.slice));
        Some(rt.slice_secs())
    }

    /// Chooses the next CPU slice at a scheduling point.
    fn dispatch(&mut self, now: SimTime) -> Option<f64> {
        let uses_queue = self.cfg.policy.uses_update_queue();
        // Scheduling-point housekeeping: discard MA-expired queued updates
        // (constant-time head checks on the generation-ordered queue).
        if let (Some(alpha), true) = (self.alpha, uses_queue) {
            self.uq.discard_expired(now, alpha);
        }
        loop {
            if policy::updates_have_priority(self.cfg.policy, &self.work_state()) {
                match self.try_update_step(now, false) {
                    UpdateStep::Slice(secs) => return Some(secs),
                    UpdateStep::InstantProgress => continue,
                    UpdateStep::Nothing => {}
                }
            }
            // Prompt receive (§3.3 step 3): arrivals buffered by the OS are
            // moved into the searchable update queue at every scheduling
            // point. Receiving is instantaneous when the CPU is free (only
            // the queue insert costs CPU); *installs* still wait for idle
            // under TF/OD, so this is what lets OD find unapplied updates
            // while transactions monopolise the processor.
            if uses_queue && !self.os_queue.is_empty() {
                match self.try_update_step(now, true) {
                    UpdateStep::Slice(secs) => return Some(secs),
                    UpdateStep::InstantProgress => continue,
                    UpdateStep::Nothing => {}
                }
            }
            // Feasible-deadline purge, then highest value density — unless
            // a preempted transaction is waiting to resume.
            if self.running.is_none() {
                if self.cfg.feasible_deadline {
                    for t in self.ready.drain_infeasible(now) {
                        self.abort_infeasible(&t, now);
                    }
                }
                self.running = self.ready.pop_best().map(|txn| RunningTxn {
                    txn,
                    slice: TxnSliceKind::Segment,
                    pending_apply: None,
                });
            }
            if self.running.is_some() {
                match self.resume_running(now) {
                    Some(secs) => return Some(secs),
                    None => continue, // aborted instead; re-evaluate
                }
            }
            // No transactions: background update work.
            match self.try_update_step(now, false) {
                UpdateStep::Slice(secs) => return Some(secs),
                UpdateStep::InstantProgress => continue,
                UpdateStep::Nothing => return None,
            }
        }
    }

    fn abort_infeasible(&mut self, txn: &Transaction, now: SimTime) {
        self.metrics
            .txn_aborted_at(txn, AbortReason::Infeasible, now);
        self.emit_abort(now, txn, TraceAbort::Infeasible);
    }

    /// Puts the bound transaction's current slice on the CPU at a
    /// scheduling point; `None` if it was aborted instead (infeasible).
    fn resume_running(&mut self, now: SimTime) -> Option<f64> {
        let rt = Self::running(&mut self.running, now, "resume of the bound transaction");
        if self.cfg.feasible_deadline
            && rt.slice == TxnSliceKind::Segment
            && !rt.txn.feasible_at(now)
        {
            let rt = Self::take_running(&mut self.running, now, "infeasibility abort at resume");
            self.abort_infeasible(&rt.txn, now);
            return None;
        }
        self.on_cpu = Some(Work::Txn(rt.slice));
        Some(rt.slice_secs())
    }

    /// Fires every rule watching `object` (triggers extension), coalescing
    /// rules that are already pending and bounding the pending queue.
    fn fire_rules(&mut self, object: ViewObjectId, now: SimTime) {
        let Some(rules) = self.rules.as_ref() else {
            return;
        };
        let max_pending = self.cfg.triggers.map_or(usize::MAX, |t| t.max_pending);
        // Collect first: firing mutates queue/pending while `rules` borrows.
        let fired: Vec<u32> = rules.triggered_by(object).to_vec();
        for id in fired {
            if let Some(changed) = self.rule_pending.get_mut(&id) {
                changed.insert(object);
                self.metrics.rule_fired(now, true, false);
            } else if self.rule_queue.len() >= max_pending {
                self.metrics.rule_fired(now, false, true);
            } else {
                self.rule_pending
                    .insert(id, std::iter::once(object).collect());
                self.rule_queue.push_back((id, now));
                self.metrics.rule_fired(now, false, false);
            }
        }
        self.metrics.observe_rule_queue(self.rule_queue.len());
    }

    /// A rule-execution slice if a firing is pending; otherwise falls
    /// through to DAG delta propagation.
    fn try_rule_step(&mut self) -> UpdateStep {
        let Some((rule_id, fired_at)) = self.rule_queue.pop_front() else {
            return self.try_dag_step();
        };
        // Delta-scaled charge (see `RuleSet::exec_cost`): a coalesced
        // execution recomputes only its changed sources' share of the
        // refresh, not the whole rule every time.
        let changed = self.rule_pending.get(&rule_id).map_or(0, BTreeSet::len);
        let exec_instr = self
            .rules
            .as_ref()
            .map_or(0.0, |r| r.exec_cost(rule_id, changed));
        let duration = self.costs.secs(exec_instr) + self.take_preempt_cost();
        self.on_cpu = Some(Work::RuleExec { rule_id, fired_at });
        UpdateStep::Slice(duration)
    }

    /// A delta-application slice when the DAG has pending deltas: the
    /// rank-order drain always applies the lowest pending node id, which
    /// (ids being topological) is never waiting on a node below it.
    fn try_dag_step(&mut self) -> UpdateStep {
        let Some(node) = self.dag_state.as_ref().and_then(DagState::next_pending) else {
            return UpdateStep::Nothing;
        };
        let inputs = self.dag.as_ref().map_or(0, |d| d.inputs(node).len());
        let instr = self.cfg.dag.map_or(0.0, |s| s.edge_cost_instr) * inputs as f64;
        let duration = self.costs.secs(instr) + self.take_preempt_cost();
        self.on_cpu = Some(Work::DagApply { node });
        UpdateStep::Slice(duration)
    }

    /// Performs one step of update work if any is available. With
    /// `receive_only` the step is limited to moving one OS-queue arrival to
    /// its destination (update queue, or an immediate install for classes
    /// that are applied on arrival); background installs from the update
    /// queue are excluded.
    fn try_update_step(&mut self, now: SimTime, receive_only: bool) -> UpdateStep {
        if !self.cfg.policy.uses_update_queue() {
            if receive_only {
                return UpdateStep::Nothing;
            }
            // UF: install straight off the OS queue, in arrival order; fired
            // rules run once the install burst has drained.
            return match self.os_queue.receive() {
                Some(u) => self.install_slice(now, u, InstallPath::Immediate, 0.0),
                None => self.try_rule_step(),
            };
        }
        // Queue-using policies: first receive arrivals from the OS queue.
        if let Some(u) = self.os_queue.receive() {
            if policy::arrival_route(self.cfg.policy, u.object.class)
                == ArrivalRoute::InstallImmediate
            {
                return self.install_slice(now, u, InstallPath::Immediate, 0.0);
            }
            let cost = self.costs.queue_op_time(self.uq.len() + 1) + self.take_preempt_cost();
            self.uq.insert(u);
            self.metrics.update_enqueued(now);
            // An update already past the maximum age on receipt is discarded
            // immediately (the generation-ordered queue makes this a
            // constant-time head check).
            if let Some(alpha) = self.alpha {
                self.uq.discard_expired(now, alpha);
            }
            self.metrics
                .observe_queue_lengths(self.os_queue.len(), self.uq.len());
            self.emit_queue_depth(now);
            if cost > 0.0 {
                self.on_cpu = Some(Work::QueueTransfer);
                return UpdateStep::Slice(cost);
            }
            return UpdateStep::InstantProgress;
        }
        if receive_only {
            return UpdateStep::Nothing;
        }
        // Then drain the update queue (background installs); with the split
        // extension the high-importance partition is served first.
        let popped = match policy::service_order(self.cfg.queue_policy) {
            ServiceOrder::OldestFirst => self.uq.pop(false),
            ServiceOrder::NewestFirst => self.uq.pop(true),
            ServiceOrder::HottestFirst => {
                let counts = &self.read_counts;
                self.uq
                    .pop_hottest(|id| counts[id.class.index()][id.index as usize])
            }
        };
        match popped {
            Some(u) => {
                let dequeue_cost = self.costs.queue_op_time(self.uq.len() + 1);
                self.install_slice(now, u, InstallPath::Background, dequeue_cost)
            }
            // Fired rules run when no installs are waiting.
            None => self.try_rule_step(),
        }
    }

    // ---- transaction steps --------------------------------------------------

    /// Lines up `kind` as the bound transaction's next slice, to start
    /// where the one just finished ends (no scheduling point in between).
    fn chain(&mut self, kind: TxnSliceKind, now: SimTime, event: &str) {
        Self::running(&mut self.running, now, event).slice = kind;
        self.chained = true;
    }

    fn on_txn_slice_done(&mut self, kind: TxnSliceKind, now: SimTime) {
        match kind {
            TxnSliceKind::Segment => {
                let rt = Self::running(&mut self.running, now, "segment completion");
                let finished = rt.txn.complete_segment();
                rt.txn.arm_segment(&self.costs);
                match finished {
                    Segment::Work(_) => self.continue_txn(now),
                    Segment::ReadDerived(node) => self.handle_derived_read(node, now),
                    Segment::ReadView(obj) => {
                        self.read_counts[obj.class.index()][obj.index as usize] += 1;
                        // Disk extension: the lookup may miss the buffer
                        // pool, stalling the transaction before the
                        // staleness check.
                        let stall = self.io_penalty(now, false);
                        if stall > 0.0 {
                            let remaining = stall;
                            self.chain(
                                TxnSliceKind::IoStall { obj, remaining },
                                now,
                                "view-read buffer miss",
                            );
                        } else {
                            self.handle_view_read(obj, now);
                        }
                    }
                }
            }
            TxnSliceKind::StaleScan { obj, .. } => self.handle_post_scan(obj, now),
            TxnSliceKind::DagRefresh { node, .. } => {
                let rt = Self::running(&mut self.running, now, "derived-read refresh completion");
                rt.slice = TxnSliceKind::Segment;
                self.perform_dag_refresh(node, now);
                self.finalize_derived_read(node, now);
            }
            TxnSliceKind::IoStall { obj, .. } => {
                let rt = Self::running(&mut self.running, now, "I/O stall completion");
                rt.slice = TxnSliceKind::Segment;
                self.handle_view_read(obj, now);
            }
            TxnSliceKind::OdApply { obj, .. } => {
                let rt = Self::running(&mut self.running, now, "on-demand apply completion");
                rt.slice = TxnSliceKind::Segment;
                let update = rt.pending_apply.take().unwrap_or_else(|| {
                    // lint: allow(live-panic, reason=the update is parked by `handle_post_scan` in the same step that lines up the OdApply slice)
                    panic!(
                        "invariant violated: no pending OD update at t={:.6}s \
                         while handling on-demand apply completion",
                        now.as_secs()
                    )
                });
                let applied = self.apply_update(&update, now);
                self.record_install(&update, InstallPath::OnDemand, applied, now);
                self.finalize_read(obj, now);
            }
        }
    }

    /// A view-read lookup just completed: perform the staleness check
    /// (paper §3.4 step 2), possibly starting a queue scan.
    fn handle_view_read(&mut self, obj: ViewObjectId, now: SimTime) {
        // Historical views (extension): some reads are as-of reads against
        // a past instant. The past is immutable, so they are never stale
        // and never trigger on-demand refreshes; they can *miss* when the
        // instant predates the retained window.
        if let (Some(history), Some(access)) = (self.history.as_ref(), self.cfg.history) {
            if access.p_historical_read > 0.0 && self.hist_rng.chance(access.p_historical_read) {
                let lag =
                    access.lag_min + (access.lag_max - access.lag_min) * self.hist_rng.next_f64();
                let as_of = SimTime::from_secs(now.as_secs() - lag);
                let hit = history.value_as_of(obj, as_of).is_some();
                let arrival = Self::running(&mut self.running, now, "historical view read")
                    .txn
                    .spec()
                    .arrival;
                self.metrics.historical_read(arrival, hit);
                self.continue_txn(now);
                return;
            }
        }
        // The scan decision (OD's on-demand search under MA; the UU check
        // itself under the queue criteria) lives in the policy module;
        // only the MA timestamp compare is evaluated here.
        let ma_stale = match self.cfg.staleness {
            StalenessSpec::MaxAge { alpha } => self.store.is_stale_ma(obj, now, alpha),
            StalenessSpec::UnappliedUpdate | StalenessSpec::Either { .. } => false,
        };
        match policy::read_check(self.cfg.policy, self.cfg.staleness, ma_stale) {
            ReadCheck::Scan => self.begin_scan(obj, now),
            ReadCheck::Direct => self.finalize_read(obj, now),
        }
    }

    fn begin_scan(&mut self, obj: ViewObjectId, now: SimTime) {
        let remaining = if self.cfg.indexed_queue {
            self.costs.indexed_probe_time()
        } else {
            self.costs.scan_time(self.uq.len())
        };
        if remaining > 0.0 {
            self.chain(
                TxnSliceKind::StaleScan { obj, remaining },
                now,
                "start of a staleness scan",
            );
        } else {
            self.handle_post_scan(obj, now);
        }
    }

    /// The queue scan finished: decide whether an on-demand install happens.
    fn handle_post_scan(&mut self, obj: ViewObjectId, now: SimTime) {
        if let Some(rt) = self.running.as_mut() {
            rt.slice = TxnSliceKind::Segment;
        }
        let queued_newest = self.uq.newest_for(obj).map(|u| u.generation_ts);
        let installed_gen = self.store.view(obj).generation_ts;
        let refresh = if policy::od_refresh(self.cfg.policy, queued_newest, installed_gen) {
            self.uq.take_newest_for(obj)
        } else {
            None
        };
        let Some(update) = refresh else {
            self.finalize_read(obj, now);
            return;
        };
        // Applying the found update costs x_update (the object is already
        // located by the read's lookup — §5.3).
        let remaining = self.costs.update_write_time();
        let rt = Self::running(&mut self.running, now, "on-demand refresh decision");
        rt.pending_apply = Some(update);
        let apply = TxnSliceKind::OdApply { obj, remaining };
        if remaining > 0.0 {
            self.chain(apply, now, "on-demand refresh decision");
        } else {
            self.on_txn_slice_done(apply, now);
        }
    }

    /// Concludes a view read: record staleness, possibly abort, continue.
    fn finalize_read(&mut self, obj: ViewObjectId, now: SimTime) {
        // Both verdicts delegate to the policy module: the *metric*
        // verdict (what the evaluation reports) and the *system* verdict
        // (what abort-on-stale can actually detect — an update dropped
        // before being applied is invisible to the running system).
        let ma_stale = match self.cfg.staleness {
            StalenessSpec::MaxAge { alpha } | StalenessSpec::Either { alpha } => {
                self.store.is_stale_ma(obj, now, alpha)
            }
            StalenessSpec::UnappliedUpdate => false,
        };
        let metric_stale = if policy::metric_uses_tracker(self.cfg.staleness) {
            self.tracker.is_stale(obj)
        } else {
            ma_stale
        };
        let queue_has_newer = self
            .uq
            .newest_for(obj)
            .is_some_and(|u| u.generation_ts > self.store.view(obj).generation_ts);
        let sys_stale = policy::system_stale(self.cfg.staleness, ma_stale, queue_has_newer);
        let rt = Self::running(&mut self.running, now, "view-read finalisation");
        let arrival = rt.txn.spec().arrival;
        if metric_stale {
            rt.txn.mark_stale_read();
        }
        self.metrics.view_read(arrival, metric_stale);
        if self.cfg.abort_on_stale && sys_stale {
            let rt = Self::take_running(&mut self.running, now, "abort-on-stale");
            self.metrics
                .txn_aborted_at(&rt.txn, AbortReason::StaleRead, now);
            self.emit_abort(now, &rt.txn, TraceAbort::StaleRead);
            return;
        }
        self.continue_txn(now);
    }

    /// Starts the next planned segment, or commits if the plan is complete.
    fn continue_txn(&mut self, now: SimTime) {
        let rt = Self::running(&mut self.running, now, "transaction continuation");
        if rt.txn.finished() {
            let rt = Self::take_running(&mut self.running, now, "commit");
            debug_assert!(
                now <= rt.txn.deadline() + 1e-9,
                "commit after deadline should have been cut off by the watchdog"
            );
            self.metrics.txn_committed(&rt.txn, now);
            self.emit(now, TraceKind::Commit { txn: rt.txn.id() });
            return;
        }
        self.chain(TxnSliceKind::Segment, now, "transaction continuation");
    }

    // ---- derived-view DAG (extension) ---------------------------------------

    /// Records the DAG's post-change backlog and transitive staleness.
    fn observe_dag(&mut self, now: SimTime) {
        if let Some(state) = self.dag_state.as_ref() {
            self.metrics.observe_dag_pending(state.pending_len());
            if let Some(ds) = self.derived_stale.as_mut() {
                ds.observe(now, state.stale_count());
            }
        }
    }

    /// A base install landed: enqueue typed deltas for every DAG dependent
    /// and account the transitive-staleness change.
    fn propagate_base_install(&mut self, update: &Update, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        state.on_base_install(dag, update.object, update.payload, now);
        self.observe_dag(now);
    }

    /// A background delta-application slice completed: recompute the node,
    /// cascade on change, account the outcome.
    fn dag_apply(&mut self, node: u32, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        if let Some(r) = state.apply(dag, &self.store, node, now) {
            self.metrics.dag_delta_applied(now, r.lag);
        }
        self.observe_dag(now);
    }

    /// CPU seconds a recursive on-demand refresh of `node` costs: one
    /// recompute per stale ancestor, at `edge_cost_instr` per input edge.
    fn dag_refresh_work(&self, node: u32) -> f64 {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_ref()) else {
            return 0.0;
        };
        let per_edge = self.cfg.dag.map_or(0.0, |s| s.edge_cost_instr);
        let instr: f64 = state
            .stale_closure(dag, node)
            .iter()
            .map(|&n| per_edge * dag.inputs(n).len() as f64)
            .sum();
        self.costs.secs(instr)
    }

    /// Applies the stale ancestor closure of `node` in topological order —
    /// the recursive on-demand refresh performed before a derived read is
    /// answered. Cascades that leave the ancestor cone stay pending for
    /// background propagation (the refresh repairs the read, not the
    /// world).
    fn perform_dag_refresh(&mut self, node: u32, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        self.metrics.dag_od_refresh(now);
        for n in state.stale_closure(dag, node) {
            // Transitively stale ancestors may have nothing pending yet;
            // apply() is a no-op for them unless an in-cone cascade (from a
            // lower closure member, already applied — ascending order)
            // queued one.
            if let Some(r) = state.apply(dag, &self.store, n, now) {
                self.metrics.dag_delta_applied(now, r.lag);
            }
        }
        self.observe_dag(now);
    }

    fn node_stale(&self, node: u32) -> bool {
        self.dag_state.as_ref().is_some_and(|s| s.is_stale(node))
    }

    /// A derived-node read finished its lookup: under OD a stale node is
    /// recursively refreshed along the DAG before the read is answered
    /// (the generalisation of §4.4 to multi-level views; the refresh
    /// decision lives in the policy module).
    fn handle_derived_read(&mut self, node: u32, now: SimTime) {
        if policy::dag_refresh(self.cfg.policy, self.node_stale(node)) {
            let remaining = self.dag_refresh_work(node);
            if remaining > 0.0 {
                self.chain(
                    TxnSliceKind::DagRefresh { node, remaining },
                    now,
                    "derived-read refresh decision",
                );
                return;
            }
            self.perform_dag_refresh(node, now);
        }
        self.finalize_derived_read(node, now);
    }

    /// Concludes a derived-node read: record (transitive) staleness and
    /// continue. Derived staleness is advisory — like the paper's fold
    /// metrics it is reported, not aborted on.
    fn finalize_derived_read(&mut self, node: u32, now: SimTime) {
        let stale = self.node_stale(node);
        let arrival = Self::running(&mut self.running, now, "derived-read finalisation")
            .txn
            .spec()
            .arrival;
        self.metrics.derived_read(arrival, stale);
        self.continue_txn(now);
    }

    /// Answers a monitoring-plane read of one derived node: no CPU is
    /// modelled, but the refresh decision is the one a transaction's
    /// derived read gets, so under OD the answer reflects a freshly
    /// recomputed ancestor cone. `None` without a DAG or for a node out of
    /// range.
    pub fn read_derived(&mut self, node: u32, now: SimTime) -> Option<DerivedAnswer> {
        if self.dag.as_ref().is_none_or(|d| (node as usize) >= d.len()) {
            return None;
        }
        let refreshed = policy::dag_refresh(self.cfg.policy, self.node_stale(node));
        if refreshed {
            self.perform_dag_refresh(node, now);
        }
        let stale = self.node_stale(node);
        self.metrics.derived_read(now, stale);
        Some(DerivedAnswer {
            value: self.dag_state.as_ref().map_or(f64::NAN, |s| s.value(node)),
            stale,
            refreshed,
        })
    }
}
