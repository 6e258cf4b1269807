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
//! [`Scheduler::on_update`] (or a block of arrivals at one instant,
//! [`Scheduler::on_updates`]), [`Scheduler::on_txn`],
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
//! MA-expiry watch a `finish` returns, delivering it to `on_expiry` at or
//! after its instant (the object goes stale when it is delivered). An
//! arrival that wants the slice that is out cut short says so
//! with a [`Preempt`] verdict — [`Scheduler::on_update`], `on_updates` and
//! [`Scheduler::on_txn`] return the same `Option<Preempt>` — and the driver
//! hands that verdict back through [`Scheduler::preempt`], which cuts the
//! slice and does the bookkeeping the verdict implies. A driver never
//! needs to know which kind it was given, so every driver honours both. A
//! deadline is the driver's own timer: it [`Scheduler::interrupt`]s a slice
//! of the transaction that is due, then calls [`Scheduler::on_deadline`].
//!
//! Update work is never cut short (§4.2), so a driver that lets no input
//! in between may hand a stretch of it back in one call:
//! [`Scheduler::run_updates`] finishes the update slice that is out and
//! every update slice that follows it back to back, each at the instant
//! the one before it ended plus its length — what `finish` then
//! `next_slice` at that instant would do, bit for bit, counters, busy
//! time and trace records included. It stops before a slice that would
//! end past the driver's `until`, before a transaction slice (both are
//! then out), when the CPU falls idle, or after `max` slices with nothing
//! out; every watch it arms goes to the driver's `arm` as it is armed. A
//! run changes no decision, only how many calls a driver makes for it.
//!
//! The same holds for configuration: whatever `SimConfig::validate`
//! accepts, every driver runs. Value-density preemption, historical
//! views, rules and the disk model are state and decisions in here, and
//! a slice's modelled I/O stall is one more cost a driver lets pass like
//! any other.

// D8 (DESIGN.md §11): the executor thread runs this core, and it handles
// the bound transaction by value, so no site is allowed a panic.
#![forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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

use crate::config::{HistoryAccess, IoModel, SimConfig};
use crate::metrics::{AbortReason, Activity, InstallPath, Metrics, QueueDrops};
use crate::policy::{self, ArrivalRoute, ReadCheck, ServiceOrder, WorkState};
use crate::ready::ReadyQueue;
use crate::report::{ResilienceStats, RunReport};
use crate::sources::UpdateSpec;
use crate::txn::{Segment, Transaction, TxnSpec};

/// What kind of transaction-attributed CPU slice is running, with what
/// the slice carries.
#[derive(Debug)]
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
    /// Applying an on-demand update taken from the queue (OD). The update
    /// travels in the slice until it is installed, or until the
    /// transaction is dropped and [`Scheduler::release`] puts it back.
    OdApply { update: Update, remaining: f64 },
    /// Waiting out a buffer-pool miss on a view read (disk extension).
    IoStall { obj: ViewObjectId, remaining: f64 },
    /// Recursively refreshing the stale ancestors of a derived node before
    /// its read is answered (OD generalised to the view DAG).
    DagRefresh { node: u32, remaining: f64 },
}

impl TxnSliceKind {
    /// Seconds left in an injected slice; `None` for a plan segment, whose
    /// remainder the transaction itself tracks.
    #[inline]
    fn remaining_mut(&mut self) -> Option<&mut f64> {
        match self {
            TxnSliceKind::Segment => None,
            TxnSliceKind::StaleScan { remaining, .. }
            | TxnSliceKind::OdApply { remaining, .. }
            | TxnSliceKind::IoStall { remaining, .. }
            | TxnSliceKind::DagRefresh { remaining, .. } => Some(remaining),
        }
    }
}

/// The work of one CPU slice (see [`Scheduler::next_slice`]).
#[derive(Debug)]
enum Work {
    /// A slice of the bound transaction, which the slice owns while it is
    /// out; what the slice does is the transaction's `slice`.
    Txn(Box<RunningTxn>),
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
    /// The exported job kind of the slice.
    #[inline]
    fn job(&self) -> TraceJob {
        match self {
            Work::Txn(rt) => match rt.slice {
                TxnSliceKind::Segment => TraceJob::Segment,
                TxnSliceKind::StaleScan { .. } => TraceJob::StaleScan,
                TxnSliceKind::OdApply { .. } => TraceJob::OdApply,
                TxnSliceKind::IoStall { .. } => TraceJob::IoStall,
                TxnSliceKind::DagRefresh { .. } => TraceJob::DagRefresh,
            },
            Work::Install { .. } => TraceJob::Install,
            Work::QueueTransfer => TraceJob::QueueTransfer,
            Work::RuleExec { .. } => TraceJob::RuleExec,
            Work::DagApply { .. } => TraceJob::DagApply,
        }
    }

    /// Which side of the CPU split the slice is charged to. Queue scans,
    /// on-demand installs and on-demand DAG refreshes are update work (the
    /// paper counts OD's on-demand installs in ρu — Figure 3b).
    #[inline]
    fn activity(&self) -> Activity {
        match self.job() {
            TraceJob::Segment | TraceJob::IoStall => Activity::Txn,
            _ => Activity::Update,
        }
    }

    /// The exported (track, job-kind) pair of the slice.
    #[inline]
    fn trace_job(&self) -> (TraceTrack, TraceJob) {
        let track = match self.activity() {
            Activity::Txn => TraceTrack::Txn,
            Activity::Update => TraceTrack::Update,
        };
        (track, self.job())
    }
}

/// The transaction bound to the CPU (possibly preempted), with its slice.
#[derive(Debug)]
struct RunningTxn {
    txn: Transaction,
    /// Kind of the slice in progress or to resume.
    slice: TxnSliceKind,
}

/// Historical views (extension): the version chains, the access pattern
/// and the RNG deciding which reads are as-of reads.
#[derive(Debug)]
struct History {
    store: HistoryStore,
    access: HistoryAccess,
    rng: Xoshiro256pp,
}

/// Update-triggered rules (extension). `pending` maps a pending rule to
/// the set of distinct sources that changed since it was queued — the
/// delta-scaled execution charge depends on it.
#[derive(Debug)]
struct Rules {
    set: RuleSet,
    queue: VecDeque<(u32, SimTime)>,
    pending: BTreeMap<u32, BTreeSet<ViewObjectId>>,
    max_pending: usize,
}

/// Derived-view DAG (extension): topology, maintenance state, the
/// transitive-staleness observer and the recompute cost per input edge.
#[derive(Debug)]
struct Dag {
    dag: ViewDag,
    state: DagState,
    stale: DerivedStaleness,
    edge_cost_instr: f64,
}

impl Dag {
    /// Records the post-change backlog and transitive staleness.
    #[inline]
    fn observe(&mut self, metrics: &mut Metrics, now: SimTime) {
        metrics.observe_dag_pending(self.state.pending_len());
        self.stale.observe(now, self.state.stale_count());
    }
}

/// Buffer-pool model (disk extension) and the RNG drawing its misses.
#[derive(Debug)]
struct Disk {
    model: IoModel,
    rng: Xoshiro256pp,
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

/// The CPU seconds of the two parts of an install (§5.3), priced once per
/// run rather than divided out per install.
#[derive(Debug, Clone, Copy)]
struct InstallCosts {
    lookup: f64,
    write: f64,
}

impl InstallCosts {
    #[inline]
    fn of(costs: &CostModel) -> Self {
        InstallCosts {
            lookup: costs.lookup_time(),
            write: costs.update_write_time(),
        }
    }
}

/// How a [`Scheduler::run_updates`] call ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateRun {
    /// The instant the last slice finished ended at; the `at` passed in
    /// when none finished.
    pub at: SimTime,
    /// Update slices finished, at most the `max` passed in.
    pub finished: u32,
    /// The length of the slice out after the run, which started at `at`:
    /// a transaction slice, or update work that would end past `until`.
    /// `None` when nothing is out — the CPU fell idle, or `max` slices
    /// finished (`finished == max`) and the driver asks for the next one.
    pub next: Option<f64>,
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
#[inline]
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
    /// The bound transaction while it is off the CPU (preempted, or its
    /// next slice chained). While a slice of it is out, that slice owns it
    /// ([`Work::Txn`]) and this is `None`.
    running: Option<Box<RunningTxn>>,
    /// The slice out with the driver — or, at the end of a run, the update
    /// work that was cut and so is still in flight.
    on_cpu: Option<Work>,
    /// The update a [`Work::Install`] slice is installing. It is kept
    /// beside the enum, not inside it: a variant that carries the 48-byte
    /// update is assembled on the stack and copied into place from an
    /// odd offset, and that copy stalls on store forwarding — about
    /// 7 ns of a 165 ns back-to-back install. For the same reason a
    /// transaction slice holds its transaction boxed: `Option<Work>` stays
    /// at 24 bytes (pinned by a unit test).
    installing: Option<Update>,
    /// The bound transaction's next slice follows the one just finished
    /// with no scheduling point in between.
    chained: bool,
    /// When the slice in `on_cpu` started.
    slice_started: SimTime,
    metrics: Metrics,
    update_seq: u64,
    /// `2·x_switch` owed by the next update slice after a preemption.
    pending_preempt_cost: f64,
    /// The extensions, each `None` when it is off.
    history: Option<History>,
    rules: Option<Rules>,
    dag: Option<Dag>,
    disk: Option<Disk>,
    /// Per-object view-read counts, feeding the HotFirst discipline
    /// (a row per object at its slot).
    read_counts: Vec<u64>,
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
    #[inline]
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
        // Each extension's RNG sub-stream is derived from the run seed
        // only when it is on; deriving one draws nothing from the root.
        // Derived state is computed from the store image, so a recovered
        // store yields exactly the derived values a full recompute implies.
        let dag = cfg.dag.map(|spec| {
            let dag = generate_dag(&spec, cfg.n_low, cfg.n_high, &mut root.substream(0xDA6));
            Dag {
                state: DagState::new(&dag, &store, spec.max_pending),
                stale: DerivedStaleness::new(dag.len(), SimTime::ZERO),
                edge_cost_instr: spec.edge_cost_instr,
                dag,
            }
        });
        Scheduler {
            costs: cfg.costs,
            alpha: cfg.staleness.alpha(),
            store,
            tracker,
            os_queue: OsQueue::new(cfg.os_max),
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
            metrics,
            update_seq,
            pending_preempt_cost: 0.0,
            history: cfg.history.map(|access| History {
                store: HistoryStore::new(access.policy, cfg.n_low, cfg.n_high),
                access,
                rng: root.substream(0x415),
            }),
            rules: cfg.triggers.map(|t| Rules {
                set: generate_rules(
                    t.n_rules,
                    t.sources_per_rule,
                    t.exec_instr,
                    cfg.n_low,
                    cfg.n_high,
                    cfg.n_general,
                    &mut root.substream(0x712),
                ),
                queue: VecDeque::new(),
                pending: BTreeMap::new(),
                max_pending: t.max_pending,
            }),
            dag,
            disk: cfg.io.map(|model| Disk {
                model,
                rng: root.substream(0xD15C),
            }),
            read_counts: vec![0; ViewObjectId::slots(cfg.n_low, cfg.n_high)],
            trace: None,
            cfg,
        }
    }

    // ---- read-only views ----------------------------------------------------

    /// The configuration the core was built for.
    #[inline]
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read-only access to the store.
    #[inline]
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Read-only access to the staleness tracker.
    #[inline]
    #[must_use]
    pub fn tracker(&self) -> &StalenessTracker {
        &self.tracker
    }

    /// Read-only access to the metrics collected so far.
    #[inline]
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The sequence number the next accepted update will carry.
    #[inline]
    #[must_use]
    pub fn update_seq(&self) -> u64 {
        self.update_seq
    }

    /// The bound transaction with its slice, on the CPU or off it.
    #[inline]
    fn bound(&self) -> Option<&RunningTxn> {
        match &self.on_cpu {
            Some(Work::Txn(rt)) => Some(rt),
            _ => self.running.as_deref(),
        }
    }

    /// The transaction bound to the CPU (running or preempted), if any.
    #[inline]
    #[must_use]
    pub fn bound_txn(&self) -> Option<&Transaction> {
        self.bound().map(|rt| &rt.txn)
    }

    /// The bound transaction, when it is a slice of it that is out — the
    /// only kind of slice an arrival or a deadline may cut short (installs
    /// are not preempted, §4.2).
    #[inline]
    #[must_use]
    pub fn txn_on_cpu(&self) -> Option<&Transaction> {
        match &self.on_cpu {
            Some(Work::Txn(rt)) => Some(&rt.txn),
            _ => None,
        }
    }

    // ---- tracing (strip-obs) ------------------------------------------------

    /// Installs a flight recorder; subsequent scheduling points are
    /// recorded into it. Tracing is observation-only: it must not (and by
    /// construction cannot) change the schedule.
    #[inline]
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        let policy = self.cfg.policy.label();
        self.trace = Some(Box::new(TraceSink::new(cfg, policy)));
    }

    /// Detaches the recorder and returns its capture; `None` when tracing
    /// was never enabled.
    #[inline]
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

    #[inline]
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

    /// The slice now in `on_cpu`, `secs` long, starts at `now`.
    #[inline]
    fn start_slice(&mut self, now: SimTime, secs: f64) {
        if let (Some(work), true) = (&self.on_cpu, self.trace.is_some()) {
            let (track, job) = work.trace_job();
            self.emit(now, TraceKind::SliceStart { track, job, secs });
        }
        self.slice_started = now;
    }

    /// Samples the gauge set into the trace when a sample is due. A driver
    /// calls this from an observation hook after each input, never from a
    /// scheduled event of its own, so a traced run takes exactly the same
    /// inputs as an untraced one.
    #[inline]
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
    #[inline]
    pub fn on_update(&mut self, spec: &UpdateSpec, now: SimTime) -> Option<Preempt> {
        debug_assert!(spec.arrival == now);
        let update = Update {
            seq: self.update_seq,
            object: spec.object,
            generation_ts: spec.generation_ts,
            arrival_ts: now,
            payload: spec.payload,
            attr_mask: spec.attr_mask,
        };
        self.note_arrivals(std::slice::from_ref(&update), now);
        // A full OS queue rejects the arrival (paper §3.3).
        self.os_queue.deliver(update);
        self.arrival_verdict()
    }

    /// A block of external updates arrives at `now`: each entry, in order,
    /// takes the next sequence number and arrival `now` and is accounted
    /// exactly as [`Scheduler::on_update`] accounts one arrival; then the
    /// OS queue takes the block whole, rejecting the entries past its
    /// capacity, and hands it back through [`Scheduler::take_spent`] once
    /// used up (an empty one at once). The entries are not written: the
    /// OS queue records the block's first sequence number and `now` once
    /// and stamps each entry as it is received, so an entry's own `seq`
    /// and `arrival_ts` are the caller's until then. Every entry must name
    /// an object of the store. Returns the verdict the block's first
    /// arrival would get from `on_update` (every later one gets the same).
    #[inline]
    pub fn on_updates(&mut self, block: Vec<Update>, now: SimTime) -> Option<Preempt> {
        let first_seq = self.update_seq;
        if block.is_empty() {
            self.os_queue.append(block, first_seq, now);
            return None;
        }
        self.note_arrivals(&block, now);
        self.os_queue.append(block, first_seq, now);
        self.arrival_verdict()
    }

    /// The blocks [`Scheduler::on_updates`] queued that the OS queue has
    /// used up, emptied with their capacity kept, in the order they were
    /// queued (see [`OsQueue::take_spent`]). A driver that never asks lets
    /// them pile up here.
    #[inline]
    pub fn take_spent(&mut self) -> std::vec::Drain<'_, Vec<Update>> {
        self.os_queue.take_spent()
    }

    /// Accounts the arrivals of `block` at `now`, whether or not the OS
    /// queue, which takes them next, keeps them, and takes their sequence
    /// numbers. What is the same for the whole block is done once: the
    /// sequence numbers, the measurement-window check and, since the OS
    /// queue only grows and the update queue stands still meanwhile, the
    /// high-water marks, taken at the final lengths. Only the tracker's
    /// receive (under UU) and a trace's queue depths are per entry, so
    /// without either the entries are not walked.
    #[inline]
    fn note_arrivals(&mut self, block: &[Update], now: SimTime) {
        let before = self.os_queue.len();
        let room = self.os_queue.capacity() - before;
        let kept = room.min(block.len());
        let uq = self.uq.len();
        if self.cfg.staleness.tracks_unapplied() || self.trace.is_some() {
            for (i, u) in block.iter().enumerate() {
                // The system has been handed this update: under UU the
                // object is now stale until a value at least this recent
                // is installed, whether or not the OS queue keeps the
                // message.
                self.tracker.on_receive(u.object, u.generation_ts, now);
                if self.trace.is_some() {
                    let os = (before + room.min(i + 1)) as u32;
                    self.emit(now, TraceKind::QueueDepth { os, uq: uq as u32 });
                }
            }
        }
        let n = block.len() as u64;
        self.update_seq += n;
        self.metrics.updates_arrived(now, n, n - kept as u64);
        self.metrics.observe_queue_lengths(before + kept, uq);
    }

    /// Whether an arrival preempts the transaction slice that is out.
    #[inline]
    fn arrival_verdict(&self) -> Option<Preempt> {
        (policy::preempts_on_arrival(self.cfg.policy) && self.txn_on_cpu().is_some())
            .then_some(Preempt::ByUpdate)
    }

    /// A transaction arrives (`spec.arrival` is `now`). Returns its firm
    /// deadline, at which the driver must call [`Scheduler::on_deadline`],
    /// and a verdict when it out-bids the transaction whose plan segment is
    /// out (the value-density preemption extension): the driver must hand
    /// it back through [`Scheduler::preempt`].
    #[inline]
    pub fn on_txn(&mut self, spec: TxnSpec, now: SimTime) -> (SimTime, Option<Preempt>) {
        debug_assert!(spec.arrival == now);
        self.metrics.txn_arrived(now, spec.class);
        let txn = Transaction::new(spec, self.cfg.p_view, &self.costs);
        let outbids = self.cfg.txn_preemption
            && matches!(&self.on_cpu, Some(Work::Txn(rt))
                if matches!(rt.slice, TxnSliceKind::Segment)
                    && txn.value_density() > rt.txn.value_density());
        let deadline = txn.deadline();
        self.ready.push(txn);
        (deadline, outbids.then_some(Preempt::ByTxn))
    }

    /// The firm-deadline watchdog of transaction `txn_id` fires: abort it
    /// wherever it is; a transaction that already finished is left alone.
    /// If a slice of that very transaction is out
    /// ([`Scheduler::txn_on_cpu`]), the driver must
    /// [`Scheduler::interrupt`] it first.
    #[inline]
    pub fn on_deadline(&mut self, txn_id: u64, now: SimTime) {
        debug_assert!(
            self.txn_on_cpu().is_none_or(|t| t.id() != txn_id),
            "the due transaction's slice is still out"
        );
        let txn = match self.running.take_if(|rt| rt.txn.id() == txn_id) {
            Some(rt) => Some(self.release(rt)),
            None => self.ready.remove(txn_id),
        };
        if let Some(txn) = txn {
            self.abort(&txn, AbortReason::MissedDeadline, now);
        }
    }

    /// An MA expiry watch of `object` is delivered at `now`, at or after
    /// its instant: the object is flagged stale if its installed value is
    /// α old by now. Otherwise a value installed since the watch was
    /// handed out supersedes it, and the answer is that value's later
    /// expiry (see [`StalenessTracker::on_expiry`]): a driver that keeps
    /// one watch per object re-keys it there, one that arms every watch
    /// has the later one armed already.
    #[inline]
    pub fn on_expiry(&mut self, object: ViewObjectId, now: SimTime) -> Option<SimTime> {
        self.tracker.on_expiry(object, now)
    }

    /// The metric warm-up window ends: measurement starts here.
    #[inline]
    pub fn on_warmup_end(&mut self, now: SimTime) {
        self.metrics.snapshot_warmup(&self.tracker, now);
    }

    /// The watchdogs of the values the store starts with.
    #[inline]
    #[must_use]
    pub fn initial_watches(&self) -> Vec<ExpiryWatch> {
        self.tracker.initial_watches()
    }

    // ---- slices -------------------------------------------------------------

    /// The main scheduling point: chooses the next CPU slice, taking every
    /// instant transition (free enqueues, infeasibility aborts) on the
    /// way. Returns the length in seconds of the slice it put on the CPU;
    /// `None` when there is nothing to run.
    #[inline]
    pub fn next_slice(&mut self, now: SimTime) -> Option<f64> {
        debug_assert!(self.on_cpu.is_none(), "a slice is already out");
        let secs = match self.chained_slice() {
            Some(secs) => secs,
            None => self.dispatch(now)?,
        };
        debug_assert!(secs >= 0.0);
        self.start_slice(now, secs);
        Some(secs)
    }

    /// The slice that is out ran its full length: charge it, perform its
    /// effect (install, commit, staleness verdict, …) and line up what
    /// follows. Returns the MA-expiry watch of the value it installed, if
    /// any: the driver must deliver it to [`Scheduler::on_expiry`] at or
    /// after its instant, the object going stale when it is delivered.
    #[inline]
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
                let update = self.installing.take()?;
                self.install(&update, path, superseded, now)
            }
            Work::QueueTransfer => None,
            Work::RuleExec { rule_id, fired_at } => {
                if let Some(rules) = self.rules.as_mut() {
                    rules.set.execute(rule_id, &mut self.store);
                    rules.pending.remove(&rule_id);
                }
                self.metrics.rule_executed(now, now.since(fired_at));
                None
            }
            Work::DagApply { node } => {
                self.dag_apply(node, now);
                None
            }
            Work::Txn(rt) => self.on_txn_slice_done(rt, now),
        }
    }

    /// Finishes the update slice that is out, started at `at` and `secs`
    /// long, and every update slice that follows it back to back, each at
    /// the instant the one before it ended plus its length: the sequence
    /// of `finish` and `next_slice` calls a driver would make, with the
    /// same effects and watches. Stops before a slice that would end past
    /// `until` or a transaction slice, leaving it out; when the CPU falls
    /// idle; or after `max` finished slices, with nothing out (see
    /// [`UpdateRun`]). Every watch a finished slice arms goes to `arm`.
    ///
    /// While the policy receives every arrival straight into an install
    /// (UF, §4.1), the slice that follows an update slice is the install
    /// of the OS queue's next arrival — what `next_slice` would choose
    /// there — and the run puts it on, prices it and finishes it itself,
    /// the update in a local, through the same pricing and install effect
    /// `next_slice` and `finish` use.
    #[inline]
    pub fn run_updates(
        &mut self,
        mut at: SimTime,
        mut secs: f64,
        until: SimTime,
        max: u32,
        mut arm: impl FnMut(ExpiryWatch),
    ) -> UpdateRun {
        debug_assert!(self.on_cpu.is_some() && self.slice_started == at);
        let immediate = !self.cfg.policy.uses_update_queue();
        let costs = InstallCosts::of(&self.costs);
        let traced = self.trace.is_some();
        let mut finished = 0;
        let next = 'run: loop {
            // The slice out is in `on_cpu`.
            if finished == max || matches!(self.on_cpu, Some(Work::Txn(_))) || at + secs > until {
                break Some(secs);
            }
            at += secs;
            if let Some(watch) = self.finish(at) {
                arm(watch);
            }
            finished += 1;
            while immediate && finished < max {
                let Some(update) = self.os_queue.receive() else {
                    break;
                };
                let (secs, superseded) = self.price_install(costs, &update, 0.0, at);
                let path = InstallPath::Immediate;
                if at + secs > until {
                    self.put_install(update, path, superseded);
                    self.start_slice(at, secs);
                    break 'run Some(secs);
                }
                let started = at;
                at += secs;
                if traced {
                    let (track, job, interrupted) = (TraceTrack::Update, TraceJob::Install, false);
                    self.emit(started, TraceKind::SliceStart { track, job, secs });
                    self.emit(
                        at,
                        TraceKind::SliceEnd {
                            track,
                            job,
                            interrupted,
                        },
                    );
                }
                self.metrics.charge_busy(Activity::Update, started, at);
                if let Some(watch) = self.install(&update, path, superseded, at) {
                    arm(watch);
                }
                finished += 1;
            }
            if finished == max {
                break None;
            }
            let Some(next) = self.next_slice(at) else {
                break None;
            };
            secs = next;
        };
        UpdateRun { at, finished, next }
    }

    /// The slice that is out was cut after `performed_secs` of its length
    /// (a deadline, the end of the run; a preemption goes through
    /// [`Scheduler::preempt`]): charge it and keep
    /// a transaction slice's partial progress. Update work is not
    /// resumable — installs are never preempted (§4.2) — so a driver only
    /// cuts it when the run ends; it then stays on the CPU, and
    /// [`Scheduler::report`] counts it as in flight.
    #[inline]
    pub fn interrupt(&mut self, performed_secs: f64, now: SimTime) {
        let Some(work) = self.on_cpu.take() else {
            debug_assert!(false, "interrupt without a slice out");
            return;
        };
        self.metrics
            .charge_busy(work.activity(), self.slice_started, now);
        self.emit_slice_end(now, &work, true);
        match work {
            Work::Txn(mut rt) => {
                match rt.slice.remaining_mut() {
                    None => rt.txn.consume(performed_secs),
                    Some(remaining) => *remaining = (*remaining - performed_secs).max(0.0),
                }
                self.running = Some(rt);
            }
            work => self.on_cpu = Some(work),
        }
    }

    /// The driver cut the slice that is out, after `performed_secs` of its
    /// length, on the verdict an arrival returned: [`Scheduler::interrupt`]
    /// plus what the verdict implies for the transaction that lost the CPU.
    #[inline]
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
                    let txn = self.release(rt);
                    // No switch cost is modelled between transactions.
                    let (id, cost_secs) = (txn.id(), 0.0);
                    self.emit(now, TraceKind::Preempt { txn: id, cost_secs });
                    self.ready.push(txn);
                }
            }
        }
    }

    // ---- reports ------------------------------------------------------------

    /// Queue/CPU occupancy at this instant, for the report's conservation
    /// identity (`terminal_total == arrived`).
    #[inline]
    #[must_use]
    pub fn queue_drops(&self) -> QueueDrops {
        let on_cpu = u64::from(self.installing.is_some());
        let pending_od = self.bound().map_or(0, |rt| {
            u64::from(matches!(rt.slice, TxnSliceKind::OdApply { .. }))
        });
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
    #[inline]
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
        if let Some(h) = self.history.as_ref() {
            let entries = h.store.total_entries() as u64;
            m.history_store_totals(h.store.appends(), h.store.pruned(), entries);
        }
        if let Some(rules) = self.rules.as_ref() {
            let on_cpu = u64::from(matches!(self.on_cpu, Some(Work::RuleExec { .. })));
            m.rules_pending_at_end(rules.queue.len() as u64 + on_cpu);
        }
        // A DagApply slice that was cut never removed its entry from the
        // pending map, so the map alone is the pending bucket.
        if let Some(d) = self.dag.as_ref() {
            let pending = d.state.pending_len() as u64;
            m.dag_totals(d.state.stats, pending, d.stale.fold(now));
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
    #[inline]
    fn io_penalty(&mut self, now: SimTime, on_install: bool) -> f64 {
        let Some(disk) = self.disk.as_mut() else {
            return 0.0;
        };
        if disk.rng.chance(disk.model.hit_ratio) {
            return 0.0;
        }
        self.metrics.io_miss(now, on_install);
        self.costs.secs(disk.model.x_io)
    }

    /// Puts the install slice for `update` on the CPU. `path` records how the install was
    /// triggered; `extra` is additional CPU owed by this slice (queue
    /// dequeue cost).
    #[inline]
    fn install_slice(
        &mut self,
        now: SimTime,
        update: Update,
        path: InstallPath,
        extra: f64,
    ) -> UpdateStep {
        let costs = InstallCosts::of(&self.costs);
        let (secs, superseded) = self.price_install(costs, &update, extra, now);
        self.put_install(update, path, superseded);
        UpdateStep::Slice(secs)
    }

    /// The install of `update` starting at `now`: its length in seconds,
    /// `extra` included, and whether the lookup will find it superseded.
    #[inline]
    fn price_install(
        &mut self,
        costs: InstallCosts,
        update: &Update,
        extra: f64,
        now: SimTime,
    ) -> (f64, bool) {
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
            costs.lookup
        } else {
            // A partial update writes only its covered attributes, so its
            // write cost scales with the fraction provided. A whole one
            // skips the count and the division, the dearest steps of the
            // pricing: the quotient would be exactly 1.
            let attrs = self.cfg.attrs_per_object.max(1);
            let frac = if update.provides_all(attrs) {
                1.0
            } else {
                f64::from(update.provided_attrs(attrs)) / f64::from(attrs)
            };
            costs.lookup + costs.write * frac
        };
        let io = self.io_penalty(now, true);
        (work + extra + io + self.take_preempt_cost(), superseded)
    }

    /// Makes the install of `update` the slice that is out.
    #[inline]
    fn put_install(&mut self, update: Update, path: InstallPath, superseded: bool) {
        self.installing = Some(update);
        self.on_cpu = Some(Work::Install { path, superseded });
    }

    #[inline]
    fn take_preempt_cost(&mut self) -> f64 {
        std::mem::take(&mut self.pending_preempt_cost)
    }

    /// The effect of an install that ran its full length, whichever path
    /// ran it: unless the lookup found it `superseded`, the update goes
    /// into the store, the staleness tracker and the extensions that
    /// watch installs; then it is counted. Returns the MA-expiry watch of
    /// the value installed, for the driver to arm.
    #[inline]
    fn install(
        &mut self,
        update: &Update,
        path: InstallPath,
        superseded: bool,
        now: SimTime,
    ) -> Option<ExpiryWatch> {
        let outcome = if superseded {
            InstallOutcome::Superseded
        } else {
            self.store.install(update)
        };
        let (applied, watch) = match outcome {
            InstallOutcome::Installed {
                new_version,
                min_generation,
            } => {
                // The MA-relevant generation is the object's oldest
                // attribute after the write (equals the update's generation
                // for complete updates on single-attribute objects).
                let watch =
                    self.tracker
                        .on_install(update.object, min_generation, new_version, now);
                if let Some(h) = self.history.as_mut() {
                    h.store
                        .record(update.object, update.generation_ts, update.payload);
                }
                // Checked here too: the calls are out of line, and an
                // install with no rules or DAG should not pay for them.
                if self.rules.is_some() {
                    self.fire_rules(update.object, now);
                }
                if self.dag.is_some() {
                    self.propagate_base_install(update, now);
                }
                (true, watch)
            }
            InstallOutcome::Superseded => (false, None),
        };
        if applied {
            self.metrics.update_installed(now, path);
        } else {
            self.metrics.update_superseded(now);
        }
        if self.trace.is_some() {
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
        watch
    }

    // ---- dispatch -----------------------------------------------------------

    /// The observable scheduler state the pure policy functions decide on.
    #[inline]
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
    #[inline]
    fn chained_slice(&mut self) -> Option<f64> {
        if !std::mem::take(&mut self.chained) {
            return None;
        }
        // `None`: a deadline that fired between the two slices unbound it.
        let rt = self.running.take()?;
        Some(self.put_on_cpu(rt))
    }

    /// Puts a slice of the bound transaction on the CPU; the slice owns
    /// the transaction until it ends.
    #[inline]
    fn put_on_cpu(&mut self, mut rt: Box<RunningTxn>) -> f64 {
        let secs = rt
            .slice
            .remaining_mut()
            .map_or(rt.txn.segment_remaining(), |r| *r);
        self.on_cpu = Some(Work::Txn(rt));
        secs
    }

    /// Chooses the next CPU slice at a scheduling point.
    #[inline]
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
            let bound = match self.running.take() {
                Some(rt) => Some(rt),
                None => {
                    if self.cfg.feasible_deadline {
                        for t in self.ready.drain_infeasible(now) {
                            self.abort(&t, AbortReason::Infeasible, now);
                        }
                    }
                    self.ready.pop_best().map(|txn| {
                        let slice = TxnSliceKind::Segment;
                        Box::new(RunningTxn { txn, slice })
                    })
                }
            };
            if let Some(rt) = bound {
                match self.resume_running(rt, now) {
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

    /// Counts and traces the abort of a transaction no longer bound.
    #[inline]
    fn abort(&mut self, txn: &Transaction, reason: AbortReason, now: SimTime) {
        self.metrics.txn_aborted_at(txn, reason, now);
        let reason = match reason {
            AbortReason::MissedDeadline => TraceAbort::MissedDeadline,
            AbortReason::Infeasible => TraceAbort::Infeasible,
            AbortReason::StaleRead => TraceAbort::StaleRead,
        };
        let txn = txn.id();
        self.emit(now, TraceKind::Abort { txn, reason });
    }

    /// Unbinds `rt` for good: every path that commits, aborts or requeues
    /// the bound transaction goes through here. An on-demand update its
    /// slice took from the update queue goes back there, uninstalled and
    /// uncharged; from then on the queue's own expiry, dedup and overflow
    /// shedding account for it.
    #[inline]
    fn release(&mut self, rt: Box<RunningTxn>) -> Transaction {
        let RunningTxn { txn, slice } = *rt;
        match slice {
            TxnSliceKind::OdApply { update, .. } => _ = self.uq.insert(update),
            TxnSliceKind::Segment
            | TxnSliceKind::StaleScan { .. }
            | TxnSliceKind::IoStall { .. }
            | TxnSliceKind::DagRefresh { .. } => {}
        }
        txn
    }

    /// Puts the bound transaction's current slice on the CPU at a
    /// scheduling point; `None` if it was aborted instead (infeasible).
    #[inline]
    fn resume_running(&mut self, rt: Box<RunningTxn>, now: SimTime) -> Option<f64> {
        if self.cfg.feasible_deadline
            && matches!(rt.slice, TxnSliceKind::Segment)
            && !rt.txn.feasible_at(now)
        {
            let txn = self.release(rt);
            self.abort(&txn, AbortReason::Infeasible, now);
            return None;
        }
        Some(self.put_on_cpu(rt))
    }

    /// Fires every rule watching `object` (triggers extension), coalescing
    /// rules that are already pending and bounding the pending queue.
    #[inline]
    fn fire_rules(&mut self, object: ViewObjectId, now: SimTime) {
        let Some(rules) = self.rules.as_mut() else {
            return;
        };
        for &id in rules.set.triggered_by(object) {
            if let Some(changed) = rules.pending.get_mut(&id) {
                changed.insert(object);
                self.metrics.rule_fired(now, true, false);
            } else if rules.queue.len() >= rules.max_pending {
                self.metrics.rule_fired(now, false, true);
            } else {
                rules.pending.insert(id, std::iter::once(object).collect());
                rules.queue.push_back((id, now));
                self.metrics.rule_fired(now, false, false);
            }
        }
        self.metrics.observe_rule_queue(rules.queue.len());
    }

    /// A rule-execution slice if a firing is pending; otherwise falls
    /// through to DAG delta propagation.
    #[inline]
    fn try_rule_step(&mut self) -> UpdateStep {
        // Delta-scaled charge (see `RuleSet::exec_cost`): a coalesced
        // execution recomputes only its changed sources' share of the
        // refresh, not the whole rule every time.
        let next = self.rules.as_mut().and_then(|r| {
            let (rule_id, fired_at) = r.queue.pop_front()?;
            let changed = r.pending.get(&rule_id).map_or(0, BTreeSet::len);
            Some((rule_id, fired_at, r.set.exec_cost(rule_id, changed)))
        });
        let Some((rule_id, fired_at, exec_instr)) = next else {
            return self.try_dag_step();
        };
        let duration = self.costs.secs(exec_instr) + self.take_preempt_cost();
        self.on_cpu = Some(Work::RuleExec { rule_id, fired_at });
        UpdateStep::Slice(duration)
    }

    /// A delta-application slice when the DAG has pending deltas: the
    /// rank-order drain always applies the lowest pending node id, which
    /// (ids being topological) is never waiting on a node below it.
    #[inline]
    fn try_dag_step(&mut self) -> UpdateStep {
        let next = self.dag.as_ref().and_then(|d| {
            let node = d.state.next_pending()?;
            Some((node, d.edge_cost_instr * d.dag.inputs(node).len() as f64))
        });
        let Some((node, instr)) = next else {
            return UpdateStep::Nothing;
        };
        let duration = self.costs.secs(instr) + self.take_preempt_cost();
        self.on_cpu = Some(Work::DagApply { node });
        UpdateStep::Slice(duration)
    }

    /// Performs one step of update work if any is available. With
    /// `receive_only` the step is limited to moving one OS-queue arrival to
    /// its destination (update queue, or an immediate install for classes
    /// that are applied on arrival); background installs from the update
    /// queue are excluded.
    #[inline]
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
                self.uq.pop_hottest(|id| counts[id.slot()])
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
    //
    // Each handler takes the bound transaction by value and ends by
    // chaining it, committing it, aborting it or handing it to the next.

    /// Lines up `kind` as the bound transaction's next slice, to start
    /// where the one just finished ends (no scheduling point in between).
    #[inline]
    fn chain(&mut self, mut rt: Box<RunningTxn>, kind: TxnSliceKind) {
        rt.slice = kind;
        self.running = Some(rt);
        self.chained = true;
    }

    /// A slice of the bound transaction ran its full length. Returns the
    /// watch of a value an on-demand install armed.
    #[inline]
    fn on_txn_slice_done(&mut self, mut rt: Box<RunningTxn>, now: SimTime) -> Option<ExpiryWatch> {
        match std::mem::replace(&mut rt.slice, TxnSliceKind::Segment) {
            TxnSliceKind::Segment => {
                let finished = rt.txn.complete_segment();
                rt.txn.arm_segment(&self.costs);
                match finished {
                    Segment::Work(_) => self.continue_txn(rt, now),
                    Segment::ReadDerived(node) => self.handle_derived_read(rt, node, now),
                    Segment::ReadView(obj) => {
                        self.read_counts[obj.slot()] += 1;
                        // Disk extension: the lookup may miss the buffer
                        // pool, stalling the transaction before the
                        // staleness check.
                        let remaining = self.io_penalty(now, false);
                        if remaining > 0.0 {
                            self.chain(rt, TxnSliceKind::IoStall { obj, remaining });
                        } else {
                            return self.handle_view_read(rt, obj, now);
                        }
                    }
                }
            }
            TxnSliceKind::StaleScan { obj, .. } => return self.handle_post_scan(rt, obj, now),
            TxnSliceKind::DagRefresh { node, .. } => {
                self.perform_dag_refresh(node, now);
                self.finalize_derived_read(rt, node, now);
            }
            TxnSliceKind::IoStall { obj, .. } => return self.handle_view_read(rt, obj, now),
            TxnSliceKind::OdApply { update, .. } => {
                let watch = self.install(&update, InstallPath::OnDemand, false, now);
                self.finalize_read(rt, update.object, now);
                return watch;
            }
        }
        None
    }

    /// A view-read lookup just completed: perform the staleness check
    /// (paper §3.4 step 2), possibly starting a queue scan.
    #[inline]
    fn handle_view_read(
        &mut self,
        rt: Box<RunningTxn>,
        obj: ViewObjectId,
        now: SimTime,
    ) -> Option<ExpiryWatch> {
        // Historical views (extension): some reads are as-of reads against
        // a past instant. The past is immutable, so they are never stale
        // and never trigger on-demand refreshes; they can *miss* when the
        // instant predates the retained window.
        if let Some(h) = self.history.as_mut() {
            let a = h.access;
            if a.p_historical_read > 0.0 && h.rng.chance(a.p_historical_read) {
                let lag = a.lag_min + (a.lag_max - a.lag_min) * h.rng.next_f64();
                let as_of = SimTime::from_secs(now.as_secs() - lag);
                let hit = h.store.value_as_of(obj, as_of).is_some();
                self.metrics.historical_read(rt.txn.spec().arrival, hit);
                self.continue_txn(rt, now);
                return None;
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
            ReadCheck::Scan => self.begin_scan(rt, obj, now),
            ReadCheck::Direct => {
                self.finalize_read(rt, obj, now);
                None
            }
        }
    }

    #[inline]
    fn begin_scan(
        &mut self,
        rt: Box<RunningTxn>,
        obj: ViewObjectId,
        now: SimTime,
    ) -> Option<ExpiryWatch> {
        let remaining = if self.cfg.indexed_queue {
            self.costs.indexed_probe_time()
        } else {
            self.costs.scan_time(self.uq.len())
        };
        if remaining > 0.0 {
            self.chain(rt, TxnSliceKind::StaleScan { obj, remaining });
            None
        } else {
            self.handle_post_scan(rt, obj, now)
        }
    }

    /// The queue scan finished: decide whether an on-demand install happens.
    #[inline]
    fn handle_post_scan(
        &mut self,
        mut rt: Box<RunningTxn>,
        obj: ViewObjectId,
        now: SimTime,
    ) -> Option<ExpiryWatch> {
        let queued_newest = self.uq.newest_for(obj).map(|u| u.generation_ts);
        let installed_gen = self.store.view(obj).generation_ts;
        let refresh = if policy::od_refresh(self.cfg.policy, queued_newest, installed_gen) {
            self.uq.take_newest_for(obj)
        } else {
            None
        };
        let Some(update) = refresh else {
            self.finalize_read(rt, obj, now);
            return None;
        };
        // Applying the found update costs x_update (the object is already
        // located by the read's lookup — §5.3).
        let remaining = self.costs.update_write_time();
        let apply = TxnSliceKind::OdApply { update, remaining };
        if remaining > 0.0 {
            self.chain(rt, apply);
            None
        } else {
            rt.slice = apply;
            self.on_txn_slice_done(rt, now)
        }
    }

    /// Concludes a view read: record staleness, possibly abort, continue.
    #[inline]
    fn finalize_read(&mut self, mut rt: Box<RunningTxn>, obj: ViewObjectId, now: SimTime) {
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
        if metric_stale {
            rt.txn.mark_stale_read();
        }
        self.metrics.view_read(rt.txn.spec().arrival, metric_stale);
        if self.cfg.abort_on_stale && sys_stale {
            let txn = self.release(rt);
            self.abort(&txn, AbortReason::StaleRead, now);
            return;
        }
        self.continue_txn(rt, now);
    }

    /// Starts the next planned segment, or commits if the plan is complete.
    #[inline]
    fn continue_txn(&mut self, rt: Box<RunningTxn>, now: SimTime) {
        if !rt.txn.finished() {
            self.chain(rt, TxnSliceKind::Segment);
            return;
        }
        let txn = self.release(rt);
        debug_assert!(
            now <= txn.deadline() + 1e-9,
            "commit after deadline should have been cut off by the watchdog"
        );
        self.metrics.txn_committed(&txn, now);
        self.emit(now, TraceKind::Commit { txn: txn.id() });
    }

    // ---- derived-view DAG (extension) ---------------------------------------

    /// A base install landed: enqueue typed deltas for every DAG dependent
    /// and account the transitive-staleness change.
    #[inline]
    fn propagate_base_install(&mut self, update: &Update, now: SimTime) {
        let Some(d) = self.dag.as_mut() else {
            return;
        };
        d.state
            .on_base_install(&d.dag, update.object, update.payload, now);
        d.observe(&mut self.metrics, now);
    }

    /// A background delta-application slice completed: recompute the node,
    /// cascade on change, account the outcome.
    #[inline]
    fn dag_apply(&mut self, node: u32, now: SimTime) {
        let Some(d) = self.dag.as_mut() else {
            return;
        };
        if let Some(r) = d.state.apply(&d.dag, &self.store, node, now) {
            self.metrics.dag_delta_applied(now, r.lag);
        }
        d.observe(&mut self.metrics, now);
    }

    /// CPU seconds a recursive on-demand refresh of `node` costs: one
    /// recompute per stale ancestor, at `edge_cost_instr` per input edge.
    #[inline]
    fn dag_refresh_work(&self, node: u32) -> f64 {
        let Some(d) = self.dag.as_ref() else {
            return 0.0;
        };
        let instr: f64 = d
            .state
            .stale_closure(&d.dag, node)
            .iter()
            .map(|&n| d.edge_cost_instr * d.dag.inputs(n).len() as f64)
            .sum();
        self.costs.secs(instr)
    }

    /// Applies the stale ancestor closure of `node` in topological order —
    /// the recursive on-demand refresh performed before a derived read is
    /// answered. Cascades that leave the ancestor cone stay pending for
    /// background propagation (the refresh repairs the read, not the
    /// world).
    #[inline]
    fn perform_dag_refresh(&mut self, node: u32, now: SimTime) {
        let Some(d) = self.dag.as_mut() else {
            return;
        };
        self.metrics.dag_od_refresh(now);
        for n in d.state.stale_closure(&d.dag, node) {
            // Transitively stale ancestors may have nothing pending yet;
            // apply() is a no-op for them unless an in-cone cascade (from a
            // lower closure member, already applied — ascending order)
            // queued one.
            if let Some(r) = d.state.apply(&d.dag, &self.store, n, now) {
                self.metrics.dag_delta_applied(now, r.lag);
            }
        }
        d.observe(&mut self.metrics, now);
    }

    #[inline]
    fn node_stale(&self, node: u32) -> bool {
        self.dag.as_ref().is_some_and(|d| d.state.is_stale(node))
    }

    /// A derived-node read finished its lookup: under OD a stale node is
    /// recursively refreshed along the DAG before the read is answered
    /// (the generalisation of §4.4 to multi-level views; the refresh
    /// decision lives in the policy module).
    #[inline]
    fn handle_derived_read(&mut self, rt: Box<RunningTxn>, node: u32, now: SimTime) {
        if policy::dag_refresh(self.cfg.policy, self.node_stale(node)) {
            let remaining = self.dag_refresh_work(node);
            if remaining > 0.0 {
                self.chain(rt, TxnSliceKind::DagRefresh { node, remaining });
                return;
            }
            self.perform_dag_refresh(node, now);
        }
        self.finalize_derived_read(rt, node, now);
    }

    /// Concludes a derived-node read: record (transitive) staleness and
    /// continue. Derived staleness is advisory — like the paper's fold
    /// metrics it is reported, not aborted on.
    #[inline]
    fn finalize_derived_read(&mut self, rt: Box<RunningTxn>, node: u32, now: SimTime) {
        let stale = self.node_stale(node);
        self.metrics.derived_read(rt.txn.spec().arrival, stale);
        self.continue_txn(rt, now);
    }

    /// Answers a monitoring-plane read of one derived node: no CPU is
    /// modelled, but the refresh decision is the one a transaction's
    /// derived read gets, so under OD the answer reflects a freshly
    /// recomputed ancestor cone. `None` without a DAG or for a node out of
    /// range.
    #[inline]
    pub fn read_derived(&mut self, node: u32, now: SimTime) -> Option<DerivedAnswer> {
        if self
            .dag
            .as_ref()
            .is_none_or(|d| (node as usize) >= d.dag.len())
        {
            return None;
        }
        let refreshed = policy::dag_refresh(self.cfg.policy, self.node_stale(node));
        if refreshed {
            self.perform_dag_refresh(node, now);
        }
        let stale = self.node_stale(node);
        self.metrics.derived_read(now, stale);
        Some(DerivedAnswer {
            value: self.dag.as_ref().map_or(f64::NAN, |d| d.state.value(node)),
            stale,
            refreshed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice is put on the CPU and taken off it at every scheduling
    /// point, and the install path does it back to back (see
    /// `Scheduler::installing`): a transaction slice carries its
    /// transaction boxed so the slot stays small.
    #[test]
    fn a_slice_stays_small() {
        let bytes = std::mem::size_of::<Option<Work>>();
        assert!(bytes <= 24, "Option<Work> is {bytes} bytes");
    }
}
