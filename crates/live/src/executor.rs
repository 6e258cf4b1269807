//! The wall-clock executor: the simulator's controller re-expressed
//! against real time.
//!
//! The executor owns the same substrate as `strip_core::controller` — the
//! [`Store`], the OS receive queue, the application-level update queue, the
//! ready queue, the [`StalenessTracker`] and the [`Metrics`] collector — and
//! makes every scheduling decision through the shared, clock-agnostic
//! [`strip_core::policy`] module. Where the simulator advances a virtual
//! clock between events, the executor *burns* each CPU slice by spinning on
//! the wall clock in quantum-sized chunks (see [`LiveConfig::quantum`]),
//! draining ingest and firing timers between chunks. Preemption under UF/SU
//! is therefore quantised: an arriving update interrupts a transaction at
//! the next chunk boundary rather than instantaneously (DESIGN.md §12
//! quantifies the approximation).
//!
//! Clock discipline: the executor keeps one reading, [`Executor::now`],
//! per scheduling point. A slice starts at the reading that ended the
//! previous scheduling point and ends at the reading
//! [`LiveClock::spin_until`] returned, so a back-to-back install costs one
//! clock read; the reading is refreshed after a poll that handled input,
//! after an idle wait, and after any run-loop pass that did not burn.
//!
//! The executor runs on one thread and is fed through an [`Ingest`]
//! channel; the TCP front end (`server`) and in-process tests use the same
//! channel type, so the scheduling core is exercised identically in both.

use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::time::Duration;

use strip_core::config::{Policy, QueuePolicy, SimConfig};
use strip_core::metrics::{AbortReason, Activity, InstallPath, Metrics, QueueDrops};
use strip_core::policy::{self, ArrivalRoute, ReadCheck, ServiceOrder, WorkState};
use strip_core::report::{ResilienceStats, RunReport};
use strip_core::stripe::{splitmix64, StripeMap};
use strip_core::txn::{Segment, Transaction, TxnSpec};
use strip_db::cost::CostModel;
use strip_db::dag::{generate_dag, DagState, ViewDag};
use strip_db::object::{Importance, ViewObjectId};
use strip_db::osqueue::OsQueue;
use strip_db::staleness::{DerivedStaleness, ExpiryWatch, StalenessSpec, StalenessTracker};
use strip_db::store::{InstallOutcome, Store};
use strip_db::update::Update;
use strip_db::update_queue::DualUpdateQueue;
use strip_sim::dist::{Distribution, Exponential};
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

use crate::clock::LiveClock;
use crate::protocol::{
    WireDerivedQuery, WireDerivedQueryResponse, WireQuery, WireQueryResponse, WireTxn, WireUpdate,
};
use crate::spsc;

/// `uu_stale` value in a [`WireQueryResponse`] for a query that named an
/// object outside the configured store (0 = fresh, 1 = stale).
pub const QUERY_NO_SUCH_OBJECT: u8 = 2;

/// `stale` value in a [`WireDerivedQueryResponse`] for a query against a
/// server with no DAG configured, or a node id out of range.
pub const DERIVED_NO_SUCH_NODE: u8 = 2;

/// Configuration of a live run: a plain [`SimConfig`] (the executor honours
/// the same policy, staleness, queue and cost parameters as the simulator)
/// plus the preemption quantum.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The substrate configuration shared with the simulator.
    pub sim: SimConfig,
    /// Chunk size, in seconds, in which CPU slices are burned. Ingest is
    /// drained and timers fire between chunks, so this bounds both the
    /// preemption latency under UF/SU and the deadline-detection error.
    pub quantum: f64,
    /// Crash durability (WAL + snapshots); `None` runs in-memory only,
    /// exactly as before the durability subsystem existed.
    pub durability: Option<crate::wal::DurabilityConfig>,
}

/// Reasons a [`SimConfig`] cannot drive the live executor.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveConfigError {
    /// A simulator-only extension was enabled; the live runtime supports
    /// the paper's core model (the four policies, both staleness criteria,
    /// queue bounds and shedding) but none of the named extension.
    Unsupported(&'static str),
    /// The quantum is not a positive number of seconds (or is implausibly
    /// large for a preemption quantum).
    BadQuantum(f64),
}

impl std::fmt::Display for LiveConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveConfigError::Unsupported(what) => {
                write!(f, "live runtime does not support the `{what}` extension")
            }
            LiveConfigError::BadQuantum(q) => {
                write!(
                    f,
                    "quantum must be in (0, {}] seconds, got {q}",
                    LiveConfig::MAX_QUANTUM
                )
            }
        }
    }
}

impl std::error::Error for LiveConfigError {}

impl LiveConfig {
    /// Default preemption quantum: 500 µs, well under every cost-model
    /// constant that matters (x_update = 400 µs is burned in one chunk;
    /// transaction segments of ~100 ms get ~200 scheduling points).
    pub const DEFAULT_QUANTUM: f64 = 500e-6;

    /// Upper bound accepted for the quantum (50 ms) — beyond this the
    /// "soft real-time" claim stops being credible.
    pub const MAX_QUANTUM: f64 = 0.05;

    /// Wraps `sim` with the default quantum.
    ///
    /// # Errors
    ///
    /// Returns [`LiveConfigError::Unsupported`] when a simulator-only
    /// extension is enabled (see [`LiveConfig::with_quantum`]).
    pub fn new(sim: SimConfig) -> Result<Self, LiveConfigError> {
        Self::with_quantum(sim, Self::DEFAULT_QUANTUM)
    }

    /// Wraps `sim` with an explicit quantum.
    ///
    /// # Errors
    ///
    /// Rejects configurations the live executor cannot honour: the
    /// historical-view store, trigger rules, the disk-I/O model, stream
    /// disturbance (that is the loadgen's job in live mode), admission
    /// control and value-density transaction preemption are simulator-only.
    pub fn with_quantum(sim: SimConfig, quantum: f64) -> Result<Self, LiveConfigError> {
        if sim.history.is_some() {
            return Err(LiveConfigError::Unsupported("history"));
        }
        if sim.triggers.is_some() {
            return Err(LiveConfigError::Unsupported("triggers"));
        }
        if sim.io.is_some() {
            return Err(LiveConfigError::Unsupported("io"));
        }
        if sim.disturbance.is_some() {
            return Err(LiveConfigError::Unsupported("disturbance"));
        }
        if sim.admission.is_some() {
            return Err(LiveConfigError::Unsupported("admission"));
        }
        if sim.txn_preemption {
            return Err(LiveConfigError::Unsupported("txn_preemption"));
        }
        if !quantum.is_finite() || quantum <= 0.0 || quantum > Self::MAX_QUANTUM {
            return Err(LiveConfigError::BadQuantum(quantum));
        }
        Ok(LiveConfig {
            sim,
            quantum,
            durability: None,
        })
    }

    /// Attaches a durability configuration (builder style).
    #[must_use]
    pub fn with_durability(mut self, durability: crate::wal::DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }
}

/// The store a fresh (non-recovering) run starts from: view objects carry
/// the same steady-state exponential initial ages the simulator draws
/// (same seed, same substream). Recovery replaces this with the snapshot
/// image; everything else about executor construction is shared.
#[must_use]
pub fn initial_store(sim: &SimConfig) -> Store {
    let root = Xoshiro256pp::seed_from_u64(sim.seed);
    let mut init_rng = root.substream(0xA9E);
    let mean_low = sim.per_object_refresh_mean(true);
    let mean_high = sim.per_object_refresh_mean(false);
    let mut init_ages: Vec<SimTime> = Vec::with_capacity((sim.n_low + sim.n_high) as usize);
    for _ in 0..sim.n_low {
        let age = if mean_low.is_finite() {
            Exponential::new(mean_low).sample(&mut init_rng)
        } else {
            0.0
        };
        init_ages.push(SimTime::from_secs(-age));
    }
    for _ in 0..sim.n_high {
        let age = if mean_high.is_finite() {
            Exponential::new(mean_high).sample(&mut init_rng)
        } else {
            0.0
        };
        init_ages.push(SimTime::from_secs(-age));
    }
    let idx = |id: ViewObjectId| -> usize {
        match id.class {
            Importance::Low => id.index as usize,
            Importance::High => sim.n_low as usize + id.index as usize,
        }
    };
    Store::with_initial_timestamps(
        sim.n_low,
        sim.n_high,
        sim.n_general,
        sim.attrs_per_object,
        |id| init_ages[idx(id)],
    )
}

/// The per-stripe executor configurations of a sharded run. Stripe `s`
/// owns the local object shape carved out by [`StripeMap`], mixes the run
/// seed exactly as the striped simulator does (`seed ^ splitmix64(s+1)`
/// only when `stripes > 1`) so its [`initial_store`] ages and service
/// draws match the corresponding `run_paper_sim_striped` sub-run
/// bit-for-bit, and logs to its own `stripe-<s>/` durability
/// subdirectory. The distinct per-stripe seed also gives every stripe a
/// distinct config fingerprint, so WAL/snapshot artefacts can never be
/// replayed into the wrong stripe. A `stripes <= 1` config is returned
/// unchanged — the single-store paths stay byte-identical.
#[must_use]
pub fn stripe_configs(cfg: &LiveConfig) -> Vec<LiveConfig> {
    if cfg.sim.stripes <= 1 {
        return vec![cfg.clone()];
    }
    let map = StripeMap::from_config(&cfg.sim);
    (0..map.stripes())
        .map(|s| {
            let mut sub = cfg.clone();
            let (n_low, n_high) = map.shape(s);
            sub.sim.n_low = n_low;
            sub.sim.n_high = n_high;
            sub.sim.stripes = 1;
            sub.sim.seed = cfg.sim.seed ^ splitmix64(u64::from(s) + 1);
            if let Some(d) = &mut sub.durability {
                d.dir = d.dir.join(format!("stripe-{s}"));
            }
            sub
        })
        .collect()
}

/// One message into the executor thread. The TCP connection threads and
/// in-process tests speak the same enum.
#[derive(Debug)]
pub enum Ingest {
    /// An external update arrival (paper Figure 2, step 2).
    Update(WireUpdate),
    /// A transaction submission.
    Txn(WireTxn),
    /// A metadata read of one view object; answered out-of-band (no CPU is
    /// charged — queries are the monitoring plane, not paper transactions).
    Query {
        /// The object asked about.
        q: WireQuery,
        /// Where to deliver the answer.
        reply: SyncSender<WireQueryResponse>,
    },
    /// A read of one derived-view DAG node. Unlike [`Ingest::Query`] this
    /// goes through the shared policy module: under OD a stale node is
    /// recursively refreshed along the DAG before the answer leaves —
    /// the same decision the simulator's controller makes.
    DerivedQuery {
        /// The node asked about.
        q: WireDerivedQuery,
        /// Where to deliver the answer.
        reply: SyncSender<WireDerivedQueryResponse>,
    },
    /// Request for an interim (or, after shutdown, final) [`RunReport`].
    Snapshot {
        /// Where to deliver the report.
        reply: SyncSender<RunReport>,
    },
    /// Attach a lock-free update stream: the executor pops the ring on
    /// every ingest drain. This is the batched fast path — updates flow
    /// through the ring without ever touching the channel, which the
    /// slower control messages keep using.
    Stream(spsc::Consumer<WireUpdate>),
    /// Stop the run; the executor finalises metrics and returns.
    Shutdown,
}

/// Min-heap entry ordered by wall-clock seconds (`f64` via `total_cmp`).
#[derive(Debug)]
struct Timer<T> {
    at: f64,
    item: T,
}

impl<T> PartialEq for Timer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at.total_cmp(&other.at) == std::cmp::Ordering::Equal
    }
}
impl<T> Eq for Timer<T> {}
impl<T> PartialOrd for Timer<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Timer<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest `at`.
        other.at.total_cmp(&self.at)
    }
}

/// The live analogue of the controller's `RunningTxn`.
#[derive(Debug)]
struct RunningTxn {
    txn: Transaction,
    slice: Slice,
    /// Update taken from the queue for an on-demand apply (OD).
    pending_apply: Option<Update>,
}

/// What the bound transaction's next CPU slice is.
#[derive(Debug, Clone, Copy)]
enum Slice {
    /// The current planned segment (work or view-read lookup).
    Segment,
    /// Searching the update queue after a staleness check.
    StaleScan { obj: ViewObjectId, remaining: f64 },
    /// Applying an update found by the scan (OD refresh).
    OdApply { obj: ViewObjectId, remaining: f64 },
    /// Recursively refreshing a derived node's stale ancestor cone before
    /// a derived read is answered (OD, DAG extension).
    DagRefresh { node: u32, remaining: f64 },
}

/// How a burned transaction slice ended.
enum TxnBurn {
    /// The slice ran its full duration.
    Completed,
    /// An update arrived and the policy preempts on arrival.
    Preempted,
    /// The transaction's own deadline passed mid-slice.
    DeadlinePassed,
    /// A shutdown request arrived mid-slice.
    Shutdown,
}

/// Result of one update-side work attempt (mirrors the controller's
/// `UpdateStep`).
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// CPU time was burned.
    Slice,
    /// State advanced without consuming CPU (zero-cost queue insert).
    InstantProgress,
    /// No update work available.
    Nothing,
}

/// The single-threaded wall-clock scheduling core.
///
/// Construct with [`Executor::new`], feed the channel from any number of
/// producer threads, and call [`Executor::run`]; it returns the final
/// [`RunReport`] once an [`Ingest::Shutdown`] arrives (or every sender is
/// dropped).
#[derive(Debug)]
pub struct Executor {
    cfg: SimConfig,
    quantum: f64,
    clock: LiveClock,
    /// The latest clock reading: where the previous scheduling point ended
    /// and the next slice starts (see the module docs).
    now: SimTime,
    costs: CostModel,
    policy: Policy,
    queue_policy: QueuePolicy,
    staleness: StalenessSpec,
    alpha: Option<f64>,
    store: Store,
    tracker: StalenessTracker,
    /// The derived-view DAG (extension); generated from the same seed and
    /// substream as the simulator's, so both runtimes propagate over an
    /// identical graph.
    dag: Option<ViewDag>,
    dag_state: Option<DagState>,
    derived_stale: Option<DerivedStaleness>,
    os: OsQueue,
    uq: DualUpdateQueue,
    ready: strip_core::ready::ReadyQueue,
    metrics: Metrics,
    running: Option<RunningTxn>,
    read_counts: [Vec<u64>; 2],
    update_seq: u64,
    pending_preempt_cost: f64,
    expiry: BinaryHeap<Timer<ExpiryWatch>>,
    deadlines: BinaryHeap<Timer<u64>>,
    warmup_end: SimTime,
    warmup_taken: bool,
    in_flight_install: u64,
    events: u64,
    shutdown: bool,
    rx: Receiver<Ingest>,
    /// Lock-free ingest rings attached by [`Ingest::Stream`], one per
    /// batching connection; popped on every ingest drain.
    streams: Vec<spsc::Consumer<WireUpdate>>,
    /// Handle to the WAL flusher thread, when durability is on.
    wal: Option<crate::wal::WalHandle>,
    /// WAL counters, kept past [`WalHandle::seal`](crate::wal::WalHandle)
    /// so the final report can read the post-seal totals.
    wal_stats: Option<std::sync::Arc<crate::wal::WalStats>>,
    /// Fingerprint of `cfg`, stamped into snapshots.
    fingerprint: u64,
    /// Seconds between periodic snapshots (`None`: never snapshot).
    snapshot_every: Option<f64>,
    /// Wall-clock second the next periodic snapshot is due at.
    next_snapshot_at: f64,
    /// Updates replayed from the WAL by recovery, for the report.
    recovery_replayed: u64,
    /// Torn/corrupt tail records recovery rejected, for the report.
    recovery_discarded: u64,
}

impl Executor {
    /// Builds an executor over `rx`. View objects start with the same
    /// steady-state exponential ages the simulator draws (same seed, same
    /// substream), so staleness statistics begin in steady state rather
    /// than with a cold synchronized store. With `lambda_u == 0` (the
    /// `stripd` default — load arrives over the wire) the refresh mean is
    /// infinite and every object starts at generation `SimTime::ZERO`,
    /// the instant the executor's clock starts.
    #[must_use]
    pub fn new(cfg: &LiveConfig, rx: Receiver<Ingest>) -> Self {
        Self::with_wal(cfg, rx, None, None)
    }

    /// Builds an executor with an optional WAL and an optional recovered
    /// store. [`Executor::new`] is `with_wal(cfg, rx, None, None)`; the
    /// server constructs the WAL handle and runs recovery itself (they
    /// need the filesystem before the listener binds). The staleness
    /// tracker is seeded from the store's own generation timestamps, so a
    /// recovered store resumes tracking exactly where the crash left it.
    #[must_use]
    pub fn with_wal(
        cfg: &LiveConfig,
        rx: Receiver<Ingest>,
        wal: Option<crate::wal::WalHandle>,
        recovered: Option<crate::recovery::Recovered>,
    ) -> Self {
        let sim = cfg.sim.clone();
        let (store, update_seq, recovery_replayed, recovery_discarded) = match recovered {
            Some(r) => (r.store, r.next_seq, r.replayed, r.discarded),
            None => (initial_store(&sim), 0, 0, 0),
        };
        let tracker =
            StalenessTracker::new(sim.staleness, sim.n_low, sim.n_high, SimTime::ZERO, |id| {
                store.view(id).generation_ts
            });
        let wal_stats = wal.as_ref().map(crate::wal::WalHandle::stats);
        let snapshot_every = cfg
            .durability
            .as_ref()
            .map(|d| d.snapshot_secs)
            .filter(|s| s.is_finite() && *s > 0.0);
        let os = OsQueue::with_shed(sim.os_max, sim.os_shed);
        let uq = DualUpdateQueue::with_shed(
            sim.uq_max,
            sim.indexed_queue,
            sim.split_update_queue,
            sim.uq_shed,
        );
        let read_counts = [vec![0; sim.n_low as usize], vec![0; sim.n_high as usize]];
        // Derived state is recomputed from the store image, so a recovered
        // store yields exactly the derived values a full recompute of the
        // recovered base values implies (crash-lost pending deltas are
        // subsumed: recovery replays their base installs, and DagState
        // starts quiescent over the replayed store).
        let dag = sim.dag.map(|spec| {
            let mut dag_rng = Xoshiro256pp::seed_from_u64(sim.seed).substream(0xDA6);
            generate_dag(&spec, sim.n_low, sim.n_high, &mut dag_rng)
        });
        let dag_state = dag
            .as_ref()
            .map(|d| DagState::new(d, &store, sim.dag.map_or(1, |s| s.max_pending)));
        let derived_stale = dag
            .as_ref()
            .map(|d| DerivedStaleness::new(d.len(), SimTime::ZERO));
        Executor {
            quantum: cfg.quantum,
            clock: LiveClock::start(),
            now: SimTime::ZERO,
            costs: sim.costs,
            policy: sim.policy,
            queue_policy: sim.queue_policy,
            staleness: sim.staleness,
            alpha: sim.staleness.alpha(),
            store,
            tracker,
            dag,
            dag_state,
            derived_stale,
            os,
            uq,
            ready: strip_core::ready::ReadyQueue::new(),
            metrics: Metrics::new(SimTime::from_secs(sim.warmup)),
            running: None,
            read_counts,
            update_seq,
            pending_preempt_cost: 0.0,
            expiry: BinaryHeap::new(),
            deadlines: BinaryHeap::new(),
            warmup_end: SimTime::from_secs(sim.warmup),
            warmup_taken: false,
            in_flight_install: 0,
            events: 0,
            shutdown: false,
            rx,
            streams: Vec::new(),
            wal,
            wal_stats,
            fingerprint: strip_core::config_fingerprint(&sim),
            snapshot_every,
            next_snapshot_at: snapshot_every.unwrap_or(f64::INFINITY),
            recovery_replayed,
            recovery_discarded,
            cfg: sim,
        }
    }

    /// Runs until shutdown; returns the final report. Consumes the
    /// executor — the substrate's counters end their life in the report.
    #[must_use]
    pub fn run(mut self) -> RunReport {
        for watch in self.tracker.initial_watches() {
            self.expiry.push(Timer {
                at: watch.at.max(SimTime::ZERO).as_secs(),
                item: watch,
            });
        }
        self.now = self.clock.now();
        while !self.shutdown {
            let polled_at = self.now;
            self.process_timers(polled_at);
            self.drain_ingest();
            if self.shutdown {
                break;
            }
            if !self.step() {
                self.idle_wait();
            }
            // A pass that neither burned nor handled input (a zero-cost
            // queue transfer, an abort, an idle timeout) still ends on a
            // fresh reading, so timers cannot starve.
            if self.now == polled_at {
                self.now = self.clock.now();
            }
        }
        // A shutdown can arrive while batched updates sit un-popped in
        // the ingest rings; drain them into the OS queue so the final
        // report's conservation identity accounts for every update a
        // connection thread handed over before the stop.
        self.now = self.clock.now();
        self.drain_streams(self.now);
        self.finalize()
    }

    // ---- ingest -------------------------------------------------------------

    /// Drains everything currently queued on the channel and the rings,
    /// stamping arrivals with the current reading; the clock is re-read
    /// afterwards if anything was handled (handling takes time, an empty
    /// poll does not). Returns true if at least one update arrival was
    /// among the drained messages (the burn loop uses this as its
    /// preemption signal).
    fn drain_ingest(&mut self) -> bool {
        let now = self.now;
        let handled = self.events;
        let mut update_arrived = false;
        loop {
            match self.rx.try_recv() {
                Ok(msg) => update_arrived |= self.handle_msg(msg, now),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.shutdown = true;
                    break;
                }
            }
        }
        update_arrived |= self.drain_streams(now);
        if self.events != handled {
            self.now = self.clock.now();
        }
        update_arrived
    }

    /// Pops every update currently queued in the attached lock-free
    /// rings (bounded by a per-ring length snapshot, so a producer
    /// pushing at full speed cannot pin the executor here) and drops
    /// rings whose producer has disconnected and that are empty.
    /// Returns true when at least one update was popped.
    fn drain_streams(&mut self, now: SimTime) -> bool {
        if self.streams.is_empty() {
            return false;
        }
        let mut any = false;
        // The rings move out of `self` for the duration of the drain so
        // `accept_update` can borrow the rest of the executor mutably.
        let mut streams = std::mem::take(&mut self.streams);
        for c in &mut streams {
            for _ in 0..c.len() {
                let Some(w) = c.pop() else { break };
                self.events += 1;
                self.accept_update(&w, now);
                any = true;
            }
        }
        streams.retain(|c| !(c.is_closed() && c.is_empty()));
        self.streams = streams;
        any
    }

    /// Handles one ingest message; returns true when it was an update
    /// arrival.
    fn handle_msg(&mut self, msg: Ingest, now: SimTime) -> bool {
        self.events += 1;
        match msg {
            Ingest::Update(w) => {
                self.accept_update(&w, now);
                true
            }
            Ingest::Txn(w) => {
                self.accept_txn(w, now);
                false
            }
            Ingest::Query { q, reply } => {
                let _ = reply.send(self.answer_query(&q, now));
                false
            }
            Ingest::DerivedQuery { q, reply } => {
                let _ = reply.send(self.answer_derived_query(q.node, now));
                false
            }
            Ingest::Snapshot { reply } => {
                // The ack barrier: a stats reply acknowledges every update
                // accepted before it, so those records must be written
                // (kill -9-durable) before the reply leaves. Group-commit
                // latency is bounded (≤ ring drain + one write), so this
                // does not stall the loop meaningfully.
                if let Some(wal) = &mut self.wal {
                    wal.barrier(self.update_seq);
                }
                let _ = reply.send(self.snapshot(now));
                false
            }
            Ingest::Stream(consumer) => {
                self.streams.push(consumer);
                false
            }
            Ingest::Shutdown => {
                self.shutdown = true;
                false
            }
        }
    }

    /// Mirrors the controller's `on_update_arrival` (minus the simulator's
    /// admission-control extension): deliver to the bounded OS queue, note
    /// the receive for UU staleness, count the arrival. The preemption
    /// reaction lives in the burn loop rather than here.
    fn accept_update(&mut self, w: &WireUpdate, now: SimTime) {
        let Some(object) = self.wire_object(w.class, w.index) else {
            return; // out-of-range target: drop silently (never sent by loadgen)
        };
        let update = Update {
            seq: self.update_seq,
            object,
            generation_ts: LiveClock::micros_to_sim(w.generation_micros),
            arrival_ts: now,
            payload: w.payload,
            attr_mask: w.attr_mask,
        };
        self.update_seq += 1;
        if let Some(wal) = &mut self.wal {
            // Log before state (before even the OS queue): the WAL records
            // *accepted* updates, so recovery's worthiness-checked replay
            // subsumes whatever sheds or supersessions the crash erased.
            wal.append(update.seq, *w, LiveClock::sim_to_micros(now));
        }
        let outcome = self.os.deliver(update);
        self.metrics.update_arrived(now, !outcome.lost_one());
        self.tracker.on_receive(object, update.generation_ts, now);
        self.metrics
            .observe_queue_lengths(self.os.len(), self.uq.len());
    }

    /// Mirrors the controller's `on_txn_arrival`: admit, arm the deadline
    /// watchdog, push to the ready queue.
    fn accept_txn(&mut self, w: WireTxn, now: SimTime) {
        let Some(class) = Importance::from_index(w.class as usize) else {
            return;
        };
        let mut reads = Vec::with_capacity(w.reads.len());
        for &(c, i) in &w.reads {
            let Some(obj) = self.wire_object(c, i) else {
                return; // a bad read set invalidates the whole transaction
            };
            reads.push(obj);
        }
        let spec = TxnSpec {
            id: w.id,
            class,
            value: w.value,
            arrival: now,
            slack: w.slack_micros as f64 * 1e-6,
            compute_time: w.compute_micros as f64 * 1e-6,
            reads,
            derived_reads: Vec::new(),
        };
        self.metrics.txn_arrived(now, spec.class);
        let txn = Transaction::new(spec, self.cfg.p_view, &self.costs);
        self.deadlines.push(Timer {
            at: txn.deadline().as_secs(),
            item: txn.id(),
        });
        self.ready.push(txn);
    }

    /// Resolves a wire (class, index) pair against the configured store.
    fn wire_object(&self, class: u8, index: u32) -> Option<ViewObjectId> {
        let class = Importance::from_index(class as usize)?;
        let n = match class {
            Importance::Low => self.cfg.n_low,
            Importance::High => self.cfg.n_high,
        };
        (index < n).then(|| ViewObjectId::new(class, index))
    }

    /// Answers a metadata query from the store and tracker without
    /// consuming modelled CPU.
    fn answer_query(&self, q: &WireQuery, now: SimTime) -> WireQueryResponse {
        let Some(obj) = self.wire_object(q.class, q.index) else {
            return WireQueryResponse {
                payload: f64::NAN,
                generation_micros: i64::MIN,
                age_micros: -1,
                uu_stale: QUERY_NO_SUCH_OBJECT,
            };
        };
        let v = self.store.view(obj);
        WireQueryResponse {
            payload: v.payload,
            generation_micros: LiveClock::sim_to_micros(v.generation_ts),
            age_micros: LiveClock::sim_to_micros(SimTime::from_secs(v.age_at(now))),
            uu_stale: u8::from(self.tracker.is_stale(obj)),
        }
    }

    // ---- timers -------------------------------------------------------------

    /// Fires every due MA-expiry watchdog, the warm-up snapshot, and every
    /// due deadline. Must not be called while the slice of a transaction
    /// whose deadline is already due is being burned — the burn loop
    /// checks its own deadline first, then calls this with the same `now`.
    fn process_timers(&mut self, now: SimTime) {
        // Hand any partial WAL chunk to the flusher once per quantum: the
        // append hot path only buffers, so this bounds how long a record
        // can sit outside the flusher's reach.
        if let Some(wal) = &mut self.wal {
            wal.flush();
        }
        let t = now.as_secs();
        while self.expiry.peek().is_some_and(|e| e.at <= t) {
            let e = self.expiry.pop().expect("peeked expiry entry"); // lint: allow(live-panic, reason=pop follows a successful peek on the same heap)
            self.tracker.on_expiry(e.item, now);
            self.events += 1;
        }
        if !self.warmup_taken && self.warmup_end > SimTime::ZERO && now >= self.warmup_end {
            self.metrics.snapshot_warmup(&self.tracker, now);
            self.warmup_taken = true;
            self.events += 1;
        }
        while self.deadlines.peek().is_some_and(|e| e.at <= t) {
            let e = self.deadlines.pop().expect("peeked deadline entry"); // lint: allow(live-panic, reason=pop follows a successful peek on the same heap)
            self.events += 1;
            let id = e.item;
            if self.running.as_ref().is_some_and(|rt| rt.txn.id() == id) {
                let rt = self.running.take().expect("running txn at deadline"); // lint: allow(live-panic, reason=guarded by the is_some_and id check above)
                self.metrics
                    .txn_aborted_at(&rt.txn, AbortReason::MissedDeadline, now);
            } else if let Some(txn) = self.ready.remove(id) {
                self.metrics
                    .txn_aborted_at(&txn, AbortReason::MissedDeadline, now);
            }
            // Otherwise the transaction already finished: stale watchdog.
        }
        self.maybe_snapshot(now);
    }

    /// Hands a periodic store image to the flusher when one is due. The
    /// encode is O(store) on the executor thread (cheap: tens of µs at the
    /// paper's store sizes); the atomic write and segment truncation
    /// happen on the flusher.
    ///
    /// The image is stamped with `update_seq` — every update *accepted* —
    /// and the flusher cuts the log below that stamp, so the store must
    /// hold every accepted update when it is taken. A due snapshot
    /// therefore waits (re-tried at every poll) until nothing accepted is
    /// still queued or in flight: sustained backlog defers snapshots, and
    /// segment rotation alone bounds file size meanwhile.
    fn maybe_snapshot(&mut self, now: SimTime) {
        let Some(every) = self.snapshot_every else {
            return;
        };
        if now.as_secs() < self.next_snapshot_at {
            return;
        }
        let drops = self.queue_drops();
        if drops.left_in_os + drops.left_in_uq + drops.in_flight > 0 {
            return;
        }
        if let Some(wal) = &mut self.wal {
            let image = crate::snapshot::encode(
                &self.store,
                self.cfg.attrs_per_object.max(1),
                self.fingerprint,
                self.update_seq,
            );
            wal.request_snapshot(image, self.update_seq);
            self.events += 1;
        }
        // Re-arm relative to now, not the missed slot, so a stall does not
        // cause a burst of back-to-back snapshots.
        self.next_snapshot_at = now.as_secs() + every;
    }

    /// Wall-clock seconds of the earliest pending timer, if any.
    fn next_timer_at(&self) -> Option<f64> {
        let e = self.expiry.peek().map(|e| e.at);
        let d = self.deadlines.peek().map(|e| e.at);
        match (e, d) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }

    /// Blocks on the ingest channel until a message, the next timer, or a
    /// 5 ms tick — whichever is first. Only reached when there is no work.
    /// With lock-free streams attached the tick tightens to 200 µs: ring
    /// pushes do not wake the channel, so the poll interval bounds the
    /// ring's idle-side latency.
    fn idle_wait(&mut self) {
        let now = self.now.as_secs();
        let mut wait: f64 = if self.streams.is_empty() {
            0.005
        } else {
            200e-6
        };
        if let Some(at) = self.next_timer_at() {
            wait = wait.min((at - now).max(0.0));
        }
        if wait <= 0.0 {
            return;
        }
        match self.rx.recv_timeout(Duration::from_secs_f64(wait)) {
            Ok(msg) => {
                self.now = self.clock.now();
                self.handle_msg(msg, self.now);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => self.shutdown = true,
        }
    }

    // ---- dispatch -----------------------------------------------------------

    fn work_state(&self) -> WorkState {
        WorkState {
            os_empty: self.os.is_empty(),
            uq_empty: self.uq.is_empty(),
            busy_update: self.metrics.busy_update_so_far(),
            busy_txn: self.metrics.busy_txn_so_far(),
        }
    }

    /// One pass of the controller's dispatch loop. Returns false when
    /// there is nothing to do (the caller then blocks on ingest).
    fn step(&mut self) -> bool {
        let now = self.now;
        if let Some(alpha) = self.alpha {
            if self.policy.uses_update_queue() {
                self.uq.discard_expired(now, alpha);
            }
        }
        if policy::updates_have_priority(self.policy, &self.work_state())
            && self.try_update_step(false) != Step::Nothing
        {
            return true;
        }
        // Prompt receive (§3.3 step 3): OS arrivals move to the searchable
        // queue at every scheduling point even when installs must wait.
        if self.policy.uses_update_queue()
            && !self.os.is_empty()
            && self.try_update_step(true) != Step::Nothing
        {
            return true;
        }
        if self.running.is_some() {
            self.run_txn();
            return true;
        }
        if self.cfg.feasible_deadline {
            for t in self.ready.drain_infeasible(now) {
                self.metrics
                    .txn_aborted_at(&t, AbortReason::Infeasible, now);
            }
        }
        if let Some(txn) = self.ready.pop_best() {
            self.running = Some(RunningTxn {
                txn,
                slice: Slice::Segment,
                pending_apply: None,
            });
            self.run_txn();
            return true;
        }
        if self.try_update_step(false) != Step::Nothing {
            return true;
        }
        // Lowest-priority background work: drain one pending DAG delta
        // (the live analogue of the controller's `try_dag_step`).
        self.try_dag_step()
    }

    /// Applies one pending DAG delta as background update work. Returns
    /// false when no delta is pending.
    fn try_dag_step(&mut self) -> bool {
        let Some(node) = self.dag_state.as_ref().and_then(DagState::next_pending) else {
            return false;
        };
        let inputs = self.dag.as_ref().map_or(0, |d| d.inputs(node).len());
        let instr = self.cfg.dag.map_or(0.0, |s| s.edge_cost_instr) * inputs as f64;
        let duration = self.costs.secs(instr) + self.take_preempt_cost();
        if duration > 0.0 && !self.burn_update_work(duration) {
            // Shutdown mid-apply: the delta stays pending, so the final
            // report's conservation identity still closes.
            return true;
        }
        self.events += 1;
        self.dag_apply(node, self.now);
        true
    }

    fn take_preempt_cost(&mut self) -> f64 {
        std::mem::take(&mut self.pending_preempt_cost)
    }

    /// Mirrors the controller's `try_update_step`; burns the slice inline
    /// instead of scheduling a `CpuDone` event.
    fn try_update_step(&mut self, receive_only: bool) -> Step {
        let now = self.now;
        if !self.policy.uses_update_queue() {
            if receive_only {
                return Step::Nothing;
            }
            return match self.os.receive() {
                Some(u) => {
                    self.run_install(u, InstallPath::Immediate, 0.0);
                    Step::Slice
                }
                None => Step::Nothing,
            };
        }
        if let Some(u) = self.os.receive() {
            if policy::arrival_route(self.policy, u.object.class) == ArrivalRoute::InstallImmediate
            {
                self.run_install(u, InstallPath::Immediate, 0.0);
                return Step::Slice;
            }
            let cost = self.costs.queue_op_time(self.uq.len() + 1) + self.take_preempt_cost();
            self.uq.insert(u);
            self.metrics.update_enqueued(now);
            if let Some(alpha) = self.alpha {
                self.uq.discard_expired(now, alpha);
            }
            self.metrics
                .observe_queue_lengths(self.os.len(), self.uq.len());
            if cost > 0.0 {
                self.burn_update_work(cost);
                return Step::Slice;
            }
            return Step::InstantProgress;
        }
        if receive_only {
            return Step::Nothing;
        }
        let popped = match policy::service_order(self.queue_policy) {
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
                self.run_install(u, InstallPath::Background, dequeue_cost);
                Step::Slice
            }
            None => Step::Nothing,
        }
    }

    // ---- installs -----------------------------------------------------------

    /// Runs one install slice to completion: the superseded check, the
    /// lookup/write burn, then the store/tracker commit. Installs are never
    /// preempted (§4.2); ingest drained mid-burn waits in its queues.
    fn run_install(&mut self, update: Update, path: InstallPath, extra: f64) {
        let obj = self.store.view(update.object);
        let superseded = if obj.attr_count() == 1 {
            update.generation_ts <= obj.generation_ts
        } else {
            (0..obj.attr_count())
                .filter(|a| *a < 64 && (update.attr_mask >> a) & 1 == 1)
                .all(|a| update.generation_ts <= obj.attr_generation(a))
        };
        let work = if superseded {
            self.costs.lookup_time()
        } else {
            let attrs = self.cfg.attrs_per_object.max(1);
            let frac = f64::from(update.provided_attrs(attrs)) / f64::from(attrs);
            self.costs.lookup_time() + self.costs.update_write_time() * frac
        };
        let duration = work + extra + self.take_preempt_cost();
        self.in_flight_install = 1;
        let completed = self.burn_update_work(duration);
        if !completed {
            // Shutdown mid-install: the update is neither applied nor
            // queued; `in_flight_install` stays 1 so the final report's
            // conservation identity still closes.
            return;
        }
        let end = self.now;
        self.events += 1;
        let applied = !superseded && self.apply_update(&update, end);
        if applied {
            self.metrics.update_installed(end, path);
        } else {
            self.metrics.update_superseded(end);
        }
        self.in_flight_install = 0;
    }

    /// Burns `duration` seconds of update-side CPU (installs and queue
    /// transfers) from the current reading, draining ingest and firing
    /// timers between chunks. The slice ends at a fixed deadline, so a
    /// chunk's overshoot shortens the next chunk instead of lengthening
    /// the slice; the last chunk does not poll — the caller's scheduling
    /// point does, at the same reading. Returns false when a shutdown
    /// arrived mid-burn.
    fn burn_update_work(&mut self, duration: f64) -> bool {
        let started = self.now;
        let end = started + duration;
        let completed = loop {
            self.now = self.clock.spin_until(end.min(self.now + self.quantum));
            if self.now >= end {
                break true;
            }
            self.process_timers(self.now);
            self.drain_ingest();
            if self.shutdown {
                break false;
            }
        };
        self.metrics
            .charge_busy(Activity::Update, started, self.now);
        completed
    }

    /// Mirrors the controller's `apply_update` (no history, no triggers;
    /// DAG delta propagation included).
    fn apply_update(&mut self, update: &Update, now: SimTime) -> bool {
        match self.store.install(update) {
            InstallOutcome::Installed {
                new_version,
                min_generation,
            } => {
                if let Some(watch) =
                    self.tracker
                        .on_install(update.object, min_generation, new_version, now)
                {
                    self.expiry.push(Timer {
                        at: watch.at.as_secs(),
                        item: watch,
                    });
                }
                self.propagate_base_install(update, now);
                true
            }
            InstallOutcome::Superseded => false,
        }
    }

    // ---- derived-view DAG (extension) ---------------------------------------

    /// A base install landed: enqueue typed deltas for every DAG dependent
    /// and account the transitive-staleness change. Mirrors the
    /// controller's method of the same name.
    fn propagate_base_install(&mut self, update: &Update, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        state.on_base_install(dag, update.object, update.payload, now);
        self.metrics.observe_dag_pending(state.pending_len());
        let stale = state.stale_count();
        if let Some(ds) = self.derived_stale.as_mut() {
            ds.observe(now, stale);
        }
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
        self.metrics.observe_dag_pending(state.pending_len());
        let stale = state.stale_count();
        if let Some(ds) = self.derived_stale.as_mut() {
            ds.observe(now, stale);
        }
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
    /// background propagation.
    fn perform_dag_refresh(&mut self, node: u32, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        self.metrics.dag_od_refresh(now);
        for n in state.stale_closure(dag, node) {
            if let Some(r) = state.apply(dag, &self.store, n, now) {
                self.metrics.dag_delta_applied(now, r.lag);
            }
        }
        self.metrics.observe_dag_pending(state.pending_len());
        let stale = state.stale_count();
        if let Some(ds) = self.derived_stale.as_mut() {
            ds.observe(now, stale);
        }
    }

    /// A transaction's derived-node read finished its lookup: under OD a
    /// stale node is recursively refreshed along the DAG before the read
    /// is answered (the same shared-policy decision the controller makes).
    fn handle_derived_read(&mut self, node: u32, now: SimTime) {
        let node_stale = self.dag_state.as_ref().is_some_and(|s| s.is_stale(node));
        if policy::dag_refresh(self.policy, node_stale) {
            let work = self.dag_refresh_work(node);
            if work > 0.0 {
                let rt = self.running.as_mut().expect("running txn at derived read"); // lint: allow(live-panic, reason=called only from the running-txn read path)
                rt.slice = Slice::DagRefresh {
                    node,
                    remaining: work,
                };
                // The burn happens on the next `run_txn` loop iteration.
                return;
            }
            self.perform_dag_refresh(node, now);
        }
        self.finalize_derived_read(node, now);
    }

    /// Concludes a derived-node read: record (transitive) staleness and
    /// continue. Derived staleness is advisory — reported, never aborted
    /// on.
    fn finalize_derived_read(&mut self, node: u32, now: SimTime) {
        let stale = self.dag_state.as_ref().is_some_and(|s| s.is_stale(node));
        let arrival = self
            .running
            .as_ref()
            .expect("running txn at derived-read finalisation") // lint: allow(live-panic, reason=called only from the running-txn read path)
            .txn
            .spec()
            .arrival;
        self.metrics.derived_read(arrival, stale);
        self.continue_txn(now);
    }

    /// Answers a derived-view query. Monitoring-plane like
    /// [`Executor::answer_query`] (no modelled CPU is charged), but the
    /// refresh decision goes through the shared policy module, so under OD
    /// the answer reflects a freshly recomputed ancestor cone — decision
    /// parity with the simulator's derived reads.
    fn answer_derived_query(&mut self, node: u32, now: SimTime) -> WireDerivedQueryResponse {
        let in_range = self.dag.as_ref().is_some_and(|d| (node as usize) < d.len());
        if !in_range {
            return WireDerivedQueryResponse {
                value: f64::NAN,
                stale: DERIVED_NO_SUCH_NODE,
                refreshed: 0,
            };
        }
        let node_stale = self.dag_state.as_ref().is_some_and(|s| s.is_stale(node));
        let refreshed = policy::dag_refresh(self.policy, node_stale);
        if refreshed {
            self.perform_dag_refresh(node, now);
        }
        let stale = self.dag_state.as_ref().is_some_and(|s| s.is_stale(node));
        self.metrics.derived_read(now, stale);
        WireDerivedQueryResponse {
            value: self.dag_state.as_ref().map_or(f64::NAN, |s| s.value(node)),
            stale: u8::from(stale),
            refreshed: u8::from(refreshed),
        }
    }

    // ---- transactions -------------------------------------------------------

    /// Runs the bound transaction until it commits, aborts, is preempted,
    /// or a shutdown arrives. Instant transitions (staleness checks, OD
    /// refresh decisions) happen inline, exactly as in the controller.
    fn run_txn(&mut self) {
        loop {
            let now = self.now;
            let Some(rt) = self.running.as_ref() else {
                return; // committed or aborted
            };
            if self.cfg.feasible_deadline
                && matches!(rt.slice, Slice::Segment)
                && !rt.txn.feasible_at(now)
            {
                let rt = self
                    .running
                    .take()
                    .expect("running txn at infeasibility check"); // lint: allow(live-panic, reason=burn outcomes are only produced while a txn runs)
                self.metrics
                    .txn_aborted_at(&rt.txn, AbortReason::Infeasible, now);
                return;
            }
            let (duration, slice) = match rt.slice {
                Slice::Segment => (rt.txn.segment_remaining(), Slice::Segment),
                s @ Slice::StaleScan { remaining, .. } => (remaining, s),
                s @ Slice::OdApply { remaining, .. } => (remaining, s),
                s @ Slice::DagRefresh { remaining, .. } => (remaining, s),
            };
            let deadline = rt.txn.deadline();
            let (outcome, performed) = self.burn_txn_slice(duration, deadline);
            let now = self.now;
            match outcome {
                TxnBurn::Completed => {
                    self.events += 1;
                    self.on_txn_slice_done(slice, now);
                    // Loop: the next slice (if the txn survives) burns now.
                }
                TxnBurn::Preempted | TxnBurn::Shutdown => {
                    let rt = self
                        .running
                        .as_mut()
                        .expect("running txn after partial slice"); // lint: allow(live-panic, reason=burn outcomes are only produced while a txn runs)
                    match slice {
                        Slice::Segment => rt.txn.consume(performed),
                        Slice::StaleScan { obj, .. } => {
                            rt.slice = Slice::StaleScan {
                                obj,
                                remaining: (duration - performed).max(0.0),
                            };
                        }
                        Slice::OdApply { obj, .. } => {
                            rt.slice = Slice::OdApply {
                                obj,
                                remaining: (duration - performed).max(0.0),
                            };
                        }
                        Slice::DagRefresh { node, .. } => {
                            rt.slice = Slice::DagRefresh {
                                node,
                                remaining: (duration - performed).max(0.0),
                            };
                        }
                    }
                    return;
                }
                TxnBurn::DeadlinePassed => {
                    let rt = self.running.take().expect("running txn at deadline"); // lint: allow(live-panic, reason=guarded by the is_some_and id check above)
                    self.metrics
                        .txn_aborted_at(&rt.txn, AbortReason::MissedDeadline, now);
                    return;
                }
            }
        }
    }

    /// Burns one transaction slice from the current reading in quantum
    /// chunks against the slice's fixed end (see
    /// [`Executor::burn_update_work`]), polling after every chunk: the
    /// next slice of the same transaction starts without returning to the
    /// run loop. Returns the outcome and how many seconds of the planned
    /// duration were performed. The transaction's own deadline is checked
    /// *before* timers are processed so `process_timers` never races it.
    fn burn_txn_slice(&mut self, duration: f64, deadline: SimTime) -> (TxnBurn, f64) {
        let started = self.now;
        let end = started + duration;
        let preemptible = policy::preempts_on_arrival(self.policy);
        let outcome = loop {
            if self.now >= end {
                break TxnBurn::Completed;
            }
            self.now = self.clock.spin_until(end.min(self.now + self.quantum));
            if self.now >= deadline {
                break TxnBurn::DeadlinePassed;
            }
            self.process_timers(self.now);
            let update_arrived = self.drain_ingest();
            if self.shutdown {
                break TxnBurn::Shutdown;
            }
            if preemptible && update_arrived {
                self.pending_preempt_cost = self.costs.preempt_time();
                break TxnBurn::Preempted;
            }
        };
        self.metrics.charge_busy(Activity::Txn, started, self.now);
        (outcome, self.now.since(started).min(duration))
    }

    /// Mirrors the controller's `on_txn_slice_done`.
    fn on_txn_slice_done(&mut self, slice: Slice, now: SimTime) {
        match slice {
            Slice::Segment => {
                let rt = self
                    .running
                    .as_mut()
                    .expect("running txn at segment completion"); // lint: allow(live-panic, reason=burn outcomes are only produced while a txn runs)
                let finished = rt.txn.complete_segment();
                rt.txn.arm_segment(&self.costs);
                match finished {
                    Segment::Work(_) => self.continue_txn(now),
                    Segment::ReadView(obj) => {
                        self.read_counts[obj.class.index()][obj.index as usize] += 1;
                        self.handle_view_read(obj, now);
                    }
                    Segment::ReadDerived(node) => self.handle_derived_read(node, now),
                }
            }
            Slice::StaleScan { obj, .. } => self.handle_post_scan(obj, now),
            Slice::OdApply { obj, .. } => {
                let rt = self
                    .running
                    .as_mut()
                    .expect("running txn at OD apply completion"); // lint: allow(live-panic, reason=burn outcomes are only produced while a txn runs)
                rt.slice = Slice::Segment;
                let update = rt.pending_apply.take().expect("pending OD update at apply"); // lint: allow(live-panic, reason=set when the OD apply slice was armed)
                let applied = self.apply_update(&update, now);
                if applied {
                    self.metrics.update_installed(now, InstallPath::OnDemand);
                } else {
                    self.metrics.update_superseded(now);
                }
                self.finalize_read(obj, now);
            }
            Slice::DagRefresh { node, .. } => {
                let rt = self
                    .running
                    .as_mut()
                    .expect("running txn at DAG refresh completion"); // lint: allow(live-panic, reason=burn outcomes are only produced while a txn runs)
                rt.slice = Slice::Segment;
                self.perform_dag_refresh(node, now);
                self.finalize_derived_read(node, now);
            }
        }
    }

    /// Mirrors `handle_view_read` (no historical reads, no I/O stalls in
    /// live mode).
    fn handle_view_read(&mut self, obj: ViewObjectId, now: SimTime) {
        let ma_stale = match self.staleness {
            StalenessSpec::MaxAge { alpha } => self.store.is_stale_ma(obj, now, alpha),
            StalenessSpec::UnappliedUpdate | StalenessSpec::Either { .. } => false,
        };
        match policy::read_check(self.policy, self.staleness, ma_stale) {
            ReadCheck::Scan => self.begin_scan(obj, now),
            ReadCheck::Direct => self.finalize_read(obj, now),
        }
    }

    /// Mirrors `begin_scan`: the queue search costs CPU (indexed probe or
    /// linear scan).
    fn begin_scan(&mut self, obj: ViewObjectId, now: SimTime) {
        let duration = if self.cfg.indexed_queue {
            self.costs.indexed_probe_time()
        } else {
            self.costs.scan_time(self.uq.len())
        };
        if duration > 0.0 {
            let rt = self.running.as_mut().expect("running txn at scan start"); // lint: allow(live-panic, reason=called only from the running-txn read path)
            rt.slice = Slice::StaleScan {
                obj,
                remaining: duration,
            };
            // The burn happens on the next `run_txn` loop iteration.
        } else {
            self.handle_post_scan(obj, now);
        }
    }

    /// Mirrors `handle_post_scan`: decide whether an on-demand install
    /// happens, and arm the apply slice if so.
    fn handle_post_scan(&mut self, obj: ViewObjectId, now: SimTime) {
        if let Some(rt) = self.running.as_mut() {
            rt.slice = Slice::Segment;
        }
        let queued_newest = self.uq.newest_for(obj).map(|u| u.generation_ts);
        let installed_gen = self.store.view(obj).generation_ts;
        let refresh = if policy::od_refresh(self.policy, queued_newest, installed_gen) {
            self.uq.take_newest_for(obj)
        } else {
            None
        };
        match refresh {
            Some(update) => {
                let duration = self.costs.update_write_time();
                let rt = self.running.as_mut().expect("running txn at OD refresh"); // lint: allow(live-panic, reason=called only from the running-txn read path)
                rt.pending_apply = Some(update);
                if duration > 0.0 {
                    rt.slice = Slice::OdApply {
                        obj,
                        remaining: duration,
                    };
                } else {
                    self.on_txn_slice_done(
                        Slice::OdApply {
                            obj,
                            remaining: 0.0,
                        },
                        now,
                    );
                }
            }
            None => self.finalize_read(obj, now),
        }
    }

    /// Mirrors `finalize_read`: record the metric verdict, apply the
    /// abort-on-stale system verdict, continue the plan.
    fn finalize_read(&mut self, obj: ViewObjectId, now: SimTime) {
        let ma_stale = match self.staleness {
            StalenessSpec::MaxAge { alpha } | StalenessSpec::Either { alpha } => {
                self.store.is_stale_ma(obj, now, alpha)
            }
            StalenessSpec::UnappliedUpdate => false,
        };
        let metric_stale = if policy::metric_uses_tracker(self.staleness) {
            self.tracker.is_stale(obj)
        } else {
            ma_stale
        };
        let queue_has_newer = self
            .uq
            .newest_for(obj)
            .is_some_and(|u| u.generation_ts > self.store.view(obj).generation_ts);
        let sys_stale = policy::system_stale(self.staleness, ma_stale, queue_has_newer);
        let rt = self
            .running
            .as_mut()
            .expect("running txn at read finalisation"); // lint: allow(live-panic, reason=called only from the running-txn read path)
        let arrival = rt.txn.spec().arrival;
        if metric_stale {
            rt.txn.mark_stale_read();
        }
        self.metrics.view_read(arrival, metric_stale);
        if self.cfg.abort_on_stale && sys_stale {
            let rt = self.running.take().expect("running txn at stale abort"); // lint: allow(live-panic, reason=called only from the running-txn read path)
            self.metrics
                .txn_aborted_at(&rt.txn, AbortReason::StaleRead, now);
            return;
        }
        self.continue_txn(now);
    }

    /// Mirrors `continue_txn`: commit when the plan is complete, otherwise
    /// leave `Slice::Segment` armed for the next burn.
    fn continue_txn(&mut self, now: SimTime) {
        let rt = self.running.as_mut().expect("running txn at continuation"); // lint: allow(live-panic, reason=called only from the running-txn read path)
        if rt.txn.finished() {
            let rt = self.running.take().expect("running txn at commit"); // lint: allow(live-panic, reason=finished checked on the running txn one line up)
            self.metrics.txn_committed(&rt.txn, now);
            return;
        }
        rt.slice = Slice::Segment;
    }

    // ---- reports ------------------------------------------------------------

    /// Builds an interim report from a clone of the metrics collector; the
    /// run itself continues untouched.
    fn snapshot(&self, now: SimTime) -> RunReport {
        let mut m = self.metrics.clone();
        if !self.warmup_taken && self.warmup_end > SimTime::ZERO {
            // The measurement window has not opened yet: open it at `now`
            // on the clone so folds are well-defined (and zero-width).
            m.snapshot_warmup(&self.tracker, now);
        }
        if let Some(state) = self.dag_state.as_ref() {
            let fold = self.derived_stale.as_ref().map_or(0.0, |ds| {
                let mut ds = ds.clone();
                ds.observe(now, state.stale_count());
                ds.fold(now)
            });
            m.dag_totals(state.stats, state.pending_len() as u64, fold);
        }
        let mut report = m.finalize(
            self.policy.label(),
            self.cfg.seed,
            now.as_secs(),
            now,
            &self.tracker,
            self.queue_drops(),
            ResilienceStats::default(),
            self.events,
        );
        report.durability = self.durability_stats();
        report
    }

    /// Durability counters for the report: flusher totals plus what
    /// recovery did at startup.
    fn durability_stats(&self) -> strip_core::report::DurabilityStats {
        let mut d = self
            .wal_stats
            .as_ref()
            .map(|s| s.durability())
            .unwrap_or_default();
        d.recovery_replayed = self.recovery_replayed;
        d.recovery_discarded = self.recovery_discarded;
        d
    }

    /// Queue/CPU occupancy at this instant, for the report's conservation
    /// identity (`terminal_total == arrived`).
    fn queue_drops(&self) -> QueueDrops {
        let pending_od = self
            .running
            .as_ref()
            .map_or(0, |rt| u64::from(rt.pending_apply.is_some()));
        QueueDrops {
            expired: self.uq.expired_dropped(),
            overflow: self.uq.overflow_dropped(),
            dedup: self.uq.dedup_dropped(),
            left_in_os: self.os.len() as u64,
            left_in_uq: self.uq.len() as u64,
            in_flight: self.in_flight_install + pending_od,
        }
    }

    /// Final accounting, mirroring `Controller::finalize`.
    fn finalize(mut self) -> RunReport {
        let end = self.now;
        let drops = self.queue_drops();
        // Seal the WAL first (drain, append the seal record, fsync): the
        // final report's counters then include the close-out fsync, and an
        // orderly shutdown is provably non-lossy before we claim success.
        if let Some(wal) = self.wal.take() {
            if let Err(e) = wal.seal() {
                eprintln!("stripd: wal seal failed: {e}");
            }
        }
        if let Some(rt) = self.running.take() {
            self.metrics.txn_in_flight(&rt.txn);
        }
        while let Some(txn) = self.ready.pop_best() {
            self.metrics.txn_in_flight(&txn);
        }
        if !self.warmup_taken && self.warmup_end > SimTime::ZERO {
            self.metrics.snapshot_warmup(&self.tracker, end);
            self.warmup_taken = true;
        }
        let durability = self.durability_stats();
        if let Some(state) = self.dag_state.as_ref() {
            let fold = self.derived_stale.as_mut().map_or(0.0, |ds| {
                ds.observe(end, state.stale_count());
                ds.fold(end)
            });
            self.metrics
                .dag_totals(state.stats, state.pending_len() as u64, fold);
        }
        let mut report = self.metrics.finalize(
            self.policy.label(),
            self.cfg.seed,
            end.as_secs(),
            end,
            &self.tracker,
            drops,
            ResilienceStats::default(),
            self.events,
        );
        report.durability = durability;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn base_cfg() -> SimConfig {
        SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(1.0)
            .warmup(0.0)
            .build()
            .expect("valid base config")
    }

    fn wire_update(class: u8, index: u32, gen_micros: i64, payload: f64) -> WireUpdate {
        WireUpdate {
            class,
            index,
            generation_micros: gen_micros,
            payload,
            attr_mask: u64::MAX,
        }
    }

    #[test]
    fn rejects_simulator_only_extensions() {
        let cfg = SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .txn_preemption(true)
            .build()
            .expect("valid config");
        let err = LiveConfig::new(cfg).unwrap_err();
        assert_eq!(err, LiveConfigError::Unsupported("txn_preemption"));
        assert!(matches!(
            LiveConfig::with_quantum(base_cfg(), 0.0),
            Err(LiveConfigError::BadQuantum(_))
        ));
        assert!(matches!(
            LiveConfig::with_quantum(base_cfg(), 1.0),
            Err(LiveConfigError::BadQuantum(_))
        ));
        assert!(LiveConfig::new(base_cfg()).is_ok());
    }

    #[test]
    fn ingested_updates_are_conserved_in_the_final_report() {
        let cfg = LiveConfig::new(base_cfg()).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        for i in 0..8u32 {
            tx.send(Ingest::Update(wire_update(
                u8::from(i % 2 == 0),
                i % 4,
                1_000 * i64::from(i + 1),
                f64::from(i),
            )))
            .expect("send update");
        }
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = exec.run();
        assert_eq!(report.updates.arrived, 8);
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    }

    #[test]
    fn ring_streamed_updates_are_drained_and_conserved_at_shutdown() {
        let cfg = LiveConfig::new(base_cfg()).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        let (mut prod, cons) = crate::spsc::ring(64);
        for i in 0..10u32 {
            prod.push(wire_update(
                u8::from(i % 2 == 0),
                i % 4,
                1_000 * i64::from(i + 1),
                f64::from(i),
            ))
            .expect("ring has room");
        }
        drop(prod);
        // The shutdown is already queued behind the stream attach: the
        // executor must still pop every ring entry before finalising.
        tx.send(Ingest::Stream(cons)).expect("attach stream");
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = exec.run();
        assert_eq!(report.updates.arrived, 10);
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    }

    #[test]
    fn query_reflects_installed_value_and_uu_staleness() {
        let sim = SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(1.0)
            .warmup(0.0)
            .staleness(StalenessSpec::UnappliedUpdate)
            .build()
            .expect("valid config");
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        let handle = std::thread::spawn(move || exec.run());
        tx.send(Ingest::Update(wire_update(0, 1, 5_000, 42.5)))
            .expect("send update");
        // Wait (bounded) until the install has landed *and* the wall
        // clock has passed the generation instant, so the age is
        // non-negative when we assert on it.
        let mut tries = 0;
        let resp = loop {
            let (qtx, qrx) = mpsc::sync_channel(1);
            tx.send(Ingest::Query {
                q: WireQuery { class: 0, index: 1 },
                reply: qtx,
            })
            .expect("send query");
            let r = qrx.recv().expect("query answered");
            tries += 1;
            if (r.generation_micros == 5_000 && r.age_micros >= 0) || tries > 5_000 {
                break r;
            }
            LiveClock::coarse_sleep(0.001);
        };
        assert_eq!(resp.generation_micros, 5_000);
        assert!((resp.payload - 42.5).abs() < 1e-12);
        assert_eq!(resp.uu_stale, 0);
        assert!(resp.age_micros >= 0, "age {} negative", resp.age_micros);
        // Unknown object.
        let (qtx, qrx) = mpsc::sync_channel(1);
        tx.send(Ingest::Query {
            q: WireQuery {
                class: 0,
                index: 99,
            },
            reply: qtx,
        })
        .expect("send query");
        assert_eq!(qrx.recv().expect("reply").uu_stale, QUERY_NO_SUCH_OBJECT);
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = handle.join().expect("executor thread");
        assert_eq!(report.updates.installed_total(), 1);
    }

    /// An updates-first executor driven step by step from the test thread,
    /// with its first clock reading taken. No feasibility screening: a
    /// late transaction must run into its deadline, not be turned away.
    fn stepped(quantum: f64) -> (mpsc::Sender<Ingest>, Executor) {
        let sim = SimConfig {
            policy: Policy::UpdatesFirst,
            feasible_deadline: false,
            ..base_cfg()
        };
        let cfg = LiveConfig::with_quantum(sim, quantum).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let mut exec = Executor::new(&cfg, rx);
        exec.now = exec.clock.now();
        (tx, exec)
    }

    fn wire_txn(compute_micros: u64, slack_micros: u64) -> WireTxn {
        WireTxn {
            id: 1,
            class: 0,
            value: 1.0,
            slack_micros,
            compute_micros,
            reads: Vec::new(),
        }
    }

    #[test]
    fn back_to_back_installs_take_one_clock_reading_each() {
        const N: u64 = 100_000;
        // A modelled install far below the cost of reading the clock: the
        // runtime's own per-update work is all that is left. Generations
        // rise, so every update is worth installing.
        let sim = SimConfig {
            policy: Policy::UpdatesFirst,
            os_max: N as usize + 1,
            costs: CostModel {
                ips: 1.0e15,
                ..CostModel::default()
            },
            ..base_cfg()
        };
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        for i in 0..N {
            tx.send(Ingest::Update(wire_update(
                (i % 2) as u8,
                (i % 4) as u32,
                i as i64 + 1,
                i as f64,
            )))
            .expect("send update");
        }
        // The executor runs on this thread (the read counter is
        // thread-local); a helper stops it once the backlog is installed.
        let stopper = std::thread::spawn(move || loop {
            let (rtx, rrx) = mpsc::sync_channel(1);
            tx.send(Ingest::Snapshot { reply: rtx })
                .expect("send snapshot");
            let report = rrx.recv().expect("interim report");
            if report.updates.installed_total() == N {
                tx.send(Ingest::Shutdown).expect("send shutdown");
                return;
            }
            LiveClock::coarse_sleep(0.002);
        });
        let before = LiveClock::reads();
        let report = exec.run();
        let reads = LiveClock::reads() - before;
        stopper.join().expect("stopper thread");
        assert_eq!(report.updates.installed_total(), N);
        eprintln!("{reads} clock readings for {N} installed updates");
        assert!(reads * 10 <= N * 11, "more than 1.1 readings per update");
    }

    #[test]
    fn three_quantum_install_spans_three_quanta_and_is_charged_end_to_end() {
        // Table 3 install: 24 000 instructions at 50 MIPS = 480 µs.
        let quantum = 160e-6;
        let (_tx, mut exec) = stepped(quantum);
        exec.accept_update(&wire_update(0, 1, 1_000, 1.0), exec.now);
        let started = exec.now;
        assert!(exec.step());
        let spanned = exec.now.since(started);
        assert!(spanned >= 3.0 * quantum, "slice spanned only {spanned} s");
        assert_eq!(exec.metrics.busy_update_so_far(), spanned);
        assert_eq!(exec.finalize().updates.installed_total(), 1);
    }

    #[test]
    fn deadline_inside_a_slice_aborts_within_one_quantum() {
        let quantum = LiveConfig::DEFAULT_QUANTUM;
        let (_tx, mut exec) = stepped(quantum);
        // 50 ms of work due 50 ms after arrival, started 30 ms late: the
        // deadline falls 20 ms into the 50 ms slice.
        exec.accept_txn(wire_txn(50_000, 0), exec.now);
        let deadline = exec.now + 0.050;
        exec.now = exec.clock.spin_until(exec.now + 0.030);
        assert!(exec.step());
        assert!(exec.running.is_none(), "the late transaction must be gone");
        let late = exec.now.since(deadline);
        assert!(late >= 0.0, "aborted {late} s before the deadline");
        // One quantum when the thread keeps its CPU; the bound leaves room
        // for a lost timeslice and is still half of what running the slice
        // out would give (30 ms).
        assert!(late < 30.0 * quantum, "abort detected {late} s late");
        let report = exec.finalize();
        assert_eq!(report.txns.missed_deadline, 1);
        assert_eq!(report.txns.committed, 0);
    }

    #[test]
    fn shutdown_mid_install_and_mid_txn_keeps_conservation() {
        // Mid-install: the stop is found at the first chunk boundary; the
        // update is neither applied nor queued, but still accounted.
        let (tx, mut exec) = stepped(100e-6);
        exec.accept_update(&wire_update(0, 1, 1_000, 1.0), exec.now);
        tx.send(Ingest::Shutdown).expect("send shutdown");
        assert!(exec.step());
        assert!(exec.shutdown);
        let report = exec.finalize();
        assert_eq!(report.updates.arrived, 1);
        assert_eq!(report.updates.installed_total(), 0);
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);

        // Mid-transaction: the partial slice is consumed and the
        // transaction is reported in flight.
        let (tx, mut exec) = stepped(100e-6);
        exec.accept_txn(wire_txn(50_000, 50_000), exec.now);
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let started = exec.now;
        assert!(exec.step());
        assert!(exec.shutdown);
        assert!(exec.now.since(started) < 0.050, "the slice must be cut");
        assert_eq!(
            exec.metrics.busy_txn_so_far(),
            exec.now.since(started),
            "a cut slice is charged up to the reading that ended it"
        );
        let report = exec.finalize();
        assert_eq!(report.txns.arrived, 1);
        assert_eq!(report.txns.in_flight_at_end, 1);
        assert_eq!(report.txns.finished(), 0);
    }

    fn dag_cfg(policy: Policy) -> SimConfig {
        SimConfig::builder()
            .policy(policy)
            .n_low(4)
            .n_high(4)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(1.0)
            .warmup(0.0)
            .dag(Some(strip_core::config::DagSpec {
                depth: 2,
                width: 3,
                fanout: 2,
                ..strip_core::config::DagSpec::default()
            }))
            .build()
            .expect("valid dag config")
    }

    /// Waits (bounded) until object (0, 1) reports the given generation —
    /// i.e. the executor's idle loop has installed the update carrying it.
    fn wait_for_install(tx: &mpsc::Sender<Ingest>, gen_micros: i64) {
        let mut tries = 0;
        loop {
            let (qtx, qrx) = mpsc::sync_channel(1);
            tx.send(Ingest::Query {
                q: WireQuery { class: 0, index: 1 },
                reply: qtx,
            })
            .expect("send query");
            let r = qrx.recv().expect("query answered");
            tries += 1;
            if r.generation_micros == gen_micros || tries > 5_000 {
                assert_eq!(r.generation_micros, gen_micros, "install never landed");
                return;
            }
            LiveClock::coarse_sleep(0.001);
        }
    }

    #[test]
    fn derived_query_is_served_and_od_refreshes_before_answering() {
        let cfg = LiveConfig::new(dag_cfg(Policy::OnDemand)).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        let handle = std::thread::spawn(move || exec.run());
        for i in 0..8u32 {
            tx.send(Ingest::Update(wire_update(
                u8::from(i % 2 == 0),
                i % 4,
                1_000 * i64::from(i + 1),
                f64::from(i) + 0.5,
            )))
            .expect("send update");
        }
        // Updates install in idle time under every algorithm; wait until
        // the last (0, 1) update has landed so deltas exist to propagate.
        wait_for_install(&tx, 6_000);
        // An answered derived query under OD is never stale: the refresh
        // runs before the reply, whatever the background drain has done.
        for node in 0..6u32 {
            let (qtx, qrx) = mpsc::sync_channel(1);
            tx.send(Ingest::DerivedQuery {
                q: WireDerivedQuery { node },
                reply: qtx,
            })
            .expect("send derived query");
            let resp = qrx.recv().expect("derived query answered");
            assert_eq!(resp.stale, 0, "node {node} answered stale under OD");
            assert!(resp.value.is_finite());
        }
        // Out-of-range node.
        let (qtx, qrx) = mpsc::sync_channel(1);
        tx.send(Ingest::DerivedQuery {
            q: WireDerivedQuery { node: 99 },
            reply: qtx,
        })
        .expect("send derived query");
        assert_eq!(qrx.recv().expect("reply").stale, DERIVED_NO_SUCH_NODE);
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = handle.join().expect("executor thread");
        assert_eq!(report.dag.enqueued, report.dag.terminal_total());
        assert!(report.dag.enqueued > 0, "installs must enqueue deltas");
    }

    #[test]
    fn dag_deltas_are_conserved_through_mid_stream_shutdown() {
        let cfg = LiveConfig::new(dag_cfg(Policy::TransactionsFirst)).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        let handle = std::thread::spawn(move || exec.run());
        // First wave installs in idle time and seeds the DAG with deltas.
        for i in 0..8u32 {
            tx.send(Ingest::Update(wire_update(
                u8::from(i % 2 == 0),
                i % 4,
                1_000 * i64::from(i + 1),
                f64::from(i),
            )))
            .expect("send update");
        }
        wait_for_install(&tx, 6_000);
        // Second wave arrives on a ring with the shutdown already queued
        // behind the attach: those updates drain to the OS queue
        // uninstalled, and the background propagation is cut off
        // mid-stream. Every enqueued delta must still land in exactly one
        // terminal bucket (applied, coalesced, shed, or pending at end).
        let (mut prod, cons) = crate::spsc::ring(64);
        for i in 0..10u32 {
            prod.push(wire_update(
                u8::from(i % 2 == 0),
                i % 4,
                100_000 * i64::from(i + 1),
                f64::from(i),
            ))
            .expect("ring has room");
        }
        drop(prod);
        tx.send(Ingest::Stream(cons)).expect("attach stream");
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = handle.join().expect("executor thread");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        assert_eq!(report.dag.enqueued, report.dag.terminal_total());
        assert!(report.dag.enqueued > 0, "installs must enqueue deltas");
        assert_eq!(report.dag.od_refreshes, 0, "TF never refreshes on demand");
    }
}
