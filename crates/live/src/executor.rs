//! The wall-clock executor: the scheduler core driven by real time.
//!
//! Every scheduling decision lives in [`strip_core::scheduler`], the one
//! copy of the paper's algorithms that the simulator's `Controller` also
//! drives; this module only supplies time and I/O. A *scheduling point*
//! ([`Executor::poll`]) fires due timers, drains ingest and opens a
//! *window*: one [`LiveConfig::quantum`] from its clock reading, by the
//! end of which the next poll is due.
//!
//! Update work — installs, queue transfers, rule executions, DAG applies:
//! every slice with no transaction on the CPU — is never preempted (§4.2),
//! so while such slices follow each other back to back and their planned
//! ends stay inside the window, the executor does exactly what the
//! simulator does: each finishes at the planned instant `start + secs`
//! and the next starts there, with no clock read, timer pass or ingest
//! poll in between. That sequence is a *run*, and the core does it in one
//! call, [`Scheduler::run_updates`] with `until` = the poll deadline,
//! which arms each MA-expiry watch as it goes. A run is
//! *settled* — the wall clock is spun up to its planned end — before
//! anything can observe it: before the next poll, before a transaction
//! slice, and before a slice too long for the window. Those slices are
//! *burned* by spinning on the wall clock in chunks that end at the poll
//! deadline, with a scheduling point after each chunk, so preemption is
//! quantised: an arrival whose verdict asks for one — an update under
//! UF/SU, a denser transaction under value-density preemption — cuts the
//! transaction slice at the next chunk boundary rather than
//! instantaneously (DESIGN.md §5 quantifies the approximation).
//!
//! Clock discipline: [`Executor::now`] is always a reading the wall clock
//! has reached, and every handler of a scheduling point is passed that one
//! reading. Inside a run time is *planned*, not read; the clock is only
//! consulted every [`RUN_CLOCK_STRIDE`] slices — the `max` of each
//! `run_updates` call — so that a cost model cheaper than the runtime
//! itself cannot carry a run past its poll deadline. Busy time inside a
//! run is therefore the modelled time, as in the simulator; what the
//! runtime spends beyond the model reads as idle.
//!
//! A stats, report or `/metrics` reply is an *ack*: it counts every update
//! accepted before it, so with a WAL it may leave only once the flusher
//! has written those records. The executor takes the report when the
//! request is handled and *parks* it; every scheduling point sends the
//! parked replies the flusher's written watermark covers. Only the reply
//! waits for the log — the executor keeps scheduling.
//!
//! The executor runs on one thread and is fed through an [`Ingest`]
//! channel; the TCP front end (`server`) and in-process tests use the same
//! channel type, so the scheduling core is exercised identically in both.
//! A session's updates come over its own ring ([`Stream`]), in blocks
//! whose every entry its connection thread has already checked against
//! the store, so accepting a block is O(1) on this thread, logging
//! included: when the server logs, the block also carries its frame's
//! kept wire entries behind a zeroed run head, and the executor writes
//! the head and moves that buffer to the WAL flusher whole; the OS queue
//! records the block's first sequence number and arrival once and stamps
//! each entry when it is received. The executor unparks the session after
//! popping its ring, and sends each block the OS queue has used up back
//! to the session that filled it, over a second ring, at every scheduling
//! point, with a wire buffer the flusher has sent home attached.
//!
//! MA expiry is one bit per object and one heap entry per set bit. An
//! install whose value will expire sets its object's bit, and pushes an
//! entry keyed by the expiry instant when the bit was clear. When the
//! entry comes due, the object goes to the core's `on_expiry`, which
//! either flags it stale, and the bit is cleared, or answers the later
//! expiry of a value installed since, and the entry is re-keyed there.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::thread::Thread;
use std::time::Duration;

use strip_core::config::SimConfig;
use strip_core::report::{ResilienceStats, RunReport};
use strip_core::scheduler::{initial_store, Preempt, Scheduler};
use strip_core::sources::UpdateSpec;
use strip_core::txn::TxnSpec;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::ExpiryWatch;
use strip_db::update::Update;
use strip_sim::time::SimTime;

use crate::clock::{Clock, LiveClock};
use crate::protocol::{
    WireDerivedQuery, WireDerivedQueryResponse, WireQuery, WireQueryResponse, WireTxn, WireUpdate,
    UPDATE_ENTRY,
};
use crate::spsc;
use crate::wal::{WalHandle, RUN_HEAD};

/// `uu_stale` value in a [`WireQueryResponse`] for a query that named an
/// object outside the configured store (0 = fresh, 1 = stale).
pub const QUERY_NO_SUCH_OBJECT: u8 = 2;

/// `stale` value in a [`WireDerivedQueryResponse`] for a query against a
/// server with no DAG configured, or a node id out of range.
pub const DERIVED_NO_SUCH_NODE: u8 = 2;

/// Configuration of a live run: a plain [`SimConfig`] plus the preemption
/// quantum. Every `SimConfig` the core validates runs live: the executor
/// honours each field that governs the server (policy, staleness, queues,
/// costs, and the value-density preemption, history, rule and disk-model
/// extensions, all of which are state inside the scheduler core), and the
/// fields that describe the offered load (`lambda_u`, `update_mode`, the
/// `disturbance` outage, …) are the load generator's to honour.
/// Recovery rebuilds the store and the staleness tracker only: the history
/// store and pending rule firings are volatile across a restart (the rules
/// themselves are regenerated from the seed).
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The substrate configuration shared with the simulator.
    pub sim: SimConfig,
    /// The longest the executor goes without a scheduling point, in
    /// seconds: a run of update work is planned this far ahead of a poll
    /// and longer slices are burned in chunks of it. Ingest is drained and
    /// timers fire at scheduling points only, so this bounds arrival
    /// stamping, the preemption latency under UF/SU and the deadline- and
    /// expiry-detection error.
    pub quantum: f64,
    /// Crash durability (WAL + snapshots); `None` runs in memory only:
    /// nothing is logged, no snapshot is taken and every ack leaves when
    /// its request is handled.
    pub durability: Option<crate::wal::DurabilityConfig>,
}

/// Reasons a [`LiveConfig`] cannot be built.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveConfigError {
    /// The quantum is not a positive number of seconds (or is implausibly
    /// large for a preemption quantum).
    BadQuantum(f64),
}

impl std::fmt::Display for LiveConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let LiveConfigError::BadQuantum(q) = self;
        write!(
            f,
            "quantum must be in (0, {}] seconds, got {q}",
            LiveConfig::MAX_QUANTUM
        )
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
    /// None for the default quantum; see [`LiveConfig::with_quantum`].
    pub fn new(sim: SimConfig) -> Result<Self, LiveConfigError> {
        Self::with_quantum(sim, Self::DEFAULT_QUANTUM)
    }

    /// Wraps `sim` with an explicit quantum.
    ///
    /// # Errors
    ///
    /// Returns [`LiveConfigError::BadQuantum`] for a quantum outside
    /// `(0, MAX_QUANTUM]`. `sim` is never refused.
    pub fn with_quantum(sim: SimConfig, quantum: f64) -> Result<Self, LiveConfigError> {
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

    /// Objects per class of the store, by [`Importance::index`]: what
    /// [`unstamped`] checks a wire update's index against.
    #[must_use]
    pub fn class_len(&self) -> [u32; 2] {
        [self.sim.n_low, self.sim.n_high]
    }
}

/// One batch frame's updates, decoded on its connection thread: what a
/// session's ring carries ([`Ingest::Stream`]).
#[derive(Debug, Default)]
pub struct Block {
    /// The frame's kept updates, each [`unstamped`]: what the OS queue
    /// keeps once the executor has popped the block; it writes each
    /// entry's sequence number and arrival when the entry is received.
    pub updates: Vec<Update>,
    /// When the server logs, a zeroed [`RUN_HEAD`](crate::wal::RUN_HEAD)
    /// and then the wire entries of `updates`, byte for byte as the frame
    /// held them: the WAL record body, which the executor moves to the
    /// flusher. Empty when the server keeps no log.
    pub wire: Vec<u8>,
}

/// A wire update as its connection thread puts it into a [`Block`]'s
/// updates, or `None` when it names no object of a store of `class_len`
/// objects per class (a class byte the decoder refuses, or an index out
/// of range): such an update spends the session's credit and nothing
/// else. The OS queue stamps `seq` and `arrival_ts` when it hands the
/// entry out; until then both are zero.
#[must_use]
pub fn unstamped(w: &WireUpdate, class_len: [u32; 2]) -> Option<Update> {
    let class = Importance::from_index(w.class as usize)?;
    (w.index < class_len[class.index()]).then(|| Update {
        seq: 0,
        object: ViewObjectId::new(class, w.index),
        generation_ts: LiveClock::micros_to_sim(w.generation_micros),
        arrival_ts: SimTime::ZERO,
        payload: w.payload,
        attr_mask: w.attr_mask,
    })
}

/// A session's update path, handed to the executor with its first block
/// ([`Ingest::Stream`]). Its producer validates every entry it puts into a
/// block — each is [`unstamped`] against the store the executor serves —
/// so the executor takes a block as it comes.
#[derive(Debug)]
pub struct Stream {
    /// The session's blocks, in wire order; every entry names an object
    /// of the store.
    pub blocks: spsc::Consumer<Block>,
    /// Where the executor sends the session's used-up blocks back,
    /// emptied, capacity kept, each with a wire buffer when one is
    /// spare.
    pub spent: spsc::Producer<Block>,
    /// The session's thread, which parks while it waits for the executor
    /// to pop `blocks`; the executor unparks it after each pop.
    pub session: Thread,
}

/// One message into the executor thread: the control plane of the TCP
/// connection threads (their updates ride [`Ingest::Stream`] rings) and
/// the whole interface of in-process producers.
#[derive(Debug)]
pub enum Ingest {
    /// An external update arrival (paper Figure 2, step 2), injected
    /// in-process ([`crate::server::ServerHandle::ingest`], unit tests).
    /// The TCP server never sends this: a wire update reaches the executor
    /// through its connection's ring.
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
    /// Request for an interim (or, after shutdown, final) [`RunReport`],
    /// taken when the request is handled. With a WAL the reply is an ack
    /// and leaves once the log holds every update the report counts.
    Snapshot {
        /// Where to deliver the report.
        reply: SyncSender<RunReport>,
    },
    /// Attach a lock-free update stream: the executor pops the ring on
    /// every ingest drain. This is how every wire update travels — in its
    /// frame's [`Block`], through its connection's bounded ring, never the
    /// channel, which carries the control messages.
    Stream(Stream),
    /// Stop the run; the executor finalises metrics and returns.
    Shutdown,
}

/// Timer heap entry: `(at, item)`, reversed so that `BinaryHeap`, a
/// max-heap, has the earliest instant on top (ties go to the lower item).
type Timer<T> = Reverse<(SimTime, T)>;

/// Slices between two clock readings inside a run. A reading costs 50 to
/// 100 ns (`clock.now_ns` on a 2-vCPU host), so this stride adds 1 to 2 ns
/// to an update; at the ~50 ns of executor CPU an update costs, ingest
/// included (0.05 s of `executor.cpu_s` per 1 M-update `live_drain`
/// burst on that host), it lets a run whose modelled cost is below that
/// overrun its poll deadline by about 3 µs at most.
const RUN_CLOCK_STRIDE: u32 = 64;

/// The longest an idle executor sleeps while acks are parked: a quarter
/// of the flusher's longest idle nap, so a parked reply leaves close
/// behind the write that covers it.
const ACK_TICK: f64 = 50e-6;

/// A report waiting for the WAL: it acknowledges every update accepted
/// before it was taken, so it leaves once the written watermark reaches
/// `seq`.
#[derive(Debug)]
struct Ack {
    seq: u64,
    report: RunReport,
    reply: SyncSender<RunReport>,
}

/// Why a slice stopped before its end.
enum Cut {
    /// An arrival's verdict asked for a preemption.
    Preempted(Preempt),
    /// The deadline of the transaction being run (by id) passed mid-slice.
    DeadlinePassed(u64),
    /// A shutdown request arrived mid-slice.
    Shutdown,
}

/// Arms the expiry watchdog of the value just installed into
/// `watch.object`: sets the object's bit in `armed`, at its slot, and
/// keys an `expiry` entry at `watch.at` if the bit was clear. An object's
/// expiry only moves later (an install never lowers a generation), so an
/// entry already there comes due no later than this watch, and
/// [`Executor::process_timers`] re-keys it then.
fn arm(armed: &mut [bool], expiry: &mut BinaryHeap<Timer<usize>>, watch: ExpiryWatch) {
    let slot = watch.object.slot();
    if !std::mem::replace(&mut armed[slot], true) {
        expiry.push(Reverse((watch.at, slot)));
    }
}

/// The single-threaded driver of the scheduler core, on a [`Clock`].
///
/// Construct with [`Executor::new`], feed the channel from any number of
/// producer threads, and call [`Executor::run`]; it returns the final
/// [`RunReport`] once an [`Ingest::Shutdown`] arrives (or every sender is
/// dropped).
#[derive(Debug)]
pub struct Executor<C: Clock = LiveClock> {
    /// Every piece of scheduling state, and every decision.
    core: Scheduler,
    quantum: f64,
    clock: C,
    /// The latest clock reading: where the previous scheduling point, run
    /// or burned slice ended and the next slice starts (see the module
    /// docs). Never ahead of the wall clock.
    now: SimTime,
    /// When the next scheduling point is due: one quantum past the reading
    /// the last one ended at.
    poll_by: SimTime,
    /// Whether each object, at its [`ViewObjectId::slot`], has an MA
    /// expiry pending: set by [`arm`], cleared when the expiry fires. The
    /// instant is not kept: the core answers it when the entry comes due.
    armed: Vec<bool>,
    /// One entry per set bit of `armed`, keyed by the instant of the
    /// watch that set it; a later value of the same object re-keys the
    /// entry when it comes due. At most one entry per object, whatever
    /// the update rate.
    expiry: BinaryHeap<Timer<usize>>,
    deadlines: BinaryHeap<Timer<u64>>,
    events: u64,
    shutdown: bool,
    rx: Receiver<Ingest>,
    /// Lock-free ingest rings attached by [`Ingest::Stream`], one per
    /// batching connection, each under the id its blocks are sent home
    /// by; popped on every ingest drain.
    streams: Vec<(u64, Stream)>,
    /// The id the next attached stream gets.
    next_stream: u64,
    /// The stream id of each block handed to the core and not yet back
    /// from it, in the order handed (the order they come back in).
    homes: VecDeque<u64>,
    /// Handle to the WAL flusher thread, when durability is on.
    wal: Option<crate::wal::WalHandle>,
    /// WAL counters, kept past [`WalHandle::seal`](crate::wal::WalHandle)
    /// so the final report can read the post-seal totals.
    wal_stats: Option<std::sync::Arc<crate::wal::WalStats>>,
    /// Parked acks in request order; their `seq`s never go back.
    acks: VecDeque<Ack>,
    /// Fingerprint of the configuration, stamped into snapshots.
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
    /// need the filesystem before the listener binds). The core seeds its
    /// staleness tracker and derived views from the store it is given, so
    /// a recovered store resumes exactly where the crash left it
    /// (crash-lost pending deltas are subsumed: recovery replays their
    /// base installs).
    #[must_use]
    pub fn with_wal(
        cfg: &LiveConfig,
        rx: Receiver<Ingest>,
        wal: Option<crate::wal::WalHandle>,
        recovered: Option<crate::recovery::Recovered>,
    ) -> Self {
        Executor::with_clock(cfg, rx, wal, recovered, LiveClock::start())
    }
}

impl<C: Clock> Executor<C> {
    /// [`Executor::with_wal`] on `clock`.
    fn with_clock(
        cfg: &LiveConfig,
        rx: Receiver<Ingest>,
        wal: Option<crate::wal::WalHandle>,
        recovered: Option<crate::recovery::Recovered>,
        clock: C,
    ) -> Self {
        let (store, update_seq, recovery_replayed, recovery_discarded) = match recovered {
            Some(r) => (r.store, r.next_seq, r.replayed, r.discarded),
            None => (initial_store(&cfg.sim), 0, 0, 0),
        };
        let wal_stats = wal.as_ref().map(crate::wal::WalHandle::stats);
        let snapshot_every = cfg
            .durability
            .as_ref()
            .map(|d| d.snapshot_secs)
            .filter(|s| s.is_finite() && *s > 0.0);
        let mut exec = Executor {
            core: Scheduler::new(cfg.sim.clone(), store, update_seq),
            quantum: cfg.quantum,
            clock,
            now: SimTime::ZERO,
            poll_by: SimTime::ZERO,
            armed: vec![false; ViewObjectId::slots(cfg.sim.n_low, cfg.sim.n_high)],
            expiry: BinaryHeap::new(),
            deadlines: BinaryHeap::new(),
            events: 0,
            shutdown: false,
            rx,
            streams: Vec::new(),
            next_stream: 0,
            homes: VecDeque::new(),
            wal,
            wal_stats,
            acks: VecDeque::new(),
            fingerprint: strip_core::config_fingerprint(&cfg.sim),
            snapshot_every,
            next_snapshot_at: snapshot_every.unwrap_or(f64::INFINITY),
            recovery_replayed,
            recovery_discarded,
        };
        for watch in exec.core.initial_watches() {
            arm(&mut exec.armed, &mut exec.expiry, watch);
        }
        exec
    }

    /// Runs until shutdown; returns the final report. Consumes the
    /// executor — the substrate's counters end their life in the report.
    #[must_use]
    pub fn run(mut self) -> RunReport {
        self.now = self.clock.now();
        while !self.shutdown {
            if !self.pass() && !self.shutdown {
                self.idle_wait();
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

    /// One pass of the run loop: a scheduling point, then (unless it brought
    /// a shutdown) whatever [`Executor::step`] runs before the next one;
    /// false when there was nothing to run. A pass that neither burned nor
    /// handled input (an abort) still ends on a fresh reading.
    fn pass(&mut self) -> bool {
        let polled_at = self.now;
        self.poll();
        if self.shutdown || !self.step() {
            return false;
        }
        if self.now == polled_at {
            self.now = self.clock.now();
        }
        true
    }

    /// One scheduling point at the current reading: fires due timers,
    /// drains ingest, sends used-up blocks home and the acks the WAL has
    /// caught up with, and opens the next window. Returns the verdict
    /// [`Executor::drain_ingest`] does.
    fn poll(&mut self) -> Option<Preempt> {
        self.process_timers(self.now);
        let preempt = self.drain_ingest();
        self.return_spent();
        self.release_acks();
        self.poll_by = self.now + self.quantum;
        preempt
    }

    // ---- ingest -------------------------------------------------------------

    /// Drains everything currently queued on the channel and the rings,
    /// stamping arrivals with the current reading; the clock is re-read
    /// afterwards if anything was handled (handling takes time, an empty
    /// poll does not). Returns the first verdict the core gave on behalf
    /// of a drained arrival (the burn loop cuts a transaction slice on it;
    /// the core judged later arrivals against the same slice, so the first
    /// verdict is the one the simulator would have acted on).
    fn drain_ingest(&mut self) -> Option<Preempt> {
        let now = self.now;
        let handled = self.events;
        let mut preempt = None;
        loop {
            match self.rx.try_recv() {
                Ok(msg) => preempt = preempt.or(self.handle_msg(msg, now)),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.shutdown = true;
                    break;
                }
            }
        }
        preempt = preempt.or(self.drain_streams(now));
        if self.events != handled {
            self.now = self.clock.now();
        }
        preempt
    }

    /// Pops every block currently queued in the attached lock-free
    /// rings (bounded by a per-ring length snapshot, so a producer
    /// pushing at full speed cannot pin the executor here), unparks each
    /// session whose ring it popped, and drops rings whose producer has
    /// disconnected and that are empty. Returns the first verdict a
    /// popped block was given.
    fn drain_streams(&mut self, now: SimTime) -> Option<Preempt> {
        if self.streams.is_empty() {
            return None;
        }
        let mut preempt = None;
        // The rings move out of `self` for the duration of the drain so
        // `accept_block` can borrow the rest of the executor mutably.
        let mut streams = std::mem::take(&mut self.streams);
        for (id, s) in &mut streams {
            let queued = s.blocks.len();
            for _ in 0..queued {
                let Some(block) = s.blocks.pop() else { break };
                self.homes.push_back(*id);
                preempt = preempt.or(self.accept_block(block, now));
            }
            if queued > 0 {
                s.session.unpark();
            }
        }
        streams.retain(|(_, s)| !(s.blocks.is_closed() && s.blocks.is_empty()));
        self.streams = streams;
        preempt
    }

    /// Sends each block the core has used up back to the session that
    /// filled it, with a wire buffer the flusher has sent home, when one is
    /// waiting, for the session to copy its next frame's entries into. A
    /// block whose session has gone, or whose return ring is full, is
    /// freed here.
    fn return_spent(&mut self) {
        for updates in self.core.take_spent() {
            let home = self.homes.pop_front();
            if let Some((_, s)) = self.streams.iter_mut().find(|(id, _)| Some(*id) == home) {
                let wire = self.wal.as_mut().map_or_else(Vec::new, WalHandle::spare);
                let _ = s.spent.push(Block { updates, wire });
            }
        }
    }

    /// Handles one ingest message; returns the core's verdict when it was
    /// an arrival that asks for a preemption.
    fn handle_msg(&mut self, msg: Ingest, now: SimTime) -> Option<Preempt> {
        self.events += 1;
        match msg {
            Ingest::Update(w) => return self.accept_update(&w, now),
            Ingest::Txn(w) => return self.accept_txn(w, now),
            Ingest::Query { q, reply } => {
                let _ = reply.send(self.answer_query(&q, now));
            }
            Ingest::DerivedQuery { q, reply } => {
                let _ = reply.send(self.answer_derived_query(q.node, now));
            }
            Ingest::Snapshot { reply } => {
                // An ack: the records of every update accepted so far must
                // be written (kill -9-durable) before the reply leaves, so
                // they go to the flusher now and the reply is parked.
                if let Some(wal) = &mut self.wal {
                    wal.flush();
                }
                self.acks.push_back(Ack {
                    seq: self.core.update_seq(),
                    report: self.snapshot(now),
                    reply,
                });
                self.release_acks();
            }
            Ingest::Stream(stream) => {
                self.streams.push((self.next_stream, stream));
                self.next_stream += 1;
            }
            Ingest::Shutdown => self.shutdown = true,
        }
        None
    }

    /// Hands one update arrival to the core (and, first, to the WAL).
    /// Returns the core's verdict on preemption; the burn loop acts on it.
    fn accept_update(&mut self, w: &WireUpdate, now: SimTime) -> Option<Preempt> {
        let Some(object) = self.wire_object(w.class, w.index) else {
            return None; // out-of-range target: drop silently (never sent by loadgen)
        };
        if let Some(wal) = &mut self.wal {
            // Log before state (before even the OS queue): the WAL records
            // *accepted* updates, so recovery's worthiness-checked replay
            // subsumes whatever sheds or supersessions the crash erased.
            wal.append(self.core.update_seq(), *w, LiveClock::sim_to_micros(now));
        }
        let spec = UpdateSpec {
            arrival: now,
            object,
            generation_ts: LiveClock::micros_to_sim(w.generation_micros),
            payload: w.payload,
            attr_mask: w.attr_mask,
        };
        self.core.on_update(&spec, now)
    }

    /// Hands one popped block to the core (and, first, its wire entries
    /// to the WAL). Every entry is an event and names an object of the
    /// store (its session refused the others, see [`Stream`]);
    /// [`Scheduler::on_updates`] queues the updates whole and hands them
    /// back through `take_spent` once used up. Returns the core's verdict
    /// on preemption.
    fn accept_block(&mut self, block: Block, now: SimTime) -> Option<Preempt> {
        let Block { updates, wire } = block;
        debug_assert!(updates.iter().all(|u| self.in_store(u.object)));
        self.events += updates.len() as u64;
        if let Some(wal) = &mut self.wal {
            // Log before state, with the sequence numbers the core is
            // about to stamp.
            debug_assert_eq!(wire.len(), RUN_HEAD + updates.len() * UPDATE_ENTRY);
            wal.append_run(self.core.update_seq(), LiveClock::sim_to_micros(now), wire);
        }
        self.core.on_updates(updates, now)
    }

    /// Admits one transaction and arms its deadline watchdog. Returns the
    /// core's verdict on preemption, like [`Executor::accept_update`].
    fn accept_txn(&mut self, w: WireTxn, now: SimTime) -> Option<Preempt> {
        // Only a finite, non-negative value is a value: NaN or ±inf would
        // win every value-density comparison and poison `value_committed`.
        // Like a bad read set, it invalidates the whole transaction.
        if !(w.value.is_finite() && w.value >= 0.0) {
            return None;
        }
        let class = Importance::from_index(w.class as usize)?;
        let mut reads = Vec::with_capacity(w.reads.len());
        for &(c, i) in &w.reads {
            // A bad read set invalidates the whole transaction.
            reads.push(self.wire_object(c, i)?);
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
        let (deadline, verdict) = self.core.on_txn(spec, now);
        self.deadlines.push(Reverse((deadline, w.id)));
        verdict
    }

    /// Resolves a wire (class, index) pair against the configured store.
    fn wire_object(&self, class: u8, index: u32) -> Option<ViewObjectId> {
        let object = ViewObjectId::new(Importance::from_index(class as usize)?, index);
        self.in_store(object).then_some(object)
    }

    /// True when `object` is one of the configured store's.
    fn in_store(&self, object: ViewObjectId) -> bool {
        let n = match object.class {
            Importance::Low => self.core.config().n_low,
            Importance::High => self.core.config().n_high,
        };
        object.index < n
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
        let v = self.core.store().view(obj);
        WireQueryResponse {
            payload: v.payload,
            generation_micros: LiveClock::sim_to_micros(v.generation_ts),
            age_micros: LiveClock::sim_to_micros(SimTime::from_secs(v.age_at(now))),
            uu_stale: u8::from(self.core.tracker().is_stale(obj)),
        }
    }

    /// Answers a derived-view query through the core, which makes the
    /// refresh decision a transaction's derived read gets.
    fn answer_derived_query(&mut self, node: u32, now: SimTime) -> WireDerivedQueryResponse {
        match self.core.read_derived(node, now) {
            Some(a) => WireDerivedQueryResponse {
                value: a.value,
                stale: u8::from(a.stale),
                refreshed: u8::from(a.refreshed),
            },
            None => WireDerivedQueryResponse {
                value: f64::NAN,
                stale: DERIVED_NO_SUCH_NODE,
                refreshed: 0,
            },
        }
    }

    // ---- timers -------------------------------------------------------------

    /// Fires every due MA-expiry watchdog, the warm-up snapshot, and every
    /// due deadline. Must not be called while the slice of a transaction
    /// whose deadline is already due is being burned — the burn loop
    /// checks its own deadline first, then calls this with the same `now`.
    fn process_timers(&mut self, now: SimTime) {
        // Hand the runs `append` has gathered to the flusher once per
        // quantum: an in-process update is only buffered, so this bounds
        // how long its record can sit outside the flusher's reach.
        if let Some(wal) = &mut self.wal {
            wal.flush();
        }
        self.fire_expiries(now);
        if self.core.metrics().warmup_pending() && now.as_secs() >= self.core.config().warmup {
            self.core.on_warmup_end(now);
            self.events += 1;
        }
        while let Some(&Reverse((at, id))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            self.events += 1;
            // A watchdog whose transaction already finished is stale; the
            // core ignores it.
            self.core.on_deadline(id, now);
        }
        self.maybe_snapshot(now);
    }

    /// Hands a periodic store image to the flusher when one is due. The
    /// encode is O(store) on the executor thread (cheap: tens of µs at the
    /// paper's store sizes); the atomic write and segment truncation
    /// happen on the flusher.
    ///
    /// The image is stamped with the core's `update_seq` — every update
    /// *accepted* — and the flusher cuts the log below that stamp, so the
    /// store must hold every accepted update when it is taken. A due
    /// snapshot therefore waits (re-tried at every poll) until nothing
    /// accepted is still queued or in flight: sustained backlog defers
    /// snapshots, and segment rotation alone bounds file size meanwhile.
    fn maybe_snapshot(&mut self, now: SimTime) {
        let Some(every) = self.snapshot_every else {
            return;
        };
        if now.as_secs() < self.next_snapshot_at {
            return;
        }
        let drops = self.core.queue_drops();
        if drops.left_in_os + drops.left_in_uq + drops.in_flight > 0 {
            return;
        }
        if let Some(wal) = &mut self.wal {
            let seq = self.core.update_seq();
            let image = crate::snapshot::encode(
                self.core.store(),
                self.core.config().attrs_per_object.max(1),
                self.fingerprint,
                seq,
            );
            wal.request_snapshot(image, seq);
            self.events += 1;
        }
        // Re-arm relative to now, not the missed slot, so a stall does not
        // cause a burst of back-to-back snapshots.
        self.next_snapshot_at = now.as_secs() + every;
    }

    /// Fires every MA expiry due by `now`. The core flags a due entry's
    /// object stale, and its bit is cleared, or answers the later expiry
    /// of a value installed since, and the entry is re-keyed there.
    fn fire_expiries(&mut self, now: SimTime) {
        while let Some(mut head) = self.expiry.peek_mut() {
            let Reverse((at, slot)) = *head;
            if at > now {
                break;
            }
            if let Some(later) = self.core.on_expiry(ViewObjectId::from_slot(slot), now) {
                *head = Reverse((later, slot));
                continue;
            }
            PeekMut::pop(head);
            self.armed[slot] = false;
            self.events += 1;
        }
    }

    /// The instant of the earliest pending timer, if any.
    fn next_timer_at(&self) -> Option<SimTime> {
        let e = self.expiry.peek().map(|&Reverse((at, _))| at);
        e.into_iter()
            .chain(self.deadlines.peek().map(|&Reverse((at, _))| at))
            .min()
    }

    /// Blocks on the ingest channel until a message, the next timer, or a
    /// 5 ms tick — whichever is first. Only reached when there is no work.
    /// With lock-free streams attached the tick tightens to 200 µs: ring
    /// pushes do not wake the channel, so the poll interval bounds the
    /// ring's idle-side latency. With acks parked it is [`ACK_TICK`]: the
    /// flusher's writes do not wake the channel either. Ends on a fresh
    /// reading.
    fn idle_wait(&mut self) {
        let mut wait: f64 = if !self.acks.is_empty() {
            ACK_TICK
        } else if self.streams.is_empty() {
            0.005
        } else {
            200e-6
        };
        if let Some(at) = self.next_timer_at() {
            wait = wait.min(at.since(self.now).max(0.0));
        }
        let msg = (wait > 0.0).then(|| self.rx.recv_timeout(Duration::from_secs_f64(wait)));
        self.now = self.clock.now();
        match msg {
            Some(Ok(msg)) => _ = self.handle_msg(msg, self.now),
            Some(Err(RecvTimeoutError::Disconnected)) => self.shutdown = true,
            _ => {}
        }
    }

    // ---- slices -------------------------------------------------------------

    /// Runs the core from the current reading until a scheduling point is
    /// due: a run of update work at its planned instants, then — settled —
    /// at most one burned update slice, or the transaction slices that
    /// follow each other without one. Returns false when there is nothing
    /// to run (the caller then blocks on ingest).
    fn step(&mut self) -> bool {
        let Some(mut secs) = self.core.next_slice(self.now) else {
            return false;
        };
        // Planned time: where the slice that is out starts. It leaves
        // `self.now` behind through a run and is settled before anything
        // but the core reads it.
        let mut at = self.now;
        let mut run = 0u32;
        loop {
            let stride = RUN_CLOCK_STRIDE - run % RUN_CLOCK_STRIDE;
            let (armed, expiry) = (&mut self.armed, &mut self.expiry);
            let ran = self
                .core
                .run_updates(at, secs, self.poll_by, stride, |watch| {
                    arm(armed, expiry, watch);
                });
            self.events += u64::from(ran.finished);
            (at, run) = (ran.at, run + ran.finished);
            let Some(next) = ran.next else {
                // A run cut at the stride reads the clock: past the poll
                // deadline the window is over, short of it the run goes on.
                if ran.finished == stride {
                    let reading = self.clock.now();
                    if reading >= self.poll_by {
                        self.now = reading;
                        return true;
                    }
                    if let Some(next) = self.core.next_slice(at) {
                        secs = next;
                        continue;
                    }
                }
                self.settle(at);
                return true;
            };
            secs = next;
            // Only a slice of the bound transaction can be cut by an
            // arrival or by its own deadline.
            let txn = self.core.txn_on_cpu().map(|t| (t.id(), t.deadline()));
            if run > 0 {
                self.settle(at);
                // Update work too long for what is left of the window gets
                // the scheduling point the run loop gives a step's first
                // slice. A transaction slice polls after its every chunk,
                // the first of which ends with the window.
                if txn.is_none() {
                    self.poll();
                    if self.shutdown {
                        self.core.interrupt(0.0, self.now);
                        return true;
                    }
                }
            }
            let started = self.now;
            if let Some(cut) = self.burn(started + secs, txn) {
                // A cut slice consumed the wall time since its start,
                // capped at its plan. Update work cut by a shutdown is
                // neither applied nor queued: it stays on the core's CPU,
                // and every later report counts it as in flight so the
                // conservation identity still closes.
                let performed = self.now.since(started).min(secs);
                match cut {
                    Cut::Preempted(verdict) => self.core.preempt(verdict, performed, self.now),
                    Cut::DeadlinePassed(id) => {
                        self.core.interrupt(performed, self.now);
                        self.core.on_deadline(id, self.now);
                    }
                    Cut::Shutdown => self.core.interrupt(performed, self.now),
                }
                return true;
            }
            self.finish(self.now);
            // What follows a transaction slice starts at this very
            // reading, already polled by the slice's last chunk; after
            // burned update work the run loop polls first.
            if txn.is_none() {
                return true;
            }
            match self.core.next_slice(self.now) {
                Some(next) => secs = next,
                None => return true,
            }
            (at, run) = (self.now, 0);
        }
    }

    /// The slice that is out ran its full length, to `at`: hands it back
    /// to the core and arms the watch of the value it installed, if any.
    fn finish(&mut self, at: SimTime) {
        if let Some(watch) = self.core.finish(at) {
            arm(&mut self.armed, &mut self.expiry, watch);
        }
        self.events += 1;
    }

    /// Settles a run: spins until the wall clock has reached `planned`,
    /// the instant the run's last slice ended at, so that whatever follows
    /// — a poll, a burned slice — starts at a reading no effect of the run
    /// lies ahead of. One reading when the wall is already there.
    fn settle(&mut self, planned: SimTime) {
        if planned > self.now {
            self.now = self.clock.spin_until(planned);
        }
    }

    /// Burns the slice on the core's CPU from the current reading to `end`
    /// in chunks that stop at the poll deadline, with a scheduling point
    /// after each chunk. The end is fixed, so a chunk's overshoot shortens
    /// the next chunk instead of lengthening the slice. Returns why the
    /// slice was cut, or `None` when it ran its full length.
    ///
    /// `txn` is the id and deadline of the transaction a transaction
    /// slice belongs to. Such a slice polls after every chunk, the last
    /// included, because what follows it starts without returning to the
    /// run loop; its own deadline is checked *before* timers are processed
    /// so `process_timers` never races it. Update work (installs are never
    /// preempted, §4.2) does not poll after its last chunk — the run loop
    /// does, at the same reading — and only a shutdown cuts it.
    fn burn(&mut self, end: SimTime, txn: Option<(u64, SimTime)>) -> Option<Cut> {
        loop {
            if txn.is_some() && self.now >= end {
                return None;
            }
            self.now = self.clock.spin_until(end.min(self.poll_by));
            match txn {
                None if self.now >= end => return None,
                Some((id, deadline)) if self.now >= deadline => {
                    return Some(Cut::DeadlinePassed(id));
                }
                _ => {}
            }
            // The core asks for a preemption only while a transaction
            // slice is out.
            let preempt = self.poll();
            if self.shutdown {
                return Some(Cut::Shutdown);
            }
            if let Some(verdict) = preempt {
                return Some(Cut::Preempted(verdict));
            }
        }
    }

    // ---- reports ------------------------------------------------------------

    /// The core's report as of `now` (interim: the run itself continues
    /// untouched) with the durability counters filled in.
    fn snapshot(&self, now: SimTime) -> RunReport {
        let mut report = self
            .core
            .report(now, self.events, ResilienceStats::default());
        // Flusher totals plus what recovery did at startup.
        report.durability = self
            .wal_stats
            .as_ref()
            .map(|s| s.durability())
            .unwrap_or_default();
        report.durability.recovery_replayed = self.recovery_replayed;
        report.durability.recovery_discarded = self.recovery_discarded;
        report
    }

    /// Sends every parked ack the WAL's written watermark covers, in
    /// request order. Without a WAL every ack is covered, and so it is
    /// once the flusher has failed: the run continues undurable.
    fn release_acks(&mut self) {
        let written = match &self.wal_stats {
            Some(stats) if !stats.is_failed() => stats.written_seq(),
            _ => u64::MAX,
        };
        let due = self.acks.partition_point(|ack| ack.seq <= written);
        for ack in self.acks.drain(..due) {
            let _ = ack.reply.send(ack.report);
        }
    }

    /// Final accounting: the same report, after the WAL is sealed.
    fn finalize(mut self) -> RunReport {
        // Seal the WAL first (drain, append the seal record, fsync): the
        // final report's counters then include the close-out fsync, and an
        // orderly shutdown is provably non-lossy before we claim success.
        // The seal writes every record, so every parked ack leaves.
        if let Some(wal) = self.wal.take() {
            if let Err(e) = wal.seal() {
                eprintln!("stripd: wal seal failed: {e}");
            }
        }
        self.release_acks();
        self.snapshot(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::tests::TestClock;
    use crate::wal::tests::{scratch, stepped_log, Stepper};
    use crate::wal::{batch_len, DurabilityConfig, FsyncPolicy, WalHandle, HDR_LEN};
    use std::path::PathBuf;
    use std::sync::mpsc;
    use strip_core::config::Policy;
    use strip_db::cost::CostModel;
    use strip_db::staleness::StalenessSpec;

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

    /// Objects per class of [`base_cfg`]'s store.
    const BASE_CLASS_LEN: [u32; 2] = [4, 4];

    /// The block a logging connection thread decodes from a frame of
    /// `updates`, each naming an object of [`base_cfg`]'s store.
    fn block(updates: impl IntoIterator<Item = WireUpdate>) -> Block {
        let updates: Vec<WireUpdate> = updates.into_iter().collect();
        let mut wire = vec![0; RUN_HEAD];
        for w in &updates {
            crate::protocol::put_update(&mut wire, w);
        }
        Block {
            updates: updates
                .iter()
                .map(|w| unstamped(w, BASE_CLASS_LEN).expect("an object of the store"))
                .collect(),
            wire,
        }
    }

    /// A session of `cap` ring slots on this thread: the producer of its
    /// blocks, the [`Stream`] that attaches it, and the consumer its
    /// blocks come home on.
    fn session(cap: usize) -> (spsc::Producer<Block>, Stream, spsc::Consumer<Block>) {
        let (producer, blocks) = spsc::ring(cap);
        let (spent, home) = spsc::ring(cap);
        let session = std::thread::current();
        let stream = Stream {
            blocks,
            spent,
            session,
        };
        (producer, stream, home)
    }

    /// Each block the core has used up goes back, emptied and in its own
    /// allocation, to the session that filled it, in its turn.
    #[test]
    fn used_up_blocks_go_home_to_the_session_that_filled_them() {
        let (tx, mut exec) = stepped(LiveConfig::DEFAULT_QUANTUM);
        let (mut a, stream_a, mut home_a) = session(8);
        let (mut b, stream_b, mut home_b) = session(8);
        let fill = |ring: &mut spsc::Producer<Block>, index: u32| {
            let block = block([wire_update(0, index, 1_000, 1.0)]);
            let at = block.updates.as_ptr();
            ring.push(block).expect("ring has room");
            at
        };
        let a_blocks = [fill(&mut a, 1), fill(&mut a, 0), fill(&mut a, 2)];
        let b_blocks = [fill(&mut b, 3)];
        tx.send(Ingest::Stream(stream_a)).expect("attach a");
        tx.send(Ingest::Stream(stream_b)).expect("attach b");
        while exec.pass() {}
        assert_eq!(exec.core.store().installs(), 4);
        for (home, sent) in [(&mut home_a, &a_blocks[..]), (&mut home_b, &b_blocks[..])] {
            let back: Vec<_> = std::iter::from_fn(|| home.pop())
                .map(|block| {
                    let updates = block.updates;
                    assert!(updates.is_empty() && updates.capacity() == 1);
                    assert!(block.wire.is_empty(), "no log: no wire buffer");
                    updates.as_ptr()
                })
                .collect();
            assert_eq!(back, sent);
        }
    }

    /// An update naming no object of the store, by class or by index
    /// against the served store's class sizes, is not unstamped.
    #[test]
    fn unstamped_refuses_an_update_naming_no_object_of_the_store() {
        for (class, index) in [(2, 0), (0, 4), (1, 4), (1, u32::MAX)] {
            let w = wire_update(class, index, 0, 0.0);
            assert!(unstamped(&w, BASE_CLASS_LEN).is_none(), "{class}/{index}");
        }
        assert!(unstamped(&wire_update(1, 3, 0, 0.0), BASE_CLASS_LEN).is_some());
        // The sizes are the served store's, class by class.
        assert!(unstamped(&wire_update(1, 4, 0, 0.0), [4, 5]).is_some());
        assert!(unstamped(&wire_update(0, 4, 0, 0.0), [4, 5]).is_none());
    }

    #[test]
    fn every_valid_sim_config_builds_a_live_config() {
        use strip_core::config::{DisturbanceSpec, HistoryAccess, IoModel, TriggerConfig};
        let every_extension = SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .n_general(4)
            .history(Some(HistoryAccess::default()))
            .triggers(Some(TriggerConfig::default()))
            .io(Some(IoModel::default()))
            .disturbance(Some(DisturbanceSpec {
                outage_from: 1.0,
                outage_secs: 1.0,
            }))
            .txn_preemption(true)
            .build()
            .expect("valid config");
        assert!(LiveConfig::new(every_extension).is_ok());
        // The quantum is the one thing a live config can get wrong.
        for quantum in [0.0, -1.0, 1.0, f64::NAN] {
            let err = LiveConfig::with_quantum(base_cfg(), quantum).unwrap_err();
            assert!(matches!(err, LiveConfigError::BadQuantum(_)), "{err}");
        }
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
        let (mut prod, stream, _) = session(64);
        for frame in [0..3u32, 3..4, 4..10] {
            prod.push(block(frame.map(|i| {
                wire_update(
                    u8::from(i % 2 == 0),
                    i % 4,
                    1_000 * i64::from(i + 1),
                    f64::from(i),
                )
            })))
            .expect("ring has room");
        }
        drop(prod);
        // The shutdown is already queued behind the stream attach: the
        // executor must still pop every ring entry before finalising.
        tx.send(Ingest::Stream(stream)).expect("attach stream");
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = exec.run();
        assert_eq!(report.updates.arrived, 10);
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    }

    /// An update naming an object outside the store is refused where its
    /// frame is decoded, against the served configuration's class sizes,
    /// as a session decodes it: it never reaches the executor, so it is no
    /// event, takes no sequence number, and is neither arrived nor
    /// logged. That it still spends the session's credit is
    /// `server::tests::an_out_of_range_update_spends_credit_and_is_neither_arrived_nor_logged`.
    #[test]
    fn an_out_of_range_update_is_refused_before_it_is_an_event() {
        let (tx, mut exec, _flusher, dir) = stepped_durable(base_cfg(), "exec-out-of-range");
        exec.poll(); // the warm-up end fires here, not below
        let (mut prod, stream, _) = session(8);
        let class_len = LiveConfig::new(base_cfg())
            .expect("valid live config")
            .class_len();
        let frame = [(0, 0), (0, 9), (1, 1), (1, 4), (0, 2)];
        let decoded = block(
            frame
                .iter()
                .map(|&(class, index)| wire_update(class, index, 1_000, 1.0))
                .filter(|w| unstamped(w, class_len).is_some()),
        );
        assert_eq!(decoded.updates.len(), 3);
        prod.push(decoded).expect("ring has room");
        tx.send(Ingest::Stream(stream)).expect("attach stream");
        let before = exec.events;
        exec.poll();
        assert_eq!(exec.events - before, 1 + 3, "the attach and three pops");
        assert_eq!(exec.core.update_seq(), 3);
        // `appended` counts a block when it is handed to the flusher, at
        // its pop.
        let report = exec.snapshot(exec.now);
        assert_eq!(report.updates.arrived, 3);
        assert_eq!(report.durability.wal_appended, 3);
        let _ = std::fs::remove_dir_all(&dir);
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
            std::thread::sleep(Duration::from_millis(1));
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
        stepped_with(updates_first(), quantum)
    }

    /// The configuration [`stepped`] runs.
    fn updates_first() -> SimConfig {
        SimConfig {
            policy: Policy::UpdatesFirst,
            feasible_deadline: false,
            ..base_cfg()
        }
    }

    /// [`stepped`] over any configuration.
    fn stepped_with(sim: SimConfig, quantum: f64) -> (mpsc::Sender<Ingest>, Executor) {
        stepped_on(sim, quantum, LiveClock::start())
    }

    /// [`stepped_with`] on any clock.
    fn stepped_on<C: Clock>(
        sim: SimConfig,
        quantum: f64,
        clock: C,
    ) -> (mpsc::Sender<Ingest>, Executor<C>) {
        let cfg = LiveConfig::with_quantum(sim, quantum).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let mut exec = Executor::with_clock(&cfg, rx, None, None, clock);
        exec.now = exec.clock.now();
        (tx, exec)
    }

    /// [`stepped_with`] over a log in a fresh directory named after `tag`,
    /// whose flusher the test steps: nothing is written until it does.
    fn stepped_durable(
        sim: SimConfig,
        tag: &str,
    ) -> (mpsc::Sender<Ingest>, Executor, Stepper, PathBuf) {
        let dir = scratch(tag);
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let (wal, flusher) = stepped_log(&DurabilityConfig::new(&dir));
        let (tx, rx) = mpsc::channel();
        let mut exec = Executor::with_wal(&cfg, rx, Some(wal), None);
        exec.now = exec.clock.now();
        (tx, exec, flusher, dir)
    }

    /// Asks for a report; the reply arrives on the returned receiver.
    fn ask_report(tx: &mpsc::Sender<Ingest>) -> mpsc::Receiver<RunReport> {
        let (rtx, rrx) = mpsc::sync_channel(1);
        tx.send(Ingest::Snapshot { reply: rtx })
            .expect("send snapshot");
        rrx
    }

    /// Keeps the core's trace from here on, so a test can read the stamps
    /// the driver hands it ([`trace_of`]).
    fn traced<C: Clock>(mut exec: Executor<C>) -> Executor<C> {
        exec.core.set_trace(strip_obs::TraceConfig {
            capacity: 1 << 20,
            gauge_every: None,
        });
        exec
    }

    /// `n` updates with rising generations, spread over both classes and
    /// `per_class` objects of each, handed to the core at the current
    /// reading: a backlog already in the OS queue.
    fn backlog<C: Clock>(exec: &mut Executor<C>, n: u64, per_class: u64) {
        for i in 0..n {
            let w = wire_update(
                (i % 2) as u8,
                (i / 2 % per_class) as u32,
                i as i64 + 1,
                i as f64,
            );
            exec.accept_update(&w, exec.now);
        }
    }

    /// A model whose install (24 000 instructions at Table 3) takes
    /// `install_secs`.
    fn costs_with_install(install_secs: f64) -> CostModel {
        let table3 = CostModel::default();
        CostModel {
            ips: table3.ips * table3.install_time() / install_secs,
            ..table3
        }
    }

    /// The records of a [`traced`] executor, in the order the driver
    /// caused them: their stamps must never go back, and none may lie
    /// ahead of the reading the executor is at.
    fn trace_of<C: Clock>(exec: &mut Executor<C>) -> Vec<strip_obs::TraceRecord> {
        let trace = exec.core.take_trace().expect("a traced executor");
        assert_eq!(trace.overwritten, 0, "the trace ring was too small");
        let stamps = trace.records;
        assert!(
            stamps.windows(2).all(|w| w[0].at <= w[1].at),
            "stamps went back"
        );
        assert!(stamps.last().is_none_or(|r| r.at <= exec.now.as_secs()));
        stamps
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

    /// What a stride of installs costs the runtime at ~100 ns each: the
    /// test clock's step, so that under a model cheaper than the runtime
    /// only the runtime's own time moves the clock, as on the wall.
    const STRIDE_WALL: f64 = RUN_CLOCK_STRIDE as f64 * 100e-9;

    #[test]
    fn a_run_of_installs_reads_the_clock_once_per_stride() {
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
        let clock = TestClock::new(STRIDE_WALL);
        let (tx, mut exec) = stepped_on(sim, LiveConfig::DEFAULT_QUANTUM, clock);
        for i in 0..N {
            tx.send(Ingest::Update(wire_update(
                (i % 2) as u8,
                (i % 4) as u32,
                i as i64 + 1,
                i as f64,
            )))
            .expect("send update");
        }
        let before = exec.clock.reads();
        let mut passes = 0;
        while exec.pass() {
            passes += 1;
        }
        let reads = exec.clock.reads() - before;
        assert_eq!(exec.core.store().installs(), N);
        // A stride reading per 64 installs, and per pass at most three
        // more: after the poll that drained the channel, the settle of the
        // run's end (two when it waits) or the fresh reading of a pass that
        // only polled.
        let strides = N / u64::from(RUN_CLOCK_STRIDE);
        assert!(
            (strides..=strides + 3 * passes).contains(&reads),
            "{reads} clock readings in {passes} passes for {N} installed updates"
        );
        assert!(reads * 50 <= N, "more than 0.02 readings per update");
    }

    #[test]
    fn a_run_is_charged_its_planned_time_and_settled_before_the_next_poll() {
        // 50 installs of 4.8 µs: 240 µs of planned time, one window.
        const N: u64 = 50;
        let costs = costs_with_install(4.8e-6);
        let sim = SimConfig {
            policy: Policy::UpdatesFirst,
            costs,
            ..base_cfg()
        };
        let (_tx, exec) = stepped_with(sim, LiveConfig::DEFAULT_QUANTUM);
        let mut exec = traced(exec);
        backlog(&mut exec, N, 4);
        exec.poll();
        let started = exec.now;
        assert!(exec.step());
        // One step ran them all.
        assert_eq!(exec.core.store().installs(), N);
        let planned = N as f64 * costs.install_time();
        let busy = exec.core.metrics().busy_update_so_far();
        assert!(
            (busy - planned).abs() < 1e-12,
            "charged {busy}, planned {planned}"
        );
        // Settled: the wall clock has reached the last planned instant.
        assert!(exec.now.since(started) >= planned - 1e-12);
        assert!(exec.now <= exec.clock.now());
        assert!(busy <= exec.now.as_secs());
        trace_of(&mut exec);
    }

    #[test]
    fn interim_reports_between_runs_conserve_updates_and_busy_time() {
        // A model cheaper than the runtime: planned time lags the wall.
        const N: u64 = 100_000;
        let sim = SimConfig {
            policy: Policy::UpdatesFirst,
            os_max: N as usize + 1,
            costs: costs_with_install(48e-9),
            ..base_cfg()
        };
        let (_tx, exec) = stepped_with(sim, LiveConfig::DEFAULT_QUANTUM);
        let mut exec = traced(exec);
        backlog(&mut exec, N, 4);
        let mut interim = 0;
        while exec.pass() {
            assert!(
                exec.now <= exec.clock.now(),
                "a poll ahead of the wall clock"
            );
            let report = exec.snapshot(exec.now);
            assert_eq!(report.updates.arrived, N);
            assert_eq!(report.updates.terminal_total(), report.updates.arrived);
            let m = exec.core.metrics();
            assert!(m.busy_update_so_far() + m.busy_txn_so_far() <= exec.now.as_secs());
            interim += u32::from(exec.core.queue_drops().left_in_os > 0);
        }
        assert!(interim > 0, "no report was taken under backlog");
        assert_eq!(exec.core.store().installs(), N);
        trace_of(&mut exec);
    }

    #[test]
    fn paper_scale_installs_get_a_scheduling_point_each() {
        use strip_obs::TraceKind;
        // Table 3: a 480 µs install against the 500 µs quantum. One fits a
        // window and the next does not, so the run is one slice long and
        // every install is followed by a scheduling point — the run loop's,
        // or the one a step gives the slice too long for its window.
        let (tx, exec) = stepped(LiveConfig::DEFAULT_QUANTUM);
        let mut exec = traced(exec);
        let install = CostModel::default().install_time();
        backlog(&mut exec, 10, 4);
        let mut points = 0;
        let mut arrival = None;
        while exec.core.store().installs() < 10 {
            let before = exec.core.store().installs();
            exec.poll();
            points += 1;
            // Waiting in the channel while the step runs: whichever
            // scheduling point comes next answers it.
            let (rtx, rrx) = mpsc::sync_channel(1);
            tx.send(Ingest::Snapshot { reply: rtx })
                .expect("send snapshot");
            if arrival.is_none() {
                tx.send(Ingest::Update(wire_update(1, 3, 1_000, 7.0)))
                    .expect("send update");
                arrival = Some(exec.core.update_seq());
            }
            assert!(exec.step());
            let after = exec.core.store().installs();
            assert!(
                after - before <= 2,
                "{} installs on one poll",
                after - before
            );
            if let Ok(mid) = rrx.try_recv() {
                // Taken inside the step: between its two installs.
                assert_eq!(mid.updates.installed_total(), before + 1);
                assert_eq!(after, before + 2);
                points += 1;
            }
        }
        assert!(points >= 10, "{points} scheduling points for 10 installs");
        // The update sent while the first install ran was stamped before
        // the second began: a whole install lies between its arrival and
        // the second install's end.
        let stamps = trace_of(&mut exec);
        let arrived = stamps
            .iter()
            .rfind(|r| matches!(r.kind, TraceKind::QueueDepth { os: 9, .. }))
            .expect("the sent update reached the OS queue behind eight others")
            .at;
        let ends: Vec<f64> = stamps
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Install { .. }))
            .map(|r| r.at)
            .collect();
        assert!(ends[0] <= arrived, "stamped before the first install ended");
        assert!(
            arrived + install <= ends[1] + 1e-12,
            "stamped inside the second"
        );
    }

    #[test]
    fn a_cost_free_backlog_still_polls_every_quantum() {
        // live_drain's shape — 1 M updates over 512 objects already in the
        // OS queue — under a model where planned time all but stands
        // still, so only the in-run clock stride ends a run.
        const N: u64 = 1_000_000;
        let quantum = LiveConfig::DEFAULT_QUANTUM;
        let sim = SimConfig {
            n_low: 256,
            n_high: 256,
            os_max: N as usize + 1,
            costs: CostModel {
                ips: 1.0e15,
                ..CostModel::default()
            },
            ..updates_first()
        };
        let (tx, mut exec) = stepped_on(sim, quantum, TestClock::new(STRIDE_WALL));
        backlog(&mut exec, N, 256);
        exec.now = exec.clock.now();
        // A transaction the backlog starves: its deadline passes unserved.
        exec.accept_txn(wire_txn(1_000, 9_000), exec.now);
        let Reverse((deadline, _)) = *exec.deadlines.peek().expect("armed");
        for _ in 0..3 {
            assert!(exec.pass());
        }
        let (qtx, qrx) = mpsc::sync_channel(1);
        let asked = exec.now;
        tx.send(Ingest::Query {
            q: WireQuery { class: 0, index: 1 },
            reply: qtx,
        })
        .expect("send query");
        let (mut answered, mut missed) = (None, None);
        while answered.is_none() || missed.is_none() {
            let polled_at = exec.now;
            assert!(exec.pass(), "the backlog ran out first");
            if answered.is_none() && qrx.try_recv().is_ok() {
                answered = Some(exec.now.since(asked));
            }
            if missed.is_none() && exec.deadlines.is_empty() {
                missed = Some(polled_at.since(deadline));
            }
        }
        assert!(exec.core.queue_drops().left_in_os > 0, "not mid-backlog");
        let (answered, missed) = (answered.expect("set"), missed.expect("set"));
        // The query is answered by the next poll, and the pass that poll
        // opens is one window long, counted from the reading after the
        // drain, plus the stride reading that ends its run: both one step
        // of the clock.
        assert!(
            answered <= quantum + 2.0 * STRIDE_WALL,
            "query answered after {answered} s"
        );
        assert!(
            (0.0..=quantum).contains(&missed),
            "miss seen {missed} s late"
        );
        while exec.pass() {}
        assert_eq!(exec.core.store().installs(), N);
        // One watch per object, however many installs.
        assert!(
            exec.expiry.len() <= 512,
            "{} heap entries",
            exec.expiry.len()
        );
        assert_eq!(exec.finalize().txns.missed_deadline, 1);
    }

    #[test]
    fn a_transaction_under_backlog_starts_at_a_reading_the_wall_has_reached() {
        use strip_obs::{TraceKind, TraceTrack};
        // Transactions first, installs in idle time, and a 40 µs install:
        // planned time runs ahead of the wall through every run.
        let sim = SimConfig {
            policy: Policy::TransactionsFirst,
            costs: costs_with_install(40e-6),
            ..base_cfg()
        };
        let (tx, exec) = stepped_with(sim, LiveConfig::DEFAULT_QUANTUM);
        let mut exec = traced(exec);
        backlog(&mut exec, 100, 4);
        for _ in 0..2 {
            assert!(exec.pass());
        }
        let installed = exec.core.store().installs();
        assert!((1..100).contains(&installed), "{installed} installed");
        tx.send(Ingest::Txn(wire_txn(1_000, 50_000)))
            .expect("send txn");
        let wall = exec.clock.now();
        while exec.pass() {
            assert!(
                exec.now <= exec.clock.now(),
                "a poll ahead of the wall clock"
            );
        }
        let stamps = trace_of(&mut exec);
        let start = stamps
            .iter()
            .find(|r| {
                matches!(
                    r.kind,
                    TraceKind::SliceStart {
                        track: TraceTrack::Txn,
                        ..
                    }
                )
            })
            .expect("the transaction ran");
        // It arrived at a poll and started there: after the send, on a
        // settled reading — every install planned before it lies behind.
        assert!(start.at >= wall.as_secs());
        let report = exec.finalize();
        assert_eq!(report.txns.committed, 1);
        assert_eq!(report.updates.installed_total(), 100);
    }

    #[test]
    fn only_the_latest_watch_of_an_object_is_kept_and_fires() {
        let alpha = 0.050;
        let sim = SimConfig {
            policy: Policy::UpdatesFirst,
            staleness: StalenessSpec::MaxAge { alpha },
            os_max: 100_001,
            costs: costs_with_install(48e-9),
            ..base_cfg()
        };
        let quantum = LiveConfig::DEFAULT_QUANTUM;
        let (_tx, mut exec) = stepped_with(sim, quantum);
        let (a, b) = (
            ViewObjectId::new(Importance::Low, 1),
            ViewObjectId::new(Importance::High, 2),
        );
        // 100 000 installs over four objects (two per class), generated
        // over the last 100 ms: the oldest arrive expired, the rest arm a
        // watch each.
        exec.now = exec.clock.spin_until(SimTime::from_secs(0.101));
        let micros = LiveClock::sim_to_micros(exec.now);
        for i in 0..100_000i64 {
            let w = wire_update(
                (i % 2) as u8,
                1 + (i / 2 % 2) as u32,
                micros - 99_999 + i,
                1.0,
            );
            exec.accept_update(&w, exec.now);
        }
        while exec.pass() {}
        assert_eq!(exec.core.store().installs(), 100_000);
        assert!(exec.expiry.len() <= 4, "{} heap entries", exec.expiry.len());
        // A and B get a value generated now; then idle, a poll every
        // 100 µs, and 30 ms in A is overwritten.
        let t0 = exec.now;
        for w in [(0, 1), (1, 2)] {
            exec.accept_update(
                &wire_update(w.0, w.1, LiveClock::sim_to_micros(t0), 2.0),
                t0,
            );
        }
        let t1 = t0 + 0.030;
        let (mut a_stale_at, mut b_stale_at) = (None, None);
        let mut overwritten = false;
        while a_stale_at.is_none() {
            exec.now = exec.clock.spin_until(exec.now + 100e-6);
            if !overwritten && exec.now >= t1 {
                exec.accept_update(
                    &wire_update(0, 1, LiveClock::sim_to_micros(t1), 3.0),
                    exec.now,
                );
                overwritten = true;
            }
            exec.pass();
            assert!(exec.expiry.len() <= 4, "{} heap entries", exec.expiry.len());
            if b_stale_at.is_none() && exec.core.tracker().is_stale(b) {
                // The watch of A's overwritten value was due with B's.
                assert!(
                    !exec.core.tracker().is_stale(a),
                    "an overwritten watch fired"
                );
                b_stale_at = Some(exec.now);
            }
            if exec.core.tracker().is_stale(a) {
                a_stale_at = Some(exec.now);
            }
        }
        // Each flips at its latest generation + α; the bound leaves room
        // for a lost timeslice (one quantum when the thread keeps its CPU).
        let slack = 20.0 * quantum;
        let b_late = b_stale_at.expect("B expires before A").since(t0 + alpha);
        let a_late = a_stale_at.expect("loop ended").since(t1 + alpha);
        assert!(
            (-2e-6..slack).contains(&b_late),
            "B flipped {b_late} s late"
        );
        assert!(
            (-2e-6..slack).contains(&a_late),
            "A flipped {a_late} s late"
        );
    }

    #[test]
    fn three_quantum_install_spans_three_quanta_and_is_charged_end_to_end() {
        // Table 3 install: 24 000 instructions at 50 MIPS = 480 µs, three
        // quanta. On a test clock whose readings take no time every chunk
        // ends exactly at its poll deadline and the last at the slice's
        // end, so the span is the plan, with no wall-clock overshoot. In
        // floating point 3 × 160 µs lies one ulp above 480 µs (and the
        // third poll deadline one below the slice's end), so the span is
        // held to the plan, and to more than two quanta, not to that
        // product.
        let quantum = 160e-6;
        let install = CostModel::default().install_time();
        let (_tx, mut exec) = stepped_on(updates_first(), quantum, TestClock::new(0.0));
        exec.accept_update(&wire_update(0, 1, 1_000, 1.0), exec.now);
        exec.poll();
        let started = exec.now;
        assert!(exec.step());
        let spanned = exec.now.since(started);
        assert_eq!(exec.now, started + install);
        assert!(spanned > 2.0 * quantum, "slice spanned only {spanned} s");
        assert_eq!(exec.core.metrics().busy_update_so_far(), spanned);
        assert_eq!(exec.finalize().updates.installed_total(), 1);
    }

    /// After recovery an expiry flags its object stale at generation + α,
    /// for a recovered value and an installed one alike, whatever the
    /// recovered store's versions read.
    #[test]
    fn a_recovered_store_still_expires_objects_at_generation_plus_alpha() {
        use strip_db::object::ViewObject;
        use strip_db::store::Store;
        let alpha = 0.050;
        let sim = SimConfig {
            staleness: StalenessSpec::MaxAge { alpha },
            ..updates_first()
        };
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let store = Store::restore(4, 4, 0, |_| {
            ViewObject::restore(1.0, 7, vec![SimTime::ZERO])
        });
        let recovered = crate::recovery::Recovered {
            store,
            next_seq: 100,
            replayed: 0,
            discarded: 0,
            snapshot_loaded: true,
        };
        let (_tx, rx) = mpsc::channel();
        let clock = TestClock::new(1e-6);
        let mut exec = Executor::with_clock(&cfg, rx, None, Some(recovered), clock);
        exec.now = exec.clock.now();
        let (a, b) = (
            ViewObjectId::new(Importance::Low, 1),
            ViewObjectId::new(Importance::High, 2),
        );
        // A gets a value generated at 20 ms; B keeps its recovered one.
        exec.accept_update(&wire_update(0, 1, 20_000, 2.0), exec.now);
        while exec.pass() {}
        assert_eq!(exec.core.store().view(a).version, 8);
        let (mut a_stale_at, mut b_stale_at) = (None, None);
        while a_stale_at.is_none() {
            exec.clock.advance(100e-6);
            exec.now = exec.clock.now();
            exec.pass();
            let tracker = exec.core.tracker();
            if b_stale_at.is_none() && tracker.is_stale(b) {
                assert!(!tracker.is_stale(a), "A flipped with B's expiry");
                b_stale_at = Some(exec.now);
            }
            if tracker.is_stale(a) {
                a_stale_at = Some(exec.now);
            }
            assert!(exec.now.as_secs() < 1.0, "A never expired");
        }
        // Each flips at the first poll at or past its expiry: one 100 µs
        // step late at most.
        let b_late = b_stale_at
            .expect("B expires before A")
            .since(SimTime::from_secs(alpha));
        let a_late = a_stale_at
            .expect("loop ended")
            .since(SimTime::from_secs(0.020 + alpha));
        for late in [b_late, a_late] {
            assert!((0.0..=110e-6).contains(&late), "flipped {late} s late");
        }
        assert!(exec.expiry.is_empty() && exec.armed.iter().all(|&bit| !bit));
    }

    #[test]
    fn deadline_inside_a_slice_aborts_within_one_quantum() {
        let quantum = LiveConfig::DEFAULT_QUANTUM;
        let (_tx, mut exec) = stepped_on(updates_first(), quantum, TestClock::new(1e-6));
        // 50 ms of work due 50 ms after arrival, started 30 ms late: the
        // deadline falls 20 ms into the 50 ms slice.
        exec.accept_txn(wire_txn(50_000, 0), exec.now);
        let deadline = exec.now + 0.050;
        exec.now = exec.clock.spin_until(exec.now + 0.030);
        assert!(exec.step());
        assert!(
            exec.core.bound_txn().is_none(),
            "the late transaction must be gone"
        );
        // The slice is burned in chunks that end one quantum apart, and the
        // deadline is checked at each chunk's end.
        let late = exec.now.since(deadline);
        assert!(
            (0.0..=quantum).contains(&late),
            "abort detected {late} s late"
        );
        let report = exec.finalize();
        assert_eq!(report.txns.missed_deadline, 1);
        assert_eq!(report.txns.committed, 0);
    }

    /// The live twin of `deadline_inside_an_od_apply_puts_the_update_back`
    /// (`controller_scenarios.rs`): the deadline cuts the on-demand apply,
    /// and the update it took goes back to the update queue.
    #[test]
    fn a_deadline_inside_an_od_apply_puts_the_update_back() {
        let sim = SimConfig {
            policy: Policy::OnDemand,
            staleness: StalenessSpec::UnappliedUpdate,
            feasible_deadline: false,
            // A 48 ms install: an 8 ms lookup and a 40 ms write.
            costs: costs_with_install(0.048),
            ..base_cfg()
        };
        let clock = TestClock::new(1e-6);
        let (_tx, mut exec) = stepped_on(sim, LiveConfig::DEFAULT_QUANTUM, clock);
        exec.accept_update(&wire_update(0, 1, 1_000, 1.0), exec.now);
        // Due 20 ms into the write that follows the read's lookup.
        let od_read = WireTxn {
            reads: vec![(0, 1)],
            ..wire_txn(0, 20_000)
        };
        exec.accept_txn(od_read, exec.now);
        assert!(exec.step());
        assert!(exec.core.bound_txn().is_none(), "the transaction is gone");
        let interim = exec.snapshot(exec.now);
        assert_eq!(interim.txns.missed_deadline, 1);
        assert_eq!(interim.updates.installed_on_demand, 0);
        assert_eq!(interim.updates.left_in_update_queue, 1);
        assert_eq!(interim.updates.terminal_total(), interim.updates.arrived);
        while exec.pass() {}
        let last = exec.finalize();
        assert_eq!(last.updates.installed_background, 1);
        assert_eq!(last.updates.terminal_total(), last.updates.arrived);
    }

    /// A value that is NaN, infinite or negative would win every
    /// value-density comparison or poison `value_committed`, so it is
    /// refused before it is counted, like a bad read set.
    #[test]
    fn a_non_finite_or_negative_value_is_refused_before_it_is_counted() {
        let (_tx, mut exec) = stepped(LiveConfig::DEFAULT_QUANTUM);
        for (id, value) in [(1, f64::NAN), (2, f64::INFINITY), (3, -1.0)] {
            let bad = WireTxn {
                id,
                value,
                ..wire_txn(100, 1_000_000)
            };
            assert!(exec.accept_txn(bad, exec.now).is_none());
        }
        assert_eq!(exec.snapshot(exec.now).txns.arrived, 0);
        assert!(exec.deadlines.is_empty(), "no watchdog for a refused txn");

        exec.accept_txn(
            WireTxn {
                id: 4,
                ..wire_txn(100, 1_000_000)
            },
            exec.now,
        );
        while exec.pass() {}
        let report = exec.finalize();
        assert_eq!(report.txns.arrived, 1);
        assert_eq!(report.txns.committed, 1);
        assert_eq!(report.txns.value_committed, 1.0);
        assert!(report.av().is_finite());
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
            exec.core.metrics().busy_txn_so_far(),
            exec.now.since(started),
            "a cut slice is charged up to the reading that ended it"
        );
        let report = exec.finalize();
        assert_eq!(report.txns.arrived, 1);
        assert_eq!(report.txns.in_flight_at_end, 1);
        assert_eq!(report.txns.finished(), 0);
    }

    #[test]
    fn interim_report_conserves_transactions_and_updates() {
        // Transactions first: the updates wait in the queues while the
        // first transaction runs and the second waits behind it.
        let sim = SimConfig {
            policy: Policy::TransactionsFirst,
            ..base_cfg()
        };
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let exec = Executor::new(&cfg, rx);
        let handle = std::thread::spawn(move || exec.run());
        for id in 1..=2 {
            tx.send(Ingest::Txn(WireTxn {
                id,
                ..wire_txn(2_000_000, 10_000_000)
            }))
            .expect("send txn");
        }
        for i in 0..6u32 {
            tx.send(Ingest::Update(wire_update(
                0,
                i % 4,
                1_000 * i64::from(i + 1),
                1.0,
            )))
            .expect("send update");
        }
        // The channel is FIFO, so the report is taken after all eight
        // messages, within the first transaction's two seconds.
        let (rtx, rrx) = mpsc::sync_channel(1);
        tx.send(Ingest::Snapshot { reply: rtx })
            .expect("send snapshot");
        let report = rrx.recv().expect("interim report");
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let last = handle.join().expect("executor thread");
        for r in [&report, &last] {
            assert_eq!(r.txns.arrived, 2);
            assert_eq!(r.txns.finished(), 0);
            assert_eq!(r.txns.in_flight_at_end, 2, "one running, one waiting");
            assert_eq!(r.updates.arrived, 6);
            assert_eq!(r.updates.terminal_total(), r.updates.arrived);
        }
    }

    #[test]
    fn a_parked_ack_waits_for_the_log_and_the_executor_installs_meanwhile() {
        // 1 000 installs of 4.8 µs: about ten windows of update work.
        const N: u64 = 1_000;
        let sim = SimConfig {
            policy: Policy::UpdatesFirst,
            costs: costs_with_install(4.8e-6),
            ..base_cfg()
        };
        let (tx, mut exec, mut flusher, dir) = stepped_durable(sim, "exec-parked-ack");
        // The flusher writes the first N - 1 records; the last one and the
        // ack that counts it come after.
        backlog(&mut exec, N - 1, 4);
        exec.poll();
        assert!(flusher.step());
        exec.accept_update(&wire_update(1, 3, N as i64, 7.0), exec.now);
        let reply = ask_report(&tx);
        let mut windows = 0;
        while exec.core.store().installs() < N {
            assert!(exec.pass(), "the backlog ran out first");
            assert!(reply.try_recv().is_err(), "acked a record still unwritten");
            windows += 1;
        }
        assert!(windows > 1, "the backlog ran in one window");
        assert!(flusher.step());
        exec.poll();
        // The report is the one taken when the request was handled, before
        // any install; it leaves once the log covers all it counts.
        let report = reply.try_recv().expect("the covered ack left");
        assert_eq!(report.updates.arrived, N);
        assert_eq!(report.updates.installed_total(), 0);
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        flusher.hand_over();
        assert_eq!(exec.finalize().updates.installed_total(), N);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether a parked report has left, and how many arrivals it counts.
    fn arrived(rrx: &mpsc::Receiver<RunReport>) -> Option<u64> {
        rrx.try_recv().ok().map(|r| r.updates.arrived)
    }

    #[test]
    fn parked_acks_leave_in_order_once_the_log_covers_them_or_is_sealed() {
        let (tx, mut exec, mut flusher, dir) = stepped_durable(base_cfg(), "exec-acks");
        let mut asked = Vec::new();
        for _ in 0..2 {
            backlog(&mut exec, 2, 4);
            asked.push(ask_report(&tx));
            exec.poll();
        }
        assert_eq!(asked.iter().map(arrived).collect::<Vec<_>>(), [None; 2]);
        // The flusher writes the records of the first two; the third is
        // asked for behind them and stays parked.
        assert!(flusher.step());
        backlog(&mut exec, 2, 4);
        asked.push(ask_report(&tx));
        exec.poll();
        assert_eq!(
            asked.iter().map(arrived).collect::<Vec<_>>(),
            [Some(2), Some(4), None]
        );
        // Sealing writes everything, so shutdown answers what is parked.
        flusher.hand_over();
        exec.finalize();
        assert_eq!(arrived(&asked[2]), Some(6));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log whose rotation fails under it — its directory removed — holds
    /// no ack back: the run goes on undurable, and an ack the log can
    /// never cover leaves.
    #[test]
    fn a_failed_log_holds_no_ack_back() {
        let dir = scratch("exec-failed-log");
        let mut durability = DurabilityConfig::new(&dir);
        durability.fsync = FsyncPolicy::Off;
        // Four updates at one instant are one batch of this length.
        durability.rotate_bytes = (HDR_LEN + batch_len(4)) as u64;
        let wal = WalHandle::start(&durability, 1, 0).expect("start wal");
        let stats = wal.stats();
        let cfg = LiveConfig::new(base_cfg()).expect("valid live config");
        let (tx, rx) = mpsc::channel();
        let mut exec = Executor::with_wal(&cfg, rx, Some(wal), None);
        exec.now = exec.clock.now();
        std::fs::remove_dir_all(&dir).expect("remove the log directory");
        backlog(&mut exec, 4, 4);
        let first = ask_report(&tx);
        exec.poll();
        for _ in 0..10_000 {
            if stats.is_failed() {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(stats.is_failed(), "the rotation must fail the log");
        backlog(&mut exec, 2, 4);
        let second = ask_report(&tx);
        exec.poll();
        assert!(stats.written_seq() < 6, "the failed log wrote on");
        assert_eq!([&first, &second].map(arrived), [Some(4), Some(6)]);
        // The seal fails too, and the executor reports all the same.
        assert_eq!(exec.finalize().updates.arrived, 6);
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
            std::thread::sleep(Duration::from_millis(1));
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
        let (mut prod, stream, _) = session(64);
        prod.push(block((0..10u32).map(|i| {
            wire_update(
                u8::from(i % 2 == 0),
                i % 4,
                100_000 * i64::from(i + 1),
                f64::from(i),
            )
        })))
        .expect("ring has room");
        drop(prod);
        tx.send(Ingest::Stream(stream)).expect("attach stream");
        tx.send(Ingest::Shutdown).expect("send shutdown");
        let report = handle.join().expect("executor thread");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        assert_eq!(report.dag.enqueued, report.dag.terminal_total());
        assert!(report.dag.enqueued > 0, "installs must enqueue deltas");
        assert_eq!(report.dag.od_refreshes, 0, "TF never refreshes on demand");
    }
}
