//! The `stripd` TCP front end.
//!
//! One executor thread owns the scheduling core; an accept loop hands
//! every connection to its own thread. A connection thread reaches the
//! executor two ways and no other. **Data**: updates arrive only in
//! tag-7 batch frames, only within the credit the session was granted
//! (`CreditRequest` → `Credit`), are decoded into one block per frame,
//! and ride the session's bounded SPSC ring; an update past the grant
//! ends the session. When the server logs, a block also carries the
//! frame's bytes of the updates it keeps, behind a zeroed run head: the
//! body of the block's WAL record, which the executor moves to the log's
//! flusher without reading it. Blocks go home: the executor sends each
//! one the OS queue has used up back over a second ring, with a wire
//! buffer the flusher has sent back, and the session decodes its next
//! frame into them, so a steady session allocates no block. A session
//! that waits on the executor — out of credit, or flushing its ring
//! before a control frame — parks until the executor, which unparks it
//! after every pop of its ring, has freed what it waits for.
//! **Control**: transactions,
//! queries, snapshots, the ring hand-over and shutdown ride the executor's
//! [`Ingest`] channel, each control frame only after the session's ring
//! has been popped — so one connection's frames take effect in wire order,
//! through the one arrival path of the paper's Figure 2 (network → bounded
//! OS queue). The listener
//! port doubles as a Prometheus-style scrape endpoint: a connection whose
//! first bytes are `GET ` is answered with an HTTP `text/plain` metrics
//! page instead of the binary protocol.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use strip_core::report::RunReport;
use strip_obs::PromText;

use crate::credit::{CreditWindow, InFlight};
use crate::executor::{unstamped, Block, Executor, Ingest, LiveConfig, Stream};
use crate::protocol::{
    batch_entries, decode_body, for_each_batch_update, write_msg, FrameReader, Msg, WireStats,
    UPDATE_ENTRY,
};
use crate::recovery::Recovered;
use crate::spsc;
use crate::wal::RUN_HEAD;

/// Capacity of each connection's lock-free ingest ring, in blocks, and the
/// most credit a session holds, in updates. Must be at least
/// [`crate::protocol::MAX_BATCH_UPDATES`] so a full window of credit (one
/// ring's worth) always admits the largest legal batch frame without the
/// producer blocking mid-frame.
pub const RING_CAPACITY: usize = 1 << 16;

/// Capacity of each session's return ring, in blocks. The executor drops
/// a used-up block that finds it full, so after an OS-queue backlog a
/// session keeps at most this many idle blocks, not the backlog's peak.
const SPENT_BLOCKS: usize = 256;

/// Credit top-ups are withheld until at least this much window can be
/// granted, so the grant traffic stays a small fraction of the update
/// traffic (one Credit frame per half-ring of updates).
const CREDIT_LOW_WATER: u64 = (RING_CAPACITY / 2) as u64;

/// The longest a waiting session parks before it looks again without an
/// unpark: the executor unparks it after every pop of its ring, so this
/// only bounds how late it sees the stop flag or a pop by a consumer that
/// does not unpark (a test playing executor).
const PARK: Duration = Duration::from_millis(1);

const _: () = assert!(
    RING_CAPACITY >= crate::protocol::MAX_BATCH_UPDATES,
    "a credit window of one ring must fit the largest legal batch frame"
);

/// A running live server: the executor thread, the accept loop, and the
/// executor's ingest channel.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    tx: Sender<Ingest>,
    stop: Arc<AtomicBool>,
    exec: JoinHandle<RunReport>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A sender into the executor's ingest channel, for in-process
    /// producers living beside the TCP clients.
    #[must_use]
    pub fn ingest(&self) -> Sender<Ingest> {
        self.tx.clone()
    }

    /// Blocks until the executor finishes — that is, until some client
    /// (or an in-process producer) sends a shutdown — then tears down the
    /// accept loop and returns the final report.
    ///
    /// # Errors
    ///
    /// Returns an error when the executor or the accept thread panicked.
    pub fn wait(self) -> io::Result<RunReport> {
        let report = self
            .exec
            .join()
            .map_err(|_| io::Error::other("executor thread panicked"))?;
        self.stop.store(true, Ordering::Release);
        wake_accept(self.addr);
        self.accept
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))?;
        Ok(report)
    }

    /// Requests shutdown and then [`ServerHandle::wait`]s.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerHandle::wait`] errors.
    pub fn shutdown(self) -> io::Result<RunReport> {
        let _ = self.tx.send(Ingest::Shutdown);
        self.wait()
    }

    /// A detached handle that can fire the same orderly shutdown a wire
    /// shutdown frame performs — used by the SIGTERM/SIGINT watcher so an
    /// operator `kill` drains, seals the WAL, and emits the report.
    #[must_use]
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            tx: self.tx.clone(),
            stop: Arc::clone(&self.stop),
        }
    }
}

/// Fires the orderly-shutdown path from outside the connection threads
/// (see [`ServerHandle::shutdown_trigger`]).
#[derive(Debug, Clone)]
pub struct ShutdownTrigger {
    tx: Sender<Ingest>,
    stop: Arc<AtomicBool>,
}

impl ShutdownTrigger {
    /// Requests shutdown: the executor drains, finalizes (sealing its WAL
    /// if one is attached), and connection readers stop waiting on the
    /// executor; [`ServerHandle::wait`] then returns and tears down the
    /// accept loop. Idempotent.
    pub fn fire(&self) {
        let _ = self.tx.send(Ingest::Shutdown);
        self.stop.store(true, Ordering::Release);
    }
}

/// Starts a live server on `listener`. Returns once the executor and
/// accept threads are running.
///
/// # Errors
///
/// Propagates listener configuration errors.
pub fn serve(cfg: &LiveConfig, listener: TcpListener) -> io::Result<ServerHandle> {
    serve_recovered(cfg, listener, None)
}

/// [`serve`] on a recovered state: `recovered` is what
/// [`recover`](crate::recovery::recover) read back from `cfg.durability`'s
/// directory (`stripd --recover` runs it before binding, to print the
/// replay summary), or `None` to start empty. Starts the executor thread
/// and, when durability is configured, its WAL flusher, which starts the
/// directory afresh unless a recovery result stands on it.
///
/// # Errors
///
/// Listener configuration and WAL startup.
pub fn serve_recovered(
    cfg: &LiveConfig,
    listener: TcpListener,
    recovered: Option<Recovered>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(false)?;
    let wal = match &cfg.durability {
        Some(d) => {
            let fingerprint = strip_core::config_fingerprint(&cfg.sim);
            let base_seq = recovered.as_ref().map_or(0, |r| r.next_seq);
            Some(crate::wal::WalHandle::start(d, fingerprint, base_seq)?)
        }
        None => None,
    };
    let (tx, rx) = mpsc::channel();
    let exec = Executor::with_wal(cfg, rx, wal, recovered);
    let exec = thread::Builder::new()
        .name("stripd-exec".into())
        .spawn(move || exec.run())?;
    let stop = Arc::new(AtomicBool::new(false));
    let (accept_tx, accept_stop) = (tx.clone(), Arc::clone(&stop));
    let intake = Intake::of(cfg);
    let accept = thread::Builder::new()
        .name("stripd-accept".into())
        .spawn(move || accept_loop(&listener, &accept_tx, &accept_stop, intake))?;
    Ok(ServerHandle {
        addr,
        tx,
        stop,
        exec,
        accept,
    })
}

/// Blocks in `accept()`, handing each connection to its own thread, until
/// the stop flag is found raised on return from the call — every stop path
/// ends in [`ServerHandle::wait`], which raises the flag and then connects
/// to the listener itself ([`wake_accept`]). Each session takes its
/// updates in as `intake` says.
fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<Ingest>,
    stop: &Arc<AtomicBool>,
    intake: Intake,
) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            break; // the wake-up connection, or a client racing it
        }
        let Ok((stream, _)) = conn else { break };
        if stream.set_nodelay(true).is_err() {
            continue; // the peer is already gone
        }
        let conn_tx = tx.clone();
        let conn_stop = Arc::clone(stop);
        let _ = thread::Builder::new()
            .name("stripd-conn".into())
            .spawn(move || {
                let _ = handle_conn(stream, &conn_tx, &conn_stop, intake);
            });
    }
}

/// Gets the accept loop out of its blocking `accept()` with a loopback
/// connection to the listener's own address. A failed connect means the
/// listener is already gone, which is the state being asked for.
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// What a session needs to know of the server it feeds.
#[derive(Debug, Clone, Copy)]
struct Intake {
    /// Objects per class of the store the executor serves: an update
    /// naming none of them spends window and is not pushed.
    class_len: [u32; 2],
    /// The server logs: each block also carries its kept wire entries,
    /// the body of its WAL record.
    logs: bool,
}

impl Intake {
    /// The intake of a server run under `cfg`.
    fn of(cfg: &LiveConfig) -> Intake {
        Intake {
            class_len: cfg.class_len(),
            logs: cfg.durability.is_some(),
        }
    }
}

/// Per-connection state of the update path: the session's two rings
/// (none until its first accepted update), the updates in flight, and
/// the credit-window counters (see [`CreditWindow`] and [`InFlight`] for
/// the grant arithmetic, which is model-checked under loom in
/// `tests/loom_spsc.rs`).
struct BatchState {
    /// The producer half of the session's ring; `None` until
    /// [`BatchState::push`] accepts the first block.
    producer: Option<spsc::Producer<Block>>,
    /// The consumer half of the ring the executor sends used-up blocks
    /// back on; created with `producer`.
    spent: Option<spsc::Consumer<Block>>,
    /// Updates pushed into the ring and not yet popped.
    in_flight: InFlight,
    /// Cumulative counters of the credit protocol for this connection.
    window: CreditWindow,
    /// How the session takes its updates in.
    intake: Intake,
}

impl BatchState {
    /// A session that has sent no update yet, taking its updates in as
    /// `intake` says: no ring, nothing granted.
    fn new(intake: Intake) -> BatchState {
        BatchState {
            producer: None,
            spent: None,
            in_flight: InFlight::new(),
            window: CreditWindow::new(),
            intake,
        }
    }

    /// Decodes one batch frame (`body`, tag included) into a block — one
    /// the executor sent home when one is waiting — spending one unit of
    /// window per update, and pushes the block. The updates inside the
    /// window are pushed even when a later one overruns it or fails to
    /// decode; then the session ends with that error. An update naming no
    /// object of the store spends its unit and is not pushed: the executor
    /// takes every entry of a block as valid. When the server logs, the
    /// block's wire buffer gets a zeroed run head and then the kept
    /// entries as the frame holds them, one copy per run of kept entries:
    /// one for the frame when every entry is kept. Returns the frame's
    /// update count.
    fn push_frame(&mut self, body: &[u8], tx: &Sender<Ingest>) -> io::Result<usize> {
        let mut block = self
            .spent
            .as_mut()
            .and_then(spsc::Consumer::pop)
            .unwrap_or_default();
        block.updates.reserve(body.len() / UPDATE_ENTRY);
        let Intake { class_len, logs } = self.intake;
        let entries = batch_entries(body);
        if logs {
            block.wire.clear();
            block.wire.reserve(RUN_HEAD + entries.as_flattened().len());
            block.wire.resize(RUN_HEAD, 0);
        }
        let (updates, wire) = (&mut block.updates, &mut block.wire);
        let window = &mut self.window;
        let mut overrun = false;
        // Entries decoded so far, and the first of the kept ones not yet
        // copied: the kept entries between two refused ones go to the
        // wire in one copy, all of them when none is refused.
        let (mut seen, mut kept_from) = (0, 0);
        let decoded = for_each_batch_update(body, |w| {
            seen += 1;
            // The first update past the window ends the session; the
            // window stays spent, so none after it is kept either.
            if !window.on_update() {
                overrun = true;
            } else if let Some(u) = unstamped(&w, class_len) {
                updates.push(u);
                return;
            }
            if logs {
                wire.extend_from_slice(entries[kept_from..seen - 1].as_flattened());
            }
            kept_from = seen;
        });
        if logs {
            wire.extend_from_slice(entries[kept_from..seen].as_flattened());
        }
        self.push(block, tx)?;
        let n = decoded.map_err(io::Error::from)?;
        if overrun {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "update sent past the credit window",
            ));
        }
        Ok(n)
    }

    /// Pushes one block into the session's ring; the first block creates
    /// the ring and the one blocks come home on, and hands the executor
    /// its ends of both. Inside the window the ring has room —
    /// [`BatchState::grantable`] keeps a slot free for every granted
    /// update, and a block holds at least one — so a full ring is an
    /// error, never a wait. An empty block is not sent.
    fn push(&mut self, block: Block, tx: &Sender<Ingest>) -> io::Result<()> {
        if block.updates.is_empty() {
            return Ok(());
        }
        let producer = match &mut self.producer {
            Some(producer) => producer,
            None => {
                let (producer, blocks) = spsc::ring(RING_CAPACITY);
                let (spent, spent_rx) = spsc::ring(SPENT_BLOCKS);
                let session = thread::current();
                tx.send(Ingest::Stream(Stream {
                    blocks,
                    spent,
                    session,
                }))
                .map_err(|_| io::Error::other("executor gone"))?;
                self.spent = Some(spent_rx);
                self.producer.insert(producer)
            }
        };
        let len = block.updates.len() as u64;
        producer.push(block).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "ingest ring full inside the credit window",
            )
        })?;
        self.in_flight.on_push(len);
        Ok(())
    }

    /// Window the server can grant right now without risking a ring
    /// overrun: the ring's capacity minus the updates in it, minus the
    /// client's unspent window. The window arithmetic lives in
    /// [`CreditWindow::grantable`]; this wrapper contributes the occupancy
    /// observation.
    fn grantable(&mut self) -> u64 {
        let in_flight = match &self.producer {
            Some(p) => self.in_flight.updates(p.consumed()),
            None => 0,
        };
        debug_assert!(
            in_flight <= RING_CAPACITY as u64,
            "ring occupancy {in_flight} exceeds capacity"
        );
        self.window
            .grantable((RING_CAPACITY as u64).saturating_sub(in_flight))
    }

    /// Tops the client's credit window up. Normally a grant is only
    /// worth a frame once `CREDIT_LOW_WATER` has freed up; but when the
    /// client is provably out of credit (every granted unit spent, and
    /// the stream would stall) this *must* grant as soon as anything is
    /// consumable, parking until the executor frees window — it is
    /// always draining, and unparks the session when it pops, so the wait
    /// terminates.
    fn top_up(&mut self, stream: &mut impl Write, stop: &AtomicBool) -> io::Result<()> {
        let mut grantable = self.grantable();
        while grantable < CREDIT_LOW_WATER {
            if !self.window.starved() {
                return Ok(()); // client still has window; grant later
            }
            if grantable > 0 {
                break; // starved: grant whatever freed up, now
            }
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            thread::park_timeout(PARK);
            grantable = self.grantable();
        }
        self.window.record_grant(grantable);
        write_msg(stream, &Msg::Credit(grantable))
    }

    /// Parks until the executor has popped everything this connection
    /// pushed, so a control frame sent after an update takes effect after
    /// it (and a stats reply or final report counts it).
    fn flush(&self, stop: &AtomicBool) {
        let Some(p) = &self.producer else { return };
        while !p.is_drained() {
            if stop.load(Ordering::Acquire) {
                return;
            }
            thread::park_timeout(PARK);
        }
    }
}

/// Serves one connection: either a binary protocol session, taking its
/// updates in as `intake` says, or, when the first bytes spell an HTTP
/// GET, one `/metrics` scrape.
fn handle_conn(
    mut stream: impl Read + Write,
    tx: &Sender<Ingest>,
    stop: &Arc<AtomicBool>,
    intake: Intake,
) -> io::Result<()> {
    // Sniff the transport: binary frames are at least 5 bytes, so waiting
    // for 4 cannot deadlock a well-formed client. The bytes are read, not
    // peeked, so a peer that closes short of them is an EOF here.
    let mut first = [0u8; 4];
    match stream.read_exact(&mut first) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
        sniffed => sniffed?,
    }
    if first == *b"GET " {
        return serve_metrics(&mut stream, tx);
    }
    let mut frames = FrameReader::with_prefix(&first);
    let mut batch = BatchState::new(intake);
    loop {
        let Some(body) = frames.next_frame(&mut stream)? else {
            return Ok(()); // clean EOF
        };
        // Data plane: a batch frame decodes straight out of the receive
        // buffer into one block of updates, which rides the lock-free ring
        // whole and becomes the OS queue's — no channel, no per-update
        // syscall, no copy on the executor. The first update past the
        // credit window ends the session; none after it is pushed.
        if body.first() == Some(&7) {
            let n = batch.push_frame(body, tx)?;
            // An empty frame spent no window, so it earns no top-up.
            if n > 0 {
                batch.top_up(&mut stream, stop)?;
            }
            continue;
        }
        // Control plane: a control frame leaves this session only after
        // the session's updates have been popped, so the executor sees one
        // connection's frames in wire order (and a stats reply or the
        // final report counts every update sent ahead of it).
        let msg = decode_body(body).map_err(io::Error::from)?;
        batch.flush(stop);
        match msg {
            Msg::CreditRequest => {
                // Whatever the ring can absorb beyond the unspent window; a
                // repeated request resets nothing.
                let grant = batch.grantable();
                batch.window.record_grant(grant);
                write_msg(&mut stream, &Msg::Credit(grant))?;
            }
            Msg::Txn(w) => {
                if tx.send(Ingest::Txn(w)).is_err() {
                    return Ok(());
                }
            }
            Msg::Query(q) => {
                let (qtx, qrx) = mpsc::sync_channel(1);
                if tx.send(Ingest::Query { q, reply: qtx }).is_err() {
                    return Ok(());
                }
                let resp = qrx
                    .recv()
                    .map_err(|_| io::Error::other("executor dropped query"))?;
                write_msg(&mut stream, &Msg::QueryResponse(resp))?;
            }
            Msg::DerivedQuery(q) => {
                let (qtx, qrx) = mpsc::sync_channel(1);
                if tx.send(Ingest::DerivedQuery { q, reply: qtx }).is_err() {
                    return Ok(());
                }
                let resp = qrx
                    .recv()
                    .map_err(|_| io::Error::other("executor dropped derived query"))?;
                write_msg(&mut stream, &Msg::DerivedQueryResponse(resp))?;
            }
            Msg::StatsRequest => {
                let report = request_snapshot(tx)?;
                write_msg(&mut stream, &Msg::StatsResponse(stats_from_report(&report)))?;
            }
            Msg::ReportRequest => {
                let report = request_snapshot(tx)?;
                write_msg(&mut stream, &Msg::ReportJson(report.to_json()))?;
            }
            Msg::Shutdown => {
                let _ = tx.send(Ingest::Shutdown);
                stop.store(true, Ordering::Release);
                return Ok(());
            }
            // Batch frames were consumed by the data plane above; what is
            // left here is server-to-client traffic.
            Msg::UpdateBatch(_)
            | Msg::QueryResponse(_)
            | Msg::StatsResponse(_)
            | Msg::ReportJson(_)
            | Msg::Credit(_)
            | Msg::DerivedQueryResponse(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "server-to-client message received by server",
                ));
            }
        }
    }
}

/// Asks the executor for an interim report snapshot.
fn request_snapshot(tx: &Sender<Ingest>) -> io::Result<RunReport> {
    let (rtx, rrx) = mpsc::sync_channel(1);
    tx.send(Ingest::Snapshot { reply: rtx })
        .map_err(|_| io::Error::other("executor gone"))?;
    rrx.recv()
        .map_err(|_| io::Error::other("executor dropped snapshot"))
}

/// Derives the wire-level aggregate counters from a full report. The
/// update counters partition `ingested` exactly (conservation):
/// `ingested = applied + superseded + shed + queued`.
#[must_use]
pub fn stats_from_report(r: &RunReport) -> WireStats {
    let u = &r.updates;
    let t = &r.txns;
    WireStats {
        ingested: u.arrived,
        applied: u.installed_total(),
        superseded: u.superseded_skips,
        shed: u.os_dropped
            + u.overflow_dropped
            + u.expired_dropped
            + u.dedup_dropped
            + u.admission_shed,
        queued: u.left_in_os + u.left_in_update_queue + u.in_flight_at_end,
        txns_arrived: t.arrived,
        txns_committed: t.committed,
        txns_missed: t.missed_deadline + t.aborted_infeasible + t.aborted_stale,
        os_depth: u.left_in_os,
        uq_depth: u.left_in_update_queue,
        fold_low: r.fold_low,
        fold_high: r.fold_high,
        p_md: t.p_md(),
        av: r.av(),
    }
}

/// How one `/metrics` series reads its value from the report and the
/// wire-level aggregates derived from it.
enum Sample {
    Counter(fn(&RunReport, &WireStats) -> u64),
    Gauge(fn(&RunReport, &WireStats) -> f64),
    /// One gauge with a `class="low"` and a `class="high"` sample.
    GaugeByClass(fn(&RunReport, &WireStats) -> [f64; 2]),
}
use Sample::{Counter, Gauge, GaugeByClass};

/// Every series of the `/metrics` page, in page order: `(name, help,
/// sample)`. A new series is one new row.
#[rustfmt::skip]
const SERIES: &[(&str, &str, Sample)] = &[
    ("strip_live_updates_ingested_total", "Updates that arrived at the server.", Counter(|_, s| s.ingested)),
    ("strip_live_updates_applied_total", "Updates installed into the store (any path).", Counter(|_, s| s.applied)),
    ("strip_live_updates_superseded_total", "Updates skipped after lookup (store already newer).", Counter(|_, s| s.superseded)),
    ("strip_live_updates_shed_total", "Updates dropped by queue bounds, MA expiry, dedup or admission.", Counter(|_, s| s.shed)),
    ("strip_live_updates_queued", "Updates still queued or on the CPU.", Gauge(|_, s| s.queued as f64)),
    ("strip_live_txns_arrived_total", "Transactions submitted.", Counter(|_, s| s.txns_arrived)),
    ("strip_live_txns_committed_total", "Transactions committed by their deadline.", Counter(|_, s| s.txns_committed)),
    ("strip_live_txns_missed_total", "Transactions aborted (deadline, infeasible, or stale read).", Counter(|_, s| s.txns_missed)),
    ("strip_live_os_queue_depth", "Current OS receive-queue depth.", Gauge(|_, s| s.os_depth as f64)),
    ("strip_live_update_queue_depth", "Current application update-queue depth.", Gauge(|_, s| s.uq_depth as f64)),
    ("strip_live_fold", "Time-weighted stale fraction per importance class.", GaugeByClass(|_, s| [s.fold_low, s.fold_high])),
    ("strip_live_p_md", "Missed-deadline fraction.", Gauge(|_, s| s.p_md)),
    ("strip_live_av", "Average value per second from on-time commits.", Gauge(|_, s| s.av)),
    ("strip_live_cpu_rho_t", "CPU utilisation by transactions.", Gauge(|r, _| r.cpu.rho_t())),
    ("strip_live_cpu_rho_u", "CPU utilisation by update installation.", Gauge(|r, _| r.cpu.rho_u())),
    ("strip_live_wal_appended_total", "Accepted updates appended to the write-ahead log.", Counter(|r, _| r.durability.wal_appended)),
    ("strip_live_wal_fsyncs_total", "fsync calls issued by the WAL flusher.", Counter(|r, _| r.durability.wal_fsyncs)),
    ("strip_live_wal_bytes_total", "Bytes written to the WAL segment chain (headers included).", Counter(|r, _| r.durability.wal_bytes)),
    ("strip_live_wal_group_max", "Largest group of records covered by one fsync.", Gauge(|r, _| r.durability.wal_group_max as f64)),
    ("strip_live_wal_rotations_total", "Active WAL segments sealed into the rotated chain.", Counter(|r, _| r.durability.wal_rotations)),
    ("strip_live_snapshots_written_total", "Store snapshots persisted (each truncates the segment chain).", Counter(|r, _| r.durability.snapshots_written)),
    ("strip_live_recovery_replayed_total", "WAL records replayed by recovery at startup.", Counter(|r, _| r.durability.recovery_replayed)),
    ("strip_live_recovery_discarded_total", "Torn or corrupt WAL tail records rejected by recovery.", Counter(|r, _| r.durability.recovery_discarded)),
    ("strip_live_dag_deltas_enqueued_total", "Derived-view deltas enqueued by base installs and cascades.", Counter(|r, _| r.dag.enqueued)),
    ("strip_live_dag_deltas_applied_total", "Derived-view pending deltas applied.", Counter(|r, _| r.dag.applied)),
    ("strip_live_dag_deltas_coalesced_total", "Derived-view deltas merged into an already-pending node.", Counter(|r, _| r.dag.coalesced)),
    ("strip_live_dag_deltas_shed_total", "Derived-view deltas rejected by the pending bound.", Counter(|r, _| r.dag.shed)),
    ("strip_live_dag_deltas_pending", "Derived-view nodes with a pending delta.", Gauge(|r, _| r.dag.pending_at_end as f64)),
    ("strip_live_dag_od_refreshes_total", "Recursive on-demand derived refreshes (OD only).", Counter(|r, _| r.dag.od_refreshes)),
    ("strip_live_dag_fold_derived", "Time-weighted stale fraction of derived views.", Gauge(|r, _| r.dag.fold_derived)),
];

/// Renders the Prometheus-style text page for `/metrics`: every row of
/// [`SERIES`].
#[must_use]
pub fn render_metrics(r: &RunReport) -> String {
    let s = stats_from_report(r);
    let mut page = PromText::new();
    for (name, help, sample) in SERIES {
        match sample {
            Counter(read) => page.counter(name, help, read(r, &s)),
            Gauge(read) => page.gauge(name, help, read(r, &s)),
            GaugeByClass(read) => {
                let [low, high] = read(r, &s);
                page.gauge_labeled(name, help, "class", &[("low", low), ("high", high)]);
            }
        }
    }
    page.render()
}

/// Answers one HTTP GET with the metrics page and closes.
fn serve_metrics(stream: &mut (impl Read + Write), tx: &Sender<Ingest>) -> io::Result<()> {
    // Read and discard the rest of the request head (bounded); the
    // caller's sniff took its first four bytes.
    let mut buf = [0u8; 4096];
    let mut seen = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        seen.extend_from_slice(&buf[..n]);
        if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 64 * 1024 {
            break;
        }
    }
    let report = request_snapshot(tx)?;
    let body = render_metrics(&report);
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LiveClock;
    use crate::protocol::{read_msg, WireTxn, WireUpdate};
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc::Receiver;
    use std::time::Duration;
    use strip_sim::time::SimTime;

    #[test]
    fn stats_mapping_is_conservative_by_construction() {
        use strip_core::config::SimConfig;
        use strip_core::controller::run_simulation;
        use strip_core::sources::{ScriptedTxns, ScriptedUpdates};
        let cfg = SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(1.0)
            .warmup(0.0)
            .build()
            .expect("valid config");
        let (report, _) = run_simulation(
            &cfg,
            ScriptedUpdates::new(Vec::new()),
            ScriptedTxns::new(Vec::new()),
            None,
        )
        .expect("valid config");
        let s = stats_from_report(&report);
        assert_eq!(s.ingested, s.applied + s.superseded + s.shed + s.queued);
        let page = render_metrics(&report);
        assert!(page.contains("strip_live_updates_ingested_total 0"));
        assert!(page.contains("strip_live_fold{class=\"high\"}"));
    }

    /// A report with a distinct value behind every series.
    fn metrics_sample() -> RunReport {
        let mut r = RunReport::default();
        let t = &mut r.txns;
        (t.arrived, t.committed, t.committed_fresh) = (40, 31, 29);
        (t.missed_deadline, t.aborted_infeasible, t.aborted_stale) = (4, 3, 2);
        t.value_committed = 93.0;
        let u = &mut r.updates;
        (u.arrived, u.os_dropped, u.enqueued) = (1_000, 11, 700);
        (
            u.installed_background,
            u.installed_immediate,
            u.installed_on_demand,
        ) = (500, 200, 100);
        (u.superseded_skips, u.expired_dropped, u.overflow_dropped) = (60, 13, 17);
        (u.dedup_dropped, u.admission_shed) = (19, 23);
        (u.left_in_os, u.left_in_update_queue, u.in_flight_at_end) = (31, 25, 1);
        (r.cpu.busy_txn, r.cpu.busy_update, r.cpu.measured_secs) = (1.5, 0.75, 6.0);
        (r.fold_low, r.fold_high) = (0.125, 0.0625);
        let d = &mut r.durability;
        (d.wal_appended, d.wal_fsyncs, d.wal_bytes, d.wal_group_max) = (900, 45, 36_864, 64);
        (d.snapshots_written, d.wal_rotations) = (2, 3);
        (d.recovery_replayed, d.recovery_discarded) = (850, 5);
        let g = &mut r.dag;
        (g.enqueued, g.applied, g.coalesced, g.shed, g.pending_at_end) = (300, 210, 70, 12, 8);
        (g.od_refreshes, g.fold_derived) = (37, 0.375);
        r
    }

    /// Byte-for-byte pin of the `/metrics` page, taken with the hand-written
    /// `page.counter(..)`/`page.gauge(..)` sequence that preceded the tables.
    #[test]
    fn metrics_page_is_pinned() {
        assert_eq!(
            render_metrics(&metrics_sample()),
            include_str!("../tests/golden/metrics_page.txt")
        );
    }

    fn wire_update(class: u8, index: u32) -> WireUpdate {
        WireUpdate {
            class,
            index,
            generation_micros: 0,
            payload: 1.0,
            attr_mask: u64::MAX,
        }
    }

    /// A frame of `n` updates to objects of `class`.
    fn frame(class: u8, n: u64) -> Vec<u8> {
        let updates: Vec<_> = (0..n).map(|i| wire_update(class, (i % 4) as u32)).collect();
        let mut body = Vec::new();
        crate::protocol::encode_batch_body(&mut body, &updates).expect("encode");
        body
    }

    /// The grant arithmetic counts ring occupancy in updates: with the
    /// window spent and the ring full nothing is grantable, and draining
    /// half the ring's updates opens exactly half a ring of window.
    #[test]
    fn credit_window_grants_exactly_the_slots_the_executor_freed() {
        let (tx, rx) = mpsc::channel();
        let mut state = BatchState::new(Intake::of(&idle_config()));
        let cap = RING_CAPACITY as u64;

        // The first grant is the whole ring, which does not exist yet.
        assert_eq!(state.grantable(), cap);
        state.window.record_grant(cap);
        // Frames of 1, 3 and 4 updates: eight per three frames.
        for n in [1, 3, 4].into_iter().cycle().take(cap as usize / 8 * 3) {
            let pushed = state.push_frame(&frame(0, n), &tx);
            assert_eq!(pushed.expect("updates inside the window"), n as usize);
        }
        let mut consumer = match rx.try_recv() {
            Ok(Ingest::Stream(s)) => s.blocks,
            other => panic!("expected stream attach, got {other:?}"),
        };
        assert_eq!(state.grantable(), 0, "full ring, window spent");

        // Drain half the ring's updates; exactly that much window opens up.
        let mut popped = 0;
        while popped < cap / 2 {
            popped += consumer.pop().expect("a queued block").updates.len() as u64;
        }
        assert_eq!(popped, cap / 2);
        assert_eq!(state.grantable(), cap / 2);
        state.window.record_grant(cap / 2);
        assert_eq!(
            state.grantable(),
            0,
            "the unspent window holds the free half"
        );

        // The client spends the window to the boundary in one-update
        // frames, a ring slot each: zero again.
        for _ in 0..cap / 2 {
            let pushed = state.push_frame(&frame(1, 1), &tx);
            assert_eq!(pushed.expect("an update inside the window"), 1);
        }
        assert_eq!(state.grantable(), 0);

        // Fully drained: one whole ring minus the (zero) unspent window.
        while consumer.pop().is_some() {}
        assert_eq!(state.grantable(), cap);
    }

    /// A session over a socket pair whose server end runs [`handle_conn`]
    /// into `tx`, for a server run under `cfg`, on a thread the test can
    /// join.
    fn session_into(
        tx: Sender<Ingest>,
        stop: &Arc<AtomicBool>,
        cfg: &LiveConfig,
    ) -> (UnixStream, JoinHandle<io::Result<()>>) {
        let (client, conn) = UnixStream::pair().expect("socket pair");
        let stop = Arc::clone(stop);
        let intake = Intake::of(cfg);
        (
            client,
            thread::spawn(move || handle_conn(conn, &tx, &stop, intake)),
        )
    }

    /// A session with the test playing executor: the client socket, the
    /// session thread and the receiving end of the channel it talks to.
    fn loopback_session(
        stop: &Arc<AtomicBool>,
    ) -> (UnixStream, JoinHandle<io::Result<()>>, Receiver<Ingest>) {
        let (tx, rx) = mpsc::channel();
        let (client, session) = session_into(tx, stop, &idle_config());
        (client, session, rx)
    }

    const STEP: Duration = Duration::from_secs(10);

    /// Polls `done` every 2 ms until it holds or `bound` of wall time has
    /// passed; returns whether it held.
    fn within(bound: Duration, mut done: impl FnMut() -> bool) -> bool {
        let clock = LiveClock::start();
        let deadline = SimTime::from_secs(bound.as_secs_f64());
        loop {
            if done() {
                return true;
            }
            if clock.now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// The ring the session hands over at its first accepted update.
    fn expect_stream(rx: &Receiver<Ingest>) -> spsc::Consumer<Block> {
        match rx.recv_timeout(STEP) {
            Ok(Ingest::Stream(s)) => s.blocks,
            other => panic!("expected the session's ring first, got {other:?}"),
        }
    }

    /// Waits for a session to end on its own, then returns the error it
    /// ended with.
    fn refusal(session: JoinHandle<io::Result<()>>) -> io::Error {
        assert!(
            within(STEP, || session.is_finished()),
            "session outlived its protocol breach"
        );
        session
            .join()
            .expect("session thread panicked")
            .expect_err("session ended without an error")
    }

    /// An idle workload over four objects a class.
    fn idle_config() -> LiveConfig {
        let sim = strip_core::config::SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(1.0)
            .warmup(0.0)
            .build()
            .expect("valid config");
        LiveConfig::new(sim).expect("valid live config")
    }

    /// A live server with an idle workload, for sessions whose updates a
    /// real executor pops.
    fn idle_server() -> ServerHandle {
        serve(
            &idle_config(),
            TcpListener::bind("127.0.0.1:0").expect("bind"),
        )
        .expect("serve")
    }

    /// `ingested` as a second connection's stats reply reads it.
    fn ingested(addr: SocketAddr) -> u64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_msg(&mut stream, &Msg::StatsRequest).expect("stats request");
        match read_msg(&mut stream).expect("stats reply") {
            Some(Msg::StatsResponse(s)) => s.ingested,
            other => panic!("expected StatsResponse, got {other:?}"),
        }
    }

    /// A client that sends one update more than it was granted loses the
    /// session at that update, and only the granted updates arrive.
    #[test]
    fn an_update_past_the_grant_ends_the_session_and_is_not_ingested() {
        let server = idle_server();
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = session_into(server.ingest(), &stop, &idle_config());
        write_msg(&mut client, &Msg::CreditRequest).expect("credit request");
        let grant = match read_msg(&mut client) {
            Ok(Some(Msg::Credit(g))) => g,
            other => panic!("expected the initial Credit, got {other:?}"),
        };
        // Two frames carry grant + 1 updates. After the first, less than
        // `CREDIT_LOW_WATER` is grantable however much the executor has
        // popped, and the client is not starved, so no top-up moves the
        // window before the second frame overruns it by one.
        let first = CREDIT_LOW_WATER - 1;
        for n in [first, grant + 1 - first] {
            let updates = (0..n).map(|i| wire_update(0, (i % 4) as u32)).collect();
            write_msg(&mut client, &Msg::UpdateBatch(updates)).expect("send batch");
        }
        assert_eq!(refusal(session).kind(), io::ErrorKind::InvalidData);
        // The session's ring is closed; poll until the executor popped it.
        let seen = ingested_reaching(server.addr(), grant);
        assert_eq!(seen, grant, "exactly the granted updates arrive");
        server.shutdown().expect("shutdown");
    }

    /// `ingested` once it reaches `want` or [`STEP`] has passed, whichever
    /// comes first.
    fn ingested_reaching(addr: SocketAddr, want: u64) -> u64 {
        let mut seen = 0;
        within(STEP, || {
            seen = ingested(addr);
            seen >= want
        });
        seen
    }

    /// The session's credit grant, asked for on a fresh session.
    fn ask_credit(client: &mut UnixStream) -> u64 {
        write_msg(client, &Msg::CreditRequest).expect("credit request");
        match read_msg(client) {
            Ok(Some(Msg::Credit(g))) => g,
            other => panic!("expected the initial Credit, got {other:?}"),
        }
    }

    /// A frame whose entry `k` carries a bad class delivers entries
    /// `0..k`, then ends the session.
    #[test]
    fn a_bad_class_at_entry_k_delivers_the_entries_before_it_then_ends_the_session() {
        const K: usize = 5;
        let server = idle_server();
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = session_into(server.ingest(), &stop, &idle_config());
        assert!(ask_credit(&mut client) > 8);
        let updates: Vec<_> = (0..8).map(|i| wire_update(1, i % 4)).collect();
        let mut body = Vec::new();
        crate::protocol::encode_batch_body(&mut body, &updates).expect("encode");
        // The class byte leads each entry, after the tag and the count.
        body[1 + 4 + K * crate::protocol::UPDATE_ENTRY] = 2;
        client
            .write_all(&(body.len() as u32).to_le_bytes())
            .expect("send length");
        client.write_all(&body).expect("send body");
        assert_eq!(refusal(session).kind(), io::ErrorKind::InvalidData);
        assert_eq!(ingested_reaching(server.addr(), K as u64), K as u64);
        server.shutdown().expect("shutdown");
    }

    /// An update naming an object outside the store spends credit like any
    /// other, but it neither counts as arrived nor reaches the WAL.
    #[test]
    fn an_out_of_range_update_spends_credit_and_is_neither_arrived_nor_logged() {
        let dir = std::env::temp_dir().join(format!("strip-server-oob-{}", std::process::id()));
        let cfg = idle_config().with_durability(crate::wal::DurabilityConfig::new(&dir));
        let server = serve(&cfg, TcpListener::bind("127.0.0.1:0").expect("bind")).expect("serve");
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = session_into(server.ingest(), &stop, &cfg);
        let grant = ask_credit(&mut client);
        // As in the overrun test, two frames carry grant + 1 updates; every
        // fourth of the first names index 99 of a 4-object class. Were those
        // free, the second frame would fit the window.
        let first = CREDIT_LOW_WATER - 1;
        let out_of_range = first.div_ceil(4);
        let frame: Vec<_> = (0..first)
            .map(|i| wire_update(0, if i % 4 == 0 { 99 } else { (i % 4) as u32 }))
            .collect();
        write_msg(&mut client, &Msg::UpdateBatch(frame)).expect("send batch");
        let rest = (0..grant + 1 - first).map(|i| wire_update(1, (i % 4) as u32));
        write_msg(&mut client, &Msg::UpdateBatch(rest.collect())).expect("send batch");
        assert_eq!(refusal(session).kind(), io::ErrorKind::InvalidData);
        let arrived = grant - out_of_range;
        assert_eq!(ingested_reaching(server.addr(), arrived), arrived);
        let report = server.shutdown().expect("shutdown");
        assert_eq!(report.updates.arrived, arrived);
        assert_eq!(report.durability.wal_appended, arrived);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A logging session copies into a block's wire buffer, behind a
    /// zeroed run head, the frame's bytes of exactly the entries it keeps,
    /// whether all are kept, some name no object, or the window runs out;
    /// each decodes to the update sent, its generation micros unrounded. A
    /// session of a server without a log fills no wire buffer.
    #[test]
    fn a_logging_session_copies_exactly_the_kept_wire_entries() {
        let micros = [i64::MIN, -1, 0, (1 << 53) + 1, i64::MAX];
        let sent: Vec<WireUpdate> = (0..5u32)
            .map(|i| WireUpdate {
                class: (i % 2) as u8,
                index: i % 4,
                generation_micros: micros[i as usize],
                payload: -2.5 * f64::from(i),
                attr_mask: 0b101 << i,
            })
            .collect();
        let out_of_range = |at: &[usize]| -> Vec<WireUpdate> {
            let mut frame = sent.clone();
            for &i in at {
                frame[i].index = 99;
            }
            frame
        };
        // (frame, window granted, entries kept)
        let cases = [
            (sent.clone(), 8, vec![0, 1, 2, 3, 4]),
            (out_of_range(&[1, 3]), 8, vec![0, 2, 4]),
            (out_of_range(&[0]), 8, vec![1, 2, 3, 4]),
            (sent.clone(), 3, vec![0, 1, 2]),
        ];
        for (frame, grant, kept) in cases {
            let mut body = Vec::new();
            crate::protocol::encode_batch_body(&mut body, &frame).expect("encode");
            for logs in [true, false] {
                let (tx, rx) = mpsc::channel();
                let mut state = BatchState::new(Intake {
                    class_len: [4, 4],
                    logs,
                });
                state.window.record_grant(grant);
                let pushed = state.push_frame(&body, &tx);
                assert_eq!(pushed.is_ok(), grant >= 5, "an overrun ends the session");
                let block = expect_stream(&rx).pop().expect("the frame's block");
                assert_eq!(block.updates.len(), kept.len());
                if !logs {
                    assert!(block.wire.is_empty(), "no log, no wire");
                    continue;
                }
                let (head, entries) = block.wire.split_at(RUN_HEAD);
                assert_eq!(head, [0; RUN_HEAD]);
                let kept: Vec<WireUpdate> = kept.iter().map(|&i| frame[i]).collect();
                let mut want = Vec::new();
                for w in &kept {
                    crate::protocol::put_update(&mut want, w);
                }
                assert_eq!(entries, want, "the kept entries' bytes");
                let (entries, _) = entries.as_chunks();
                let read: Vec<WireUpdate> =
                    entries.iter().map(crate::protocol::read_update).collect();
                assert_eq!(read, kept);
            }
        }
    }

    /// A frame whose entries partly name no object logs one record of
    /// exactly its kept entries, and recovery from that log rebuilds
    /// exactly the store the server had installed.
    #[test]
    fn a_frame_with_an_out_of_range_index_logs_exactly_its_kept_entries() {
        use crate::wal::{batch_len, scan_segment, DurabilityConfig, FsyncPolicy};
        use crate::wal::{HDR_LEN, REC_LEN, REC_UPDATE, SEGMENT_FILE};
        use strip_db::object::{Importance, ViewObjectId};

        let dir = std::env::temp_dir().join(format!("strip-server-capture-{}", std::process::id()));
        let mut durability = DurabilityConfig::new(&dir);
        durability.fsync = FsyncPolicy::Off;
        durability.snapshot_secs = f64::INFINITY;
        let cfg = idle_config().with_durability(durability);
        let server = serve(&cfg, TcpListener::bind("127.0.0.1:0").expect("bind")).expect("serve");
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, _session) = session_into(server.ingest(), &stop, &cfg);
        ask_credit(&mut client);
        let frame: Vec<WireUpdate> = (0..8u32)
            .map(|i| WireUpdate {
                class: (i % 2) as u8,
                index: if i == 2 || i == 5 { 99 } else { i / 2 },
                generation_micros: 1_000 * i64::from(i + 1),
                payload: f64::from(i) + 0.5,
                attr_mask: u64::MAX,
            })
            .collect();
        let kept: Vec<WireUpdate> = frame.iter().copied().filter(|w| w.index < 4).collect();
        write_msg(&mut client, &Msg::UpdateBatch(frame)).expect("send batch");
        assert_eq!(ingested_reaching(server.addr(), 6), 6);

        // The installed state, object by object, once every kept update
        // is installed.
        let query = |class: u8, index: u32| {
            let (reply, answer) = mpsc::sync_channel(1);
            let q = crate::protocol::WireQuery { class, index };
            server
                .ingest()
                .send(Ingest::Query { q, reply })
                .expect("the executor runs");
            let a = answer.recv().expect("an answer");
            (a.payload, a.generation_micros)
        };
        let objects: Vec<(u8, u32)> = (0..2).flat_map(|c| (0..4).map(move |i| (c, i))).collect();
        assert!(within(STEP, || kept.iter().all(|w| query(
            w.class, w.index
        ) == (
            w.payload,
            w.generation_micros
        ))));
        let installed: Vec<_> = objects.iter().map(|&(c, i)| query(c, i)).collect();
        drop(client);
        let report = server.shutdown().expect("shutdown");
        assert_eq!(report.durability.wal_appended, 6);

        let bytes = std::fs::read(dir.join(SEGMENT_FILE)).expect("the segment");
        assert_eq!(
            bytes.len(),
            HDR_LEN + batch_len(6) + REC_LEN,
            "one batch, a seal"
        );
        let scan = scan_segment(&bytes, strip_core::config_fingerprint(&cfg.sim)).expect("scan");
        assert!(scan.sealed);
        let logged: Vec<_> = scan
            .records
            .iter()
            .filter(|r| r.kind == REC_UPDATE)
            .collect();
        assert_eq!(logged.len(), 6);
        for (seq, (r, w)) in logged.iter().zip(&kept).enumerate() {
            assert_eq!((r.seq, r.update), (seq as u64, *w));
            assert_eq!(
                r.arrival_micros, logged[0].arrival_micros,
                "one block, one arrival"
            );
        }

        let recovered = crate::recovery::recover(&cfg).expect("recover");
        assert_eq!((recovered.replayed, recovered.next_seq), (6, 6));
        for (&(c, i), &(payload, micros)) in objects.iter().zip(&installed) {
            let class = Importance::from_index(c as usize).expect("a class");
            let v = recovered.store.view(ViewObjectId::new(class, i));
            assert_eq!(v.payload.to_bits(), payload.to_bits(), "{c}/{i}");
            assert_eq!(LiveClock::sim_to_micros(v.generation_ts), micros, "{c}/{i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session that never asked for credit has none: its first update
    /// closes it, and nothing reaches the executor.
    #[test]
    fn an_update_before_any_credit_request_ends_the_session() {
        let server = idle_server();
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = session_into(server.ingest(), &stop, &idle_config());
        write_msg(&mut client, &Msg::UpdateBatch(vec![wire_update(0, 1)])).expect("send batch");
        assert_eq!(refusal(session).kind(), io::ErrorKind::InvalidData);
        assert!(
            matches!(read_msg(&mut client), Ok(None) | Err(_)),
            "the session is closed"
        );
        assert_eq!(ingested(server.addr()), 0);
        server.shutdown().expect("shutdown");
    }

    /// A control frame leaves a session only after that session's updates
    /// have been popped — for `Txn` too, and however many updates the batch
    /// carried. The negative half waits on a timeout: it can only pass
    /// late, never fail spuriously, because nothing forwards the `Txn`
    /// while the ring is occupied.
    #[test]
    fn txn_is_forwarded_only_after_the_sessions_updates_are_popped() {
        let txn = WireTxn {
            id: 7,
            class: 1,
            value: 1.0,
            slack_micros: 1_000,
            compute_micros: 100,
            reads: vec![(0, 1)],
        };
        for sent in [5, 1] {
            let stop = Arc::new(AtomicBool::new(false));
            let (mut client, session, rx) = loopback_session(&stop);
            let updates = (0..sent).map(|i| wire_update(1, i % 4)).collect();
            write_msg(&mut client, &Msg::CreditRequest).expect("credit request");
            assert!(matches!(
                read_msg(&mut client),
                Ok(Some(Msg::Credit(g))) if g >= u64::from(sent)
            ));
            write_msg(&mut client, &Msg::UpdateBatch(updates)).expect("send updates");
            write_msg(&mut client, &Msg::Txn(txn.clone())).expect("send txn");

            let mut ring = expect_stream(&rx);
            match rx.recv_timeout(Duration::from_millis(200)) {
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                other => panic!("control overtook the un-popped ring: {other:?}"),
            }
            let waiting: usize = std::iter::from_fn(|| ring.pop())
                .map(|b| b.updates.len())
                .sum();
            assert_eq!(waiting, sent as usize, "every update waits in the ring");
            match rx.recv_timeout(STEP) {
                Ok(Ingest::Txn(got)) => assert_eq!(got, txn),
                other => panic!("expected the txn once the ring drained, got {other:?}"),
            }
            drop(client);
            session
                .join()
                .expect("session thread")
                .expect("clean close");
        }
    }

    /// A peer that closes before the four sniffed bytes arrive ends the
    /// session; no thread is left polling for the rest.
    #[test]
    fn session_ends_when_the_peer_closes_inside_the_transport_sniff() {
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session, _rx) = loopback_session(&stop);
        client.write_all(&[5, 0]).expect("send two bytes");
        drop(client);
        assert!(
            within(Duration::from_secs(1), || session.is_finished()),
            "session outlived its peer"
        );
        session
            .join()
            .expect("session thread")
            .expect("clean close");
    }
}
