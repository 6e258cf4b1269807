//! The `stripd` TCP front end.
//!
//! One executor thread owns the scheduling core; an accept loop hands
//! every connection to its own thread. A connection thread reaches the
//! executor two ways and no other. **Data**: updates arrive only in
//! tag-7 batch frames, only within the credit the session was granted
//! (`CreditRequest` → `Credit`), and ride the session's bounded SPSC ring;
//! an update past the grant ends the session. **Control**: transactions,
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

use strip_core::report::RunReport;
use strip_obs::PromText;

use crate::credit::CreditWindow;
use crate::executor::{Executor, Ingest, LiveConfig};
use crate::protocol::{
    decode_body, for_each_batch_update, write_msg, FrameReader, Msg, WireStats, WireUpdate,
};
use crate::recovery::Recovered;
use crate::spsc;

/// Capacity of each connection's lock-free ingest ring. Must be at least
/// [`crate::protocol::MAX_BATCH_UPDATES`] so a full window of credit (one
/// ring's worth) always admits the largest legal batch frame without the
/// producer blocking mid-frame.
pub const RING_CAPACITY: usize = 1 << 16;

/// Credit top-ups are withheld until at least this much window can be
/// granted, so the grant traffic stays a small fraction of the update
/// traffic (one Credit frame per half-ring of updates).
const CREDIT_LOW_WATER: u64 = (RING_CAPACITY / 2) as u64;

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

/// [`serve`], with recovery made explicit: when `cfg.durability` asks for
/// recovery and `recovered` is `None`, recovery runs here (before any
/// connection is accepted); `stripd` instead recovers first — to print the
/// replay summary before binding — and passes the result in. Starts the
/// executor thread and, when durability is configured, its WAL flusher,
/// which starts the directory afresh unless a recovery result stands on
/// it.
///
/// # Errors
///
/// Listener configuration, recovery (damaged or mismatched artefacts) and
/// WAL startup.
pub fn serve_recovered(
    cfg: &LiveConfig,
    listener: TcpListener,
    recovered: Option<Recovered>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(false)?;
    let recovered = match (&cfg.durability, recovered) {
        (Some(d), None) if d.recover => Some(crate::recovery::recover(cfg)?),
        (_, r) => r,
    };
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
    let accept = thread::Builder::new()
        .name("stripd-accept".into())
        .spawn(move || accept_loop(&listener, &accept_tx, &accept_stop))?;
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
/// to the listener itself ([`wake_accept`]).
fn accept_loop(listener: &TcpListener, tx: &Sender<Ingest>, stop: &Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            break; // the wake-up connection, or a client racing it
        }
        let Ok((stream, _)) = conn else { break };
        let conn_tx = tx.clone();
        let conn_stop = Arc::clone(stop);
        let _ = thread::Builder::new()
            .name("stripd-conn".into())
            .spawn(move || {
                let _ = handle_conn(stream, &conn_tx, &conn_stop);
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

/// Per-connection state of the update path: the session's ring producer
/// (none until its first accepted update) plus the credit-window counters
/// (see [`CreditWindow`] for the grant arithmetic, which is model-checked
/// under loom in `tests/loom_spsc.rs`).
struct BatchState {
    /// The producer half of the session's ring; `None` until
    /// [`BatchState::push`] accepts the first update.
    producer: Option<spsc::Producer<WireUpdate>>,
    /// Cumulative counters of the credit protocol for this connection.
    window: CreditWindow,
}

impl BatchState {
    /// A session that has sent no update yet: no ring, nothing granted.
    fn new() -> BatchState {
        BatchState {
            producer: None,
            window: CreditWindow::new(),
        }
    }

    /// Pushes one update into the session's ring, spending one unit of
    /// window; the first accepted update creates the ring and hands its
    /// consumer half to the executor. An update past the window is refused
    /// without being pushed. Inside the window the ring has room —
    /// [`BatchState::grantable`] keeps a slot free for every granted
    /// update — so a full ring is an error too, never a wait.
    fn push(&mut self, update: WireUpdate, tx: &Sender<Ingest>) -> io::Result<()> {
        if !self.window.on_update() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "update sent past the credit window",
            ));
        }
        let producer = match &mut self.producer {
            Some(producer) => producer,
            None => {
                let (producer, consumer) = spsc::ring(RING_CAPACITY);
                tx.send(Ingest::Stream(consumer))
                    .map_err(|_| io::Error::other("executor gone"))?;
                self.producer.insert(producer)
            }
        };
        producer.push(update).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "ingest ring full inside the credit window",
            )
        })
    }

    /// Window the server can grant right now without risking a ring
    /// overrun: the ring's free slots minus the client's unspent window.
    /// The window arithmetic lives in [`CreditWindow::grantable`]; this
    /// wrapper contributes the occupancy observation.
    fn grantable(&self) -> u64 {
        let free = self.producer.as_ref().map_or(RING_CAPACITY as u64, |p| {
            let in_flight = p.pushed().saturating_sub(p.consumed());
            debug_assert!(
                in_flight <= RING_CAPACITY as u64,
                "ring occupancy {in_flight} exceeds capacity"
            );
            (RING_CAPACITY as u64).saturating_sub(in_flight)
        });
        self.window.grantable(free)
    }

    /// Tops the client's credit window up. Normally a grant is only
    /// worth a frame once `CREDIT_LOW_WATER` has freed up; but when the
    /// client is provably out of credit (every granted unit spent, and
    /// the stream would stall) this *must* grant as soon as anything is
    /// consumable, spinning until the executor frees window — it is
    /// always draining, so the wait terminates.
    fn top_up(&mut self, stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<()> {
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
            thread::yield_now();
            grantable = self.grantable();
        }
        self.window.record_grant(grantable);
        write_msg(stream, &Msg::Credit(grantable))
    }

    /// Blocks until the executor has popped everything this connection
    /// pushed, so a control frame sent after an update takes effect after
    /// it (and a stats reply or final report counts it).
    fn flush(&self, stop: &AtomicBool) {
        let Some(p) = &self.producer else { return };
        while !p.is_drained() {
            if stop.load(Ordering::Acquire) {
                return;
            }
            thread::yield_now();
        }
    }
}

/// Serves one connection: either a binary protocol session or, when the
/// first bytes spell an HTTP GET, one `/metrics` scrape.
fn handle_conn(
    mut stream: TcpStream,
    tx: &Sender<Ingest>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
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
    let mut batch = BatchState::new();
    loop {
        let Some(body) = frames.next_frame(&mut stream)? else {
            return Ok(()); // clean EOF
        };
        // Data plane: a batch frame decodes straight out of the receive
        // buffer into the lock-free ring — no `Vec<WireUpdate>`, no
        // channel, no per-update syscall. The first update past the credit
        // window ends the session; none after it is pushed.
        if body.first() == Some(&7) {
            let mut pushed = Ok(());
            let n = for_each_batch_update(body, |w| {
                if pushed.is_ok() {
                    pushed = batch.push(w, tx);
                }
            })
            .map_err(io::Error::from)?;
            pushed?;
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
fn serve_metrics(stream: &mut TcpStream, tx: &Sender<Ingest>) -> io::Result<()> {
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
    use crate::protocol::{read_msg, WireTxn};
    use std::sync::mpsc::Receiver;
    use std::time::Duration;

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
        let report = run_simulation(
            &cfg,
            ScriptedUpdates::new(Vec::new()),
            ScriptedTxns::new(Vec::new()),
        );
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

    /// The grant arithmetic counts ring occupancy: with the window spent
    /// and the ring full nothing is grantable, and draining half the ring
    /// opens exactly half a ring of window.
    #[test]
    fn credit_window_grants_exactly_the_slots_the_executor_freed() {
        let (tx, rx) = mpsc::channel();
        let mut state = BatchState::new();
        let cap = RING_CAPACITY as u64;

        // The first grant is the whole ring, which does not exist yet.
        assert_eq!(state.grantable(), cap);
        state.window.record_grant(cap);
        for i in 0..cap {
            state
                .push(wire_update(0, (i % 8) as u32), &tx)
                .expect("an update inside the window");
        }
        let mut consumer = match rx.try_recv() {
            Ok(Ingest::Stream(c)) => c,
            other => panic!("expected stream attach, got {other:?}"),
        };
        assert_eq!(state.grantable(), 0, "full ring, window spent");

        // Drain half the ring; exactly that much window opens up.
        for _ in 0..cap / 2 {
            assert!(consumer.pop().is_some());
        }
        assert_eq!(state.grantable(), cap / 2);
        state.window.record_grant(cap / 2);
        assert_eq!(
            state.grantable(),
            0,
            "the unspent window holds the free half"
        );

        // The client spends the window to the boundary: zero again.
        for i in 0..cap / 2 {
            state
                .push(wire_update(1, (i % 8) as u32), &tx)
                .expect("an update inside the window");
        }
        assert_eq!(state.grantable(), 0);

        // Fully drained: one whole ring minus the (zero) unspent window.
        while consumer.pop().is_some() {}
        assert_eq!(state.grantable(), cap);
    }

    /// A session on a loopback socket whose server end runs
    /// [`handle_conn`] into `tx` on a thread the test can join.
    fn session_into(
        tx: Sender<Ingest>,
        stop: &Arc<AtomicBool>,
    ) -> (TcpStream, JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        let stop = Arc::clone(stop);
        (client, thread::spawn(move || handle_conn(conn, &tx, &stop)))
    }

    /// A session with the test playing executor: the client socket, the
    /// session thread and the receiving end of the channel it talks to.
    fn loopback_session(
        stop: &Arc<AtomicBool>,
    ) -> (TcpStream, JoinHandle<io::Result<()>>, Receiver<Ingest>) {
        let (tx, rx) = mpsc::channel();
        let (client, session) = session_into(tx, stop);
        (client, session, rx)
    }

    const STEP: Duration = Duration::from_secs(10);

    /// The ring the session hands over at its first accepted update.
    fn expect_stream(rx: &Receiver<Ingest>) -> spsc::Consumer<WireUpdate> {
        match rx.recv_timeout(STEP) {
            Ok(Ingest::Stream(c)) => c,
            other => panic!("expected the session's ring first, got {other:?}"),
        }
    }

    /// Waits for a session to end on its own, then returns the error it
    /// ended with.
    fn refusal(session: JoinHandle<io::Result<()>>) -> io::Error {
        let deadline = std::time::Instant::now() + STEP;
        while !session.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "session outlived its protocol breach"
            );
            thread::sleep(Duration::from_millis(5));
        }
        session
            .join()
            .expect("session thread panicked")
            .expect_err("session ended without an error")
    }

    /// A live server with an idle workload, for sessions whose updates a
    /// real executor pops.
    fn idle_server() -> ServerHandle {
        let sim = strip_core::config::SimConfig::builder()
            .n_low(4)
            .n_high(4)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(1.0)
            .warmup(0.0)
            .build()
            .expect("valid config");
        let cfg = LiveConfig::new(sim).expect("valid live config");
        serve(&cfg, TcpListener::bind("127.0.0.1:0").expect("bind")).expect("serve")
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
        let (mut client, session) = session_into(server.ingest(), &stop);
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
        let deadline = std::time::Instant::now() + STEP;
        let mut seen = ingested(server.addr());
        while seen < grant && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
            seen = ingested(server.addr());
        }
        assert_eq!(seen, grant, "exactly the granted updates arrive");
        server.shutdown().expect("shutdown");
    }

    /// A session that never asked for credit has none: its first update
    /// closes it, and nothing reaches the executor.
    #[test]
    fn an_update_before_any_credit_request_ends_the_session() {
        let server = idle_server();
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = session_into(server.ingest(), &stop);
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
            let updates = (0..sent).map(|i| wire_update(1, i)).collect();
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
            assert_eq!(ring.len(), sent as usize, "every update waits in the ring");
            while ring.pop().is_some() {}
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
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while !session.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "session outlived its peer"
            );
            thread::sleep(Duration::from_millis(5));
        }
        session
            .join()
            .expect("session thread")
            .expect("clean close");
    }
}
