//! The `stripd` TCP front end.
//!
//! Each stripe's executor thread owns its own scheduling core; an accept
//! loop hands every connection to its own thread. A connection thread
//! reaches the executors two ways and no other. **Data**: every update,
//! whether it arrived in a tag-1 or a tag-7 frame, rides the session's
//! bounded per-stripe SPSC rings. **Control**: transactions, queries,
//! snapshots, the ring hand-over and shutdown ride the per-stripe
//! [`Ingest`] channels, each control frame only after the session's own
//! rings have been popped — so one connection's frames take effect in
//! wire order, through the one arrival path of the paper's Figure 2
//! (network → bounded OS queue). A [`Router`] (shared by value with
//! every connection) translates global wire object ids into
//! stripe-local ids with the same [`strip_core::stripe`] hash the striped
//! simulator uses; for a single-stripe server the map is absent and
//! every route short-circuits to stripe 0, which is byte-identical to
//! the pre-sharding path. The listener port doubles as a
//! Prometheus-style scrape endpoint: a connection whose first bytes are
//! `GET ` is answered with an HTTP `text/plain` metrics page instead of
//! the binary protocol.
//!
//! Cross-stripe reads happen at the **observation plane**: stats, report
//! and metrics requests fan a snapshot request out to every stripe, wait
//! for all replies (the collect-and-merge barrier), and compose them
//! with [`RunReport::merge_stripes`] — no shared lock ever sits on any
//! stripe's install path. Wire transactions are fire-and-forget (no
//! response frame), so a transaction whose read set spans stripes is
//! split into per-owner sub-transactions that execute independently; the
//! home stripe (owner of the first read) carries the transaction's value
//! and the compute demand is divided proportionally to each stripe's
//! read count.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use strip_core::report::{RunReport, StripeSummary};
use strip_core::stripe::{splitmix64, StripeMap};
use strip_db::object::{Importance, ViewObjectId};
use strip_obs::PromText;

use crate::credit::CreditWindow;
use crate::executor::{stripe_configs, Executor, Ingest, LiveConfig};
use crate::protocol::{
    decode_body, for_each_update, write_msg, FrameReader, Msg, WireQuery, WireStats, WireTxn,
    WireUpdate,
};
use crate::spsc;

/// Capacity of each connection's per-stripe lock-free ingest ring. Must
/// be at least [`crate::protocol::MAX_BATCH_UPDATES`] so a full window of
/// credit (one ring's worth) always admits the largest legal batch frame
/// without the producer blocking mid-frame.
pub const RING_CAPACITY: usize = 1 << 16;

/// Credit top-ups are withheld until at least this much window can be
/// granted, so the grant traffic stays a small fraction of the update
/// traffic (one Credit frame per half-ring of updates).
const CREDIT_LOW_WATER: u64 = (RING_CAPACITY / 2) as u64;

const _: () = assert!(
    RING_CAPACITY >= crate::protocol::MAX_BATCH_UPDATES,
    "a credit window of one ring must fit the largest legal batch frame"
);

/// Routes wire traffic to the owning stripe's executor channel.
///
/// Invalid wire ids (unknown class, index beyond the global shape) are
/// deliberately forwarded untranslated to stripe 0: every stripe-local
/// shape is no larger than the global one, so the executor's own range
/// check rejects them there, and the sharded server accounts for garbage
/// exactly as the single-store server always has.
#[derive(Clone)]
struct Router {
    /// One ingest channel per stripe executor, in stripe order.
    txs: Vec<Sender<Ingest>>,
    /// Absent for a single stripe: every route short-circuits to 0.
    map: Option<Arc<StripeMap>>,
    /// Global object shape, for wire-range validation before translation.
    n_low: u32,
    n_high: u32,
    /// Stripe-local shapes aligned with `txs` (the merge barrier's
    /// tiling argument).
    shapes: Arc<Vec<(u32, u32)>>,
}

impl Router {
    /// Builds the router for `cfg` over the per-stripe channels.
    fn new(cfg: &LiveConfig, txs: Vec<Sender<Ingest>>, shapes: Vec<(u32, u32)>) -> Router {
        let map = (txs.len() > 1).then(|| Arc::new(StripeMap::from_config(&cfg.sim)));
        Router {
            txs,
            map,
            n_low: cfg.sim.n_low,
            n_high: cfg.sim.n_high,
            shapes: Arc::new(shapes),
        }
    }

    /// `(class, index)` names an object inside the global store shape.
    fn in_range(&self, class: u8, index: u32) -> bool {
        match class {
            0 => index < self.n_low,
            1 => index < self.n_high,
            _ => false,
        }
    }

    /// Owning stripe + stripe-local id for a valid global `(class,
    /// index)`. Callers must have checked [`Router::in_range`].
    fn translate(&self, map: &StripeMap, class: u8, index: u32) -> (usize, u32) {
        let class = Importance::from_index(class as usize).unwrap_or(Importance::Low);
        let (s, local) = map.to_local(ViewObjectId::new(class, index));
        (s as usize, local.index)
    }

    /// Routes one update to its owning stripe, translating the index.
    fn route_update(&self, w: WireUpdate) -> (usize, WireUpdate) {
        let Some(map) = &self.map else { return (0, w) };
        if !self.in_range(w.class, w.index) {
            return (0, w);
        }
        let (s, local) = self.translate(map, w.class, w.index);
        (s, WireUpdate { index: local, ..w })
    }

    /// Routes one point query to the stripe owning the object.
    fn route_query(&self, q: WireQuery) -> (usize, WireQuery) {
        let Some(map) = &self.map else { return (0, q) };
        if !self.in_range(q.class, q.index) {
            return (0, q);
        }
        let (s, local) = self.translate(map, q.class, q.index);
        (s, WireQuery { index: local, ..q })
    }

    /// Splits one transaction across the stripes owning its reads.
    ///
    /// The home stripe (owner of the first read; id-hashed for read-free
    /// transactions) keeps the transaction's value and any compute
    /// remainder; other stripes get value-0 sub-transactions sized
    /// proportionally to their read share. A transaction naming *any*
    /// out-of-range object is forwarded whole to stripe 0, where the
    /// executor rejects it entirely before counting it — the same
    /// all-or-nothing admission the single-store server applies.
    fn route_txn(&self, w: WireTxn) -> Vec<(usize, WireTxn)> {
        let Some(map) = &self.map else {
            return vec![(0, w)];
        };
        if w.reads.iter().any(|&(c, i)| !self.in_range(c, i)) {
            return vec![(0, w)];
        }
        let home = match w.reads.first() {
            Some(&(c, i)) => self.translate(map, c, i).0,
            None => (splitmix64(w.id) % self.txs.len() as u64) as usize,
        };
        // Group reads by owner, preserving arrival order within each
        // stripe (the read sequence is part of the cost model).
        let mut by_stripe: Vec<Vec<(u8, u32)>> = vec![Vec::new(); self.txs.len()];
        for &(c, i) in &w.reads {
            let (s, local) = self.translate(map, c, i);
            by_stripe[s].push((c, local));
        }
        let total_reads = w.reads.len() as u64;
        let mut out = Vec::new();
        let mut compute_spent = 0u64;
        for (s, reads) in by_stripe.into_iter().enumerate() {
            if s != home && reads.is_empty() {
                continue;
            }
            let compute = (w.compute_micros * reads.len() as u64)
                .checked_div(total_reads)
                .unwrap_or(w.compute_micros);
            compute_spent += compute;
            out.push((
                s,
                WireTxn {
                    id: w.id,
                    class: w.class,
                    value: if s == home { w.value } else { 0.0 },
                    slack_micros: w.slack_micros,
                    compute_micros: compute,
                    reads,
                },
            ));
        }
        // Integer-division remainder goes to the home sub-transaction so
        // the total compute demand is conserved exactly.
        if let Some((_, txn)) = out.iter_mut().find(|(s, _)| *s == home) {
            txn.compute_micros += w.compute_micros - compute_spent.min(w.compute_micros);
        }
        out
    }

    /// Broadcasts a message constructor to every stripe.
    fn broadcast(&self, make: impl Fn() -> Ingest) {
        for tx in &self.txs {
            let _ = tx.send(make());
        }
    }
}

/// A running live server: the per-stripe executor threads (joined behind
/// one report handle), the accept loop, and the stripe router.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    txs: Vec<Sender<Ingest>>,
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

    /// A sender into an executor ingest channel, for in-process
    /// producers living beside the TCP clients. On a sharded server this
    /// is stripe 0's channel — in-process producers are expected to speak
    /// stripe-local ids (tests) or run against a single-stripe server.
    #[must_use]
    pub fn ingest(&self) -> Sender<Ingest> {
        self.txs[0].clone()
    }

    /// Blocks until every executor finishes — that is, until some client
    /// (or an in-process producer) sends a shutdown — then tears down the
    /// accept loop and returns the final (stripe-merged) report.
    ///
    /// # Errors
    ///
    /// Returns an error when an executor or the accept thread panicked.
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

    /// Requests shutdown of every stripe and then [`ServerHandle::wait`]s.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerHandle::wait`] errors.
    pub fn shutdown(self) -> io::Result<RunReport> {
        for tx in &self.txs {
            let _ = tx.send(Ingest::Shutdown);
        }
        self.wait()
    }

    /// A detached handle that can fire the same orderly shutdown a wire
    /// shutdown frame performs — used by the SIGTERM/SIGINT watcher so an
    /// operator `kill` drains, seals every stripe's WAL, and emits the
    /// report.
    #[must_use]
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            txs: self.txs.clone(),
            stop: Arc::clone(&self.stop),
        }
    }
}

/// Fires the orderly-shutdown path from outside the connection threads
/// (see [`ServerHandle::shutdown_trigger`]).
#[derive(Debug, Clone)]
pub struct ShutdownTrigger {
    txs: Vec<Sender<Ingest>>,
    stop: Arc<AtomicBool>,
}

impl ShutdownTrigger {
    /// Requests shutdown: every stripe executor drains, finalizes
    /// (sealing its WAL if one is attached), and connection readers stop
    /// waiting on full rings; [`ServerHandle::wait`] then returns and
    /// tears down the accept loop. Idempotent.
    pub fn fire(&self) {
        for tx in &self.txs {
            let _ = tx.send(Ingest::Shutdown);
        }
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
/// recovery and `recovered` is `None`, per-stripe recovery runs here
/// (before any connection is accepted); `stripd` instead recovers first —
/// to print the replay summary before binding — and passes the results
/// in, one per stripe in stripe order. Starts one executor thread and
/// (when durability is configured) one WAL flusher per stripe, each over
/// its own `stripe-<s>/` directory — which starts afresh unless a
/// recovery result stands on it; for `stripes > 1` a merger thread
/// joins the executors and composes the final report at the cross-stripe
/// barrier.
///
/// # Errors
///
/// Listener configuration, recovery (damaged or mismatched artefacts),
/// WAL startup, and a `recovered` vector whose length does not match the
/// configured stripe count.
pub fn serve_recovered(
    cfg: &LiveConfig,
    listener: TcpListener,
    recovered: Option<Vec<crate::recovery::Recovered>>,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(false)?;
    let recovered = match (&cfg.durability, recovered) {
        (Some(d), None) if d.recover => Some(crate::recovery::recover_all(cfg)?),
        (_, r) => r,
    };
    let subs = stripe_configs(cfg);
    if let Some(r) = &recovered {
        if r.len() != subs.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "recovered {} stripes for a {}-stripe config",
                    r.len(),
                    subs.len()
                ),
            ));
        }
    }
    let mut recovered = recovered.map(Vec::into_iter);
    let mut txs = Vec::with_capacity(subs.len());
    let mut shapes = Vec::with_capacity(subs.len());
    let mut execs = Vec::with_capacity(subs.len());
    for (s, sub) in subs.iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        let rec = recovered.as_mut().and_then(Iterator::next);
        let wal = match &sub.durability {
            Some(d) => {
                let fingerprint = strip_core::config_fingerprint(&sub.sim);
                let base_seq = rec.as_ref().map_or(0, |r| r.next_seq);
                Some(crate::wal::WalHandle::start(d, fingerprint, base_seq)?)
            }
            None => None,
        };
        let exec = Executor::with_wal(sub, rx, wal, rec);
        let handle = thread::Builder::new()
            .name(format!("stripd-exec-{s}"))
            .spawn(move || exec.run())?;
        txs.push(tx);
        shapes.push((sub.sim.n_low, sub.sim.n_high));
        execs.push(handle);
    }
    // One stripe keeps the executor handle directly (byte-identical to
    // the pre-sharding server); more get a merger thread sitting at the
    // collect-and-merge barrier.
    let exec_thread = if execs.len() == 1 {
        execs.pop().unwrap_or_else(|| unreachable!("one executor"))
    } else {
        let merge_shapes = shapes.clone();
        thread::Builder::new()
            .name("stripd-merge".into())
            .spawn(move || {
                let parts: Vec<RunReport> = execs
                    .into_iter()
                    // lint: allow(live-panic, reason=merger propagates a stripe executor panic)
                    .map(|h| h.join().expect("stripe executor panicked"))
                    .collect();
                RunReport::merge_stripes(&parts, &merge_shapes)
            })?
    };
    let router = Router::new(cfg, txs.clone(), shapes);
    let stop = Arc::new(AtomicBool::new(false));
    let accept_router = router;
    let accept_stop = Arc::clone(&stop);
    let accept_thread = thread::Builder::new()
        .name("stripd-accept".into())
        .spawn(move || {
            accept_loop(&listener, &accept_router, &accept_stop);
        })?;
    Ok(ServerHandle {
        addr,
        txs,
        stop,
        exec: exec_thread,
        accept: accept_thread,
    })
}

/// Blocks in `accept()`, handing each connection to its own thread, until
/// the stop flag is found raised on return from the call — every stop path
/// ends in [`ServerHandle::wait`], which raises the flag and then connects
/// to the listener itself ([`wake_accept`]).
fn accept_loop(listener: &TcpListener, router: &Router, stop: &Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            break; // the wake-up connection, or a client racing it
        }
        let Ok((stream, _)) = conn else { break };
        let conn_router = router.clone();
        let conn_stop = Arc::clone(stop);
        let _ = thread::Builder::new()
            .name("stripd-conn".into())
            .spawn(move || {
                let _ = handle_conn(stream, &conn_router, &conn_stop);
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

/// Per-connection state of the update path: one ring producer per stripe
/// (none until the session's first update frame) plus the credit-window
/// counters (see [`CreditWindow`] for the grant arithmetic, which is
/// model-checked under loom in `tests/loom_spsc.rs`).
struct BatchState {
    /// Ring producers aligned with the router's stripe channels; empty
    /// until [`BatchState::attach`].
    producers: Vec<spsc::Producer<WireUpdate>>,
    /// Cumulative counters of the credit protocol for this connection.
    window: CreditWindow,
}

impl BatchState {
    /// A session that has sent no update yet: no rings, nothing granted.
    fn new() -> BatchState {
        BatchState {
            producers: Vec::new(),
            window: CreditWindow::new(),
        }
    }

    /// Creates one ring per stripe and hands each consumer half to its
    /// executor. Returns false when an executor is gone.
    fn attach(&mut self, router: &Router) -> bool {
        for tx in &router.txs {
            let (producer, consumer) = spsc::ring(RING_CAPACITY);
            if tx.send(Ingest::Stream(consumer)).is_err() {
                return false;
            }
            self.producers.push(producer);
        }
        true
    }

    /// Pushes one update to its owning stripe's ring, spinning (with a
    /// stop check) while that ring is full. Credited clients never trip
    /// the full case — the grant arithmetic in [`BatchState::grantable`]
    /// keeps a slot free in *every* ring for every credited update — so
    /// the spin only serves uncredited senders. Returns false when a
    /// server stop aborted the wait.
    fn push(&mut self, router: &Router, update: WireUpdate, stop: &AtomicBool) -> bool {
        self.window.on_update();
        let (s, mut v) = router.route_update(update);
        loop {
            match self.producers[s].push(v) {
                Ok(()) => return true,
                Err(back) => {
                    if stop.load(Ordering::Acquire) {
                        return false;
                    }
                    v = back;
                    thread::yield_now();
                }
            }
        }
    }

    /// Window the server can grant right now without risking a ring
    /// overrun on any stripe.
    ///
    /// Grants are bounded by the scarcest ring's free slots minus the
    /// client's unspent window — counting *occupancy* rather than
    /// inferring it from grant totals, so updates pushed before the
    /// `CreditRequest` (which old grant-side arithmetic silently ignored,
    /// over-granting by exactly their ring footprint) are accounted for.
    /// The window arithmetic itself lives in [`CreditWindow::grantable`];
    /// this wrapper contributes the occupancy observation.
    fn grantable(&self) -> u64 {
        let min_free = self
            .producers
            .iter()
            .map(|p| {
                let in_flight = p.pushed().saturating_sub(p.consumed());
                debug_assert!(
                    in_flight <= RING_CAPACITY as u64,
                    "ring occupancy {in_flight} exceeds capacity"
                );
                (RING_CAPACITY as u64).saturating_sub(in_flight)
            })
            .min()
            .unwrap_or(RING_CAPACITY as u64);
        self.window.grantable(min_free)
    }

    /// Tops the client's credit window up. Normally a grant is only
    /// worth a frame once `CREDIT_LOW_WATER` has freed up; but when the
    /// client is provably out of credit (every granted unit spent, and
    /// the stream would stall) this *must* grant as soon as anything is
    /// consumable, spinning until the executors free window — they are
    /// always draining, so the wait terminates.
    fn top_up(&mut self, stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<()> {
        if !self.window.is_credited() {
            return Ok(());
        }
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

    /// Blocks until every stripe's executor has popped everything this
    /// connection pushed, so a control frame sent after an update takes
    /// effect after it (and a stats reply or final report counts it).
    fn flush(&self, stop: &AtomicBool) {
        for p in &self.producers {
            while !p.is_drained() {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                thread::yield_now();
            }
        }
    }
}

/// Serves one connection: either a binary protocol session or, when the
/// first bytes spell an HTTP GET, one `/metrics` scrape.
#[allow(clippy::too_many_lines)]
fn handle_conn(mut stream: TcpStream, router: &Router, stop: &Arc<AtomicBool>) -> io::Result<()> {
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
        return serve_metrics(&mut stream, router);
    }
    let mut frames = FrameReader::with_prefix(&first);
    let mut batch = BatchState::new();
    loop {
        let Some(body) = frames.next_frame(&mut stream)? else {
            return Ok(()); // clean EOF
        };
        // Data plane: an update frame (tag 1, or tag 7 for many) decodes
        // straight out of the receive buffer into the lock-free rings —
        // no `Vec<WireUpdate>`, no channel, no per-update syscall.
        if matches!(body.first(), Some(1 | 7)) {
            if batch.producers.is_empty() && !batch.attach(router) {
                return Ok(()); // executor gone
            }
            let mut aborted = false;
            for_each_update(body, |w| {
                if !aborted {
                    aborted = !batch.push(router, w, stop);
                }
            })
            .map_err(io::Error::from)?;
            if aborted {
                return Ok(()); // server stopping; drop the remainder
            }
            batch.top_up(&mut stream, stop)?;
            continue;
        }
        // Control plane: a control frame leaves this session only after
        // the session's updates have been popped, so the executors see
        // one connection's frames in wire order (and a stats reply or the
        // final report counts every update sent ahead of it).
        let msg = decode_body(body).map_err(io::Error::from)?;
        batch.flush(stop);
        match msg {
            Msg::CreditRequest => {
                batch.window.opt_in();
                // Initial grant: whatever the rings can absorb.
                let grant = batch.grantable();
                batch.window.record_grant(grant);
                write_msg(&mut stream, &Msg::Credit(grant))?;
            }
            Msg::Txn(w) => {
                for (s, sub) in router.route_txn(w) {
                    if router.txs[s].send(Ingest::Txn(sub)).is_err() {
                        return Ok(());
                    }
                }
            }
            Msg::Query(q) => {
                let (s, q) = router.route_query(q);
                let (qtx, qrx) = mpsc::sync_channel(1);
                if router.txs[s].send(Ingest::Query { q, reply: qtx }).is_err() {
                    return Ok(());
                }
                let resp = qrx
                    .recv()
                    .map_err(|_| io::Error::other("executor dropped query"))?;
                write_msg(&mut stream, &Msg::QueryResponse(resp))?;
            }
            Msg::DerivedQuery(q) => {
                // Every stripe drives a full DAG replica over its own slice
                // of the update stream; a derived query interrogates one
                // deterministic replica (single-stripe runs see the whole
                // stream, so the answer is exact there).
                let s = q.node as usize % router.txs.len();
                let (qtx, qrx) = mpsc::sync_channel(1);
                if router.txs[s]
                    .send(Ingest::DerivedQuery { q, reply: qtx })
                    .is_err()
                {
                    return Ok(());
                }
                let resp = qrx
                    .recv()
                    .map_err(|_| io::Error::other("executor dropped derived query"))?;
                write_msg(&mut stream, &Msg::DerivedQueryResponse(resp))?;
            }
            Msg::StatsRequest => {
                let report = request_snapshot(router)?;
                write_msg(&mut stream, &Msg::StatsResponse(stats_from_report(&report)))?;
            }
            Msg::ReportRequest => {
                let report = request_snapshot(router)?;
                write_msg(&mut stream, &Msg::ReportJson(report.to_json()))?;
            }
            Msg::Shutdown => {
                router.broadcast(|| Ingest::Shutdown);
                stop.store(true, Ordering::Release);
                return Ok(());
            }
            // Update frames were consumed by the data plane above; what
            // is left here is server-to-client traffic.
            Msg::Update(_)
            | Msg::UpdateBatch(_)
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

/// Asks every stripe executor for an interim report snapshot and merges
/// them at the barrier. Requests fan out before any reply is awaited, so
/// the stripes snapshot concurrently; a single-stripe server returns its
/// report untouched.
fn request_snapshot(router: &Router) -> io::Result<RunReport> {
    let mut replies = Vec::with_capacity(router.txs.len());
    for tx in &router.txs {
        let (rtx, rrx) = mpsc::sync_channel(1);
        tx.send(Ingest::Snapshot { reply: rtx })
            .map_err(|_| io::Error::other("executor gone"))?;
        replies.push(rrx);
    }
    let mut parts = Vec::with_capacity(replies.len());
    for rrx in replies {
        parts.push(
            rrx.recv()
                .map_err(|_| io::Error::other("executor dropped snapshot"))?,
        );
    }
    if parts.len() == 1 {
        return parts
            .into_iter()
            .next()
            .ok_or_else(|| io::Error::other("no snapshot"));
    }
    Ok(RunReport::merge_stripes(&parts, &router.shapes))
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

/// How one `/metrics` series reads its value from the merged report and the
/// wire-level aggregates derived from it.
enum Sample {
    Counter(fn(&RunReport, &WireStats) -> u64),
    Gauge(fn(&RunReport, &WireStats) -> f64),
    /// One gauge with a `class="low"` and a `class="high"` sample.
    GaugeByClass(fn(&RunReport, &WireStats) -> [f64; 2]),
}
use Sample::{Counter, Gauge, GaugeByClass};

/// Every aggregate series of the `/metrics` page, in page order:
/// `(name, help, sample)`. A new series is one new row.
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

/// `(name, help, reading)` of one per-stripe series.
type StripeSeries = (&'static str, &'static str, fn(&StripeSummary) -> u64);

/// The per-stripe series of a sharded run (label `stripe`): the
/// conservation-bearing counters of each [`StripeSummary`] row.
#[rustfmt::skip]
const STRIPE_SERIES: &[StripeSeries] = &[
    ("strip_live_stripe_updates_ingested", "Updates that arrived at each stripe.", |s| s.updates.arrived),
    ("strip_live_stripe_updates_applied", "Updates installed by each stripe.", |s| s.updates.installed_total()),
    ("strip_live_stripe_updates_terminal", "Updates in a terminal bucket at each stripe (conservation).", |s| s.updates.terminal_total()),
    ("strip_live_stripe_txns_arrived", "Transactions admitted by each stripe.", |s| s.txns.arrived),
    ("strip_live_stripe_wal_appended", "WAL records appended by each stripe's flusher.", |s| s.durability.wal_appended),
];

/// Renders the Prometheus-style text page for `/metrics`: every row of
/// [`SERIES`], then for sharded runs the stripe count and every row of
/// [`STRIPE_SERIES`].
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
    if !r.stripes.is_empty() {
        page.gauge(
            "strip_live_stripes",
            "Number of executor stripes.",
            r.stripes.len() as f64,
        );
        let labels: Vec<String> = r.stripes.iter().map(|s| s.stripe.to_string()).collect();
        for (name, help, read) in STRIPE_SERIES {
            let samples: Vec<(&str, f64)> = labels
                .iter()
                .zip(&r.stripes)
                .map(|(label, stripe)| (label.as_str(), read(stripe) as f64))
                .collect();
            page.gauge_labeled(name, help, "stripe", &samples);
        }
    }
    page.render()
}

/// Answers one HTTP GET with the metrics page and closes.
fn serve_metrics(stream: &mut TcpStream, router: &Router) -> io::Result<()> {
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
    let report = request_snapshot(router)?;
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

    /// A two-stripe report with a distinct value behind every series.
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
        for (stripe, share) in [(0u32, 600u64), (1, 400)] {
            let mut s = StripeSummary {
                stripe,
                ..StripeSummary::default()
            };
            s.updates.arrived = share;
            s.updates.installed_background = share / 2;
            s.updates.superseded_skips = share / 10;
            s.updates.left_in_os = 7 + u64::from(stripe);
            s.txns.arrived = 20 + u64::from(stripe);
            s.durability.wal_appended = share - 50;
            r.stripes.push(s);
        }
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

    /// A router over loopback channels, without any executor thread.
    fn test_router(stripes: u32, n_low: u32, n_high: u32) -> (Router, Vec<Receiver<Ingest>>) {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..stripes {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let map = (stripes > 1).then(|| Arc::new(StripeMap::new(stripes, n_low, n_high)));
        let shapes = match &map {
            Some(m) => (0..stripes).map(|s| m.shape(s)).collect(),
            None => vec![(n_low, n_high)],
        };
        (
            Router {
                txs,
                map,
                n_low,
                n_high,
                shapes: Arc::new(shapes),
            },
            rxs,
        )
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

    /// Satellite regression for the credit-window clamp: the old
    /// grant-side formula (`capacity - (granted - consumed)`) ignored
    /// ring occupancy created *before* the client opted into flow
    /// control, granting a full window against a full ring. The checked
    /// occupancy-based arithmetic must grant exactly the free slots.
    #[test]
    fn credit_window_accounts_for_uncredited_backlog() {
        let (router, rxs) = test_router(1, 8, 8);
        let stop = AtomicBool::new(false);
        let mut state = BatchState::new();
        assert!(state.attach(&router), "attach");
        let mut consumer = match rxs[0].try_recv() {
            Ok(Ingest::Stream(c)) => c,
            other => panic!("expected stream attach, got {other:?}"),
        };
        let cap = RING_CAPACITY as u64;

        // Fill the ring with uncredited pushes (nothing consumed yet).
        for i in 0..cap {
            assert!(state.push(&router, wire_update(0, (i % 8) as u32), &stop));
        }
        assert_eq!(
            state.grantable(),
            0,
            "full ring must grant nothing (old formula granted {cap})"
        );

        // Opt in at the boundary: the initial grant must also be 0.
        state.window.opt_in();
        let grant = state.grantable();
        assert_eq!(grant, 0);
        state.window.record_grant(grant);

        // Drain half the ring; exactly that much window opens up.
        for _ in 0..cap / 2 {
            assert!(consumer.pop().is_some());
        }
        assert_eq!(state.grantable(), cap / 2);
        state.window.record_grant(cap / 2);

        // The client spends the window to the boundary: zero again.
        for i in 0..cap / 2 {
            assert!(state.push(&router, wire_update(1, (i % 8) as u32), &stop));
        }
        assert_eq!(state.grantable(), 0);

        // Fully drained: one whole ring minus the (zero) unspent window.
        while consumer.pop().is_some() {}
        assert_eq!(state.grantable(), cap);
    }

    /// A session against `router` with the test playing executor: a
    /// loopback client socket whose server end runs [`handle_conn`] on its
    /// own thread.
    fn loopback_session(router: &Router, stop: &Arc<AtomicBool>) -> (TcpStream, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        let (router, stop) = (router.clone(), Arc::clone(stop));
        let session = thread::spawn(move || {
            let _ = handle_conn(conn, &router, &stop);
        });
        (client, session)
    }

    const STEP: Duration = Duration::from_secs(10);

    /// The ring the session hands over at its first update frame.
    fn expect_stream(rx: &Receiver<Ingest>) -> spsc::Consumer<WireUpdate> {
        match rx.recv_timeout(STEP) {
            Ok(Ingest::Stream(c)) => c,
            other => panic!("expected the session's ring first, got {other:?}"),
        }
    }

    /// A control frame leaves a session only after that session's updates
    /// have been popped — for `Txn` too, and whichever frame carried the
    /// updates. The negative half waits on a timeout: it can only pass
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
        let frames = [
            (
                Msg::UpdateBatch((0..5).map(|i| wire_update(0, i)).collect()),
                5,
            ),
            (Msg::Update(wire_update(1, 3)), 1),
        ];
        for (updates, sent) in frames {
            let (router, rxs) = test_router(1, 8, 8);
            let stop = Arc::new(AtomicBool::new(false));
            let (mut client, session) = loopback_session(&router, &stop);
            write_msg(&mut client, &updates).expect("send updates");
            write_msg(&mut client, &Msg::Txn(txn.clone())).expect("send txn");

            let mut ring = expect_stream(&rxs[0]);
            match rxs[0].recv_timeout(Duration::from_millis(200)) {
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                other => panic!("control overtook the un-popped ring: {other:?}"),
            }
            assert_eq!(ring.len(), sent, "every update waits in the ring");
            while ring.pop().is_some() {}
            match rxs[0].recv_timeout(STEP) {
                Ok(Ingest::Txn(got)) => assert_eq!(got, txn),
                other => panic!("expected the txn once the ring drained, got {other:?}"),
            }
            drop(client);
            session.join().expect("session thread");
        }
    }

    /// A peer that closes before the four sniffed bytes arrive ends the
    /// session; no thread is left polling for the rest.
    #[test]
    fn session_ends_when_the_peer_closes_inside_the_transport_sniff() {
        let (router, _rxs) = test_router(1, 8, 8);
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = loopback_session(&router, &stop);
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
        session.join().expect("session thread");
    }

    /// Overload from an uncredited frame-per-update sender is bounded by
    /// the ring (and becomes TCP backpressure), not queued on the
    /// unbounded channel.
    #[test]
    fn uncredited_single_update_frames_are_bounded_by_the_ring() {
        let (router, rxs) = test_router(1, 8, 8);
        let stop = Arc::new(AtomicBool::new(false));
        let (mut client, session) = loopback_session(&router, &stop);
        let total = RING_CAPACITY + 1_000;
        let writer = thread::spawn(move || {
            let frame = Msg::Update(wire_update(0, 1)).encode_frame();
            for _ in 0..total {
                client.write_all(&frame).expect("send update");
            }
            client // keep the socket open until the test has counted
        });

        let mut ring = expect_stream(&rxs[0]);
        let deadline = std::time::Instant::now() + STEP;
        while ring.len() < RING_CAPACITY {
            assert!(std::time::Instant::now() < deadline, "ring never filled");
            thread::yield_now();
        }
        // The connection thread is now parked on the full ring with the
        // overflow still in the socket.
        assert_eq!(ring.len(), RING_CAPACITY);
        assert!(
            matches!(rxs[0].try_recv(), Err(mpsc::TryRecvError::Empty)),
            "no update may travel over the channel"
        );

        let mut popped = 0usize;
        while popped < total {
            assert!(
                std::time::Instant::now() < deadline,
                "session never resumed"
            );
            match ring.pop() {
                Some(_) => popped += 1,
                None => thread::yield_now(),
            }
        }
        drop(writer.join().expect("writer thread"));
        session.join().expect("session thread");
        assert!(ring.pop().is_none() && ring.is_closed());
        assert!(
            matches!(rxs[0].try_recv(), Err(mpsc::TryRecvError::Empty)),
            "no update may travel over the channel"
        );
    }

    #[test]
    fn update_routing_translates_in_range_and_rejects_garbage_via_stripe_zero() {
        let (router, _rxs) = test_router(4, 64, 64);
        let map = router.map.as_ref().expect("sharded").clone();
        for index in 0..64u32 {
            for class in [0u8, 1] {
                let (s, local) = router.route_update(wire_update(class, index));
                let imp = Importance::from_index(class as usize).expect("class");
                let (want_s, want_local) = map.to_local(ViewObjectId::new(imp, index));
                assert_eq!(s, want_s as usize);
                assert_eq!(local.index, want_local.index);
                let (n_low, n_high) = map.shape(s as u32);
                let bound = if class == 0 { n_low } else { n_high };
                assert!(local.index < bound, "local index within stripe shape");
            }
        }
        // Out-of-range and bad-class traffic goes to stripe 0 raw, where
        // the executor's own range check drops it.
        let (s, w) = router.route_update(wire_update(0, 64));
        assert_eq!((s, w.index), (0, 64));
        let (s, w) = router.route_update(wire_update(9, 3));
        assert_eq!((s, w.class), (0, 9));
    }

    #[test]
    fn txn_split_conserves_reads_value_and_compute() {
        let (router, _rxs) = test_router(4, 64, 64);
        let map = router.map.as_ref().expect("sharded").clone();
        let txn = WireTxn {
            id: 42,
            class: 1,
            value: 7.5,
            slack_micros: 1_000,
            compute_micros: 10_000,
            reads: (0..10u32).map(|i| (u8::from(i % 2 == 0), i * 5)).collect(),
        };
        let parts = router.route_txn(txn.clone());
        let home = {
            let (c, i) = txn.reads[0];
            let imp = Importance::from_index(c as usize).expect("class");
            map.stripe_of(ViewObjectId::new(imp, i)) as usize
        };
        let mut reads = 0usize;
        let mut compute = 0u64;
        let mut value = 0.0f64;
        for (s, sub) in &parts {
            assert_eq!(sub.id, txn.id);
            assert_eq!(sub.slack_micros, txn.slack_micros);
            reads += sub.reads.len();
            compute += sub.compute_micros;
            value += sub.value;
            if *s == home {
                assert!((sub.value - txn.value).abs() < f64::EPSILON);
            } else {
                assert_eq!(sub.value, 0.0);
                assert!(!sub.reads.is_empty(), "non-home parts carry reads");
            }
        }
        assert_eq!(reads, txn.reads.len());
        assert_eq!(compute, txn.compute_micros, "compute demand conserved");
        assert!((value - txn.value).abs() < f64::EPSILON);

        // Any invalid read forwards the whole transaction, untouched, to
        // stripe 0 (all-or-nothing admission).
        let mut bad = txn;
        bad.reads.push((0, 64));
        let parts = router.route_txn(bad.clone());
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1, bad);
    }
}
