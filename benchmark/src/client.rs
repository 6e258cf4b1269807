//! The benchmark's own wire clients: a credit-correct batched sender, a
//! paced point-query prober, and a sleep-based pacer.
//!
//! The legacy harness in `crates/bench` waits for a *full* batch of credit
//! before sending; with `0 < credit < batch` left, client and server both
//! block in `read` forever. [`CreditClient::send`] instead sends
//! `min(batch, credit)` whenever any credit is left and blocks only at zero,
//! where the server's starvation guard is bound to grant.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use strip_live::protocol::{
    encode_batch_body, read_msg, write_msg, Msg, WireQuery, WireQueryResponse, WireStats, WireTxn,
    WireUpdate,
};

use crate::trace::Trace;

fn unexpected(what: &str, got: Option<Msg>) -> io::Error {
    let got = match got {
        Some(m) => format!("tag {}", m.tag()),
        None => "EOF".into(),
    };
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {what}, got {got}"),
    )
}

/// One credited connection that carries updates in `UpdateBatch` frames.
#[derive(Debug)]
pub struct CreditClient {
    stream: TcpStream,
    /// Updates the server has granted and we have not yet sent.
    credit: u64,
    frame: Vec<u8>,
    body: Vec<u8>,
    /// Times the sender sat at zero credit waiting for a grant.
    pub stalls: u64,
    /// Total time spent in those waits.
    pub stall_time: Duration,
    trace: Trace,
}

/// A connection that has asked for credit and not yet read the grant.
#[derive(Debug)]
pub struct PendingClient {
    stream: TcpStream,
    trace: Trace,
}

impl PendingClient {
    /// Waits for the initial grant — the first reply the server ever sends.
    pub fn granted(mut self) -> io::Result<CreditClient> {
        let credit = match read_msg(&mut self.stream)? {
            Some(Msg::Credit(g)) => g,
            other => return Err(unexpected("initial Credit", other)),
        };
        Ok(CreditClient {
            stream: self.stream,
            credit,
            frame: Vec::new(),
            body: Vec::new(),
            stalls: 0,
            stall_time: Duration::ZERO,
            trace: self.trace,
        })
    }
}

impl CreditClient {
    /// Connects and opts into flow control without waiting for the reply.
    ///
    /// A bound listener completes the handshake from its backlog, so this
    /// works *before* `serve()` is called on it. The set-up timing relies on
    /// that: the server's accept loop polls every 50 ms, and a client that
    /// connects after `serve()` returns either wins or loses a race with the
    /// loop's first `accept`, which makes "time to first reply" read 1 ms or
    /// 51 ms by chance. With the request already queued, the first `accept`
    /// always finds it.
    pub fn request(addr: SocketAddr, trace: Trace) -> io::Result<PendingClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_msg(&mut stream, &Msg::CreditRequest)?;
        Ok(PendingClient { stream, trace })
    }

    /// [`CreditClient::request`] then [`PendingClient::granted`].
    pub fn connect(addr: SocketAddr, trace: Trace) -> io::Result<CreditClient> {
        CreditClient::request(addr, trace)?.granted()
    }

    /// Sends `updates` in frames of at most `batch`, never exceeding the
    /// credit window.
    pub fn send(&mut self, updates: &[WireUpdate], batch: usize) -> io::Result<()> {
        let mut sent = 0;
        while sent < updates.len() {
            if self.credit == 0 {
                let _span = self.trace.span("credit_wait");
                let waiting = Instant::now();
                match read_msg(&mut self.stream)? {
                    Some(Msg::Credit(g)) => self.credit += g,
                    other => return Err(unexpected("Credit", other)),
                }
                self.stalls += 1;
                self.stall_time += waiting.elapsed();
                continue;
            }
            let n = batch
                .min(updates.len() - sent)
                .min(usize::try_from(self.credit).unwrap_or(usize::MAX));
            {
                let _span = self.trace.span("encode");
                encode_batch_body(&mut self.body, &updates[sent..sent + n])
                    .map_err(io::Error::from)?;
                self.frame.clear();
                self.frame
                    .extend_from_slice(&(self.body.len() as u32).to_le_bytes());
                self.frame.extend_from_slice(&self.body);
            }
            {
                let _span = self.trace.span("socket_write");
                self.stream.write_all(&self.frame)?;
            }
            self.credit -= n as u64;
            sent += n;
        }
        Ok(())
    }

    /// Sends one transaction frame.
    pub fn send_txn(&mut self, txn: &WireTxn) -> io::Result<()> {
        write_msg(&mut self.stream, &Msg::Txn(txn.clone()))
    }

    /// The next non-`Credit` message; grants that arrive meanwhile are
    /// folded into the window.
    fn response(&mut self) -> io::Result<Option<Msg>> {
        loop {
            match read_msg(&mut self.stream)? {
                Some(Msg::Credit(g)) => self.credit += g,
                other => return Ok(other),
            }
        }
    }

    /// `StatsRequest` round trip. The reply is the server's ack barrier: it
    /// leaves only after every update sent before it has been popped from
    /// the ring (and, with a WAL, written).
    pub fn stats(&mut self) -> io::Result<WireStats> {
        write_msg(&mut self.stream, &Msg::StatsRequest)?;
        match self.response()? {
            Some(Msg::StatsResponse(s)) => Ok(s),
            other => Err(unexpected("StatsResponse", other)),
        }
    }

    /// Point query on this connection (waits for the ring to drain first,
    /// so it observes every update sent before it).
    pub fn query(&mut self, q: WireQuery) -> io::Result<WireQueryResponse> {
        write_msg(&mut self.stream, &Msg::Query(q))?;
        match self.response()? {
            Some(Msg::QueryResponse(r)) => Ok(r),
            other => Err(unexpected("QueryResponse", other)),
        }
    }

    /// Polls stats until nothing is queued. The sleep between polls is half
    /// the time the remaining backlog needs at the rate seen so far, within
    /// [200 µs, 5 ms], so the last poll lands close behind the last install
    /// without spinning.
    pub fn wait_drained(&mut self, since: Instant) -> io::Result<WireStats> {
        loop {
            let stats = {
                let _span = self.trace.span("drain_poll");
                self.stats()?
            };
            if stats.queued == 0 {
                return Ok(stats);
            }
            let done = (stats.ingested - stats.queued).max(1) as f64;
            let per_update = since.elapsed().as_secs_f64() / done;
            let nap = (0.5 * stats.queued as f64 * per_update).clamp(200e-6, 5e-3);
            std::thread::sleep(Duration::from_secs_f64(nap));
        }
    }
}

/// Update conservation as the server reports it:
/// `ingested = applied + superseded + shed + queued`.
pub fn conserved(s: &WireStats) -> bool {
    s.ingested == s.applied + s.superseded + s.shed + s.queued
}

/// Sleeps until `target`, then spins the last ≤ 50 µs. Never spins longer:
/// on a two-core host a spinning generator steals the executor's core.
pub fn pace_until(target: Instant) {
    const SPIN: Duration = Duration::from_micros(50);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let gap = target - now;
        if gap > SPIN {
            std::thread::sleep(gap - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What the prober saw.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Reply time minus the *scheduled* send instant, µs — a stalled
    /// prober charges its lateness to the server's latency, as a user
    /// waiting on a schedule would.
    pub rtt_us: Vec<f64>,
    /// Queries whose reply was missing or named no object.
    pub failed: u64,
}

/// Sends one point `Query` every `period` on its own connection until
/// `stop` is raised. `pick` names the object of the next query.
pub fn probe(
    addr: SocketAddr,
    period: Duration,
    stop: &AtomicBool,
    trace: &Trace,
    mut pick: impl FnMut() -> WireQuery,
) -> io::Result<ProbeLog> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut log = ProbeLog::default();
    let start = Instant::now();
    let mut k = 0u64;
    while !stop.load(Ordering::Acquire) {
        let due = start + period * u32::try_from(k).unwrap_or(u32::MAX);
        pace_until(due);
        let _span = trace.span("query_rtt");
        write_msg(&mut stream, &Msg::Query(pick()))?;
        match read_msg(&mut stream)? {
            Some(Msg::QueryResponse(r)) if r.uu_stale <= 1 && r.payload.is_finite() => {}
            Some(Msg::QueryResponse(_)) => log.failed += 1,
            other => return Err(unexpected("QueryResponse", other)),
        }
        log.rtt_us.push(due.elapsed().as_secs_f64() * 1e6);
        // Open loop: a slow reply does not shift the schedule. The slots it
        // overran are sent at once and timed from when they were due.
        k += 1;
    }
    Ok(log)
}
