//! `strip-loadgen` — replays the simulator's workload against a live
//! server.
//!
//! The generators are the exact processes of `strip-workload`
//! ([`UpdateStream::from_config`], [`PoissonTxns`]), built from the same
//! [`SimConfig`] the simulator uses, so a live run and a simulation of the
//! same seed see statistically identical offered load — every field that
//! describes the stream (`lambda_u`, `update_mode`, `disturbance`, …) is
//! honoured here, the server never reads them. The two arrival
//! streams are merged by arrival time and paced against the loadgen's own
//! [`LiveClock`]; updates travel in `UpdateBatch` frames under credit
//! flow control, each transaction in its own frame. When the horizon is
//! reached the loadgen asks the *server* for its stats and its JSON
//! report — the comparison artefact is produced by the same
//! `RunReport::to_json` path the simulator's `repro report` uses, not by
//! client-side re-aggregation.
//!
//! Clock note: update generation timestamps are sampled relative to the
//! loadgen's clock origin, which trails the server's by the connect time.
//! Generation ages (mean `a_update`, seconds) dwarf that skew; DESIGN.md
//! §12 discusses the approximation.

use std::io::{self, IoSlice, Write};
use std::net::TcpStream;

use strip_core::config::SimConfig;
use strip_core::sources::{TxnSource, UpdateSource, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_workload::generators::{PoissonTxns, UpdateStream};

use crate::clock::LiveClock;
use crate::protocol::{
    encode_batch_body, read_msg, write_msg, Msg, WireStats, WireTxn, WireUpdate, UPDATE_ENTRY,
};

/// Most updates one `UpdateBatch` frame carries. A frame holds only
/// updates that are already due when it is sent, so this caps frame size
/// without touching the offered load.
const MAX_BATCH: usize = 256;

/// What a replay produced: client-side send counters plus the server's
/// own aggregate counters and full JSON report.
#[derive(Debug, Clone)]
pub struct LoadgenSummary {
    /// Updates sent (inside batch frames).
    pub sent_updates: u64,
    /// Transaction frames sent.
    pub sent_txns: u64,
    /// `UpdateBatch` frames sent.
    pub sent_batches: u64,
    /// Wall-clock seconds the replay took.
    pub elapsed: f64,
    /// The server's aggregate counters after the replay.
    pub stats: WireStats,
    /// The server's full `RunReport`, serialised by the server itself.
    pub report_json: String,
}

/// One merged arrival, ordered by time.
enum Arrival {
    Update(UpdateSpec),
    Txn(TxnSpec),
}

/// Pulls the two generator streams in arrival order.
struct Merged {
    updates: UpdateStream,
    txns: PoissonTxns,
    next_update: Option<UpdateSpec>,
    next_txn: Option<TxnSpec>,
}

impl Merged {
    fn new(cfg: &SimConfig) -> Self {
        let mut updates = UpdateStream::from_config(cfg);
        let mut txns = PoissonTxns::from_config(cfg);
        let next_update = updates.next_update();
        let next_txn = txns.next_txn();
        Merged {
            updates,
            txns,
            next_update,
            next_txn,
        }
    }

    /// The arrival `next()` would return, as `(arrival seconds, is it an
    /// update)` — the batcher peeks to decide whether to keep filling
    /// the pending batch or flush it. Ties go to the update.
    fn peek(&self) -> Option<(f64, bool)> {
        let update = self.next_update.as_ref().map(|u| u.arrival);
        let txn = self.next_txn.as_ref().map(|t| t.arrival);
        match (update, txn) {
            (Some(u), Some(t)) if t < u => Some((t.as_secs(), false)),
            (Some(u), _) => Some((u.as_secs(), true)),
            (None, t) => t.map(|t| (t.as_secs(), false)),
        }
    }

    fn next(&mut self) -> Option<Arrival> {
        let (_, is_update) = self.peek()?;
        if is_update {
            let due = self.next_update.take();
            self.next_update = self.updates.next_update();
            due.map(Arrival::Update)
        } else {
            let due = self.next_txn.take();
            self.next_txn = self.txns.next_txn();
            due.map(Arrival::Txn)
        }
    }
}

fn wire_update(u: &UpdateSpec) -> WireUpdate {
    WireUpdate {
        class: u.object.class.index() as u8,
        index: u.object.index,
        generation_micros: LiveClock::sim_to_micros(u.generation_ts),
        payload: u.payload,
        attr_mask: u.attr_mask,
    }
}

fn wire_txn(t: &TxnSpec) -> WireTxn {
    WireTxn {
        id: t.id,
        class: t.class.index() as u8,
        value: t.value,
        slack_micros: (t.slack * 1e6).round().max(0.0) as u64,
        compute_micros: (t.compute_time * 1e6).round().max(0.0) as u64,
        reads: t
            .reads
            .iter()
            .map(|r| (r.class.index() as u8, r.index))
            .collect(),
    }
}

/// Client-side state of one replay connection: the pending
/// batch, its reusable encode buffer, and the credit window.
struct Batcher {
    pending: Vec<WireUpdate>,
    body: Vec<u8>,
    /// Updates the server has granted permission for but we have not yet
    /// sent (cumulative grants minus cumulative batched sends).
    credit: u64,
    sent_batches: u64,
}

impl Batcher {
    fn new() -> Batcher {
        Batcher {
            pending: Vec::with_capacity(MAX_BATCH),
            body: Vec::with_capacity(5 + MAX_BATCH * UPDATE_ENTRY),
            credit: 0,
            sent_batches: 0,
        }
    }

    /// Sends the whole pending batch, splitting it into chunks the
    /// credit window allows and blocking on [`Msg::Credit`] grants when
    /// the window is exhausted. Blocking is deadlock-free: with zero
    /// credit left the server sees `granted == received` and its
    /// starvation guard grants as soon as the executor frees window.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        let mut sent = 0;
        while sent < self.pending.len() {
            if self.credit == 0 {
                match read_msg(stream)? {
                    Some(Msg::Credit(g)) => self.credit += g,
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("expected Credit, got {other:?}"),
                        ))
                    }
                }
                continue;
            }
            let n = (self.pending.len() - sent).min(self.credit as usize);
            let chunk = &self.pending[sent..sent + n];
            encode_batch_body(&mut self.body, chunk).map_err(io::Error::from)?;
            write_frame_vectored(stream, &self.body)?;
            self.credit -= n as u64;
            self.sent_batches += 1;
            sent += n;
        }
        self.pending.clear();
        Ok(())
    }

    /// Reads the next non-`Credit` message, folding any credit grants
    /// that accumulated in the socket into the window.
    fn read_response(&mut self, stream: &mut TcpStream) -> io::Result<Option<Msg>> {
        loop {
            match read_msg(stream)? {
                Some(Msg::Credit(g)) => self.credit += g,
                other => return Ok(other),
            }
        }
    }
}

/// Writes one frame with a vectored write — length prefix and body leave
/// in a single syscall when the socket accepts both iovecs at once.
fn write_frame_vectored(stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
    let len = (body.len() as u32).to_le_bytes();
    let total = len.len() + body.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < len.len() {
            stream.write_vectored(&[IoSlice::new(&len[written..]), IoSlice::new(body)])?
        } else {
            stream.write(&body[written - len.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "socket accepted zero bytes of a frame",
            ));
        }
        written += n;
    }
    Ok(())
}

/// Replays `cfg`'s workload against the server at `addr` in real time,
/// then retrieves the server's stats and JSON report over the same
/// connection. Updates travel in [`Msg::UpdateBatch`] frames of up to
/// [`MAX_BATCH`] updates under the credit-based flow control of
/// DESIGN.md §13. Pacing is per *arrival*, not per frame: a batch frame
/// carries exactly the updates that are already due when it is sent, so
/// the offered load keeps the generators' seeded Poisson timing.
///
/// # Errors
///
/// Propagates connection and protocol I/O errors, and `InvalidData` when
/// the server answers with an unexpected message type.
pub fn replay(addr: &str, cfg: &SimConfig) -> io::Result<LoadgenSummary> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut batcher = Batcher::new();
    // Opt into flow control before offering load.
    write_msg(&mut stream, &Msg::CreditRequest)?;
    match read_msg(&mut stream)? {
        Some(Msg::Credit(g)) => batcher.credit += g,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected initial Credit, got {other:?}"),
            ))
        }
    }
    let clock = LiveClock::start();
    let mut merged = Merged::new(cfg);
    let mut sent_updates = 0u64;
    let mut sent_txns = 0u64;
    while let Some(arrival) = merged.next() {
        match arrival {
            Arrival::Update(u) => {
                if batcher.pending.is_empty() {
                    pace_until(&clock, u.arrival.as_secs());
                }
                batcher.pending.push(wire_update(&u));
                sent_updates += 1;
                // Keep filling while the batch has room and the next
                // arrival is an update that is already due.
                let full = batcher.pending.len() >= MAX_BATCH;
                let next_due_update = matches!(
                    merged.peek(),
                    Some((at, true)) if at <= clock.now().as_secs()
                );
                if full || !next_due_update {
                    batcher.flush(&mut stream)?;
                }
            }
            Arrival::Txn(t) => {
                batcher.flush(&mut stream)?;
                pace_until(&clock, t.arrival.as_secs());
                write_msg(&mut stream, &Msg::Txn(wire_txn(&t)))?;
                sent_txns += 1;
            }
        }
    }
    batcher.flush(&mut stream)?;
    // Let the horizon pass before sampling the server.
    pace_until(&clock, cfg.duration);
    write_msg(&mut stream, &Msg::StatsRequest)?;
    let stats = match batcher.read_response(&mut stream)? {
        Some(Msg::StatsResponse(s)) => s,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected StatsResponse, got {other:?}"),
            ))
        }
    };
    write_msg(&mut stream, &Msg::ReportRequest)?;
    let report_json = match batcher.read_response(&mut stream)? {
        Some(Msg::ReportJson(j)) => j,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected ReportJson, got {other:?}"),
            ))
        }
    };
    Ok(LoadgenSummary {
        sent_updates,
        sent_txns,
        sent_batches: batcher.sent_batches,
        elapsed: clock.now().as_secs(),
        stats,
        report_json,
    })
}

/// Sleeps coarsely to within 2 ms of the target instant, then spins the
/// rest — send jitter stays far below the executor's quantum.
fn pace_until(clock: &LiveClock, target_secs: f64) {
    let gap = target_secs - clock.now().as_secs();
    if gap > 0.002 {
        LiveClock::coarse_sleep(gap - 0.002);
    }
    let rest = target_secs - clock.now().as_secs();
    if rest > 0.0 {
        LiveClock::spin_for(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stream_is_ordered_by_arrival() {
        let cfg = SimConfig::builder()
            .n_low(8)
            .n_high(8)
            .lambda_u(200.0)
            .lambda_t(50.0)
            .duration(0.5)
            .warmup(0.0)
            .build()
            .expect("valid config");
        let mut merged = Merged::new(&cfg);
        let mut last = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some(a) = merged.next() {
            let at = match a {
                Arrival::Update(u) => u.arrival.as_secs(),
                Arrival::Txn(t) => t.arrival.as_secs(),
            };
            assert!(at >= last, "arrivals out of order");
            last = at;
            n += 1;
        }
        assert!(n > 10, "expected a non-trivial merged stream, got {n}");
    }

    /// The updates of `cfg`'s merged stream, in arrival order.
    fn merged_updates(cfg: &SimConfig) -> Vec<UpdateSpec> {
        let mut merged = Merged::new(cfg);
        let mut out = Vec::new();
        while let Some(a) = merged.next() {
            if let Arrival::Update(u) = a {
                out.push(u);
            }
        }
        out
    }

    #[test]
    fn merged_stream_honours_every_field_that_describes_the_stream() {
        use std::collections::BTreeMap;
        use strip_core::config::{DisturbanceSpec, UpdateMode};
        let base = SimConfig::builder()
            .n_low(8)
            .n_high(8)
            .lambda_u(200.0)
            .lambda_t(20.0)
            .duration(1.0)
            .warmup(0.0);

        // Periodic: each object is re-generated every `period` seconds
        // sharp (network ages scatter the arrivals, not the generations).
        let cfg = base
            .clone()
            .update_mode(UpdateMode::Periodic { jitter_frac: 0.0 })
            .build()
            .expect("valid periodic config");
        let period = cfg.per_object_refresh_mean(true);
        let mut generations: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for u in merged_updates(&cfg) {
            generations
                .entry(u.object)
                .or_default()
                .push(u.generation_ts.as_secs());
        }
        assert_eq!(generations.len(), 16, "every object reports");
        for (object, mut gens) in generations {
            gens.sort_by(f64::total_cmp);
            assert!(gens.len() > 5, "{object:?} reported {} times", gens.len());
            for pair in gens.windows(2) {
                // A whole number of periods: an emission whose arrival
                // fell past the horizon leaves a gap of two.
                let periods = (pair[1] - pair[0]) / period;
                assert!(
                    periods > 0.5 && (periods - periods.round()).abs() < 1e-6,
                    "{object:?} re-generated after {periods} periods"
                );
            }
        }

        // Disturbed: duplicate deliveries reach the wire.
        let plain = base.clone().build().expect("valid config");
        let disturbed = base
            .disturbance(Some(DisturbanceSpec {
                p_duplicate: 0.5,
                ..DisturbanceSpec::default()
            }))
            .build()
            .expect("valid disturbed config");
        let sent = merged_updates(&disturbed);
        let repeats = sent
            .windows(2)
            .filter(|w| w[0].object == w[1].object && w[0].generation_ts == w[1].generation_ts)
            .count();
        assert!(
            sent.len() > merged_updates(&plain).len() + 50,
            "{} sent",
            sent.len()
        );
        assert!(
            repeats > 0,
            "no duplicate was delivered next to its original"
        );
    }

    #[test]
    fn wire_mappings_preserve_identity_fields() {
        use strip_db::object::{Importance, ViewObjectId};
        use strip_sim::time::SimTime;
        let u = UpdateSpec {
            arrival: SimTime::from_secs(1.0),
            object: ViewObjectId::new(Importance::High, 7),
            generation_ts: SimTime::from_secs(-0.25),
            payload: 3.5,
            attr_mask: u64::MAX,
        };
        let w = wire_update(&u);
        assert_eq!((w.class, w.index), (1, 7));
        assert_eq!(w.generation_micros, -250_000);
        let t = TxnSpec {
            id: 42,
            class: Importance::Low,
            value: 10.0,
            arrival: SimTime::from_secs(1.0),
            slack: 0.125,
            compute_time: 0.050,
            reads: vec![ViewObjectId::new(Importance::Low, 3)],
            derived_reads: vec![],
        };
        let wt = wire_txn(&t);
        assert_eq!(wt.id, 42);
        assert_eq!(wt.slack_micros, 125_000);
        assert_eq!(wt.compute_micros, 50_000);
        assert_eq!(wt.reads, vec![(0u8, 3u32)]);
    }
}
