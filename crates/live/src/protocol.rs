//! The `stripd` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 LE body length][body]`; the body is one tag byte
//! followed by a fixed-layout little-endian payload (only the transaction
//! frame has a variable-length tail: its read set). Floating-point values
//! travel as IEEE-754 bit patterns (`f64::to_bits`), timestamps as signed
//! microseconds — generation timestamps may precede the receiving server's
//! start (the external source stamped them), so the sign matters.
//!
//! Client → server: [`Msg::CreditRequest`], [`Msg::UpdateBatch`],
//! [`Msg::Txn`], [`Msg::Query`], [`Msg::StatsRequest`],
//! [`Msg::ReportRequest`], [`Msg::Shutdown`], [`Msg::DerivedQuery`].
//! Server → client: [`Msg::Credit`], [`Msg::QueryResponse`],
//! [`Msg::StatsResponse`], [`Msg::ReportJson`],
//! [`Msg::DerivedQueryResponse`].
//!
//! One frame kind carries updates (DESIGN.md §13): an [`Msg::UpdateBatch`]
//! holds up to [`MAX_BATCH_UPDATES`] of them, and a sender may have only
//! as many in flight as the server granted it ([`Msg::CreditRequest`],
//! then [`Msg::Credit`]), so the server's lock-free ingest ring never
//! overruns.
//!
//! Decoding is strict: unknown tags, short payloads, trailing bytes and
//! oversized frames are all errors ([`ProtoError`]) — a protocol slip
//! surfaces immediately instead of desynchronising the stream. The
//! encode → decode identity is pinned by `tests/prop_protocol.rs`.

use std::io::{self, Read, Write};

/// Largest accepted frame body, bytes. Bounds per-connection memory and
/// caps a transaction's read set (see [`MAX_TXN_READS`]).
pub const MAX_FRAME: usize = 1 << 20;

/// Fixed-size prefix of a transaction body: tag + id + class + value +
/// slack + compute + read count.
const TXN_FIXED: usize = 1 + 8 + 1 + 8 + 8 + 8 + 4;

/// Bytes per entry of a transaction's read set (class byte + index).
const READ_ENTRY: usize = 5;

/// Largest read set a transaction frame can carry within [`MAX_FRAME`].
pub const MAX_TXN_READS: usize = (MAX_FRAME - TXN_FIXED) / READ_ENTRY;

/// Bytes per update inside an [`Msg::UpdateBatch`] body: class + index +
/// generation + payload + attr_mask.
pub const UPDATE_ENTRY: usize = 1 + 4 + 8 + 8 + 8;

/// Fixed-size prefix of an update-batch body: tag + update count.
const BATCH_FIXED: usize = 1 + 4;

/// Largest update count an [`Msg::UpdateBatch`] frame can carry within
/// [`MAX_FRAME`].
pub const MAX_BATCH_UPDATES: usize = (MAX_FRAME - BATCH_FIXED) / UPDATE_ENTRY;

/// An update delivered by the external stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireUpdate {
    /// Importance class of the target object (0 = low, 1 = high).
    pub class: u8,
    /// Object index within the class partition.
    pub index: u32,
    /// Generation timestamp at the external source, microseconds (may be
    /// negative relative to the server's clock origin).
    pub generation_micros: i64,
    /// New payload value.
    pub payload: f64,
    /// Attribute coverage mask (`u64::MAX` = complete update).
    pub attr_mask: u64,
}

/// A transaction submitted for execution. Its arrival time (and therefore
/// its deadline, `arrival + exec_estimate + slack`) is stamped by the
/// server on ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTxn {
    /// Client-chosen transaction id (echoed in server accounting).
    pub id: u64,
    /// Value class (0 = low, 1 = high).
    pub class: u8,
    /// Value returned if the transaction commits on time.
    pub value: f64,
    /// Slack added to the execution estimate to form the deadline, µs.
    pub slack_micros: u64,
    /// Pure computation demand, µs.
    pub compute_micros: u64,
    /// View objects read, as `(class, index)` pairs.
    pub reads: Vec<(u8, u32)>,
}

/// A point read of one view object's current value and freshness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireQuery {
    /// Importance class (0 = low, 1 = high).
    pub class: u8,
    /// Object index within the class partition.
    pub index: u32,
}

/// Answer to a [`WireQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireQueryResponse {
    /// Currently installed payload.
    pub payload: f64,
    /// Generation timestamp of the installed value, µs.
    pub generation_micros: i64,
    /// Age of the installed value at answer time, µs.
    pub age_micros: i64,
    /// 1 when the object is stale under the server's configured criterion
    /// (with the UU criterion: an unapplied update is known to exist).
    pub uu_stale: u8,
}

/// A read of one derived-view DAG node's current value and freshness
/// (derived-view extension; answered with [`Msg::DerivedQueryResponse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireDerivedQuery {
    /// DAG node id (ids are assigned in topological order).
    pub node: u32,
}

/// Answer to a [`WireDerivedQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireDerivedQueryResponse {
    /// Current derived value (after any on-demand refresh).
    pub value: f64,
    /// 1 when the node is (transitively) stale at answer time; 2 when the
    /// server has no DAG configured or the node id is out of range.
    pub stale: u8,
    /// 1 when the read triggered a recursive on-demand refresh (OD policy
    /// on a stale node).
    pub refreshed: u8,
}

/// Aggregate counters answered to a [`Msg::StatsRequest`]. The update
/// counters satisfy `ingested = applied + superseded + shed + queued`
/// (conservation; checked by the `live-smoke` CI job).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireStats {
    /// Updates that arrived at the server.
    pub ingested: u64,
    /// Updates installed into the store (any path).
    pub applied: u64,
    /// Updates skipped because the store already held a newer value.
    pub superseded: u64,
    /// Updates dropped: OS-queue overflow, UQ overflow, MA expiry, dedup,
    /// admission shedding.
    pub shed: u64,
    /// Updates still queued (OS + update queue + on the CPU).
    pub queued: u64,
    /// Transactions that arrived.
    pub txns_arrived: u64,
    /// Transactions that committed on time.
    pub txns_committed: u64,
    /// Transactions that missed their deadline (all abort categories).
    pub txns_missed: u64,
    /// Current OS-queue depth.
    pub os_depth: u64,
    /// Current update-queue depth.
    pub uq_depth: u64,
    /// Time-weighted stale fraction, low-importance partition.
    pub fold_low: f64,
    /// Time-weighted stale fraction, high-importance partition.
    pub fold_high: f64,
    /// Missed-deadline fraction.
    pub p_md: f64,
    /// Average value per second from on-time commits.
    pub av: f64,
}

/// One protocol message (the body of one frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server: a transaction (tag 2).
    Txn(WireTxn),
    /// Client → server: a point read (tag 3).
    Query(WireQuery),
    /// Client → server: request a [`Msg::StatsResponse`] (tag 4).
    StatsRequest,
    /// Client → server: request a [`Msg::ReportJson`] (tag 5).
    ReportRequest,
    /// Client → server: stop the executor and finalise the run (tag 6).
    Shutdown,
    /// Client → server: external updates (tag 7), the one frame that
    /// carries them. At most [`MAX_BATCH_UPDATES`] per frame; the encoder
    /// refuses more.
    UpdateBatch(Vec<WireUpdate>),
    /// Client → server: ask for update credit (tag 8). The server answers
    /// with a [`Msg::Credit`] grant and tops the window up as its ingest
    /// ring drains; a session that sends an update it was not granted is
    /// closed.
    CreditRequest,
    /// Client → server: read one derived-view DAG node (tag 9).
    DerivedQuery(WireDerivedQuery),
    /// Server → client: answer to a query (tag 33).
    QueryResponse(WireQueryResponse),
    /// Server → client: aggregate counters (tag 34).
    StatsResponse(WireStats),
    /// Server → client: a full `RunReport` as JSON (tag 35).
    ReportJson(String),
    /// Server → client: grants the client permission to send this many
    /// further updates (tag 36). Grants are cumulative.
    Credit(u64),
    /// Server → client: answer to a derived-view query (tag 37).
    DerivedQueryResponse(WireDerivedQueryResponse),
}

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the payload was complete.
    Truncated,
    /// The body continued past the payload.
    Trailing(usize),
    /// Unknown tag byte.
    BadTag(u8),
    /// Importance class byte outside {0, 1}.
    BadClass(u8),
    /// Declared frame length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// A `ReportJson` body was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            ProtoError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            ProtoError::BadClass(c) => write!(f, "importance class byte {c} not in {{0, 1}}"),
            ProtoError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::BadUtf8 => write!(f, "report body is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_update(out: &mut Vec<u8>, u: &WireUpdate) {
    out.push(u.class);
    put_u32(out, u.index);
    put_i64(out, u.generation_micros);
    put_f64(out, u.payload);
    put_u64(out, u.attr_mask);
}

/// Appends an update-batch payload (count, entries) after its tag byte.
/// The one tag-7 encoder: [`Msg::encode_body`] and [`encode_batch_body`]
/// both end here.
fn put_batch(out: &mut Vec<u8>, updates: &[WireUpdate]) {
    out.reserve(4 + updates.len() * UPDATE_ENTRY);
    put_u32(out, updates.len() as u32);
    for u in updates {
        put_update(out, u);
    }
}

impl Msg {
    /// Tag byte identifying this message kind on the wire.
    #[must_use]
    pub fn tag(&self) -> u8 {
        match self {
            Msg::Txn(_) => 2,
            Msg::Query(_) => 3,
            Msg::StatsRequest => 4,
            Msg::ReportRequest => 5,
            Msg::Shutdown => 6,
            Msg::UpdateBatch(_) => 7,
            Msg::CreditRequest => 8,
            Msg::DerivedQuery(_) => 9,
            Msg::QueryResponse(_) => 33,
            Msg::StatsResponse(_) => 34,
            Msg::ReportJson(_) => 35,
            Msg::Credit(_) => 36,
            Msg::DerivedQueryResponse(_) => 37,
        }
    }

    /// Encodes the frame body (tag + payload), without the length prefix.
    #[must_use]
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(self.tag());
        match self {
            Msg::Txn(t) => {
                put_u64(&mut out, t.id);
                out.push(t.class);
                put_f64(&mut out, t.value);
                put_u64(&mut out, t.slack_micros);
                put_u64(&mut out, t.compute_micros);
                put_u32(&mut out, t.reads.len() as u32);
                for (class, index) in &t.reads {
                    out.push(*class);
                    put_u32(&mut out, *index);
                }
            }
            Msg::Query(q) => {
                out.push(q.class);
                put_u32(&mut out, q.index);
            }
            Msg::StatsRequest | Msg::ReportRequest | Msg::Shutdown | Msg::CreditRequest => {}
            Msg::UpdateBatch(updates) => put_batch(&mut out, updates),
            Msg::Credit(n) => put_u64(&mut out, *n),
            Msg::DerivedQuery(q) => put_u32(&mut out, q.node),
            Msg::DerivedQueryResponse(r) => {
                put_f64(&mut out, r.value);
                out.push(r.stale);
                out.push(r.refreshed);
            }
            Msg::QueryResponse(r) => {
                put_f64(&mut out, r.payload);
                put_i64(&mut out, r.generation_micros);
                put_i64(&mut out, r.age_micros);
                out.push(r.uu_stale);
            }
            Msg::StatsResponse(s) => {
                put_u64(&mut out, s.ingested);
                put_u64(&mut out, s.applied);
                put_u64(&mut out, s.superseded);
                put_u64(&mut out, s.shed);
                put_u64(&mut out, s.queued);
                put_u64(&mut out, s.txns_arrived);
                put_u64(&mut out, s.txns_committed);
                put_u64(&mut out, s.txns_missed);
                put_u64(&mut out, s.os_depth);
                put_u64(&mut out, s.uq_depth);
                put_f64(&mut out, s.fold_low);
                put_f64(&mut out, s.fold_high);
                put_f64(&mut out, s.p_md);
                put_f64(&mut out, s.av);
            }
            Msg::ReportJson(json) => out.extend_from_slice(json.as_bytes()),
        }
        out
    }

    /// Encodes the complete frame, length prefix included.
    #[must_use]
    pub fn encode_frame(&self) -> Vec<u8> {
        let body = self.encode_body();
        debug_assert!(body.len() <= MAX_FRAME, "oversized outgoing frame");
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }
}

// ---------------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------------

/// Byte-slice reader tracking the decode position.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn class(&mut self) -> Result<u8, ProtoError> {
        let c = self.u8()?;
        if c > 1 {
            return Err(ProtoError::BadClass(c));
        }
        Ok(c)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        // `take(4)` yields exactly 4 bytes, but this cursor decodes
        // network input — stay checked rather than panic on a slip.
        let bytes: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| ProtoError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| ProtoError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| ProtoError::Truncated)?;
        Ok(i64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn update(&mut self) -> Result<WireUpdate, ProtoError> {
        Ok(WireUpdate {
            class: self.class()?,
            index: self.u32()?,
            generation_micros: self.i64()?,
            payload: self.f64()?,
            attr_mask: self.u64()?,
        })
    }

    fn finish(self, msg: Msg) -> Result<Msg, ProtoError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(ProtoError::Trailing(left));
        }
        Ok(msg)
    }
}

/// Decodes one frame body (tag + payload, no length prefix).
///
/// # Errors
///
/// Returns [`ProtoError`] for unknown tags, truncated or trailing payloads,
/// bad class bytes, oversized bodies and non-UTF-8 report bodies.
pub fn decode_body(body: &[u8]) -> Result<Msg, ProtoError> {
    if body.len() > MAX_FRAME {
        return Err(ProtoError::TooLarge(body.len()));
    }
    let mut c = Cursor { buf: body, pos: 0 };
    let tag = c.u8()?;
    match tag {
        2 => {
            let id = c.u64()?;
            let class = c.class()?;
            let value = c.f64()?;
            let slack_micros = c.u64()?;
            let compute_micros = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_TXN_READS {
                return Err(ProtoError::TooLarge(TXN_FIXED + n * READ_ENTRY));
            }
            let mut reads = Vec::with_capacity(n);
            for _ in 0..n {
                let rc = c.class()?;
                let ri = c.u32()?;
                reads.push((rc, ri));
            }
            c.finish(Msg::Txn(WireTxn {
                id,
                class,
                value,
                slack_micros,
                compute_micros,
                reads,
            }))
        }
        3 => {
            let msg = Msg::Query(WireQuery {
                class: c.class()?,
                index: c.u32()?,
            });
            c.finish(msg)
        }
        4 => c.finish(Msg::StatsRequest),
        5 => c.finish(Msg::ReportRequest),
        6 => c.finish(Msg::Shutdown),
        7 => {
            let mut updates = Vec::with_capacity(body.len() / UPDATE_ENTRY);
            for_each_batch_update(body, |u| updates.push(u))?;
            Ok(Msg::UpdateBatch(updates))
        }
        8 => c.finish(Msg::CreditRequest),
        9 => {
            let msg = Msg::DerivedQuery(WireDerivedQuery { node: c.u32()? });
            c.finish(msg)
        }
        33 => {
            let msg = Msg::QueryResponse(WireQueryResponse {
                payload: c.f64()?,
                generation_micros: c.i64()?,
                age_micros: c.i64()?,
                uu_stale: c.u8()?,
            });
            c.finish(msg)
        }
        34 => {
            let msg = Msg::StatsResponse(WireStats {
                ingested: c.u64()?,
                applied: c.u64()?,
                superseded: c.u64()?,
                shed: c.u64()?,
                queued: c.u64()?,
                txns_arrived: c.u64()?,
                txns_committed: c.u64()?,
                txns_missed: c.u64()?,
                os_depth: c.u64()?,
                uq_depth: c.u64()?,
                fold_low: c.f64()?,
                fold_high: c.f64()?,
                p_md: c.f64()?,
                av: c.f64()?,
            });
            c.finish(msg)
        }
        35 => {
            let rest = c.take(body.len() - 1)?;
            let json = std::str::from_utf8(rest)
                .map_err(|_| ProtoError::BadUtf8)?
                .to_string();
            c.finish(Msg::ReportJson(json))
        }
        36 => {
            let n = c.u64()?;
            c.finish(Msg::Credit(n))
        }
        37 => {
            let msg = Msg::DerivedQueryResponse(WireDerivedQueryResponse {
                value: c.f64()?,
                stale: c.u8()?,
                refreshed: c.u8()?,
            });
            c.finish(msg)
        }
        t => Err(ProtoError::BadTag(t)),
    }
}

/// Encodes an [`Msg::UpdateBatch`] body (tag byte included) into `out`,
/// reusing `out`'s allocation — the sender's steady state allocates
/// nothing. The counterpart of [`for_each_batch_update`].
///
/// # Errors
///
/// [`ProtoError::TooLarge`] when `updates` exceeds [`MAX_BATCH_UPDATES`]
/// (the frame would exceed [`MAX_FRAME`]; a peer would refuse it).
pub fn encode_batch_body(out: &mut Vec<u8>, updates: &[WireUpdate]) -> Result<(), ProtoError> {
    if updates.len() > MAX_BATCH_UPDATES {
        return Err(ProtoError::TooLarge(
            BATCH_FIXED + updates.len() * UPDATE_ENTRY,
        ));
    }
    out.clear();
    out.push(7);
    put_batch(out, updates);
    Ok(())
}

/// Decodes the updates of an [`Msg::UpdateBatch`] body (tag byte
/// included) without allocating, invoking `f` once per update in wire
/// order — the counterpart of [`encode_batch_body`]. This is the server's
/// ingest path: updates go straight from the receive buffer into the SPSC
/// ring with no intermediate `Vec`.
///
/// Returns the number of updates decoded.
///
/// # Errors
///
/// Returns [`ProtoError`] when the body is not a well-formed batch (any
/// other tag, truncated or trailing payload, bad class, count past
/// [`MAX_BATCH_UPDATES`]).
pub fn for_each_batch_update(
    body: &[u8],
    mut f: impl FnMut(WireUpdate),
) -> Result<usize, ProtoError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let tag = c.u8()?;
    if tag != 7 {
        return Err(ProtoError::BadTag(tag));
    }
    let n = c.u32()? as usize;
    if n > MAX_BATCH_UPDATES {
        return Err(ProtoError::TooLarge(BATCH_FIXED + n * UPDATE_ENTRY));
    }
    for _ in 0..n {
        f(c.update()?);
    }
    let left = body.len() - c.pos;
    if left != 0 {
        return Err(ProtoError::Trailing(left));
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// stream I/O
// ---------------------------------------------------------------------------

/// Reads one frame body from `r`. Returns `Ok(None)` on a clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// I/O errors pass through; an EOF inside a frame or a length prefix past
/// [`MAX_FRAME`] becomes `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::TooLarge(len).into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Reads and decodes one message; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// I/O errors pass through; malformed bodies become `InvalidData`.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Option<Msg>> {
    match read_frame(r)? {
        Some(body) => Ok(Some(decode_body(&body)?)),
        None => Ok(None),
    }
}

/// Buffered frame extractor: reads from the socket in large chunks and
/// hands out frame bodies as subslices of an internal reusable buffer.
///
/// [`read_frame`] costs at least two `read` syscalls per frame (prefix,
/// body) plus a fresh `Vec` allocation; at batched rates that syscall
/// and allocator traffic dominates. `FrameReader` instead fills a single
/// growable buffer — one syscall can deliver dozens of frames — and
/// yields each body as a borrowed slice, so the steady state performs
/// zero allocation. The buffer grows lazily up to `MAX_FRAME + 4` and
/// compacts a partial frame to the front before refilling.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// First unconsumed byte in `buf`.
    start: usize,
    /// One past the last filled byte in `buf`.
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// Default chunk size: large enough that a full-speed loadgen batch
    /// frame usually arrives in one or two `read` calls.
    const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a reader with the default buffer capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a reader with an explicit initial buffer capacity (still
    /// grows on demand up to `MAX_FRAME + 4`).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FrameReader {
            buf: vec![0; capacity.clamp(8, MAX_FRAME + 4)],
            start: 0,
            end: 0,
        }
    }

    /// Creates a reader whose buffer starts with `prefix`: bytes the caller
    /// took off the transport before handing it over (at most the default
    /// capacity).
    #[must_use]
    pub(crate) fn with_prefix(prefix: &[u8]) -> Self {
        let mut reader = Self::new();
        reader.buf[..prefix.len()].copy_from_slice(prefix);
        reader.end = prefix.len();
        reader
    }

    /// Returns the next complete frame body, reading from `r` only when
    /// the buffer does not already hold one. `Ok(None)` on a clean EOF
    /// at a frame boundary. The returned slice is valid until the next
    /// call.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; an EOF inside a frame or a length prefix
    /// past [`MAX_FRAME`] becomes `InvalidData`/`UnexpectedEof`.
    pub fn next_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<&[u8]>> {
        let (body_start, len) = loop {
            if let Some(span) = self.peek_frame()? {
                break span;
            }
            if !self.refill(r)? {
                if self.start == self.end {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame",
                ));
            }
        };
        self.start = body_start + len;
        Ok(Some(&self.buf[body_start..body_start + len]))
    }

    /// Little-endian length prefix at the read position. Callers have
    /// checked that 4 bytes are buffered; this decodes network input, so
    /// a bookkeeping slip surfaces as `InvalidData`, not a panic.
    fn len_prefix(&self) -> io::Result<usize> {
        let bytes: [u8; 4] = self
            .buf
            .get(self.start..self.start + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame length prefix out of bounds",
                )
            })?;
        Ok(u32::from_le_bytes(bytes) as usize)
    }

    /// Locates a complete buffered frame without consuming it, as
    /// `(body offset, body length)`.
    fn peek_frame(&self) -> io::Result<Option<(usize, usize)>> {
        let avail = self.end - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len = self.len_prefix()?;
        if len > MAX_FRAME {
            return Err(ProtoError::TooLarge(len).into());
        }
        if avail < 4 + len {
            return Ok(None);
        }
        Ok(Some((self.start + 4, len)))
    }

    /// Performs one `read` into the buffer, compacting/growing first so
    /// there is always room to make progress. Returns false on EOF.
    fn refill<R: Read>(&mut self, r: &mut R) -> io::Result<bool> {
        if self.start == self.end {
            // Nothing buffered: restart at the front, no copy needed.
            self.start = 0;
            self.end = 0;
        }
        let avail = self.end - self.start;
        // Room needed for the frame currently being assembled (4 bytes
        // until its length prefix is complete).
        let needed = if avail >= 4 {
            4 + self.len_prefix()?.min(MAX_FRAME)
        } else {
            4
        };
        if self.buf.len() - self.start < needed || self.end == self.buf.len() {
            // Slide the partial frame to the front.
            self.buf.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = avail;
        }
        if self.buf.len() < needed {
            let new_len = needed.next_power_of_two().min(MAX_FRAME + 4).max(needed);
            self.buf.resize(new_len, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n > 0)
    }
}

/// Encodes and writes one message as a complete frame.
///
/// # Errors
///
/// `InvalidInput` when the encoded body would exceed [`MAX_FRAME`] (a
/// peer would refuse the frame, so it never goes on the wire); other I/O
/// errors pass through.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    let body = msg.encode_body();
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            ProtoError::TooLarge(body.len()).to_string(),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    w.write_all(&frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_fixed_message() {
        let msgs = [
            Msg::Query(WireQuery { class: 0, index: 7 }),
            Msg::DerivedQuery(WireDerivedQuery { node: 17 }),
            Msg::DerivedQueryResponse(WireDerivedQueryResponse {
                value: 2.75,
                stale: 1,
                refreshed: 1,
            }),
            Msg::StatsRequest,
            Msg::ReportRequest,
            Msg::Shutdown,
            Msg::QueryResponse(WireQueryResponse {
                payload: -0.5,
                generation_micros: 10,
                age_micros: 990,
                uu_stale: 1,
            }),
            Msg::StatsResponse(WireStats {
                ingested: 10,
                applied: 6,
                superseded: 1,
                shed: 2,
                queued: 1,
                fold_low: 0.125,
                av: 2.5,
                ..WireStats::default()
            }),
            Msg::ReportJson("{\"policy\":\"TF\"}".to_string()),
        ];
        for msg in msgs {
            let body = msg.encode_body();
            assert_eq!(decode_body(&body), Ok(msg));
        }
    }

    #[test]
    fn txn_round_trip_including_empty_read_set() {
        for reads in [vec![], vec![(0u8, 3u32), (1, 0), (1, 499)]] {
            let msg = Msg::Txn(WireTxn {
                id: 9,
                class: 0,
                value: 1.5,
                slack_micros: 500_000,
                compute_micros: 120_000,
                reads,
            });
            assert_eq!(decode_body(&msg.encode_body()), Ok(msg));
        }
    }

    #[test]
    fn framed_stream_round_trip() {
        let mut wire = Vec::new();
        let sent = [
            Msg::UpdateBatch(vec![WireUpdate {
                class: 0,
                index: 1,
                generation_micros: 5,
                payload: 1.0,
                attr_mask: u64::MAX,
            }]),
            Msg::StatsRequest,
        ];
        for m in &sent {
            write_msg(&mut wire, m).unwrap();
        }
        let mut r = &wire[..];
        for m in &sent {
            assert_eq!(read_msg(&mut r).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_msg(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert_eq!(decode_body(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_body(&[99]), Err(ProtoError::BadTag(99)));
        assert_eq!(
            decode_body(&[3, 2, 0, 0, 0, 0]),
            Err(ProtoError::BadClass(2))
        );
        // A valid query with a trailing byte.
        let mut body = Msg::Query(WireQuery { class: 0, index: 0 }).encode_body();
        body.push(0);
        assert_eq!(decode_body(&body), Err(ProtoError::Trailing(1)));
        // Truncated update.
        let body = Msg::UpdateBatch(vec![WireUpdate {
            class: 0,
            index: 0,
            generation_micros: 0,
            payload: 0.0,
            attr_mask: 0,
        }])
        .encode_body();
        assert_eq!(
            decode_body(&body[..body.len() - 1]),
            Err(ProtoError::Truncated)
        );
        // Declared read count past the frame cap.
        let mut txn = Msg::Txn(WireTxn {
            id: 0,
            class: 0,
            value: 0.0,
            slack_micros: 0,
            compute_micros: 0,
            reads: vec![],
        })
        .encode_body();
        let n = (MAX_TXN_READS as u32 + 1).to_le_bytes();
        let off = txn.len() - 4;
        txn[off..].copy_from_slice(&n);
        assert!(matches!(decode_body(&txn), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        let mut r = &wire[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn batch_of(n: usize) -> Vec<WireUpdate> {
        (0..n)
            .map(|i| WireUpdate {
                class: (i % 2) as u8,
                index: i as u32,
                generation_micros: i as i64 - 5,
                payload: i as f64 * 0.5,
                attr_mask: u64::MAX,
            })
            .collect()
    }

    #[test]
    fn update_batch_round_trips() {
        for n in [0, 1, 3, 100] {
            let msg = Msg::UpdateBatch(batch_of(n));
            assert_eq!(decode_body(&msg.encode_body()), Ok(msg));
        }
    }

    #[test]
    fn credit_messages_round_trip() {
        for msg in [Msg::CreditRequest, Msg::Credit(0), Msg::Credit(u64::MAX)] {
            assert_eq!(decode_body(&msg.encode_body()), Ok(msg));
        }
    }

    #[test]
    fn batch_count_past_cap_is_rejected_by_the_decoder() {
        let mut body = Msg::UpdateBatch(Vec::new()).encode_body();
        body[1..5].copy_from_slice(&(MAX_BATCH_UPDATES as u32 + 1).to_le_bytes());
        assert!(matches!(decode_body(&body), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn batch_body_round_trips_through_the_streaming_codec() {
        let updates = batch_of(17);
        let mut body = Vec::new();
        encode_batch_body(&mut body, &updates).unwrap();
        let mut seen = Vec::new();
        let n = for_each_batch_update(&body, |u| seen.push(u)).unwrap();
        assert_eq!(n, 17);
        assert_eq!(seen, updates);
        assert!(matches!(
            for_each_batch_update(&[4], |_| {}),
            Err(ProtoError::BadTag(4))
        ));
        // Trailing byte and truncation are rejected.
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(matches!(
            for_each_batch_update(&trailing, |_| {}),
            Err(ProtoError::Trailing(1))
        ));
        assert!(matches!(
            for_each_batch_update(&body[..body.len() - 1], |_| {}),
            Err(ProtoError::Truncated)
        ));
    }

    /// Tag 1 once carried a single update; it is now an unknown tag to
    /// both decoders, so no update enters except in a batch frame.
    #[test]
    fn a_tag_1_single_update_body_is_an_unknown_tag() {
        let mut batch = Vec::new();
        encode_batch_body(&mut batch, &batch_of(1)).unwrap();
        let mut tag_1 = vec![1u8];
        tag_1.extend_from_slice(&batch[BATCH_FIXED..]);
        assert_eq!(tag_1.len(), 1 + UPDATE_ENTRY);
        assert_eq!(decode_body(&tag_1), Err(ProtoError::BadTag(1)));
        let mut seen = 0;
        assert_eq!(
            for_each_batch_update(&tag_1, |_| seen += 1),
            Err(ProtoError::BadTag(1))
        );
        assert_eq!(seen, 0);
    }

    /// A reader that hands out at most `chunk` bytes per `read` call, to
    /// exercise `FrameReader`'s partial-frame compaction paths.
    struct Chunked<'a> {
        data: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_extracts_every_frame_at_any_chunk_size() {
        let msgs = [
            Msg::UpdateBatch(batch_of(40)),
            Msg::UpdateBatch(batch_of(1)),
            Msg::StatsRequest,
            Msg::UpdateBatch(batch_of(0)),
            Msg::Shutdown,
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        for chunk in [1, 3, 7, 64, wire.len()] {
            // A tiny initial buffer forces growth and compaction.
            let mut fr = FrameReader::with_capacity(8);
            let mut r = Chunked { data: &wire, chunk };
            for m in &msgs {
                let body = fr
                    .next_frame(&mut r)
                    .unwrap()
                    .expect("frame present")
                    .to_vec();
                assert_eq!(decode_body(&body), Ok(m.clone()), "chunk={chunk}");
            }
            assert!(fr.next_frame(&mut r).unwrap().is_none(), "clean EOF");
        }
    }

    #[test]
    fn frame_reader_rejects_eof_inside_a_frame() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &Msg::StatsRequest).unwrap();
        let cut = &wire[..wire.len() - 1];
        let mut fr = FrameReader::new();
        let mut r = cut;
        let err = fr.next_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
