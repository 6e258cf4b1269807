//! Append-only write-ahead log with group commit.
//!
//! Durability for the live runtime (DESIGN.md §10): every update the
//! executor accepts reaches a dedicated **flusher thread** as its wire
//! entry, inside a *run message* — runs of updates, each a head
//! (`first_seq u64 | count u32 | arrival µs i64`) and its entries — over
//! the same lock-free SPSC ring the ingest path uses ([`crate::spsc`]), so
//! the quantum loop never blocks on a syscall, let alone an `fsync`. A
//! popped block's wire entries already are such a message: its session
//! copied them out of the frame behind a zeroed head, and
//! [`WalHandle::append_run`] writes the head in place and moves the buffer
//! to the flusher, O(1) per block. The flusher frames what has accumulated
//! since its last pass — at most [`WRITE_BYTES`] and one more message —
//! into CRC-protected records in one reused buffer, one record per run,
//! writes them with one `write`, then syncs on a configurable cadence
//! ([`FsyncPolicy`]): after every batch (`always`), at most once per group
//! window (`group:<µs>`), or never (`off` — `kill -9` still loses nothing,
//! because completed `write`s survive process death in the page cache;
//! only power/kernel loss is at stake).
//!
//! Buffers go home: the flusher hands each framed message back, emptied
//! with its capacity kept, over a second ring; the executor attaches one
//! to each block it sends back to a session, which copies its next
//! frame's entries into it. In steady state no thread allocates for the
//! log.
//!
//! This module is the record format, the executor-side handle and the
//! flusher's policy — drain, batch boundary, fsync cadence. Which files
//! hold the log and the order they are replaced in is [`crate::logdir`]'s
//! business (crash table: DESIGN.md §10).
//!
//! ## On-disk format
//!
//! A segment is a 32-byte header followed by records of three kinds:
//!
//! ```text
//! header:  "STRIPWAL" | version u32 | config fingerprint u64 | base_seq u64 | crc32
//! update:  kind=1 u8 | seq u64 | class u8 | index u32 | generation µs i64
//!          | payload f64 bits | attr_mask u64 | arrival µs i64 | crc32      (50 B)
//! seal:    kind=2 u8 | next_seq u64 | 37 zero bytes | crc32                 (50 B)
//! batch:   kind=3 u8 | first_seq u64 | count u16 | arrival µs i64
//!          | count × entry | crc32                                (23 + 29·count B)
//! entry:   class u8 | index u32 | generation µs i64 | payload f64 bits | attr_mask u64
//! ```
//!
//! All integers are little-endian. A batch holds the updates `first_seq ..
//! first_seq + count`, all arrived at one instant, each entry byte for byte
//! an update-batch wire entry ([`crate::protocol::UPDATE_ENTRY`]); the
//! flusher writes one per run of two or more updates of a run message
//! and a 50-byte update record for a run of one. Version 2 added batches;
//! a version-1 segment (update and seal records only) still reads. The
//! fingerprint is
//! [`strip_core::fingerprint::config_fingerprint`] — a segment written
//! under one configuration is never replayed under another. `base_seq` is
//! the sequence number of the first record the segment may hold; records
//! below it belong to the snapshot that sealed the previous segment
//! ([`crate::snapshot`]). A [`REC_SEAL`] record marks a clean shutdown;
//! recovery treats anything after a torn or CRC-failing record as lost
//! ([`crate::recovery`]): a record's length follows from its kind (and a
//! batch's count), and its CRC covers every byte before it.

// D7 (DESIGN.md §11): the crash path runs unattended, so a disk fault is an
// `Err`, never a panic, and no site is allowed one.
#![forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use strip_core::report::DurabilityStats;
use strip_sim::time::SimTime;

use crate::clock::{Clock, LiveClock};
pub use crate::crc32::crc32;
use crate::logdir::Segment;
pub use crate::logdir::{list_rotated, rotated_segment_name, SEGMENT_FILE};
use crate::protocol::{put_update, read_update, WireUpdate, UPDATE_ENTRY};
use crate::spsc;

/// Default size bound for the active segment before the flusher rotates
/// it into the sealed chain (64 MiB).
pub const DEFAULT_ROTATE_BYTES: u64 = 64 * 1024 * 1024;
/// Segment header magic.
pub const WAL_MAGIC: [u8; 8] = *b"STRIPWAL";
/// Segment format version this build writes: 2, which added
/// [`REC_BATCH`]. Version 1 still reads; a build that reads only version 1
/// refuses a version-2 segment instead of taking a batch for a torn tail.
pub const WAL_VERSION: u32 = 2;
/// Encoded segment header length in bytes.
pub const HDR_LEN: usize = 32;
/// Encoded length of an update or seal record in bytes.
pub const REC_LEN: usize = 50;
/// Record kind: one accepted update.
pub const REC_UPDATE: u8 = 1;
/// Record kind: clean end of segment (orderly shutdown).
pub const REC_SEAL: u8 = 2;
/// Record kind: a run of accepted updates with consecutive sequence
/// numbers and one arrival instant.
pub const REC_BATCH: u8 = 3;
/// Bytes of a batch before its entries: kind, first seq, count, arrival.
const BATCH_HEAD: usize = 1 + 8 + 2 + 8;
/// The most updates one batch holds (its count is a `u16`).
const MAX_RUN: usize = u16::MAX as usize;
/// Bytes of a run's head in a run message: first seq u64, count u32,
/// arrival µs i64. A session reserves it, zeroed, at the front of a
/// block's wire entries; [`WalHandle::append_run`] fills it in.
pub const RUN_HEAD: usize = 8 + 4 + 8;

// A block is one frame, so it is always exactly one record.
const _: () = assert!(crate::protocol::MAX_BATCH_UPDATES <= MAX_RUN);

/// Encoded length of a batch of `count` updates.
#[must_use]
pub(crate) const fn batch_len(count: usize) -> usize {
    BATCH_HEAD + count * UPDATE_ENTRY + 4
}

/// Ring capacity between the executor and the flusher, in messages. The
/// executor spins (off the hot path, at ingest rates far above any
/// measured) only if the flusher falls this far behind, or
/// [`MAX_BACKLOG`] updates.
const WAL_RING_CAPACITY: usize = 1 << 16;

/// The most updates handed to the flusher and not yet written: 65 536
/// messages of 256 updates, what the ring bounded when every message held
/// 256. The executor waits, as on a full ring, before a message that
/// would pass it, so a stalled disk queues at most about 490 MB of
/// entries, however large the frames.
const MAX_BACKLOG: u64 = WAL_RING_CAPACITY as u64 * 256;

/// The bytes one flusher pass frames into one `write`: it stops draining
/// once its buffer holds this many, so a pass holds at most 800 KiB and
/// one message (a frame: 1 MiB). A full ring drained in one pass would
/// grow that buffer to the ring's worth of records.
pub const WRITE_BYTES: usize = 800 << 10;

/// Bytes of runs [`WalHandle::append`] gathers before it hands them over.
const APPEND_BYTES: usize = 16 << 10;

/// Capacity of the ring that takes framed messages back, in buffers. The
/// flusher drops a buffer that finds it full, so after a backlog the pool
/// keeps at most this many, not the backlog's peak.
const SPENT_BUFFERS: usize = 128;

// ---- little-endian encode helpers -------------------------------------------

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

// ---- errors -----------------------------------------------------------------

/// Why persisted durability bytes were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Fewer bytes than the fixed encoding requires (a torn tail).
    Truncated,
    /// The checksum over the preceding bytes does not match.
    BadCrc,
    /// The magic prefix is not the expected one.
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion(u32),
    /// An unknown record kind byte.
    BadKind(u8),
    /// The artefact was written under a different configuration.
    FingerprintMismatch {
        /// Fingerprint of the running configuration.
        expected: u64,
        /// Fingerprint stored in the artefact.
        found: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated => write!(f, "truncated durability artefact"),
            WalError::BadCrc => write!(f, "checksum mismatch"),
            WalError::BadMagic => write!(f, "bad magic"),
            WalError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            WalError::BadKind(k) => write!(f, "unknown record kind {k}"),
            WalError::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: artefact {found:016x}, running config {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---- fsync policy -----------------------------------------------------------

/// When the flusher issues `fsync` (the priced variable of BENCH_7 /
/// figR2). Orthogonal to `kill -9` safety — the ack barrier waits for
/// `write`, which survives process death regardless of cadence — this
/// trades power-loss durability against throughput and freshness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every batch the flusher drains (per-record at low rates).
    Always,
    /// Group commit: sync at most once per this many microseconds.
    Group(u64),
    /// Never sync (rely on the OS writeback; still torn-tail safe).
    Off,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag grammar: `always`, `off`, or
    /// `group:<µs>` with an optional `us` suffix (`group:250us`).
    #[must_use]
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Off),
            _ => {
                let micros = s.strip_prefix("group:")?;
                let micros = micros.strip_suffix("us").unwrap_or(micros);
                let micros: u64 = micros.parse().ok()?;
                (micros > 0).then_some(FsyncPolicy::Group(micros))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Group(us) => write!(f, "group:{us}us"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Durability configuration carried by
/// [`LiveConfig`](crate::executor::LiveConfig).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The durability directory ([`crate::logdir`]; created on start).
    pub dir: PathBuf,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
    /// Seconds between periodic store snapshots (each snapshot seals and
    /// truncates the log segment chain).
    pub snapshot_secs: f64,
    /// Rotate the active segment into the sealed chain once it exceeds
    /// this many bytes (0 disables rotation; growth is then bounded only
    /// by the snapshot cadence).
    pub rotate_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults: 1 ms group commit, a snapshot every 5 s, 64 MiB
    /// rotation.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Group(1_000),
            snapshot_secs: 5.0,
            rotate_bytes: DEFAULT_ROTATE_BYTES,
        }
    }
}

// ---- records and headers ----------------------------------------------------

/// One decoded WAL record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRecord {
    /// [`REC_UPDATE`] or [`REC_SEAL`].
    pub kind: u8,
    /// Executor-assigned sequence number ([`REC_SEAL`]: the next unused
    /// sequence number, i.e. the count of updates accepted before it).
    pub seq: u64,
    /// The accepted update (zeroed for a seal record).
    pub update: WireUpdate,
    /// Arrival instant at the executor, microseconds on its clock axis.
    pub arrival_micros: i64,
}

impl WalRecord {
    /// Record for one accepted update.
    #[must_use]
    pub fn update(seq: u64, update: WireUpdate, arrival_micros: i64) -> Self {
        WalRecord {
            kind: REC_UPDATE,
            seq,
            update,
            arrival_micros,
        }
    }

    /// Clean end-of-segment marker.
    #[must_use]
    pub fn seal(next_seq: u64) -> Self {
        WalRecord {
            kind: REC_SEAL,
            seq: next_seq,
            update: WireUpdate {
                class: 0,
                index: 0,
                generation_micros: 0,
                payload: 0.0,
                attr_mask: 0,
            },
            arrival_micros: 0,
        }
    }

    /// Encodes to the fixed 50-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; REC_LEN] {
        let mut b = [0u8; REC_LEN];
        self.encode_into(&mut b);
        b
    }

    /// Encodes into `b` in place: how the flusher fills its write buffer
    /// without staging each record in a copy.
    pub fn encode_into(&self, b: &mut [u8; REC_LEN]) {
        // kind, seq, class and index go in as one integer. Four stores of
        // three widths there are re-read by the CRC as dwords, and whether
        // LLVM forwards them in registers or stages them through the stack
        // (store-forwarding stalls, +25 ns a record on the flusher) flips
        // with unrelated edits to this crate (CHANGES.md PR 18).
        let head = u128::from(self.kind)
            | u128::from(self.seq) << 8
            | u128::from(self.update.class) << 72
            | u128::from(self.update.index) << 80;
        b[..14].copy_from_slice(&head.to_le_bytes()[..14]);
        put_u64(b, 14, self.update.generation_micros as u64);
        put_u64(b, 22, self.update.payload.to_bits());
        put_u64(b, 30, self.update.attr_mask);
        put_u64(b, 38, self.arrival_micros as u64);
        let crc = crc32(&b[..REC_LEN - 4]);
        put_u32(b, REC_LEN - 4, crc);
    }

    /// Decodes one update or seal record; rejects short buffers, checksum
    /// mismatches, and other kinds (a batch is [`scan_segment`]'s to read).
    ///
    /// # Errors
    ///
    /// [`WalError::Truncated`], [`WalError::BadCrc`], or
    /// [`WalError::BadKind`].
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, WalError> {
        if bytes.len() < REC_LEN {
            return Err(WalError::Truncated);
        }
        let b = &bytes[..REC_LEN];
        if get_u32(b, REC_LEN - 4) != crc32(&b[..REC_LEN - 4]) {
            return Err(WalError::BadCrc);
        }
        let kind = b[0];
        if kind != REC_UPDATE && kind != REC_SEAL {
            return Err(WalError::BadKind(kind));
        }
        Ok(WalRecord {
            kind,
            seq: get_u64(b, 1),
            update: WireUpdate {
                class: b[9],
                index: get_u32(b, 10),
                generation_micros: get_u64(b, 14) as i64,
                payload: f64::from_bits(get_u64(b, 22)),
                attr_mask: get_u64(b, 30),
            },
            arrival_micros: get_u64(b, 38) as i64,
        })
    }
}

/// Appends to `out` the records of `updates`, which carry the sequence
/// numbers `first_seq..` and all arrived at `arrival_micros`, as the
/// flusher writes such a run: a [`REC_BATCH`] per 65 535 updates, and a
/// [`REC_UPDATE`] for a run of one.
pub fn encode_run(out: &mut Vec<u8>, first_seq: u64, arrival_micros: i64, updates: &[WireUpdate]) {
    let mut entries = Vec::with_capacity(updates.len() * UPDATE_ENTRY);
    for u in updates {
        put_update(&mut entries, u);
    }
    put_run(out, first_seq, arrival_micros, &entries);
}

/// Appends the records of one run of wire `entries` to `out`: a batch per
/// [`MAX_RUN`] entries, its checksum computed once over the whole record,
/// and a [`REC_UPDATE`] for a run of one.
fn put_run(out: &mut Vec<u8>, first_seq: u64, arrival_micros: i64, entries: &[u8]) {
    let (entries, _) = entries.as_chunks::<UPDATE_ENTRY>();
    let mut seq = first_seq;
    for run in entries.chunks(MAX_RUN) {
        let at = out.len();
        if let [entry] = run {
            out.resize(at + REC_LEN, 0);
            if let Some(slot) = out[at..].as_chunks_mut().0.first_mut() {
                WalRecord::update(seq, read_update(entry), arrival_micros).encode_into(slot);
            }
        } else {
            out.push(REC_BATCH);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(run.len() as u16).to_le_bytes());
            out.extend_from_slice(&arrival_micros.to_le_bytes());
            out.extend_from_slice(run.as_flattened());
            let crc = crc32(&out[at..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
        seq = seq.wrapping_add(run.len() as u64);
    }
}

/// Writes a run head into the first [`RUN_HEAD`] bytes of `head`.
fn put_run_head(head: &mut [u8], first_seq: u64, count: u32, arrival_micros: i64) {
    put_u64(head, 0, first_seq);
    put_u32(head, 8, count);
    put_u64(head, 12, arrival_micros as u64);
}

/// The `(first_seq, count, arrival µs)` of the run head `head` begins with.
fn run_head(head: &[u8]) -> (u64, u32, i64) {
    (get_u64(head, 0), get_u32(head, 8), get_u64(head, 12) as i64)
}

/// The length of the record `bytes` begins with, as its kind (and a
/// batch's count) claims it; `None` for an unknown kind or a batch head
/// cut short.
fn record_len(bytes: &[u8]) -> Option<usize> {
    match *bytes.first()? {
        REC_UPDATE | REC_SEAL => Some(REC_LEN),
        REC_BATCH => {
            let count = bytes.get(9..11)?;
            Some(batch_len(usize::from(u16::from_le_bytes([
                count[0], count[1],
            ]))))
        }
        _ => None,
    }
}

/// Decodes the record `bytes` begins with into `records` (a batch as its
/// updates) and returns its length, or `None` when it is torn, fails its
/// checksum or has an unknown kind. A batch's count sizes nothing before
/// its checksum has passed.
fn decode_into(bytes: &[u8], records: &mut Vec<WalRecord>) -> Option<usize> {
    let len = record_len(bytes)?;
    let rec = bytes.get(..len)?;
    if rec[0] != REC_BATCH {
        records.push(WalRecord::decode(rec).ok()?);
        return Some(len);
    }
    let (body, crc) = rec.split_at(len - 4);
    if get_u32(crc, 0) != crc32(body) {
        return None;
    }
    let first_seq = get_u64(body, 1);
    let arrival_micros = get_u64(body, 11) as i64;
    let (entries, _) = body[BATCH_HEAD..].as_chunks::<UPDATE_ENTRY>();
    records.extend(entries.iter().enumerate().map(|(i, e)| {
        WalRecord::update(
            first_seq.wrapping_add(i as u64),
            read_update(e),
            arrival_micros,
        )
    }));
    Some(len)
}

/// Decoded segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Config fingerprint the segment was written under.
    pub fingerprint: u64,
    /// Sequence number of the first record this segment may hold.
    pub base_seq: u64,
}

impl SegmentHeader {
    /// Encodes to the fixed 32-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; HDR_LEN] {
        let mut b = [0u8; HDR_LEN];
        b[..8].copy_from_slice(&WAL_MAGIC);
        put_u32(&mut b, 8, WAL_VERSION);
        put_u64(&mut b, 12, self.fingerprint);
        put_u64(&mut b, 20, self.base_seq);
        let crc = crc32(&b[..HDR_LEN - 4]);
        put_u32(&mut b, HDR_LEN - 4, crc);
        b
    }

    /// Decodes a header of version 1 or 2; rejects short buffers, bad
    /// magic, other versions, and checksum mismatches.
    ///
    /// # Errors
    ///
    /// [`WalError::Truncated`], [`WalError::BadMagic`],
    /// [`WalError::BadVersion`], or [`WalError::BadCrc`].
    pub fn decode(bytes: &[u8]) -> Result<SegmentHeader, WalError> {
        if bytes.len() < HDR_LEN {
            return Err(WalError::Truncated);
        }
        let b = &bytes[..HDR_LEN];
        if b[..8] != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        if get_u32(b, HDR_LEN - 4) != crc32(&b[..HDR_LEN - 4]) {
            return Err(WalError::BadCrc);
        }
        let version = get_u32(b, 8);
        if !(1..=WAL_VERSION).contains(&version) {
            return Err(WalError::BadVersion(version));
        }
        Ok(SegmentHeader {
            fingerprint: get_u64(b, 12),
            base_seq: get_u64(b, 20),
        })
    }
}

/// Result of scanning a whole segment: the valid record prefix plus how
/// many trailing (torn or corrupt) records were discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentScan {
    /// The segment header.
    pub header: SegmentHeader,
    /// Every valid record up to (and including) a seal, in log order; a
    /// batch comes out as one [`REC_UPDATE`] record per update.
    pub records: Vec<WalRecord>,
    /// Whole-or-partial trailing records dropped at the first torn or
    /// CRC-failing position (the longest-valid-prefix rule), each as long
    /// as its kind and count claim; bytes no claim delimits count as one.
    pub discarded: u64,
    /// The scan ended at a [`REC_SEAL`] record (clean shutdown).
    pub sealed: bool,
}

/// Scans `bytes` as one segment, enforcing the header and keeping the
/// longest valid record prefix. `expected_fingerprint` guards replay under
/// a different configuration.
///
/// # Errors
///
/// Header-level problems ([`WalError::BadMagic`], [`WalError::BadCrc`],
/// [`WalError::BadVersion`], [`WalError::Truncated`],
/// [`WalError::FingerprintMismatch`]) fail the whole scan — a bad header
/// means nothing in the file can be trusted. Record-level corruption is
/// NOT an error: it truncates the scan and is reported via `discarded`.
pub fn scan_segment(bytes: &[u8], expected_fingerprint: u64) -> Result<SegmentScan, WalError> {
    let header = SegmentHeader::decode(bytes)?;
    if header.fingerprint != expected_fingerprint {
        return Err(WalError::FingerprintMismatch {
            expected: expected_fingerprint,
            found: header.fingerprint,
        });
    }
    let mut records = Vec::new();
    let mut pos = HDR_LEN;
    let mut sealed = false;
    while let Some(len) = bytes.get(pos..).and_then(|b| decode_into(b, &mut records)) {
        pos += len;
        if records.last().is_some_and(|r| r.kind == REC_SEAL) {
            sealed = true;
            break;
        }
    }
    // Bytes after a seal are stale pre-truncation leftovers, not loss.
    let mut tail = if sealed { &[][..] } else { &bytes[pos..] };
    let mut discarded = 0;
    while !tail.is_empty() {
        let len = record_len(tail).map_or(tail.len(), |len| len.min(tail.len()));
        tail = &tail[len..];
        discarded += 1;
    }
    Ok(SegmentScan {
        header,
        records,
        discarded,
        sealed,
    })
}

// ---- shared counters --------------------------------------------------------

/// Flusher-side counters shared with the executor (for `/metrics`, the
/// [`RunReport`](strip_core::report::RunReport), and the ack barrier).
#[derive(Debug)]
pub struct WalStats {
    appended: AtomicU64,
    /// Next sequence number NOT yet handed to the OS via `write` — the
    /// ack barrier waits on this, because completed writes survive
    /// `kill -9` (the page cache belongs to the kernel, not the process).
    written: AtomicU64,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
    group_max: AtomicU64,
    snapshots: AtomicU64,
    rotations: AtomicU64,
    failed: AtomicBool,
}

impl WalStats {
    fn new(base_seq: u64) -> Self {
        WalStats {
            appended: AtomicU64::new(0),
            written: AtomicU64::new(base_seq),
            fsyncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            group_max: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            failed: AtomicBool::new(false),
        }
    }

    /// Next sequence number not yet `write`-durable.
    #[must_use]
    pub fn written_seq(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// The flusher hit an I/O error and stopped (appends are dropped,
    /// acks are no longer held for the log; the run continues undurable).
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn add_bytes(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Point-in-time durability counters (recovery fields are the
    /// executor's to fill).
    #[must_use]
    pub fn durability(&self) -> DurabilityStats {
        DurabilityStats {
            wal_appended: self.appended.load(Ordering::Relaxed),
            wal_fsyncs: self.fsyncs.load(Ordering::Relaxed),
            wal_bytes: self.bytes.load(Ordering::Relaxed),
            wal_group_max: self.group_max.load(Ordering::Relaxed),
            snapshots_written: self.snapshots.load(Ordering::Relaxed),
            wal_rotations: self.rotations.load(Ordering::Relaxed),
            recovery_replayed: 0,
            recovery_discarded: 0,
        }
    }
}

enum WalMsg {
    /// A run message: runs of updates, each a [`RUN_HEAD`] and its wire
    /// entries, in sequence order.
    Runs(Vec<u8>),
    Snapshot {
        bytes: Vec<u8>,
        next_seq: u64,
    },
}

/// The runs of a run message, each as `(first_seq, arrival µs, entries)`.
fn runs_of(mut msg: &[u8]) -> impl Iterator<Item = (u64, i64, &[u8])> {
    std::iter::from_fn(move || {
        let (head, rest) = msg.split_at_checked(RUN_HEAD)?;
        let (first_seq, count, arrival_micros) = run_head(head);
        let (entries, rest) = rest.split_at_checked(count as usize * UPDATE_ENTRY)?;
        msg = rest;
        Some((first_seq, arrival_micros, entries))
    })
}

/// The executor's ends of the flusher's rings: run messages go out on the
/// first, emptied buffers come back on the second.
type Ends = (spsc::Producer<WalMsg>, spsc::Consumer<Vec<u8>>);

// ---- executor-side handle ---------------------------------------------------

/// Executor-side handle to the flusher thread: hands it runs of updates,
/// requests snapshots, waits on the write barrier, and seals on shutdown.
#[derive(Debug)]
pub struct WalHandle {
    tx: spsc::Producer<WalMsg>,
    /// Run messages the flusher has framed, emptied, capacity kept.
    spent: spsc::Consumer<Vec<u8>>,
    /// The runs [`WalHandle::append`] has gathered and not handed over.
    pending: Vec<u8>,
    /// Where the last run of `pending` starts, while `append` may extend
    /// it.
    open: Option<usize>,
    /// One past the last sequence number handed to the flusher.
    queued_to: u64,
    /// The most updates queued before a hand-over waits: [`MAX_BACKLOG`].
    max_backlog: u64,
    stats: Arc<WalStats>,
    flusher: JoinHandle<io::Result<()>>,
}

impl WalHandle {
    /// Starts the directory's active segment at `base_seq`
    /// ([`crate::logdir`]: a base of 0 is a fresh start and resets the
    /// directory; a base above 0 is [`crate::recovery::recover`]'s
    /// `next_seq` and keeps the re-base snapshot it wrote) and spawns the
    /// flusher thread.
    ///
    /// # Errors
    ///
    /// Directory creation, segment open/write/sync, or thread spawn
    /// failures.
    pub fn start(cfg: &DurabilityConfig, fingerprint: u64, base_seq: u64) -> io::Result<WalHandle> {
        let (ends, flusher) = Flusher::open(cfg, fingerprint, base_seq, LiveClock::start())?;
        let stats = Arc::clone(&flusher.stats);
        let flusher_stats = Arc::clone(&stats);
        let flusher = std::thread::Builder::new()
            .name("stripd-wal".into())
            .spawn(move || {
                let res = flusher.run();
                if res.is_err() {
                    flusher_stats.failed.store(true, Ordering::Release);
                }
                res
            })?;
        Ok(WalHandle::new(ends, stats, flusher))
    }

    fn new((tx, spent): Ends, stats: Arc<WalStats>, flusher: JoinHandle<io::Result<()>>) -> Self {
        WalHandle {
            tx,
            spent,
            pending: Vec::new(),
            open: None,
            queued_to: 0,
            max_backlog: MAX_BACKLOG,
            stats,
            flusher,
        }
    }

    /// Appends one accepted update to the pending runs, extending the last
    /// one when `seq` and the arrival continue it — no CRC, no shared
    /// counter. The runs are handed to the flusher once they fill
    /// [`APPEND_BYTES`]; call [`WalHandle::flush`] at quantum boundaries
    /// to bound the handoff delay of the rest.
    pub fn append(&mut self, seq: u64, update: WireUpdate, arrival_micros: i64) {
        let open = self.open.filter(|&at| {
            let (first_seq, count, arrival) = run_head(&self.pending[at..]);
            first_seq.wrapping_add(u64::from(count)) == seq
                && arrival == arrival_micros
                && (count as usize) < MAX_RUN
        });
        if let Some(at) = open {
            let count = get_u32(&self.pending, at + 8);
            put_u32(&mut self.pending, at + 8, count + 1);
        } else {
            let mut head = [0; RUN_HEAD];
            put_run_head(&mut head, seq, 1, arrival_micros);
            self.open = Some(self.pending.len());
            self.pending.extend_from_slice(&head);
        }
        put_update(&mut self.pending, &update);
        if self.pending.len() >= APPEND_BYTES {
            self.flush();
        }
    }

    /// Logs one block: `wire` is a zeroed [`RUN_HEAD`] and then the wire
    /// entries of the updates `first_seq..`, all arrived at
    /// `arrival_micros`. Writes the head in place and moves the buffer to
    /// the flusher, after the runs [`WalHandle::append`] has gathered: the
    /// same work for a block of any length.
    pub fn append_run(&mut self, first_seq: u64, arrival_micros: i64, mut wire: Vec<u8>) {
        let count = wire.len().saturating_sub(RUN_HEAD) / UPDATE_ENTRY;
        debug_assert_eq!(wire.len(), RUN_HEAD + count * UPDATE_ENTRY);
        if count == 0 {
            return;
        }
        put_run_head(&mut wire, first_seq, count as u32, arrival_micros);
        self.flush();
        self.send(wire);
    }

    /// A buffer the flusher sent home, emptied, or a new empty one when
    /// none is waiting: what the executor attaches to each block it sends
    /// back to a session.
    pub fn spare(&mut self) -> Vec<u8> {
        self.spent.pop().unwrap_or_default()
    }

    /// Hands the pending runs to the flusher; the next ones go into a
    /// buffer the flusher sent home, when one is waiting. Never blocks on
    /// I/O.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let next = self.spare();
        let runs = std::mem::replace(&mut self.pending, next);
        self.open = None;
        self.send(runs);
    }

    /// Hands one run message to the flusher and counts its updates as
    /// appended. Spins only if the flusher is a full ring or
    /// [`MAX_BACKLOG`] updates behind (and gives up if it has died, so a
    /// disk failure degrades the run instead of wedging the executor).
    fn send(&mut self, runs: Vec<u8>) {
        let (updates, end) = runs_of(&runs).fold((0, self.queued_to), |(n, _), (seq, _, e)| {
            let count = (e.len() / UPDATE_ENTRY) as u64;
            (n + count, seq.wrapping_add(count))
        });
        loop {
            let queued = self.queued_to.saturating_sub(self.stats.written_seq());
            if queued == 0 || queued + updates <= self.max_backlog || self.stats.is_failed() {
                break;
            }
            std::hint::spin_loop();
        }
        self.queued_to = end;
        self.stats.appended.fetch_add(updates, Ordering::Relaxed);
        self.push_msg(WalMsg::Runs(runs));
    }

    fn push_msg(&mut self, mut msg: WalMsg) {
        loop {
            match self.tx.push(msg) {
                Ok(()) => return,
                Err(m) => {
                    if self.stats.is_failed() {
                        return;
                    }
                    msg = m;
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Hands an encoded store snapshot to the flusher; once persisted
    /// (atomic write-rename) the flusher truncates the segment to a fresh
    /// header at `next_seq`. Flushes the pending runs first — records
    /// below `next_seq` must reach the old segment before it is cut.
    pub fn request_snapshot(&mut self, bytes: Vec<u8>, next_seq: u64) {
        self.flush();
        self.push_msg(WalMsg::Snapshot { bytes, next_seq });
    }

    /// The ack barrier, blocking: flushes the pending runs, then waits
    /// until every record below `next_seq` has been `write`-handed to the
    /// OS (NOT necessarily fsynced — see [`WalStats::written`]), or the
    /// flusher has failed. For a caller with nothing else to do; the
    /// executor never calls it — it parks a reply until
    /// [`WalStats::written_seq`] covers it and keeps scheduling.
    pub fn barrier(&mut self, next_seq: u64) {
        self.flush();
        while self.stats.written_seq() < next_seq && !self.stats.is_failed() {
            std::thread::yield_now();
        }
    }

    /// Shared counters (live view; also read for `/metrics`).
    #[must_use]
    pub fn stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Closes the ring and joins the flusher, which drains every pending
    /// record, appends a [`REC_SEAL`] marker, and fsyncs — an orderly
    /// shutdown (clean frame or SIGTERM/SIGINT) is never lossy.
    ///
    /// # Errors
    ///
    /// Any I/O error the flusher hit, or an error if it panicked.
    pub fn seal(mut self) -> io::Result<()> {
        self.flush();
        let WalHandle { tx, flusher, .. } = self;
        drop(tx); // closes the ring; the flusher sees it drained
        match flusher.join() {
            Ok(res) => res,
            Err(_) => Err(io::Error::other("wal flusher thread panicked")),
        }
    }
}

// ---- flusher thread ---------------------------------------------------------

/// What one [`Flusher::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Drained records or a snapshot into the log.
    Wrote,
    /// Found nothing queued (a due fsync may still have been issued).
    Idle,
    /// Found the ring closed and drained, and sealed the log.
    Sealed,
}

/// The flusher: the log's write side and the group-commit state. The
/// thread body is [`Flusher::run`], `step` in a loop with a nap when idle;
/// a test steps the same flusher on a clock it owns.
#[derive(Debug)]
struct Flusher<C: Clock> {
    seg: Segment,
    rx: spsc::Consumer<WalMsg>,
    /// Where framed run messages go back to the executor.
    spent: spsc::Producer<Vec<u8>>,
    policy: FsyncPolicy,
    stats: Arc<WalStats>,
    clock: C,
    /// Encoded records of the batch being written; holds one write's
    /// worth, [`WRITE_BYTES`] and a frame, from the open on.
    buf: Vec<u8>,
    /// Updates written since the last fsync.
    unsynced: u64,
    /// When the last fsync (or rotation, or cut) finished.
    last_sync: SimTime,
}

impl<C: Clock> Flusher<C> {
    /// Starts the directory's active segment at `base_seq`; returns the
    /// executor's ends of the flusher's rings and the flusher.
    fn open(
        cfg: &DurabilityConfig,
        fingerprint: u64,
        base_seq: u64,
        clock: C,
    ) -> io::Result<(Ends, Flusher<C>)> {
        let seg = Segment::start(cfg, fingerprint, base_seq)?;
        let stats = Arc::new(WalStats::new(base_seq));
        let (tx, rx) = spsc::ring(WAL_RING_CAPACITY);
        let (spent, spent_rx) = spsc::ring(SPENT_BUFFERS);
        let flusher = Flusher {
            seg,
            rx,
            spent,
            policy: cfg.fsync,
            stats,
            buf: Vec::with_capacity(WRITE_BYTES + crate::protocol::MAX_FRAME),
            unsynced: 0,
            last_sync: clock.now(),
            clock,
        };
        flusher.stats.add_bytes(HDR_LEN as u64);
        Ok(((tx, spent_rx), flusher))
    }

    /// The thread body: steps until the log is sealed, napping while idle.
    fn run(mut self) -> io::Result<()> {
        // Bounded well under every group cadence so a due fsync or a close
        // is noticed promptly.
        let nap = Duration::from_micros(match self.policy {
            FsyncPolicy::Group(us) => us.clamp(20, 200),
            _ => 100,
        });
        loop {
            match self.step()? {
                Pass::Wrote => {}
                Pass::Idle => std::thread::sleep(nap),
                Pass::Sealed => return Ok(()),
            }
        }
    }

    /// One pass: drains what has accumulated, until [`WRITE_BYTES`] are
    /// framed, into one write, cuts the log at a snapshot, fsyncs when the
    /// policy says one is due, and seals the log once the ring is closed
    /// and drained.
    fn step(&mut self) -> io::Result<Pass> {
        // A snapshot message is a batch boundary: records before it must
        // land in the old segment, records after it in the truncated one.
        self.buf.clear();
        // One past the last sequence number framed.
        let mut framed_to = None;
        let mut drained = 0;
        let mut pending_snapshot = None;
        while self.buf.len() < WRITE_BYTES {
            let Some(msg) = self.rx.pop() else { break };
            match msg {
                WalMsg::Runs(mut runs) => {
                    for (first_seq, arrival_micros, entries) in runs_of(&runs) {
                        let count = (entries.len() / UPDATE_ENTRY) as u64;
                        put_run(&mut self.buf, first_seq, arrival_micros, entries);
                        drained += count;
                        framed_to = Some(first_seq.wrapping_add(count));
                    }
                    runs.clear();
                    // A full return ring drops the buffer here instead.
                    let _ = self.spent.push(runs);
                }
                WalMsg::Snapshot { bytes, next_seq } => {
                    pending_snapshot = Some((bytes, next_seq));
                    break;
                }
            }
        }
        if let Some(end) = framed_to {
            self.stats.add_bytes(self.seg.append(&self.buf)?);
            self.unsynced += drained;
            // The barrier releases only after write_all returned: the
            // records are the kernel's problem now and survive kill -9.
            self.stats.written.store(end, Ordering::Release);
            if self.seg.is_full() {
                // Size bound reached: seal this segment into the chain
                // and continue in a fresh one. Unsynced records were just
                // fsynced by the rotation's seal.
                self.stats.add_bytes(self.seg.rotate(end)?);
                self.stats.rotations.fetch_add(1, Ordering::Relaxed);
                self.synced();
            }
        }
        if let Some((bytes, next_seq)) = pending_snapshot {
            self.stats.add_bytes(self.seg.cut(&bytes, next_seq)?);
            self.stats.snapshots.fetch_add(1, Ordering::Relaxed);
            self.unsynced = 0;
            self.last_sync = self.clock.now();
            return Ok(Pass::Wrote); // more messages may already be queued
        }
        let sync_due = self.unsynced > 0
            && match self.policy {
                FsyncPolicy::Always => true,
                FsyncPolicy::Group(us) => {
                    self.clock.now().since(self.last_sync) >= us as f64 * 1e-6
                }
                FsyncPolicy::Off => false,
            };
        if sync_due {
            self.seg.sync()?;
            self.synced();
        }
        if self.rx.is_closed() && self.rx.is_empty() {
            // Sealing is the orderly-shutdown path: it fsyncs even under
            // `--fsync off`.
            let sealed = self.seg.seal(self.stats.written.load(Ordering::Relaxed))?;
            self.stats.add_bytes(sealed);
            self.synced();
            return Ok(Pass::Sealed);
        }
        Ok(if framed_to.is_some() {
            Pass::Wrote
        } else {
            Pass::Idle
        })
    }

    /// Counts the fsync that just covered every unsynced record.
    fn synced(&mut self) {
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .group_max
            .fetch_max(self.unsynced, Ordering::Relaxed);
        self.unsynced = 0;
        self.last_sync = self.clock.now();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clock::tests::TestClock;
    use std::sync::mpsc;

    fn sample_update(seq: u64) -> WalRecord {
        WalRecord::update(
            seq,
            WireUpdate {
                class: (seq % 2) as u8,
                index: (seq % 7) as u32,
                generation_micros: (seq as i64).wrapping_mul(131) - 5_000,
                payload: 0.25 + seq as f64,
                attr_mask: u64::MAX >> (seq % 17),
            },
            (seq as i64).wrapping_add(1_000),
        )
    }

    fn segment(fingerprint: u64, base_seq: u64, n: u64) -> Vec<u8> {
        let mut bytes = SegmentHeader {
            fingerprint,
            base_seq,
        }
        .encode()
        .to_vec();
        for seq in base_seq..base_seq + n {
            bytes.extend_from_slice(&sample_update(seq).encode());
        }
        bytes
    }

    #[test]
    fn record_round_trips_exactly() {
        for seq in [0, 1, 7, u64::from(u32::MAX), u64::MAX / 2] {
            let rec = sample_update(seq);
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).expect("valid record"), rec);
            // The head goes in as one integer; pin where each field lands.
            assert_eq!(bytes[0], REC_UPDATE);
            assert_eq!(bytes[1..9], seq.to_le_bytes());
            assert_eq!(bytes[9], rec.update.class);
            assert_eq!(bytes[10..14], rec.update.index.to_le_bytes());
            assert_eq!(bytes[14..22], rec.update.generation_micros.to_le_bytes());
        }
        let seal = WalRecord::seal(42);
        assert_eq!(WalRecord::decode(&seal.encode()).expect("seal"), seal);
    }

    #[test]
    fn record_rejects_corruption_truncation_and_bad_kind() {
        let rec = sample_update(9).encode();
        assert!(matches!(
            WalRecord::decode(&rec[..REC_LEN - 1]),
            Err(WalError::Truncated)
        ));
        for pos in 0..REC_LEN {
            let mut bad = rec;
            bad[pos] ^= 0x40;
            let err = WalRecord::decode(&bad).expect_err("corruption must be caught");
            assert!(
                matches!(err, WalError::BadCrc | WalError::BadKind(_)),
                "byte {pos}: {err}"
            );
        }
    }

    #[test]
    fn header_round_trips_and_rejects_tampering() {
        let hdr = SegmentHeader {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            base_seq: 77,
        };
        let bytes = hdr.encode();
        assert_eq!(SegmentHeader::decode(&bytes).expect("valid header"), hdr);

        let mut bad = bytes;
        bad[0] = b'X';
        assert!(matches!(
            SegmentHeader::decode(&bad),
            Err(WalError::BadMagic)
        ));

        let mut bad = bytes;
        bad[8] ^= 0xFF; // version field
        assert!(matches!(
            SegmentHeader::decode(&bad),
            Err(WalError::BadVersion(_)) | Err(WalError::BadCrc)
        ));

        // Version 1 (before batches) still reads; 0 and 3 do not.
        for (version, reads) in [(0, false), (1, true), (WAL_VERSION, true), (3, false)] {
            let mut b = bytes;
            put_u32(&mut b, 8, version);
            let crc = crc32(&b[..HDR_LEN - 4]);
            put_u32(&mut b, HDR_LEN - 4, crc);
            match SegmentHeader::decode(&b) {
                Ok(h) => assert!(reads && h == hdr, "version {version}"),
                Err(e) => assert!(!reads && e == WalError::BadVersion(version), "{e}"),
            }
        }

        let mut bad = bytes;
        bad[20] ^= 0x01; // base_seq: caught by the header CRC
        assert!(matches!(SegmentHeader::decode(&bad), Err(WalError::BadCrc)));

        assert!(matches!(
            SegmentHeader::decode(&bytes[..HDR_LEN - 1]),
            Err(WalError::Truncated)
        ));
    }

    #[test]
    fn scan_keeps_longest_valid_prefix_on_torn_tail() {
        let full = segment(1, 0, 4);
        // Tear the segment at every byte boundary inside the record area.
        for cut in HDR_LEN..full.len() {
            let scan = scan_segment(&full[..cut], 1).expect("header intact");
            let whole = (cut - HDR_LEN) / REC_LEN;
            assert_eq!(scan.records.len(), whole, "cut at {cut}");
            assert_eq!(
                scan.discarded,
                u64::from(!(cut - HDR_LEN).is_multiple_of(REC_LEN))
            );
            assert!(!scan.sealed);
            for (i, rec) in scan.records.iter().enumerate() {
                assert_eq!(*rec, sample_update(i as u64));
            }
        }
    }

    #[test]
    fn scan_discards_everything_after_first_corrupt_record() {
        let mut bytes = segment(1, 0, 5);
        bytes[HDR_LEN + 2 * REC_LEN + 10] ^= 0x80; // corrupt record 2 of 5
        let scan = scan_segment(&bytes, 1).expect("header intact");
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.discarded, 3);
        assert!(!scan.sealed);
    }

    #[test]
    fn scan_stops_at_seal_and_ignores_stale_bytes_after_it() {
        let mut bytes = segment(1, 10, 2);
        bytes.extend_from_slice(&WalRecord::seal(12).encode());
        // Stale pre-truncation garbage past the seal must not count as loss.
        bytes.extend_from_slice(&[0xAB; 17]);
        let scan = scan_segment(&bytes, 1).expect("header intact");
        assert!(scan.sealed);
        assert_eq!(scan.discarded, 0);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].kind, REC_SEAL);
        assert_eq!(scan.records[2].seq, 12);
        assert_eq!(scan.header.base_seq, 10);
    }

    /// `n` updates from `first_seq` in runs of `run`, each run at one
    /// arrival, as records of [`sample_update`] would carry them.
    fn runs(first_seq: u64, n: u64, run: u64) -> Vec<WalRecord> {
        (first_seq..first_seq + n)
            .map(|seq| {
                let arrival =
                    sample_update(first_seq + (seq - first_seq) / run * run).arrival_micros;
                WalRecord::update(seq, sample_update(seq).update, arrival)
            })
            .collect()
    }

    /// `records` (updates, in runs as [`runs`] cuts them) encoded as the
    /// flusher encodes them.
    fn encode_runs(out: &mut Vec<u8>, records: &[WalRecord], run: u64) {
        for group in records.chunks(run as usize) {
            let updates: Vec<WireUpdate> = group.iter().map(|r| r.update).collect();
            encode_run(out, group[0].seq, group[0].arrival_micros, &updates);
        }
    }

    #[test]
    fn a_run_is_one_batch_and_a_run_of_one_an_update_record() {
        let records = runs(10, 7, 3);
        let mut bytes = SegmentHeader {
            fingerprint: 1,
            base_seq: 10,
        }
        .encode()
        .to_vec();
        encode_runs(&mut bytes, &records, 3);
        // Runs of 3, 3 and 1.
        assert_eq!(bytes.len(), HDR_LEN + 2 * batch_len(3) + REC_LEN);
        assert_eq!(bytes[HDR_LEN], REC_BATCH);
        assert_eq!(bytes[HDR_LEN + 2 * batch_len(3)], REC_UPDATE);
        // Each entry is the wire entry of its update.
        let mut wire = Vec::new();
        put_update(&mut wire, &records[1].update);
        let entry = HDR_LEN + BATCH_HEAD + UPDATE_ENTRY;
        assert_eq!(bytes[entry..entry + UPDATE_ENTRY], wire[..]);
        let scan = scan_segment(&bytes, 1).expect("header intact");
        assert_eq!(scan.records, records);
        assert_eq!((scan.discarded, scan.sealed), (0, false));

        // A batch torn anywhere is one discarded record; so is a batch
        // whose count is past the end of the segment.
        let cut = HDR_LEN + batch_len(3) + 5;
        let scan = scan_segment(&bytes[..cut], 1).expect("header intact");
        assert_eq!((scan.records.len(), scan.discarded), (3, 1));
        let mut big = bytes.clone();
        big[HDR_LEN + 9..HDR_LEN + 11].copy_from_slice(&u16::MAX.to_le_bytes());
        let scan = scan_segment(&big, 1).expect("header intact");
        assert_eq!((scan.records.len(), scan.discarded), (0, 1));
    }

    #[test]
    fn encode_run_splits_past_the_count_field() {
        let updates = vec![sample_update(0).update; MAX_RUN + 2];
        let mut bytes = SegmentHeader {
            fingerprint: 1,
            base_seq: 0,
        }
        .encode()
        .to_vec();
        encode_run(&mut bytes, 0, 9, &updates);
        assert_eq!(bytes.len(), HDR_LEN + batch_len(MAX_RUN) + batch_len(2));
        let scan = scan_segment(&bytes, 1).expect("header intact");
        assert_eq!(scan.records.len(), MAX_RUN + 2);
        assert!(scan
            .records
            .iter()
            .enumerate()
            .all(|(i, r)| r.seq == i as u64));
    }

    #[test]
    fn scan_rejects_fingerprint_mismatch() {
        let bytes = segment(7, 0, 1);
        assert!(matches!(
            scan_segment(&bytes, 8),
            Err(WalError::FingerprintMismatch {
                expected: 8,
                found: 7
            })
        ));
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(
            FsyncPolicy::parse("group:250us"),
            Some(FsyncPolicy::Group(250))
        );
        assert_eq!(
            FsyncPolicy::parse("group:1000"),
            Some(FsyncPolicy::Group(1000))
        );
        assert_eq!(FsyncPolicy::parse("group:0"), None);
        assert_eq!(FsyncPolicy::parse("group:"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Off,
            FsyncPolicy::Group(250),
        ] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Some(p));
        }
    }

    #[test]
    fn handle_appends_then_seal_produces_replayable_segment() {
        let dir = scratch("wal-test");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let mut wal = WalHandle::start(&cfg, 99, 0).expect("start wal");
        // Four runs of 15 and four updates of their own.
        let records = [runs(0, 60, 15), runs(60, 4, 1)].concat();
        for rec in &records {
            wal.append(rec.seq, rec.update, rec.arrival_micros);
        }
        wal.barrier(64);
        let stats = wal.stats();
        assert_eq!(stats.written_seq(), 64);
        wal.seal().expect("seal");
        // Header + four batches + four records + seal; the seal's fsync is
        // the only one.
        let d = stats.durability();
        assert_eq!(
            d.wal_bytes,
            (HDR_LEN + 4 * batch_len(15) + 5 * REC_LEN) as u64
        );
        assert_eq!(
            (d.wal_fsyncs, d.wal_rotations, d.snapshots_written),
            (1, 0, 0)
        );

        let bytes = std::fs::read(dir.join(SEGMENT_FILE)).expect("segment readable");
        let scan = scan_segment(&bytes, 99).expect("segment scans");
        assert!(scan.sealed);
        assert_eq!(scan.discarded, 0);
        assert_eq!(scan.records[..64], records[..]);
        assert_eq!(scan.records.len(), 65); // 64 updates + the seal
        assert_eq!(scan.records[64].seq, 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flusher_rotates_at_size_bound_and_chain_stays_contiguous() {
        let dir = scratch("wal-rotate");
        let mut cfg = DurabilityConfig::new(&dir);
        // Rotate after roughly four records; exact chain layout depends
        // on the flusher's batching, so assert invariants, not counts.
        cfg.rotate_bytes = (HDR_LEN + 4 * REC_LEN) as u64;
        let mut wal = WalHandle::start(&cfg, 99, 0).expect("start wal");
        for rec in runs(0, 64, 5) {
            wal.append(rec.seq, rec.update, rec.arrival_micros);
        }
        wal.barrier(64);
        let stats = wal.stats();
        // `barrier` only proves the records reached `write`; the rotation
        // that follows the batch write is the (joined) flusher's to
        // finish, so count rotations after `seal`.
        wal.seal().expect("seal");
        assert!(
            stats.durability().wal_rotations > 0,
            "64 records over a ~4-record bound must rotate at least once"
        );

        // Walk the chain recovery walks. Every interior link must be sealed
        // and clean; base_seq must chain onto the previous link's seal; and
        // the update sequence across the whole chain must be 0..64 in
        // order with no gap or duplicate.
        assert!(
            !list_rotated(&dir).expect("list chain").is_empty(),
            "rotations must leave sealed links"
        );
        let mut expected_base = 0u64;
        let mut next_update = 0u64;
        for link in crate::logdir::chain(&dir).expect("list chain") {
            let (bytes, is_final) = link.expect("link readable");
            let scan = scan_segment(&bytes, 99).expect("link scans");
            assert!(scan.sealed, "every link and the sealed tail end sealed");
            assert_eq!(scan.discarded, 0);
            assert_eq!(scan.header.base_seq, expected_base, "chain continuity");
            for rec in &scan.records {
                if rec.kind == REC_UPDATE {
                    assert_eq!(rec.seq, next_update, "update order across the chain");
                    next_update += 1;
                } else {
                    assert_eq!(rec.kind, REC_SEAL);
                    expected_base = rec.seq;
                }
            }
            if !is_final {
                assert_eq!(expected_base, next_update, "seal covers the link's tail");
            }
        }
        assert_eq!(next_update, 64, "no update lost or duplicated by rotation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The test's end of a log whose flusher it steps (see [`stepped_log`]).
    pub(crate) struct Stepper {
        flusher: Flusher<TestClock>,
        hand: mpsc::Sender<Flusher<TestClock>>,
    }

    impl Stepper {
        /// One flusher pass; true when it wrote.
        pub(crate) fn step(&mut self) -> bool {
            self.flusher.step().expect("flusher step") == Pass::Wrote
        }

        /// The clock the flusher reads.
        fn clock(&self) -> &TestClock {
            &self.flusher.clock
        }

        /// Hands the flusher to the log's thread, which runs it until the
        /// seal: do this before anything seals the log.
        pub(crate) fn hand_over(self) {
            self.hand
                .send(self.flusher)
                .expect("the log's thread waits");
        }
    }

    /// A log in a fresh `dir` whose flusher the test steps, on a clock
    /// that only [`TestClock::advance`] moves. The log's thread runs that
    /// same flusher once [`Stepper::hand_over`] gives it over; a seal
    /// joins that thread.
    pub(crate) fn stepped_log(cfg: &DurabilityConfig) -> (WalHandle, Stepper) {
        let (ends, flusher) = Flusher::open(cfg, 99, 0, TestClock::new(0.0)).expect("open the log");
        let (hand, handed) = mpsc::channel();
        let wal = WalHandle::new(
            ends,
            Arc::clone(&flusher.stats),
            std::thread::spawn(move || handed.recv().map_or(Ok(()), Flusher::run)),
        );
        (wal, Stepper { flusher, hand })
    }

    /// A scratch directory for one test.
    pub(crate) fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("strip-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A block's wire buffer as a logging session fills it: a zeroed
    /// run head, then the entries of `records`.
    pub(crate) fn wire(records: &[WalRecord]) -> Vec<u8> {
        let mut wire = vec![0; RUN_HEAD];
        for r in records {
            put_update(&mut wire, &r.update);
        }
        wire
    }

    /// Hands the flusher the updates `from..from + n`, arrived at one
    /// instant, as one block.
    fn append_n(wal: &mut WalHandle, from: u64, n: u64) {
        let records = runs(from, n, n);
        wal.append_run(from, records[0].arrival_micros, wire(&records));
    }

    /// `(wal_fsyncs, wal_group_max)`.
    fn syncs(stats: &WalStats) -> (u64, u64) {
        let d = stats.durability();
        (d.wal_fsyncs, d.wal_group_max)
    }

    /// Steps a stepped log to its seal and returns its counters.
    fn seal_stepped(wal: WalHandle, stepper: Stepper) -> Arc<WalStats> {
        let stats = wal.stats();
        stepper.hand_over();
        wal.seal().expect("seal");
        stats
    }

    /// `append` extends a run while the sequence number and the arrival
    /// continue it: a run ends where the sequence numbers jump, even at
    /// one arrival, and where the arrival changes.
    #[test]
    fn append_ends_a_run_at_a_sequence_gap_and_a_new_arrival() {
        let dir = scratch("wal-seq-gap");
        let (mut wal, mut flusher) = stepped_log(&DurabilityConfig::new(&dir));
        let stats = wal.stats();
        let records: Vec<WalRecord> = [(0, 7), (1, 7), (5, 7), (6, 7), (7, 8)]
            .map(|(seq, arrival)| WalRecord::update(seq, sample_update(seq).update, arrival))
            .to_vec();
        for rec in &records {
            wal.append(rec.seq, rec.update, rec.arrival_micros);
        }
        wal.flush();
        assert!(flusher.step());
        assert_eq!(
            stats.durability().wal_bytes,
            (HDR_LEN + 2 * batch_len(2) + REC_LEN) as u64
        );
        seal_stepped(wal, flusher);
        let bytes = std::fs::read(dir.join(SEGMENT_FILE)).expect("segment readable");
        let scan = scan_segment(&bytes, 99).expect("segment scans");
        assert_eq!(scan.records[..5], records[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_off_syncs_only_at_a_rotation_and_the_seal() {
        let dir = scratch("wal-cadence-off");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        cfg.rotate_bytes = (HDR_LEN + batch_len(4)) as u64;
        let (mut wal, mut flusher) = stepped_log(&cfg);
        let stats = wal.stats();
        append_n(&mut wal, 0, 3);
        assert!(flusher.step());
        flusher.clock().advance(1.0);
        assert!(!flusher.step());
        assert_eq!(syncs(&stats), (0, 0), "written, idle: no fsync");
        // Five updates in two runs pass the bound of one four-update
        // batch: the rotation's seal is the first fsync, and it covers all
        // five.
        append_n(&mut wal, 3, 2);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (1, 5));
        assert_eq!(stats.durability().wal_rotations, 1);
        append_n(&mut wal, 5, 1);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (1, 5));
        assert_eq!(syncs(&seal_stepped(wal, flusher)), (2, 5), "the seal syncs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_always_syncs_once_per_written_batch() {
        let dir = scratch("wal-cadence-always");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Always;
        let (mut wal, mut flusher) = stepped_log(&cfg);
        let stats = wal.stats();
        append_n(&mut wal, 0, 2);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (1, 2));
        // Two blocks handed over before a pass are one write.
        append_n(&mut wal, 2, 2);
        append_n(&mut wal, 4, 3);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (2, 5));
        assert!(!flusher.step());
        assert_eq!(syncs(&stats), (2, 5), "an idle pass syncs nothing");
        append_n(&mut wal, 7, 1);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (3, 5));
        assert_eq!(syncs(&seal_stepped(wal, flusher)), (4, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_syncs_when_records_wait_and_the_window_has_passed() {
        let dir = scratch("wal-cadence-group");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Group(1_000);
        let (mut wal, mut flusher) = stepped_log(&cfg);
        let stats = wal.stats();
        append_n(&mut wal, 0, 2);
        assert!(flusher.step());
        flusher.clock().advance(0.0005);
        assert!(!flusher.step());
        assert_eq!(syncs(&stats), (0, 0), "half a window since the open");
        flusher.clock().advance(0.0005);
        assert!(!flusher.step());
        assert_eq!(syncs(&stats), (1, 2), "one window: due");
        flusher.clock().advance(0.002);
        assert!(!flusher.step());
        assert_eq!(syncs(&stats), (1, 2), "nothing unsynced: nothing due");
        // Records written two windows after the last fsync are synced by
        // the pass that writes them.
        append_n(&mut wal, 2, 3);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (2, 3));
        append_n(&mut wal, 5, 1);
        assert!(flusher.step());
        assert_eq!(syncs(&stats), (2, 3), "inside the window again");
        assert_eq!(syncs(&seal_stepped(wal, flusher)), (3, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One pass stops draining once it has framed [`WRITE_BYTES`],
    /// however much is queued, so it writes at most that and one message;
    /// it hands every buffer it framed back, and a flush takes one.
    #[test]
    fn one_pass_writes_at_most_write_bytes_and_hands_the_buffers_back() {
        let dir = scratch("wal-bounded-write");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let (mut wal, mut flusher) = stepped_log(&cfg);
        let stats = wal.stats();
        // Blocks of 512: the pass that frames the one crossing the bound
        // stops there.
        let block = 512;
        let one_write = WRITE_BYTES.div_ceil(batch_len(block));
        let blocks = one_write + 3;
        for i in 0..blocks {
            append_n(&mut wal, (i * block) as u64, block as u64);
        }
        let queued = (blocks * block) as u64;
        assert_eq!(stats.durability().wal_appended, queued, "counted per block");
        let bytes = || stats.durability().wal_bytes;
        let before = bytes();
        assert!(flusher.step());
        let written = (one_write * batch_len(block)) as u64;
        assert_eq!(
            bytes() - before,
            written,
            "one bounded write, a batch a block"
        );
        assert!(written < (WRITE_BYTES + batch_len(block)) as u64);
        assert_eq!(stats.written_seq(), (one_write * block) as u64);
        assert_eq!(wal.spent.len(), one_write, "every framed buffer went home");
        assert!(flusher.step());
        assert_eq!(stats.written_seq(), queued, "the next pass writes the rest");
        assert!(!flusher.step());
        assert_eq!(wal.spent.len(), blocks);
        // A flush refills a buffer that came home rather than a new one.
        wal.append(queued, sample_update(0).update, 0);
        wal.flush();
        assert_eq!(wal.spent.len(), blocks - 1);
        // The largest frame's block still goes whole into one pass.
        let max = crate::protocol::MAX_BATCH_UPDATES;
        append_n(&mut wal, queued + 1, max as u64);
        assert!(flusher.step());
        assert_eq!(
            bytes() - before,
            (written + (3 * batch_len(block)) as u64) + (REC_LEN + batch_len(max)) as u64
        );
        assert_eq!(
            batch_len(max),
            crate::protocol::MAX_FRAME,
            "a frame's record is a frame"
        );
        seal_stepped(wal, flusher);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A backlog larger than the return ring leaves a pool of
    /// [`SPENT_BUFFERS`] buffers: the flusher drops the rest.
    #[test]
    fn buffers_beyond_the_return_ring_are_dropped() {
        let dir = scratch("wal-spent-bound");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let (mut wal, mut flusher) = stepped_log(&cfg);
        let blocks = 2 * SPENT_BUFFERS as u64 + 5;
        for i in 0..blocks {
            append_n(&mut wal, 4 * i, 4);
        }
        while flusher.step() {}
        assert_eq!(wal.stats().written_seq(), 4 * blocks);
        assert_eq!(wal.spent.len(), SPENT_BUFFERS);
        seal_stepped(wal, flusher);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// While the flusher is behind by its bound in updates, a hand-over
    /// waits as on a full ring: what is queued never exceeds the bound,
    /// and every update still reaches the log.
    #[test]
    fn what_is_queued_never_exceeds_the_backlog_bound() {
        let dir = scratch("wal-backlog");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let (mut wal, mut flusher) = stepped_log(&cfg);
        let stats = wal.stats();
        let bound = 1_000;
        wal.max_backlog = bound;
        let (block, blocks) = (100, 50);
        let producer = std::thread::spawn(move || {
            for i in 0..blocks {
                append_n(&mut wal, i * block, block);
            }
            wal
        });
        let appended = || stats.durability().wal_appended;
        // Nothing is written until the test steps: the producer stops at
        // the bound.
        for _ in 0..100_000 {
            if appended() >= bound {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        // Time to pass the bound, were the hand-over not to wait.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(appended(), bound, "the hand-over past the bound waits");
        while stats.written_seq() < block * blocks {
            // Only this thread moves the written watermark.
            let queued = appended() - stats.written_seq();
            assert!(queued <= bound, "{queued} updates queued");
            flusher.step();
        }
        let wal = producer.join().expect("producer");
        assert_eq!(appended(), block * blocks);
        seal_stepped(wal, flusher);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The rotation's rename into a directory removed under the flusher
    /// fails with `ENOENT`: the log latches failed, and from then on an
    /// append, a barrier and even a full ring let the caller through.
    #[test]
    fn a_rotation_into_a_removed_directory_fails_the_log_and_blocks_nothing() {
        let dir = scratch("wal-removed");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        cfg.rotate_bytes = (HDR_LEN + batch_len(4)) as u64;
        let mut wal = WalHandle::start(&cfg, 99, 0).expect("start wal");
        let stats = wal.stats();
        std::fs::remove_dir_all(&dir).expect("remove the log directory");
        append_n(&mut wal, 0, 4);
        wal.barrier(4);
        for _ in 0..10_000 {
            if stats.is_failed() {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(stats.is_failed(), "the failed rotation must latch");
        assert_eq!(stats.written_seq(), 4, "the batch was written before it");
        append_n(&mut wal, 4, 512);
        wal.barrier(4 + 512);
        for _ in 0..=WAL_RING_CAPACITY {
            wal.request_snapshot(Vec::new(), 4);
        }
        assert_eq!(stats.written_seq(), 4);
        let err = wal.seal().expect_err("the flusher failed");
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
    }
}
