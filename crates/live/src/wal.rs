// lint: allow-file(wall-clock, reason=group-commit cadence is wall-clock by definition; the flusher thread lives off the quantum loop and never feeds scheduling decisions)
//! Append-only write-ahead log with group commit.
//!
//! Durability for the live runtime (DESIGN.md §14): every update the
//! executor accepts is encoded into a fixed-size, CRC-protected record and
//! handed to a dedicated **flusher thread** over the same lock-free SPSC
//! ring the ingest path uses ([`crate::spsc`]), so the 500 µs quantum loop
//! never blocks on a syscall, let alone an `fsync`. The flusher batches
//! whatever has accumulated since its last pass into one `write`, then
//! syncs on a configurable cadence ([`FsyncPolicy`]): after every batch
//! (`always`), at most once per group window (`group:<µs>`), or never
//! (`off` — `kill -9` still loses nothing, because completed `write`s
//! survive process death in the page cache; only power/kernel loss is at
//! stake).
//!
//! This module is the record format, the executor-side handle and the
//! flusher's policy — drain, batch boundary, fsync cadence. Which files
//! hold the log and the order they are replaced in is [`crate::logdir`]'s
//! business (crash table: DESIGN.md §14).
//!
//! ## On-disk format
//!
//! A segment is a 32-byte header followed by 50-byte records:
//!
//! ```text
//! header:  "STRIPWAL" | version u32 | config fingerprint u64 | base_seq u64 | crc32
//! record:  kind u8 | seq u64 | class u8 | index u32 | generation µs i64
//!          | payload f64 bits | attr_mask u64 | arrival µs i64 | crc32
//! ```
//!
//! All integers are little-endian. The fingerprint is
//! [`strip_core::fingerprint::config_fingerprint`] — a segment written
//! under one configuration is never replayed under another. `base_seq` is
//! the sequence number of the first record the segment may hold; records
//! below it belong to the snapshot that sealed the previous segment
//! ([`crate::snapshot`]). A [`REC_SEAL`] record marks a clean shutdown;
//! recovery treats anything after a torn or CRC-failing record as lost
//! ([`crate::recovery`]).

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strip_core::report::DurabilityStats;

use crate::logdir::Segment;
pub use crate::logdir::{list_rotated, rotated_segment_name, SEGMENT_FILE};
use crate::protocol::WireUpdate;
use crate::spsc;

/// Default size bound for the active segment before the flusher rotates
/// it into the sealed chain (64 MiB).
pub const DEFAULT_ROTATE_BYTES: u64 = 64 * 1024 * 1024;
/// Segment header magic.
pub const WAL_MAGIC: [u8; 8] = *b"STRIPWAL";
/// Segment format version.
pub const WAL_VERSION: u32 = 1;
/// Encoded segment header length in bytes.
pub const HDR_LEN: usize = 32;
/// Encoded record length in bytes (fixed — torn tails are detected by
/// length arithmetic plus the per-record CRC, never by scanning).
pub const REC_LEN: usize = 50;
/// Record kind: one accepted update.
pub const REC_UPDATE: u8 = 1;
/// Record kind: clean end of segment (orderly shutdown).
pub const REC_SEAL: u8 = 2;

/// Ring capacity between the executor and the flusher. At 50 bytes per
/// record this bounds the executor-side buffer near 3 MiB; the executor
/// spins (off the hot path, at ingest rates far above any measured) only
/// if the flusher falls this far behind.
const WAL_RING_CAPACITY: usize = 1 << 16;

// ---- CRC32 (IEEE, slice-by-8) -----------------------------------------------

/// Eight derived lookup tables for slice-by-8: `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[j]` advances a byte `j` further positions
/// in one lookup. Same polynomial, same checksums as the byte-wise form —
/// only the number of table lookups per byte changes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
///
/// Slice-by-8: eight bytes per iteration, eight independent table lookups
/// the CPU can overlap. The flusher checksums every record on the hot
/// path, so this runs ~4-5x faster than the byte-wise loop while
/// producing bit-identical checksums.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

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
    /// Recover from the directory's snapshot + WAL chain before serving.
    pub recover: bool,
    /// Rotate the active segment into the sealed chain once it exceeds
    /// this many bytes (0 disables rotation; growth is then bounded only
    /// by the snapshot cadence).
    pub rotate_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults: 1 ms group commit, a snapshot every 5 s, 64 MiB
    /// rotation, no recovery.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Group(1_000),
            snapshot_secs: 5.0,
            recover: false,
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
        put_u64(&mut b, 14, self.update.generation_micros as u64);
        put_u64(&mut b, 22, self.update.payload.to_bits());
        put_u64(&mut b, 30, self.update.attr_mask);
        put_u64(&mut b, 38, self.arrival_micros as u64);
        let crc = crc32(&b[..REC_LEN - 4]);
        put_u32(&mut b, REC_LEN - 4, crc);
        b
    }

    /// Decodes one record; rejects short buffers, checksum mismatches, and
    /// unknown kinds.
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

    /// Decodes a header; rejects short buffers, bad magic, unknown
    /// versions, and checksum mismatches.
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
        if version != WAL_VERSION {
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
    /// Every valid record up to (and including) a seal, in log order.
    pub records: Vec<WalRecord>,
    /// Whole-or-partial trailing records dropped at the first torn or
    /// CRC-failing position (the longest-valid-prefix rule).
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
    while pos < bytes.len() {
        match WalRecord::decode(&bytes[pos..]) {
            Ok(rec) => {
                pos += REC_LEN;
                let is_seal = rec.kind == REC_SEAL;
                records.push(rec);
                if is_seal {
                    sealed = true;
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let left = bytes.len().saturating_sub(pos);
    let discarded = if sealed {
        // Bytes after a seal are stale pre-truncation leftovers, not loss.
        0
    } else {
        (left as u64).div_ceil(REC_LEN as u64)
    };
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
    /// barriers return immediately; the run continues undurable).
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
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

/// One accepted update awaiting encode — buffered raw on the executor
/// side so the hot path pays a plain struct copy; the flusher thread does
/// the encode + CRC work along with the `write`.
#[derive(Debug, Clone, Copy)]
struct RawRecord {
    seq: u64,
    update: WireUpdate,
    arrival_micros: i64,
}

enum WalMsg {
    /// A batch of raw records, in sequence order.
    Chunk(Vec<RawRecord>),
    Snapshot {
        bytes: Vec<u8>,
        next_seq: u64,
    },
}

/// Records buffered executor-side before one ring handoff. Amortises the
/// SPSC push (and its cache-line traffic) across many appends; the
/// executor flushes partial chunks every quantum and before any barrier,
/// so the handoff delay is bounded by the quantum, far inside every group
/// cadence.
const CHUNK_RECORDS: usize = 256;

// ---- executor-side handle ---------------------------------------------------

/// Executor-side handle to the flusher thread: appends records, requests
/// snapshots, waits on the write barrier, and seals on shutdown.
#[derive(Debug)]
pub struct WalHandle {
    tx: spsc::Producer<WalMsg>,
    pending: Vec<RawRecord>,
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
        let seg = Segment::start(cfg, fingerprint, base_seq)?;
        let stats = Arc::new(WalStats::new(base_seq));
        stats.bytes.fetch_add(HDR_LEN as u64, Ordering::Relaxed);
        let (tx, rx) = spsc::ring(WAL_RING_CAPACITY);
        let policy = cfg.fsync;
        let flusher_stats = Arc::clone(&stats);
        let flusher = std::thread::Builder::new()
            .name("stripd-wal".into())
            .spawn(move || {
                let res = flusher_loop(seg, rx, policy, &flusher_stats);
                if res.is_err() {
                    flusher_stats.failed.store(true, Ordering::Release);
                }
                res
            })?;
        Ok(WalHandle {
            tx,
            pending: Vec::with_capacity(CHUNK_RECORDS),
            stats,
            flusher,
        })
    }

    /// Appends one accepted update: a plain struct copy into the pending
    /// chunk — no encode, no CRC, no atomics on the hot path. Full chunks
    /// are handed to the flusher; call [`WalHandle::flush`] at quantum
    /// boundaries to bound the handoff delay of partial ones.
    pub fn append(&mut self, seq: u64, update: WireUpdate, arrival_micros: i64) {
        self.pending.push(RawRecord {
            seq,
            update,
            arrival_micros,
        });
        self.stats.appended.fetch_add(1, Ordering::Relaxed);
        if self.pending.len() >= CHUNK_RECORDS {
            self.flush();
        }
    }

    /// Hands the buffered partial chunk to the flusher. Never blocks on
    /// I/O; spins only if the flusher is a full ring behind (and gives up
    /// if it has died, so a disk failure degrades the run instead of
    /// wedging the executor).
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.pending, Vec::with_capacity(CHUNK_RECORDS));
        self.push_msg(WalMsg::Chunk(chunk));
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
    /// header at `next_seq`. Flushes the pending chunk first — records
    /// below `next_seq` must reach the old segment before it is cut.
    pub fn request_snapshot(&mut self, bytes: Vec<u8>, next_seq: u64) {
        self.flush();
        self.push_msg(WalMsg::Snapshot { bytes, next_seq });
    }

    /// The ack barrier: flushes the pending chunk, then blocks until every
    /// record below `next_seq` has been `write`-handed to the OS (NOT
    /// necessarily fsynced — see [`WalStats::written`]). Called before a
    /// stats reply is sent, so "acked" implies "survives `kill -9`" at
    /// every fsync cadence.
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
        let WalHandle {
            tx,
            pending: _,
            stats: _,
            flusher,
        } = self;
        drop(tx); // closes the ring; the flusher sees it drained
        match flusher.join() {
            Ok(res) => res,
            Err(_) => Err(io::Error::other("wal flusher thread panicked")),
        }
    }
}

// ---- flusher thread ---------------------------------------------------------

fn flusher_loop(
    mut seg: Segment,
    mut rx: spsc::Consumer<WalMsg>,
    policy: FsyncPolicy,
    stats: &WalStats,
) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(256 * REC_LEN);
    let mut unsynced: u64 = 0;
    let mut last_sync = Instant::now();
    loop {
        // Drain whatever has accumulated into one write. A snapshot message
        // is a batch boundary: records before it must land in the old
        // segment, records after it in the truncated one.
        buf.clear();
        let mut last_seq = None;
        let mut pending_snapshot = None;
        while let Some(msg) = rx.pop() {
            match msg {
                WalMsg::Chunk(records) => {
                    for r in &records {
                        let rec = WalRecord::update(r.seq, r.update, r.arrival_micros);
                        buf.extend_from_slice(&rec.encode());
                        last_seq = Some(r.seq);
                    }
                }
                WalMsg::Snapshot { bytes, next_seq } => {
                    pending_snapshot = Some((bytes, next_seq));
                    break;
                }
            }
        }
        if let Some(seq) = last_seq {
            stats.bytes.fetch_add(seg.append(&buf)?, Ordering::Relaxed);
            unsynced += (buf.len() / REC_LEN) as u64;
            // The barrier releases only after write_all returned: the
            // records are the kernel's problem now and survive kill -9.
            stats.written.store(seq + 1, Ordering::Release);
            if seg.is_full() {
                // Size bound reached: seal this segment into the chain
                // and continue in a fresh one. Unsynced records were just
                // fsynced by the rotation's seal.
                stats
                    .bytes
                    .fetch_add(seg.rotate(seq + 1)?, Ordering::Relaxed);
                stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                stats.rotations.fetch_add(1, Ordering::Relaxed);
                stats.group_max.fetch_max(unsynced, Ordering::Relaxed);
                unsynced = 0;
                last_sync = Instant::now();
            }
        }
        if let Some((bytes, next_seq)) = pending_snapshot {
            stats
                .bytes
                .fetch_add(seg.cut(&bytes, next_seq)?, Ordering::Relaxed);
            stats.snapshots.fetch_add(1, Ordering::Relaxed);
            unsynced = 0;
            last_sync = Instant::now();
            continue; // more messages may already be queued
        }
        let sync_due = match policy {
            FsyncPolicy::Always => unsynced > 0,
            FsyncPolicy::Group(us) => {
                unsynced > 0 && last_sync.elapsed() >= Duration::from_micros(us)
            }
            FsyncPolicy::Off => false,
        };
        if sync_due {
            seg.sync()?;
            stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            stats.group_max.fetch_max(unsynced, Ordering::Relaxed);
            unsynced = 0;
            last_sync = Instant::now();
        }
        if rx.is_closed() && rx.is_empty() {
            // Sealing is the orderly-shutdown path: it fsyncs even under
            // `--fsync off`.
            let sealed = seg.seal(stats.written.load(Ordering::Relaxed))?;
            stats.bytes.fetch_add(sealed, Ordering::Relaxed);
            stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            stats.group_max.fetch_max(unsynced, Ordering::Relaxed);
            return Ok(());
        }
        if last_seq.is_none() {
            // Idle: nap briefly. Bounded well under every group cadence so
            // a due fsync or a close is noticed promptly.
            let nap = match policy {
                FsyncPolicy::Group(us) => us.clamp(20, 200),
                _ => 100,
            };
            std::thread::sleep(Duration::from_micros(nap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn crc32_slice_by_8_matches_bytewise_reference() {
        // Lengths straddling the 8-byte chunk boundary, including 46
        // (record body) and 28 (header body).
        let data: Vec<u8> = (0u16..512)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 28, 46, 63, 64, 255, 512] {
            let bytes = &data[..len];
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(bytes), c ^ 0xFFFF_FFFF, "len {len}");
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
        let dir = std::env::temp_dir().join(format!("strip-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let mut wal = WalHandle::start(&cfg, 99, 0).expect("start wal");
        for seq in 0..64 {
            let rec = sample_update(seq);
            wal.append(seq, rec.update, rec.arrival_micros);
        }
        wal.barrier(64);
        let stats = wal.stats();
        assert_eq!(stats.written_seq(), 64);
        wal.seal().expect("seal");
        // Header + 64 records + seal; the seal's fsync is the only one.
        let d = stats.durability();
        assert_eq!(d.wal_bytes, (HDR_LEN + 65 * REC_LEN) as u64);
        assert_eq!(
            (d.wal_fsyncs, d.wal_rotations, d.snapshots_written),
            (1, 0, 0)
        );

        let bytes = std::fs::read(dir.join(SEGMENT_FILE)).expect("segment readable");
        let scan = scan_segment(&bytes, 99).expect("segment scans");
        assert!(scan.sealed);
        assert_eq!(scan.discarded, 0);
        assert_eq!(scan.records.len(), 65); // 64 updates + the seal
        assert_eq!(scan.records[64].seq, 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flusher_rotates_at_size_bound_and_chain_stays_contiguous() {
        let dir = std::env::temp_dir().join(format!("strip-wal-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DurabilityConfig::new(&dir);
        // Rotate after roughly four records; exact chain layout depends
        // on the flusher's batching, so assert invariants, not counts.
        cfg.rotate_bytes = (HDR_LEN + 4 * REC_LEN) as u64;
        let mut wal = WalHandle::start(&cfg, 99, 0).expect("start wal");
        for seq in 0..64 {
            let rec = sample_update(seq);
            wal.append(seq, rec.update, rec.arrival_micros);
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
}
