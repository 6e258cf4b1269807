//! Perf measurements of the live runtime (`strip-live`): wire-ingest
//! throughput through a real TCP socket (frame-per-update and batched),
//! a layer-by-layer decomposition of the ingest pipeline (syscall /
//! decode / enqueue / install), and the pure policy-decision hot path
//! shared by simulator and server.
//!
//! Unlike [`crate::perf`]'s paired old-vs-new measurements these are
//! single-sided rates — there is no seed implementation of the live
//! runtime to compare against. They feed `BENCH_6.json` via the
//! `live_perf_harness` binary.

use std::hint::black_box;
use std::io::{BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use strip_core::config::{Policy, SimConfig};
use strip_core::policy::{self, WorkState};
use strip_db::cost::CostModel;
use strip_db::object::Importance;
use strip_db::object::ViewObjectId;
use strip_db::osqueue::OsQueue;
use strip_db::staleness::{StalenessSpec, StalenessTracker};
use strip_db::store::Store;
use strip_db::update::Update;
use strip_live::executor::LiveConfig;
use strip_live::protocol::{
    encode_batch_body, for_each_batch_update, read_msg, write_msg, FrameReader, Msg, WireStats,
    WireUpdate,
};
use strip_live::server::serve;
use strip_live::spsc;
use strip_live::wal::{DurabilityConfig, FsyncPolicy, WalHandle};
use strip_sim::time::SimTime;

/// One single-sided rate measurement.
#[derive(Debug, Clone, Copy)]
pub struct RateResult {
    /// What was measured (e.g. `"live/tcp_ingest"`).
    pub name: &'static str,
    /// Operations performed.
    pub ops: u64,
    /// Best-of-reps wall seconds.
    pub secs: f64,
}

impl RateResult {
    /// Throughput, operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Mean cost of one operation, nanoseconds.
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }
}

/// Updates/sec through the full live path: TCP socket → frame decode →
/// ingest channel → policy routing → install. The cost model is scaled
/// down 1000× so the measurement prices the runtime's own overhead (wire,
/// queues, scheduling) rather than the paper's modelled CPU burn, and the
/// final `StatsRequest` acts as a barrier — its reply is only sent once
/// every update queued before it has been processed.
///
/// # Panics
///
/// Panics on socket errors or when the server miscounts the stream.
#[must_use]
pub fn live_ingest(n_updates: usize, reps: usize) -> RateResult {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let sim = SimConfig::builder()
            .n_low(256)
            .n_high(256)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(3_600.0)
            .warmup(0.0)
            .policy(Policy::UpdatesFirst)
            .costs(CostModel {
                ips: 50.0e9,
                ..CostModel::default()
            })
            .build()
            .expect("valid live-ingest config");
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let handle = serve(&cfg, listener).expect("serve");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));

        let started = Instant::now();
        for i in 0..n_updates {
            let msg = Msg::Update(WireUpdate {
                class: (i % 2) as u8,
                index: (i % 256) as u32,
                generation_micros: i as i64 + 1,
                payload: i as f64,
                attr_mask: u64::MAX,
            });
            write_msg(&mut writer, &msg).expect("send update");
        }
        write_msg(&mut writer, &Msg::StatsRequest).expect("send barrier");
        writer.flush().expect("flush frames");
        let mut reader = stream;
        let stats = match read_msg(&mut reader).expect("barrier reply") {
            Some(Msg::StatsResponse(s)) => s,
            other => panic!("expected StatsResponse, got {other:?}"),
        };
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(
            stats.ingested, n_updates as u64,
            "server must have ingested the whole stream"
        );
        drop(reader);
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    }
    RateResult {
        name: "live/tcp_ingest",
        ops: n_updates as u64,
        secs: best,
    }
}

/// A deterministic synthetic update for the layer benches: 2 classes ×
/// 256 objects, monotonically increasing generations.
fn synth_update(i: usize) -> WireUpdate {
    WireUpdate {
        class: (i % 2) as u8,
        index: (i % 256) as u32,
        generation_micros: i as i64 + 1,
        payload: i as f64,
        attr_mask: u64::MAX,
    }
}

/// The credited client session the batched end-to-end measurements share:
/// opts into credit, sends `n_updates` synthetic updates in `UpdateBatch`
/// frames and returns the stats-barrier reply. A frame carries
/// `min(max_batch, credit)` updates and the client blocks for a top-up
/// only at zero credit — the rule `loadgen::Batcher::flush` uses. Waiting
/// for a whole batch of credit instead wedges at `0 < credit < max_batch`:
/// the server withholds grants below its low-water mark from a client
/// that still holds window.
fn send_credited_stream(stream: &mut TcpStream, n_updates: usize, max_batch: usize) -> WireStats {
    write_msg(stream, &Msg::CreditRequest).expect("credit request");
    let mut credit = 0u64;
    let mut updates: Vec<WireUpdate> = Vec::with_capacity(max_batch);
    let mut body = Vec::new();
    let mut frame = Vec::new();
    let mut sent = 0usize;
    while sent < n_updates {
        while credit == 0 {
            match read_msg(stream).expect("credit grant") {
                Some(Msg::Credit(g)) => credit += g,
                other => panic!("expected Credit, got {other:?}"),
            }
        }
        let k = max_batch
            .min(n_updates - sent)
            .min(usize::try_from(credit).unwrap_or(usize::MAX));
        updates.clear();
        updates.extend((sent..sent + k).map(synth_update));
        encode_batch_body(&mut body, &updates).expect("batch within frame limit");
        frame.clear();
        frame.extend_from_slice(&u32::try_from(body.len()).expect("frame size").to_le_bytes());
        frame.extend_from_slice(&body);
        stream.write_all(&frame).expect("send batch frame");
        credit -= k as u64;
        sent += k;
    }
    write_msg(stream, &Msg::StatsRequest).expect("send barrier");
    loop {
        match read_msg(stream).expect("barrier reply") {
            Some(Msg::Credit(_)) => {} // done sending; absorb top-ups
            Some(Msg::StatsResponse(s)) => break s,
            other => panic!("expected StatsResponse, got {other:?}"),
        }
    }
}

/// Updates/sec through the full live path when updates travel in
/// `UpdateBatch` frames of up to `max_batch` under credit flow control —
/// the batched twin of [`live_ingest`]. Same scaled-down cost model, same
/// `StatsRequest` completion barrier, same conservation check at
/// shutdown.
///
/// # Panics
///
/// Panics on socket errors or when the server miscounts the stream.
#[must_use]
pub fn live_ingest_batched(n_updates: usize, max_batch: usize, reps: usize) -> RateResult {
    let max_batch = max_batch.clamp(1, strip_live::protocol::MAX_BATCH_UPDATES);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let sim = SimConfig::builder()
            .n_low(256)
            .n_high(256)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(3_600.0)
            .warmup(0.0)
            .policy(Policy::UpdatesFirst)
            .costs(CostModel {
                ips: 50.0e9,
                ..CostModel::default()
            })
            .build()
            .expect("valid live-ingest config");
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let handle = serve(&cfg, listener).expect("serve");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        let started = Instant::now();
        let stats = send_credited_stream(&mut stream, n_updates, max_batch);
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(
            stats.ingested, n_updates as u64,
            "server must have ingested the whole batched stream"
        );
        drop(stream);
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    }
    RateResult {
        name: "live/tcp_ingest_batched",
        ops: n_updates as u64,
        secs: best,
    }
}

/// Updates/sec through the sharded live path: same batched stream as
/// [`live_ingest_batched`], but the server runs `stripes` executor
/// threads over a hash-partitioned store (DESIGN.md §15), so the
/// connection reader fans each update out to its owner stripe's SPSC
/// ring and the `StatsRequest` barrier collect-and-merges across all
/// stripes. On a host with fewer cores than stripes the threads
/// time-slice and the measurement prices sharding *overhead*; scaling
/// needs `host_cpus >= stripes` (the harness records `host_cpus`).
///
/// # Panics
///
/// Panics on socket errors or when the server miscounts the stream.
#[must_use]
pub fn live_ingest_striped(
    n_updates: usize,
    max_batch: usize,
    stripes: u32,
    reps: usize,
) -> RateResult {
    let max_batch = max_batch.clamp(1, strip_live::protocol::MAX_BATCH_UPDATES);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let sim = SimConfig::builder()
            .n_low(256)
            .n_high(256)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(3_600.0)
            .warmup(0.0)
            .policy(Policy::UpdatesFirst)
            .stripes(stripes)
            .costs(CostModel {
                ips: 50.0e9,
                ..CostModel::default()
            })
            .build()
            .expect("valid striped-ingest config");
        let cfg = LiveConfig::new(sim).expect("valid live config");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let handle = serve(&cfg, listener).expect("serve");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        let started = Instant::now();
        let stats = send_credited_stream(&mut stream, n_updates, max_batch);
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(
            stats.ingested, n_updates as u64,
            "merged stats must cover the whole stream across stripes"
        );
        drop(stream);
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        if stripes > 1 {
            assert_eq!(report.stripes.len(), stripes as usize, "per-stripe rows");
            let per_stripe: u64 = report.stripes.iter().map(|s| s.updates.arrived).sum();
            assert_eq!(per_stripe, n_updates as u64, "stripe counters must sum");
        }
    }
    RateResult {
        name: match stripes {
            1 => "live/tcp_ingest_stripes_1",
            2 => "live/tcp_ingest_stripes_2",
            4 => "live/tcp_ingest_stripes_4",
            8 => "live/tcp_ingest_stripes_8",
            _ => "live/tcp_ingest_striped",
        },
        ops: n_updates as u64,
        secs: best,
    }
}

/// Layer 1 — syscall + framing: batch frames over loopback TCP into a
/// [`FrameReader`], counting updates from the frame headers without
/// decoding the entries. Prices `write`/`read` syscalls plus the
/// reader's buffer management, isolated from decode and routing.
///
/// # Panics
///
/// Panics on socket errors or a miscounted stream.
#[must_use]
pub fn layer_syscall(n_updates: usize, batch: usize, reps: usize) -> RateResult {
    let batch = batch.clamp(1, strip_live::protocol::MAX_BATCH_UPDATES);
    let frames = n_updates.div_ceil(batch);
    let total = frames * batch;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("listener addr");
        let reader = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).expect("nodelay");
            let mut fr = FrameReader::new();
            let mut seen = 0usize;
            while seen < total {
                let body = fr
                    .next_frame(&mut conn)
                    .expect("read frame")
                    .expect("stream ended early");
                assert_eq!(body.first(), Some(&7u8), "expected an UpdateBatch frame");
                let count =
                    u32::from_le_bytes(body[1..5].try_into().expect("count field")) as usize;
                seen += count;
            }
            seen
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // One pre-encoded frame resent `frames` times: the layer prices
        // transport, not encoding.
        let updates: Vec<WireUpdate> = (0..batch).map(synth_update).collect();
        let mut body = Vec::new();
        encode_batch_body(&mut body, &updates).expect("batch within frame limit");
        let mut frame_bytes =
            Vec::from(u32::try_from(body.len()).expect("frame size").to_le_bytes());
        frame_bytes.extend_from_slice(&body);

        let started = Instant::now();
        for _ in 0..frames {
            stream.write_all(&frame_bytes).expect("send frame");
        }
        let seen = reader.join().expect("reader thread");
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(seen, total, "reader must count every update sent");
    }
    RateResult {
        name: "live/layer_syscall",
        ops: total as u64,
        secs: best,
    }
}

/// Layer 2 — decode: repeatedly walks a pre-encoded `UpdateBatch` body
/// with [`for_each_batch_update`], pricing the wire → [`WireUpdate`]
/// conversion alone (no socket, no queues).
///
/// # Panics
///
/// Panics if the pre-encoded batch fails to decode.
#[must_use]
pub fn layer_decode(n_updates: usize, batch: usize, reps: usize) -> RateResult {
    let batch = batch.clamp(1, strip_live::protocol::MAX_BATCH_UPDATES);
    let passes = n_updates.div_ceil(batch);
    let total = passes * batch;
    let updates: Vec<WireUpdate> = (0..batch).map(synth_update).collect();
    let mut body = Vec::new();
    encode_batch_body(&mut body, &updates).expect("batch within frame limit");
    let entries = &body[..];
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let mut decoded = 0usize;
        for _ in 0..passes {
            decoded += for_each_batch_update(black_box(entries), |w| {
                black_box(w);
            })
            .expect("valid batch body");
        }
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(decoded, total);
    }
    RateResult {
        name: "live/layer_decode",
        ops: total as u64,
        secs: best,
    }
}

/// Layer 3 — enqueue: cross-thread handoff of [`WireUpdate`]s through the
/// lock-free SPSC ring at the same capacity the server uses, pricing the
/// push/pop protocol (cache-line traffic included) with a real producer
/// thread.
///
/// # Panics
///
/// Panics if the consumer misses updates.
#[must_use]
pub fn layer_enqueue(n_updates: usize, reps: usize) -> RateResult {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (mut p, mut c) = spsc::ring::<WireUpdate>(strip_live::server::RING_CAPACITY);
        let producer = std::thread::spawn(move || {
            for i in 0..n_updates {
                let mut v = synth_update(i);
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let started = Instant::now();
        let mut got = 0usize;
        while got < n_updates {
            match c.pop() {
                Some(w) => {
                    black_box(w);
                    got += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        best = best.min(started.elapsed().as_secs_f64());
        producer.join().expect("producer thread");
        assert!(c.pop().is_none(), "consumer must drain exactly n_updates");
    }
    RateResult {
        name: "live/layer_enqueue",
        ops: n_updates as u64,
        secs: best,
    }
}

/// Layer 4 — install: the executor's per-update database work, inlined —
/// OS-queue delivery, staleness bookkeeping on receive, dequeue, store
/// install, staleness bookkeeping on install. No sockets or threads;
/// this is the floor the paper's policies schedule around.
///
/// # Panics
///
/// Panics if the synthetic stream stops installing.
#[must_use]
pub fn layer_install(n_updates: usize, reps: usize) -> RateResult {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = SimTime::ZERO;
        let mut store = Store::new(256, 256, 0, start);
        let mut os = OsQueue::new(1024);
        let mut tracker = StalenessTracker::new(
            StalenessSpec::MaxAge { alpha: 7.0 },
            256,
            256,
            start,
            |_| start,
        );
        let started = Instant::now();
        let mut installed = 0u64;
        for i in 0..n_updates {
            let w = synth_update(i);
            let object = ViewObjectId::new(
                if w.class == 0 {
                    Importance::Low
                } else {
                    Importance::High
                },
                w.index,
            );
            let now = SimTime::from_secs(i as f64 * 1e-7);
            let update = Update {
                seq: i as u64,
                object,
                generation_ts: SimTime::from_secs(w.generation_micros as f64 * 1e-6),
                arrival_ts: now,
                payload: w.payload,
                attr_mask: w.attr_mask,
            };
            os.deliver(update);
            tracker.on_receive(object, update.generation_ts, now);
            let queued = os.receive().expect("just delivered");
            if let strip_db::store::InstallOutcome::Installed {
                new_version,
                min_generation,
            } = store.install(&queued)
            {
                black_box(tracker.on_install(object, min_generation, new_version, now));
                installed += 1;
            }
        }
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(
            installed, n_updates as u64,
            "monotone generations must always install"
        );
    }
    RateResult {
        name: "live/layer_install",
        ops: n_updates as u64,
        secs: best,
    }
}

/// A temp directory for one WAL measurement, wiped before and after.
struct TempWal(std::path::PathBuf);

impl TempWal {
    fn new(tag: &str) -> TempWal {
        let dir = std::env::temp_dir().join(format!("strip-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempWal(dir)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Layer D1 — WAL append: executor-side encode + SPSC handoff to the
/// flusher plus the flusher's buffered `write_all`, priced to the written
/// watermark (the ack barrier) with fsync off. This is the latency the
/// quantum loop actually pays per durable update.
///
/// # Panics
///
/// Panics if the WAL cannot be created in the temp directory.
#[must_use]
pub fn layer_wal_append(n_updates: usize, reps: usize) -> RateResult {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let tmp = TempWal::new("append");
        let mut cfg = DurabilityConfig::new(&tmp.0);
        cfg.fsync = FsyncPolicy::Off;
        let mut wal = WalHandle::start(&cfg, 0xBEEC, 0).expect("start wal");
        let started = Instant::now();
        for i in 0..n_updates {
            wal.append(i as u64, synth_update(i), i as i64);
        }
        wal.barrier(n_updates as u64);
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(wal.stats().written_seq(), n_updates as u64);
        wal.seal().expect("seal wal");
    }
    RateResult {
        name: "live/layer_wal_append",
        ops: n_updates as u64,
        secs: best,
    }
}

/// Layer D2 — group commit: the append path with a real fsync cadence
/// (`group:<cadence_us>`), priced to the written watermark. The delta
/// against [`layer_wal_append`] is what periodic `fdatasync` costs the
/// stream; the cadence is the durability window bought with it.
///
/// # Panics
///
/// Panics if the WAL cannot be created in the temp directory.
#[must_use]
pub fn layer_group_commit(n_updates: usize, cadence_us: u64, reps: usize) -> RateResult {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let tmp = TempWal::new("group");
        let mut cfg = DurabilityConfig::new(&tmp.0);
        cfg.fsync = FsyncPolicy::Group(cadence_us.max(1));
        let mut wal = WalHandle::start(&cfg, 0xBEEC, 0).expect("start wal");
        let started = Instant::now();
        for i in 0..n_updates {
            wal.append(i as u64, synth_update(i), i as i64);
        }
        wal.barrier(n_updates as u64);
        best = best.min(started.elapsed().as_secs_f64());
        wal.seal().expect("seal wal");
    }
    RateResult {
        name: "live/layer_group_commit",
        ops: n_updates as u64,
        secs: best,
    }
}

/// Layer D3 — recovery replay: scan + decode + worthiness-checked install
/// of a `n_updates`-record segment into a fresh store, exactly the work
/// `stripd --recover` does before binding its listener. Prices the
/// restart-time cost of a WAL tail (records/sec of replay).
///
/// # Panics
///
/// Panics if the synthetic segment cannot be written or fails to replay
/// completely.
#[must_use]
pub fn layer_recovery_replay(n_updates: usize, reps: usize) -> RateResult {
    use strip_live::wal::{SegmentHeader, WalRecord, REC_LEN};

    let sim = SimConfig::builder()
        .n_low(256)
        .n_high(256)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(3_600.0)
        .warmup(0.0)
        .policy(Policy::UpdatesFirst)
        .build()
        .expect("valid replay config");
    let fingerprint = strip_core::config_fingerprint(&sim);
    let tmp = TempWal::new("replay");
    std::fs::create_dir_all(&tmp.0).expect("create wal dir");
    let mut segment = Vec::with_capacity(32 + n_updates * REC_LEN);
    segment.extend_from_slice(
        &SegmentHeader {
            fingerprint,
            base_seq: 0,
        }
        .encode(),
    );
    for i in 0..n_updates {
        segment.extend_from_slice(&WalRecord::update(i as u64, synth_update(i), i as i64).encode());
    }
    let mut cfg = LiveConfig::new(sim).expect("valid live config");
    cfg.durability = Some(DurabilityConfig::new(&tmp.0));

    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // Re-write the artefacts each rep: recover() re-bases the
        // snapshot, which would otherwise shrink later reps' replay.
        let _ = std::fs::remove_file(tmp.0.join("snapshot.bin"));
        std::fs::write(tmp.0.join(strip_live::wal::SEGMENT_FILE), &segment).expect("write segment");
        let started = Instant::now();
        let recovered = strip_live::recovery::recover(&cfg).expect("recover");
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(recovered.replayed, n_updates as u64);
        assert_eq!(recovered.discarded, 0);
        black_box(recovered.store);
    }
    RateResult {
        name: "live/layer_recovery_replay",
        ops: n_updates as u64,
        secs: best,
    }
}

/// [`live_ingest`] with a WAL attached (or `fsync: None` for the no-WAL
/// baseline), plus the freshness and durability accounting of the run.
#[derive(Debug, Clone)]
pub struct DurableIngest {
    /// End-to-end ingest rate under this fsync policy.
    pub rate: RateResult,
    /// Time-weighted stale fraction, low partition, from the final report.
    pub fold_low: f64,
    /// Time-weighted stale fraction, high partition.
    pub fold_high: f64,
    /// Deadline-miss probability from the final report.
    pub p_md: f64,
    /// WAL records appended (0 for the baseline).
    pub wal_appended: u64,
    /// fsync calls issued by the flusher.
    pub wal_fsyncs: u64,
    /// Largest records-per-fsync group observed.
    pub wal_group_max: u64,
}

fn fsync_name(fsync: Option<FsyncPolicy>) -> &'static str {
    match fsync {
        None => "live/ingest_nowal",
        Some(FsyncPolicy::Off) => "live/ingest_wal_off",
        Some(FsyncPolicy::Always) => "live/ingest_wal_always",
        Some(FsyncPolicy::Group(250)) => "live/ingest_wal_group250",
        Some(FsyncPolicy::Group(1_000)) => "live/ingest_wal_group1000",
        Some(FsyncPolicy::Group(_)) => "live/ingest_wal_group",
    }
}

fn fsync_name_batched(fsync: Option<FsyncPolicy>) -> &'static str {
    match fsync {
        None => "live/ingest_batched_nowal",
        Some(FsyncPolicy::Off) => "live/ingest_batched_wal_off",
        Some(FsyncPolicy::Always) => "live/ingest_batched_wal_always",
        Some(FsyncPolicy::Group(250)) => "live/ingest_batched_wal_group250",
        Some(FsyncPolicy::Group(1_000)) => "live/ingest_batched_wal_group1000",
        Some(FsyncPolicy::Group(_)) => "live/ingest_batched_wal_group",
    }
}

/// Updates/sec through the full live path — socket, decode, ring, policy
/// routing, install — with every accepted update also group-committed to
/// a WAL under `fsync` (`None` = durability off, the PR-6 baseline). The
/// `StatsRequest` barrier now additionally waits on the flusher's written
/// watermark, so the measured rate prices durable ingest, not just
/// accepted ingest.
///
/// # Panics
///
/// Panics on socket errors or when the server miscounts the stream.
#[must_use]
pub fn live_ingest_durable(
    n_updates: usize,
    fsync: Option<FsyncPolicy>,
    reps: usize,
) -> DurableIngest {
    let mut best = f64::INFINITY;
    let mut fold_low = 0.0;
    let mut fold_high = 0.0;
    let mut p_md = 0.0;
    let mut wal = (0, 0, 0);
    for _ in 0..reps.max(1) {
        let tmp = TempWal::new("ingest");
        let sim = SimConfig::builder()
            .n_low(256)
            .n_high(256)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(3_600.0)
            .warmup(0.0)
            .policy(Policy::UpdatesFirst)
            .costs(CostModel {
                ips: 50.0e9,
                ..CostModel::default()
            })
            .build()
            .expect("valid live-ingest config");
        let mut cfg = LiveConfig::new(sim).expect("valid live config");
        if let Some(policy) = fsync {
            let mut dur = DurabilityConfig::new(&tmp.0);
            dur.fsync = policy;
            // No periodic snapshots mid-measurement: the rate prices the
            // WAL, not the snapshot encoder.
            dur.snapshot_secs = f64::INFINITY;
            cfg.durability = Some(dur);
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let handle = serve(&cfg, listener).expect("serve");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));

        let started = Instant::now();
        for i in 0..n_updates {
            write_msg(&mut writer, &Msg::Update(synth_update(i))).expect("send update");
        }
        write_msg(&mut writer, &Msg::StatsRequest).expect("send barrier");
        writer.flush().expect("flush frames");
        let mut reader = stream;
        let stats = match read_msg(&mut reader).expect("barrier reply") {
            Some(Msg::StatsResponse(s)) => s,
            other => panic!("expected StatsResponse, got {other:?}"),
        };
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(stats.ingested, n_updates as u64);
        drop(reader);
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        if fsync.is_some() {
            assert_eq!(
                report.durability.wal_appended, n_updates as u64,
                "every accepted update must reach the WAL"
            );
        }
        fold_low = report.fold_low;
        fold_high = report.fold_high;
        p_md = report.txns.p_md();
        wal = (
            report.durability.wal_appended,
            report.durability.wal_fsyncs,
            report.durability.wal_group_max,
        );
    }
    DurableIngest {
        rate: RateResult {
            name: fsync_name(fsync),
            ops: n_updates as u64,
            secs: best,
        },
        fold_low,
        fold_high,
        p_md,
        wal_appended: wal.0,
        wal_fsyncs: wal.1,
        wal_group_max: wal.2,
    }
}

/// [`live_ingest_batched`] with a WAL attached (or `fsync: None` for the
/// no-WAL baseline) — the durable twin of PR 6's batched wire path, which
/// is what the `--fsync off` < 5% acceptance gate is measured against.
/// Same `UpdateBatch` frames under credit flow control, same scaled-down
/// cost model; the `StatsRequest` barrier additionally waits on the
/// flusher's written watermark when a WAL is attached.
///
/// # Panics
///
/// Panics on socket errors or when the server miscounts the stream.
#[must_use]
pub fn live_ingest_batched_durable(
    n_updates: usize,
    max_batch: usize,
    fsync: Option<FsyncPolicy>,
    reps: usize,
) -> DurableIngest {
    let max_batch = max_batch.clamp(1, strip_live::protocol::MAX_BATCH_UPDATES);
    let mut best = f64::INFINITY;
    let mut fold_low = 0.0;
    let mut fold_high = 0.0;
    let mut p_md = 0.0;
    let mut wal = (0, 0, 0);
    for _ in 0..reps.max(1) {
        let tmp = TempWal::new("ingest-batched");
        let sim = SimConfig::builder()
            .n_low(256)
            .n_high(256)
            .lambda_u(0.0)
            .lambda_t(0.0)
            .duration(3_600.0)
            .warmup(0.0)
            .policy(Policy::UpdatesFirst)
            .costs(CostModel {
                ips: 50.0e9,
                ..CostModel::default()
            })
            .build()
            .expect("valid live-ingest config");
        let mut cfg = LiveConfig::new(sim).expect("valid live config");
        if let Some(policy) = fsync {
            let mut dur = DurabilityConfig::new(&tmp.0);
            dur.fsync = policy;
            // No periodic snapshots mid-measurement: the rate prices the
            // WAL, not the snapshot encoder.
            dur.snapshot_secs = f64::INFINITY;
            cfg.durability = Some(dur);
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let handle = serve(&cfg, listener).expect("serve");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        let started = Instant::now();
        let stats = send_credited_stream(&mut stream, n_updates, max_batch);
        best = best.min(started.elapsed().as_secs_f64());
        assert_eq!(stats.ingested, n_updates as u64);
        drop(stream);
        let report = handle.shutdown().expect("clean shutdown");
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
        if fsync.is_some() {
            assert_eq!(
                report.durability.wal_appended, n_updates as u64,
                "every accepted update must reach the WAL"
            );
        }
        fold_low = report.fold_low;
        fold_high = report.fold_high;
        p_md = report.txns.p_md();
        wal = (
            report.durability.wal_appended,
            report.durability.wal_fsyncs,
            report.durability.wal_group_max,
        );
    }
    DurableIngest {
        rate: RateResult {
            name: fsync_name_batched(fsync),
            ops: n_updates as u64,
            secs: best,
        },
        fold_low,
        fold_high,
        p_md,
        wal_appended: wal.0,
        wal_fsyncs: wal.1,
        wal_group_max: wal.2,
    }
}

/// Decisions/sec through the clock-agnostic `strip_core::policy` hot path
/// — the exact functions both the simulator's dispatch loop and the live
/// executor call on every scheduling point.
#[must_use]
pub fn policy_decision(iters: usize, reps: usize) -> RateResult {
    let staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    let mut best = f64::INFINITY;
    let mut ops = 0u64;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        ops = 0;
        for i in 0..iters {
            let state = WorkState {
                os_empty: i % 3 == 0,
                uq_empty: i % 2 == 0,
                busy_update: (i % 7) as f64,
                busy_txn: (i % 11) as f64,
            };
            let class = if i % 2 == 0 {
                Importance::Low
            } else {
                Importance::High
            };
            for &p in &Policy::PAPER_SET {
                black_box(policy::updates_have_priority(p, &state));
                black_box(policy::preempts_on_arrival(p));
                black_box(policy::arrival_route(p, class));
                black_box(policy::read_check(p, staleness, i % 5 == 0));
                black_box(policy::od_refresh(
                    p,
                    (i % 4 != 0).then(|| SimTime::from_secs(i as f64)),
                    SimTime::from_secs((i / 2) as f64),
                ));
                black_box(policy::system_stale(staleness, i % 5 == 0, i % 4 != 0));
                ops += 6;
            }
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    RateResult {
        name: "live/policy_decision",
        ops,
        secs: best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_ingest_measures_a_real_stream() {
        let r = live_ingest(200, 1);
        assert_eq!(r.ops, 200);
        assert!(r.secs > 0.0 && r.ops_per_sec() > 0.0);
    }

    #[test]
    fn batched_ingest_measures_a_real_stream() {
        let r = live_ingest_batched(500, 64, 1);
        assert_eq!(r.ops, 500);
        assert!(r.secs > 0.0 && r.ops_per_sec() > 0.0);
    }

    #[test]
    fn layers_measure_and_count_exactly() {
        let s = layer_syscall(300, 64, 1);
        assert_eq!(s.ops, 320, "rounds up to whole frames");
        let d = layer_decode(300, 64, 1);
        assert_eq!(d.ops, 320);
        let e = layer_enqueue(300, 1);
        assert_eq!(e.ops, 300);
        let i = layer_install(300, 1);
        assert_eq!(i.ops, 300);
        for r in [s, d, e, i] {
            assert!(r.secs > 0.0 && r.ns_per_op() > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn durability_layers_measure_and_count_exactly() {
        let a = layer_wal_append(400, 1);
        assert_eq!(a.ops, 400);
        let g = layer_group_commit(400, 250, 1);
        assert_eq!(g.ops, 400);
        let r = layer_recovery_replay(400, 2);
        assert_eq!(r.ops, 400);
        for x in [a, g, r] {
            assert!(x.secs > 0.0 && x.ns_per_op() > 0.0, "{}", x.name);
        }
    }

    #[test]
    fn durable_ingest_measures_and_accounts_the_wal() {
        let base = live_ingest_durable(200, None, 1);
        assert_eq!(base.rate.name, "live/ingest_nowal");
        assert_eq!(base.wal_appended, 0);
        let walled = live_ingest_durable(200, Some(FsyncPolicy::Group(250)), 1);
        assert_eq!(walled.rate.name, "live/ingest_wal_group250");
        assert_eq!(walled.wal_appended, 200);
        assert!(walled.rate.secs > 0.0 && base.rate.secs > 0.0);
    }

    #[test]
    fn batched_durable_ingest_measures_and_accounts_the_wal() {
        let base = live_ingest_batched_durable(500, 64, None, 1);
        assert_eq!(base.rate.name, "live/ingest_batched_nowal");
        assert_eq!(base.wal_appended, 0);
        let walled = live_ingest_batched_durable(500, 64, Some(FsyncPolicy::Off), 1);
        assert_eq!(walled.rate.name, "live/ingest_batched_wal_off");
        assert_eq!(walled.wal_appended, 500);
        assert!(walled.rate.secs > 0.0 && base.rate.secs > 0.0);
    }

    #[test]
    fn policy_decision_counts_every_call() {
        let r = policy_decision(1_000, 1);
        assert_eq!(r.ops, 1_000 * 4 * 6);
        assert!(r.ns_per_op() > 0.0);
    }
}
