//! Perf measurements of the live runtime (`strip-live`) that the
//! `benchmark/` package has no workload for yet: the WAL layers plus
//! end-to-end ingest across fsync cadences (`durability_harness`,
//! `BENCH_7.json`). The ingest ladder itself
//! (syscall, decode, ring, install, policy decision, end-to-end rate) is
//! measured by `benchmark/` — see its README.
//!
//! These are single-sided rates — there is no seed implementation of the
//! live runtime to compare against.

use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use strip_core::config::{Policy, SimConfig};
use strip_db::cost::CostModel;
use strip_live::executor::LiveConfig;
use strip_live::protocol::{encode_batch_body, read_msg, write_msg, Msg, WireStats, WireUpdate};
use strip_live::server::serve;
use strip_live::wal::{DurabilityConfig, FsyncPolicy, WalHandle};

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

    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        // A wiped directory each rep: recover() re-bases onto a snapshot,
        // which would otherwise leave later reps nothing to replay.
        let tmp = TempWal::new("replay");
        std::fs::create_dir_all(&tmp.0).expect("create wal dir");
        cfg.durability = Some(DurabilityConfig::new(&tmp.0));
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

/// End-to-end ingest with a WAL attached (or `fsync: None` for the no-WAL
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
/// a WAL under `fsync` (`None` = durability off, the baseline the
/// `--fsync off` < 5% acceptance gate is measured against), sent as
/// `UpdateBatch` frames under credit flow control against a cost model
/// scaled down 1000x; the `StatsRequest` barrier additionally waits on
/// the flusher's written watermark when a WAL is attached.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn batched_durable_ingest_measures_and_accounts_the_wal() {
        let base = live_ingest_batched_durable(500, 64, None, 1);
        assert_eq!(base.rate.name, "live/ingest_batched_nowal");
        assert_eq!(base.wal_appended, 0);
        let walled = live_ingest_batched_durable(500, 64, Some(FsyncPolicy::Off), 1);
        assert_eq!(walled.rate.name, "live/ingest_batched_wal_off");
        assert_eq!(walled.wal_appended, 500);
        assert!(walled.rate.secs > 0.0 && base.rate.secs > 0.0);
    }
}
