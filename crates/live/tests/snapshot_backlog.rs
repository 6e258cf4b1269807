//! Regression: a periodic snapshot falling due under backlog.
//!
//! A snapshot is stamped with the number of updates *accepted* and the
//! flusher cuts the log below that stamp, but the image holds only what is
//! *installed*. Taken while accepted updates still sit in the OS queue, it
//! therefore drops their records, and a crash loses acknowledged writes.
//! The executor now defers a due snapshot until nothing accepted is queued
//! or in flight; these tests pin both halves — no loss under backlog, and
//! the deferred snapshot still happens once the backlog is gone.

#![allow(
    clippy::disallowed_types,
    reason = "the expected store is looked up by key, never iterated"
)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use strip_core::config::{Policy, SimConfig};
use strip_core::report::RunReport;
use strip_db::cost::CostModel;
use strip_db::object::{Importance, ViewObjectId};
use strip_live::clock::LiveClock;
use strip_live::executor::{Executor, Ingest, LiveConfig};
use strip_live::protocol::WireUpdate;
use strip_live::recovery::recover;
use strip_live::wal::{DurabilityConfig, WalHandle};

const N_PER_CLASS: u32 = 16;
const SNAPSHOT_SECS: f64 = 0.01;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("snapshot-backlog-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn live_cfg(dir: &Path, ips: f64, os_max: usize) -> LiveConfig {
    let sim = SimConfig::builder()
        .n_low(N_PER_CLASS)
        .n_high(N_PER_CLASS)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(3_600.0)
        .warmup(0.0)
        .policy(Policy::UpdatesFirst)
        .os_max(os_max)
        .costs(CostModel {
            ips,
            ..CostModel::default()
        })
        .build()
        .expect("valid config");
    let mut dur = DurabilityConfig::new(dir);
    dur.snapshot_secs = SNAPSHOT_SECS;
    LiveConfig::new(sim)
        .expect("valid live config")
        .with_durability(dur)
}

/// An executor with a WAL on its own thread, as `serve()` starts one,
/// fed by `rx`.
fn start(cfg: &LiveConfig, rx: Receiver<Ingest>) -> JoinHandle<RunReport> {
    let dur = cfg.durability.as_ref().expect("durability configured");
    let wal = WalHandle::start(dur, strip_core::config_fingerprint(&cfg.sim), 0).expect("wal");
    let exec = Executor::with_wal(cfg, rx, Some(wal), None);
    std::thread::spawn(move || exec.run())
}

/// Sends updates `from..to` (rising generations, so each is worth
/// installing) and records the last write per object.
fn send(tx: &Sender<Ingest>, from: u32, to: u32, last: &mut HashMap<(u8, u32), (f64, i64)>) {
    for k in from..to {
        let w = WireUpdate {
            class: (k % 2) as u8,
            index: (k / 2) % N_PER_CLASS,
            generation_micros: i64::from(k) + 1,
            payload: f64::from(k) + 0.25,
            attr_mask: u64::MAX,
        };
        last.insert((w.class, w.index), (w.payload, w.generation_micros));
        tx.send(Ingest::Update(w)).expect("send update");
    }
}

/// The ack barrier: the reply leaves only once every update accepted
/// before it has been written to the log.
fn acked_report(tx: &Sender<Ingest>) -> RunReport {
    let (rtx, rrx) = mpsc::sync_channel(1);
    tx.send(Ingest::Snapshot { reply: rtx })
        .expect("send stats");
    rrx.recv().expect("stats reply")
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create crash dir");
    for entry in std::fs::read_dir(from).expect("read wal dir") {
        let name = entry.expect("dir entry").file_name();
        std::fs::copy(from.join(&name), to.join(&name)).expect("copy wal file");
    }
}

/// Recovers from `dir` and checks that every acked write came back.
/// Returns whether recovery started from a snapshot.
fn assert_recovers(
    cfg: &LiveConfig,
    dir: &Path,
    acked: u64,
    last: &HashMap<(u8, u32), (f64, i64)>,
) -> bool {
    let mut cfg = cfg.clone();
    cfg.durability.as_mut().expect("durability").dir = dir.to_path_buf();
    let rec = recover(&cfg).expect("recover");
    assert_eq!(
        rec.next_seq, acked,
        "recovery must cover every acked update"
    );
    assert_eq!(rec.discarded, 0);
    let mut stale = 0;
    for (&(class, index), &(payload, generation)) in last {
        let class = Importance::from_index(class as usize).expect("two classes");
        let v = rec.store.view(ViewObjectId::new(class, index));
        if v.payload.to_bits() != payload.to_bits()
            || LiveClock::sim_to_micros(v.generation_ts) != generation
        {
            stale += 1;
        }
    }
    assert_eq!(
        stale,
        0,
        "{stale} of {} objects lost acked writes",
        last.len()
    );
    rec.snapshot_loaded
}

#[test]
fn snapshot_due_under_backlog_loses_no_acked_update() {
    // Table 3 installs (480 µs each): the burst is two seconds of backlog,
    // two hundred snapshot periods.
    const BURST: u32 = 4_000;
    let wal_dir = scratch("wal");
    let crash_dir = scratch("crash");
    let cfg = live_cfg(&wal_dir, CostModel::default().ips, BURST as usize + 1);
    // The burst is queued before the executor starts: a snapshot that fell
    // due before its first update arrived would be an image of the empty
    // store, stamped 0, which is right but is not the case under test.
    let (tx, rx) = mpsc::channel();
    let mut last = HashMap::new();
    send(&tx, 0, BURST, &mut last);
    let exec = start(&cfg, rx);
    assert_eq!(acked_report(&tx).updates.arrived, u64::from(BURST));

    // Ten snapshot periods later most of the burst is still queued; what
    // a `kill -9` would leave behind now must hold every acked write.
    std::thread::sleep(Duration::from_secs_f64(10.0 * SNAPSHOT_SECS));
    let queued = acked_report(&tx).updates;
    assert!(
        queued.installed_total() < u64::from(BURST),
        "the burst drained before the crash image was taken"
    );
    copy_dir(&wal_dir, &crash_dir);
    let from_snapshot = assert_recovers(&cfg, &crash_dir, u64::from(BURST), &last);
    assert!(!from_snapshot, "a snapshot was taken under backlog");

    tx.send(Ingest::Shutdown).expect("send shutdown");
    let report = exec.join().expect("executor thread");
    assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn deferred_snapshot_is_taken_once_the_backlog_is_gone() {
    const HALF: u32 = 64;
    let wal_dir = scratch("deferred");
    let cfg = live_cfg(&wal_dir, 50.0e9, 4 * HALF as usize);
    let (tx, rx) = mpsc::channel();
    let exec = start(&cfg, rx);
    let mut last = HashMap::new();
    send(&tx, 0, HALF, &mut last);
    // Installs take well under a microsecond here: wait (bounded) for the
    // first snapshot after the queue has emptied.
    let mut tries = 0;
    while acked_report(&tx).durability.snapshots_written == 0 {
        tries += 1;
        assert!(tries < 2_000, "no snapshot within 2 s of an empty queue");
        std::thread::sleep(Duration::from_millis(1));
    }
    send(&tx, HALF, 2 * HALF, &mut last);
    assert_eq!(acked_report(&tx).updates.arrived, u64::from(2 * HALF));
    tx.send(Ingest::Shutdown).expect("send shutdown");
    let report = exec.join().expect("executor thread");
    assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    let from_snapshot = assert_recovers(&cfg, &wal_dir, u64::from(2 * HALF), &last);
    assert!(from_snapshot, "the deferred snapshot must be the base");
    let _ = std::fs::remove_dir_all(&wal_dir);
}
