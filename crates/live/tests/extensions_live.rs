//! Every `SimConfig` the core validates runs live.
//!
//! Admission control, value-density preemption, historical views, rules
//! and the disk model are state and decisions inside
//! `strip_core::scheduler::Scheduler`; the executor has no code for any of
//! them. Each gets an in-process executor run here that must end conserved
//! with the feature's own counter moved, and a history + rules config must
//! come back from a restart with every acked write and nothing else: the
//! history store and pending rule firings are volatile by contract.

use std::path::Path;
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use strip_core::config::{
    AdmissionControl, HistoryAccess, IoModel, Policy, SimConfig, SimConfigBuilder, TriggerConfig,
};
use strip_core::report::RunReport;
use strip_db::cost::CostModel;
use strip_db::object::{Importance, ViewObjectId};
use strip_live::clock::LiveClock;
use strip_live::executor::{Executor, Ingest, LiveConfig};
use strip_live::protocol::{WireTxn, WireUpdate};
use strip_live::recovery::{recover, Recovered};
use strip_live::wal::{DurabilityConfig, WalHandle};

const N_PER_CLASS: u32 = 16;

/// Updates first over a small store, installs time-compressed a hundredfold
/// (4.8 µs each) unless a test needs the CPU busy.
fn base() -> SimConfigBuilder {
    SimConfig::builder()
        .n_low(N_PER_CLASS)
        .n_high(N_PER_CLASS)
        .n_general(8)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(3_600.0)
        .warmup(0.0)
        .policy(Policy::UpdatesFirst)
        .os_max(10_000)
        .costs(CostModel {
            ips: 100.0 * CostModel::default().ips,
            ..CostModel::default()
        })
}

fn live(sim: SimConfigBuilder) -> LiveConfig {
    LiveConfig::new(sim.build().expect("valid config")).expect("every valid config runs live")
}

/// An executor on its own thread, as `serve()` starts one: with a WAL
/// when `cfg` is durable, over the recovered image when there is one.
fn start(
    cfg: &LiveConfig,
    recovered: Option<Recovered>,
) -> (Sender<Ingest>, JoinHandle<RunReport>) {
    let wal = cfg.durability.as_ref().map(|dur| {
        let base_seq = recovered.as_ref().map_or(0, |r| r.next_seq);
        WalHandle::start(dur, strip_core::config_fingerprint(&cfg.sim), base_seq).expect("wal")
    });
    let (tx, rx) = mpsc::channel();
    let exec = Executor::with_wal(cfg, rx, wal, recovered);
    (tx, std::thread::spawn(move || exec.run()))
}

/// Update `k` of a test's stream: classes alternate, generations rise (so
/// each is worth installing).
fn update(k: u32) -> WireUpdate {
    WireUpdate {
        class: (k % 2) as u8,
        index: (k / 2) % N_PER_CLASS,
        generation_micros: i64::from(k) + 1,
        payload: f64::from(k) + 0.25,
        attr_mask: u64::MAX,
    }
}

fn send_updates(tx: &Sender<Ingest>, range: std::ops::Range<u32>) {
    for k in range {
        tx.send(Ingest::Update(update(k))).expect("send update");
    }
}

fn report(tx: &Sender<Ingest>) -> RunReport {
    let (rtx, rrx) = mpsc::sync_channel(1);
    tx.send(Ingest::Snapshot { reply: rtx })
        .expect("send stats");
    rrx.recv().expect("stats reply")
}

/// Polls interim reports (bounded) until `done` holds.
fn wait_until(tx: &Sender<Ingest>, what: &str, done: impl Fn(&RunReport) -> bool) -> RunReport {
    for _ in 0..5_000 {
        let r = report(tx);
        if done(&r) {
            return r;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

fn assert_conserved(r: &RunReport, updates: u64, txns: u64) {
    assert_eq!(r.updates.arrived, updates);
    assert_eq!(r.updates.terminal_total(), r.updates.arrived);
    assert_eq!(r.txns.arrived, txns);
    assert_eq!(r.txns.finished() + r.txns.in_flight_at_end, r.txns.arrived);
}

fn shutdown(tx: &Sender<Ingest>, exec: JoinHandle<RunReport>) -> RunReport {
    tx.send(Ingest::Shutdown).expect("send shutdown");
    exec.join().expect("executor thread")
}

fn txn(id: u64, class: u8, value: f64, compute_micros: u64) -> WireTxn {
    WireTxn {
        id,
        class,
        value,
        slack_micros: 5_000_000,
        compute_micros,
        reads: vec![(class, 1), (class, 2)],
    }
}

#[test]
fn every_extension_runs_live() {
    // history: every install appends a version.
    let cfg = live(base().history(Some(HistoryAccess::default())));
    let (tx, exec) = start(&cfg, None);
    send_updates(&tx, 0..64);
    tx.send(Ingest::Txn(txn(1, 0, 1.0, 1_000))).expect("txn");
    wait_until(&tx, "history appends", |r| r.history.appends == 64);
    let r = shutdown(&tx, exec);
    assert_conserved(&r, 64, 1);
    assert_eq!(r.history.entries_at_end + r.history.pruned, 64);

    // triggers: installs fire rules, which run once the burst has drained.
    let rules = TriggerConfig {
        n_rules: 8,
        sources_per_rule: 4,
        ..TriggerConfig::default()
    };
    let cfg = live(base().triggers(Some(rules)));
    let (tx, exec) = start(&cfg, None);
    send_updates(&tx, 0..64);
    wait_until(&tx, "rule executions", |r| {
        r.triggers.executed > 0 && r.triggers.pending_at_end == 0
    });
    let r = shutdown(&tx, exec);
    assert_conserved(&r, 64, 0);
    let t = &r.triggers;
    assert_eq!(t.fired, t.executed + t.coalesced + t.dropped);

    // io: half of all lookups miss the buffer pool and stall.
    let disk = IoModel {
        hit_ratio: 0.5,
        ..IoModel::default()
    };
    let cfg = live(base().io(Some(disk)));
    let (tx, exec) = start(&cfg, None);
    send_updates(&tx, 0..64);
    tx.send(Ingest::Txn(txn(1, 0, 1.0, 1_000))).expect("txn");
    wait_until(&tx, "installs and the commit", |r| {
        r.updates.installed_total() == 64 && r.txns.committed == 1
    });
    let r = shutdown(&tx, exec);
    assert_conserved(&r, 64, 1);
    assert!(r.cpu.io_misses_installs > 0, "no install missed");

    // admission: Table 3 installs (480 µs) keep the CPU saturated, so
    // low-importance arrivals that find it so are shed at the door.
    let cfg = live(
        base()
            .costs(CostModel::default())
            .admission(Some(AdmissionControl {
                util_threshold: 0.05,
            })),
    );
    let (tx, exec) = start(&cfg, None);
    send_updates(&tx, 0..200);
    wait_until(&tx, "a busy CPU", |r| r.updates.installed_total() >= 20);
    send_updates(&tx, 200..300);
    let r = report(&tx);
    assert!(r.updates.admission_shed > 0, "overload shed nothing");
    assert!(
        r.updates.admission_shed <= 50,
        "only low importance is shed"
    );
    assert_conserved(&r, 300, 0);
    assert_conserved(&shutdown(&tx, exec), 300, 0);
}

#[test]
fn a_denser_late_arrival_commits_ahead_of_the_transaction_it_outbids() {
    let cfg = live(
        base()
            .policy(Policy::TransactionsFirst)
            .txn_preemption(true),
    );
    let (tx, exec) = start(&cfg, None);
    // 300 ms of low-class work at value density ≈ 3/s …
    tx.send(Ingest::Txn(txn(1, 0, 1.0, 300_000))).expect("long");
    wait_until(&tx, "its first segment", |r| r.cpu.busy_txn > 0.0);
    // … is out-bid mid-slice by 5 ms of high-class work at ≈ 2000/s.
    tx.send(Ingest::Txn(txn(2, 1, 10.0, 5_000))).expect("dense");
    let first = wait_until(&tx, "the first commit", |r| r.txns.committed > 0);
    let [low, high] = &first.txns.by_class;
    assert_eq!(
        (low.committed, high.committed),
        (0, 1),
        "the dense transaction must not wait out the long one"
    );
    assert_conserved(&first, 0, 2);
    wait_until(&tx, "the long transaction's commit", |r| {
        r.txns.committed == 2
    });
    assert_conserved(&shutdown(&tx, exec), 0, 2);
}

#[test]
fn history_and_rules_are_volatile_across_a_restart_and_acked_writes_are_not() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("extensions-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = live(
        base()
            .history(Some(HistoryAccess::default()))
            .triggers(Some(TriggerConfig::default())),
    )
    .with_durability(DurabilityConfig::new(&dir));

    // First life: 64 acked updates, history and rule firings building up.
    let (tx, exec) = start(&cfg, None);
    send_updates(&tx, 0..64);
    assert_eq!(report(&tx).updates.arrived, 64);
    wait_until(&tx, "the installs", |r| r.history.appends == 64);
    let before = shutdown(&tx, exec);
    assert!(before.triggers.fired > 0, "no rule fired");

    // Restart: acked ⇒ present …
    let rec = recover(&cfg).expect("recover");
    assert_eq!(rec.next_seq, 64, "recovery must cover every acked update");
    for k in 32..64 {
        // The last write to each of the 32 objects.
        let w = update(k);
        let class = Importance::from_index(w.class as usize).expect("two classes");
        let v = rec.store.view(ViewObjectId::new(class, w.index));
        assert_eq!(v.payload.to_bits(), w.payload.to_bits());
        assert_eq!(
            LiveClock::sim_to_micros(v.generation_ts),
            w.generation_micros
        );
    }
    // … while the second life starts with no history and nothing pending.
    let (tx, exec) = start(&cfg, Some(rec));
    let after = shutdown(&tx, exec);
    assert_eq!(after.history.appends + after.history.entries_at_end, 0);
    assert_eq!(after.triggers.fired + after.triggers.pending_at_end, 0);
    assert_conserved(&after, 0, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
