//! Cross-validation soak: the live runtime must reproduce the
//! simulator's *qualitative* findings, not just stay up.
//!
//! Ignored by default (each test burns seconds of real CPU); the CI
//! `live-smoke` job runs them with `--ignored`.

use std::net::TcpListener;
use std::sync::mpsc;
use std::thread::sleep;
use std::time::Duration;

use strip_core::config::{Policy, SimConfig};
use strip_core::report::RunReport;
use strip_db::staleness::StalenessSpec;
use strip_live::executor::{Ingest, LiveConfig};
use strip_live::loadgen::replay;
use strip_live::protocol::{WireQuery, WireTxn, WireUpdate};
use strip_live::server::serve;

/// Runs one live server under `policy` with UU staleness and replays the
/// same seeded workload against it; returns the server's final report.
fn soak(policy: Policy) -> RunReport {
    let sim = SimConfig::builder()
        .n_low(32)
        .n_high(32)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(60.0)
        .warmup(0.0)
        .staleness(StalenessSpec::UnappliedUpdate)
        .policy(policy)
        .build()
        .expect("valid server config");
    let cfg = LiveConfig::new(sim).expect("valid live config");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = serve(&cfg, listener).expect("serve");

    let load = SimConfig::builder()
        .n_low(32)
        .n_high(32)
        .lambda_u(600.0)
        .lambda_t(20.0)
        .duration(2.0)
        .warmup(0.0)
        .compute_mean(0.02)
        .mean_update_age(0.5)
        .seed(0x5712_1995)
        .build()
        .expect("valid load config");
    let summary = replay(&handle.addr().to_string(), &load).expect("replay");
    assert_eq!(
        summary.stats.ingested,
        summary.stats.applied
            + summary.stats.superseded
            + summary.stats.shed
            + summary.stats.queued,
        "conservation must hold mid-run under {policy:?}: {:?}",
        summary.stats
    );
    handle.shutdown().expect("clean shutdown")
}

/// Fig. 6's qualitative ordering, live: refreshing on demand keeps
/// transaction reads fresher than deferring updates behind transactions.
#[test]
#[ignore = "multi-second wall-clock soak; run via live-smoke CI or --ignored"]
fn live_tf_vs_od_reproduces_simulator_staleness_ordering() {
    let tf = soak(Policy::TransactionsFirst);
    let od = soak(Policy::OnDemand);
    let tf_frac = tf.txns.stale_read_fraction();
    let od_frac = od.txns.stale_read_fraction();
    // The load is heavy enough that TF must see real UU staleness;
    // otherwise the ordering below would be vacuous.
    assert!(
        tf_frac > 0.02,
        "soak load produced no TF staleness pressure (stale fraction {tf_frac})"
    );
    assert!(
        od_frac <= tf_frac + 0.01,
        "OD must not read staler than TF: od={od_frac} tf={tf_frac}"
    );
    for (label, r) in [("TF", &tf), ("OD", &od)] {
        assert_eq!(
            r.updates.terminal_total(),
            r.updates.arrived,
            "{label}: ingested == applied + shed + discarded must hold at exit"
        );
    }
}

/// Query metadata against a known schedule: an update received while a
/// long transaction holds the CPU is visible as UU staleness, then as a
/// fresh installed generation once the transaction completes, with a
/// monotonically growing age.
#[test]
#[ignore = "multi-second wall-clock soak; run via live-smoke CI or --ignored"]
fn query_metadata_tracks_a_known_update_schedule() {
    let sim = SimConfig::builder()
        .n_low(4)
        .n_high(4)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(60.0)
        .warmup(0.0)
        .staleness(StalenessSpec::UnappliedUpdate)
        .policy(Policy::TransactionsFirst)
        .build()
        .expect("valid config");
    let cfg = LiveConfig::new(sim).expect("valid live config");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = serve(&cfg, listener).expect("serve");
    let tx = handle.ingest();

    let query = |tx: &mpsc::Sender<Ingest>| {
        let (qtx, qrx) = mpsc::sync_channel(1);
        tx.send(Ingest::Query {
            q: WireQuery { class: 0, index: 1 },
            reply: qtx,
        })
        .expect("send query");
        qrx.recv().expect("query answered")
    };

    // A long transaction pins the CPU, then the update arrives: under TF
    // it must wait, leaving object (low, 1) unapplied-update stale.
    tx.send(Ingest::Txn(WireTxn {
        id: 1,
        class: 1,
        value: 1.0,
        slack_micros: 5_000_000,
        compute_micros: 400_000,
        reads: vec![(1, 0)],
    }))
    .expect("send txn");
    tx.send(Ingest::Update(WireUpdate {
        class: 0,
        index: 1,
        generation_micros: 10_000,
        payload: 9.75,
        attr_mask: u64::MAX,
    }))
    .expect("send update");

    // Phase 1: while the transaction burns, the object must read as
    // UU-stale with its pre-update generation.
    let mut saw_stale = false;
    let mut tries = 0;
    loop {
        let r = query(&tx);
        if r.uu_stale == 1 && r.generation_micros < 10_000 {
            saw_stale = true;
            break;
        }
        if r.generation_micros == 10_000 || tries > 2_000 {
            break;
        }
        tries += 1;
        sleep(Duration::from_micros(200));
    }
    assert!(
        saw_stale,
        "never observed the UU-stale window while the transaction held the CPU"
    );

    // Phase 2: once the transaction finishes, the background install
    // lands and the query shows the new generation, fresh.
    let mut tries = 0;
    let fresh = loop {
        let r = query(&tx);
        if r.generation_micros == 10_000 && r.uu_stale == 0 {
            break r;
        }
        tries += 1;
        assert!(tries <= 5_000, "update never installed: last {r:?}");
        sleep(Duration::from_millis(1));
    };
    assert!((fresh.payload - 9.75).abs() < 1e-12);
    assert!(fresh.age_micros >= 0, "age {} negative", fresh.age_micros);

    // Phase 3: with no further updates the same generation only ages.
    sleep(Duration::from_millis(20));
    let later = query(&tx);
    assert_eq!(later.generation_micros, 10_000);
    assert!(
        later.age_micros > fresh.age_micros,
        "age must grow with wall time: {} !> {}",
        later.age_micros,
        fresh.age_micros
    );

    tx.send(Ingest::Shutdown).expect("send shutdown");
    let report = handle.wait().expect("clean shutdown");
    assert_eq!(report.updates.arrived, 1);
    assert_eq!(report.updates.terminal_total(), report.updates.arrived);
}
