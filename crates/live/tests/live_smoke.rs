//! End-to-end smoke test over a real TCP socket: frames in, stats and
//! metrics out, conservation on shutdown. This is the in-repo twin of
//! the CI `live-smoke` job.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};

use strip_core::config::{Policy, SimConfig};
use strip_live::executor::LiveConfig;
use strip_live::protocol::{read_msg, write_msg, Msg, WireQuery, WireTxn, WireUpdate};
use strip_live::server::{serve, RING_CAPACITY};

fn live_cfg(policy: Policy) -> LiveConfig {
    let sim = SimConfig::builder()
        .n_low(16)
        .n_high(16)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(1.0)
        .warmup(0.0)
        .policy(policy)
        .build()
        .expect("valid config");
    LiveConfig::new(sim).expect("valid live config")
}

fn connect(handle_addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(handle_addr).expect("connect to stripd");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Asks for update credit and returns the initial grant: a session may
/// send only the updates it was granted.
fn request_credit(stream: &mut TcpStream) -> u64 {
    write_msg(stream, &Msg::CreditRequest).expect("credit request");
    match read_msg(stream).expect("credit reply") {
        Some(Msg::Credit(g)) => g,
        other => panic!("expected Credit, got {other:?}"),
    }
}

#[test]
fn tcp_updates_are_conserved_and_queries_answered() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = serve(&live_cfg(Policy::TransactionsFirst), listener).expect("serve");
    let mut stream = connect(handle.addr());

    // A burst of updates, one per batch frame inside the grant: two per
    // object so the later generation wins.
    let n_updates = 24u32;
    assert!(request_credit(&mut stream) >= u64::from(n_updates));
    for i in 0..n_updates {
        let msg = Msg::UpdateBatch(vec![WireUpdate {
            class: (i % 2) as u8,
            index: i % 4,
            generation_micros: 1_000 * i64::from(i + 1),
            payload: f64::from(i),
            attr_mask: u64::MAX,
        }]);
        write_msg(&mut stream, &msg).expect("send update");
    }
    // One transaction reading a known object.
    let txn = Msg::Txn(WireTxn {
        id: 7,
        class: 0,
        value: 5.0,
        slack_micros: 500_000,
        compute_micros: 100,
        reads: vec![(0, 1)],
    });
    write_msg(&mut stream, &txn).expect("send txn");

    // Poll stats until everything sent has been ingested and the
    // backlog has drained — under TF the installs happen in the
    // background once the transaction is out of the way.
    let stats = loop {
        write_msg(&mut stream, &Msg::StatsRequest).expect("stats request");
        let s = match read_msg(&mut stream).expect("stats reply") {
            Some(Msg::StatsResponse(s)) => s,
            other => panic!("expected StatsResponse, got {other:?}"),
        };
        if s.ingested == u64::from(n_updates) && s.txns_arrived == 1 && s.queued == 0 {
            break s;
        }
        std::thread::yield_now();
    };
    assert_eq!(
        stats.ingested,
        stats.applied + stats.superseded + stats.shed + stats.queued,
        "conservation must hold at every snapshot: {stats:?}"
    );

    // Query an object the burst wrote (even i => class 0, index in {0, 2}).
    write_msg(&mut stream, &Msg::Query(WireQuery { class: 0, index: 2 })).expect("send query");
    match read_msg(&mut stream).expect("query reply") {
        Some(Msg::QueryResponse(r)) => {
            assert!(r.generation_micros > 0, "object should have been updated");
            assert!(r.payload.is_finite());
        }
        other => panic!("expected QueryResponse, got {other:?}"),
    }

    // Ask for the full report over the wire.
    write_msg(&mut stream, &Msg::ReportRequest).expect("report request");
    match read_msg(&mut stream).expect("report reply") {
        Some(Msg::ReportJson(json)) => {
            assert!(
                json.contains("\"updates\""),
                "report JSON looks wrong: {json}"
            );
        }
        other => panic!("expected ReportJson, got {other:?}"),
    }

    // Shut down via the wire and check final conservation.
    write_msg(&mut stream, &Msg::Shutdown).expect("send shutdown");
    drop(stream);
    let report = handle.wait().expect("clean shutdown");
    assert_eq!(report.updates.arrived, u64::from(n_updates));
    assert_eq!(
        report.updates.terminal_total(),
        report.updates.arrived,
        "ingested == applied + shed + discarded + queued must hold at exit"
    );
}

/// The batched twin of the conservation test: updates travel in
/// `UpdateBatch` frames under credit flow control, a shutdown arrives
/// right behind the last batch, and the final report must still account
/// for every update (the executor drains the ingest ring before
/// finalising).
#[test]
fn batched_updates_are_conserved_through_shutdown() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = serve(&live_cfg(Policy::UpdatesFirst), listener).expect("serve");
    let mut stream = connect(handle.addr());

    // The initial grant is one full ring.
    let mut credit = request_credit(&mut stream);
    assert_eq!(credit as usize, RING_CAPACITY, "initial window is one ring");

    // Several batches, including an empty one (legal, a no-op).
    let batches: [u32; 4] = [5, 0, 17, 3];
    let mut sent = 0u64;
    for (b, n) in batches.iter().enumerate() {
        let updates: Vec<WireUpdate> = (0..*n)
            .map(|i| WireUpdate {
                class: (i % 2) as u8,
                index: i % 8,
                generation_micros: 1_000 * (i64::from(i) + 100 * b as i64 + 1),
                payload: f64::from(i),
                attr_mask: u64::MAX,
            })
            .collect();
        sent += u64::from(*n);
        credit = credit.checked_sub(u64::from(*n)).expect("within window");
        write_msg(&mut stream, &Msg::UpdateBatch(updates)).expect("send batch");
    }
    assert!(credit > 0);

    // The stats barrier must observe every batched update: the server
    // flushes the ring before forwarding the snapshot request.
    write_msg(&mut stream, &Msg::StatsRequest).expect("stats request");
    let stats = loop {
        match read_msg(&mut stream).expect("stats reply") {
            Some(Msg::Credit(_)) => continue, // absorb any top-up
            Some(Msg::StatsResponse(s)) => break s,
            other => panic!("expected StatsResponse, got {other:?}"),
        }
    };
    assert_eq!(stats.ingested, sent, "barrier saw a partial stream");
    assert_eq!(
        stats.ingested,
        stats.applied + stats.superseded + stats.shed + stats.queued,
        "conservation must hold at the batched snapshot: {stats:?}"
    );

    // One more batch immediately followed by a shutdown frame: the ring
    // still holds these when the stop lands, and they must be drained
    // into the final accounting.
    let tail: Vec<WireUpdate> = (0..9u32)
        .map(|i| WireUpdate {
            class: 1,
            index: i % 8,
            generation_micros: 900_000 + i64::from(i),
            payload: -f64::from(i),
            attr_mask: u64::MAX,
        })
        .collect();
    sent += tail.len() as u64;
    write_msg(&mut stream, &Msg::UpdateBatch(tail)).expect("send tail batch");
    write_msg(&mut stream, &Msg::Shutdown).expect("send shutdown");
    drop(stream);
    let report = handle.wait().expect("clean shutdown");
    assert_eq!(report.updates.arrived, sent);
    assert_eq!(
        report.updates.terminal_total(),
        report.updates.arrived,
        "batched-path conservation must hold at exit"
    );
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = serve(&live_cfg(Policy::UpdatesFirst), listener).expect("serve");

    // Feed one update through a binary connection first.
    let mut stream = connect(handle.addr());
    assert!(request_credit(&mut stream) >= 1);
    write_msg(
        &mut stream,
        &Msg::UpdateBatch(vec![WireUpdate {
            class: 0,
            index: 0,
            generation_micros: 1_000,
            payload: 1.0,
            attr_mask: u64::MAX,
        }]),
    )
    .expect("send update");
    // StatsRequest acts as a barrier: the reply is only sent once the
    // executor has drained everything queued before it.
    write_msg(&mut stream, &Msg::StatsRequest).expect("stats request");
    let _ = read_msg(&mut stream).expect("stats reply");

    // Scrape /metrics over a plain-HTTP connection to the same port.
    let mut http = connect(handle.addr());
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: stripd\r\n\r\n")
        .expect("send scrape");
    let mut page = String::new();
    http.read_to_string(&mut page).expect("read scrape");
    assert!(page.starts_with("HTTP/1.1 200 OK"), "bad status: {page}");
    assert!(
        page.contains("strip_live_updates_ingested_total 1"),
        "{page}"
    );
    assert!(page.contains("strip_live_fold{class=\"low\"}"), "{page}");

    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.updates.arrived, 1);
}

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "times real scrapes against a wall-clock bound"
)]
fn accept_does_not_wait_out_a_poll_interval() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let handle = serve(&live_cfg(Policy::UpdatesFirst), listener).expect("serve");
    // Back-to-back scrapes, each on a fresh connection: with the accept
    // loop blocked in `accept()` one costs a few hundred microseconds; a
    // loop that sleeps between polls made every one wait out its 50 ms.
    let started = std::time::Instant::now();
    for _ in 0..10 {
        let mut http = connect(handle.addr());
        http.write_all(b"GET /metrics HTTP/1.1\r\nHost: stripd\r\n\r\n")
            .expect("send scrape");
        let mut page = String::new();
        http.read_to_string(&mut page).expect("read scrape");
        assert!(page.starts_with("HTTP/1.1 200 OK"), "bad status: {page}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(250),
        "10 scrapes took {elapsed:?}"
    );
    // The blocked accept loop must still be woken by shutdown.
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.updates.arrived, 0);
}
