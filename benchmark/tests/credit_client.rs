//! The credit-correct client must never wedge, and the rule it replaces
//! must be shown to.
//!
//! The legacy harness (`crates/bench/src/live_perf.rs`) waits until it holds
//! a *full* batch of credit. The server tops a window up only after it has
//! processed a frame, and only by half a ring at a time unless the client is
//! at zero — so a client sitting on `0 < credit < batch` waits for a grant
//! the server will never send, while the server waits for a frame the client
//! will never send. A batch size that does not divide the 65 536-slot ring
//! reaches that state on the first window, deterministically.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use strip_benchmark::client::{conserved, CreditClient};
use strip_benchmark::live_burst::{burst_config, generate_burst};
use strip_benchmark::trace::Trace;
use strip_live::executor::LiveConfig;
use strip_live::protocol::{encode_batch_body, read_msg, write_msg, Msg};
use strip_live::server::{serve, ServerHandle};

/// Does not divide the ring: 131 frames leave 36 units of credit.
const ODD_BATCH: usize = 500;
const UPDATES: usize = 2_000_000;
const ROUNDS: usize = 20;
const WATCHDOG: Duration = Duration::from_secs(30);

fn start(updates: usize, ips: f64) -> ServerHandle {
    let mut sim = burst_config(7, updates);
    sim.costs.ips = ips;
    let cfg = LiveConfig::new(sim).expect("burst config runs live");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    serve(&cfg, listener).expect("serve")
}

#[test]
fn credit_correct_client_drains_twenty_bursts_under_a_watchdog() {
    let burst = generate_burst(7, UPDATES);
    for round in 0..ROUNDS {
        let (done_tx, done_rx) = mpsc::channel();
        let updates = burst.updates.clone();
        // The drive runs on its own thread so a wedge fails the test
        // instead of hanging it.
        let driver = std::thread::spawn(move || {
            let handle = start(updates.len(), 500.0e9);
            let mut client =
                CreditClient::connect(handle.addr(), Trace::detached()).expect("connect");
            let t0 = std::time::Instant::now();
            client.send(&updates, ODD_BATCH).expect("send burst");
            let stats = client.wait_drained(t0).expect("drain");
            drop(client);
            let report = handle.shutdown().expect("shutdown");
            let _ = done_tx.send((stats, report));
        });
        let (stats, report) = done_rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("round {round}: no drain within {WATCHDOG:?} — wedged"));
        driver.join().expect("driver thread");
        assert!(conserved(&stats), "round {round}: conservation");
        assert_eq!(stats.ingested, UPDATES as u64, "round {round}: ingested");
        assert_eq!(
            stats.shed + stats.queued,
            0,
            "round {round}: shed or left queued"
        );
        assert_eq!(report.updates.terminal_total(), report.updates.arrived);
    }
}

/// The legacy rule, verbatim: block until a full batch of credit is held.
#[test]
fn waiting_for_a_full_batch_of_credit_deadlocks() {
    let burst = generate_burst(7, 200_000);
    // The paper's own processor speed: an install takes 480 µs, so the ring
    // cannot drain by half a window inside the read timeout and the outcome
    // does not depend on how fast this thread happens to run.
    let handle = start(burst.updates.len(), 50.0e6);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // A wedge shows as a read that times out; without this the test would
    // hang exactly like the harness did.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    write_msg(&mut stream, &Msg::CreditRequest).expect("credit request");
    let mut credit = match read_msg(&mut stream).expect("initial grant") {
        Some(Msg::Credit(g)) => g,
        other => panic!("expected Credit, got {other:?}"),
    };
    let mut body = Vec::new();
    let mut sent = 0usize;
    let mut wedged_at = None;
    'send: while sent < burst.updates.len() {
        let k = ODD_BATCH.min(burst.updates.len() - sent);
        while (credit as usize) < k {
            match read_msg(&mut stream) {
                Ok(Some(Msg::Credit(g))) => credit += g,
                Ok(other) => panic!("expected Credit, got {other:?}"),
                Err(_) => {
                    wedged_at = Some((sent, credit));
                    break 'send;
                }
            }
        }
        encode_batch_body(&mut body, &burst.updates[sent..sent + k]).expect("encode");
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        stream.write_all(&frame).expect("send frame");
        credit -= k as u64;
        sent += k;
    }
    let (sent, credit) = wedged_at.expect("the full-batch rule was expected to wedge");
    assert!(
        credit > 0 && (credit as usize) < ODD_BATCH,
        "wedged holding {credit}"
    );
    assert!(sent < burst.updates.len());
    drop(stream);
    handle.shutdown().expect("shutdown");
}
