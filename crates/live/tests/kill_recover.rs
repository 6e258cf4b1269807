//! Crash harness: run the real `stripd` binary with a WAL, ack a seeded
//! burst through the stats barrier, `kill -9` the process mid-stream, and
//! restart with `--recover`. Every acknowledged update must survive — the
//! durability invariant the whole subsystem exists for. This is the
//! in-repo twin of the CI `recovery-smoke` job and of experiment figR2.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use strip_live::logdir;
use strip_live::protocol::{read_msg, write_msg, Msg, WireQuery, WireUpdate};

const N_LOW: u32 = 16;
const N_HIGH: u32 = 16;

struct Server {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
    /// The `stripd recovered: ...` line, when started with `--recover`.
    recovered_line: Option<String>,
    /// All recovery banners — one `stripd recovered stripe=<s>: ...` line
    /// per stripe on a sharded server, or the single line above.
    recovered_lines: Vec<String>,
}

/// A panicking assertion must not leak the child: an orphaned stripd
/// holds the test harness pipes open forever.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns `stripd` on an ephemeral port and waits for the listening
    /// banner (and, with `--recover`, the recovery banner before it).
    fn spawn(wal_dir: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_stripd"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--n-low",
                &N_LOW.to_string(),
                "--n-high",
                &N_HIGH.to_string(),
                "--wal",
            ])
            .arg(wal_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn stripd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut recovered_line = None;
        let mut recovered_lines = Vec::new();
        let addr = loop {
            let mut line = String::new();
            let n = stdout.read_line(&mut line).expect("read stripd banner");
            assert!(n > 0, "stripd exited before listening");
            if line.starts_with("stripd recovered:") {
                recovered_line = Some(line.trim().to_string());
                recovered_lines.push(line.trim().to_string());
            } else if line.starts_with("stripd recovered stripe=") {
                recovered_lines.push(line.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("stripd listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("addr in banner")
                    .to_string();
            }
        };
        Server {
            child,
            stdout,
            addr,
            recovered_line,
            recovered_lines,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to stripd");
        stream.set_nodelay(true).expect("nodelay");
        stream
    }

    /// SIGKILL — the one stop with no orderly path, what the WAL is for.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9 stripd");
        let _ = self.child.wait();
    }

    /// Wire shutdown; returns the report JSON from stdout.
    fn shutdown(mut self, stream: &mut TcpStream) -> String {
        write_msg(stream, &Msg::Shutdown).expect("send shutdown");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read report");
        let status = self.child.wait().expect("wait stripd");
        assert!(status.success(), "stripd exited nonzero: {status:?}");
        rest
    }
}

/// Deterministic burst: `count` updates over the partitions, generations
/// strictly increasing so every install is worthy. Returns the expected
/// final (payload, generation) per object.
fn send_burst(stream: &mut TcpStream, start: u32, count: u32) -> HashMap<(u8, u32), (f64, i64)> {
    let mut expected = HashMap::new();
    for k in start..start + count {
        // LCG-ish spread over both classes, no wall-clock or entropy.
        let class = (k.wrapping_mul(2_654_435_761) >> 16 & 1) as u8;
        let index = k.wrapping_mul(40_503) % if class == 0 { N_LOW } else { N_HIGH };
        let generation_micros = 1_000 * i64::from(k + 1);
        let payload = f64::from(k) * 0.5 - 3.0;
        write_msg(
            stream,
            &Msg::Update(WireUpdate {
                class,
                index,
                generation_micros,
                payload,
                attr_mask: u64::MAX,
            }),
        )
        .expect("send update");
        expected.insert((class, index), (payload, generation_micros));
    }
    expected
}

/// Stats barrier: once a reply shows `ingested == total`, every update
/// sent before it has been accepted by the executor AND written into the
/// WAL segment (the executor waits on the flusher's written watermark
/// before replying), so a `kill -9` after this point may not lose any of
/// them. Polls on until `queued == 0` too, so queries that follow observe
/// the applied state, not a half-drained backlog.
fn ack_barrier(stream: &mut TcpStream, total: u64) {
    loop {
        write_msg(stream, &Msg::StatsRequest).expect("stats request");
        let s = match read_msg(stream).expect("stats reply") {
            Some(Msg::StatsResponse(s)) => s,
            other => panic!("expected StatsResponse, got {other:?}"),
        };
        if s.ingested == total && s.queued == 0 {
            return;
        }
        std::thread::yield_now();
    }
}

fn assert_state_matches(stream: &mut TcpStream, expected: &HashMap<(u8, u32), (f64, i64)>) {
    for (&(class, index), &(payload, generation_micros)) in expected {
        write_msg(stream, &Msg::Query(WireQuery { class, index })).expect("send query");
        match read_msg(stream).expect("query reply") {
            Some(Msg::QueryResponse(r)) => {
                assert_eq!(
                    r.payload.to_bits(),
                    payload.to_bits(),
                    "object ({class},{index}) lost its acked payload"
                );
                assert_eq!(
                    r.generation_micros, generation_micros,
                    "object ({class},{index}) lost its acked generation"
                );
            }
            other => panic!("expected QueryResponse, got {other:?}"),
        }
    }
}

fn scrape_metrics(server: &Server) -> String {
    let mut http = server.connect();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: stripd\r\n\r\n")
        .expect("send scrape");
    let mut page = String::new();
    http.read_to_string(&mut page).expect("read scrape");
    page
}

fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{page}"))
}

fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_server_recovers_every_acked_update() {
    let dir = temp_wal_dir("kill-recover");

    // Phase 1: a server with a WAL, a burst, an ack, and a kill -9.
    // --snapshot-secs 3600 pins phase 1 to pure WAL replay (no periodic
    // snapshot re-base), so the replay count below is exact.
    let server = Server::spawn(&dir, &["--fsync", "group:250us", "--snapshot-secs", "3600"]);
    let mut stream = server.connect();
    let sent = 96u32;
    let expected = send_burst(&mut stream, 0, sent);
    ack_barrier(&mut stream, u64::from(sent));
    drop(stream);
    server.kill9();

    // Phase 2: restart with --recover. Every acked update must be back.
    let server = Server::spawn(
        &dir,
        &[
            "--fsync",
            "group:250us",
            "--snapshot-secs",
            "3600",
            "--recover",
        ],
    );
    let banner = server.recovered_line.clone().expect("recovery banner");
    assert!(
        banner.contains(&format!("replayed={sent}")) && banner.contains("discarded=0"),
        "acked updates went missing: {banner}"
    );

    let page = scrape_metrics(&server);
    assert_eq!(
        metric(&page, "strip_live_recovery_replayed_total "),
        u64::from(sent)
    );
    assert_eq!(metric(&page, "strip_live_recovery_discarded_total "), 0);

    let mut stream = server.connect();
    assert_state_matches(&mut stream, &expected);

    // The recovered server is a full server: it keeps accepting updates
    // and exits orderly with durability accounting in the report.
    let more = send_burst(&mut stream, 1_000, 8);
    ack_barrier(&mut stream, 8);
    assert_state_matches(&mut stream, &more);
    let report = server.shutdown(&mut stream);
    assert!(
        report.contains("\"durability\"") && report.contains("\"recovery_replayed\""),
        "report lacks durability accounting: {report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_composes_snapshot_base_with_wal_tail() {
    let dir = temp_wal_dir("snap-recover");

    // Aggressive snapshot cadence: the first burst lands in the snapshot
    // base, the second in the WAL tail past it.
    let server = Server::spawn(&dir, &["--fsync", "group:250us", "--snapshot-secs", "0.2"]);
    let mut stream = server.connect();
    let mut expected = send_burst(&mut stream, 0, 40);
    ack_barrier(&mut stream, 40);
    // Let at least one periodic snapshot be cut (live clock, 0.2s cadence).
    std::thread::sleep(std::time::Duration::from_millis(600));
    expected.extend(send_burst(&mut stream, 500, 24));
    ack_barrier(&mut stream, 64);
    drop(stream);
    server.kill9();

    let server = Server::spawn(&dir, &["--fsync", "group:250us", "--recover"]);
    let banner = server.recovered_line.clone().expect("recovery banner");
    assert!(
        banner.contains("snapshot=loaded"),
        "expected a snapshot base: {banner}"
    );
    let page = scrape_metrics(&server);
    assert!(
        metric(&page, "strip_live_recovery_replayed_total ") <= 64,
        "snapshot base should absorb part of the stream: {banner}"
    );

    let mut stream = server.connect();
    assert_state_matches(&mut stream, &expected);
    server.shutdown(&mut stream);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `key=value` integer field out of a recovery banner line.
fn banner_field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in banner: {line}"))
}

#[test]
fn killed_striped_server_recovers_every_acked_update_across_stripes() {
    let dir = temp_wal_dir("stripe-recover");
    const STRIPES: usize = 4;

    // Phase 1: a 4-stripe server, each stripe with its own WAL segment
    // chain under stripe-<s>/. Snapshot cadence pinned out of the way so
    // the per-stripe replay counts below are exact.
    let server = Server::spawn(
        &dir,
        &[
            "--stripes",
            "4",
            "--fsync",
            "group:250us",
            "--snapshot-secs",
            "3600",
        ],
    );
    let mut stream = server.connect();
    let sent = 96u32;
    let expected = send_burst(&mut stream, 0, sent);
    ack_barrier(&mut stream, u64::from(sent));
    drop(stream);
    server.kill9();

    // Every stripe must have its own durability directory and segment.
    for s in 0..STRIPES as u32 {
        let mut chain = logdir::chain(&logdir::stripe_dir(&dir, s)).expect("list stripe chain");
        assert!(
            chain.any(|link| link.expect("read segment").1),
            "stripe {s} has no WAL segment"
        );
    }

    // Phase 2: recover. Stripes replay independently; the banners must
    // account for every acked update with nothing discarded, and the
    // recovered state must match object for object through the router.
    let server = Server::spawn(
        &dir,
        &[
            "--stripes",
            "4",
            "--fsync",
            "group:250us",
            "--snapshot-secs",
            "3600",
            "--recover",
        ],
    );
    assert_eq!(
        server.recovered_lines.len(),
        STRIPES,
        "one recovery banner per stripe: {:?}",
        server.recovered_lines
    );
    let replayed: u64 = server
        .recovered_lines
        .iter()
        .map(|l| banner_field(l, "replayed"))
        .sum();
    let discarded: u64 = server
        .recovered_lines
        .iter()
        .map(|l| banner_field(l, "discarded"))
        .sum();
    assert_eq!(
        replayed,
        u64::from(sent),
        "acked updates went missing: {:?}",
        server.recovered_lines
    );
    assert_eq!(discarded, 0, "{:?}", server.recovered_lines);

    let page = scrape_metrics(&server);
    assert_eq!(
        metric(&page, "strip_live_recovery_replayed_total "),
        u64::from(sent),
        "merged report must sum per-stripe replay"
    );
    for s in 0..STRIPES {
        assert!(
            page.contains(&format!(
                "strip_live_stripe_updates_ingested{{stripe=\"{s}\"}}"
            )),
            "missing per-stripe series for stripe {s}:\n{page}"
        );
    }

    let mut stream = server.connect();
    assert_state_matches(&mut stream, &expected);

    // Still a full server after recovery: more traffic, orderly exit.
    let more = send_burst(&mut stream, 1_000, 8);
    ack_barrier(&mut stream, 8);
    assert_state_matches(&mut stream, &more);
    let report = server.shutdown(&mut stream);
    assert!(
        report.contains("\"stripes\"") && report.contains("\"durability\""),
        "merged report lacks stripe accounting: {report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_start_on_a_used_directory_recovers_the_new_runs_acked_updates() {
    let dir = temp_wal_dir("fresh-on-used");

    // Run 1 leaves a snapshot stamped past anything run 2 will log.
    let server = Server::spawn(&dir, &["--snapshot-secs", "0.2"]);
    let mut stream = server.connect();
    send_burst(&mut stream, 0, 96);
    ack_barrier(&mut stream, 96);
    while !dir.join(logdir::SNAPSHOT_FILE).is_file() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown(&mut stream);

    // Run 2: no --recover, so the directory starts afresh; sequence
    // numbers restart at 0, below run 1's stamp.
    let server = Server::spawn(&dir, &["--snapshot-secs", "3600"]);
    let mut stream = server.connect();
    let expected = send_burst(&mut stream, 1_000, 40);
    ack_barrier(&mut stream, 40);
    drop(stream);
    server.kill9();

    // Run 3 recovers run 2, from its log alone.
    let server = Server::spawn(&dir, &["--snapshot-secs", "3600", "--recover"]);
    let banner = server.recovered_line.clone().expect("recovery banner");
    assert!(
        banner.contains("snapshot=none") && banner.contains("replayed=40"),
        "a stale snapshot shadowed the new run's log: {banner}"
    );
    let mut stream = server.connect();
    assert_state_matches(&mut stream, &expected);
    server.shutdown(&mut stream);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_on_empty_directory_is_a_cold_start() {
    let dir = temp_wal_dir("cold-recover");
    let server = Server::spawn(&dir, &["--recover"]);
    let banner = server.recovered_line.clone().expect("recovery banner");
    assert!(
        banner.contains("snapshot=none") && banner.contains("replayed=0"),
        "cold start misread: {banner}"
    );
    let mut stream = server.connect();
    let expected = send_burst(&mut stream, 0, 8);
    ack_barrier(&mut stream, 8);
    assert_state_matches(&mut stream, &expected);
    server.shutdown(&mut stream);
    let _ = std::fs::remove_dir_all(&dir);
}
