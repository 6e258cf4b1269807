//! The live data path does no allocation in steady state.
//!
//! A counting global allocator counts every allocation of the server's
//! threads; the client's own thread is not counted. One session sends two
//! bursts of updates to a real server with the WAL on, the second four
//! times the first. The blocks frames are decoded into and the WAL's
//! chunks come back to the thread that fills them, and the flusher keeps
//! one write buffer, so the second burst allocates no more than the first,
//! which also builds the rings and the pools the second one reuses. Were a
//! frame's block or a chunk of 256 logged updates allocated afresh, the
//! second burst would allocate about four times what the first does.
//!
//! A pool holds what is in flight at once, so a backlog would grow the
//! pools with the burst. Each burst is therefore sent one frame at a time,
//! and the next frame leaves only once the server has drained the last:
//! the test asks the executor for a report until it counts every update
//! sent and none queued. A report is an ack (it leaves once the log has
//! every update before it), so by then the frame's block and its chunks
//! are home. An ask allocates the report's policy label on the executor,
//! once — the test checks that on the idle server first — so each burst's
//! count is taken net of its asks, however many the drain needed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};

use strip_core::config::{Policy, SimConfig};
use strip_db::cost::CostModel;
use strip_live::executor::{Ingest, LiveConfig};
use strip_live::protocol::{read_msg, write_msg, Msg, WireStats, WireUpdate};
use strip_live::server::{serve, stats_from_report, ServerHandle};
use strip_live::wal::{DurabilityConfig, FsyncPolicy};

/// The system allocator, counting every allocation and reallocation made
/// on a thread that counts.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count; the client's thread
    /// turns it off.
    static COUNTED: Cell<bool> = const { Cell::new(true) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(true) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a relaxed atomic and the flag a `const`-initialised thread-local
// without a destructor, so counting touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Updates in the first burst; the second sends four times as many.
const BURST: usize = 32_768;
/// Updates per frame, as the benchmark sends them.
const FRAME: usize = 512;

/// A server as the test runs it, with its log in `dir`.
fn server(dir: &Path) -> ServerHandle {
    let sim = SimConfig::builder()
        .n_low(256)
        .n_high(256)
        .lambda_u(0.0)
        .lambda_t(0.0)
        .duration(3_600.0)
        .warmup(0.0)
        .policy(Policy::UpdatesFirst)
        .os_max(5 * BURST + 1)
        .costs(CostModel {
            ips: 500.0e9,
            ..CostModel::default()
        })
        .build()
        .expect("valid config");
    let mut durability = DurabilityConfig::new(dir);
    durability.fsync = FsyncPolicy::Off;
    durability.snapshot_secs = f64::INFINITY;
    let cfg = LiveConfig::new(sim)
        .expect("valid live config")
        .with_durability(durability);
    serve(&cfg, TcpListener::bind("127.0.0.1:0").expect("bind")).expect("serve")
}

/// One session with the server, and the executor's own ingest channel.
struct Client {
    stream: TcpStream,
    ingest: Sender<Ingest>,
    credit: u64,
    sent: u64,
    /// Reports asked for so far.
    asks: u64,
}

impl Client {
    /// Sends one frame of `n` updates inside the credit, waiting for a
    /// grant first if the credit is spent (or, for `n` = 0, for one grant
    /// and no frame).
    fn send(&mut self, n: usize) {
        while self.credit == 0 || (self.credit as usize) < n {
            match read_msg(&mut self.stream).expect("read a grant") {
                Some(Msg::Credit(grant)) => self.credit += grant,
                other => panic!("expected Credit, got {other:?}"),
            }
        }
        if n == 0 {
            return;
        }
        let updates = (0..n)
            .map(|i| WireUpdate {
                class: (i % 2) as u8,
                index: (i % 256) as u32,
                generation_micros: (self.sent + i as u64 + 1) as i64,
                payload: 1.0,
                attr_mask: u64::MAX,
            })
            .collect();
        write_msg(&mut self.stream, &Msg::UpdateBatch(updates)).expect("send a frame");
        self.credit -= n as u64;
        self.sent += n as u64;
    }

    /// The executor's report, asked for directly rather than through the
    /// session: an ack, so it leaves once every update the executor has
    /// accepted is in the log.
    fn ask(&mut self) -> WireStats {
        self.asks += 1;
        let (reply, report) = mpsc::sync_channel(1);
        self.ingest
            .send(Ingest::Snapshot { reply })
            .expect("the executor runs");
        stats_from_report(&report.recv().expect("a report"))
    }

    /// Asks until the report counts every update sent and none queued:
    /// every block filled so far and every chunk logged is home.
    fn drain(&mut self) {
        loop {
            let stats = self.ask();
            if stats.ingested == self.sent && stats.queued == 0 {
                return;
            }
        }
    }

    /// Sends `n` updates a frame at a time, draining after each; returns
    /// the allocations the server made meanwhile, net of the asks, at
    /// `per_ask` each.
    fn burst(&mut self, n: usize, per_ask: u64) -> u64 {
        let (before, asks) = (allocations(), self.asks);
        for _ in 0..n / FRAME {
            self.send(FRAME);
            self.drain();
        }
        allocations() - before - (self.asks - asks) * per_ask
    }
}

#[test]
fn a_burst_four_times_longer_allocates_no_more() {
    COUNTED.with(|c| c.set(false));
    let dir = std::env::temp_dir().join(format!("strip-steady-alloc-{}", std::process::id()));
    let server = server(&dir);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut client = Client {
        stream,
        ingest: server.ingest(),
        credit: 0,
        sent: 0,
        asks: 0,
    };
    write_msg(&mut client.stream, &Msg::CreditRequest).expect("credit request");
    client.send(0);

    // What one ask costs the server, measured on the idle server after a
    // first one (which also grows the executor's queue of parked acks):
    // the same for every ask.
    client.ask();
    let cost = |client: &mut Client| {
        let before = allocations();
        client.ask();
        allocations() - before
    };
    let per_ask = cost(&mut client);
    for _ in 0..16 {
        assert_eq!(cost(&mut client), per_ask, "an ask's cost varies");
    }

    let first = client.burst(BURST, per_ask);
    let second = client.burst(4 * BURST, per_ask);
    eprintln!(
        "allocations: {first} in {BURST} updates, {second} in {}, \
         net of {} asks at {per_ask}",
        4 * BURST,
        client.asks
    );
    assert!(
        second <= first,
        "the second burst allocated {second} times, the first {first}"
    );

    drop(client);
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.updates.arrived, 5 * BURST as u64);
    assert_eq!(report.durability.wal_appended, 5 * BURST as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
