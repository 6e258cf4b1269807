//! The layer ladder: every module priced from outside, through its public
//! functions, on the same data the workloads move.
//!
//! Rows marked ★ are timed on the 512-update frames `live_drain` sends and
//! are meant to be *summed*: `ladder.sum_ns` against the measured service
//! time of one update (`1e9 / throughput_per_s` on `live_drain`) is the
//! share of the end-to-end cost the layers account for, and the remainder
//! (`executor.unattributed_ns`) is what later tracing inside `crates/` must
//! explain. Nothing here touches the timed rounds.

use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use strip_core::config::{DagSpec, Policy, SimConfig};
use strip_core::policy::{self, WorkState};
use strip_core::ready::ReadyQueue;
use strip_core::sources::{TxnSource, UpdateSource};
use strip_core::txn::Transaction;
use strip_db::cost::CostModel;
use strip_db::dag::{generate_dag, DagState};
use strip_db::object::{Importance, ViewObjectId};
use strip_db::osqueue::OsQueue;
use strip_db::staleness::{StalenessSpec, StalenessTracker};
use strip_db::store::{InstallOutcome, Store};
use strip_db::update::Update;
use strip_db::update_queue::UpdateQueue;
use strip_live::clock::LiveClock;
use strip_live::executor::{Ingest, LiveConfig};
use strip_live::protocol::{
    encode_batch_body, for_each_batch_update, read_msg, write_msg, FrameReader, Msg, WireQuery,
    WireUpdate,
};
use strip_live::recovery::recover;
use strip_live::server::serve;
use strip_live::wal::{
    crc32, DurabilityConfig, FsyncPolicy, SegmentHeader, WalHandle, WalRecord, REC_LEN,
    SEGMENT_FILE,
};
use strip_live::{snapshot, spsc};
use strip_obs::TraceConfig;
use strip_sim::dist::{Distribution, Exponential};
use strip_sim::event::EventQueue;
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;
use strip_workload::generators::{PoissonTxns, PoissonUpdates};
use strip_workload::{run_paper_sim, run_paper_sim_traced};

use crate::live_burst::{burst_config, generate_burst, BATCH, N_PER_CLASS};
use crate::stats::{median, quantile, sorted};
use crate::workload::out_dir;

/// `LiveClock::now` calls the executor makes per installed update on the
/// UF burst path: one per main-loop pass, three in `burn_update_work`, one
/// at the end of `run_install`. It also spins the modelled install time
/// (`spin_for`, 48 ns at `ips = 500e9`), priced separately.
const CLOCK_CALLS_PER_UPDATE: f64 = 5.0;

/// Timed batches per row; the row reports their median.
const REPS: usize = 7;

/// Median ns per operation over [`REPS`] timed calls of `batch`, each of
/// which performs `ops` operations (one untimed call first, as warm-up).
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

fn update_of(i: usize, w: &WireUpdate) -> Update {
    let class = if w.class == 0 {
        Importance::Low
    } else {
        Importance::High
    };
    Update {
        seq: i as u64,
        object: ViewObjectId::new(class, w.index),
        generation_ts: LiveClock::micros_to_sim(w.generation_micros),
        arrival_ts: SimTime::from_secs(i as f64 * 1e-6),
        payload: w.payload,
        attr_mask: w.attr_mask,
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = out_dir().join(format!("ladder-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// ★ Loopback `write_all` into `FrameReader::next_frame`, frames counted
/// from their headers and never decoded: the two syscalls and the reader's
/// buffer management, per update.
fn syscall_ns(frame: &[u8], frames: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let total = frames * BATCH;
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> std::io::Result<usize> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut fr = FrameReader::new();
            let mut seen = 0usize;
            while seen < total {
                let Some(body) = fr.next_frame(&mut conn)? else {
                    break;
                };
                let count: [u8; 4] = body
                    .get(1..5)
                    .and_then(|c| c.try_into().ok())
                    .unwrap_or_default();
                seen += u32::from_le_bytes(count) as usize;
            }
            Ok(seen)
        });
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let t = Instant::now();
        for _ in 0..frames {
            stream.write_all(frame)?;
        }
        let seen = reader.join().expect("reader thread panicked")?;
        let ns = t.elapsed().as_secs_f64() * 1e9 / total as f64;
        if seen != total {
            return Err(std::io::Error::other("reader lost frames"));
        }
        Ok(ns)
    })
}

/// `Ingest::Update` through the in-process channel (`ServerHandle::ingest`)
/// with no socket and no ring: the executor alone, per update.
fn channel_ingest_ns(updates: &[WireUpdate]) -> std::io::Result<f64> {
    let cfg = LiveConfig::new(burst_config(0, updates.len())).expect("burst config runs live");
    let handle = serve(&cfg, TcpListener::bind("127.0.0.1:0")?)?;
    let tx = handle.ingest();
    let t = Instant::now();
    for w in updates {
        let _ = tx.send(Ingest::Update(*w));
    }
    // The final report is built after every queued message was handled;
    // asking for a snapshot first and polling keeps shutdown from cutting
    // the backlog short.
    loop {
        let (rtx, rrx) = std::sync::mpsc::sync_channel(1);
        let _ = tx.send(Ingest::Snapshot { reply: rtx });
        let Ok(report) = rrx.recv() else { break };
        let u = &report.updates;
        if u.installed_total() + u.superseded_skips == updates.len() as u64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(500));
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / updates.len() as f64;
    handle.shutdown()?;
    Ok(ns)
}

/// Round trips against an idle server: closed-loop `Query`, `StatsRequest`,
/// and one HTTP `GET /metrics`. Returns `(query, stats, scrape)` µs.
fn idle_round_trips() -> std::io::Result<(f64, f64, f64)> {
    let cfg = LiveConfig::new(burst_config(0, 1)).expect("burst config runs live");
    let handle = serve(&cfg, TcpListener::bind("127.0.0.1:0")?)?;
    let mut stream = TcpStream::connect(handle.addr())?;
    stream.set_nodelay(true)?;
    let mut rtt = |msg: &Msg| -> std::io::Result<f64> {
        let t = Instant::now();
        write_msg(&mut stream, msg)?;
        read_msg(&mut stream)?;
        Ok(t.elapsed().as_secs_f64() * 1e6)
    };
    let q = Msg::Query(WireQuery { class: 0, index: 0 });
    let query: Vec<f64> = (0..200).map(|_| rtt(&q)).collect::<Result<_, _>>()?;
    let stats: Vec<f64> = (0..50)
        .map(|_| rtt(&Msg::StatsRequest))
        .collect::<Result<_, _>>()?;
    let scrape: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            let mut http = TcpStream::connect(handle.addr())?;
            http.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")?;
            let mut page = Vec::new();
            http.read_to_end(&mut page)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<std::io::Result<_>>()?;
    drop(stream);
    handle.shutdown()?;
    Ok((median(&query), median(&stats), median(&scrape)))
}

/// WAL rows: `(append ns/record to the written watermark, crc32 MB/s)`.
fn wal_rows(updates: &[WireUpdate]) -> std::io::Result<(f64, f64)> {
    let dir = scratch("wal");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Off;
    cfg.snapshot_secs = f64::INFINITY;
    let mut wal = WalHandle::start(&cfg, 0xBEEC, 0)?;
    let t = Instant::now();
    for (i, w) in updates.iter().enumerate() {
        wal.append(i as u64, *w, i as i64);
    }
    wal.barrier(updates.len() as u64);
    let append_ns = t.elapsed().as_secs_f64() * 1e9 / updates.len() as f64;
    wal.seal()?;
    let _ = std::fs::remove_dir_all(&dir);

    let block = vec![0xA5u8; 1 << 20];
    let crc_ns = ns_per_op(block.len(), || {
        black_box(crc32(black_box(&block)));
    });
    Ok((append_ns, 1e3 / crc_ns))
}

/// Snapshot rows for a 1000-object store: `(encode µs, write_atomic µs)`.
fn snapshot_rows() -> std::io::Result<(f64, f64)> {
    let store = Store::new(500, 500, 0, SimTime::ZERO);
    let encode_us = ns_per_op(1, || {
        black_box(snapshot::encode(black_box(&store), 1, 0xBEEC, 0));
    }) / 1e3;
    let image = snapshot::encode(&store, 1, 0xBEEC, 0);
    let dir = scratch("snap");
    std::fs::create_dir_all(&dir)?;
    let writes: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            snapshot::write_atomic(&dir, &image)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<std::io::Result<_>>()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok((encode_us, median(&writes)))
}

/// `recover()` over one cold segment holding every update of the burst,
/// ns per record.
fn recovery_replay_ns(updates: &[WireUpdate]) -> std::io::Result<f64> {
    let sim = burst_config(0, updates.len());
    let dir = scratch("replay");
    std::fs::create_dir_all(&dir)?;
    let mut segment = Vec::with_capacity(32 + updates.len() * REC_LEN);
    segment.extend_from_slice(
        &SegmentHeader {
            fingerprint: strip_core::config_fingerprint(&sim),
            base_seq: 0,
        }
        .encode(),
    );
    for (i, w) in updates.iter().enumerate() {
        segment.extend_from_slice(&WalRecord::update(i as u64, *w, i as i64).encode());
    }
    std::fs::write(dir.join(SEGMENT_FILE), &segment)?;
    let cfg = LiveConfig::new(sim)
        .expect("burst config runs live")
        .with_durability(DurabilityConfig::new(&dir));
    let t = Instant::now();
    let recovered = recover(&cfg)?;
    let ns = t.elapsed().as_secs_f64() * 1e9 / updates.len() as f64;
    let _ = std::fs::remove_dir_all(&dir);
    if recovered.replayed != updates.len() as u64 {
        return Err(std::io::Error::other("replay lost records"));
    }
    Ok(ns)
}

/// Runs every row. `drain_updates_per_s` is `live_drain`'s measured
/// goodput when this run has one (it closes the ladder), else `None`.
#[allow(clippy::too_many_lines)]
pub fn ladder(
    seed: u64,
    quick: bool,
    drain_updates_per_s: Option<f64>,
) -> std::io::Result<Vec<(&'static str, &'static str, f64)>> {
    let mut rows: Vec<(&'static str, &'static str, f64)> = Vec::new();
    let n = if quick { 50_000 } else { 1_000_000 };
    let burst = generate_burst(seed, n);
    let frame_updates = &burst.updates[..BATCH];
    let mut body = Vec::new();
    encode_batch_body(&mut body, frame_updates).map_err(std::io::Error::from)?;
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    let passes = n / BATCH;

    // ---- simulator side ------------------------------------------------------
    {
        // Hold model at the simulator's steady population (~1k pending).
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xCA1E);
        let mut q: EventQueue<u64> = EventQueue::with_capacity(2_048);
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_secs(rng.next_f64()), i);
        }
        let holds = 100_000;
        rows.push((
            "event.hold_ns",
            "ns",
            ns_per_op(holds, || {
                for _ in 0..holds {
                    let (t, id) = q.pop().expect("hold model keeps the calendar populated");
                    q.schedule(t + 0.0025 * -rng.next_f64_open_zero().ln(), id);
                }
            }),
        ));
    }
    {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xE4B);
        let exp = Exponential::new(0.0025);
        let draws = 1_000_000;
        rows.push((
            "rng.exp_sample_ns",
            "ns",
            ns_per_op(draws, || {
                let mut acc = 0.0;
                for _ in 0..draws {
                    acc += exp.sample(&mut rng);
                }
                black_box(acc);
            }),
        ));
    }
    {
        let cfg = SimConfig::builder()
            .duration(1e9)
            .seed(seed)
            .build()
            .expect("baseline is valid");
        let mut updates = PoissonUpdates::from_config(&cfg);
        let arrivals = 200_000;
        rows.push((
            "generators.update_arrival_ns",
            "ns",
            ns_per_op(arrivals, || {
                for _ in 0..arrivals {
                    black_box(updates.next_update());
                }
            }),
        ));
        let mut txns = PoissonTxns::from_config(&cfg);
        let arrivals = 50_000;
        rows.push((
            "generators.txn_arrival_ns",
            "ns",
            ns_per_op(arrivals, || {
                for _ in 0..arrivals {
                    black_box(txns.next_txn());
                }
            }),
        ));
    }
    {
        let staleness = StalenessSpec::MaxAge { alpha: 7.0 };
        let iters = 50_000usize;
        rows.push((
            "policy.decision_ns",
            "ns",
            ns_per_op(iters * 4 * 6, || {
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
                    }
                }
            }),
        ));
    }
    {
        // Push then pop-best at a standing depth of 16 ready transactions.
        let cfg = SimConfig::builder()
            .duration(1e9)
            .seed(seed)
            .build()
            .expect("baseline is valid");
        let costs = CostModel::default();
        let mut source = PoissonTxns::from_config(&cfg);
        let mut ready = ReadyQueue::new();
        let mut next = || Transaction::new(source.next_txn().expect("endless"), 0.0, &costs);
        for _ in 0..16 {
            ready.push(next());
        }
        let specs: Vec<Transaction> = (0..20_000).map(|_| next()).collect();
        rows.push((
            "ready.push_pop_ns",
            "ns",
            ns_per_op(specs.len(), || {
                for t in &specs {
                    ready.push(t.clone());
                    black_box(ready.pop_best());
                }
            }),
        ));
    }
    {
        let cfg = SimConfig::builder()
            .policy(Policy::UpdatesFirst)
            .lambda_t(12.0)
            .duration(if quick { 5.0 } else { 100.0 })
            .seed(seed)
            .build()
            .expect("trace-pair config is valid");
        let time = |traced: bool| {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    if traced {
                        black_box(run_paper_sim_traced(&cfg, TraceConfig::default()).ok());
                    } else {
                        black_box(run_paper_sim(&cfg));
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        let (plain, traced) = (time(false), time(true));
        rows.push(("obs.trace_overhead_frac", "frac", traced / plain - 1.0));
    }
    {
        // Simulator-faithful stream: arrivals 1/λu apart, Exp(0.1 s) ages.
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x51AB);
        let stream: Vec<Update> = (0..200_000usize)
            .map(|i| {
                let arrival = i as f64 / 400.0;
                let age = -0.1 * rng.next_f64_open_zero().ln();
                Update {
                    seq: i as u64,
                    object: ViewObjectId::new(
                        if rng.chance(0.5) {
                            Importance::High
                        } else {
                            Importance::Low
                        },
                        rng.next_below(500) as u32,
                    ),
                    generation_ts: SimTime::from_secs((arrival - age).max(0.0)),
                    arrival_ts: SimTime::from_secs(arrival),
                    payload: 0.0,
                    attr_mask: Update::COMPLETE,
                }
            })
            .collect();
        for (name, dedup) in [
            ("update_queue.fifo_churn_ns", false),
            ("update_queue.dedup_churn_ns", true),
        ] {
            rows.push((
                name,
                "ns",
                ns_per_op(2 * stream.len(), || {
                    let mut q = UpdateQueue::new(5_600, dedup);
                    for u in &stream {
                        black_box(q.insert(*u));
                        if q.len() > 512 {
                            black_box(q.pop_oldest());
                        }
                    }
                    while black_box(q.pop_oldest()).is_some() {}
                }),
            ));
        }
        // OD lookup: find and remove the newest queued update of an object
        // from a queue holding ~512.
        rows.push((
            "update_queue.take_newest_for_ns",
            "ns",
            ns_per_op(stream.len(), || {
                let mut q = UpdateQueue::new(5_600, false);
                for u in &stream {
                    black_box(q.insert(*u));
                    if q.len() > 512 {
                        black_box(q.take_newest_for(u.object));
                    }
                }
            }),
        ));
    }
    {
        let spec = DagSpec::default();
        let mut rng = Xoshiro256pp::seed_from_u64(seed).substream(0xDA6);
        let dag = generate_dag(&spec, 700, 300, &mut rng);
        let store = Store::new(700, 300, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, spec.max_pending);
        let installs = 20_000usize;
        let mut deltas = 0usize;
        let t = Instant::now();
        for i in 0..installs {
            let now = SimTime::from_secs(i as f64 * 1e-3);
            let obj = ViewObjectId::new(Importance::Low, (i % 700) as u32);
            deltas += state.on_base_install(&dag, obj, 1.0, now);
            while let Some(node) = state.next_pending() {
                black_box(state.apply(&dag, &store, node, now));
                deltas += 1;
            }
        }
        rows.push((
            "dag.delta_ns",
            "ns",
            t.elapsed().as_secs_f64() * 1e9 / deltas.max(1) as f64,
        ));
    }

    // ---- live side: the ★ ladder ---------------------------------------------
    let syscall = syscall_ns(&frame, passes)?;
    let decode = ns_per_op(passes * BATCH, || {
        for _ in 0..passes {
            black_box(
                for_each_batch_update(black_box(&body), |w| {
                    black_box(w);
                })
                .ok(),
            );
        }
    });
    let encode = ns_per_op(passes * BATCH, || {
        let mut out = Vec::new();
        for _ in 0..passes {
            black_box(encode_batch_body(&mut out, black_box(frame_updates)).ok());
        }
    });
    // One thread, a frame's worth pushed then popped: the ring's own cost,
    // not a context switch between a spinning producer and consumer.
    let ring = {
        let (mut p, mut c) = spsc::ring::<WireUpdate>(strip_live::server::RING_CAPACITY);
        ns_per_op(passes * BATCH, || {
            for _ in 0..passes {
                for w in frame_updates {
                    black_box(p.push(*w).is_ok());
                }
                while let Some(w) = c.pop() {
                    black_box(w);
                }
            }
        })
    };
    let updates: Vec<Update> = burst
        .updates
        .iter()
        .enumerate()
        .map(|(i, w)| update_of(i, w))
        .collect();
    let osq = ns_per_op(updates.len(), || {
        let mut os = OsQueue::new(updates.len() + 1);
        for chunk in updates.chunks(BATCH) {
            for u in chunk {
                black_box(os.deliver(*u).accepted);
            }
            while let Some(u) = os.receive() {
                black_box(u);
            }
        }
    });
    let install = ns_per_op(updates.len(), || {
        let mut store = Store::new(N_PER_CLASS, N_PER_CLASS, 0, SimTime::ZERO);
        for u in &updates {
            black_box(store.install(u));
        }
    });
    let tracker = {
        // Versions as the store would assign them, so `on_install` sees a
        // real install sequence.
        let mut store = Store::new(N_PER_CLASS, N_PER_CLASS, 0, SimTime::ZERO);
        let installs: Vec<(ViewObjectId, SimTime, SimTime, u64)> = updates
            .iter()
            .filter_map(|u| match store.install(u) {
                InstallOutcome::Installed {
                    new_version,
                    min_generation,
                } => Some((u.object, u.generation_ts, min_generation, new_version)),
                InstallOutcome::Superseded => None,
            })
            .collect();
        ns_per_op(installs.len(), || {
            let start = SimTime::ZERO;
            let mut t = StalenessTracker::new(
                StalenessSpec::MaxAge { alpha: 7.0 },
                N_PER_CLASS,
                N_PER_CLASS,
                start,
                |_| start,
            );
            for (i, (obj, generation, min_generation, version)) in installs.iter().enumerate() {
                let now = SimTime::from_secs(i as f64 * 1e-6);
                t.on_receive(*obj, *generation, now);
                black_box(t.on_install(*obj, *min_generation, *version, now));
            }
        })
    };
    let clock = LiveClock::start();
    let now_ns = ns_per_op(1_000_000, || {
        for _ in 0..1_000_000 {
            black_box(clock.now());
        }
    });
    let install_spin = burst_config(0, 1).costs.install_time();
    let spin_ns = ns_per_op(200_000, || {
        for _ in 0..200_000 {
            LiveClock::spin_for(install_spin);
        }
    });
    let channel = channel_ingest_ns(&burst.updates)?;

    rows.push(("server.syscall_ns", "ns", syscall));
    rows.push(("protocol.decode_batch_ns", "ns", decode));
    rows.push(("protocol.encode_batch_ns", "ns", encode));
    rows.push(("spsc.push_pop_ns", "ns", ring));
    rows.push(("osqueue.deliver_receive_ns", "ns", osq));
    rows.push(("store.install_ns", "ns", install));
    rows.push(("staleness.receive_install_ns", "ns", tracker));
    rows.push(("clock.now_ns", "ns", now_ns));
    rows.push(("clock.spin_install_ns", "ns", spin_ns));
    rows.push(("executor.channel_ingest_ns", "ns", channel));
    let sum = syscall
        + decode
        + ring
        + osq
        + install
        + tracker
        + CLOCK_CALLS_PER_UPDATE * now_ns
        + spin_ns;
    rows.push(("ladder.sum_ns", "ns", sum));
    let per_update = drain_updates_per_s.map(|r| 1e9 / r);
    rows.push((
        "ladder.coverage",
        "frac",
        per_update.map_or(0.0, |ns| sum / ns),
    ));
    rows.push((
        "executor.unattributed_ns",
        "ns",
        per_update.map_or(0.0, |ns| ns - sum),
    ));

    // ---- durability ----------------------------------------------------------
    let (append_ns, crc_mb_s) = wal_rows(&burst.updates)?;
    rows.push(("wal.append_ns", "ns", append_ns));
    rows.push(("wal.crc32_mb_s", "MB/s", crc_mb_s));
    let (encode_us, write_us) = snapshot_rows()?;
    rows.push(("snapshot.encode_us", "us", encode_us));
    rows.push(("snapshot.write_us", "us", write_us));
    rows.push((
        "recovery.replay_ns",
        "ns",
        recovery_replay_ns(&burst.updates)?,
    ));

    // ---- executor timing and the monitoring plane ----------------------------
    let overshoot = sorted(
        (0..200)
            .map(|_| {
                let t = Instant::now();
                LiveClock::spin_for(500e-6);
                (t.elapsed().as_secs_f64() - 500e-6) * 1e6
            })
            .collect(),
    );
    rows.push((
        "clock.spin_overshoot_p50_us",
        "us",
        quantile(&overshoot, 0.5),
    ));
    rows.push((
        "clock.spin_overshoot_p99_us",
        "us",
        quantile(&overshoot, 0.99),
    ));
    let (query, stats, scrape) = idle_round_trips()?;
    rows.push(("executor.query_idle_rtt_us", "us", query));
    rows.push(("server.stats_barrier_us", "us", stats));
    rows.push(("server.metrics_scrape_us", "us", scrape));
    Ok(rows)
}
