//! `live_mix` — reads beside writes beside transactions, in real time.
//!
//! The paper's Table 1–3 baseline under OD with the MA criterion, replayed
//! open loop against `serve()`: thread 1 sends the seeded
//! `PoissonUpdates`/`PoissonTxns` arrivals at their scheduled instants
//! (batch frames ≤ 64, credit-correct); thread 2 sends one point `Query`
//! every 10 ms on a second connection, timed from its scheduled instant.
//! The same `SimConfig` also runs through the simulator as the reference:
//! the live server must account for exactly the arrivals the simulator saw,
//! and the distance between the two on `p_md` and `psuccess` is reported
//! (`sim.p_md_gap`, `sim.p_success_gap`) — reported, not checked: at
//! ρ ≈ 0.99 every millisecond the host takes from the executor is a missed
//! deadline, so on a shared host the gap measures the neighbours as much as
//! the program, and an output check may only fail when the program is wrong.
//!
//! The executor's scheduling, quantum loop, timers, ready queue and OD
//! update-queue lookups do the work; protocol, ring and WAL carry a few
//! thousand messages a second and do almost none. An ingest optimisation
//! must not move these numbers; a scheduler change must not worsen them.
//!
//! Time is compressed by [`TIME_SCALE`]: every rate is multiplied and
//! every duration of the model divided by it (`ips` × k, λ × k; compute
//! time, slack, update age and α ÷ k), which is the same queueing system
//! on a faster clock: λu = 4000/s, λt = 100/s, `ips` = 500e6, compute
//! 12 ms, slack 10–100 ms, α = 0.7 s. At the paper's own rates a run of
//! this length holds about 200 transactions and `psuccess` moves by ±0.03
//! from seed to seed; compressed, it holds 2000 and the seed-to-seed spread
//! sits well inside the metric's bound. Compression also shrinks every
//! slice toward the executor's 500 µs quantum, so the live runtime's
//! scheduling precision weighs more here than at the paper's clock, which
//! is what a scheduler benchmark wants; the simulator reference run keeps
//! it honest.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use strip_core::config::{Policy, SimConfig};
use strip_core::report::RunReport;
use strip_core::sources::{TxnSource, UpdateSource, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::cost::CostModel;
use strip_live::clock::LiveClock;
use strip_live::executor::LiveConfig;
use strip_live::protocol::{WireQuery, WireTxn, WireUpdate};
use strip_live::server::{serve, ServerHandle};
use strip_sim::rng::Xoshiro256pp;
use strip_workload::generators::{PoissonTxns, UpdateStream};
use strip_workload::run_paper_sim;

use crate::client::{conserved, pace_until, probe, CreditClient};
use crate::host::thread_cpu_secs;
use crate::stats::{quantile, sorted, Summary};
use crate::workload::{Ctx, Outcome, FRESH_FRAC, SETUP_S, SUCCESS_FRAC, THROUGHPUT};

/// Clock compression of the paper's baseline (see the module comment).
pub const TIME_SCALE: f64 = 10.0;
/// Largest `UpdateBatch` frame the generator sends.
const MAX_BATCH: usize = 64;
const PROBE_EVERY: Duration = Duration::from_millis(10);
/// Set-ups timed for `setup_s`, the last of which is the one the run uses.
const SETUP_REPS: usize = 15;
/// Live and simulated `p_md` / `psuccess` are expected to agree this
/// closely on a quiet host; a wider gap is noted on standard error.
const SIM_TOLERANCE: f64 = 0.05;
/// A generator this late at p99 was not offering the stated load on time;
/// noted on standard error, like the gap and for the same reason.
const MAX_LATE_P99_US: f64 = 50_000.0;

/// The baseline of Tables 1–3, compressed in time by [`TIME_SCALE`].
pub fn mix_config(seed: u64, duration: f64) -> SimConfig {
    let k = TIME_SCALE;
    let base = SimConfig::default();
    SimConfig::builder()
        .policy(Policy::OnDemand)
        .seed(seed)
        .duration(duration)
        .warmup(0.0)
        .lambda_u(base.lambda_u * k)
        .lambda_t(base.lambda_t * k)
        .mean_update_age(base.mean_update_age / k)
        .slack_min(base.slack_min / k)
        .slack_max(base.slack_max / k)
        .max_age(base.max_age / k)
        .compute_mean(base.compute_mean / k)
        .compute_sd(base.compute_sd / k)
        .costs(CostModel {
            ips: base.costs.ips * k,
            ..base.costs
        })
        .build()
        .expect("compressed baseline is valid")
}

fn wire_update(u: &UpdateSpec) -> WireUpdate {
    WireUpdate {
        class: u.object.class.index() as u8,
        index: u.object.index,
        generation_micros: LiveClock::sim_to_micros(u.generation_ts),
        payload: u.payload,
        attr_mask: u.attr_mask,
    }
}

fn wire_txn(t: &TxnSpec) -> WireTxn {
    WireTxn {
        id: t.id,
        class: t.class.index() as u8,
        value: t.value,
        slack_micros: (t.slack * 1e6).round().max(0.0) as u64,
        compute_micros: (t.compute_time * 1e6).round().max(0.0) as u64,
        reads: t
            .reads
            .iter()
            .map(|r| (r.class.index() as u8, r.index))
            .collect(),
    }
}

/// What the arrival generator did.
#[derive(Default)]
struct Sent {
    updates: u64,
    txns: u64,
    late_us: Vec<f64>,
}

/// Replays both arrival streams, merged by arrival time, against the
/// clock that started at `t0`.
fn replay(cfg: &SimConfig, client: &mut CreditClient, t0: Instant) -> std::io::Result<Sent> {
    let mut updates = UpdateStream::from_config(cfg);
    let mut txns = PoissonTxns::from_config(cfg);
    let mut next_u = updates.next_update();
    let mut next_t = txns.next_txn();
    let mut sent = Sent::default();
    let mut pending: Vec<WireUpdate> = Vec::with_capacity(MAX_BATCH);
    let at = |secs: f64| t0 + Duration::from_secs_f64(secs.max(0.0));
    loop {
        let update_first = match (&next_u, &next_t) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(u), Some(t)) => u.arrival <= t.arrival,
        };
        if update_first {
            let due = at(next_u.as_ref().expect("checked").arrival.as_secs());
            pace_until(due);
            // One frame carries exactly the updates already due.
            let now = Instant::now();
            sent.late_us
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
            while let Some(u) = next_u.as_ref() {
                let before_txn = next_t.as_ref().is_none_or(|t| u.arrival <= t.arrival);
                if pending.len() >= MAX_BATCH || !before_txn || at(u.arrival.as_secs()) > now {
                    break;
                }
                pending.push(wire_update(u));
                next_u = updates.next_update();
            }
            client.send(&pending, MAX_BATCH)?;
            sent.updates += pending.len() as u64;
            pending.clear();
        } else {
            let t = next_t.take().expect("checked");
            let due = at(t.arrival.as_secs());
            pace_until(due);
            sent.late_us.push(due.elapsed().as_secs_f64() * 1e6);
            client.send_txn(&wire_txn(&t))?;
            sent.txns += 1;
            next_t = txns.next_txn();
        }
    }
    Ok(sent)
}

/// One set-up of the workload: the simulator reference run, then a server
/// with a credit request already queued on its listener (see
/// [`CreditClient::request`]) up to its first reply. Returns the reference,
/// the server, the granted client and the seconds it all took.
///
/// The server part alone is six thread wake-ups, about 0.4 ms, and moves by
/// a fifth with the host's wake-up latency from one hour to the next; with
/// the reference run beside it the sum is steady.
fn set_up(
    ctx: &Ctx,
    sim: &SimConfig,
    cfg: &LiveConfig,
) -> std::io::Result<(RunReport, ServerHandle, CreditClient, f64)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let pending = CreditClient::request(listener.local_addr()?, ctx.trace.clone())?;
    let t = Instant::now();
    let _span = ctx.trace.span("setup");
    let reference = {
        let _span = ctx.trace.span("sim_reference");
        run_paper_sim(sim)
    };
    let handle = serve(cfg, listener)?;
    let client = pending.granted()?;
    Ok((reference, handle, client, t.elapsed().as_secs_f64()))
}

/// What the live run hands back: the simulator reference, the server's
/// final report, the seconds the replay took, every set-up time and every
/// query round trip.
struct LiveRun {
    reference: RunReport,
    report: RunReport,
    elapsed: f64,
    setups: Vec<f64>,
    rtt_us: Vec<f64>,
}

fn live_run(ctx: &Ctx, sim: &SimConfig, out: &mut Outcome) -> std::io::Result<LiveRun> {
    let cfg = LiveConfig::new(sim.clone()).expect("baseline runs live");
    // Set up several times on throw-away servers, then once for real.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let (_, handle, client, secs) = set_up(ctx, sim, &cfg)?;
        drop(client);
        handle.shutdown()?;
        setups.push(secs);
    }
    let (reference, handle, mut client, secs) = set_up(ctx, sim, &cfg)?;
    setups.push(secs);
    let addr = handle.addr();

    let stop = AtomicBool::new(false);
    let mut pick_rng = Xoshiro256pp::seed_from_u64(ctx.seed).substream(0x9E0B);
    let (n_low, n_high) = (sim.n_low, sim.n_high);
    let t0 = Instant::now();
    let (sent, log) = std::thread::scope(|s| {
        let prober = s.spawn(|| {
            probe(addr, PROBE_EVERY, &stop, &ctx.trace, || {
                let high = pick_rng.chance(0.5);
                WireQuery {
                    class: u8::from(high),
                    index: pick_rng.next_below(u64::from(if high { n_high } else { n_low })) as u32,
                }
            })
        });
        let sent = {
            let _span = ctx.trace.span("replay");
            replay(sim, &mut client, t0)
        };
        // Let the horizon pass before sampling the server.
        pace_until(t0 + Duration::from_secs_f64(sim.duration));
        stop.store(true, Ordering::Release);
        (sent, prober.join().expect("prober thread panicked"))
    });
    let (sent, log) = (sent?, log?);
    let stats = {
        let _span = ctx.trace.span("barrier_wait");
        client.stats()?
    };
    let elapsed = t0.elapsed().as_secs_f64();
    out.layer("executor.cpu_s", "s", thread_cpu_secs("stripd-exec"));
    out.layer("server.conn_cpu_s", "s", thread_cpu_secs("stripd-conn"));
    drop(client);
    let report = {
        let _span = ctx.trace.span("shutdown");
        handle.shutdown()?
    };

    out.attempted += sent.updates + sent.txns + log.rtt_us.len() as u64;
    out.failed += sent.updates.saturating_sub(stats.ingested)
        + sent.txns.saturating_sub(stats.txns_arrived)
        + log.failed;
    out.check(conserved(&stats), || {
        "ingested != applied + superseded + shed + queued".to_string()
    });
    out.check(stats.ingested == sent.updates, || {
        format!(
            "sent {} updates, server ingested {}",
            sent.updates, stats.ingested
        )
    });
    out.check(report.txns.arrived == sent.txns, || {
        format!(
            "sent {} transactions, server admitted {}",
            sent.txns, report.txns.arrived
        )
    });
    out.check(
        report.txns.finished() + report.txns.in_flight_at_end == report.txns.arrived,
        || "a transaction was never accounted for".to_string(),
    );
    out.check(
        report.updates.terminal_total() == report.updates.arrived,
        || "terminal_total != arrived at shutdown".to_string(),
    );
    out.check(log.failed == 0, || {
        format!("{} queries without a valid reply", log.failed)
    });
    let late = sorted(sent.late_us);
    let late_p99 = quantile(&late, 0.99);
    if late_p99 > MAX_LATE_P99_US {
        eprintln!("live_mix: note: generator ran {late_p99:.0} µs late at p99");
    }
    out.layer("loadgen.late_p99_us", "us", late_p99);
    Ok(LiveRun {
        reference,
        report,
        elapsed,
        setups,
        rtt_us: log.rtt_us,
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let duration = if ctx.quick { 3.0 } else { ctx.seconds };
    let sim = mix_config(ctx.seed, duration);
    let violations_before = out.violations.len();
    let LiveRun {
        reference,
        report,
        elapsed,
        setups,
        rtt_us,
    } = match live_run(ctx, &sim, &mut out) {
        Ok(r) => r,
        Err(e) => {
            out.violate(format!("live run: {e}"));
            return out;
        }
    };

    let (live_ps, sim_ps) = (report.txns.p_success(), reference.txns.p_success());
    let (live_md, sim_md) = (report.txns.p_md(), reference.txns.p_md());
    // Same seed, same generators: live and simulated runs saw one input.
    out.check(report.txns.arrived == reference.txns.arrived, || {
        format!(
            "server admitted {} transactions, the simulator {}",
            report.txns.arrived, reference.txns.arrived
        )
    });
    out.check(report.updates.arrived == reference.updates.arrived, || {
        format!(
            "server ingested {} updates, the simulator {}",
            report.updates.arrived, reference.updates.arrived
        )
    });
    for (what, live, sim) in [("psuccess", live_ps, sim_ps), ("p_md", live_md, sim_md)] {
        if (live - sim).abs() > SIM_TOLERANCE {
            eprintln!("live_mix: note: {what}: live {live:.4}, simulator {sim:.4}");
        }
    }
    out.layer("executor.rho_t", "frac", report.cpu.rho_t());
    out.layer("executor.rho_u", "frac", report.cpu.rho_u());
    out.layer("executor.p_md", "frac", live_md);
    out.layer("executor.fold_low", "frac", report.fold_low);
    out.layer("executor.fold_high", "frac", report.fold_high);
    out.layer("sim.p_success_gap", "frac", live_ps - sim_ps);
    out.layer("sim.p_md_gap", "frac", live_md - sim_md);
    let rtt = sorted(rtt_us);
    out.layer("executor.query_p50_us", "us", quantile(&rtt, 0.5));
    out.layer("executor.query_p90_us", "us", quantile(&rtt, 0.9));
    out.layer("executor.query_p99_us", "us", quantile(&rtt, 0.99));
    if out.violations.len() != violations_before {
        return out; // a failed check reports no rate
    }

    out.put(SETUP_S, Summary::quiet_low(&setups));
    // Goodput in the paper's sense: transactions that committed on time
    // having read only fresh data, per second.
    out.put(
        THROUGHPUT,
        Summary::single(report.txns.committed_fresh as f64 / elapsed),
    );
    out.put(SUCCESS_FRAC, Summary::single(live_ps));
    // Freshness per access: the share of view reads that saw fresh data.
    out.put(
        FRESH_FRAC,
        Summary::single(1.0 - report.txns.stale_read_fraction()),
    );
    out
}
