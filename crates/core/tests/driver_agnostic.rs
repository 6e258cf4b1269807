//! The scheduler core does not care who drives it.
//!
//! `run_simulation` drives [`Scheduler`] from the event calendar of
//! `strip-sim`. The driver below has no calendar: it keeps the arrivals in
//! two sorted lists and the armed watchdogs in two plain vectors, and at
//! every step advances to the earliest of (slice end, next arrival, next
//! deadline, next expiry, warm-up end). On the fig03 short grid — the four
//! algorithms at λt ∈ {2.5, 10, 20}, 5 simulated seconds — plus one point
//! with a 3×50×3 derived-view DAG and one per extension (admission
//! control, value-density preemption, historical views, rules, the disk
//! model) it must produce the very report the simulator produces from the
//! same arrivals, byte for byte. None of the extensions has a line of
//! driver code below: the driver hands the core's verdict back, no more.
//!
//! What the calendar adds to the comparison and this driver has to mimic:
//! `events_processed` also counts the completion event of a slice that was
//! cut (it stays on the calendar and is popped, stale, at the slice's
//! planned end), and events at equal times pop in scheduling order. The
//! arrivals here carry continuous random times, so the only ties are the
//! initial expiry watches clamped to t = 0, which commute.

use strip_core::config::{
    AdmissionControl, DagSpec, HistoryAccess, IoModel, Policy, SimConfig, SimConfigBuilder,
    TriggerConfig,
};
use strip_core::controller::run_simulation;
use strip_core::report::{ResilienceStats, RunReport};
use strip_core::scheduler::{initial_store, Scheduler};
use strip_core::sources::{ScriptedTxns, ScriptedUpdates, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::ExpiryWatch;
use strip_sim::dist::{ClampedNormal, Distribution, Exponential, Uniform};
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

/// Poisson update and transaction streams at the rates and shapes `cfg`
/// names (Tables 1 and 2), drawn once so both drivers replay the same
/// arrivals.
fn arrivals(cfg: &SimConfig) -> (Vec<UpdateSpec>, Vec<TxnSpec>) {
    let root = Xoshiro256pp::seed_from_u64(cfg.seed);
    let object = |low: bool, rng: &mut Xoshiro256pp| {
        if low {
            ViewObjectId::new(Importance::Low, rng.next_below(u64::from(cfg.n_low)) as u32)
        } else {
            ViewObjectId::new(
                Importance::High,
                rng.next_below(u64::from(cfg.n_high)) as u32,
            )
        }
    };

    let mut rng = root.substream(1);
    let mut updates = Vec::new();
    let mut t = 0.0;
    loop {
        t += Exponential::from_rate(cfg.lambda_u).sample(&mut rng);
        if t > cfg.duration {
            break;
        }
        let age = Exponential::new(cfg.mean_update_age).sample(&mut rng);
        updates.push(UpdateSpec {
            arrival: SimTime::from_secs(t),
            object: object(rng.chance(cfg.p_update_low), &mut rng),
            generation_ts: SimTime::from_secs(t - age),
            payload: t,
            attr_mask: u64::MAX,
        });
    }

    let mut rng = root.substream(2);
    let dag_nodes = cfg.dag.map_or(0, |d| u64::from(d.depth * d.width));
    let mut txns = Vec::new();
    let mut t = 0.0;
    loop {
        t += Exponential::from_rate(cfg.lambda_t).sample(&mut rng);
        if t > cfg.duration {
            break;
        }
        let low = rng.chance(cfg.p_txn_low);
        let (value_mean, value_sd) = if low {
            (cfg.value_low_mean, cfg.value_low_sd)
        } else {
            (cfg.value_high_mean, cfg.value_high_sd)
        };
        let reads = ClampedNormal::new(cfg.reads_mean, cfg.reads_sd, 0.0)
            .sample(&mut rng)
            .round() as usize;
        txns.push(TxnSpec {
            id: txns.len() as u64 + 1,
            class: if low {
                Importance::Low
            } else {
                Importance::High
            },
            value: ClampedNormal::new(value_mean, value_sd, 0.0).sample(&mut rng),
            arrival: SimTime::from_secs(t),
            slack: Uniform::new(cfg.slack_min, cfg.slack_max).sample(&mut rng),
            compute_time: ClampedNormal::new(cfg.compute_mean, cfg.compute_sd, 0.0)
                .sample(&mut rng),
            reads: (0..reads).map(|_| object(low, &mut rng)).collect(),
            derived_reads: (0..dag_nodes.min(2))
                .map(|_| rng.next_below(dag_nodes) as u32)
                .collect(),
        });
    }
    (updates, txns)
}

/// What happens at the next instant.
#[derive(Clone, Copy)]
enum Next {
    SliceEnd,
    Update,
    Txn,
    Deadline(usize),
    Expiry(usize),
    WarmupEnd,
}

/// Runs `cfg` over the given arrivals with no event calendar.
fn drive(cfg: &SimConfig, updates: &[UpdateSpec], txns: &[TxnSpec]) -> RunReport {
    let horizon = SimTime::from_secs(cfg.duration);
    let mut core = Scheduler::new(cfg.clone(), initial_store(cfg), 0);
    // Armed watchdogs: (when, what).
    let mut expiries: Vec<(SimTime, ExpiryWatch)> = core
        .initial_watches()
        .into_iter()
        .map(|w| (w.at.max(SimTime::ZERO), w))
        .collect();
    let mut deadlines: Vec<(SimTime, u64)> = Vec::new();
    let mut warmup = (cfg.warmup > 0.0).then(|| SimTime::from_secs(cfg.warmup));
    let (mut next_update, mut next_txn) = (0, 0);
    // The slice on the CPU: (started, planned end).
    let mut slice: Option<(SimTime, SimTime)> = None;
    let mut events = 0u64;

    loop {
        let candidates = [
            slice.map(|(_, end)| (end, Next::SliceEnd)),
            updates.get(next_update).map(|u| (u.arrival, Next::Update)),
            txns.get(next_txn).map(|t| (t.arrival, Next::Txn)),
            (0..deadlines.len())
                .min_by(|&a, &b| deadlines[a].0.cmp(&deadlines[b].0))
                .map(|i| (deadlines[i].0, Next::Deadline(i))),
            (0..expiries.len())
                .min_by(|&a, &b| expiries[a].0.cmp(&expiries[b].0))
                .map(|i| (expiries[i].0, Next::Expiry(i))),
            warmup.map(|at| (at, Next::WarmupEnd)),
        ];
        let Some((now, next)) = candidates
            .into_iter()
            .flatten()
            .min_by(|a, b| a.0.cmp(&b.0))
        else {
            break;
        };
        if now > horizon {
            break;
        }
        events += 1;
        // Takes the slice off the CPU when the core asks for a cut;
        // returns how long it ran.
        let mut cut = || {
            let (started, end) = slice
                .take()
                .expect("the core cuts only a slice that is out");
            // The calendar would still pop the stale completion event.
            events += u64::from(end <= horizon);
            now.since(started)
        };
        match next {
            Next::SliceEnd => {
                slice = None;
                if let Some(watch) = core.finish(now) {
                    expiries.push((watch.at, watch));
                }
            }
            Next::Update => {
                next_update += 1;
                if let Some(verdict) = core.on_update(&updates[next_update - 1], now) {
                    core.preempt(verdict, cut(), now);
                }
            }
            Next::Txn => {
                next_txn += 1;
                let spec = txns[next_txn - 1].clone();
                let id = spec.id;
                let (deadline, verdict) = core.on_txn(spec, now);
                deadlines.push((deadline, id));
                if let Some(verdict) = verdict {
                    core.preempt(verdict, cut(), now);
                }
            }
            Next::Deadline(i) => {
                let (_, id) = deadlines.swap_remove(i);
                if core.txn_on_cpu().is_some_and(|t| t.id() == id) {
                    core.interrupt(cut(), now);
                }
                core.on_deadline(id, now);
            }
            Next::Expiry(i) => {
                let (_, watch) = expiries.swap_remove(i);
                core.on_expiry(watch, now);
            }
            Next::WarmupEnd => {
                warmup = None;
                core.on_warmup_end(now);
            }
        }
        if slice.is_none() {
            slice = core.next_slice(now).map(|secs| (now, now + secs));
        }
    }
    if let Some((started, _)) = slice {
        core.interrupt(horizon.since(started), horizon);
    }
    core.report(horizon, events, ResilienceStats::default())
}

fn assert_same_report(cfg: &SimConfig, label: &str) -> RunReport {
    let (updates, txns) = arrivals(cfg);
    assert!(
        updates.len() > 100 && txns.len() > 5,
        "{label}: thin workload"
    );
    let simulated = run_simulation(
        cfg,
        ScriptedUpdates::new(updates.clone()),
        ScriptedTxns::new(txns.clone()),
    );
    let driven = drive(cfg, &updates, &txns);
    assert!(simulated.txns.committed > 0, "{label}: nothing committed");
    assert_eq!(driven.to_json(), simulated.to_json(), "{label}");
    driven
}

#[test]
fn calendar_free_driver_reproduces_the_simulator_on_the_fig03_short_grid() {
    for policy in Policy::PAPER_SET {
        for lambda_t in [2.5, 10.0, 20.0] {
            let cfg = SimConfig::builder()
                .policy(policy)
                .lambda_t(lambda_t)
                .duration(5.0)
                .seed(0x5712_1995)
                .build()
                .expect("fig03 point is a valid config");
            assert_same_report(&cfg, &format!("{}/lt{lambda_t}", policy.label()));
        }
    }
}

#[test]
fn calendar_free_driver_reproduces_the_simulator_with_a_view_dag() {
    let cfg = SimConfig::builder()
        .policy(Policy::OnDemand)
        .lambda_t(10.0)
        .duration(5.0)
        .seed(0x5712_1995)
        .dag(Some(DagSpec::default()))
        .build()
        .expect("dag point is a valid config");
    let spec = cfg.dag.expect("dag configured");
    assert_eq!((spec.depth, spec.width, spec.fanout), (3, 50, 3));
    assert_same_report(&cfg, "dag3x50x3/OD");
}

#[test]
fn calendar_free_driver_reproduces_the_simulator_with_every_extension() {
    let base = || {
        SimConfig::builder()
            .lambda_t(10.0)
            .duration(5.0)
            .seed(0x5712_1995)
    };
    // Each point: the extension switched on over a fig03 point, and the
    // counter that shows the run exercised it.
    type Exercised = fn(&RunReport) -> u64;
    let points: [(&str, SimConfigBuilder, Exercised); 4] = [
        (
            "admission",
            base().lambda_t(20.0).admission(Some(AdmissionControl {
                util_threshold: 0.5,
            })),
            |r| r.updates.admission_shed,
        ),
        (
            "history",
            base().history(Some(HistoryAccess::default())),
            |r| r.history.appends.min(r.history.historical_reads),
        ),
        (
            "triggers",
            base().triggers(Some(TriggerConfig::default())),
            |r| r.triggers.executed,
        ),
        (
            "io",
            base().policy(Policy::OnDemand).io(Some(IoModel::default())),
            |r| r.cpu.io_misses_installs.min(r.cpu.io_misses_reads),
        ),
    ];
    for (label, cfg, exercised) in points {
        let cfg = cfg.build().expect("extension point is valid");
        let report = assert_same_report(&cfg, label);
        assert!(exercised(&report) > 0, "{label}: never exercised");
    }
    // Value-density preemption has no counter of its own: it is exercised
    // when out-bidding changes what the same arrivals lead to.
    let [plain, preempting] = [false, true].map(|on| {
        let cfg = base()
            .policy(Policy::TransactionsFirst)
            .lambda_t(20.0)
            .txn_preemption(on)
            .build()
            .expect("extension point is valid");
        assert_same_report(&cfg, "txn_preemption")
    });
    assert_ne!(plain.to_json(), preempting.to_json(), "nobody was out-bid");
}
