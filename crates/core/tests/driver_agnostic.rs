//! The scheduler core does not care who drives it.
//!
//! `run_simulation` drives [`Scheduler`] from the event calendar of
//! `strip-sim`. The driver below has no calendar: it keeps the arrivals in
//! two sorted lists and the armed watchdogs in two plain vectors, and at
//! every step advances to the earliest of (slice end, next arrival, next
//! deadline, next expiry, warm-up end). On the fig03 short grid — the four
//! algorithms at λt ∈ {2.5, 10, 20}, 5 simulated seconds — plus one point
//! with a 3×50×3 derived-view DAG and one per extension (value-density
//! preemption, historical views, rules, the disk model) it must produce
//! the very report the simulator produces from the same arrivals, byte
//! for byte. None of the extensions has a line of
//! driver code below: the driver hands the core's verdict back, no more.
//!
//! What the calendar adds to the comparison and this driver has to mimic:
//! `events_processed` also counts the completion event of a slice that was
//! cut (it stays on the calendar and is popped, stale, at the slice's
//! planned end), and events at equal times pop in scheduling order. The
//! arrivals here carry continuous random times, so the only ties are the
//! initial expiry watches clamped to t = 0, which commute.
//!
//! A driver may also hand back a stretch of update work in one call,
//! [`Scheduler::run_updates`]. The last test pins that call to the
//! `finish`/`next_slice` loop it stands for: the same driver, with the
//! same seeded choice of how far each run may go, once through the core's
//! run and once through that loop, must see the same runs, the same
//! watches, the same trace and the same report.
//!
//! A driver may likewise hand the arrivals of one instant over as a
//! block, [`Scheduler::on_updates`], as the live executor does. The final
//! test pins that call to the `on_update` calls it stands for.

use strip_core::config::{
    DagSpec, HistoryAccess, IoModel, Policy, SimConfig, SimConfigBuilder, TriggerConfig,
};
use strip_core::controller::run_simulation;
use strip_core::report::{ResilienceStats, RunReport};
use strip_core::scheduler::{initial_store, Scheduler, UpdateRun};
use strip_core::sources::{ScriptedTxns, ScriptedUpdates, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::{ExpiryWatch, StalenessSpec};
use strip_db::update::Update;
use strip_obs::{TraceConfig, TraceData};
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

/// Who hands a stretch of update work back to the core.
#[derive(Clone, Copy)]
enum Runner {
    /// [`Scheduler::run_updates`].
    Core,
    /// The `finish`/`next_slice` loop it stands for, spelled out.
    Loop,
}

/// The loop [`Scheduler::run_updates`] stands for: finish the update slice
/// that is out at its end, ask for the next at that instant, and stop as
/// the run contract says.
fn loop_run(
    core: &mut Scheduler,
    mut at: SimTime,
    mut secs: f64,
    until: SimTime,
    max: u32,
    arm: &mut impl FnMut(ExpiryWatch),
) -> UpdateRun {
    let mut finished = 0;
    loop {
        if finished == max || core.txn_on_cpu().is_some() || at + secs > until {
            let next = Some(secs);
            return UpdateRun { at, finished, next };
        }
        at += secs;
        if let Some(watch) = core.finish(at) {
            arm(watch);
        }
        finished += 1;
        let next = if finished == max {
            None
        } else {
            core.next_slice(at)
        };
        match next {
            Some(next) => secs = next,
            None => return UpdateRun { at, finished, next },
        }
    }
}

/// What one [`drive`] saw.
struct Driven {
    report: RunReport,
    runs: Vec<UpdateRun>,
    watches: Vec<ExpiryWatch>,
    trace: Option<TraceData>,
}

/// Runs `cfg` over the given arrivals with no event calendar. With a
/// `runner`, the end of an update slice starts a run instead of a lone
/// `finish`: as far as a seeded `until` — never past the next input — and
/// for at most a seeded `max` slices. Update work a run leaves out because
/// it ends past `until` is finished by itself at its end, as a driver
/// that burns it would.
fn drive(
    cfg: &SimConfig,
    updates: &[UpdateSpec],
    txns: &[TxnSpec],
    runner: Option<Runner>,
    traced: bool,
) -> Driven {
    let horizon = SimTime::from_secs(cfg.duration);
    let mut core = Scheduler::new(cfg.clone(), initial_store(cfg), 0);
    if traced {
        core.set_trace(TraceConfig {
            capacity: 1 << 20,
            gauge_every: None,
        });
    }
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
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed).substream(0x2A9);
    let (mut runs, mut watches) = (Vec::new(), Vec::new());

    loop {
        let inputs = [
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
        let input = inputs.into_iter().flatten().min_by(|a, b| a.0.cmp(&b.0));
        let Some((now, next)) = [slice.map(|(_, end)| (end, Next::SliceEnd)), input]
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
        let mut at = now;
        let runner = runner.filter(|_| core.txn_on_cpu().is_none());
        match next {
            Next::SliceEnd if runner.is_none() => {
                slice = None;
                if let Some(watch) = core.finish(now) {
                    watches.push(watch);
                    expiries.push((watch.at, watch));
                }
            }
            Next::SliceEnd => {
                let (started, end) = slice.take().expect("a slice is out");
                let secs = end.since(started);
                // Sometimes not even the first slice fits, sometimes a few
                // do, mostly everything up to the next input.
                let next_input = input.map_or(horizon, |(t, _)| t).min(horizon);
                let until = match rng.next_below(4) {
                    0 => started,
                    1 => started + secs * (1.0 + 3.0 * rng.next_f64()),
                    _ => next_input,
                }
                .min(next_input);
                let max = match rng.next_below(3) {
                    0 => 1,
                    1 => 1 + rng.next_below(8) as u32,
                    _ => u32::MAX,
                };
                let mut arm = |watch: ExpiryWatch| {
                    watches.push(watch);
                    expiries.push((watch.at, watch));
                };
                let run = match runner {
                    Some(Runner::Core) => core.run_updates(started, secs, until, max, &mut arm),
                    _ => loop_run(&mut core, started, secs, until, max, &mut arm),
                };
                assert!(run.finished <= max, "{run:?} past max {max}");
                assert!(
                    run.finished == 0 || run.at <= until,
                    "{run:?} past until {until:?}"
                );
                events += u64::from(run.finished);
                runs.push(run);
                at = run.at;
                if let Some(secs) = run.next {
                    slice = Some((at, at + secs));
                }
                if run.finished == 0 && core.txn_on_cpu().is_none() {
                    // Too long for `until`: it runs to its end by itself.
                    slice = None;
                    if let Some(watch) = core.finish(end) {
                        watches.push(watch);
                        expiries.push((watch.at, watch));
                    }
                    at = end;
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
                core.on_expiry(watch.object, now);
            }
            Next::WarmupEnd => {
                warmup = None;
                core.on_warmup_end(now);
            }
        }
        if slice.is_none() {
            slice = core.next_slice(at).map(|secs| (at, at + secs));
        }
    }
    if let Some((started, _)) = slice {
        core.interrupt(horizon.since(started), horizon);
    }
    Driven {
        report: core.report(horizon, events, ResilienceStats::default()),
        runs,
        watches,
        trace: core.take_trace(),
    }
}

fn assert_same_report(cfg: &SimConfig, label: &str) -> RunReport {
    let (updates, txns) = arrivals(cfg);
    assert!(
        updates.len() > 100 && txns.len() > 5,
        "{label}: thin workload"
    );
    let (simulated, _) = run_simulation(
        cfg,
        ScriptedUpdates::new(updates.clone()),
        ScriptedTxns::new(txns.clone()),
        None,
    )
    .unwrap();
    let driven = drive(cfg, &updates, &txns, None, false).report;
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
    let points: [(&str, SimConfigBuilder, Exercised); 3] = [
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

#[test]
fn a_run_of_update_work_is_the_finish_next_slice_loop_it_stands_for() {
    let base = || {
        SimConfig::builder()
            .lambda_t(10.0)
            .duration(5.0)
            .seed(0x5712_1995)
    };
    let mut points: Vec<(String, SimConfig)> = Vec::new();
    for policy in Policy::PAPER_SET {
        for lambda_t in [2.5, 10.0, 20.0] {
            let cfg = base().policy(policy).lambda_t(lambda_t).build();
            points.push((format!("{}/lt{lambda_t}", policy.label()), cfg.unwrap()));
        }
        let partial = base().policy(policy).attrs_per_object(4).build();
        points.push((format!("{}/partial", policy.label()), partial.unwrap()));
    }
    let extensions = [
        (
            "dag",
            base()
                .policy(Policy::OnDemand)
                .dag(Some(DagSpec::default())),
        ),
        ("history", base().history(Some(HistoryAccess::default()))),
        ("triggers", base().triggers(Some(TriggerConfig::default()))),
        (
            "io",
            base().policy(Policy::OnDemand).io(Some(IoModel::default())),
        ),
        (
            "txn_preemption",
            base()
                .policy(Policy::TransactionsFirst)
                .lambda_t(20.0)
                .txn_preemption(true),
        ),
    ];
    for (label, cfg) in extensions {
        points.push((label.to_string(), cfg.build().expect("a valid point")));
    }
    let mut longest = 0;
    for (label, cfg) in &points {
        let (mut updates, txns) = arrivals(cfg);
        if cfg.attrs_per_object > 1 {
            // Partial updates: a random non-empty subset of the attributes.
            let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed).substream(0x9A7);
            let attrs = u64::from(cfg.attrs_per_object);
            for u in &mut updates {
                u.attr_mask = 1 + rng.next_below((1 << attrs) - 1);
            }
        }
        for traced in [false, true] {
            let by_core = drive(cfg, &updates, &txns, Some(Runner::Core), traced);
            let by_loop = drive(cfg, &updates, &txns, Some(Runner::Loop), traced);
            let runs = &by_core.runs;
            assert!(runs.len() > 50, "{label}: {} runs", runs.len());
            assert!(runs.iter().any(|r| r.finished > 1), "{label}: no run");
            assert_eq!(by_core.trace.is_some(), traced, "{label}");
            assert!(by_core.trace.as_ref().is_none_or(|t| t.overwritten == 0));
            let label = format!("{label}, traced {traced}");
            assert_eq!(by_core.runs, by_loop.runs, "{label}: runs");
            assert_eq!(by_core.watches, by_loop.watches, "{label}: watches");
            assert!(by_core.trace == by_loop.trace, "{label}: traces");
            let (core_json, loop_json) = (by_core.report.to_json(), by_loop.report.to_json());
            assert_eq!(core_json, loop_json, "{label}: reports");
            longest = by_core
                .runs
                .iter()
                .map(|r| r.finished)
                .fold(longest, u32::max);
        }
    }
    assert!(longest > 8, "no run finished more than {longest} slices");
}

/// Finishes the update work and fires the expiries due by `until`, in
/// time order, lining up the next slice after each finished one.
fn settle(
    core: &mut Scheduler,
    slice: &mut Option<SimTime>,
    expiries: &mut Vec<ExpiryWatch>,
    until: SimTime,
) {
    loop {
        let due = |w: &ExpiryWatch| w.at.max(SimTime::ZERO);
        let expiry = (0..expiries.len()).min_by_key(|&i| due(&expiries[i]));
        let expiry_at = expiry.map(|i| due(&expiries[i]));
        match (*slice, expiry) {
            (Some(end), _) if end <= until && expiry_at.is_none_or(|at| end <= at) => {
                expiries.extend(core.finish(end));
                *slice = core.next_slice(end).map(|secs| end + secs);
            }
            (_, Some(i)) if expiry_at.is_some_and(|at| at <= until) => {
                let watch = expiries.swap_remove(i);
                core.on_expiry(watch.object, due(&watch));
            }
            _ => return,
        }
    }
}

/// What [`feed`] saw: the report, the trace, and each view object's
/// payload and version at the end, slot by slot.
struct Fed {
    report: RunReport,
    trace: Option<TraceData>,
    store: Vec<(f64, u64)>,
}

/// Runs `cfg` over `updates`, arrivals only, handing the arrivals of each
/// instant to the core as one block ([`Scheduler::on_updates`], entries
/// unstamped as a live session leaves them) or one at a time
/// ([`Scheduler::on_update`]), with nothing between them.
fn feed(cfg: &SimConfig, updates: &[UpdateSpec], blocks: bool, traced: bool) -> Fed {
    let horizon = SimTime::from_secs(cfg.duration);
    let mut core = Scheduler::new(cfg.clone(), initial_store(cfg), 0);
    if traced {
        core.set_trace(TraceConfig {
            capacity: 1 << 20,
            gauge_every: None,
        });
    }
    let mut expiries = core.initial_watches();
    // The planned end of the update slice that is out.
    let mut slice = None;
    for group in updates.chunk_by(|a, b| a.arrival == b.arrival) {
        let now = group[0].arrival;
        settle(&mut core, &mut slice, &mut expiries, now);
        if blocks {
            let block = group
                .iter()
                .map(|u| Update {
                    seq: u64::MAX,
                    object: u.object,
                    generation_ts: u.generation_ts,
                    arrival_ts: SimTime::ZERO,
                    payload: u.payload,
                    attr_mask: u.attr_mask,
                })
                .collect();
            assert!(core.on_updates(block, now).is_none());
        } else {
            for u in group {
                assert!(core.on_update(u, now).is_none());
            }
        }
        if slice.is_none() {
            slice = core.next_slice(now).map(|secs| now + secs);
        }
    }
    settle(&mut core, &mut slice, &mut expiries, horizon);
    if slice.is_some() {
        core.interrupt(0.0, horizon);
    }
    let store = (0..ViewObjectId::slots(cfg.n_low, cfg.n_high))
        .map(|slot| core.store().view(ViewObjectId::from_slot(slot)))
        .map(|v| (v.payload, v.version))
        .collect();
    Fed {
        report: core.report(horizon, 0, ResilienceStats::default()),
        trace: core.take_trace(),
        store,
    }
}

/// A block of arrivals at one instant is those arrivals one at a time:
/// the same report, the same trace and the same store, under the
/// criteria whose receive walks the block (UU, and MA with UU) and with a
/// trace, whose queue depths do, and through an OS queue the blocks
/// overflow; and a traced run reports what an untraced one does.
/// Generations are on a 10 ms grid, so an object often gets two updates
/// of one generation: the update queue orders those by the sequence
/// numbers the OS queue stamped, and which of the two installs shows in
/// the store's payload.
#[test]
fn a_block_of_arrivals_is_its_arrivals_one_at_a_time() {
    let points = [
        (Policy::UpdatesFirst, StalenessSpec::UnappliedUpdate),
        (
            Policy::TransactionsFirst,
            StalenessSpec::Either { alpha: 0.5 },
        ),
        (Policy::OnDemand, StalenessSpec::MaxAge { alpha: 0.5 }),
    ];
    for (policy, staleness) in points {
        let cfg = SimConfig::builder()
            .policy(policy)
            .staleness(staleness)
            .n_low(8)
            .n_high(8)
            .os_max(24)
            .lambda_t(1.0)
            .duration(3.0)
            .seed(0x5712_1995)
            .build()
            .expect("a valid point");
        // Arrival instants on a 100 ms grid: about 40 arrivals an instant,
        // more than the OS queue holds.
        let (mut updates, _) = arrivals(&cfg);
        let grid = |t: SimTime, step: f64| SimTime::from_secs((t.as_secs() / step).floor() * step);
        for u in &mut updates {
            u.arrival = grid(u.arrival, 0.1);
            u.generation_ts = grid(u.generation_ts, 0.01);
        }
        let mut untraced = None;
        for traced in [false, true] {
            let label = format!("{}/{staleness:?}, traced {traced}", policy.label());
            let one = feed(&cfg, &updates, false, traced);
            let block = feed(&cfg, &updates, true, traced);
            let json = one.report.to_json();
            assert_eq!(block.report.to_json(), json, "{label}: reports");
            assert!(block.trace == one.trace, "{label}: traces");
            assert_eq!(block.store, one.store, "{label}: stores");
            assert_eq!(*untraced.get_or_insert(json.clone()), json, "{label}");
            let updates = &one.report.updates;
            assert!(updates.os_dropped > 0, "{label}: no overflow");
            assert!(updates.installed_total() > 100, "{label}: thin run");
        }
    }
}
