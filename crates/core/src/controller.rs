//! The simulator driver: the scheduler core under a virtual clock.
//!
//! Every scheduling decision lives in [`crate::scheduler`]; this module
//! only supplies time. The [`Controller`] pulls arrivals from its workload
//! sources, keeps them and the deadline/expiry watchdogs on the event
//! calendar, turns each slice the core puts on the CPU into a `CpuDone`
//! event at `now + secs`, and cuts that slice when an arrival's verdict
//! asks for a preemption. The `strip-live` executor is the other driver of
//! the same core: it burns slices on the wall clock instead.

use strip_db::object::Importance;
use strip_db::staleness::ExpiryWatch;
use strip_obs::{TraceConfig, TraceData};
use strip_sim::engine::{Ctx, Engine, Simulation};
use strip_sim::time::SimTime;

use crate::config::{ConfigError, SimConfig};
use crate::report::{ResilienceStats, RunReport};
use crate::scheduler::{initial_store, Preempt, Scheduler};
use crate::sources::{TxnSource, UpdateSource, UpdateSpec};
use crate::txn::TxnSpec;

/// Events of the controller model.
#[derive(Debug, Clone)]
pub enum Event {
    /// An external update arrives at the system.
    UpdateArrival(UpdateSpec),
    /// A transaction arrives.
    TxnArrival(TxnSpec),
    /// The current CPU slice completes (valid only for the matching epoch).
    CpuDone {
        /// Epoch the slice was started under; stale epochs are ignored.
        epoch: u64,
    },
    /// Firm-deadline watchdog for one transaction.
    Deadline {
        /// Transaction id.
        txn_id: u64,
    },
    /// MA staleness watchdog for one installed value.
    Expiry(ExpiryWatch),
    /// End of the metric warm-up window.
    WarmupEnd,
}

/// The slice on the CPU, as the calendar knows it (the work itself stays
/// in the core).
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// Matches the `CpuDone` event that ends it.
    epoch: u64,
    started: SimTime,
}

/// The controller simulation: drives the [`Scheduler`] from workload
/// sources on an event calendar, producing a [`RunReport`].
pub struct Controller<U, T> {
    core: Scheduler,
    cpu: Option<Slice>,
    epoch: u64,
    update_src: U,
    txn_src: T,
    horizon: SimTime,
    /// Outage window from the disturbance spec (robustness extension),
    /// driving the staleness-recovery measurement.
    outage: Option<(SimTime, SimTime)>,
    /// Stale-object count sampled at the first event inside the outage.
    outage_baseline: Option<f64>,
    /// First post-outage event at which staleness was back at (or below)
    /// the baseline.
    recovery_at: Option<SimTime>,
}

impl<U: UpdateSource, T: TxnSource> Controller<U, T> {
    /// Builds a controller for `cfg`, initialising view objects with
    /// steady-state exponential ages (see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    #[must_use]
    pub fn new(cfg: SimConfig, update_src: U, txn_src: T) -> Self {
        Self::try_new(cfg, update_src, txn_src).expect("invalid SimConfig")
    }

    /// Fallible variant of [`Controller::new`]: surfaces the validation
    /// error instead of panicking, so sweep drivers can report a bad
    /// config point without aborting the whole campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` fails validation.
    pub fn try_new(cfg: SimConfig, update_src: U, txn_src: T) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let outage = cfg
            .disturbance
            .and_then(|d| d.outage_window())
            .map(|(from, to)| (SimTime::from_secs(from), SimTime::from_secs(to)));
        let store = initial_store(&cfg);
        Ok(Controller {
            horizon: SimTime::from_secs(cfg.duration),
            core: Scheduler::new(cfg, store, 0),
            cpu: None,
            epoch: 0,
            update_src,
            txn_src,
            outage,
            outage_baseline: None,
            recovery_at: None,
        })
    }

    /// Primes the engine with the first arrivals, the warm-up boundary and
    /// the initial staleness watchdogs.
    pub fn prime(&mut self, engine: &mut Engine<Event>) {
        for watch in self.core.initial_watches() {
            engine.prime(watch.at.max(SimTime::ZERO), Event::Expiry(watch));
        }
        let warmup = self.core.config().warmup;
        if warmup > 0.0 {
            engine.prime(SimTime::from_secs(warmup), Event::WarmupEnd);
        }
        if let Some(u) = self.update_src.next_update() {
            engine.prime(u.arrival, Event::UpdateArrival(u));
        }
        if let Some(t) = self.txn_src.next_txn() {
            engine.prime(t.arrival, Event::TxnArrival(t));
        }
    }

    /// Consumes the controller and produces the final report; `end` is the
    /// simulation horizon, `events` the engine's processed-event count.
    #[must_use]
    pub fn finalize(self, end: SimTime, events: u64) -> RunReport {
        self.finalize_traced(end, events).0
    }

    /// Like [`Controller::finalize`], but also returns the flight
    /// recorder's capture (`None` when tracing was never enabled).
    #[must_use]
    pub fn finalize_traced(mut self, end: SimTime, events: u64) -> (RunReport, Option<TraceData>) {
        // Cut any slice still on the CPU at the horizon: it is charged up
        // to `end` and closed in the trace, and update work stays in
        // flight.
        if let Some(slice) = self.cpu {
            self.core.interrupt(end.since(slice.started), end);
        }
        let stream = self.update_src.disturbance_stats();
        let resilience = ResilienceStats {
            duplicated: stream.duplicated,
            reordered: stream.reordered,
            outage_held: stream.outage_held,
            burst_grouped: stream.burst_grouped,
            // Filled in from the update counters by `Metrics::finalize`.
            admission_shed: 0,
            recovery_secs: match (self.outage, self.recovery_at) {
                (Some((_, outage_end)), Some(at)) => Some(at.since(outage_end)),
                _ => None,
            },
        };
        let report = self.core.report(end, events, resilience);
        (report, self.core.take_trace())
    }

    /// Read-only access to the scheduler core: its store, staleness
    /// tracker and queues (for examples and tests).
    #[must_use]
    pub fn core(&self) -> &Scheduler {
        &self.core
    }

    /// Installs a flight recorder; subsequent scheduling points are
    /// recorded into it. Tracing is observation-only: it must not (and by
    /// construction cannot) change the simulated schedule.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.core.set_trace(cfg);
    }

    // ---- resilience (robustness extension) ----------------------------------

    /// Currently-stale view objects across both classes (UU/MA per the
    /// configured criterion).
    fn stale_total(&self) -> f64 {
        let tracker = self.core.tracker();
        tracker.stale_count(Importance::Low) + tracker.stale_count(Importance::High)
    }

    /// Tracks staleness recovery around a configured outage window,
    /// sampled at event granularity: the baseline is the stale count at
    /// the first event inside the outage (arrivals have just stopped, so
    /// this is the pre-outage operating level), and recovery is the first
    /// post-outage event at which the count is back at or below it.
    fn note_resilience(&mut self, now: SimTime) {
        let Some((start, end)) = self.outage else {
            return;
        };
        if self.recovery_at.is_some() || now < start {
            return;
        }
        let Some(baseline) = self.outage_baseline else {
            self.outage_baseline = Some(self.stale_total());
            return;
        };
        if now >= end && self.stale_total() <= baseline {
            self.recovery_at = Some(now);
        }
    }

    // ---- the CPU ------------------------------------------------------------

    /// If the CPU is free, asks the core for the next slice and schedules
    /// its completion.
    fn dispatch(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        if self.cpu.is_some() {
            return;
        }
        if let Some(secs) = self.core.next_slice(now) {
            self.epoch += 1;
            self.cpu = Some(Slice {
                epoch: self.epoch,
                started: now,
            });
            ctx.schedule_at(now + secs, Event::CpuDone { epoch: self.epoch });
        }
    }

    /// Frees the CPU on an arrival's verdict, if it gave one, and hands
    /// the verdict back to the core. The cut slice's `CpuDone` stays on the
    /// calendar and is ignored when it pops, no later slice having its
    /// epoch.
    fn preempt(&mut self, verdict: Option<Preempt>, now: SimTime) {
        if let Some((verdict, slice)) = verdict.zip(self.cpu) {
            self.cpu = None;
            self.core.preempt(verdict, now.since(slice.started), now);
        }
    }
}

impl<U: UpdateSource, T: TxnSource> Simulation for Controller<U, T> {
    type Event = Event;

    fn handle(&mut self, event: Event, ctx: &mut Ctx<'_, Event>) {
        let now = ctx.now();
        if now > self.horizon {
            return;
        }
        self.note_resilience(now);
        // The calendar breaks ties by scheduling order, so each arm keeps
        // the order: watchdogs, then the next arrival, then (in
        // `dispatch`) the slice completion.
        match event {
            Event::UpdateArrival(spec) => {
                let verdict = self.core.on_update(&spec, now);
                if let Some(next) = self.update_src.next_update() {
                    ctx.schedule_at(next.arrival, Event::UpdateArrival(next));
                }
                self.preempt(verdict, now);
            }
            Event::TxnArrival(spec) => {
                let txn_id = spec.id;
                let (deadline, verdict) = self.core.on_txn(spec, now);
                ctx.schedule_at(deadline, Event::Deadline { txn_id });
                if let Some(next) = self.txn_src.next_txn() {
                    ctx.schedule_at(next.arrival, Event::TxnArrival(next));
                }
                self.preempt(verdict, now);
            }
            Event::CpuDone { epoch } => {
                if self.cpu.is_none_or(|slice| slice.epoch != epoch) {
                    return; // stale completion from a preempted slice
                }
                self.cpu = None;
                if let Some(watch) = self.core.finish(now) {
                    ctx.schedule_at(watch.at, Event::Expiry(watch));
                }
            }
            Event::Deadline { txn_id } => {
                if self.core.txn_on_cpu().is_some_and(|t| t.id() == txn_id) {
                    if let Some(slice) = self.cpu.take() {
                        self.core.interrupt(now.since(slice.started), now);
                    }
                }
                self.core.on_deadline(txn_id, now);
            }
            Event::Expiry(watch) => self.core.on_expiry(watch, now),
            Event::WarmupEnd => self.core.on_warmup_end(now),
        }
        self.dispatch(now, ctx);
    }

    /// Gauge sampling rides the engine's observation hook rather than
    /// calendar events, so a traced run processes exactly the same event
    /// sequence (and `events_processed` count) as an untraced one.
    fn after_event(&mut self, now: SimTime) {
        self.core.sample_gauges(now);
    }
}

/// Runs one complete simulation of `cfg` against the given sources.
///
/// # Example
///
/// ```
/// use strip_core::config::{Policy, SimConfig};
/// use strip_core::controller::run_simulation;
/// use strip_core::sources::{NoArrivals, ScriptedTxns};
/// use strip_core::txn::TxnSpec;
/// use strip_db::object::Importance;
/// use strip_sim::time::SimTime;
///
/// let cfg = SimConfig::builder()
///     .lambda_u(0.0)
///     .lambda_t(0.0)
///     .policy(Policy::TransactionsFirst)
///     .duration(5.0)
///     .build()
///     .unwrap();
/// let txns = ScriptedTxns::new(vec![TxnSpec {
///     id: 1,
///     class: Importance::Low,
///     value: 2.0,
///     arrival: SimTime::from_secs(1.0),
///     slack: 0.5,
///     compute_time: 0.1,
///     reads: vec![],
///     derived_reads: vec![],
/// }]);
/// let report = run_simulation(&cfg, NoArrivals, txns);
/// assert_eq!(report.txns.committed, 1);
/// assert!((report.av() - 2.0 / 5.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn run_simulation<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
) -> RunReport {
    run_simulation_checked(cfg, update_src, txn_src).expect("invalid SimConfig")
}

/// Fallible variant of [`run_simulation`]: surfaces config-validation
/// failures as a value so sweep drivers can record them per point.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_simulation_checked<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
) -> Result<RunReport, ConfigError> {
    let mut controller = Controller::try_new(cfg.clone(), update_src, txn_src)?;
    let mut engine = Engine::with_capacity(cfg.calendar_capacity_hint());
    controller.prime(&mut engine);
    let horizon = SimTime::from_secs(cfg.duration);
    engine.run_until(&mut controller, horizon);
    Ok(controller.finalize(horizon, engine.events_processed()))
}

/// Like [`run_simulation_checked`], but with a flight recorder attached:
/// returns the capture alongside the report. The report is bit-identical
/// to the untraced run's — tracing is observation-only.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_simulation_traced<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
    trace: TraceConfig,
) -> Result<(RunReport, TraceData), ConfigError> {
    let mut controller = Controller::try_new(cfg.clone(), update_src, txn_src)?;
    controller.set_trace(trace);
    let mut engine = Engine::with_capacity(cfg.calendar_capacity_hint());
    controller.prime(&mut engine);
    let horizon = SimTime::from_secs(cfg.duration);
    engine.run_until(&mut controller, horizon);
    let (report, data) = controller.finalize_traced(horizon, engine.events_processed());
    Ok((
        report,
        data.expect("trace sink was installed before the run"),
    ))
}
