//! The simulator driver: the scheduler core under a virtual clock.
//!
//! Every scheduling decision lives in [`crate::scheduler`]; this module
//! only supplies time. The [`Controller`] owns the event calendar and runs
//! the simulator's one loop ([`Controller::run_until`]): it pulls arrivals
//! from its workload sources, keeps them and the deadline/expiry watchdogs
//! on the calendar, turns each slice the core puts on the CPU into a
//! `CpuDone` event at `now + secs`, and cuts that slice when an arrival's
//! verdict asks for a preemption. The `strip-live` executor is the other
//! driver of the same core: it burns slices on the wall clock instead.

use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::ExpiryWatch;
use strip_obs::{TraceConfig, TraceData};
use strip_sim::event::EventQueue;
use strip_sim::time::SimTime;

use crate::config::{ConfigError, SimConfig};
use crate::report::{ResilienceStats, RunReport};
use crate::scheduler::{initial_store, Preempt, Scheduler};
use crate::sources::{TxnSource, UpdateSource, UpdateSpec};
use crate::txn::TxnSpec;

/// Events of the controller model. They carry no payload the calendar key
/// already holds: each source has exactly one arrival pending, whose spec
/// waits in the [`Controller`], and an expiry's instant is its key. So an
/// event is 16 bytes and the calendar moves no more than that.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// The pending external update (`Controller::next_update`) arrives.
    UpdateArrival,
    /// The pending transaction (`Controller::next_txn`) arrives.
    TxnArrival,
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
    /// MA staleness watchdog for one installed value; it fires at the
    /// watch's instant, so only its object rides along.
    Expiry {
        /// Object to re-examine.
        object: ViewObjectId,
    },
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
/// sources on its own event calendar, producing a [`RunReport`].
pub struct Controller<U, T> {
    calendar: EventQueue<Event>,
    /// Events popped so far, stale `CpuDone`s included.
    events: u64,
    core: Scheduler,
    cpu: Option<Slice>,
    epoch: u64,
    update_src: U,
    txn_src: T,
    /// The update whose `UpdateArrival` is on the calendar.
    next_update: Option<UpdateSpec>,
    /// The transaction whose `TxnArrival` is on the calendar.
    next_txn: Option<TxnSpec>,
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
    /// steady-state exponential ages (see DESIGN.md), and puts the initial
    /// staleness watchdogs, the warm-up boundary and the first arrivals on
    /// a calendar sized by [`SimConfig::calendar_capacity_hint`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` fails validation.
    pub fn new(cfg: SimConfig, update_src: U, txn_src: T) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let outage = cfg
            .disturbance
            .and_then(|d| d.outage_window())
            .map(|(from, to)| (SimTime::from_secs(from), SimTime::from_secs(to)));
        let store = initial_store(&cfg);
        let mut c = Controller {
            calendar: EventQueue::with_capacity(cfg.calendar_capacity_hint()),
            events: 0,
            horizon: SimTime::from_secs(cfg.duration),
            core: Scheduler::new(cfg, store, 0),
            cpu: None,
            epoch: 0,
            update_src,
            txn_src,
            next_update: None,
            next_txn: None,
            outage,
            outage_baseline: None,
            recovery_at: None,
        };
        for ExpiryWatch { object, at } in c.core.initial_watches() {
            c.calendar
                .schedule(at.max(SimTime::ZERO), Event::Expiry { object });
        }
        let warmup = c.core.config().warmup;
        if warmup > 0.0 {
            c.calendar
                .schedule(SimTime::from_secs(warmup), Event::WarmupEnd);
        }
        c.next_update = c.update_src.next_update();
        if let Some(u) = &c.next_update {
            c.calendar.schedule(u.arrival, Event::UpdateArrival);
        }
        c.next_txn = c.txn_src.next_txn();
        if let Some(t) = &c.next_txn {
            c.calendar.schedule(t.arrival, Event::TxnArrival);
        }
        Ok(c)
    }

    /// The calendar, read-only (for diagnostics: pending count, capacity).
    #[must_use]
    pub fn calendar(&self) -> &EventQueue<Event> {
        &self.calendar
    }

    /// The simulator's run loop: handles every pending event due at or
    /// before `end` (and the horizon), in calendar order, sampling the
    /// gauges after each. Resumable: a run in steps handles the same
    /// events as one call.
    ///
    /// Gauges are sampled per handled event rather than on the calendar,
    /// so a traced run pops exactly the events (and counts exactly the
    /// `events_processed`) of an untraced one.
    pub fn run_until(&mut self, end: SimTime) {
        let end = end.min(self.horizon);
        while self.calendar.peek_time().is_some_and(|t| t <= end) {
            let (now, event) = self.calendar.pop().expect("a peeked event pops");
            self.events += 1;
            self.handle(event, now);
            self.core.sample_gauges(now);
        }
    }

    /// Consumes the controller and produces the report at the horizon,
    /// with the flight recorder's capture (`None` when tracing was never
    /// enabled).
    #[must_use]
    pub fn finish(mut self) -> (RunReport, Option<TraceData>) {
        let end = self.horizon;
        // Cut any slice still on the CPU at the horizon: it is charged up
        // to `end` and closed in the trace, and update work stays in
        // flight.
        if let Some(slice) = self.cpu {
            self.core.interrupt(end.since(slice.started), end);
        }
        let resilience = ResilienceStats {
            outage_held: self.update_src.outage_held(),
            recovery_secs: match (self.outage, self.recovery_at) {
                (Some((_, outage_end)), Some(at)) => Some(at.since(outage_end)),
                _ => None,
            },
            ..ResilienceStats::default()
        };
        let report = self.core.report(end, self.events, resilience);
        (report, self.core.take_trace())
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
    fn dispatch(&mut self, now: SimTime) {
        if self.cpu.is_some() {
            return;
        }
        if let Some(secs) = self.core.next_slice(now) {
            self.epoch += 1;
            self.cpu = Some(Slice {
                epoch: self.epoch,
                started: now,
            });
            self.calendar
                .schedule(now + secs, Event::CpuDone { epoch: self.epoch });
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

    // ---- events -------------------------------------------------------------

    /// Handles one event at its instant `now`.
    fn handle(&mut self, event: Event, now: SimTime) {
        self.note_resilience(now);
        // The calendar breaks ties by scheduling order, so each arm keeps
        // the order: watchdogs, then the next arrival, then (in
        // `dispatch`) the slice completion.
        match event {
            Event::UpdateArrival => {
                debug_assert!(self.next_update.is_some(), "update marker without a spec");
                let Some(spec) = self.next_update.take() else {
                    return;
                };
                let verdict = self.core.on_update(&spec, now);
                self.next_update = self.update_src.next_update();
                if let Some(next) = &self.next_update {
                    self.calendar.schedule(next.arrival, Event::UpdateArrival);
                }
                self.preempt(verdict, now);
            }
            Event::TxnArrival => {
                debug_assert!(self.next_txn.is_some(), "transaction marker without a spec");
                let Some(spec) = self.next_txn.take() else {
                    return;
                };
                let txn_id = spec.id;
                let (deadline, verdict) = self.core.on_txn(spec, now);
                self.calendar.schedule(deadline, Event::Deadline { txn_id });
                self.next_txn = self.txn_src.next_txn();
                if let Some(next) = &self.next_txn {
                    self.calendar.schedule(next.arrival, Event::TxnArrival);
                }
                self.preempt(verdict, now);
            }
            Event::CpuDone { epoch } => {
                if self.cpu.is_none_or(|slice| slice.epoch != epoch) {
                    return; // stale completion from a preempted slice
                }
                self.cpu = None;
                if let Some(ExpiryWatch { object, at }) = self.core.finish(now) {
                    self.calendar.schedule(at, Event::Expiry { object });
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
            Event::Expiry { object } => {
                // A superseded watch answers its object's later expiry,
                // which the superseding install put on the calendar itself.
                let _later = self.core.on_expiry(object, now);
            }
            Event::WarmupEnd => self.core.on_warmup_end(now),
        }
        self.dispatch(now);
    }
}

/// Runs one complete simulation of `cfg` against the given sources, with
/// a flight recorder attached when `trace` is given. The report is
/// bit-identical either way — tracing is observation-only — and the
/// capture is `Some` exactly when `trace` was.
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
/// let (report, trace) = run_simulation(&cfg, NoArrivals, txns, None).unwrap();
/// assert!(trace.is_none());
/// assert_eq!(report.txns.committed, 1);
/// assert!((report.av() - 2.0 / 5.0).abs() < 1e-12);
/// ```
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_simulation<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
    trace: Option<TraceConfig>,
) -> Result<(RunReport, Option<TraceData>), ConfigError> {
    let mut controller = Controller::new(cfg.clone(), update_src, txn_src)?;
    if let Some(trace) = trace {
        controller.core.set_trace(trace);
    }
    controller.run_until(controller.horizon);
    Ok(controller.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strip_sim::event::EventQueue;

    /// The calendar moves each event into and out of a slab slot: a payload
    /// put back into `Event` would grow every one of the ≈ 2 800 pending
    /// slots of a baseline run.
    #[test]
    fn events_and_their_calendar_slots_stay_small() {
        let (event, slot) = (
            std::mem::size_of::<Event>(),
            EventQueue::<Event>::SLOT_BYTES,
        );
        assert!(event <= 16, "Event is {event} bytes");
        assert!(slot <= 48, "a calendar slot is {slot} bytes");
    }
}
