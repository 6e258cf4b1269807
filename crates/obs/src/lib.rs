//! `strip-obs` — trace-level observability for the update-streams
//! reproduction.
//!
//! The controller argues its results from aggregate counters; this crate
//! makes the *schedule itself* inspectable. It provides
//!
//! * [`TraceSink`] — a ring-buffered flight recorder of typed
//!   [`TraceRecord`]s (dispatch decisions, preemptions, installs by path,
//!   aborts by reason, queue-depth changes), each stamped with sim-time;
//! * periodic [`GaugeSample`]s (OS/update-queue depth, ready-queue length,
//!   per-class stale counts, cumulative ρt/ρu) at a configurable cadence;
//! * exporters: Chrome trace-event JSON ([`chrome_trace_json`], loadable in
//!   Perfetto with one track per activity, matching the paper's Fig 3 CPU
//!   split) and CSV ([`records_csv`], [`gauges_csv`]).
//!
//! **Read-only guarantee.** Observers never feed back into the simulation:
//! the sink owns no RNG, schedules no events, and is consulted only behind
//! an `Option` that is `None` unless tracing was requested. A traced run
//! therefore produces a bit-identical `RunReport` to an untraced one, at
//! any gauge cadence (enforced by the golden-equivalence tests).

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Which CPU track a slice is charged to, mirroring the paper's Fig 3
/// split of processor time into transaction work (ρt) and update work (ρu).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTrack {
    /// Transaction work (plan segments, I/O stalls).
    Txn,
    /// Update work (receives, queue transfers, scans, installs, rules).
    Update,
}

impl TraceTrack {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceTrack::Txn => "txn",
            TraceTrack::Update => "update",
        }
    }
}

/// What kind of work a CPU slice performs (the dispatch decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceJob {
    /// A transaction plan segment (work or view-read lookup).
    Segment,
    /// A staleness scan of the update queue.
    StaleScan,
    /// An on-demand apply of a queued update (OD).
    OdApply,
    /// A buffer-pool miss stall (disk extension).
    IoStall,
    /// Installing one update (lookup + write).
    Install,
    /// Moving an OS-queue arrival into the update queue.
    QueueTransfer,
    /// Executing one fired rule (triggers extension).
    RuleExec,
    /// Applying one pending derived-view delta in the background
    /// (derived-view DAG extension).
    DagApply,
    /// A recursive on-demand refresh of a derived node's stale ancestor
    /// cone, performed inside a transaction slice (derived-view DAG
    /// extension).
    DagRefresh,
}

impl TraceJob {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceJob::Segment => "segment",
            TraceJob::StaleScan => "stale_scan",
            TraceJob::OdApply => "od_apply",
            TraceJob::IoStall => "io_stall",
            TraceJob::Install => "install",
            TraceJob::QueueTransfer => "queue_transfer",
            TraceJob::RuleExec => "rule_exec",
            TraceJob::DagApply => "dag_apply",
            TraceJob::DagRefresh => "dag_refresh",
        }
    }
}

/// How an install reached the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePath {
    /// Drained from the update queue while the CPU was free.
    Background,
    /// Applied straight off the OS queue (UF always, SU high class).
    Immediate,
    /// Applied during a transaction's view read (OD).
    OnDemand,
}

impl TracePath {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TracePath::Background => "background",
            TracePath::Immediate => "immediate",
            TracePath::OnDemand => "on_demand",
        }
    }
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAbort {
    /// Firm-deadline watchdog fired.
    MissedDeadline,
    /// Purged by the feasible-deadline policy.
    Infeasible,
    /// A view read observed stale data (abort-on-stale mode).
    StaleRead,
}

impl TraceAbort {
    /// Stable lowercase label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceAbort::MissedDeadline => "missed_deadline",
            TraceAbort::Infeasible => "infeasible",
            TraceAbort::StaleRead => "stale_read",
        }
    }
}

/// The typed payload of one trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// The scheduler granted the CPU to `job` for `secs` seconds — this is
    /// the dispatch decision at a scheduling point.
    SliceStart {
        /// Activity track the slice is charged to.
        track: TraceTrack,
        /// The chosen job.
        job: TraceJob,
        /// Planned slice length, seconds.
        secs: f64,
    },
    /// A slice left the CPU (ran to completion, or was interrupted).
    SliceEnd {
        /// Activity track the slice was charged to.
        track: TraceTrack,
        /// The job that was running.
        job: TraceJob,
        /// True when the slice was cut short by a preemption/abort.
        interrupted: bool,
    },
    /// A running transaction was preempted by an arrival; the next update
    /// slice owes the `2·x_switch` receive cost.
    Preempt {
        /// Id of the preempted transaction.
        txn: u64,
        /// Context-switch cost charged (seconds).
        cost_secs: f64,
    },
    /// An update finished its install slice.
    Install {
        /// How the install was triggered.
        path: TracePath,
        /// True for the high-importance partition.
        high_class: bool,
        /// True when the lookup found a value at least as recent, so the
        /// write was skipped.
        superseded: bool,
    },
    /// A transaction aborted.
    Abort {
        /// Transaction id.
        txn: u64,
        /// Why it aborted.
        reason: TraceAbort,
    },
    /// A transaction committed on time.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// The OS/update queue depths changed.
    QueueDepth {
        /// OS-queue length after the change.
        os: u32,
        /// Update-queue length after the change.
        uq: u32,
    },
}

/// One trace record: a sim-time stamp plus a typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulation time, seconds.
    pub at: f64,
    /// The typed payload.
    pub kind: TraceKind,
}

/// Instantaneous gauge values read at a sampling tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GaugeValues {
    /// OS-queue depth.
    pub os_depth: u32,
    /// Update-queue depth.
    pub uq_depth: u32,
    /// Ready-queue length (waiting transactions).
    pub ready_len: u32,
    /// Currently-stale low-importance objects.
    pub stale_low: f64,
    /// Currently-stale high-importance objects.
    pub stale_high: f64,
    /// Cumulative transaction CPU fraction since t=0.
    pub rho_t: f64,
    /// Cumulative update CPU fraction since t=0.
    pub rho_u: f64,
}

/// One periodic gauge sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Nominal tick time (a multiple of the cadence), seconds.
    pub at: f64,
    /// The values read at the first event at or after the tick.
    pub values: GaugeValues,
}

/// Configuration of a trace capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Ring capacity: at most this many records are retained; when full the
    /// oldest are overwritten (and counted in [`TraceData::overwritten`]).
    pub capacity: usize,
    /// Gauge-sampling cadence in simulated seconds; `None` disables gauges.
    pub gauge_every: Option<f64>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            gauge_every: Some(1.0),
        }
    }
}

/// The finished capture of one run: everything the sink retained.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Policy label of the traced run ("UF", "TF", "SU", "OD", "FX").
    pub policy: String,
    /// Retained records in time order (the newest `capacity` of them).
    pub records: Vec<TraceRecord>,
    /// Records evicted because the ring was full.
    pub overwritten: u64,
    /// Periodic gauge samples (empty when sampling was disabled).
    pub gauges: Vec<GaugeSample>,
}

/// Ring-buffered trace sink. The simulation holds one behind an
/// `Option` and calls [`TraceSink::record`] at its scheduling points;
/// [`TraceSink::finish`] turns it into an immutable [`TraceData`].
#[derive(Debug)]
pub struct TraceSink {
    policy: String,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    overwritten: u64,
    gauge_every: Option<f64>,
    next_gauge: f64,
    gauges: Vec<GaugeSample>,
}

impl TraceSink {
    /// Creates a sink for a run under `policy` (the label stamped on the
    /// exported tracks).
    #[must_use]
    pub fn new(cfg: TraceConfig, policy: &str) -> Self {
        TraceSink {
            policy: policy.to_string(),
            capacity: cfg.capacity.max(1),
            records: VecDeque::with_capacity(cfg.capacity.clamp(1, 1 << 16)),
            overwritten: 0,
            gauge_every: cfg.gauge_every.filter(|c| *c > 0.0),
            next_gauge: 0.0,
            gauges: Vec::new(),
        }
    }

    /// Appends one record, evicting the oldest when the ring is full.
    pub fn record(&mut self, at: f64, kind: TraceKind) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.overwritten += 1;
        }
        self.records.push_back(TraceRecord { at, kind });
    }

    /// True when the clock has reached the next gauge tick (callers skip
    /// the cost of reading gauge values otherwise).
    #[must_use]
    pub fn gauge_due(&self, now: f64) -> bool {
        self.gauge_every.is_some_and(|_| now >= self.next_gauge)
    }

    /// Records `values` for every cadence tick at or before `now`, so the
    /// series stays regular even across long event gaps.
    pub fn push_gauges(&mut self, now: f64, values: GaugeValues) {
        let Some(every) = self.gauge_every else {
            return;
        };
        while self.next_gauge <= now {
            self.gauges.push(GaugeSample {
                at: self.next_gauge,
                values,
            });
            self.next_gauge += every;
        }
    }

    /// Consumes the sink into its immutable capture.
    #[must_use]
    pub fn finish(self) -> TraceData {
        TraceData {
            policy: self.policy,
            records: self.records.into_iter().collect(),
            overwritten: self.overwritten,
            gauges: self.gauges,
        }
    }
}

// ---- exporters --------------------------------------------------------------

fn push_json_event(out: &mut String, fields: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('\n');
    out.push_str("    {");
    out.push_str(fields);
    out.push('}');
}

fn tid_of(track: TraceTrack) -> u32 {
    match track {
        TraceTrack::Txn => 1,
        TraceTrack::Update => 2,
    }
}

const TID_EVENTS: u32 = 3;

fn us(at: f64) -> f64 {
    at * 1e6
}

/// Renders a capture as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). Slices appear as begin/end pairs on one track
/// per activity (`txn CPU` / `update CPU`, the paper's Fig 3 split);
/// preemptions, installs, aborts and commits are instant events on a third
/// track; queue depths and the periodic gauges are counter tracks.
#[must_use]
pub fn chrome_trace_json(data: &TraceData) -> String {
    let mut s = String::with_capacity(256 + data.records.len() * 96);
    let _ = write!(
        s,
        "{{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\"policy\": \"{}\", \"overwritten\": {}}},\n  \"traceEvents\": [",
        data.policy, data.overwritten
    );
    let meta = [
        (0, format!("{} run", data.policy)),
        (tid_of(TraceTrack::Txn), "txn CPU (rho_t)".to_string()),
        (tid_of(TraceTrack::Update), "update CPU (rho_u)".to_string()),
        (TID_EVENTS, "scheduler events".to_string()),
    ];
    for (tid, name) in &meta {
        let (ph, key) = if *tid == 0 {
            ("M", "process_name")
        } else {
            ("M", "thread_name")
        };
        push_json_event(
            &mut s,
            &format!(
                "\"name\": \"{key}\", \"ph\": \"{ph}\", \"pid\": 0, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{name}\"}}"
            ),
        );
    }
    for r in &data.records {
        let ts = us(r.at);
        match r.kind {
            TraceKind::SliceStart { track, job, secs } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"{}\", \"ph\": \"B\", \"ts\": {ts}, \"pid\": 0, \"tid\": {}, \
                     \"args\": {{\"planned_secs\": {secs}}}",
                    job.label(),
                    tid_of(track)
                ),
            ),
            TraceKind::SliceEnd {
                track,
                job,
                interrupted,
            } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"{}\", \"ph\": \"E\", \"ts\": {ts}, \"pid\": 0, \"tid\": {}, \
                     \"args\": {{\"interrupted\": {interrupted}}}",
                    job.label(),
                    tid_of(track)
                ),
            ),
            TraceKind::Preempt { txn, cost_secs } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"preempt\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts}, \
                     \"pid\": 0, \"tid\": {TID_EVENTS}, \
                     \"args\": {{\"txn\": {txn}, \"cost_secs\": {cost_secs}}}"
                ),
            ),
            TraceKind::Install {
                path,
                high_class,
                superseded,
            } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"install:{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts}, \
                     \"pid\": 0, \"tid\": {TID_EVENTS}, \
                     \"args\": {{\"high_class\": {high_class}, \"superseded\": {superseded}}}",
                    path.label()
                ),
            ),
            TraceKind::Abort { txn, reason } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"abort:{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts}, \
                     \"pid\": 0, \"tid\": {TID_EVENTS}, \"args\": {{\"txn\": {txn}}}",
                    reason.label()
                ),
            ),
            TraceKind::Commit { txn } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"commit\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {ts}, \
                     \"pid\": 0, \"tid\": {TID_EVENTS}, \"args\": {{\"txn\": {txn}}}"
                ),
            ),
            TraceKind::QueueDepth { os, uq } => push_json_event(
                &mut s,
                &format!(
                    "\"name\": \"queue depth\", \"ph\": \"C\", \"ts\": {ts}, \"pid\": 0, \
                     \"args\": {{\"os\": {os}, \"uq\": {uq}}}"
                ),
            ),
        }
    }
    for g in &data.gauges {
        let ts = us(g.at);
        let v = &g.values;
        push_json_event(
            &mut s,
            &format!(
                "\"name\": \"gauges\", \"ph\": \"C\", \"ts\": {ts}, \"pid\": 0, \
                 \"args\": {{\"ready\": {}, \"stale_low\": {}, \"stale_high\": {}, \
                 \"rho_t\": {}, \"rho_u\": {}}}",
                v.ready_len, v.stale_low, v.stale_high, v.rho_t, v.rho_u
            ),
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders the records as CSV: `at,kind,track,job,detail,a,b`.
#[must_use]
pub fn records_csv(data: &TraceData) -> String {
    let mut s = String::with_capacity(64 + data.records.len() * 48);
    s.push_str("at,kind,track,job,detail,a,b\n");
    for r in &data.records {
        let at = r.at;
        let line = match r.kind {
            TraceKind::SliceStart { track, job, secs } => {
                format!(
                    "{at},slice_start,{},{},,{secs},",
                    track.label(),
                    job.label()
                )
            }
            TraceKind::SliceEnd {
                track,
                job,
                interrupted,
            } => format!(
                "{at},slice_end,{},{},,{},",
                track.label(),
                job.label(),
                u8::from(interrupted)
            ),
            TraceKind::Preempt { txn, cost_secs } => {
                format!("{at},preempt,,,,{txn},{cost_secs}")
            }
            TraceKind::Install {
                path,
                high_class,
                superseded,
            } => format!(
                "{at},install,,,{},{},{}",
                path.label(),
                u8::from(high_class),
                u8::from(superseded)
            ),
            TraceKind::Abort { txn, reason } => {
                format!("{at},abort,,,{},{txn},", reason.label())
            }
            TraceKind::Commit { txn } => format!("{at},commit,,,,{txn},"),
            TraceKind::QueueDepth { os, uq } => format!("{at},queue_depth,,,,{os},{uq}"),
        };
        s.push_str(&line);
        s.push('\n');
    }
    s
}

/// Renders the gauge series as CSV:
/// `at,os_depth,uq_depth,ready_len,stale_low,stale_high,rho_t,rho_u`.
#[must_use]
pub fn gauges_csv(data: &TraceData) -> String {
    let mut s = String::with_capacity(64 + data.gauges.len() * 48);
    s.push_str("at,os_depth,uq_depth,ready_len,stale_low,stale_high,rho_t,rho_u\n");
    for g in &data.gauges {
        let v = &g.values;
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{}",
            g.at, v.os_depth, v.uq_depth, v.ready_len, v.stale_low, v.stale_high, v.rho_t, v.rho_u
        );
    }
    s
}

/// Builder for Prometheus text exposition format (version 0.0.4), used by
/// the `stripd` `/metrics` endpoint.
///
/// Metrics appear in insertion order — callers emit them from a fixed
/// sequence of struct fields, so the rendered page is deterministic (no
/// hash-map iteration anywhere).
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// Creates an empty page.
    #[must_use]
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Appends a counter metric.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends a gauge metric.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends one gauge with a single `{label="value"}` pair per sample.
    /// Samples render in the order given.
    pub fn gauge_labeled(&mut self, name: &str, help: &str, label: &str, samples: &[(&str, f64)]) {
        self.header(name, help, "gauge");
        for (lv, v) in samples {
            let _ = writeln!(self.out, "{name}{{{label}=\"{lv}\"}} {v}");
        }
    }

    /// The rendered exposition page.
    #[must_use]
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_text_renders_in_insertion_order() {
        let mut p = PromText::new();
        p.counter("strip_updates_ingested_total", "Updates ingested.", 7);
        p.gauge("strip_uq_depth", "Update-queue depth.", 3.0);
        p.gauge_labeled(
            "strip_fold",
            "Stale fraction.",
            "class",
            &[("low", 0.25), ("high", 0.5)],
        );
        let page = p.render();
        let expected = "# HELP strip_updates_ingested_total Updates ingested.\n\
                        # TYPE strip_updates_ingested_total counter\n\
                        strip_updates_ingested_total 7\n\
                        # HELP strip_uq_depth Update-queue depth.\n\
                        # TYPE strip_uq_depth gauge\n\
                        strip_uq_depth 3\n\
                        # HELP strip_fold Stale fraction.\n\
                        # TYPE strip_fold gauge\n\
                        strip_fold{class=\"low\"} 0.25\n\
                        strip_fold{class=\"high\"} 0.5\n";
        assert_eq!(page, expected);
    }

    fn sink_with(capacity: usize, cadence: Option<f64>) -> TraceSink {
        TraceSink::new(
            TraceConfig {
                capacity,
                gauge_every: cadence,
            },
            "TF",
        )
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut s = sink_with(3, None);
        for i in 0..5u32 {
            s.record(f64::from(i), TraceKind::Commit { txn: u64::from(i) });
        }
        let data = s.finish();
        assert_eq!(data.records.len(), 3);
        assert_eq!(data.overwritten, 2);
        assert_eq!(data.records[0].at, 2.0);
        assert_eq!(data.records[2].at, 4.0);
    }

    #[test]
    fn gauges_fill_every_crossed_tick() {
        let mut s = sink_with(8, Some(0.5));
        assert!(s.gauge_due(0.0));
        s.push_gauges(0.0, GaugeValues::default());
        assert!(!s.gauge_due(0.4));
        assert!(s.gauge_due(1.6));
        let v = GaugeValues {
            uq_depth: 7,
            ..GaugeValues::default()
        };
        s.push_gauges(1.6, v);
        let data = s.finish();
        let ticks: Vec<f64> = data.gauges.iter().map(|g| g.at).collect();
        assert_eq!(ticks, vec![0.0, 0.5, 1.0, 1.5]);
        assert_eq!(data.gauges[3].values.uq_depth, 7);
    }

    #[test]
    fn disabled_cadence_records_nothing() {
        let mut s = sink_with(8, None);
        assert!(!s.gauge_due(100.0));
        s.push_gauges(100.0, GaugeValues::default());
        assert!(s.finish().gauges.is_empty());
    }

    #[test]
    fn chrome_json_has_balanced_slices_and_metadata() {
        let mut s = sink_with(16, Some(1.0));
        s.record(
            0.25,
            TraceKind::SliceStart {
                track: TraceTrack::Update,
                job: TraceJob::Install,
                secs: 0.01,
            },
        );
        s.record(
            0.26,
            TraceKind::SliceEnd {
                track: TraceTrack::Update,
                job: TraceJob::Install,
                interrupted: false,
            },
        );
        s.record(
            0.26,
            TraceKind::Install {
                path: TracePath::Background,
                high_class: true,
                superseded: false,
            },
        );
        s.push_gauges(0.0, GaugeValues::default());
        let json = chrome_trace_json(&s.finish());
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
        assert!(json.contains("install:background"));
        assert!(json.contains("update CPU (rho_u)"));
        // Crude but effective balance check for the JSON itself.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_exports_cover_all_kinds() {
        let mut s = sink_with(16, Some(1.0));
        s.record(
            0.1,
            TraceKind::Preempt {
                txn: 9,
                cost_secs: 0.002,
            },
        );
        s.record(
            0.2,
            TraceKind::Abort {
                txn: 9,
                reason: TraceAbort::StaleRead,
            },
        );
        s.record(0.3, TraceKind::QueueDepth { os: 2, uq: 11 });
        s.push_gauges(0.0, GaugeValues::default());
        let data = s.finish();
        let rec = records_csv(&data);
        assert!(rec.starts_with("at,kind,"));
        assert!(rec.contains("preempt"));
        assert!(rec.contains("abort,,,stale_read,9,"));
        assert!(rec.contains("queue_depth,,,,2,11"));
        let g = gauges_csv(&data);
        assert_eq!(g.lines().count(), 2);
    }
}
