//! Results of one simulation run.
//!
//! [`RunReport`] carries every raw counter plus the paper's derived metrics
//! (§3.5): missed-deadline fraction `pMD`, `psuccess`, `psuc|nontardy`,
//! average value per second `AV`, CPU-time split `ρt`/`ρu`, and the
//! time-weighted stale fractions `fold_l`/`fold_h`.
//!
//! Every scalar of the nine accounting structs is declared exactly once, as
//! `pub name: type = Rule` inside the `tabled!` invocation that emits the
//! struct. Declaration order is JSON order, and the [`Rule`] says whether
//! the field is a count or a real. [`RunReport::to_json`] and the
//! checkpoint format ([`RunReport::scalars`] / [`RunReport::set_scalars`])
//! walk those declarations, so a new metric is one new row. A field that
//! fits no rule is declared without one and handled by hand next to the
//! walks.
//!
//! Replicas of one configuration are never merged into a report: a figure
//! takes each metric's mean and deviation over the per-replica values.

use std::fmt;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// The type of one tabled field, which is what a checkpoint parses it
/// back as: `Count` fields are `u64`, `Real` fields `f64`; `tabled!`
/// checks that at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A `u64` counter or high-water mark.
    Count,
    /// An `f64` amount, extent, level or moment.
    Real,
}

impl Rule {
    /// Reads a value of this rule's type back from its [`Value`] `Display`
    /// form; `None` when `text` is not such a number (a non-finite real
    /// prints as `null` and does not come back).
    #[must_use]
    pub fn parse(self, text: &str) -> Option<Value> {
        match self {
            Rule::Count => text.parse().ok().map(Value::Count),
            Rule::Real => text.parse().ok().map(Value::Real),
        }
    }
}

/// The value of one tabled field. `Display` is its JSON form, which the
/// checkpoints reuse: [`Rule::parse`] restores it bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A [`Rule::Count`] field.
    Count(u64),
    /// A [`Rule::Real`] field.
    Real(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(n) => n.fmt(f),
            // Shortest round-tripping decimal; non-finite values (which no
            // healthy run produces) become `null` so the output stays JSON.
            Value::Real(x) if x.is_finite() => write!(f, "{x:?}"),
            Value::Real(_) => f.write_str("null"),
        }
    }
}

/// One tabled field of one struct: name, rule, current value.
pub type Row = (&'static str, Rule, Value);

/// A struct declared through `tabled!`, with its type erased so
/// [`SECTIONS`] can list all of them.
trait Section {
    /// The fields that carry a rule, in declaration order.
    fn rows(&self) -> Vec<Row>;
    /// Overwrites those fields, in the same order, from `values`.
    fn fill(&mut self, values: &mut dyn Iterator<Item = Value>);
}

/// Emits each struct and its [`Section`] from one declaration. A field
/// written `pub name: type = Rule` is tabled; one without `= Rule` is
/// irregular and invisible to the walks.
macro_rules! tabled {
    (@value Count, $($x:tt)+) => { Value::Count($($x)+) };
    (@value Real, $($x:tt)+) => { Value::Real($($x)+) };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty $(= $rule:ident)?,
            )*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl Section for $name {
            fn rows(&self) -> Vec<Row> {
                vec![$($(
                    (stringify!($field), Rule::$rule, tabled!(@value $rule, self.$field)),
                )?)*]
            }

            fn fill(&mut self, values: &mut dyn Iterator<Item = Value>) {
                $($(
                    if let Some(tabled!(@value $rule, x)) = values.next() {
                        self.$field = x;
                    }
                )?)*
            }
        }
    )*};
}

tabled! {
    /// Per-value-class transaction outcomes (Low = index 0, High = index 1).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct ClassCounts {
        /// Arrivals of this class.
        pub arrived: u64 = Count,
        /// On-time commits of this class.
        pub committed: u64 = Count,
        /// On-time fresh commits of this class.
        pub committed_fresh: u64 = Count,
    }

    /// Transaction accounting.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct TxnCounts {
        /// Transactions that arrived inside the measurement window.
        pub arrived: u64 = Count,
        /// Committed at or before their deadline.
        pub committed: u64 = Count,
        /// Committed on time having read only fresh data.
        pub committed_fresh: u64 = Count,
        /// Aborted by the firm-deadline watchdog (reached the deadline while
        /// queued or running).
        pub missed_deadline: u64 = Count,
        /// Aborted early by the feasible-deadline policy (could no longer make
        /// the deadline).
        pub aborted_infeasible: u64 = Count,
        /// Aborted because a view read observed stale data (abort-on-stale
        /// mode).
        pub aborted_stale: u64 = Count,
        /// Still queued or running when the simulation horizon was reached.
        pub in_flight_at_end: u64 = Count,
        /// Total value of on-time commits.
        pub value_committed: f64 = Real,
        /// View reads that observed stale data (metric criterion).
        pub stale_reads: u64 = Count,
        /// Total view reads performed.
        pub view_reads: u64 = Count,
        /// Mean response time (commit − arrival) over committed transactions.
        pub response_mean: f64 = Real,
        /// Std. dev. of response time over committed transactions.
        pub response_sd: f64 = Real,
        /// Per-value-class breakdown (`[low, high]`).
        pub by_class: [ClassCounts; 2],
    }

    /// Update-stream accounting.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct UpdateCounts {
        /// Updates that arrived inside the measurement window.
        pub arrived: u64 = Count,
        /// Arrivals discarded because the OS queue was full.
        pub os_dropped: u64 = Count,
        /// Updates placed into the application-level update queue.
        pub enqueued: u64 = Count,
        /// Updates installed from the update queue by the background update
        /// process (or straight off the OS queue under UF).
        pub installed_background: u64 = Count,
        /// Updates installed on arrival (UF always; SU for high importance).
        pub installed_immediate: u64 = Count,
        /// Updates installed on demand while a transaction waited (OD).
        pub installed_on_demand: u64 = Count,
        /// Updates skipped after lookup because the store already held a value
        /// at least as recent.
        pub superseded_skips: u64 = Count,
        /// Queued updates discarded as MA-expired.
        pub expired_dropped: u64 = Count,
        /// Queued updates discarded by the `UQ_max` overflow policy.
        pub overflow_dropped: u64 = Count,
        /// Queued updates removed as superseded by the hash-index extension.
        pub dedup_dropped: u64 = Count,
        /// Always 0: nothing sheds arrivals before the OS queue. The row
        /// keeps the report's JSON schema, and the digests pinned on it,
        /// unchanged until the next schema change drops it.
        pub admission_shed: u64 = Count,
        /// Largest update-queue length observed.
        pub max_uq_len: u64 = Count,
        /// Largest OS-queue length observed.
        pub max_os_len: u64 = Count,
        /// Updates still waiting in the OS queue at the horizon.
        pub left_in_os: u64 = Count,
        /// Updates still waiting in the update queue at the horizon.
        pub left_in_update_queue: u64 = Count,
        /// Updates on the CPU (being installed, or taken for an on-demand
        /// apply) when the horizon was reached.
        pub in_flight_at_end: u64 = Count,
    }

    /// CPU-time accounting over the measurement window.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct CpuStats {
        /// Seconds spent on transaction work (ρt numerator).
        pub busy_txn: f64 = Real,
        /// Seconds spent on update work — receiving, queueing, scanning,
        /// installing (ρu numerator).
        pub busy_update: f64 = Real,
        /// Length of the measurement window in seconds.
        pub measured_secs: f64 = Real,
        /// Discrete events processed by the engine (diagnostic).
        pub events_processed: u64 = Count,
        /// Buffer-pool misses charged to view reads (disk extension).
        pub io_misses_reads: u64 = Count,
        /// Buffer-pool misses charged to installs (disk extension).
        pub io_misses_installs: u64 = Count,
    }

    /// Historical-view accounting (zeros when the extension is disabled).
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct HistoryStats {
        /// View reads served as-of a past instant.
        pub historical_reads: u64 = Count,
        /// As-of reads whose instant predated the retained window.
        pub misses: u64 = Count,
        /// Versions appended to the chains.
        pub appends: u64 = Count,
        /// Versions pruned by retention or the per-object cap.
        pub pruned: u64 = Count,
        /// Versions retained at the horizon.
        pub entries_at_end: u64 = Count,
    }

    /// Update-triggered rule accounting (zeros when the extension is disabled).
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct TriggerStats {
        /// Rule firings caused by installs.
        pub fired: u64 = Count,
        /// Firings coalesced because the rule was already pending.
        pub coalesced: u64 = Count,
        /// Firings dropped by the pending-queue bound.
        pub dropped: u64 = Count,
        /// Rule executions completed.
        pub executed: u64 = Count,
        /// Pending executions at the horizon (including one on the CPU).
        pub pending_at_end: u64 = Count,
        /// Mean delay from firing to execution completion, seconds.
        pub lag_mean: f64 = Real,
        /// Largest pending-queue length observed.
        pub max_pending: u64 = Count,
    }

    /// Derived-view DAG accounting (extension; zeros when no DAG is
    /// configured). The propagation buckets obey the conservation law
    /// `enqueued = applied + coalesced + shed + pending_at_end` on run totals.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct DagStats {
        /// Delta enqueue events (base installs plus cascades).
        pub enqueued: u64 = Count,
        /// Pending deltas applied (background drain plus on-demand refreshes).
        pub applied: u64 = Count,
        /// Enqueues merged into an already-pending node.
        pub coalesced: u64 = Count,
        /// Enqueues rejected by the pending bound.
        pub shed: u64 = Count,
        /// Pending deltas left at the horizon.
        pub pending_at_end: u64 = Count,
        /// Derived-node reads performed by transactions.
        pub derived_reads: u64 = Count,
        /// Derived reads that observed a (transitively) stale node.
        pub stale_derived_reads: u64 = Count,
        /// Recursive on-demand refresh passes performed before derived reads.
        pub od_refreshes: u64 = Count,
        /// Mean delay from a delta's first enqueue to its application, seconds.
        pub lag_mean: f64 = Real,
        /// Largest number of simultaneously pending nodes observed.
        pub max_pending: u64 = Count,
        /// Time-weighted fraction of transitively stale derived nodes
        /// (`fold_derived` — the DAG twin of `fold_l`/`fold_h`).
        pub fold_derived: f64 = Real,
    }

    /// Resilience accounting (robustness extension; all zeros/`None` for a
    /// run without a feed outage). `duplicated`, `reordered`,
    /// `burst_grouped` and `admission_shed` always read 0: the only
    /// disturbance is the outage. They keep the report's JSON schema, and
    /// the digests pinned on it, unchanged until the next schema change
    /// drops them.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct ResilienceStats {
        /// Always 0 (see the type's docs).
        pub duplicated: u64 = Count,
        /// Always 0 (see the type's docs).
        pub reordered: u64 = Count,
        /// Arrivals generated inside the outage window, held and released
        /// in the catch-up flood at its end (or stranded by the horizon).
        pub outage_held: u64 = Count,
        /// Always 0 (see the type's docs).
        pub burst_grouped: u64 = Count,
        /// Always 0 (see the type's docs).
        pub admission_shed: u64 = Count,
        /// Seconds after the outage ended until the stale-object count first
        /// returned to its pre-outage baseline; `None` when no outage was
        /// configured or the system had not recovered by the horizon.
        pub recovery_secs: Option<f64>,
    }

    /// Durability accounting (live-runtime WAL/snapshot/recovery subsystem;
    /// all zeros for simulator runs and for live runs without `--wal`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct DurabilityStats {
        /// Records appended to the write-ahead log.
        pub wal_appended: u64 = Count,
        /// `fsync` calls issued by the group-commit flusher.
        pub wal_fsyncs: u64 = Count,
        /// Bytes written to the log (records plus segment headers).
        pub wal_bytes: u64 = Count,
        /// Largest number of records covered by a single fsync (group size).
        pub wal_group_max: u64 = Count,
        /// Store snapshots sealed (atomic write-rename completed).
        pub snapshots_written: u64 = Count,
        /// Sealed-segment rotations performed by the flusher (size-bounded
        /// log growth; each rotation chains a new active segment).
        pub wal_rotations: u64 = Count,
        /// WAL records replayed into the store during recovery.
        pub recovery_replayed: u64 = Count,
        /// Torn or CRC-failing tail records discarded during recovery.
        pub recovery_discarded: u64 = Count,
    }
}

impl TxnCounts {
    /// Transactions with a decided outcome (everything except in-flight).
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.committed + self.missed_deadline + self.aborted_infeasible + self.aborted_stale
    }

    /// `pMD` — fraction of transactions that did not complete by their
    /// deadline (all abort categories count as not completing).
    #[must_use]
    pub fn p_md(&self) -> f64 {
        let f = self.finished();
        if f == 0 {
            return 0.0;
        }
        1.0 - self.committed as f64 / f as f64
    }

    /// `psuccess` — fraction of transactions that committed on time *and*
    /// read only fresh data.
    #[must_use]
    pub fn p_success(&self) -> f64 {
        let f = self.finished();
        if f == 0 {
            return 0.0;
        }
        self.committed_fresh as f64 / f as f64
    }

    /// `psuc|nontardy` — of the transactions that met their deadline, the
    /// fraction that also read only fresh data.
    #[must_use]
    pub fn p_suc_nontardy(&self) -> f64 {
        if self.committed == 0 {
            return 0.0;
        }
        self.committed_fresh as f64 / self.committed as f64
    }

    /// Fraction of view reads that observed stale data.
    #[must_use]
    pub fn stale_read_fraction(&self) -> f64 {
        if self.view_reads == 0 {
            return 0.0;
        }
        self.stale_reads as f64 / self.view_reads as f64
    }
}

impl UpdateCounts {
    /// All installs, regardless of path.
    #[must_use]
    pub fn installed_total(&self) -> u64 {
        self.installed_background + self.installed_immediate + self.installed_on_demand
    }

    /// Every arrived update ends in exactly one terminal bucket; with no
    /// warm-up window this sums back to `arrived` (see the conservation
    /// integration tests).
    #[must_use]
    pub fn terminal_total(&self) -> u64 {
        self.installed_total()
            + self.superseded_skips
            + self.expired_dropped
            + self.overflow_dropped
            + self.dedup_dropped
            + self.admission_shed
            + self.os_dropped
            + self.left_in_os
            + self.left_in_update_queue
            + self.in_flight_at_end
    }
}

impl CpuStats {
    /// `ρt` — fraction of CPU time spent on transactions.
    #[must_use]
    pub fn rho_t(&self) -> f64 {
        if self.measured_secs <= 0.0 {
            return 0.0;
        }
        self.busy_txn / self.measured_secs
    }

    /// `ρu` — fraction of CPU time spent on updates.
    #[must_use]
    pub fn rho_u(&self) -> f64 {
        if self.measured_secs <= 0.0 {
            return 0.0;
        }
        self.busy_update / self.measured_secs
    }

    /// Total utilisation `ρt + ρu`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.rho_t() + self.rho_u()
    }
}

impl HistoryStats {
    /// Fraction of historical reads that missed the retained window.
    #[must_use]
    pub fn miss_fraction(&self) -> f64 {
        if self.historical_reads == 0 {
            return 0.0;
        }
        self.misses as f64 / self.historical_reads as f64
    }
}

impl DagStats {
    /// Every enqueue ends in exactly one terminal bucket.
    #[must_use]
    pub fn terminal_total(&self) -> u64 {
        self.applied + self.coalesced + self.shed + self.pending_at_end
    }
}

/// One timeline window of transaction outcomes (extension; populated when
/// `timeline_window` is configured).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineWindow {
    /// Window start, seconds.
    pub t_start: f64,
    /// Transactions that finished (any outcome) in this window.
    pub finished: u64,
    /// Commits in this window.
    pub committed: u64,
    /// Fresh commits in this window.
    pub committed_fresh: u64,
}

impl TimelineWindow {
    /// Per-window `psuccess` (0 when the window saw no outcomes).
    #[must_use]
    pub fn p_success(&self) -> f64 {
        if self.finished == 0 {
            return 0.0;
        }
        self.committed_fresh as f64 / self.finished as f64
    }

    /// Per-window missed-deadline fraction.
    #[must_use]
    pub fn p_md(&self) -> f64 {
        if self.finished == 0 {
            return 0.0;
        }
        1.0 - self.committed as f64 / self.finished as f64
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy label ("UF", "TF", "SU", "OD", "FX").
    pub policy: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Configured duration (seconds).
    pub duration: f64,
    /// Configured warm-up prefix excluded from metrics (seconds).
    pub warmup: f64,
    /// Transaction accounting.
    pub txns: TxnCounts,
    /// Update accounting.
    pub updates: UpdateCounts,
    /// CPU accounting.
    pub cpu: CpuStats,
    /// `fold_l` — time-weighted stale fraction, low-importance partition.
    pub fold_low: f64,
    /// `fold_h` — time-weighted stale fraction, high-importance partition.
    pub fold_high: f64,
    /// Historical-view accounting (extension).
    pub history: HistoryStats,
    /// Update-triggered rule accounting (extension).
    pub triggers: TriggerStats,
    /// Derived-view DAG accounting (extension).
    pub dag: DagStats,
    /// Resilience accounting (robustness extension).
    pub resilience: ResilienceStats,
    /// Durability accounting (live-runtime WAL extension).
    pub durability: DurabilityStats,
    /// Per-window outcomes (extension; empty unless `timeline_window` set).
    pub timeline: Vec<TimelineWindow>,
}

/// Where one tabled struct sits inside a [`RunReport`].
struct SectionAt {
    /// Prefix of the struct's checkpoint keys (`"txns.low"`).
    key: &'static str,
    get: fn(&RunReport) -> &dyn Section,
    get_mut: fn(&mut RunReport) -> &mut dyn Section,
}

macro_rules! section {
    ($key:literal, $($place:tt)+) => {
        SectionAt {
            key: $key,
            get: |r| &r.$($place)+,
            get_mut: |r| &mut r.$($place)+,
        }
    };
}

/// Every tabled struct of a report. The checkpoint format goes through
/// this list; [`RunReport::to_json`] lays the same
/// structs out by hand because the JSON document nests `by_class` and
/// interleaves the folds.
const SECTIONS: &[SectionAt] = &[
    section!("txns", txns),
    section!("txns.low", txns.by_class[0]),
    section!("txns.high", txns.by_class[1]),
    section!("updates", updates),
    section!("cpu", cpu),
    section!("history", history),
    section!("triggers", triggers),
    section!("dag", dag),
    section!("resilience", resilience),
    section!("durability", durability),
];

/// JSON string literal with the escapes required by RFC 8259.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float in JSON form (see [`Value`]'s `Display`).
fn json_f64(v: f64) -> String {
    Value::Real(v).to_string()
}

/// A JSON object under construction. Members render through `Display`; a
/// float goes in as a [`Value::Real`].
struct JsonObject(String);

impl JsonObject {
    fn new() -> Self {
        JsonObject(String::from("{"))
    }

    fn member(mut self, key: &str, value: impl fmt::Display) -> Self {
        let sep = if self.0.len() > 1 { "," } else { "" };
        let _ = write!(self.0, "{sep}\"{key}\":{value}");
        self
    }

    /// Every tabled field of `s`, in order.
    fn rows(self, s: &dyn Section) -> Self {
        let rows = s.rows().into_iter();
        rows.fold(self, |object, (name, _, value)| object.member(name, value))
    }

    fn end(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

impl RunReport {
    /// Renders the full report as a JSON object.
    ///
    /// The workspace's `serde` is an offline no-op stand-in, so this is the
    /// one hand-rolled serialisation every consumer shares: `repro report
    /// --json`, the `strip-loadgen` client, and the `stripd` server's
    /// `ReportJson` frame. Raw counters mirror the struct fields;
    /// paper-derived metrics (§3.5) ride along under `"derived"`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (t, u, c) = (&self.txns, &self.updates, &self.cpu);
        let real = Value::Real;
        let section = |s: &dyn Section| JsonObject::new().rows(s);
        let by_class = json_array(t.by_class.iter().map(|class| section(class).end()));
        let recovery = self.resilience.recovery_secs;
        let timeline = self.timeline.iter().map(|w| {
            JsonObject::new()
                .member("t_start", real(w.t_start))
                .member("finished", w.finished)
                .member("committed", w.committed)
                .member("committed_fresh", w.committed_fresh)
                .end()
        });
        let derived = JsonObject::new()
            .member("p_md", real(t.p_md()))
            .member("p_success", real(t.p_success()))
            .member("p_suc_nontardy", real(t.p_suc_nontardy()))
            .member("stale_read_fraction", real(t.stale_read_fraction()))
            .member("av", real(self.av()))
            .member("rho_t", real(c.rho_t()))
            .member("rho_u", real(c.rho_u()))
            .member("installed_total", u.installed_total())
            .member("terminal_total", u.terminal_total());
        JsonObject::new()
            .member("policy", json_str(&self.policy))
            .member("seed", self.seed)
            .member("duration", real(self.duration))
            .member("warmup", real(self.warmup))
            .member("txns", section(t).member("by_class", by_class).end())
            .member("updates", section(u).end())
            .member("cpu", section(c).end())
            .member("fold_low", real(self.fold_low))
            .member("fold_high", real(self.fold_high))
            .member("history", section(&self.history).end())
            .member("triggers", section(&self.triggers).end())
            .member("dag", section(&self.dag).end())
            .member(
                "resilience",
                section(&self.resilience)
                    .member("recovery_secs", recovery.map_or("null".into(), json_f64))
                    .end(),
            )
            .member("durability", section(&self.durability).end())
            .member("timeline", json_array(timeline))
            // Kept so the document's bytes stay put; only a change to the
            // benchmark's pinned digests may drop it.
            .member("stripes", "[]")
            .member("derived", derived.end())
            .end()
    }

    /// `AV` — average value per second returned by on-time commits.
    #[must_use]
    pub fn av(&self) -> f64 {
        if self.cpu.measured_secs <= 0.0 {
            return 0.0;
        }
        self.txns.value_committed / self.cpu.measured_secs
    }

    /// Every tabled field, in table order, with the checkpoint-key prefix of
    /// its struct (`"dag"`, `"txns.low"`). The irregular members (labels,
    /// folds, `recovery_secs`, `timeline`) are not included.
    pub fn scalars(&self) -> impl Iterator<Item = (&'static str, Row)> + '_ {
        SECTIONS.iter().flat_map(move |at| {
            let rows = (at.get)(self).rows();
            rows.into_iter().map(move |row| (at.key, row))
        })
    }

    /// Overwrites the tabled fields from `values`, which must follow the
    /// order of [`RunReport::scalars`].
    pub fn set_scalars(&mut self, values: impl IntoIterator<Item = Value>) {
        let mut values = values.into_iter();
        for at in SECTIONS {
            (at.get_mut)(self).fill(&mut values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_txn_metrics() {
        let t = TxnCounts {
            arrived: 12,
            committed: 8,
            committed_fresh: 6,
            missed_deadline: 1,
            aborted_infeasible: 1,
            aborted_stale: 0,
            in_flight_at_end: 2,
            value_committed: 16.0,
            stale_reads: 4,
            view_reads: 20,
            ..TxnCounts::default()
        };
        assert_eq!(t.finished(), 10);
        assert!((t.p_md() - 0.2).abs() < 1e-12);
        assert!((t.p_success() - 0.6).abs() < 1e-12);
        assert!((t.p_suc_nontardy() - 0.75).abs() < 1e-12);
        assert!((t.stale_read_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_do_not_divide_by_zero() {
        let t = TxnCounts::default();
        assert_eq!(t.p_md(), 0.0);
        assert_eq!(t.p_success(), 0.0);
        assert_eq!(t.p_suc_nontardy(), 0.0);
        assert_eq!(t.stale_read_fraction(), 0.0);
        let c = CpuStats::default();
        assert_eq!(c.rho_t(), 0.0);
        assert_eq!(c.utilization(), 0.0);
        let r = RunReport::default();
        assert_eq!(r.av(), 0.0);
    }

    #[test]
    fn cpu_fractions() {
        let c = CpuStats {
            busy_txn: 30.0,
            busy_update: 20.0,
            measured_secs: 100.0,
            ..CpuStats::default()
        };
        assert!((c.rho_t() - 0.3).abs() < 1e-12);
        assert!((c.rho_u() - 0.2).abs() < 1e-12);
        assert!((c.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn av_is_value_per_second() {
        let r = RunReport {
            txns: TxnCounts {
                value_committed: 150.0,
                ..TxnCounts::default()
            },
            cpu: CpuStats {
                measured_secs: 10.0,
                ..CpuStats::default()
            },
            ..RunReport::default()
        };
        assert!((r.av() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn to_json_is_balanced_and_carries_derived_metrics() {
        let mut r = RunReport {
            policy: "OD".into(),
            seed: 42,
            duration: 5.0,
            ..RunReport::default()
        };
        // Fractions chosen to be exactly representable: pMD = 1 - 6/8 = 0.25.
        r.txns.arrived = 10;
        r.txns.committed = 6;
        r.txns.committed_fresh = 4;
        r.txns.missed_deadline = 2;
        r.cpu.measured_secs = 5.0;
        r.txns.value_committed = 20.0;
        let json = r.to_json();
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"policy\":\"OD\"",
            "\"seed\":42",
            "\"arrived\":10",
            "\"p_md\":0.25",
            "\"av\":4.0",
            "\"recovery_secs\":null",
            "\"wal_appended\":0",
            "\"terminal_total\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("tab\there"), "\"tab\\u0009here\"");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn update_totals() {
        let u = UpdateCounts {
            installed_background: 3,
            installed_immediate: 4,
            installed_on_demand: 5,
            ..UpdateCounts::default()
        };
        assert_eq!(u.installed_total(), 12);
    }
}
