//! Simulation configuration — the parameters of Tables 1, 2 and 3 plus the
//! scenario switches studied in §6 (scheduling policy, staleness criterion,
//! abort-on-stale, queue discipline) and the paper's future-work extensions.
//!
//! [`SimConfig::default`] is exactly the paper's baseline; the builder
//! validates parameter combinations before a simulation is constructed.

use serde::{Deserialize, Serialize};
use strip_db::cost::CostModel;
use strip_db::history::HistoryPolicy;
use strip_db::staleness::StalenessSpec;

/// Re-export of the derived-view DAG shape for convenience.
pub use strip_db::dag::DagSpec;

/// The update-scheduling policy (paper §4 plus §7 extensions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// **UF — Updates First.** Every update is applied on arrival, preempting
    /// a running transaction; no update queue is used (§4.1).
    UpdatesFirst,
    /// **TF — Transactions First.** Updates are queued and installed only
    /// when no transaction is waiting (§4.2).
    TransactionsFirst,
    /// **SU — Split Updates.** High-importance updates are applied on
    /// arrival (like UF); low-importance updates are queued (like TF) (§4.3).
    SplitUpdates,
    /// **OD — Apply Updates On Demand.** Like TF, but when a transaction
    /// reads a stale object the update queue is searched and an applicable
    /// update, if found, is applied before the read completes (§4.4).
    OnDemand,
    /// Extension (paper §7 future work: "giving a fixed CPU fraction to
    /// updates"): like TF, but the update process is also granted the CPU
    /// whenever its share of busy time so far is below `fraction`, even if
    /// transactions are waiting.
    FixedFraction {
        /// Target fraction of CPU time reserved for update installation
        /// (0.0 excludes updates entirely; 1.0 behaves like UF without
        /// preemption).
        fraction: f64,
    },
}

impl Policy {
    /// The four algorithms evaluated in the paper, in presentation order.
    pub const PAPER_SET: [Policy; 4] = [
        Policy::UpdatesFirst,
        Policy::TransactionsFirst,
        Policy::SplitUpdates,
        Policy::OnDemand,
    ];

    /// Short label used in figures and tables ("UF", "TF", "SU", "OD", ...).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Policy::UpdatesFirst => "UF",
            Policy::TransactionsFirst => "TF",
            Policy::SplitUpdates => "SU",
            Policy::OnDemand => "OD",
            Policy::FixedFraction { .. } => "FX",
        }
    }

    /// True for policies that maintain the application-level update queue
    /// (all but UF).
    #[must_use]
    pub fn uses_update_queue(&self) -> bool {
        !matches!(self, Policy::UpdatesFirst)
    }
}

/// How the external sources generate updates (paper §2: periodic vs
/// aperiodic; the paper evaluates aperiodic and lists periodic as future
/// work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UpdateMode {
    /// Poisson arrivals; each update targets a uniformly random object
    /// (the paper's model).
    Aperiodic,
    /// Every object is re-reported on a fixed per-object period
    /// `N_c / (λ_u · p_c)` — the aggregate rate still equals `λ_u` — with
    /// uniformly random phases and optional per-emission jitter.
    Periodic {
        /// Each emission is offset by `U[-j/2, j/2] · period`; 0 = strict.
        jitter_frac: f64,
    },
}

/// Historical-view access pattern (extension; paper §2/§7). When set, every
/// successful install is also appended to a per-object version chain, and a
/// fraction of transaction view reads become *as-of* reads against a
/// uniformly random past instant. As-of reads are never stale (the past is
/// immutable) but *miss* when the requested instant predates the retained
/// window; the as-of lookup cost is folded into `x_lookup`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistoryAccess {
    /// Retention policy of the version chains.
    pub policy: HistoryPolicy,
    /// Probability that a view read is historical.
    pub p_historical_read: f64,
    /// Minimum as-of lag behind now, seconds.
    pub lag_min: f64,
    /// Maximum as-of lag behind now, seconds.
    pub lag_max: f64,
}

impl Default for HistoryAccess {
    fn default() -> Self {
        HistoryAccess {
            policy: HistoryPolicy::default(),
            p_historical_read: 0.2,
            lag_min: 0.0,
            lag_max: 30.0,
        }
    }
}

/// Update-triggered rules (extension; paper §7). Rules are generated
/// deterministically from the seed: each watches `sources_per_rule` random
/// view objects and maintains one derived general object. Installing into a
/// watched object fires the rule; pending executions are served as
/// update-side work (after receives, before background installs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TriggerConfig {
    /// Number of rules.
    pub n_rules: u32,
    /// Watched view objects per rule.
    pub sources_per_rule: u32,
    /// Instructions per rule execution.
    pub exec_instr: f64,
    /// Bound on pending rule executions; beyond it, new firings for rules
    /// already pending are coalesced and excess firings are dropped
    /// (counted).
    pub max_pending: usize,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        TriggerConfig {
            n_rules: 100,
            sources_per_rule: 4,
            exec_instr: 10_000.0,
            max_pending: 10_000,
        }
    }
}

/// Buffer-pool model for a disk-resident database (extension; paper §7
/// "disk-resident database systems"). Each object access (a view-read
/// lookup or an install lookup) misses the buffer pool with probability
/// `1 − hit_ratio` and then costs an extra `x_io` instructions — the
/// CPU-equivalent of the I/O stall on the paper's uniprocessor model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoModel {
    /// Probability an object access hits the buffer pool.
    pub hit_ratio: f64,
    /// Extra instructions charged on a miss.
    pub x_io: f64,
}

impl Default for IoModel {
    fn default() -> Self {
        IoModel {
            hit_ratio: 0.9,
            // ~2 ms at 50 MIPS: a fast 1995 disk read.
            x_io: 100_000.0,
        }
    }
}

/// A transient load burst (extension): between `from` and `until` seconds,
/// the transaction arrival rate is multiplied by `factor`. The paper's §6
/// motivates exactly this regime: "occasionally the system will be
/// overloaded. It is precisely at those times when we need a good
/// scheduler."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstSpec {
    /// Burst start, seconds.
    pub from: f64,
    /// Burst end, seconds.
    pub until: f64,
    /// Rate multiplier during the burst.
    pub factor: f64,
}

/// Disturbances applied to the update arrival stream (robustness
/// extension). The paper assumes a well-behaved Poisson stream; real ticker
/// feeds burst, drop out, jitter, duplicate and reorder. Each disturbance is
/// a *delay-only* transform of the base stream, driven by its own RNG
/// sub-stream, so the undisturbed baseline stays bit-identical and the
/// disturbed stream still delivers arrivals in non-decreasing time order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceSpec {
    /// Deliver arrivals in batches of this size: each group of consecutive
    /// arrivals is held and released together at the group's latest release
    /// time. 1 = no batching.
    pub burst_size: u32,
    /// Start of the feed outage, seconds (meaningful when `outage_secs > 0`).
    pub outage_from: f64,
    /// Outage length, seconds: arrivals generated inside
    /// `[outage_from, outage_from + outage_secs)` are held and released as a
    /// catch-up flood when the feed returns. 0 = no outage.
    pub outage_secs: f64,
    /// Per-arrival delivery jitter: each arrival is delayed by an extra
    /// `U[0, jitter_max)` seconds. 0 = none.
    pub jitter_max: f64,
    /// Probability an arrival is delivered twice (the duplicate trails by
    /// `U[0, duplicate_lag)` seconds).
    pub p_duplicate: f64,
    /// Maximum extra delay of a duplicate copy, seconds.
    pub duplicate_lag: f64,
    /// Probability an arrival is delayed by an extra `U[0, reorder_lag)`
    /// seconds — long enough to slip behind later arrivals, i.e.
    /// out-of-order delivery.
    pub p_reorder: f64,
    /// Maximum extra delay of a reordered arrival, seconds.
    pub reorder_lag: f64,
}

impl Default for DisturbanceSpec {
    /// Every disturbance off: wrapping the stream with this spec is a
    /// behavioural no-op (used to test transparency of the layer).
    fn default() -> Self {
        DisturbanceSpec {
            burst_size: 1,
            outage_from: 0.0,
            outage_secs: 0.0,
            jitter_max: 0.0,
            p_duplicate: 0.0,
            duplicate_lag: 0.05,
            p_reorder: 0.0,
            reorder_lag: 0.2,
        }
    }
}

impl DisturbanceSpec {
    /// The outage window `[start, end)` in seconds, if an outage is
    /// configured.
    #[must_use]
    pub fn outage_window(&self) -> Option<(f64, f64)> {
        (self.outage_secs > 0.0).then_some((self.outage_from, self.outage_from + self.outage_secs))
    }
}

/// Controller-side admission control (robustness extension): when the
/// estimated CPU utilisation (busy time since warm-up over elapsed time)
/// exceeds `util_threshold`, arriving low-importance updates are shed before
/// entering the OS queue — spending the remaining headroom on transactions
/// and high-importance freshness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionControl {
    /// Estimated-utilisation threshold above which low-importance arrivals
    /// are shed, in `[0, 1]`.
    pub util_threshold: f64,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            util_threshold: 0.9,
        }
    }
}

/// Service order of the update queue (§4.2, Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// Install the oldest-generation update first.
    Fifo,
    /// Install the newest-generation update first (maximises the remaining
    /// lifetime of installed values).
    Lifo,
    /// Install the update whose object transactions read most often first
    /// (extension, generalising the paper's §3.2 two-level importance
    /// hypothesis to a continuous, access-driven priority). Like LIFO it
    /// requires the application to tolerate out-of-order installation.
    HotFirst,
}

/// Re-export of the staleness criterion for convenience.
pub use strip_db::staleness::StalenessSpec as StalenessDef;

/// Re-export of the queue overflow shedding policy for convenience.
pub use strip_db::shed::ShedPolicy;

/// Full simulation configuration. Field names follow the paper's symbols;
/// see Tables 1–3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    // ---- Table 1: data and updates ----
    /// Update arrival rate λ_u (updates/second).
    pub lambda_u: f64,
    /// Probability an arriving update is to low-importance data (p_ul).
    pub p_update_low: f64,
    /// Mean age of updates on arrival, seconds (a_update; exponential).
    pub mean_update_age: f64,
    /// Arrival process of the update stream (extension; paper: aperiodic).
    pub update_mode: UpdateMode,
    /// Number of low-importance view objects (N_l).
    pub n_low: u32,
    /// Number of high-importance view objects (N_h).
    pub n_high: u32,

    // ---- Table 2: transactions ----
    /// Transaction arrival rate λ_t (transactions/second).
    pub lambda_t: f64,
    /// Probability an arriving transaction is low-value (p_tl).
    pub p_txn_low: f64,
    /// Minimum slack S_min, seconds (uniform slack distribution).
    pub slack_min: f64,
    /// Maximum slack S_max, seconds.
    pub slack_max: f64,
    /// Mean value of a low-value transaction (v_l).
    pub value_low_mean: f64,
    /// Mean value of a high-value transaction (v_h).
    pub value_high_mean: f64,
    /// Std. dev. of low-value transaction values (σ_vl).
    pub value_low_sd: f64,
    /// Std. dev. of high-value transaction values (σ_vh).
    pub value_high_sd: f64,
    /// Mean number of view objects read (r; normal, rounded, clamped ≥ 0).
    pub reads_mean: f64,
    /// Std. dev. of the number of view objects read (σ_r).
    pub reads_sd: f64,
    /// Maximum age α of data used by transactions, seconds (MA criterion).
    pub max_age: f64,
    /// Mean computation time x̄ of transactions, seconds.
    pub compute_mean: f64,
    /// Std. dev. of computation time σ_x, seconds.
    pub compute_sd: f64,
    /// Fraction of computation done before the view reads (p_view).
    pub p_view: f64,
    /// Zipf exponent skewing which objects transactions read (0 = uniform,
    /// the paper's model; extension knob — object 0 of each class is the
    /// hottest).
    pub read_skew: f64,
    /// Transient overload burst applied to the transaction stream
    /// (extension; `None` = the paper's stationary Poisson load).
    pub lambda_t_burst: Option<BurstSpec>,

    // ---- Table 3: system ----
    /// CPU cost model (ips, x_lookup, x_update, x_switch, x_queue, x_scan).
    pub costs: CostModel,
    /// Maximum size of the OS queue, in updates (OS_max).
    pub os_max: usize,
    /// Maximum size of the update queue, in updates (UQ_max).
    pub uq_max: usize,
    /// Update-queue overflow shedding policy (paper §4.2: discard the oldest
    /// generation, i.e. `DropOldest`).
    pub uq_shed: ShedPolicy,
    /// Only schedule transactions that can still meet their deadline
    /// (feasible_dl).
    pub feasible_deadline: bool,
    /// Whether transactions may preempt each other (Table 3: FALSE).
    pub txn_preemption: bool,
    /// Update-queue service discipline (Table 3: FIFO).
    pub queue_policy: QueuePolicy,

    // ---- Scenario switches (§6) ----
    /// Scheduling algorithm under test.
    pub policy: Policy,
    /// Staleness criterion: MA with α = `max_age`, or UU.
    pub staleness: StalenessSpec,
    /// Abort a transaction as soon as it reads a stale object (§6.2). Under
    /// OD a transaction is aborted only if the on-demand refresh also fails.
    pub abort_on_stale: bool,

    // ---- Extensions ----
    /// Hash-index/dedup the update queue: keep only the newest queued update
    /// per object and charge constant-time (instead of linear) queue probes
    /// (paper §4.2/§4.4 future work).
    pub indexed_queue: bool,
    /// Split the update queue by importance and install from the
    /// high-importance partition first (paper §4.2: "a subject for future
    /// study"). Affects the queue-using policies; UF has no queue.
    pub split_update_queue: bool,
    /// Attributes per view object (paper §2; 1 = the paper's model). With
    /// more than one attribute, partial updates become possible and MA
    /// staleness follows the *oldest* attribute.
    pub attrs_per_object: u32,
    /// Probability an arriving update is partial — providing one random
    /// attribute instead of all (paper §2 "partial updates", evaluated as
    /// an extension; requires the MA criterion and `attrs_per_object > 1`).
    pub p_partial_update: f64,
    /// Historical views (paper §2/§7 extension); `None` = snapshot-only,
    /// the paper's model.
    pub history: Option<HistoryAccess>,
    /// Update-triggered rules (paper §7 extension); `None` = no rules.
    pub triggers: Option<TriggerConfig>,
    /// Derived-view DAG with incremental delta propagation (paper §7
    /// extension, generalising single-level rules to multi-level views);
    /// `None` = no derived views, the paper's model.
    pub dag: Option<DagSpec>,
    /// Disk-resident buffer-pool model (paper §7 extension); `None` = the
    /// paper's main-memory database.
    pub io: Option<IoModel>,
    /// Disturbances applied to the update stream (robustness extension);
    /// `None` = the paper's well-behaved stream.
    pub disturbance: Option<DisturbanceSpec>,
    /// Controller admission control (robustness extension); `None` = admit
    /// every arrival the OS queue can hold.
    pub admission: Option<AdmissionControl>,
    /// Number of general-data objects (cost folded into compute time; the
    /// store still carries real general data for API users).
    pub n_general: u32,

    // ---- Run control ----
    /// Simulated duration in seconds (paper: 1000).
    pub duration: f64,
    /// Prefix of the run excluded from all metrics, seconds.
    pub warmup: f64,
    /// Emit per-window transaction metrics with this window width in
    /// seconds (extension; `None` = aggregate metrics only).
    pub timeline_window: Option<f64>,
    /// Master RNG seed; every stochastic process derives a sub-stream.
    pub seed: u64,
}

impl Default for SimConfig {
    /// The paper's baseline settings (Tables 1–3).
    fn default() -> Self {
        SimConfig {
            lambda_u: 400.0,
            p_update_low: 0.5,
            mean_update_age: 0.1,
            update_mode: UpdateMode::Aperiodic,
            n_low: 500,
            n_high: 500,
            lambda_t: 10.0,
            p_txn_low: 0.5,
            slack_min: 0.1,
            slack_max: 1.0,
            value_low_mean: 1.0,
            value_high_mean: 2.0,
            value_low_sd: 0.5,
            value_high_sd: 0.5,
            reads_mean: 2.0,
            reads_sd: 1.0,
            max_age: 7.0,
            compute_mean: 0.12,
            compute_sd: 0.01,
            p_view: 0.0,
            read_skew: 0.0,
            lambda_t_burst: None,
            costs: CostModel::default(),
            os_max: 4_000,
            uq_max: 5_600,
            uq_shed: ShedPolicy::DropOldest,
            feasible_deadline: true,
            txn_preemption: false,
            queue_policy: QueuePolicy::Fifo,
            policy: Policy::TransactionsFirst,
            staleness: StalenessSpec::MaxAge { alpha: 7.0 },
            abort_on_stale: false,
            indexed_queue: false,
            split_update_queue: false,
            attrs_per_object: 1,
            p_partial_update: 0.0,
            history: None,
            triggers: None,
            dag: None,
            io: None,
            disturbance: None,
            admission: None,
            n_general: 100,
            duration: 1_000.0,
            warmup: 0.0,
            timeline_window: None,
            seed: 0x5712_1995,
        }
    }
}

impl SimConfig {
    /// Starts a builder initialised to the paper's baseline.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }

    /// Sizes the event calendar for this scenario so the engine never
    /// reallocates mid-run. Under a Maximum Age criterion the calendar is
    /// dominated by the MA watchdogs: one per install, each pending for up
    /// to α — about ⌈α·λu⌉ of them in steady state, give or take four
    /// Poisson standard deviations, and one per view object at the start
    /// (the initial watches fall due as installs arm new ones). The rest —
    /// the next arrival of each source, transaction deadlines, the
    /// completions of preempted slices — fit in a constant 256. The
    /// calendar reserves this many slab slots and near-heap entries
    /// (DESIGN.md §8).
    #[must_use]
    pub fn calendar_capacity_hint(&self) -> usize {
        let watches = self.staleness.alpha().map_or(0, |alpha| {
            let steady = (alpha * self.lambda_u).ceil() as usize;
            (steady + 4 * steady.isqrt()).max(self.n_low as usize + self.n_high as usize)
        });
        watches + 256
    }

    /// Validates parameter consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn check(ok: bool, what: &str) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError(what.to_string()))
            }
        }
        check(
            self.lambda_u >= 0.0 && self.lambda_u.is_finite(),
            "lambda_u must be >= 0",
        )?;
        check(
            self.lambda_t >= 0.0 && self.lambda_t.is_finite(),
            "lambda_t must be >= 0",
        )?;
        check(
            (0.0..=1.0).contains(&self.p_update_low),
            "p_update_low must be in [0,1]",
        )?;
        check(
            (0.0..=1.0).contains(&self.p_txn_low),
            "p_txn_low must be in [0,1]",
        )?;
        check(
            (0.0..=1.0).contains(&self.p_view),
            "p_view must be in [0,1]",
        )?;
        check(self.mean_update_age >= 0.0, "mean_update_age must be >= 0")?;
        check(
            self.n_low + self.n_high > 0,
            "need at least one view object",
        )?;
        check(
            self.slack_min >= 0.0 && self.slack_max >= self.slack_min,
            "slack range must satisfy 0 <= slack_min <= slack_max",
        )?;
        check(self.reads_mean >= 0.0, "reads_mean must be >= 0")?;
        check(
            self.read_skew >= 0.0 && self.read_skew.is_finite(),
            "read_skew must be >= 0",
        )?;
        check(self.compute_mean > 0.0, "compute_mean must be > 0")?;
        check(self.compute_sd >= 0.0, "compute_sd must be >= 0")?;
        check(self.max_age > 0.0, "max_age must be > 0")?;
        check(self.costs.ips > 0.0, "ips must be > 0")?;
        check(self.os_max > 0, "os_max must be > 0")?;
        check(self.uq_max > 0, "uq_max must be > 0")?;
        check(self.duration > 0.0, "duration must be > 0")?;
        check(
            (0.0..self.duration).contains(&self.warmup),
            "warmup must be in [0, duration)",
        )?;
        if let Some(w) = self.timeline_window {
            check(w > 0.0 && w.is_finite(), "timeline window must be > 0")?;
        }
        if let Some(b) = self.lambda_t_burst {
            check(
                b.from >= 0.0 && b.until > b.from,
                "burst must satisfy 0 <= from < until",
            )?;
            check(
                b.factor >= 0.0 && b.factor.is_finite(),
                "burst factor must be >= 0",
            )?;
        }
        if let Policy::FixedFraction { fraction } = self.policy {
            check(
                (0.0..=1.0).contains(&fraction),
                "fixed fraction must be in [0,1]",
            )?;
        }
        check(
            (1..=64).contains(&self.attrs_per_object),
            "attrs_per_object must be in [1, 64]",
        )?;
        check(
            (0.0..=1.0).contains(&self.p_partial_update),
            "p_partial_update must be in [0,1]",
        )?;
        if self.p_partial_update > 0.0 {
            check(
                self.attrs_per_object > 1,
                "partial updates need attrs_per_object > 1",
            )?;
            check(
                matches!(self.staleness, StalenessSpec::MaxAge { .. }),
                "partial updates are only modelled under the MA criterion",
            )?;
        }
        if let Some(h) = self.history {
            check(
                (0.0..=1.0).contains(&h.p_historical_read),
                "p_historical_read must be in [0,1]",
            )?;
            check(
                h.lag_min >= 0.0 && h.lag_max >= h.lag_min,
                "history lags must satisfy 0 <= lag_min <= lag_max",
            )?;
            check(
                h.policy.retention_secs > 0.0,
                "history retention must be > 0",
            )?;
            check(
                h.policy.max_entries_per_object > 0,
                "history cap must be > 0",
            )?;
            check(
                self.attrs_per_object == 1,
                "historical views are modelled for single-attribute objects",
            )?;
        }
        if let Some(io) = self.io {
            check(
                (0.0..=1.0).contains(&io.hit_ratio),
                "hit_ratio must be in [0,1]",
            )?;
            check(io.x_io >= 0.0, "x_io must be >= 0")?;
        }
        if let Some(t) = self.triggers {
            check(t.sources_per_rule > 0, "rules need at least one source")?;
            check(t.exec_instr >= 0.0, "rule execution cost must be >= 0")?;
            check(t.max_pending > 0, "trigger max_pending must be > 0")?;
            check(
                self.n_general > 0,
                "rules need general objects to derive into",
            )?;
        }
        if let Some(d) = self.dag {
            check(d.depth > 0, "dag depth must be > 0")?;
            check(d.width > 0, "dag width must be > 0")?;
            check(d.fanout > 0, "dag fanout must be > 0")?;
            check(
                d.edge_cost_instr >= 0.0 && d.edge_cost_instr.is_finite(),
                "dag edge cost must be >= 0",
            )?;
            check(d.max_pending > 0, "dag max_pending must be > 0")?;
            check(
                d.derived_reads_mean >= 0.0 && d.derived_reads_mean.is_finite(),
                "dag derived_reads_mean must be >= 0",
            )?;
        }
        if let Some(d) = self.disturbance {
            check(d.burst_size >= 1, "disturbance burst_size must be >= 1")?;
            check(
                d.outage_from >= 0.0 && d.outage_from.is_finite(),
                "disturbance outage_from must be >= 0",
            )?;
            check(
                d.outage_secs >= 0.0 && d.outage_secs.is_finite(),
                "disturbance outage_secs must be >= 0",
            )?;
            check(
                d.jitter_max >= 0.0 && d.jitter_max.is_finite(),
                "disturbance jitter_max must be >= 0",
            )?;
            check(
                (0.0..=1.0).contains(&d.p_duplicate),
                "disturbance p_duplicate must be in [0,1]",
            )?;
            check(
                d.duplicate_lag >= 0.0 && d.duplicate_lag.is_finite(),
                "disturbance duplicate_lag must be >= 0",
            )?;
            check(
                (0.0..=1.0).contains(&d.p_reorder),
                "disturbance p_reorder must be in [0,1]",
            )?;
            check(
                d.reorder_lag >= 0.0 && d.reorder_lag.is_finite(),
                "disturbance reorder_lag must be >= 0",
            )?;
        }
        if let Some(a) = self.admission {
            check(
                (0.0..=1.0).contains(&a.util_threshold),
                "admission util_threshold must be in [0,1]",
            )?;
        }
        if let UpdateMode::Periodic { jitter_frac } = self.update_mode {
            check(
                (0.0..=1.0).contains(&jitter_frac),
                "periodic jitter fraction must be in [0,1]",
            )?;
        }
        if let Some(alpha) = self.staleness.alpha() {
            check(alpha > 0.0, "staleness alpha must be > 0")?;
        }
        Ok(())
    }

    /// Mean per-object update inter-arrival time for a class (seconds) —
    /// the steady-state mean age used to initialise objects.
    #[must_use]
    pub fn per_object_refresh_mean(&self, low: bool) -> f64 {
        let (p, n) = if low {
            (self.p_update_low, self.n_low)
        } else {
            (1.0 - self.p_update_low, self.n_high)
        };
        let rate = self.lambda_u * p / n.max(1) as f64;
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / rate
        }
    }
}

/// A violated configuration constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SimConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder over [`SimConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, v: $ty) -> Self {
            self.cfg.$name = v;
            self
        }
    };
}

impl SimConfigBuilder {
    setter!(/// Sets the update arrival rate λ_u.
        lambda_u: f64);
    setter!(/// Sets the probability an update is to low-importance data.
        p_update_low: f64);
    setter!(/// Sets the mean network age of arriving updates.
        mean_update_age: f64);
    setter!(/// Sets the update arrival process (aperiodic or periodic).
        update_mode: UpdateMode);
    setter!(/// Sets the number of attributes per view object.
        attrs_per_object: u32);
    setter!(/// Sets the probability an update is partial.
        p_partial_update: f64);
    setter!(/// Enables historical views with the given access pattern.
        history: Option<HistoryAccess>);
    setter!(/// Enables update-triggered rules.
        triggers: Option<TriggerConfig>);
    setter!(/// Enables the derived-view DAG with delta propagation.
        dag: Option<DagSpec>);
    setter!(/// Enables the disk-resident buffer-pool model.
        io: Option<IoModel>);
    setter!(/// Sets the number of low-importance view objects.
        n_low: u32);
    setter!(/// Sets the number of high-importance view objects.
        n_high: u32);
    setter!(/// Sets the transaction arrival rate λ_t.
        lambda_t: f64);
    setter!(/// Sets the probability a transaction is low-value.
        p_txn_low: f64);
    setter!(/// Sets the minimum slack.
        slack_min: f64);
    setter!(/// Sets the maximum slack.
        slack_max: f64);
    setter!(/// Sets the mean number of view objects a transaction reads.
        reads_mean: f64);
    setter!(/// Sets the std. dev. of the number of view objects read.
        reads_sd: f64);
    setter!(/// Sets the MA threshold α (also mirrored into `staleness` when
        /// that is `MaxAge`).
        max_age: f64);
    setter!(/// Sets the mean transaction computation time.
        compute_mean: f64);
    setter!(/// Sets the std. dev. of transaction computation time.
        compute_sd: f64);
    setter!(/// Sets the fraction of computation done before view reads.
        p_view: f64);
    setter!(/// Sets the Zipf exponent of the read-access skew.
        read_skew: f64);
    setter!(/// Applies a transient burst to the transaction stream.
        lambda_t_burst: Option<BurstSpec>);
    setter!(/// Enables per-window timeline metrics.
        timeline_window: Option<f64>);
    setter!(/// Sets the CPU cost model.
        costs: CostModel);
    setter!(/// Sets the OS queue bound.
        os_max: usize);
    setter!(/// Sets the update queue bound.
        uq_max: usize);
    setter!(/// Sets the update-queue overflow shedding policy.
        uq_shed: ShedPolicy);
    setter!(/// Applies disturbances to the update stream.
        disturbance: Option<DisturbanceSpec>);
    setter!(/// Enables controller admission control.
        admission: Option<AdmissionControl>);
    setter!(/// Enables/disables feasible-deadline scheduling.
        feasible_deadline: bool);
    setter!(/// Enables/disables transaction-transaction preemption.
        txn_preemption: bool);
    setter!(/// Sets the update-queue service discipline.
        queue_policy: QueuePolicy);
    setter!(/// Sets the scheduling policy.
        policy: Policy);
    setter!(/// Sets the staleness criterion.
        staleness: StalenessSpec);
    setter!(/// Enables/disables abort-on-stale-read.
        abort_on_stale: bool);
    setter!(/// Enables/disables the hash-indexed (dedup) update queue.
        indexed_queue: bool);
    setter!(/// Enables/disables the split high/low update queue.
        split_update_queue: bool);
    setter!(/// Sets the number of general objects.
        n_general: u32);
    setter!(/// Sets the simulated duration.
        duration: f64);
    setter!(/// Sets the metric warm-up prefix.
        warmup: f64);
    setter!(/// Sets the master seed.
        seed: u64);

    /// Sets transaction value distributions `(low_mean, low_sd, high_mean,
    /// high_sd)`.
    #[must_use]
    pub fn values(mut self, low_mean: f64, low_sd: f64, high_mean: f64, high_sd: f64) -> Self {
        self.cfg.value_low_mean = low_mean;
        self.cfg.value_low_sd = low_sd;
        self.cfg.value_high_mean = high_mean;
        self.cfg.value_high_sd = high_sd;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// `max_age` is mirrored into the MA staleness spec so callers that set
    /// only `max_age` keep the two in sync.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any constraint is violated.
    pub fn build(mut self) -> Result<SimConfig, ConfigError> {
        match self.cfg.staleness {
            StalenessSpec::MaxAge { .. } => {
                self.cfg.staleness = StalenessSpec::MaxAge {
                    alpha: self.cfg.max_age,
                };
            }
            StalenessSpec::Either { .. } => {
                self.cfg.staleness = StalenessSpec::Either {
                    alpha: self.cfg.max_age,
                };
            }
            StalenessSpec::UnappliedUpdate => {}
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_tables() {
        let c = SimConfig::default();
        // Table 1
        assert_eq!(c.lambda_u, 400.0);
        assert_eq!(c.p_update_low, 0.5);
        assert_eq!(c.mean_update_age, 0.1);
        assert_eq!(c.n_low, 500);
        assert_eq!(c.n_high, 500);
        // Table 2
        assert_eq!(c.lambda_t, 10.0);
        assert_eq!(c.slack_min, 0.1);
        assert_eq!(c.slack_max, 1.0);
        assert_eq!(c.value_low_mean, 1.0);
        assert_eq!(c.value_high_mean, 2.0);
        assert_eq!(c.reads_mean, 2.0);
        assert_eq!(c.max_age, 7.0);
        assert_eq!(c.compute_mean, 0.12);
        assert_eq!(c.p_view, 0.0);
        // Table 3
        assert_eq!(c.os_max, 4_000);
        assert_eq!(c.uq_max, 5_600);
        assert!(c.feasible_deadline);
        assert!(!c.txn_preemption);
        assert_eq!(c.queue_policy, QueuePolicy::Fifo);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_round_trip() {
        let c = SimConfig::builder()
            .lambda_t(20.0)
            .policy(Policy::OnDemand)
            .queue_policy(QueuePolicy::Lifo)
            .abort_on_stale(true)
            .duration(50.0)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(c.lambda_t, 20.0);
        assert_eq!(c.policy, Policy::OnDemand);
        assert_eq!(c.queue_policy, QueuePolicy::Lifo);
        assert!(c.abort_on_stale);
    }

    #[test]
    fn builder_mirrors_max_age_into_staleness() {
        let c = SimConfig::builder().max_age(3.0).build().unwrap();
        assert_eq!(c.staleness, StalenessSpec::MaxAge { alpha: 3.0 });
        // But UU is left alone.
        let c = SimConfig::builder()
            .staleness(StalenessSpec::UnappliedUpdate)
            .max_age(3.0)
            .build()
            .unwrap();
        assert_eq!(c.staleness, StalenessSpec::UnappliedUpdate);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimConfig::builder().lambda_t(-1.0).build().is_err());
        assert!(SimConfig::builder().p_view(1.5).build().is_err());
        assert!(SimConfig::builder()
            .slack_min(2.0)
            .slack_max(1.0)
            .build()
            .is_err());
        assert!(SimConfig::builder().duration(0.0).build().is_err());
        assert!(SimConfig::builder().warmup(1000.0).build().is_err());
        assert!(SimConfig::builder()
            .policy(Policy::FixedFraction { fraction: 1.5 })
            .build()
            .is_err());
        assert!(SimConfig::builder().n_low(0).n_high(0).build().is_err());
        assert!(SimConfig::builder()
            .disturbance(Some(DisturbanceSpec {
                burst_size: 0,
                ..DisturbanceSpec::default()
            }))
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .disturbance(Some(DisturbanceSpec {
                p_duplicate: 1.5,
                ..DisturbanceSpec::default()
            }))
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .admission(Some(AdmissionControl {
                util_threshold: -0.1,
            }))
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .dag(Some(DagSpec {
                depth: 0,
                ..DagSpec::default()
            }))
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .dag(Some(DagSpec {
                edge_cost_instr: -1.0,
                ..DagSpec::default()
            }))
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .dag(Some(DagSpec::default()))
            .build()
            .is_ok());
    }

    #[test]
    fn resilience_defaults_are_off() {
        let c = SimConfig::default();
        assert_eq!(c.uq_shed, ShedPolicy::DropOldest);
        assert!(c.disturbance.is_none());
        assert!(c.admission.is_none());
        // The neutral disturbance spec is valid and declares no outage.
        let d = DisturbanceSpec::default();
        assert_eq!(d.outage_window(), None);
        let d = DisturbanceSpec {
            outage_from: 100.0,
            outage_secs: 5.0,
            ..DisturbanceSpec::default()
        };
        assert_eq!(d.outage_window(), Some((100.0, 105.0)));
    }

    #[test]
    fn per_object_refresh_mean_baseline() {
        let c = SimConfig::default();
        // 400/s * 0.5 over 500 objects -> 0.4/s per object -> 2.5 s mean.
        assert!((c.per_object_refresh_mean(true) - 2.5).abs() < 1e-12);
        assert!((c.per_object_refresh_mean(false) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn policy_labels_and_queue_use() {
        assert_eq!(Policy::UpdatesFirst.label(), "UF");
        assert_eq!(Policy::OnDemand.label(), "OD");
        assert!(!Policy::UpdatesFirst.uses_update_queue());
        assert!(Policy::SplitUpdates.uses_update_queue());
        assert_eq!(Policy::PAPER_SET.len(), 4);
    }
}
