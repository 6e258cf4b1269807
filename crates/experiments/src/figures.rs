//! Reproduction of every figure in the paper's evaluation (§6), and of the
//! experiments it leaves open (figX1–figX4).
//!
//! The evaluation has one shape — a metric against one swept parameter, one
//! curve per algorithm — so every experiment is declared once, as data. A
//! row of [`SWEEPS`] says what is simulated: the x grid, what the curves
//! vary, how a point's [`SimConfig`] is built, and the x that `repro trace`
//! runs. A row of [`PANELS`] says what is plotted from a sweep. A
//! [`Campaign`] runs sweeps through the [`SweepRunner`], memoised by key (so
//! the baseline λt sweep behind Figures 3–6 and 11–13 runs once), and
//! assembles panels; nothing else knows a figure.

use std::collections::BTreeMap;
use std::str::FromStr;

use strip_core::config::{
    BurstSpec, DagSpec, DisturbanceSpec, HistoryAccess, IoModel, Policy, QueuePolicy, ShedPolicy,
    SimConfig, SimConfigBuilder, TriggerConfig, UpdateMode,
};
use strip_core::report::{RunReport, TimelineWindow};
use strip_db::cost::CostModel;
use strip_db::history::HistoryPolicy;
use strip_db::staleness::StalenessSpec;
use strip_sim::stats::Welford;

use crate::runner::{PointFailure, SweepRunner};
use crate::sweep::RunSettings;
use crate::table::{Figure, Series};

/// Transaction arrival rates swept in Figures 3–6 and 11–14 (the paper
/// plots λt from 0 to 25).
pub const LT_GRID: [f64; 11] = [1.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0];
/// λt grid of Figure 16 (the paper plots 0 to 16 under UU).
pub const LT_GRID_UU: [f64; 9] = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0];
/// `x_update` grid of Figure 7(a).
pub const XUPDATE_GRID: [f64; 6] = [0.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0];
/// `x_queue` grid of Figure 7(b).
pub const XQUEUE_GRID: [f64; 6] = [0.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0];
/// `x_scan` grid of Figure 8.
pub const XSCAN_GRID: [f64; 6] = [0.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0];
/// λu grid of Figure 9.
pub const LU_GRID: [f64; 9] = [
    200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0,
];
/// Maximum-age grid of Figure 10.
pub const ALPHA_GRID: [f64; 8] = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
/// `p_view` grid of Figure 15.
pub const PVIEW_GRID: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
/// Feed-outage lengths (seconds) swept by the figR1 resilience experiment;
/// 0 is the undisturbed baseline.
pub const OUTAGE_GRID: [f64; 5] = [0.0, 2.0, 5.0, 10.0, 20.0];
/// DAG depths swept by the figD1 derived-view experiment (extension).
pub const DAG_DEPTH_GRID: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 6.0];
/// A switch, off then on (figX1, figX2).
pub const ON_OFF: [f64; 2] = [0.0, 1.0];
/// A three-way categorical knob, by index; the sweep's x label names each.
pub const THREE_WAY: [f64; 3] = [0.0, 1.0, 2.0];
/// CPU fractions reserved for updates (figX1a–b).
pub const FX_GRID: [f64; 5] = [0.05, 0.1, 0.19, 0.3, 0.5];
/// Probabilities that an update is partial (figX2c–d).
pub const P_PARTIAL_GRID: [f64; 3] = [0.0, 0.5, 1.0];
/// History retention in seconds (figX3a–c).
pub const RETENTION_GRID: [f64; 4] = [5.0, 15.0, 30.0, 60.0];
/// Numbers of update-triggered rules (figX3d–f).
pub const N_RULES_GRID: [f64; 2] = [0.0, 1_000.0];
/// Buffer-pool hit ratios (figX3g); 1 is the paper's main-memory database.
pub const HIT_RATIO_GRID: [f64; 4] = [1.0, 0.95, 0.9, 0.8];
/// Width of figX4's timeline windows, seconds.
const WINDOW_SECS: f64 = 20.0;
/// figX4's window starts: 0, 20, …, 980 s, the windows of a 1000 s run.
pub const WINDOW_GRID: [f64; 50] = {
    let mut starts = [0.0; 50];
    let mut i = 0;
    while i < starts.len() {
        starts[i] = WINDOW_SECS * i as f64;
        i += 1;
    }
    starts
};

/// Emits [`FigureId`], [`FigureId::ALL`] and [`FigureId::name`] from one
/// `Variant = "name"` list, in paper order.
macro_rules! figure_ids {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)*) => {
        /// The reproducible experiments, one per paper figure (plus the
        /// parameter tables).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FigureId {
            $($(#[$doc])* $variant,)*
        }

        impl FigureId {
            /// All experiments in paper order.
            pub const ALL: [FigureId; [$($name),*].len()] = [$(FigureId::$variant),*];

            /// Canonical name ("fig03", "tables").
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $(FigureId::$variant => $name,)*
                }
            }
        }
    };
}

figure_ids! {
    /// Tables 1–3: baseline parameters.
    Tables = "tables",
    /// Figure 3: CPU time split ρt / ρu vs λt.
    Fig03 = "fig03",
    /// Figure 4: pMD and AV vs λt.
    Fig04 = "fig04",
    /// Figure 5: fold_l and fold_h vs λt.
    Fig05 = "fig05",
    /// Figure 6: psuccess and psuc|nontardy vs λt.
    Fig06 = "fig06",
    /// Figure 7: AV vs x_update and x_queue.
    Fig07 = "fig07",
    /// Figure 8: AV vs x_scan.
    Fig08 = "fig08",
    /// Figure 9: psuccess and AV vs λu.
    Fig09 = "fig09",
    /// Figure 10: AV vs α (alone, and with Nl/Nh scaled).
    Fig10 = "fig10",
    /// Figure 11: FIFO/LIFO ratios of fold_l and psuccess vs λt.
    Fig11 = "fig11",
    /// Figure 12: fold_h vs λt with stale-abort, and ratio to no-abort.
    Fig12 = "fig12",
    /// Figure 13: AV vs λt with stale-abort, and ratio to no-abort.
    Fig13 = "fig13",
    /// Figure 14: psuccess vs λt with stale-abort.
    Fig14 = "fig14",
    /// Figure 15: AV vs p_view (abort mode), plus stale-read fractions.
    Fig15 = "fig15",
    /// Figure 16: psuccess vs λt under UU.
    Fig16 = "fig16",
    /// Resilience experiment (not in the paper): staleness, missed
    /// deadlines and recovery time vs feed-outage length, plus shedding
    /// policies under the catch-up flood.
    FigR1 = "figr1",
    /// Derived-view DAG experiment (extension): delta-propagation lag,
    /// derived staleness and on-demand refresh load vs DAG depth.
    FigD1 = "figd1",
    /// Ablations (extension, λt = 15): a fixed update fraction, the indexed
    /// queue, the split queue, transaction preemption, feasible deadlines.
    FigX1 = "figx1",
    /// Update-stream properties (extension, λt = 10): periodic and partial
    /// updates, install order under skewed reads, the staleness criterion.
    FigX2 = "figx2",
    /// Services (extension, λt = 10): history retention, triggered rules,
    /// a disk-resident buffer pool.
    FigX3 = "figx3",
    /// Transient overload (extension): per-window psuccess through a 4×
    /// transaction burst.
    FigX4 = "figx4",
}

impl FigureId {
    /// The figure's panels: the [`PANELS`] rows whose id its name prefixes
    /// (`fig04` owns `fig04a` and `fig04b`; `tables` owns none).
    pub fn panels(self) -> impl Iterator<Item = &'static Panel> {
        PANELS.iter().filter(move |p| p.id.starts_with(self.name()))
    }
}

impl FromStr for FigureId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FigureId::ALL
            .iter()
            .find(|f| f.name() == s)
            .copied()
            .ok_or_else(|| format!("unknown figure '{s}'"))
    }
}

/// What one curve of a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Curve {
    /// One of the paper's four scheduling algorithms.
    Algorithm(Policy),
    /// An update-queue shedding policy, run under TF (figR1 panel d).
    Shedding(ShedPolicy),
}

impl Curve {
    /// Legend label of the curve's series.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Curve::Algorithm(policy) => policy.label(),
            Curve::Shedding(shed) => shed.label(),
        }
    }

    /// The paper's baseline as the curve runs it; every sweep varies this.
    fn base(self) -> SimConfigBuilder {
        match self {
            Curve::Algorithm(policy) => SimConfig::builder().policy(policy),
            Curve::Shedding(shed) => SimConfig::builder()
                .policy(Policy::TransactionsFirst)
                .uq_shed(shed),
        }
    }
}

fn algorithms() -> Vec<Curve> {
    Policy::PAPER_SET.map(Curve::Algorithm).to_vec()
}

fn shedding_policies() -> Vec<Curve> {
    ShedPolicy::ALL.map(Curve::Shedding).to_vec()
}

/// One simulated experiment: every curve at every x.
pub struct Sweep {
    /// Memoisation key and checkpoint-file namespace.
    pub key: &'static str,
    /// Name of the swept parameter (the x-axis label of every panel).
    pub x_label: &'static str,
    /// The swept values.
    pub xs: &'static [f64],
    /// The curves, in legend order.
    pub curves: fn() -> Vec<Curve>,
    /// The x at which `repro trace` runs the sweep: where the curves differ
    /// most visibly.
    pub trace_x: f64,
    /// Sets what the sweep varies, at `x`, on a curve's baseline.
    /// [`Sweep::config`] validates the result and applies the campaign's
    /// duration and seed.
    pub build: fn(SimConfigBuilder, &RunSettings, f64) -> SimConfigBuilder,
}

impl Sweep {
    /// The sweep's points, curve-major: the job order of the runner and of
    /// the checkpoint files.
    pub fn points(&self) -> impl Iterator<Item = (Curve, f64)> + '_ {
        (self.curves)()
            .into_iter()
            .flat_map(|curve| self.xs.iter().map(move |&x| (curve, x)))
    }

    /// The configuration a campaign with `settings` runs at `(curve, x)`.
    ///
    /// # Panics
    /// Panics when a row builds parameters the core rejects: every grid is
    /// meant to lie inside the validated ranges.
    #[must_use]
    pub fn config(&self, settings: &RunSettings, curve: Curve, x: f64) -> SimConfig {
        let built = (self.build)(curve.base(), settings, x).build();
        settings.apply(built.unwrap_or_else(|e| panic!("sweep {} at x = {x}: {e}", self.key)))
    }
}

/// A feed outage of `secs` seconds starting at 40% of the run.
fn outage(settings: &RunSettings, secs: f64) -> Option<DisturbanceSpec> {
    Some(DisturbanceSpec {
        outage_from: settings.duration * 0.4,
        outage_secs: secs,
    })
}

/// The λt every λt sweep is traced at: the knee of the paper's curves.
const TRACE_LAMBDA_T: f64 = 12.0;

/// Emits one `static` per row, so [`PANELS`] can name its sweeps, and
/// [`SWEEPS`] listing them all.
macro_rules! sweeps {
    ($($(#[$doc:meta])* $name:ident = $row:expr;)*) => {
        $($(#[$doc])* pub static $name: Sweep = $row;)*

        /// Every sweep, in declaration order.
        pub static SWEEPS: &[&Sweep] = &[$(&$name),*];
    };
}

sweeps! {
    /// The baseline workload (Figures 3–6; the denominator of 11–13).
    BASELINE_LT = Sweep {
        key: "baseline_lt",
        x_label: "lambda_t",
        xs: &LT_GRID,
        curves: algorithms,
        trace_x: TRACE_LAMBDA_T,
        build: |base, _, lt| base.lambda_t(lt),
    };
    /// Transactions abort on a stale view read (Figures 12–14).
    ABORT_LT = Sweep {
        key: "abort_lt",
        x_label: "lambda_t",
        xs: &LT_GRID,
        curves: algorithms,
        trace_x: TRACE_LAMBDA_T,
        build: |base, _, lt| base.lambda_t(lt).abort_on_stale(true),
    };
    /// LIFO update queue (the denominator of Figure 11).
    LIFO_LT = Sweep {
        key: "lifo_lt",
        x_label: "lambda_t",
        xs: &LT_GRID,
        curves: algorithms,
        trace_x: TRACE_LAMBDA_T,
        build: |base, _, lt| base.lambda_t(lt).queue_policy(QueuePolicy::Lifo),
    };
    /// Unapplied-update staleness criterion (Figure 16).
    UU_LT = Sweep {
        key: "uu_lt",
        x_label: "lambda_t",
        xs: &LT_GRID_UU,
        curves: algorithms,
        trace_x: TRACE_LAMBDA_T,
        build: |base, _, lt| base.lambda_t(lt).staleness(StalenessSpec::UnappliedUpdate),
    };
    /// Install cost (Figure 7a).
    XUPDATE = Sweep {
        key: "xupdate",
        x_label: "x_update",
        xs: &XUPDATE_GRID,
        curves: algorithms,
        trace_x: 40_000.0,
        build: |base, _, x| {
            base.costs(CostModel {
                x_update: x,
                ..CostModel::default()
            })
        },
    };
    /// Queue add/remove cost (Figure 7b).
    XQUEUE = Sweep {
        key: "xqueue",
        x_label: "x_queue",
        xs: &XQUEUE_GRID,
        curves: algorithms,
        trace_x: 4_000.0,
        build: |base, _, x| {
            base.costs(CostModel {
                x_queue: x,
                ..CostModel::default()
            })
        },
    };
    /// Queue scan cost (Figure 8).
    XSCAN = Sweep {
        key: "xscan",
        x_label: "x_scan",
        xs: &XSCAN_GRID,
        curves: algorithms,
        trace_x: 8_000.0,
        build: |base, _, x| {
            base.costs(CostModel {
                x_scan: x,
                ..CostModel::default()
            })
        },
    };
    /// Update arrival rate (Figure 9).
    LAMBDA_U = Sweep {
        key: "lambda_u",
        x_label: "lambda_u",
        xs: &LU_GRID,
        curves: algorithms,
        trace_x: 550.0,
        build: |base, _, lu| base.lambda_u(lu),
    };
    /// Maximum age α (Figure 10a). AV only responds to α when stale reads
    /// cost something, so both α sweeps abort on stale reads: the one
    /// setting that reproduces the paper's strong AV-vs-α dependence for
    /// every algorithm including UF (see EXPERIMENTS.md).
    ALPHA = Sweep {
        key: "alpha",
        x_label: "alpha",
        xs: &ALPHA_GRID,
        curves: algorithms,
        trace_x: 3.0,
        build: |base, _, alpha| base.max_age(alpha).abort_on_stale(true),
    };
    /// α with Nl and Nh scaled to hold α·λu/(Nl+Nh) constant (Figure 10b).
    ALPHA_SCALED = Sweep {
        key: "alpha_scaled",
        x_label: "alpha",
        xs: &ALPHA_GRID,
        curves: algorithms,
        trace_x: 3.0,
        build: |base, _, alpha| {
            let n = (500.0 * alpha / 7.0).round() as u32;
            base.max_age(alpha).n_low(n).n_high(n).abort_on_stale(true)
        },
    };
    /// Fraction of the computation done before the view reads, aborting on
    /// stale reads (Figure 15).
    PVIEW = Sweep {
        key: "pview",
        x_label: "p_view",
        xs: &PVIEW_GRID,
        curves: algorithms,
        trace_x: 0.8,
        build: |base, _, pv| base.p_view(pv).abort_on_stale(true),
    };
    /// figD1: a derived-view DAG of swept depth. Width shrinks with depth so
    /// the node count stays roughly constant and only the propagation
    /// distance varies.
    DAG_DEPTH = Sweep {
        key: "dag_depth",
        x_label: "dag_depth",
        xs: &DAG_DEPTH_GRID,
        curves: algorithms,
        trace_x: 3.0,
        build: |base, _, depth| {
            let depth = depth.round() as u32;
            let width = (120 / depth).max(1);
            base.dag(Some(DagSpec {
                depth,
                width,
                ..DagSpec::default()
            }))
        },
    };
    /// figR1 panels a–c: a feed outage of swept length.
    RESILIENCE_OUTAGE = Sweep {
        key: "resilience_outage",
        x_label: "outage_secs",
        xs: &OUTAGE_GRID,
        curves: algorithms,
        trace_x: 5.0,
        build: |base, settings, secs| base.disturbance(outage(settings, secs)),
    };
    /// figR1 panel d: the same outage under TF, one curve per shedding
    /// policy. A roomy OS queue lets the catch-up flood reach the update
    /// queue and a tight `UQ_max` overflows there, so what the queue evicts
    /// decides how stale the high-importance partition gets.
    RESILIENCE_SHED = Sweep {
        key: "resilience_shed",
        x_label: "outage_secs",
        xs: &OUTAGE_GRID,
        curves: shedding_policies,
        trace_x: 5.0,
        build: |base, settings, secs| {
            base.disturbance(outage(settings, secs))
                .os_max(20_000)
                .uq_max(250)
        },
    };
    /// figX1a–b (paper §7): updates get the CPU while their share is below x.
    FIXED_FRACTION = Sweep {
        key: "fixed_fraction",
        x_label: "update_fraction",
        xs: &FX_GRID,
        curves: || vec![Curve::Algorithm(Policy::FixedFraction { fraction: 0.0 })],
        trace_x: 0.19,
        build: |base, _, fraction| base.lambda_t(15.0).policy(Policy::FixedFraction { fraction }),
    };
    /// figX1c–d (paper §4.4): the hash-indexed queue at Figure 8's heaviest scans.
    INDEXED_QUEUE = Sweep {
        key: "indexed_queue",
        x_label: "indexed (0 off, 1 on)",
        xs: &ON_OFF,
        curves: algorithms,
        trace_x: 0.0,
        build: |base, s, on| {
            (XSCAN.build)(base, s, 10_000.0).lambda_t(15.0).indexed_queue(on > 0.0)
        },
    };
    /// figX1e (paper §4.2 "future study"): high-importance updates install first.
    SPLIT_QUEUE = Sweep {
        key: "split_queue",
        x_label: "split (0 off, 1 on)",
        xs: &ON_OFF,
        curves: algorithms,
        trace_x: 1.0,
        build: |base, _, on| base.lambda_t(15.0).split_update_queue(on > 0.0),
    };
    /// figX1f: the split queue on a stream whose high share fits TF's spare CPU.
    SPLIT_QUEUE_SKEWED = Sweep {
        key: "split_queue_skewed",
        x_label: "split (0 off, 1 on)",
        xs: &ON_OFF,
        curves: algorithms,
        trace_x: 1.0,
        build: |base, _, on| {
            base.lambda_t(10.0).p_update_low(0.8).n_high(200).split_update_queue(on > 0.0)
        },
    };
    /// figX1g–h: value-density preemption between transactions.
    TXN_PREEMPTION = Sweep {
        key: "txn_preemption",
        x_label: "preemption (0 off, 1 on)",
        xs: &ON_OFF,
        curves: algorithms,
        trace_x: 1.0,
        build: |base, _, on| base.lambda_t(15.0).txn_preemption(on > 0.0),
    };
    /// figX1i–k: the paper's feasible-deadline scheduling, off and on.
    FEASIBLE_DEADLINE = Sweep {
        key: "feasible_deadline",
        x_label: "feasible_dl (0 off, 1 on)",
        xs: &ON_OFF,
        curves: algorithms,
        trace_x: 0.0,
        build: |base, _, on| base.lambda_t(15.0).feasible_deadline(on > 0.0),
    };
    /// figX2a–b (paper §2/§7): every object re-reported each 2.5 s (< α), ±5%.
    PERIODIC = Sweep {
        key: "periodic",
        x_label: "periodic (0 off, 1 on)",
        xs: &ON_OFF,
        curves: algorithms,
        trace_x: 1.0,
        build: |base, _, on| {
            let mode = [UpdateMode::Aperiodic, UpdateMode::Periodic { jitter_frac: 0.1 }];
            base.lambda_t(10.0).update_mode(mode[on as usize])
        },
    };
    /// figX2c–d (paper §2/§7): four attributes per object; a partial update sets one.
    PARTIAL_UPDATES = Sweep {
        key: "partial_updates",
        x_label: "p_partial",
        xs: &P_PARTIAL_GRID,
        curves: algorithms,
        trace_x: 1.0,
        build: |base, _, p| base.lambda_t(10.0).attrs_per_object(4).p_partial_update(p),
    };
    /// figX2e (generalising §3.2): install order under Zipf(1.0) reads.
    INSTALL_ORDER = Sweep {
        key: "install_order",
        x_label: "order (0 FIFO, 1 LIFO, 2 HotFirst)",
        xs: &THREE_WAY,
        curves: algorithms,
        trace_x: 2.0,
        build: |base, _, i| {
            let order = [QueuePolicy::Fifo, QueuePolicy::Lifo, QueuePolicy::HotFirst];
            base.lambda_t(10.0).read_skew(1.0).queue_policy(order[i as usize])
        },
    };
    /// figX2f (paper §2): stale under MA, under UU, or under either.
    STALENESS_CRITERION = Sweep {
        key: "staleness_criterion",
        x_label: "criterion (0 MA, 1 UU, 2 Either)",
        xs: &THREE_WAY,
        curves: algorithms,
        trace_x: 2.0,
        build: |base, _, i| {
            use StalenessSpec::{Either, MaxAge, UnappliedUpdate};
            let criterion = [MaxAge { alpha: 7.0 }, UnappliedUpdate, Either { alpha: 7.0 }];
            base.lambda_t(10.0).staleness(criterion[i as usize])
        },
    };
    /// figX3a–c (paper §2/§7): 20% of reads as-of an instant up to 30 s back.
    HISTORY_RETENTION = Sweep {
        key: "history_retention",
        x_label: "retention_secs",
        xs: &RETENTION_GRID,
        curves: algorithms,
        trace_x: 15.0,
        build: |base, _, retention_secs| {
            let policy = HistoryPolicy { retention_secs, max_entries_per_object: 1024 };
            let access = HistoryAccess { policy, ..HistoryAccess::default() };
            base.lambda_t(10.0).history(Some(access))
        },
    };
    /// figX3d–f (paper §7): rules of four sources, 10k instructions per run.
    TRIGGER_RULES = Sweep {
        key: "trigger_rules",
        x_label: "n_rules",
        xs: &N_RULES_GRID,
        curves: algorithms,
        trace_x: 1_000.0,
        build: |base, _, n| {
            let rules = TriggerConfig { n_rules: n as u32, ..TriggerConfig::default() };
            base.lambda_t(10.0).triggers((n > 0.0).then_some(rules))
        },
    };
    /// figX3g (paper §7): a buffer pool charging ≈ 2 ms per miss.
    HIT_RATIO = Sweep {
        key: "hit_ratio",
        x_label: "hit_ratio",
        xs: &HIT_RATIO_GRID,
        curves: algorithms,
        trace_x: 0.8,
        build: |base, _, hit_ratio| {
            let io = IoModel { hit_ratio, ..IoModel::default() };
            base.lambda_t(10.0).io((hit_ratio < 1.0).then_some(io))
        },
    };
    /// figX4 (§6's overload, dynamic): x is a window; a curve's windows share a run.
    TRANSIENT_BURST = Sweep {
        key: "transient_burst",
        x_label: "t_start",
        xs: &WINDOW_GRID,
        curves: algorithms,
        trace_x: 300.0,
        build: |base, settings, _| {
            let from = 0.3 * settings.duration;
            let burst = BurstSpec { from, until: from + 100.0, factor: 4.0 };
            base.lambda_t(6.0).lambda_t_burst(Some(burst)).timeline_window(Some(WINDOW_SECS))
        },
    };
}

/// One plotted panel: a metric of every point of a sweep.
pub struct Panel {
    /// Identifier matching the paper ("fig04a"); the owning figure's name
    /// is its prefix.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// The qualitative shape the paper reports.
    pub expect: &'static str,
    /// The sweep the metric is read from.
    pub sweep: &'static Sweep,
    /// For a ratio panel, the sweep whose metric divides `sweep`'s.
    pub over: Option<&'static Sweep>,
    /// The plotted quantity of one run.
    pub metric: Metric,
}

/// A scalar read off one run's report at the point's x. NaN means the run
/// has no such point (a window it never reached), and the panel omits it.
pub type Metric = fn(&RunReport, f64) -> f64;

/// Every panel of every figure, in paper order. A panel with an `over`
/// sweep plots the ratio of the two sweeps' replica means.
pub static PANELS: [Panel; 57] = [
    Panel {
        id: "fig03a",
        title: "CPU fraction spent on transactions vs λt",
        y_label: "rho_t",
        expect: "all rise toward saturation; TF/OD highest, UF lowest",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.cpu.rho_t(),
    },
    Panel {
        id: "fig03b",
        title: "CPU fraction spent on updates vs λt",
        y_label: "rho_u",
        expect: "UF flat at ~0.19; TF/OD fall toward 0; SU between; OD slightly above TF",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.cpu.rho_u(),
    },
    Panel {
        id: "fig04a",
        title: "Fraction of missed deadlines vs λt",
        y_label: "pMD",
        expect: "increasing; TF/OD lowest, UF highest, SU between",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.txns.p_md(),
    },
    Panel {
        id: "fig04b",
        title: "Average value per second vs λt",
        y_label: "AV",
        expect: "increasing with load; TF/OD highest, UF lowest",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig05a",
        title: "Stale fraction of low-importance data vs λt",
        y_label: "fold_l",
        expect: "UF flat <10%; TF/OD approach 1 under load; SU tracks TF",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.fold_low,
    },
    Panel {
        id: "fig05b",
        title: "Stale fraction of high-importance data vs λt",
        y_label: "fold_h",
        expect: "UF and SU flat <10%; TF/OD approach 1; OD slightly below TF",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "fig06a",
        title: "psuccess vs λt",
        y_label: "psuccess",
        expect: "decreasing; OD best over entire range, TF worst, UF/SU between",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "fig06b",
        title: "psuc|nontardy vs λt",
        y_label: "psuc|nontardy",
        expect: "OD and UF high; TF low; SU dips then recovers toward UF",
        sweep: &BASELINE_LT,
        over: None,
        metric: |r, _| r.txns.p_suc_nontardy(),
    },
    Panel {
        id: "fig07a",
        title: "AV vs x_update",
        y_label: "AV",
        expect: "UF and SU drop sharply as installs get heavier; TF/OD insensitive",
        sweep: &XUPDATE,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig07b",
        title: "AV vs x_queue",
        y_label: "AV",
        expect: "queue-using algorithms degrade slowly; modest in the <1000 range",
        sweep: &XQUEUE,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig08",
        title: "AV vs x_scan",
        y_label: "AV",
        expect: "OD degrades most (it scans on stale reads) but stays competitive",
        sweep: &XSCAN,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig09a",
        title: "psuccess vs λu",
        y_label: "psuccess",
        expect: "OD rises (fresher data at same value); TF falls; UF/SU between",
        sweep: &LAMBDA_U,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "fig09b",
        title: "AV vs λu",
        y_label: "AV",
        expect: "TF/OD flat; UF and SU return less value as the stream grows",
        sweep: &LAMBDA_U,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig10a",
        title: "AV vs α (abort on stale reads)",
        y_label: "AV",
        expect: "small α hurts every algorithm; TF/OD recover fastest as α grows",
        sweep: &ALPHA,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig10b",
        title: "AV vs α with Nl, Nh scaled proportionally",
        y_label: "AV",
        expect: "nearly flat: the ratio α/(Nl+Nh) drives performance, not α itself",
        sweep: &ALPHA_SCALED,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig11a",
        title: "fold_l(FIFO) / fold_l(LIFO) vs λt",
        y_label: "fold_l ratio",
        expect: "≥1 for queue-using algorithms (FIFO leaves data staler); UF ≈ 1",
        sweep: &BASELINE_LT,
        over: Some(&LIFO_LT),
        metric: |r, _| r.fold_low,
    },
    Panel {
        id: "fig11b",
        title: "psuccess(FIFO) / psuccess(LIFO) vs λt",
        y_label: "psuccess ratio",
        expect: "≤1 for TF especially (FIFO installs nearly-expired updates first)",
        sweep: &BASELINE_LT,
        over: Some(&LIFO_LT),
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "fig12a",
        title: "fold_h vs λt (abort on stale reads)",
        y_label: "fold_h",
        expect: "TF drops to <20% stale (aborts free time for updates); UF/SU stay fresh",
        sweep: &ABORT_LT,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "fig12b",
        title: "fold_h(abort) / fold_h(no abort) vs λt",
        y_label: "fold_h ratio",
        expect: "TF well below 1 (much fresher with aborts); UF ≈ 1",
        sweep: &ABORT_LT,
        over: Some(&BASELINE_LT),
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "fig13a",
        title: "AV vs λt (abort on stale reads)",
        y_label: "AV",
        expect: "OD clear winner; SU beats both TF and UF",
        sweep: &ABORT_LT,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig13b",
        title: "AV(abort) / AV(no abort) vs λt",
        y_label: "AV ratio",
        expect: "TF hurt the most by aborts; OD close to 1",
        sweep: &ABORT_LT,
        over: Some(&BASELINE_LT),
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig14",
        title: "psuccess vs λt (abort on stale reads)",
        y_label: "psuccess",
        expect: "OD first by 10–15 points over UF; TF second thanks to fresher data",
        sweep: &ABORT_LT,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "fig15a",
        title: "AV vs p_view (abort on stale reads)",
        y_label: "AV",
        expect: "all decrease as reads move later; SU and TF worst",
        sweep: &PVIEW,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "fig15b",
        title: "Fraction of stale view reads vs p_view",
        y_label: "stale read fraction",
        expect: "SU and TF read stale most often; OD least",
        sweep: &PVIEW,
        over: None,
        metric: |r, _| r.txns.stale_read_fraction(),
    },
    Panel {
        id: "fig16",
        title: "psuccess vs λt (Unapplied Update staleness)",
        y_label: "psuccess",
        expect: "same ranking as MA: OD, UF, SU, TF from best to worst",
        sweep: &UU_LT,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "figr1a",
        title: "Stale fraction of high-importance data vs outage length",
        y_label: "fold_h",
        expect: "grows with the outage for every algorithm; UF recovers fastest",
        sweep: &RESILIENCE_OUTAGE,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "figr1b",
        title: "Missed deadlines vs outage length",
        y_label: "pMD",
        expect: "catch-up flood steals CPU: pMD rises most for UF/SU",
        sweep: &RESILIENCE_OUTAGE,
        over: None,
        metric: |r, _| r.txns.p_md(),
    },
    Panel {
        id: "figr1c",
        title: "Post-outage staleness recovery time vs outage length",
        y_label: "recovery_secs",
        expect: "longer outages take longer to drain; 0 when never disturbed \
         or not recovered by the horizon",
        sweep: &RESILIENCE_OUTAGE,
        over: None,
        metric: |r, _| r.resilience.recovery_secs.unwrap_or(0.0),
    },
    Panel {
        id: "figr1d",
        title: "fold_h vs outage length by shedding policy (TF, UQ_max = 250)",
        y_label: "fold_h",
        expect: "drop-low-imp keeps high-importance data freshest through the flood",
        sweep: &RESILIENCE_SHED,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "figd1a",
        title: "Time-averaged stale fraction of derived views vs DAG depth",
        y_label: "fold_derived",
        expect: "saturated baseline, so background propagation (lowest-priority \
         work) rarely runs: TF/SU pin near 1, UF grows with depth as \
         cascades lengthen, OD is freshest and improves with depth — \
         each refresh quiesces a whole ancestor cone",
        sweep: &DAG_DEPTH,
        over: None,
        metric: |r, _| r.dag.fold_derived,
    },
    Panel {
        id: "figd1b",
        title: "Mean delta-application lag vs DAG depth",
        y_label: "dag lag (s)",
        expect: "lag falls with depth at constant node budget: the base-attached \
         rank shrinks, so fewer installs enqueue and the pending map \
         drains faster; SU > OD > UF; TF ≈ 0 — it installs so few bases \
         under load that almost nothing ever enqueues",
        sweep: &DAG_DEPTH,
        over: None,
        metric: |r, _| r.dag.lag_mean,
    },
    Panel {
        id: "figd1c",
        title: "On-demand derived refreshes vs DAG depth",
        y_label: "od_refreshes",
        expect: "zero for UF/TF/SU; OD pays one recursive refresh per stale \
         derived read, falling with depth as each refresh freshens a \
         longer ancestor cone",
        sweep: &DAG_DEPTH,
        over: None,
        metric: |r, _| r.dag.od_refreshes as f64,
    },
    Panel {
        id: "figx1a",
        title: "fold_h vs CPU fraction reserved for updates (FX, λt = 15)",
        y_label: "fold_h",
        expect: "a sharp freshness transition near the stream's own demand (0.19)",
        sweep: &FIXED_FRACTION,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "figx1b",
        title: "psuccess vs CPU fraction reserved for updates (FX, λt = 15)",
        y_label: "psuccess",
        expect: "below OD's psuccess at λt = 15 (fig06a): it refreshes unread data",
        sweep: &FIXED_FRACTION,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "figx1c",
        title: "AV with and without the indexed update queue (x_scan = 10 000)",
        y_label: "AV",
        expect: "OD collapses on linear scans and the index restores it; others flat",
        sweep: &INDEXED_QUEUE,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "figx1d",
        title: "Peak update-queue length with and without the index (x_scan = 10 000)",
        y_label: "max_uq_len",
        expect: "the index keeps at most one update per object and bounds the queue",
        sweep: &INDEXED_QUEUE,
        over: None,
        metric: |r, _| r.updates.max_uq_len as f64,
    },
    Panel {
        id: "figx1e",
        title: "fold_h with and without a split update queue (λt = 15)",
        y_label: "fold_h",
        expect: "barely moves: TF has almost no install slots left to allocate",
        sweep: &SPLIT_QUEUE,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "figx1f",
        title: "fold_h with and without a split queue (p_ul = 0.8, N_h = 200, λt = 10)",
        y_label: "fold_h",
        expect: "TF recovers SU-like high-importance freshness without SU's preemptions",
        sweep: &SPLIT_QUEUE_SKEWED,
        over: None,
        metric: |r, _| r.fold_high,
    },
    Panel {
        id: "figx1g",
        title: "Mean response time with and without transaction preemption (λt = 15)",
        y_label: "response_mean (s)",
        expect: "value-density preemption shortens the mean response",
        sweep: &TXN_PREEMPTION,
        over: None,
        metric: |r, _| r.txns.response_mean,
    },
    Panel {
        id: "figx1h",
        title: "AV with and without transaction preemption (λt = 15)",
        y_label: "AV",
        expect: "a marginal gain at most",
        sweep: &TXN_PREEMPTION,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "figx1i",
        title: "Infeasible-deadline aborts with feasible-deadline scheduling off/on (λt = 15)",
        y_label: "aborted_infeasible",
        expect: "zero when off; on, doomed transactions are aborted early",
        sweep: &FEASIBLE_DEADLINE,
        over: None,
        metric: |r, _| r.txns.aborted_infeasible as f64,
    },
    Panel {
        id: "figx1j",
        title: "Deadline-watchdog aborts with feasible-deadline scheduling off/on (λt = 15)",
        y_label: "missed_deadline",
        expect: "off, the early aborts become watchdog aborts",
        sweep: &FEASIBLE_DEADLINE,
        over: None,
        metric: |r, _| r.txns.missed_deadline as f64,
    },
    Panel {
        id: "figx1k",
        title: "AV with feasible-deadline scheduling off/on (λt = 15)",
        y_label: "AV",
        expect: "on returns more value: less CPU is spent on doomed transactions",
        sweep: &FEASIBLE_DEADLINE,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "figx2a",
        title: "fold_l under aperiodic and periodic updates (λt = 10)",
        y_label: "fold_l",
        expect: "refreshed every 2.5 s < α, UF is never stale, the others by neglect",
        sweep: &PERIODIC,
        over: None,
        metric: |r, _| r.fold_low,
    },
    Panel {
        id: "figx2b",
        title: "psuccess under aperiodic and periodic updates (λt = 10)",
        y_label: "psuccess",
        expect: "every algorithm gains several points",
        sweep: &PERIODIC,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "figx2c",
        title: "fold_l vs fraction of partial updates (4 attributes, λt = 10)",
        y_label: "fold_l",
        expect: "rises steeply: MA follows the oldest of the four attributes",
        sweep: &PARTIAL_UPDATES,
        over: None,
        metric: |r, _| r.fold_low,
    },
    Panel {
        id: "figx2d",
        title: "rho_u vs fraction of partial updates (4 attributes, λt = 10)",
        y_label: "rho_u",
        expect: "falls: partial installs write a quarter of an object",
        sweep: &PARTIAL_UPDATES,
        over: None,
        metric: |r, _| r.cpu.rho_u(),
    },
    Panel {
        id: "figx2e",
        title: "psuccess vs install order under Zipf(1.0) reads (λt = 10)",
        y_label: "psuccess",
        expect: "TF: HotFirst above LIFO above FIFO, most of the way to OD",
        sweep: &INSTALL_ORDER,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "figx2f",
        title: "psuccess vs staleness criterion (λt = 10)",
        y_label: "psuccess",
        expect: "Either is at most the smaller of MA and UU",
        sweep: &STALENESS_CRITERION,
        over: None,
        metric: |r, _| r.txns.p_success(),
    },
    Panel {
        id: "figx3a",
        title: "As-of read miss fraction vs history retention (λt = 10)",
        y_label: "miss fraction",
        expect: "falls as retention covers the 30 s lag range",
        sweep: &HISTORY_RETENTION,
        over: None,
        metric: |r, _| r.history.miss_fraction(),
    },
    Panel {
        id: "figx3b",
        title: "Retained versions at the end vs history retention (λt = 10)",
        y_label: "entries_at_end",
        expect: "memory grows with retention",
        sweep: &HISTORY_RETENTION,
        over: None,
        metric: |r, _| r.history.entries_at_end as f64,
    },
    Panel {
        id: "figx3c",
        title: "AV vs history retention (λt = 10)",
        y_label: "AV",
        expect: "flat: an as-of read costs one lookup",
        sweep: &HISTORY_RETENTION,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "figx3d",
        title: "Rule firings vs number of rules (λt = 10)",
        y_label: "fired",
        expect: "proportional to each algorithm's install rate",
        sweep: &TRIGGER_RULES,
        over: None,
        metric: |r, _| r.triggers.fired as f64,
    },
    Panel {
        id: "figx3e",
        title: "Rule executions vs number of rules (λt = 10)",
        y_label: "executed",
        expect: "rules are update-side work: UF executes them, TF/OD starve them",
        sweep: &TRIGGER_RULES,
        over: None,
        metric: |r, _| r.triggers.executed as f64,
    },
    Panel {
        id: "figx3f",
        title: "Mean rule execution lag vs number of rules (λt = 10)",
        y_label: "lag_mean (s)",
        expect: "seconds under UF",
        sweep: &TRIGGER_RULES,
        over: None,
        metric: |r, _| r.triggers.lag_mean,
    },
    Panel {
        id: "figx3g",
        title: "AV vs buffer-pool hit ratio (≈ 2 ms per miss, λt = 10)",
        y_label: "AV",
        expect: "UF falls with the miss rate (it installs every update); OD barely moves",
        sweep: &HIT_RATIO,
        over: None,
        metric: |r, _| r.av(),
    },
    Panel {
        id: "figx4",
        title: "psuccess per 20 s window through a 4× transaction burst at 30% of the run",
        y_label: "psuccess",
        expect: "all collapse in the burst; after it TF recovers last, as its backlog drains",
        sweep: &TRANSIENT_BURST,
        over: None,
        metric: |r, t| {
            let window = r.timeline.get((t / WINDOW_SECS) as usize);
            window.map_or(f64::NAN, TimelineWindow::p_success)
        },
    },
];

/// A reproduction campaign: shared settings plus memoised sweeps.
///
/// Every sweep executes through the crash-isolated [`SweepRunner`]: a point
/// that panics is recorded in [`Campaign::failures`] instead of aborting
/// the campaign, and (with a checkpoint directory configured) completed
/// points persist across process restarts.
pub struct Campaign {
    settings: RunSettings,
    runner: SweepRunner,
    /// Replica sets of every sweep run so far, in [`Sweep::points`] order.
    cache: BTreeMap<&'static str, Vec<Vec<RunReport>>>,
    failures: Vec<PointFailure>,
    resumed: usize,
}

impl Campaign {
    /// Creates a campaign with the given settings and a plain
    /// (non-checkpointing) crash-isolated runner.
    #[must_use]
    pub fn new(settings: RunSettings) -> Self {
        Campaign::with_runner(settings, SweepRunner::new())
    }

    /// Creates a campaign that executes its sweeps through `runner` — e.g.
    /// one configured with a checkpoint directory for resumable campaigns.
    #[must_use]
    pub fn with_runner(settings: RunSettings, runner: SweepRunner) -> Self {
        Campaign {
            settings,
            runner,
            cache: BTreeMap::new(),
            failures: Vec::new(),
            resumed: 0,
        }
    }

    /// The campaign settings.
    #[must_use]
    pub fn settings(&self) -> &RunSettings {
        &self.settings
    }

    /// Points that panicked twice and were excluded from the figures, in
    /// the order they were recorded.
    #[must_use]
    pub fn failures(&self) -> &[PointFailure] {
        &self.failures
    }

    /// Points satisfied from checkpoint files instead of simulation.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Reproduces one experiment; returns its panels.
    pub fn figure(&mut self, id: FigureId) -> Vec<Figure> {
        id.panels().map(|panel| self.assemble(panel)).collect()
    }

    /// The replica sets of `sweep`, simulated on first use. Each distinct
    /// configuration runs once: points that build the same one (figX4's
    /// windows of a curve) share its run.
    fn sweep(&mut self, sweep: &'static Sweep) -> &[Vec<RunReport>] {
        if !self.cache.contains_key(sweep.key) {
            let mut distinct: Vec<SimConfig> = Vec::new();
            let runs: Vec<usize> = sweep
                .points()
                .map(|(curve, x)| {
                    let cfg = sweep.config(&self.settings, curve, x);
                    distinct.iter().position(|d| *d == cfg).unwrap_or_else(|| {
                        distinct.push(cfg);
                        distinct.len() - 1
                    })
                })
                .collect();
            let outcome = self
                .runner
                .run_replicated(&self.settings, sweep.key, distinct);
            self.failures.extend(outcome.failures);
            self.resumed += outcome.resumed;
            let sets = runs.iter().map(|&i| outcome.replica_sets[i].clone());
            self.cache.insert(sweep.key, sets.collect());
        }
        &self.cache[sweep.key]
    }

    /// `metric` at every point of `sweep`, accumulated over the replicas.
    fn stats(&mut self, sweep: &'static Sweep, metric: Metric) -> Vec<(Curve, f64, Welford)> {
        let per_point = self.sweep(sweep);
        sweep
            .points()
            .zip(per_point)
            .map(|((curve, x), replicas)| {
                let mut stats = Welford::new();
                for report in replicas {
                    stats.push(metric(report, x));
                }
                (curve, x, stats)
            })
            .collect()
    }

    /// One series per curve of the panel's sweep: the replica mean of the
    /// metric, with its standard deviation when the sweep is replicated.
    /// A ratio panel divides by the mean at the same curve and x of its
    /// `over` sweep, skips points where that is zero or missing, and has no
    /// spread (a quotient of means has no per-replica deviation). A point
    /// whose mean is NaN is omitted.
    fn assemble(&mut self, panel: &Panel) -> Figure {
        let numer = self.stats(panel.sweep, panel.metric);
        let denom = panel.over.map(|over| self.stats(over, panel.metric));
        let with_spread = denom.is_none() && numer.iter().any(|(_, _, n)| n.count() > 1);
        let series = (panel.sweep.curves)()
            .into_iter()
            .map(|curve| {
                let own = numer
                    .iter()
                    .filter(|(c, _, n)| *c == curve && !n.mean().is_nan());
                let points = own.clone().filter_map(|(_, x, n)| match &denom {
                    None => Some((*x, n.mean())),
                    Some(denom) => {
                        let (_, _, d) = denom
                            .iter()
                            .find(|(c, dx, _)| *c == curve && (dx - x).abs() < 1e-9)?;
                        let d = d.mean();
                        let y = n.mean() / d;
                        (d.abs() >= 1e-12 && y.is_finite()).then_some((*x, y))
                    }
                });
                Series {
                    label: curve.label().to_string(),
                    points: points.collect(),
                    spread: if with_spread {
                        own.map(|(_, _, n)| n.std_dev()).collect()
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect();
        Figure {
            id: panel.id.to_string(),
            title: panel.title.to_string(),
            x_label: panel.sweep.x_label.to_string(),
            y_label: panel.y_label.to_string(),
            series,
            paper_expectation: panel.expect.to_string(),
        }
    }
}

/// One row of a parameter table: the paper's label, and how to read the
/// value off the baseline configuration.
type ParamRow = (&'static str, fn(&SimConfig) -> String);

/// A value right-aligned in the tables' 12-column value field.
fn cell(value: impl std::fmt::Display) -> String {
    format!("{value:>12}")
}

#[rustfmt::skip]
const TABLE_1: &[ParamRow] = &[
    ("update arrival rate (lambda_u)", |c| cell(c.lambda_u)),
    ("P(update on low priority data) (p_ul)", |c| cell(c.p_update_low)),
    ("mean age of updates on arrival (s)", |c| cell(c.mean_update_age)),
    ("# low priority view objects (N_l)", |c| cell(c.n_low)),
    ("# high priority view objects (N_h)", |c| cell(c.n_high)),
];

#[rustfmt::skip]
const TABLE_2: &[ParamRow] = &[
    ("transaction arrival rate (lambda_t)", |c| cell(c.lambda_t)),
    ("P(transaction low value) (p_tl)", |c| cell(c.p_txn_low)),
    ("minimum slack (S_min, s)", |c| cell(c.slack_min)),
    ("maximum slack (S_max, s)", |c| cell(c.slack_max)),
    ("mean value, low (v_l)", |c| cell(c.value_low_mean)),
    ("mean value, high (v_h)", |c| cell(c.value_high_mean)),
    ("sd of value, low", |c| cell(c.value_low_sd)),
    ("sd of value, high", |c| cell(c.value_high_sd)),
    ("mean # view objects read (r)", |c| cell(c.reads_mean)),
    ("sd of # view objects read", |c| cell(c.reads_sd)),
    ("maximum age of data (alpha, s)", |c| cell(c.max_age)),
    ("mean computation time (s)", |c| cell(c.compute_mean)),
    ("sd of computation time (s)", |c| cell(c.compute_sd)),
    ("fraction of work before view reads (p_view)", |c| cell(c.p_view)),
];

#[rustfmt::skip]
const TABLE_3: &[ParamRow] = &[
    ("instructions per second (ips)", |c| cell(c.costs.ips)),
    ("instructions to find an object (x_lookup)", |c| cell(c.costs.x_lookup)),
    ("instructions to update an object (x_update)", |c| cell(c.costs.x_update)),
    ("instructions per context switch (x_switch)", |c| cell(c.costs.x_switch)),
    ("queue add/remove constant (x_queue)", |c| cell(c.costs.x_queue)),
    ("queue scan constant (x_scan)", |c| cell(c.costs.x_scan)),
    ("maximum OS queue size (OS_max)", |c| cell(c.os_max)),
    ("maximum update queue size (UQ_max)", |c| cell(c.uq_max)),
    ("feasible deadline scheduling", |c| cell(c.feasible_deadline)),
    ("transaction preemption", |c| cell(c.txn_preemption)),
    // Printed flush against the label column since the seed: `Debug` on a
    // unit variant ignores the field width.
    ("update queue policy", |c| format!("{:?}", c.queue_policy)),
];

/// Renders the paper's parameter tables (Tables 1–3) from the baseline
/// configuration, for verification against the paper.
#[must_use]
pub fn render_parameter_tables() -> String {
    let c = SimConfig::default();
    let tables = [
        (
            "Table 1: scheduler baseline settings for data and updates",
            TABLE_1,
        ),
        (
            "Table 2: scheduler baseline settings for transactions",
            TABLE_2,
        ),
        ("Table 3: scheduler baseline settings for system", TABLE_3),
    ];
    let mut s = String::new();
    for (title, rows) in tables {
        if !s.is_empty() {
            s.push('\n');
        }
        s.push_str(&format!("== {title} ==\n"));
        for (label, value) in rows {
            s.push_str(&format!("{label:<44}{}\n", value(&c)));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_round_trip() {
        for id in FigureId::ALL {
            assert_eq!(id.name().parse::<FigureId>().unwrap(), id);
        }
        assert!("fig99".parse::<FigureId>().is_err());
    }

    #[test]
    fn every_panel_has_one_figure_and_every_sweep_one_key() {
        for panel in &PANELS {
            let owners = FigureId::ALL
                .iter()
                .filter(|f| f.panels().any(|p| p.id == panel.id));
            assert_eq!(owners.count(), 1, "{}", panel.id);
            if let Some(over) = panel.over {
                assert_eq!((over.curves)(), (panel.sweep.curves)(), "{}", panel.id);
            }
        }
        assert_eq!(FigureId::Tables.panels().count(), 0);
        for id in &FigureId::ALL[1..] {
            assert!(id.panels().count() > 0, "{id:?} has no panel");
        }
        // SWEEPS holds exactly the sweeps the panels plot, each key once.
        let mut keys: Vec<&str> = SWEEPS.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        let mut plotted: Vec<&str> = PANELS
            .iter()
            .flat_map(|p| [Some(p.sweep), p.over])
            .flatten()
            .map(|s| s.key)
            .collect();
        plotted.sort_unstable();
        plotted.dedup();
        assert_eq!(keys, plotted);
        for sweep in SWEEPS {
            let points = (sweep.curves)().len() * sweep.xs.len();
            assert_eq!(sweep.points().count(), points, "{}", sweep.key);
        }
    }

    #[test]
    fn parameter_tables_match_paper() {
        let t = render_parameter_tables();
        assert!(t.contains("Table 1"));
        assert!(t.contains("400"));
        assert!(t.contains("50000000"));
        assert!(t.contains("5600"));
        assert!(t.contains("Fifo"));
    }

    #[test]
    fn small_campaign_produces_panels() {
        // Tiny runs: just checks plumbing, not statistics.
        let mut c = Campaign::new(RunSettings::quick(2.0));
        let figs = c.figure(FigureId::Fig04);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].series.len(), 4);
        assert_eq!(figs[0].series[0].points.len(), LT_GRID.len());
        // The baseline sweep is cached: fig05 reuses it without re-running.
        let before = c.cache.len();
        let figs5 = c.figure(FigureId::Fig05);
        assert_eq!(c.cache.len(), before);
        assert_eq!(figs5.len(), 2);
    }

    #[test]
    fn replicas_average_across_seeds() {
        let mut settings = RunSettings::quick(3.0);
        settings.replicas = 3;
        let mut c = Campaign::new(settings);
        let figs = c.figure(FigureId::Fig04);
        // Means over three seeds still form full series on the grid.
        assert_eq!(figs[1].series.len(), 4);
        for s in &figs[1].series {
            assert_eq!(s.points.len(), LT_GRID.len());
            for (_, y) in &s.points {
                assert!(y.is_finite() && *y >= 0.0);
            }
        }
    }

    #[test]
    fn figr1_produces_resilience_panels() {
        let mut c = Campaign::new(RunSettings::quick(5.0));
        let figs = c.figure(FigureId::FigR1);
        assert_eq!(figs.len(), 4);
        // Panels a–c: one series per scheduling algorithm over the outage grid.
        for fig in &figs[..3] {
            assert_eq!(fig.series.len(), 4);
            for s in &fig.series {
                assert_eq!(s.points.len(), OUTAGE_GRID.len());
            }
        }
        // Panel d: one series per shedding policy.
        assert_eq!(figs[3].series.len(), ShedPolicy::ALL.len());
        assert!(c.failures().is_empty());
        // Both resilience sweeps are memoised.
        assert_eq!(c.cache.len(), 2);
        let again = c.figure(FigureId::FigR1);
        assert_eq!(c.cache.len(), 2);
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn figd1_produces_dag_panels_deterministically() {
        let mut c = Campaign::new(RunSettings::quick(3.0));
        let figs = c.figure(FigureId::FigD1);
        assert_eq!(figs.len(), 3);
        for fig in &figs {
            assert_eq!(fig.series.len(), 4);
            for s in &fig.series {
                assert_eq!(s.points.len(), DAG_DEPTH_GRID.len());
                for (x, y) in &s.points {
                    assert!(DAG_DEPTH_GRID.contains(x));
                    assert!(y.is_finite() && *y >= 0.0);
                }
            }
        }
        // Same settings, fresh campaign: bit-identical panels.
        let mut c2 = Campaign::new(RunSettings::quick(3.0));
        let figs2 = c2.figure(FigureId::FigD1);
        for (a, b) in figs.iter().zip(&figs2) {
            for (sa, sb) in a.series.iter().zip(&b.series) {
                assert_eq!(sa.points, sb.points);
            }
        }
        // OD is the only algorithm that refreshes on demand.
        let od = figs[2]
            .series
            .iter()
            .find(|s| s.label == Policy::OnDemand.label())
            .expect("OD series");
        assert!(od.points.iter().any(|(_, y)| *y > 0.0));
        for s in figs[2]
            .series
            .iter()
            .filter(|s| s.label != Policy::OnDemand.label())
        {
            assert!(s.points.iter().all(|(_, y)| *y == 0.0));
        }
    }

    #[test]
    fn ratio_figures_align_grids() {
        let mut c = Campaign::new(RunSettings::quick(2.0));
        let figs = c.figure(FigureId::Fig11);
        assert_eq!(figs.len(), 2);
        for s in &figs[0].series {
            for (x, y) in &s.points {
                assert!(LT_GRID.contains(x));
                assert!(y.is_finite());
            }
        }
    }
}
