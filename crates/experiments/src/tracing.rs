//! `repro trace` — capture one representative traced run per policy.
//!
//! A figure aggregates thousands of transactions into a handful of points;
//! when a reproduced curve looks wrong, the question is always *what did
//! the scheduler actually do*. This module answers it by re-running one
//! representative configuration of the requested figure (or one of the
//! paper's three motivating scenarios) per scheduling policy with the
//! `strip-obs` flight recorder attached, then exporting
//!
//! * `<label>.trace.json` — Chrome trace-event JSON, loadable in Perfetto
//!   or `chrome://tracing` (one track per activity, mirroring the paper's
//!   Fig 3 ρt/ρu CPU split);
//! * `<label>.records.csv` — the raw typed records;
//! * `<label>.gauges.csv` — the periodic gauge series (queue depths,
//!   ready-queue length, per-class stale counts, cumulative ρt/ρu).
//!
//! The traced run is observation-only: it produces bit-identical results
//! to the untraced sweep point it represents.

// D5 (DESIGN.md §11): checkpoint and trace I/O runs unattended inside long
// sweeps and degrades through `Result`, never a panic.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use strip_core::config::{Policy, SimConfig};
use strip_obs::{chrome_trace_json, gauges_csv, records_csv, TraceConfig};
use strip_workload::{run_paper_sim_traced, scenarios};

use crate::figures::FigureId;
use crate::sweep::RunSettings;

/// One of the paper's three motivating application domains (§2), as a
/// trace target: its CLI name and the preset it runs per policy and seed.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    name: &'static str,
    preset: fn(Policy, u64) -> SimConfig,
}

impl Scenario {
    /// All scenarios, in presentation order. This is the one place a preset
    /// is stated; parsing, naming and tracing read it.
    #[rustfmt::skip]
    pub const ALL: [Scenario; 3] = [
        // Program trading: large object count, tight deadlines.
        Scenario { name: "program_trading", preset: scenarios::program_trading },
        // Plant control: small hot database, high-importance skew.
        Scenario { name: "plant_control", preset: scenarios::plant_control },
        // Telecommunications network management: bursty update feed.
        Scenario { name: "telecom", preset: scenarios::telecom },
    ];

    /// Canonical CLI name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Names are unique in [`Scenario::ALL`], and comparing function pointers
/// is not meaningful.
impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for Scenario {}

/// What `repro trace` should capture: a paper figure's representative
/// configuration, or a scenario preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTarget {
    /// One representative configuration of a paper figure.
    Figure(FigureId),
    /// One of the motivating application scenarios.
    Scenario(Scenario),
}

impl TraceTarget {
    /// Canonical CLI name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceTarget::Figure(f) => f.name(),
            TraceTarget::Scenario(s) => s.name(),
        }
    }
}

impl FromStr for TraceTarget {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(sc) = Scenario::ALL.iter().find(|sc| sc.name() == s) {
            return Ok(TraceTarget::Scenario(*sc));
        }
        match FigureId::from_str(s) {
            Ok(FigureId::Tables) => {
                Err("'tables' runs no simulation; pick a figure or scenario".to_string())
            }
            Ok(f) => Ok(TraceTarget::Figure(f)),
            Err(_) => Err(format!(
                "unknown trace target '{s}' (expected a figure like fig06, or one of {})",
                Scenario::ALL
                    .iter()
                    .map(|sc| sc.name())
                    .collect::<Vec<_>>()
                    .join("/")
            )),
        }
    }
}

/// Builds the labelled configurations a target traces. A figure is traced
/// as the sweep of its first panel, at that sweep's [`Sweep::trace_x`]: one
/// run per curve, configured exactly like the sweep's own point there. A
/// scenario runs its preset under each of the paper's policies.
///
/// [`Sweep::trace_x`]: crate::figures::Sweep::trace_x
#[must_use]
pub fn trace_configs(target: TraceTarget, settings: &RunSettings) -> Vec<(String, SimConfig)> {
    let label = |curve: &str| format!("{}-{curve}", target.name());
    match target {
        TraceTarget::Scenario(sc) => Policy::PAPER_SET
            .iter()
            .map(|&policy| {
                let cfg = settings.apply((sc.preset)(policy, settings.seed));
                (label(policy.label()), cfg)
            })
            .collect(),
        TraceTarget::Figure(fig) => {
            let Some(sweep) = fig.panels().next().map(|panel| panel.sweep) else {
                return Vec::new();
            };
            (sweep.curves)()
                .into_iter()
                .map(|curve| {
                    let cfg = sweep.config(settings, curve, sweep.trace_x);
                    (label(curve.label()), cfg)
                })
                .collect()
        }
    }
}

/// Runs every configuration of `target` with the flight recorder attached
/// and writes the three export files per run under `dir`. Returns the
/// paths written.
///
/// # Errors
///
/// Propagates filesystem errors; a configuration the core rejects (a bad
/// `--seconds`, say) is reported as [`std::io::ErrorKind::InvalidInput`].
pub fn run_trace(
    target: TraceTarget,
    settings: &RunSettings,
    trace: TraceConfig,
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (label, cfg) in trace_configs(target, settings) {
        let (_report, data) = run_paper_sim_traced(&cfg, trace).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{label}: {e}"))
        })?;
        for (suffix, text) in [
            ("trace.json", chrome_trace_json(&data)),
            ("records.csv", records_csv(&data)),
            ("gauges.csv", gauges_csv(&data)),
        ] {
            let path = dir.join(format!("{label}.{suffix}"));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(text.as_bytes())?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Curve;
    use strip_db::staleness::StalenessSpec;

    #[test]
    fn targets_parse_figures_and_scenarios() {
        assert_eq!(
            "fig06".parse::<TraceTarget>(),
            Ok(TraceTarget::Figure(FigureId::Fig06))
        );
        assert_eq!(
            "plant_control".parse::<TraceTarget>(),
            Ok(TraceTarget::Scenario(Scenario::ALL[1]))
        );
        assert!("tables".parse::<TraceTarget>().is_err());
        assert!("fig99".parse::<TraceTarget>().is_err());
    }

    #[test]
    fn a_figure_is_traced_as_its_own_sweep_at_trace_x() {
        let settings = RunSettings::quick(5.0);
        for fig in &FigureId::ALL[1..] {
            let sweep = fig.panels().next().expect("a panel").sweep;
            let expected: Vec<(String, SimConfig)> = (sweep.curves)()
                .into_iter()
                .map(|curve| {
                    let Curve::Algorithm(policy) = curve else {
                        panic!("{fig:?} is traced over algorithms");
                    };
                    let base = SimConfig::builder().policy(policy);
                    let built = (sweep.build)(base, &settings, sweep.trace_x);
                    let cfg = settings.apply(built.build().expect("valid point"));
                    (format!("{}-{}", fig.name(), policy.label()), cfg)
                })
                .collect();
            assert_eq!(
                trace_configs(TraceTarget::Figure(*fig), &settings),
                expected
            );
        }
        // What the per-figure `match` this replaced had let drift: fig10
        // sweeps with abort-on-stale, figd1 over a DAG, fig16 under UU.
        let traced = |fig| trace_configs(TraceTarget::Figure(fig), &settings);
        assert!(traced(FigureId::Fig10)
            .iter()
            .all(|(_, c)| c.abort_on_stale));
        assert!(traced(FigureId::FigD1).iter().all(|(_, c)| c.dag.is_some()));
        // figX1's first sweep has one curve, FX at its traced fraction.
        let fx = traced(FigureId::FigX1);
        assert_eq!(fx.len(), 1);
        assert_eq!(fx[0].0, "figx1-FX");
        assert_eq!(fx[0].1.policy, Policy::FixedFraction { fraction: 0.19 });
        for (label, cfg) in traced(FigureId::Fig16) {
            assert!(label.starts_with("fig16-"), "label {label}");
            assert_eq!(cfg.duration, 5.0);
            assert_eq!(cfg.staleness, StalenessSpec::UnappliedUpdate);
            assert_eq!(cfg.lambda_t, 12.0);
        }
    }

    #[test]
    fn trace_run_writes_three_files_per_policy() {
        let dir = std::env::temp_dir().join(format!(
            "strip-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Five seconds: long enough for UF to reach its first DAG deltas.
        let settings = RunSettings::quick(5.0);
        let written = run_trace(
            TraceTarget::Figure(FigureId::FigD1),
            &settings,
            TraceConfig::default(),
            &dir,
        )
        .expect("trace run");
        assert_eq!(written.len(), 3 * Policy::PAPER_SET.len());
        for path in &written {
            let meta = std::fs::metadata(path).expect("exported file");
            assert!(meta.len() > 0, "{} is empty", path.display());
        }
        let json = std::fs::read_to_string(dir.join("figd1-UF.trace.json")).expect("chrome trace");
        assert!(json.contains("\"traceEvents\""));
        // The traced figD1 run maintains a DAG, as its sweep does.
        let records = std::fs::read_to_string(dir.join("figd1-UF.records.csv")).expect("records");
        assert!(
            records.contains("dag_apply"),
            "no DAG work in the figD1 trace"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
