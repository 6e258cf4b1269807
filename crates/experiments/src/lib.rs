//! `strip-experiments` — the harness that regenerates every experiment in
//! the paper's evaluation (§6).
//!
//! * [`figures`] — the experiments as data: one [`figures::SWEEPS`] row per
//!   simulated sweep, one [`figures::PANELS`] row per plotted panel of
//!   Figures 3–16, figR1 and figD1, plus the parameter tables; a
//!   [`figures::Campaign`] runs and memoises the sweeps.
//! * [`runner`] — the sweep executor: replica expansion, crash isolation
//!   with one retry, and on-disk checkpoints, so long campaigns survive a
//!   panicking point and a killed process resumes where it stopped.
//! * [`sweep`] — campaign settings and the lock-free parallel job loop.
//! * [`table`] — ASCII/CSV rendering of reproduced figures.
//! * [`tracing`] — `repro trace`: a figure's sweep at its representative x
//!   with the flight recorder attached.
//!
//! The `repro` binary drives a full campaign:
//!
//! ```text
//! repro all                 # every figure, paper-length runs
//! repro fig06 fig14         # selected figures
//! repro all --seconds 100   # faster, lower-fidelity sweep
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod tracing;

pub use figures::{render_parameter_tables, Campaign, FigureId};
pub use runner::{PointFailure, SweepOutcome, SweepRunner};
pub use sweep::RunSettings;
pub use table::{Figure, Series};
pub use tracing::{run_trace, trace_configs, Scenario, TraceTarget};

use std::io::Write as _;
use std::path::Path;

/// Writes a figure's CSV, ASCII rendering and a ready-to-run gnuplot script
/// under `out_dir` (`gnuplot <id>.gp` produces `<id>.svg`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_figure(out_dir: &Path, fig: &Figure) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let csv_path = out_dir.join(format!("{}.csv", fig.id));
    let mut f = std::fs::File::create(csv_path)?;
    f.write_all(fig.to_csv().as_bytes())?;
    let txt_path = out_dir.join(format!("{}.txt", fig.id));
    let mut f = std::fs::File::create(txt_path)?;
    f.write_all(fig.render_ascii().as_bytes())?;
    let gp_path = out_dir.join(format!("{}.gp", fig.id));
    let mut f = std::fs::File::create(gp_path)?;
    f.write_all(gnuplot_script(fig).as_bytes())?;
    Ok(())
}

/// Renders a gnuplot script that plots a figure's CSV with the paper's
/// point-per-series style.
#[must_use]
pub fn gnuplot_script(fig: &Figure) -> String {
    let with_spread = fig.series.iter().any(|s| !s.spread.is_empty());
    let cols_per_series = if with_spread { 2 } else { 1 };
    let mut s = String::new();
    s.push_str("set datafile separator ','\n");
    s.push_str(&format!("set output '{}.svg'\n", fig.id));
    s.push_str("set terminal svg size 720,480\n");
    s.push_str(&format!("set title \"{}\"\n", fig.title.replace('"', "'")));
    s.push_str(&format!("set xlabel \"{}\"\n", fig.x_label));
    s.push_str(&format!("set ylabel \"{}\"\n", fig.y_label));
    s.push_str("set key outside right\n");
    s.push_str("plot \\\n");
    let lines: Vec<String> = fig
        .series
        .iter()
        .enumerate()
        .map(|(i, series)| {
            let col = 2 + i * cols_per_series;
            if with_spread {
                format!(
                    "  '{}.csv' using 1:{col}:{} with yerrorlines title '{}'",
                    fig.id,
                    col + 1,
                    series.label
                )
            } else {
                format!(
                    "  '{}.csv' using 1:{col} with linespoints title '{}'",
                    fig.id, series.label
                )
            }
        })
        .collect();
    s.push_str(&lines.join(", \\\n"));
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_both_files() {
        let dir = std::env::temp_dir().join("strip_export_test");
        let fig = Figure {
            id: "figtest".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "A".into(),
                points: vec![(1.0, 2.0)],
                spread: vec![],
            }],
            paper_expectation: "n/a".into(),
        };
        export_figure(&dir, &fig).unwrap();
        assert!(dir.join("figtest.csv").exists());
        assert!(dir.join("figtest.txt").exists());
        assert!(dir.join("figtest.gp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gnuplot_script_references_all_series() {
        let fig = Figure {
            id: "figx".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                Series {
                    label: "UF".into(),
                    points: vec![(1.0, 2.0)],
                    spread: vec![0.1],
                },
                Series {
                    label: "TF".into(),
                    points: vec![(1.0, 3.0)],
                    spread: vec![0.2],
                },
            ],
            paper_expectation: "n/a".into(),
        };
        let gp = gnuplot_script(&fig);
        assert!(gp.contains("title 'UF'"));
        assert!(gp.contains("title 'TF'"));
        assert!(gp.contains("yerrorlines"), "spread -> error bars");
        assert!(gp.contains("using 1:4:5"), "second series columns shift");
    }
}
