//! Figure output must be byte-stable: two identical campaigns render
//! byte-equal CSV and ASCII, run after run.
//!
//! This is the observable consequence of rule D2 (no hash collections in
//! sim/report paths): a `HashMap` anywhere between the sweep and the emit
//! point would reorder series or points between processes and break this
//! test only *sometimes* — exactly the flakiness the lint exists to
//! prevent. `fig04` exercises the shared baseline sweep; `fig11` adds the
//! queue-discipline comparison (its own sweep plus derived series).

use std::sync::Arc;

use strip_core::config::SimConfig;
use strip_experiments::figures::{DAG_DEPTH_GRID, HIT_RATIO_GRID, N_RULES_GRID, RETENTION_GRID};
use strip_experiments::runner::RunFn;
use strip_experiments::{Campaign, Figure, FigureId, RunSettings, SweepRunner};
use strip_workload::run_paper_sim;

fn render_all(id: FigureId) -> String {
    let mut campaign = Campaign::new(RunSettings::quick(2.0));
    let mut blob = String::new();
    for figure in campaign.figure(id) {
        blob.push_str(&figure.to_csv());
        blob.push('\n');
        blob.push_str(&figure.render_ascii());
        blob.push('\n');
    }
    blob
}

#[test]
fn figure_csv_and_ascii_are_byte_stable_across_runs() {
    for id in [FigureId::Fig04, FigureId::Fig11] {
        let first = render_all(id);
        let second = render_all(id);
        assert!(!first.is_empty(), "{id:?} rendered nothing");
        assert_eq!(
            first, second,
            "{id:?} output differs between identical runs"
        );
    }
}

/// Runs `id` fresh into an empty checkpoint directory, then again from it:
/// the second campaign must simulate nothing, resume `points` runs and
/// print what the first printed. Returns the resumed panels.
fn resume_equals_fresh(id: FigureId, seconds: f64, points: usize) -> Vec<Figure> {
    let dir =
        std::env::temp_dir().join(format!("strip-{}-resume-{}", id.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = |run: RunFn| {
        let runner = SweepRunner::new().with_checkpoint_dir(&dir);
        Campaign::with_runner(RunSettings::quick(seconds), runner.with_run_fn(run))
    };
    let mut first = campaign(Arc::new(run_paper_sim));
    let fresh = first.figure(id);
    assert_eq!(first.resumed(), 0);

    let mut second = campaign(Arc::new(|_: &SimConfig| panic!("should have resumed")));
    let resumed = second.figure(id);
    assert!(second.failures().is_empty(), "{id:?} re-simulated a point");
    assert_eq!(second.resumed(), points, "{id:?}");
    assert_eq!(resumed, fresh, "{id:?}");
    let _ = std::fs::remove_dir_all(&dir);
    resumed
}

/// A campaign resumed from its checkpoints must print what the fresh one
/// printed. figD1 reads only `dag.*` fields, which checkpoint format v2
/// never wrote: its resumed panels were all zeros. figX3 reads the history
/// and trigger fields; figX4 reads the timeline, and its 50 windows of a
/// curve are one run, so one checkpoint.
#[test]
fn figd1_resume_equals_fresh() {
    let resumed = resume_equals_fresh(FigureId::FigD1, 20.0, 4 * DAG_DEPTH_GRID.len());
    let od = resumed
        .iter()
        .find(|f| f.id == "figd1c")
        .and_then(|f| f.series.iter().find(|s| s.label == "OD"))
        .expect("figd1c has an OD series");
    assert!(
        od.points.iter().all(|&(_, refreshes)| refreshes > 0.0),
        "OD refreshes lost on resume: {:?}",
        od.points
    );
    let grids = RETENTION_GRID.len() + N_RULES_GRID.len() + HIT_RATIO_GRID.len();
    resume_equals_fresh(FigureId::FigX3, 5.0, 4 * grids);
    let windows = resume_equals_fresh(FigureId::FigX4, 60.0, 4);
    for series in &windows[0].series {
        assert_eq!(series.points.len(), 3, "{}", series.label);
    }
}
