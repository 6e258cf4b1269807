//! Figure output must be byte-stable: two identical campaigns render
//! byte-equal CSV and ASCII, run after run.
//!
//! This is the observable consequence of rule D2 (no hash collections in
//! sim/report paths): a `HashMap` anywhere between the sweep and the emit
//! point would reorder series or points between processes and break this
//! test only *sometimes* — exactly the flakiness the lint exists to
//! prevent. `fig04` exercises the shared baseline sweep; `fig11` adds the
//! queue-discipline comparison (its own sweep plus derived series).

use strip_experiments::{Campaign, FigureId, RunSettings};

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

/// A campaign resumed from its checkpoints must print what the fresh one
/// printed. figD1 reads only `dag.*` fields, which checkpoint format v2
/// never wrote: its resumed panels were all zeros.
#[test]
fn figd1_resume_equals_fresh() {
    use strip_experiments::figures::DAG_DEPTH_GRID;
    use strip_experiments::SweepRunner;

    let dir = std::env::temp_dir().join(format!("strip-figd1-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = || {
        Campaign::with_runner(
            RunSettings::quick(20.0),
            SweepRunner::new().with_checkpoint_dir(&dir),
        )
    };
    let mut first = campaign();
    let fresh = first.figure(FigureId::FigD1);
    assert_eq!(first.resumed(), 0);

    let mut second = campaign();
    let resumed = second.figure(FigureId::FigD1);
    assert_eq!(second.resumed(), 4 * DAG_DEPTH_GRID.len());
    assert_eq!(resumed, fresh);
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
    let _ = std::fs::remove_dir_all(&dir);
}
