//! Integration tests for the robustness layer: disturbed update streams,
//! bounded-queue shedding, and the crash-isolated, checkpointing sweep
//! runner (figR1's machinery, end to end).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use strip_core::config::{DisturbanceSpec, Policy, ShedPolicy, SimConfig};
use strip_experiments::figures::OUTAGE_GRID;
use strip_experiments::runner::RunFn;
use strip_experiments::{Campaign, FigureId, RunSettings, SweepRunner};
use strip_workload::run_paper_sim;

fn outage_cfg(policy: Policy, outage_secs: f64) -> SimConfig {
    SimConfig::builder()
        .policy(policy)
        .duration(60.0)
        .seed(0xFEED)
        .disturbance(Some(DisturbanceSpec {
            outage_from: 20.0,
            outage_secs,
        }))
        .build()
        .unwrap()
}

#[test]
fn outage_spikes_staleness_and_recovery_is_measured() {
    let calm = run_paper_sim(&outage_cfg(Policy::UpdatesFirst, 0.0));
    let hit = run_paper_sim(&outage_cfg(Policy::UpdatesFirst, 15.0));
    // A zero-length outage is the undisturbed stream.
    assert_eq!(calm.resilience.outage_held, 0);
    assert_eq!(calm.resilience.recovery_secs, None);
    // The outage held a flood of arrivals (λu = 400/s for 15 s) ...
    assert!(
        hit.resilience.outage_held > 4_000,
        "expected a catch-up flood, held only {}",
        hit.resilience.outage_held
    );
    // ... the silence left the view visibly staler ...
    assert!(
        hit.fold_high > calm.fold_high + 0.05,
        "no staleness spike: disturbed fold_h {} vs calm {}",
        hit.fold_high,
        calm.fold_high
    );
    // ... and the time back to the pre-outage staleness level was measured.
    let rec = hit
        .resilience
        .recovery_secs
        .expect("UF must recover before the horizon");
    assert!(
        (0.0..=25.0).contains(&rec),
        "recovery outside the post-outage window: {rec}"
    );
}

fn shed_cfg(shed: ShedPolicy) -> SimConfig {
    SimConfig::builder()
        .policy(Policy::TransactionsFirst)
        .duration(60.0)
        .seed(0xFEED)
        // Roomy OS queue so the flood reaches the update queue; tight UQ_max
        // so the shedding policy decides what survives.
        .os_max(20_000)
        .uq_max(250)
        .uq_shed(shed)
        .disturbance(Some(DisturbanceSpec {
            outage_from: 20.0,
            outage_secs: 15.0,
        }))
        .build()
        .unwrap()
}

#[test]
fn drop_lowest_importance_keeps_high_partition_fresher() {
    let newest = run_paper_sim(&shed_cfg(ShedPolicy::DropNewest));
    let lowimp = run_paper_sim(&shed_cfg(ShedPolicy::DropLowestImportance));
    // The catch-up flood must actually overflow the bounded queue.
    assert!(
        newest.updates.overflow_dropped > 100,
        "flood did not overflow UQ_max: {} drops",
        newest.updates.overflow_dropped
    );
    assert!(lowimp.updates.overflow_dropped > 100);
    // Shedding low-importance updates preserves the high partition.
    assert!(
        lowimp.fold_high < newest.fold_high,
        "drop-low-imp should beat drop-newest on fold_h: {} vs {}",
        lowimp.fold_high,
        newest.fold_high
    );
}

#[test]
fn panicking_point_is_recorded_and_not_fatal() {
    let su_calls = Arc::new(AtomicUsize::new(0));
    let su_calls_in_bomb = Arc::clone(&su_calls);
    let bomb: RunFn = Arc::new(move |cfg: &SimConfig| {
        if cfg.policy == Policy::SplitUpdates {
            su_calls_in_bomb.fetch_add(1, Ordering::Relaxed);
        }
        assert!(
            cfg.policy != Policy::SplitUpdates,
            "injected SU crash (test hook)"
        );
        run_paper_sim(cfg)
    });
    let runner = SweepRunner::new().with_run_fn(bomb);
    let mut campaign = Campaign::with_runner(RunSettings::quick(2.0), runner);
    let figs = campaign.figure(FigureId::FigR1);
    // The campaign completed every panel despite one algorithm crashing on
    // every point of the outage sweep.
    assert_eq!(figs.len(), 4);
    let failures = campaign.failures();
    assert_eq!(
        failures.len(),
        OUTAGE_GRID.len(),
        "one recorded failure per SU outage point"
    );
    assert_eq!(
        su_calls.load(Ordering::Relaxed),
        OUTAGE_GRID.len(),
        "a crashing point runs once: a same-seed rerun would panic again"
    );
    for f in failures {
        assert!(f.label.starts_with("SU"), "unexpected label {}", f.label);
        assert!(f.message.contains("injected SU crash"));
    }
    // Surviving series still carry data: UF's fold_h panel has real points.
    let uf = &figs[0].series[0];
    assert_eq!(uf.label, "UF");
    assert_eq!(uf.points.len(), OUTAGE_GRID.len());
}

#[test]
fn checkpointed_campaign_resumes_after_a_kill() {
    let dir = std::env::temp_dir().join(format!("strip-resilience-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let settings = RunSettings::quick(5.0);

    // First campaign: completes figR1 and checkpoints every point.
    let mut first = Campaign::with_runner(
        settings.clone(),
        SweepRunner::new().with_checkpoint_dir(&dir),
    );
    let reference = first.figure(FigureId::FigR1);
    assert!(first.failures().is_empty());
    assert_eq!(first.resumed(), 0);
    let total_points = 2 * 4 * OUTAGE_GRID.len(); // two sweeps x 4 series

    // Simulate a kill partway through: delete a few completed points, as if
    // the process died before reaching them.
    let mut ckpts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(ckpts.len(), total_points);
    ckpts.sort();
    for lost in &ckpts[..3] {
        std::fs::remove_file(lost).unwrap();
    }

    // Rerun with the same parameters: only the lost points re-simulate, and
    // the figures come out identical.
    let mut second = Campaign::with_runner(settings, SweepRunner::new().with_checkpoint_dir(&dir));
    let resumed = second.figure(FigureId::FigR1);
    assert_eq!(second.resumed(), total_points - 3);
    assert!(second.failures().is_empty());
    assert_eq!(resumed, reference);
    let _ = std::fs::remove_dir_all(&dir);
}
