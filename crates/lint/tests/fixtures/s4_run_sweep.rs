// Fixture: must trigger S4 (one-experiment-table) exactly once: a second
// sweep executor.
// Scanned as crates/experiments/src/sweep.rs; not compiled.

pub fn run_sweep(points: &[SimConfig]) -> Vec<RunReport> {
    points.iter().map(run_paper_sim_checked).collect()
}
