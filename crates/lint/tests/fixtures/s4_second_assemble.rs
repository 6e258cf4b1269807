// Fixture: must trigger S4 (one-experiment-table) exactly once.
// Scanned as crates/experiments/src/sweep.rs; not compiled.

fn assemble_ratio(num: &Figure, den: &Figure) -> Figure {
    num.divided_by(den)
}
