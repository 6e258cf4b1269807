// Fixture: must trigger S4 (one-experiment-table) exactly once: a
// simulator experiment with its own main, outside the table.
// Scanned as crates/bench/src/ablation.rs; not compiled.

fn main() {
    for fraction in [0.05, 0.1, 0.19] {
        let cfg = fixed_fraction(fraction);
        println!("{fraction} {}", run_paper_sim(&cfg).fold_high);
    }
}
