// Fixture: must trigger S5 (one-durability-directory) exactly once: the
// root package's facade naming a durability module.
// Scanned as src/lib.rs; not compiled.

use strip_live::logdir::chain;

fn walk(dir: &std::path::Path) -> usize {
    chain(dir).map_or(0, Iterator::count)
}
