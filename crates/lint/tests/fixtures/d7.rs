// Fixture: must trigger D7 (durability-boundary) exactly once.
// Not compiled; read as data by the self-tests.

use strip_live::logdir::chain;

fn walk(dir: &std::path::Path) -> usize {
    chain(dir).map_or(0, Iterator::count)
}
