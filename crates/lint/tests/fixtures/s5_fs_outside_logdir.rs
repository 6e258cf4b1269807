// Fixture: must trigger S5 (one-durability-directory) exactly once.
// Scanned as crates/live/src/wal.rs; not compiled.

fn segment_bytes(path: &Path) -> io::Result<Vec<u8>> {
    std::fs::read(path)
}
