// Fixture: must trigger S2 (one-update-path) exactly once: a second
// replay beside the first.
// Scanned as crates/live/src/loadgen.rs; not compiled.

pub fn replay(addr: &str, cfg: &SimConfig) -> io::Result<LoadgenSummary> {
    drive(addr, cfg, Frames::Single)
}

pub fn replay_batched(addr: &str, cfg: &SimConfig) -> io::Result<LoadgenSummary> {
    drive(addr, cfg, Frames::Batched)
}
