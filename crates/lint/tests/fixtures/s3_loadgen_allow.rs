// Fixture: must trigger S3 (one-config-contract) exactly once: a panic
// allowance in the loadgen.
// Scanned as crates/live/src/loadgen.rs; not compiled.

pub fn replay(addr: &str, cfg: &SimConfig) -> io::Result<LoadgenSummary> {
    // lint: allow(live-panic, reason=both heads were peeked before the merge)
    merge(addr, cfg)
}
