// Fixture: must trigger S3 (one-config-contract) exactly once: a stream
// built past UpdateStream::from_config.
// Scanned as crates/experiments/src/runner.rs; not compiled.

fn updates(cfg: &SimConfig) -> PoissonUpdates {
    PoissonUpdates::from_config(cfg)
}
