// Fixture: must trigger S3 (one-config-contract) exactly once: the live
// crate refusing a config.
// Scanned as crates/live/src/executor.rs; not compiled.

fn admit(cfg: &SimConfig) -> Result<(), ConfigError> {
    if cfg.history_depth > 0 {
        return Err(ConfigError::Unsupported("history"));
    }
    Ok(())
}
