// Fixture: must trigger S3 (one-config-contract) exactly once: a second
// reader of the disturbance spec.
// Scanned as crates/workload/src/disturbance.rs; not compiled.

fn wrap(cfg: &SimConfig, inner: UpdateStream) -> UpdateStream {
    match cfg.disturbance {
        None => inner,
        Some(spec) => disturbed(inner, spec),
    }
}
