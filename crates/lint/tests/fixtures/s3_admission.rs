// Fixture: must trigger S3 (one-config-contract) exactly once: an option
// that sheds arrivals before they reach the OS queue.
// Scanned as crates/core/src/config.rs; not compiled.

pub struct SimConfig {
    pub lambda_u: f64,
    pub admission: Option<AdmissionControl>,
}
