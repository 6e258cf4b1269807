// Fixture: must trigger S2 (one-update-path) exactly once: a knob that
// picks the OS queue's overflow victim.
// Scanned as crates/core/src/config.rs; not compiled.

pub struct SimConfig {
    pub os_max: usize,
    pub os_shed: ShedPolicy,
    pub uq_shed: ShedPolicy,
}
