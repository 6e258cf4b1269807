// Fixture: must trigger S3 (one-config-contract) exactly once: a stream
// fault beside the feed outage.
// Scanned as crates/workload/src/disturbance.rs; not compiled.

fn transform(&mut self, mut spec: UpdateSpec) -> Option<UpdateSpec> {
    if self.rng.chance(self.spec.p_reorder) {
        spec.arrival += self.rng.next_f64();
    }
    Some(spec)
}
