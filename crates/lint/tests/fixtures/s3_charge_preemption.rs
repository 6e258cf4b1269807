// Fixture: must trigger S3 (one-config-contract) exactly once: the public
// follow-up call fires, the private helper does not.
// Scanned as crates/core/src/policy.rs; not compiled.

impl Scheduler {
    pub fn charge_preemption(&mut self, now: SimTime) {
        self.requeue_bound(now);
    }

    fn requeue_bound(&mut self, now: SimTime) {
        self.ready.push(now);
    }
}
