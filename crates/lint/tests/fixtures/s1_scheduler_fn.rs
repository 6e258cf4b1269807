// Fixture: must trigger S1 (one-scheduler-core) exactly once.
// Scanned as crates/live/src/executor.rs; not compiled.

impl Executor {
    fn try_update_step(&mut self) -> bool {
        self.sched.has_pending_update()
    }
}
