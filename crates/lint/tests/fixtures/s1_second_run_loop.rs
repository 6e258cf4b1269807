// Fixture: must trigger S1 (one-scheduler-core) exactly once: a second
// simulator run loop beside the Controller's.
// Scanned as crates/simkit/src/engine.rs; not compiled.

impl<E> Kernel<E> {
    pub fn run_until(&mut self, end: SimTime) {
        while self.calendar.peek_time().is_some_and(|t| t <= end) {
            self.step();
        }
    }
}
