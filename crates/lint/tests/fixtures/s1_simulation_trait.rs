// Fixture: must trigger S1 (one-scheduler-core) exactly once: a generic
// model trait for a kernel to drive.
// Scanned as crates/simkit/src/engine.rs; not compiled.

pub trait Simulation {
    type Event;

    fn handle(&mut self, event: Self::Event, now: SimTime);
}
