// Fixture: must trigger S4 (one-experiment-table) exactly once:
// per-figure code in the tracer.
// Scanned as crates/experiments/src/tracing.rs; not compiled.

fn traced_x(id: FigureId) -> f64 {
    if id == FigureId::Fig03 {
        10.0
    } else {
        id.sweep().trace_x
    }
}
