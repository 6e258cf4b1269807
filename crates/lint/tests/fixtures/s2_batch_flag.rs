// Fixture: must trigger S2 (one-update-path) exactly once: an option
// that selects a frame shape.
// Scanned as crates/live/src/bin/strip_loadgen.rs; not compiled.

fn parse(arg: &str, opts: &mut Options) {
    match arg {
        "--batch" => opts.batched = true,
        _ => {}
    }
}
