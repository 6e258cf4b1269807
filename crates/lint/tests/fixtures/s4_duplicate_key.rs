// Fixture: must trigger S4 (one-experiment-table) exactly once: a sweep
// key declared again outside the table.
// Scanned as crates/experiments/src/scenarios.rs; not compiled.

static COSTLY_SCANS: Sweep = Sweep {
    key: "xscan",
    x_label: "x_scan",
};
