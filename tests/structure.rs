//! The structure gate: the workspace as committed breaks none of
//! `strip-lint`'s determinism & soundness rules (D1–D5, D7–D11) and none
//! of its structure rows (S1–S5: one scheduler core, one update path, one
//! config contract, one experiment table, one durability directory). This
//! is the only place the scan runs; DESIGN.md §11 points to the tables.

use std::path::Path;

use strip_lint::{render_text, scan_workspace};

#[test]
fn workspace_holds_every_rule_and_structure_row() {
    let violations = scan_workspace(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace scan");
    let rendered: String = violations.iter().map(render_text).collect();
    assert!(
        violations.is_empty(),
        "strip-lint found {} violation(s):\n{rendered}",
        violations.len()
    );
}
