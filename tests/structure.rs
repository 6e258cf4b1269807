//! The structure gate: the workspace as committed breaks none of
//! `strip-lint`'s sync rules (D9–D11) and none of its structure rows
//! (S1–S5: one scheduler core, one update path, one config contract, one
//! experiment table, one durability directory). This is the only place the
//! scan runs; DESIGN.md §11 points to the tables.
//!
//! The per-file rules D1–D5, D7 and D8 are compiler and clippy lints that
//! CI's clippy step runs (`ci/lint_fixtures.py` shows each one failing
//! there). What this gate holds is their configuration: every
//! `clippy.toml` names its disallowed types; every file in a panic rule's
//! scope and every crate root sets its lint levels, so `unsafe` stays a
//! compiler error across the workspace; and no file but the three that
//! hold `unsafe` lowers `unsafe_code`.

use std::path::Path;

use strip_lint::lex::{lex, TokKind};
use strip_lint::{relative_label, render_text, scan_targets, scan_workspace};

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

const WALL_CLOCK: [&str; 2] = ["std::time::Instant", "std::time::SystemTime"];
const HASH_ORDER: [&str; 2] = ["std::collections::HashMap", "std::collections::HashSet"];
const ENTROPY: [&str; 1] = ["std::hash::RandomState"];

/// Each `clippy.toml` and the rules (D1 wall clock, D2 hash order, D3
/// ambient entropy) whose types it disallows. The root file is the
/// setting of every crate without a file of its own.
const SCOPES: [(&str, &[&[&str]]); 3] = [
    ("clippy.toml", &[&WALL_CLOCK, &HASH_ORDER, &ENTROPY]),
    ("crates/experiments/clippy.toml", &[&HASH_ORDER, &ENTROPY]),
    ("crates/bench/clippy.toml", &[&HASH_ORDER, &ENTROPY]),
];

const NO_PANIC: [&str; 3] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
];
const D5: [&str; 4] = [
    "clippy::indexing_slicing",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
];
const LIVE_ROOT: [&str; 6] = [
    "unsafe_code",
    "clippy::allow_attributes_without_reason",
    "clippy::undocumented_unsafe_blocks",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
];

/// What every crate root outside `strip-live` (the lib and each
/// `src/bin`, of every crate the scan reads) sets for itself: `unsafe` is
/// forbidden outright and every allowance names a reason.
const ROOT: [(&str, &str); 2] = [
    ("forbid", "unsafe_code"),
    ("deny", "clippy::allow_attributes_without_reason"),
];

/// The only files that may lower `unsafe_code` below `strip-live`'s `deny`.
const UNSAFE_FILES: [&str; 3] = [
    "crates/live/src/crc32.rs",
    "crates/live/src/signal.rs",
    "crates/live/src/spsc.rs",
];

/// (file, lint level, lints the file sets to that level for itself).
/// D5: checkpoint and trace I/O. D7: the durability files, where no site
/// is allowed a panic. D8: the rest of `strip-live` through its crate
/// roots, and the scheduler core and the loadgen, where no site is allowed
/// one either. The three modules that hold `unsafe` expect it.
const LEVELS: [(&str, &str, &[&str]); 14] = [
    ("crates/experiments/src/runner.rs", "deny", &D5),
    ("crates/experiments/src/tracing.rs", "deny", &D5),
    ("crates/live/src/wal.rs", "forbid", &NO_PANIC),
    ("crates/live/src/snapshot.rs", "forbid", &NO_PANIC),
    ("crates/live/src/recovery.rs", "forbid", &NO_PANIC),
    ("crates/live/src/logdir.rs", "forbid", &NO_PANIC),
    ("crates/live/src/lib.rs", "deny", &LIVE_ROOT),
    ("crates/live/src/bin/stripd.rs", "deny", &LIVE_ROOT),
    ("crates/live/src/bin/strip_loadgen.rs", "deny", &LIVE_ROOT),
    ("crates/live/src/loadgen.rs", "forbid", &NO_PANIC),
    ("crates/core/src/scheduler.rs", "forbid", &NO_PANIC),
    (UNSAFE_FILES[0], "expect", &["unsafe_code"]),
    (UNSAFE_FILES[1], "expect", &["unsafe_code"]),
    (UNSAFE_FILES[2], "expect", &["unsafe_code"]),
];

/// Every (inner, level, lint) that the attributes of `src` set, read off
/// the lexer's tokens: `#![deny(a, clippy::b, reason = "..")]` gives
/// (true, `deny`, `a`) and (true, `deny`, `clippy::b`); an outer
/// `#[allow(c)]` gives (false, `allow`, `c`).
fn lint_levels(src: &str) -> Vec<(bool, String, String)> {
    let toks = lex(src).tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('#') {
            continue;
        }
        let inner = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let at = i + 1 + usize::from(inner);
        let head = toks.get(at..at + 3).unwrap_or_default();
        if !(head.len() == 3
            && head[0].is_punct('[')
            && head[1].kind == TokKind::Ident
            && head[2].is_punct('('))
        {
            continue;
        }
        let level = &head[1].text;
        let mut path = String::new();
        for t in &toks[at + 3..] {
            if t.is_punct(',') || t.is_punct(')') || t.is_ident("reason") {
                if !path.is_empty() {
                    out.push((inner, level.clone(), std::mem::take(&mut path)));
                }
                if !t.is_punct(',') {
                    break;
                }
            } else {
                path.push_str(&t.text);
            }
        }
    }
    out
}

/// Whether an inner attribute of the file sets `lint` to `level`.
fn sets(set: &[(bool, String, String)], level: &str, lint: &str) -> bool {
    set.iter()
        .any(|(inner, l, n)| *inner && l == level && n == lint)
}

#[test]
fn every_lint_scope_is_configured() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let mut missing = Vec::new();
    for (rel, rules) in SCOPES {
        let text = read(rel);
        let named = |path: &str| {
            text.lines()
                .filter(|l| !l.trim_start().starts_with('#'))
                .any(|l| l.contains(&format!("path = \"{path}\"")))
        };
        for path in rules.iter().flat_map(|r| r.iter()) {
            if !named(path) {
                missing.push(format!("{rel}: disallowed-types lacks `{path}`"));
            }
        }
    }
    for (rel, level, lints) in LEVELS {
        let set = lint_levels(&read(rel));
        for lint in lints {
            if !sets(&set, level, lint) {
                missing.push(format!("{rel}: no `#![{level}({lint})]`"));
            }
        }
    }
    for path in scan_targets(root).expect("workspace scan") {
        let rel = relative_label(root, &path);
        let set = lint_levels(&read(&rel));
        let is_root = rel.ends_with("src/lib.rs") || rel.contains("src/bin/");
        if is_root && !rel.starts_with("crates/live/") {
            for (level, lint) in ROOT {
                if !sets(&set, level, lint) {
                    missing.push(format!("{rel}: no `#![{level}({lint})]`"));
                }
            }
        }
        let lowers_unsafe = |(_, l, n): &(bool, String, String)| {
            n == "unsafe_code" && (l == "allow" || l == "expect")
        };
        if !UNSAFE_FILES.contains(&rel.as_str()) && set.iter().any(lowers_unsafe) {
            missing.push(format!(
                "{rel}: allows `unsafe_code` outside {UNSAFE_FILES:?}"
            ));
        }
    }
    assert!(
        missing.is_empty(),
        "a lint scope of rules D1–D8 (DESIGN.md §11) lost its setting:\n{}",
        missing.join("\n")
    );
}
