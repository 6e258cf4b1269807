//! `strip-lint` — the workspace's static gate for what no compiler lint
//! can see: the cross-file sync rules and the structure rows, one scan, run
//! by `tests/structure.rs` of the root package (so `cargo test` is where it
//! fails).
//!
//! The live runtime's lock-free publication protocols are correct only as
//! a set, never one line at a time, and the workspace keeps one of each
//! thing it must not grow twice (one scheduler core, one update path, ...).
//! This crate walks every non-vendored workspace crate with a
//! purpose-built lexer (the offline build has no `syn`; see [`lex`]) and
//! enforces the cross-file rules D9–D11 ([`sync`]) and the structure rows
//! S1–S5 ([`structure`]); [`RuleId`] describes each and DESIGN.md §11 has
//! the rationale.
//!
//! D9–D11 check the code against the sync-site registry (see [`registry`]
//! and [`sync`]) and fail on stale registry entries too, so coverage is
//! two-way by construction. A D9–D11 violation is silenced in place with
//! `// lint: allow(<rule>, reason=...)` (same or next line) or
//! `// lint: allow-file(<rule>, reason=...)`; the reason is mandatory.
//! Nothing silences an S-row.
//!
//! The per-file rules D1–D5, D7 and D8 (wall clock, hash order, ambient
//! entropy, undocumented `unsafe`, panics in I/O and live code) are
//! compiler and clippy lints, set by the workspace's `clippy.toml` files
//! and lint attributes and run by CI's clippy step (DESIGN.md §11).

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod lex;
pub mod registry;
pub mod rules;
pub mod structure;
pub mod sync;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use rules::{RuleId, Violation};
pub use structure::check_structure;
pub use sync::{analyze_sync, REGISTRY_PATH};

/// Directories under `crates/` that are vendored stand-ins for registry
/// crates (the build environment is offline). They are third-party idiom,
/// not sim code, and are never scanned.
pub const VENDORED: [&str; 4] = ["serde", "serde_derive", "proptest", "loom"];

/// Collects every `.rs` file the lint scans: `src/` of the root package
/// and of each non-vendored crate under `crates/`. Paths come back sorted
/// so reports are themselves deterministic.
///
/// # Errors
///
/// Propagates filesystem errors from directory walking.
pub fn scan_targets(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let dir = entry?.path();
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !dir.is_dir() || VENDORED.contains(&name) {
                continue;
            }
            collect_rs(&dir.join("src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative unix-separator form of `path`.
#[must_use]
pub fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans the workspace at `root`: the cross-file sync rules D9–D11 against
/// the registry at [`REGISTRY_PATH`](sync::REGISTRY_PATH), and the
/// structure rows S1–S5. A missing or unparsable registry is itself a
/// violation — the sync gate must never silently turn off. Violations
/// come back sorted by (file, line, rule, col).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable file or directory).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in scan_targets(root)? {
        let rel = relative_label(root, &path);
        sources.push((rel, std::fs::read_to_string(&path)?));
    }

    let registry_broken = |line: u32, message: String| Violation {
        rule: RuleId::AtomicProtocol,
        file: REGISTRY_PATH.to_string(),
        line,
        col: 1,
        message,
        snippet: String::new(),
    };
    match std::fs::read_to_string(root.join(REGISTRY_PATH)) {
        Ok(text) => match registry::parse(&text) {
            Ok(reg) => all.extend(analyze_sync(&sources, &reg)),
            Err((line, msg)) => {
                all.push(registry_broken(
                    line,
                    format!("registry parse error: {msg}"),
                ));
            }
        },
        Err(e) => all.push(registry_broken(
            1,
            format!(
                "sync-site registry missing or unreadable ({e}); the atomic-protocol \
                 gate cannot run without it"
            ),
        )),
    }
    all.extend(check_structure(&sources));

    all.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.col).cmp(&(b.file.as_str(), b.line, b.rule, b.col))
    });
    Ok(all)
}

/// Renders one violation in rustc's `error:` style.
#[must_use]
pub fn render_text(v: &Violation) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "error[{}/{}]: {}",
        v.rule.code(),
        v.rule.name(),
        v.message
    );
    let _ = writeln!(s, "  --> {}:{}:{}", v.file, v.line, v.col);
    if !v.snippet.is_empty() {
        let _ = writeln!(s, "   | {}", v.snippet);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_report_is_rustc_style() {
        let v = Violation {
            rule: RuleId::LockOrder,
            file: "crates/live/src/server.rs".into(),
            line: 10,
            col: 5,
            message: "unregistered lock".into(),
            snippet: "state.lock()".into(),
        };
        let t = render_text(&v);
        assert!(t.starts_with("error[D10/lock-order]"));
        assert!(t.contains("--> crates/live/src/server.rs:10:5"));
    }
}
