//! `strip-lint` — the workspace's static gate: determinism & soundness
//! rules and the structure rows, one scan, run by `tests/structure.rs` of
//! the root package (so `cargo test` is where it fails).
//!
//! The reproduction's headline guarantees (bit-identical golden traces,
//! checkpoint fingerprints, disturbance substreams that leave baselines
//! untouched) all rest on determinism, and determinism erodes one
//! convenient `HashMap` at a time. The live runtime adds a second
//! failure axis: lock-free publication protocols whose memory orderings
//! are correct only as a set, never one line at a time. This crate walks
//! every non-vendored workspace crate with a purpose-built lexer (the
//! offline build has no `syn`; see [`lex`]) and enforces the per-file rules
//! D1–D5, D7 and D8 ([`rules`]), the cross-file rules D9–D11 ([`sync`]) and
//! the structure rows S1–S5 ([`structure`]); [`RuleId`] describes each,
//! [`rules_for`] gives each per-file rule's scope, and DESIGN.md §11 has the
//! rationale.
//!
//! D9–D11 are cross-file: they check the code against the sync-site
//! registry (see [`registry`] and [`sync`]) and fail on stale registry
//! entries too, so coverage is two-way by construction.
//!
//! A D-violation is silenced in place with
//! `// lint: allow(<rule>, reason=...)` (same or next line) or
//! `// lint: allow-file(<rule>, reason=...)`; the reason is mandatory.
//! Nothing silences an S-row. See DESIGN.md §11 for the full rationale.

#![forbid(unsafe_code)]

pub mod lex;
pub mod registry;
pub mod rules;
pub mod structure;
pub mod sync;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use rules::{analyze_source, RuleId, Violation};
pub use structure::check_structure;
pub use sync::{analyze_sync, REGISTRY_PATH};

/// Directories under `crates/` that are vendored stand-ins for registry
/// crates (the build environment is offline). They are third-party idiom,
/// not sim code, and are never scanned.
pub const VENDORED: [&str; 4] = ["serde", "serde_derive", "proptest", "loom"];

/// Crates whose `src/` must not read wall-clock time (D1): everything that
/// executes inside or reports on simulated time, plus the live runtime —
/// there, wall-clock reads are confined to the explicitly annotated clock
/// and transport modules so the policy/metrics logic stays clock-agnostic.
const D1_CRATES: [&str; 6] = ["simkit", "rtdb", "core", "workload", "obs", "live"];

/// Crates whose `src/` is a deterministic sim/report path (D2): the D1 set
/// plus the experiment driver and the root facade.
const D2_CRATES: [&str; 7] = [
    "simkit",
    "rtdb",
    "core",
    "workload",
    "obs",
    "live",
    "experiments",
];

/// The one module allowed to touch entropy plumbing (D3 exemption).
const D3_EXEMPT: [&str; 1] = ["crates/simkit/src/rng.rs"];

/// Checkpoint/trace I/O modules (D5): these run unattended inside long
/// sweeps and must degrade via `Result`, not panics.
const D5_FILES: [&str; 2] = [
    "crates/experiments/src/runner.rs",
    "crates/experiments/src/tracing.rs",
];

/// Durability I/O modules (D7, checked-I/O mode): the crash-safety path
/// runs unattended and must degrade via `Result` — a panic here turns a
/// recoverable disk hiccup into data loss.
const D7_DURABILITY_FILES: [&str; 4] = [
    "crates/live/src/logdir.rs",
    "crates/live/src/recovery.rs",
    "crates/live/src/snapshot.rs",
    "crates/live/src/wal.rs",
];

/// The one file outside the live crate that runs on the executor thread
/// (D8): the scheduler core, which both the simulator and `stripd` drive.
const D8_CORE_FILES: [&str; 1] = ["crates/core/src/scheduler.rs"];

/// Crates whose `src/` must never name a durability module (D7, isolation
/// mode): the deterministic sim/report path must not grow a filesystem
/// dependency. Everything in D2 scope except the live runtime itself.
const D7_SIM_CRATES: [&str; 6] = ["simkit", "rtdb", "core", "workload", "obs", "experiments"];

/// Which rules apply to the file at workspace-relative `rel` (unix
/// separators). Returns an empty set for out-of-scope files.
#[must_use]
pub fn rules_for(rel: &str) -> Vec<RuleId> {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    let in_src = match crate_name {
        Some(c) => rel.starts_with(&format!("crates/{c}/src/")),
        None => rel.starts_with("src/"),
    };
    if !in_src {
        return Vec::new();
    }
    let mut rules = Vec::new();
    if crate_name.is_some_and(|c| D1_CRATES.contains(&c)) {
        rules.push(RuleId::WallClock);
    }
    if crate_name.is_none_or(|c| D2_CRATES.contains(&c)) {
        rules.push(RuleId::NondeterministicOrder);
    }
    if !D3_EXEMPT.contains(&rel) {
        rules.push(RuleId::AmbientEntropy);
    }
    rules.push(RuleId::UndocumentedUnsafe);
    if D5_FILES.contains(&rel) {
        rules.push(RuleId::PanickingIo);
    }
    if D7_DURABILITY_FILES.contains(&rel) || crate_name.is_none_or(|c| D7_SIM_CRATES.contains(&c)) {
        rules.push(RuleId::DurabilityBoundary);
    }
    // D8 covers the live runtime's non-durability modules (the durability
    // files already answer to D7's stricter no-allow-needed variant) and
    // the scheduler core that runs on the executor thread.
    if (crate_name.is_some_and(|c| c == "live") && !D7_DURABILITY_FILES.contains(&rel))
        || D8_CORE_FILES.contains(&rel)
    {
        rules.push(RuleId::LivePanic);
    }
    rules
}

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

/// Scans the workspace at `root`: the per-file rules D1–D8 under each
/// file's applicability set, the cross-file sync rules D9–D11 against
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
        let src = std::fs::read_to_string(&path)?;
        all.extend(analyze_source(&rel, &src, &rules_for(&rel)));
        sources.push((rel, src));
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
    fn applicability_tables() {
        let r = rules_for("crates/simkit/src/event.rs");
        assert!(r.contains(&RuleId::WallClock));
        assert!(r.contains(&RuleId::NondeterministicOrder));
        assert!(r.contains(&RuleId::UndocumentedUnsafe));
        assert!(!r.contains(&RuleId::PanickingIo));

        let r = rules_for("crates/simkit/src/rng.rs");
        assert!(
            !r.contains(&RuleId::AmbientEntropy),
            "rng.rs is the entropy boundary"
        );

        let r = rules_for("crates/experiments/src/runner.rs");
        assert!(r.contains(&RuleId::PanickingIo));
        assert!(
            !r.contains(&RuleId::WallClock),
            "experiments may time real sweeps"
        );

        // The live runtime is in D1/D2 scope: its clock and transport
        // modules carry explicit allow-file annotations, everything else
        // must stay clock-agnostic.
        let r = rules_for("crates/live/src/clock.rs");
        assert!(r.contains(&RuleId::WallClock));
        assert!(r.contains(&RuleId::NondeterministicOrder));
        let r = rules_for("crates/live/src/executor.rs");
        assert!(r.contains(&RuleId::WallClock));

        // The SPSC ingest ring is ordinary live-crate code: wall-clock
        // and ordering rules apply in full, and its unsafe slot handoff
        // must carry SAFETY comments (D4) — the ring's atomics are the
        // only sanctioned ordering-sensitive code in the crate.
        let r = rules_for("crates/live/src/spsc.rs");
        assert!(r.contains(&RuleId::WallClock));
        assert!(r.contains(&RuleId::NondeterministicOrder));
        assert!(r.contains(&RuleId::AmbientEntropy));
        assert!(r.contains(&RuleId::UndocumentedUnsafe));
        assert!(!r.contains(&RuleId::PanickingIo));

        let r = rules_for("src/lib.rs");
        assert!(r.contains(&RuleId::NondeterministicOrder));

        assert!(rules_for("crates/experiments/tests/golden.rs").is_empty());
        assert!(rules_for("crates/lint/src/lib.rs").contains(&RuleId::UndocumentedUnsafe));

        // D7 checked-I/O mode covers exactly the durability modules; D7
        // isolation mode covers the sim-path crates (which must never
        // import them) but not the live crate's own non-durability files.
        for f in [
            "crates/live/src/wal.rs",
            "crates/live/src/snapshot.rs",
            "crates/live/src/recovery.rs",
            "crates/live/src/logdir.rs",
        ] {
            assert!(
                rules_for(f).contains(&RuleId::DurabilityBoundary),
                "{f} must be D7-checked"
            );
        }
        assert!(rules_for("crates/core/src/controller.rs").contains(&RuleId::DurabilityBoundary));
        assert!(rules_for("crates/experiments/src/runner.rs").contains(&RuleId::DurabilityBoundary));
        assert!(!rules_for("crates/live/src/executor.rs").contains(&RuleId::DurabilityBoundary));
        assert!(!rules_for("crates/live/src/server.rs").contains(&RuleId::DurabilityBoundary));

        // D8 pins panic sites across the live runtime except the
        // durability files (D7's checked-I/O mode admits no allows there),
        // plus the scheduler core the executor thread runs; the rest of
        // the simulator (its driver included) stays out of reach.
        assert!(rules_for("crates/live/src/executor.rs").contains(&RuleId::LivePanic));
        assert!(rules_for("crates/live/src/server.rs").contains(&RuleId::LivePanic));
        assert!(rules_for("crates/live/src/bin/stripd.rs").contains(&RuleId::LivePanic));
        assert!(!rules_for("crates/live/src/wal.rs").contains(&RuleId::LivePanic));
        assert!(rules_for("crates/core/src/scheduler.rs").contains(&RuleId::LivePanic));
        assert!(!rules_for("crates/core/src/controller.rs").contains(&RuleId::LivePanic));
        assert!(!rules_for("crates/core/src/policy.rs").contains(&RuleId::LivePanic));
    }

    #[test]
    fn text_report_is_rustc_style() {
        let v = Violation {
            rule: RuleId::WallClock,
            file: "crates/simkit/src/clock.rs".into(),
            line: 10,
            col: 5,
            message: "wall clock".into(),
            snippet: "Instant::now()".into(),
        };
        let t = render_text(&v);
        assert!(t.starts_with("error[D1/wall-clock]"));
        assert!(t.contains("--> crates/simkit/src/clock.rs:10:5"));
    }
}
