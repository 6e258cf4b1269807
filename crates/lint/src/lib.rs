//! `strip-lint` — the workspace's determinism & soundness static-analysis
//! pass.
//!
//! The reproduction's headline guarantees (bit-identical golden traces,
//! checkpoint fingerprints, disturbance substreams that leave baselines
//! untouched) all rest on determinism, and determinism erodes one
//! convenient `HashMap` at a time. The live runtime adds a second
//! failure axis: lock-free publication protocols whose memory orderings
//! are correct only as a set, never one line at a time. This crate walks
//! every non-vendored workspace crate with a purpose-built lexer (the
//! offline build has no `syn`; see [`lex`]) and enforces eleven rules:
//!
//! | code | name                    | scope                                       |
//! |------|-------------------------|---------------------------------------------|
//! | D1   | wall-clock              | sim-time + live crates: no `Instant`/`SystemTime` outside annotated clock/transport modules |
//! | D2   | nondeterministic-order  | sim/report/live paths: no `HashMap`/`HashSet` |
//! | D3   | ambient-entropy         | everywhere but `simkit::rng`                |
//! | D4   | undocumented-unsafe     | everywhere: `unsafe` needs `// SAFETY:`     |
//! | D5   | panicking-io            | checkpoint/trace I/O: no unwrap/expect/`[]` |
//! | D6   | raw-f64-sum             | stats-adjacent files: use Welford helpers   |
//! | D7   | durability-boundary     | WAL/snapshot/recovery/logdir: checked I/O only; sim-path crates must not import them |
//! | D8   | live-panic              | live runtime (non-durability files) and the scheduler core it drives: every `unwrap`/`expect`/`panic!` needs a per-site allow naming its invariant |
//! | D9   | atomic-protocol         | everywhere scanned: every `Ordering::*` site must match its field's declared role in `crates/lint/sync_protocol.toml` |
//! | D10  | lock-order              | everywhere scanned: `.lock()` only on registered Mutexes; nested acquisitions ascend in rank |
//! | D11  | send-sync-audit         | everywhere scanned: `unsafe impl Send/Sync` needs a registry entry naming its invariant |
//!
//! D9–D11 are cross-file: they check the code against the sync-site
//! registry (see [`registry`] and [`sync`]) and fail on stale registry
//! entries too, so coverage is two-way by construction.
//!
//! Violations are silenced in place with
//! `// lint: allow(<rule>, reason=...)` (same or next line) or
//! `// lint: allow-file(<rule>, reason=...)`; the reason is mandatory.
//! See DESIGN.md §11 for the full rationale.

pub mod lex;
pub mod registry;
pub mod rules;
pub mod sync;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use rules::{analyze_source, RuleId, Violation};
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

/// Stats-adjacent files (D6): the Welford helpers live in
/// `simkit::stats`; aggregation here must use them, not raw f64 sums.
const D6_FILES: [&str; 3] = [
    "crates/simkit/src/stats.rs",
    "crates/core/src/report.rs",
    "crates/experiments/src/figures.rs",
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
    if D6_FILES.contains(&rel) {
        rules.push(RuleId::RawF64Sum);
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
/// so reports and JSON are themselves deterministic.
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
/// file's applicability set, then the cross-file sync rules D9–D11 over
/// every scanned file against the registry at
/// [`REGISTRY_PATH`](sync::REGISTRY_PATH). A missing or unparsable
/// registry is itself a violation — the sync gate must never silently
/// turn off. `only` restricts both passes. Violations come back sorted
/// by (file, line, rule, col).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable file or directory).
pub fn scan_workspace(root: &Path, only: Option<&[RuleId]>) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in scan_targets(root)? {
        let rel = relative_label(root, &path);
        let src = std::fs::read_to_string(&path)?;
        let mut rules = rules_for(&rel);
        if let Some(filter) = only {
            rules.retain(|r| filter.contains(r));
        }
        if !rules.is_empty() {
            all.extend(analyze_source(&rel, &src, &rules));
        }
        sources.push((rel, src));
    }

    let sync_wanted = only.is_none_or(|f| f.iter().any(|r| RuleId::SYNC.contains(r)));
    if sync_wanted {
        let reg_path = root.join(REGISTRY_PATH);
        let mut sync_violations = match std::fs::read_to_string(&reg_path) {
            Ok(text) => match registry::parse(&text) {
                Ok(reg) => analyze_sync(&sources, &reg),
                Err((line, msg)) => vec![Violation {
                    rule: RuleId::AtomicProtocol,
                    file: REGISTRY_PATH.to_string(),
                    line,
                    col: 1,
                    message: format!("registry parse error: {msg}"),
                    snippet: String::new(),
                }],
            },
            Err(e) => vec![Violation {
                rule: RuleId::AtomicProtocol,
                file: REGISTRY_PATH.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "sync-site registry missing or unreadable ({e}); the atomic-protocol \
                     gate cannot run without it"
                ),
                snippet: String::new(),
            }],
        };
        if let Some(filter) = only {
            sync_violations.retain(|v| filter.contains(&v.rule));
        }
        all.extend(sync_violations);
    }

    all.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.col).cmp(&(b.file.as_str(), b.line, b.rule, b.col))
    });
    Ok(all)
}

/// Stable identity of a violation for baseline comparison: rule code,
/// file, and the trimmed source snippet — deliberately *not* the line
/// number, which drifts on every unrelated edit.
#[must_use]
pub fn baseline_key(v: &Violation) -> String {
    format!("{}\t{}\t{}", v.rule.code(), v.file, v.snippet)
}

/// Renders violations as a committed baseline file: one key per line,
/// `#` comments, stable order.
#[must_use]
pub fn render_baseline(violations: &[Violation]) -> String {
    let mut s = String::from(
        "# strip-lint baseline: pinned pre-existing violations (code\\tfile\\tsnippet).\n\
         # Regenerate with `strip-lint --write-baseline <path>`; new violations not\n\
         # listed here fail CI.\n",
    );
    let mut keys: Vec<String> = violations.iter().map(baseline_key).collect();
    keys.sort();
    for k in keys {
        s.push_str(&k);
        s.push('\n');
    }
    s
}

/// Subtracts a committed baseline from `violations`: each baseline line
/// absolves at most one matching violation (multiset semantics), so a
/// *new* duplicate of a pinned site still fails. Returns the surviving
/// violations.
#[must_use]
pub fn apply_baseline(violations: Vec<Violation>, baseline: &str) -> Vec<Violation> {
    let mut budget: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for line in baseline.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        *budget.entry(line).or_insert(0) += 1;
    }
    violations
        .into_iter()
        .filter(|v| {
            let key = baseline_key(v);
            match budget.get_mut(key.as_str()) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    false
                }
                _ => true,
            }
        })
        .collect()
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

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable JSON report (hand-rolled: the vendored
/// serde stand-in has no serializer, and the schema is four fields).
#[must_use]
pub fn render_json(violations: &[Violation]) -> String {
    let mut s = String::from("{\n  \"tool\": \"strip-lint\",\n  \"version\": 1,\n");
    let _ = writeln!(s, "  \"violation_count\": {},", violations.len());
    s.push_str("  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"code\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            v.rule.name(),
            v.rule.code(),
            json_escape(&v.file),
            v.line,
            v.col,
            json_escape(&v.message),
            json_escape(&v.snippet),
        );
    }
    if violations.is_empty() {
        s.push_str("]\n}\n");
    } else {
        s.push_str("\n  ]\n}\n");
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

        let r = rules_for("crates/simkit/src/stats.rs");
        assert!(r.contains(&RuleId::RawF64Sum));

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
        assert!(!r.contains(&RuleId::RawF64Sum));

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
    fn json_report_shape() {
        let v = Violation {
            rule: RuleId::NondeterministicOrder,
            file: "a.rs".into(),
            line: 3,
            col: 7,
            message: "say \"hi\"".into(),
            snippet: "let m = HashMap::new();".into(),
        };
        let j = render_json(std::slice::from_ref(&v));
        assert!(j.contains("\"violation_count\": 1"));
        assert!(j.contains("\"rule\": \"nondeterministic-order\""));
        assert!(j.contains("\\\"hi\\\""));
        assert!(render_json(&[]).contains("\"violations\": []"));
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
