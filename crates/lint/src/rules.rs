//! The per-file determinism & soundness rules (D1–D5, D7, D8) and the
//! annotation escape hatch.
//!
//! Every rule walks the token stream produced by [`crate::lex`]; comments
//! and literals are already out of band, so rule keywords inside strings or
//! docs can never fire. Regions under `#[cfg(test)]` (and `#[cfg(loom)]` /
//! `#[test]` items) are exempt from the *determinism* rules — tests may use
//! hash collections for membership checks — but nothing is exempt from D4:
//! an undocumented `unsafe` block is a defect wherever it lives.
//!
//! A violation is silenced in place with
//!
//! ```text
//! // lint: allow(nondeterministic-order, reason=keyed lookups only; never iterated)
//! ```
//!
//! on the offending line (trailing) or the line above, or for a whole file
//! with `// lint: allow-file(rule, reason=...)`. The `reason=` clause is
//! mandatory; an allow without one is itself reported (`bad-allow`).

use crate::lex::{lex, Comment, Lexed, Tok, TokKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: wall-clock time sources in sim-time crates.
    WallClock,
    /// D2: hash collections (nondeterministic iteration order) in
    /// deterministic sim/report paths.
    NondeterministicOrder,
    /// D3: ambient entropy outside `simkit::rng`.
    AmbientEntropy,
    /// D4: `unsafe` without a `SAFETY:` comment.
    UndocumentedUnsafe,
    /// D5: panicking calls / indexing in checkpoint & trace I/O modules.
    PanickingIo,
    /// D7: durability boundary — WAL/snapshot/recovery modules must stay
    /// checked-I/O (no unwrap/expect/panic), and no sim-path crate may
    /// import them (the simulator must never grow a filesystem
    /// dependency).
    DurabilityBoundary,
    /// D8: live-runtime panic sites — every `unwrap`/`expect`/`panic!` in
    /// the live crate's non-durability modules must carry an explicit
    /// per-site allow naming the invariant it stands on. Network- or
    /// I/O-reachable failures must be checked errors; only pinned
    /// internal invariants may panic.
    LivePanic,
    /// D9: atomic-protocol — every atomic operation naming an
    /// `Ordering::*` must match a role declared in
    /// `crates/lint/sync_protocol.toml`: the field is registered, the
    /// ordering is in the declared set for that operation kind, `Relaxed`
    /// appears only in declared single-owner contexts, and every field
    /// with `Release` stores has an `Acquire` load partner in the code.
    AtomicProtocol,
    /// D10: lock-order — every `Mutex` acquisition must be registered
    /// with a rank in the sync registry's partial order; nested
    /// acquisitions must strictly ascend in rank and the workspace-wide
    /// acquisition graph must be acyclic.
    LockOrder,
    /// D11: send-sync-audit — every `unsafe impl Send`/`unsafe impl
    /// Sync` must carry a sync-registry entry naming the invariant it
    /// stands on (and registry entries must not go stale).
    SendSyncAudit,
    /// S1–S5: the structure gates, one per row group of
    /// [`crate::structure::ROWS`]. No annotation silences them.
    SchedulerCore,
    UpdatePath,
    ConfigContract,
    ExperimentTable,
    DurabilityDirectory,
    /// Malformed `lint: allow` annotation (always on).
    BadAllow,
}

impl RuleId {
    /// Every rule a `lint: allow` can name, in document order (the
    /// structure gates and the meta rule take no annotation).
    pub const ALL: [RuleId; 10] = [
        RuleId::WallClock,
        RuleId::NondeterministicOrder,
        RuleId::AmbientEntropy,
        RuleId::UndocumentedUnsafe,
        RuleId::PanickingIo,
        RuleId::DurabilityBoundary,
        RuleId::LivePanic,
        RuleId::AtomicProtocol,
        RuleId::LockOrder,
        RuleId::SendSyncAudit,
    ];

    /// Short code ("D1") and annotation name ("wall-clock").
    fn code_and_name(self) -> (&'static str, &'static str) {
        match self {
            RuleId::WallClock => ("D1", "wall-clock"),
            RuleId::NondeterministicOrder => ("D2", "nondeterministic-order"),
            RuleId::AmbientEntropy => ("D3", "ambient-entropy"),
            RuleId::UndocumentedUnsafe => ("D4", "undocumented-unsafe"),
            RuleId::PanickingIo => ("D5", "panicking-io"),
            RuleId::DurabilityBoundary => ("D7", "durability-boundary"),
            RuleId::LivePanic => ("D8", "live-panic"),
            RuleId::AtomicProtocol => ("D9", "atomic-protocol"),
            RuleId::LockOrder => ("D10", "lock-order"),
            RuleId::SendSyncAudit => ("D11", "send-sync-audit"),
            RuleId::SchedulerCore => ("S1", "one-scheduler-core"),
            RuleId::UpdatePath => ("S2", "one-update-path"),
            RuleId::ConfigContract => ("S3", "one-config-contract"),
            RuleId::ExperimentTable => ("S4", "one-experiment-table"),
            RuleId::DurabilityDirectory => ("S5", "one-durability-directory"),
            RuleId::BadAllow => ("A0", "bad-allow"),
        }
    }

    /// Short code ("D1").
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.code_and_name().0
    }

    /// Annotation name ("nondeterministic-order").
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.code_and_name().1
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: RuleId,
    /// Workspace-relative path (unix separators).
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// What fired, e.g. "`HashMap` constructed or named here".
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A parsed `lint: allow` annotation.
#[derive(Debug)]
pub(crate) struct Allow {
    rule: RuleId,
    /// Lines the allow covers (inclusive); `None` = whole file.
    span: Option<(u32, u32)>,
}

/// Line spans (inclusive) of `#[cfg(test)]` / `#[cfg(loom)]` / `#[test]`
/// items: determinism rules skip them.
pub(crate) fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            // Inner attribute (`#![...]`): applies to the enclosing scope,
            // which for a file-level `#![cfg(test)]` we treat as whole-file.
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('[') {
            i += 1;
            continue;
        }
        // Collect idents inside the attribute up to its matching `]`.
        let mut depth = 0i32;
        let mut idents = Vec::new();
        let attr_end;
        loop {
            if j >= toks.len() {
                return regions; // unterminated attribute; bail quietly
            }
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    attr_end = j;
                    break;
                }
            } else if toks[j].kind == TokKind::Ident {
                idents.push(toks[j].text.as_str().to_string());
            }
            j += 1;
        }
        let first = idents.first().map(String::as_str);
        let is_test_attr = match first {
            Some("cfg") => idents.iter().any(|s| s == "test" || s == "loom"),
            Some("test") | Some("bench") => idents.len() == 1,
            _ => false,
        };
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // The attribute governs the next item: up to `;` (no body) or the
        // matching close of the first `{`.
        let mut k = attr_end + 1;
        let mut brace = 0i32;
        let mut end_line = toks.get(k).map_or(start_line, |t| t.line);
        while k < toks.len() {
            let t = &toks[k];
            end_line = t.line;
            if brace == 0 && t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            k += 1;
        }
        regions.push((start_line, end_line));
        i = k + 1;
    }
    regions
}

pub(crate) fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// Parses every `lint: allow` annotation out of the comments; malformed
/// ones are reported through `bad` as [`RuleId::BadAllow`] violations.
pub(crate) fn parse_allows(
    comments: &[Comment],
    file: &str,
    lines: &[&str],
    bad: &mut Vec<Violation>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // Doc comments are prose (they may *describe* the annotation
        // syntax); only plain comments carry live annotations.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("lint:") else {
            continue;
        };
        let rest = c.text[pos + 5..].trim_start();
        let file_scope = rest.starts_with("allow-file(");
        if !file_scope && !rest.starts_with("allow(") {
            continue;
        }
        let open = rest.find('(').unwrap_or(0);
        let Some(close) = rest.rfind(')') else {
            push_bad(bad, c, file, lines, "missing closing `)`");
            continue;
        };
        let body = &rest[open + 1..close];
        let Some((rule_part, reason_part)) = body.split_once(',') else {
            push_bad(bad, c, file, lines, "expected `allow(rule, reason=...)`");
            continue;
        };
        let named = rule_part.trim();
        let Some(&rule) = RuleId::ALL
            .iter()
            .find(|r| r.code().eq_ignore_ascii_case(named) || r.name() == named)
        else {
            push_bad(
                bad,
                c,
                file,
                lines,
                "unknown rule (use a D-code or rule name)",
            );
            continue;
        };
        let reason = reason_part.trim_start();
        let value = reason.strip_prefix("reason=").map(str::trim).unwrap_or("");
        if value.is_empty() {
            push_bad(bad, c, file, lines, "empty or missing `reason=`");
            continue;
        }
        let span = if file_scope {
            None
        } else if c.trailing {
            Some((c.line, c.end_line))
        } else {
            // An own-line comment covers the next code line.
            Some((c.line, c.end_line + 1))
        };
        allows.push(Allow { rule, span });
    }
    allows
}

fn push_bad(bad: &mut Vec<Violation>, c: &Comment, file: &str, lines: &[&str], why: &str) {
    bad.push(Violation {
        rule: RuleId::BadAllow,
        file: file.to_string(),
        line: c.line,
        col: 1,
        message: format!("malformed `lint: allow` annotation: {why}"),
        snippet: snippet(lines, c.line),
    });
}

/// Whether an allow in `allows` covers `rule` at `line` (the sync pass
/// shares the per-file annotation machinery).
pub(crate) fn allowed(allows: &[Allow], rule: RuleId, line: u32) -> bool {
    allows.iter().any(|a| {
        a.rule == rule
            && match a.span {
                None => true,
                Some((lo, hi)) => (lo..=hi).contains(&line),
            }
    })
}

pub(crate) fn snippet(lines: &[&str], line: u32) -> String {
    lines
        .get(line as usize - 1)
        .map_or(String::new(), |l| l.trim().to_string())
}

/// The durability modules themselves, by trailing file name. D7's
/// checked-I/O mode fires only inside these; its isolation mode (the
/// `strip_live::<module>` path ban) covers everything else the rule is
/// enabled for.
fn is_durability_file(file: &str) -> bool {
    matches!(
        file.rsplit('/').next(),
        Some("wal.rs" | "snapshot.rs" | "recovery.rs" | "logdir.rs")
    )
}

/// Runs `rules` over `src`, reporting as `file`. The caller decides which
/// rules apply to the file (see [`crate::rules_for`]); `BadAllow` is always
/// active.
#[must_use]
pub fn analyze_source(file: &str, src: &str, rules: &[RuleId]) -> Vec<Violation> {
    let Lexed { tokens, comments } = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let allows = parse_allows(&comments, file, &lines, &mut out);
    let tests = test_regions(&tokens);

    let fire = |rule: RuleId, tok: &Tok, msg: String, out: &mut Vec<Violation>| {
        if allowed(&allows, rule, tok.line) {
            return;
        }
        out.push(Violation {
            rule,
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            message: msg,
            snippet: snippet(&lines, tok.line),
        });
    };

    // Skip-in-tests applies to the determinism rules; D4 sees everything.
    let exempt =
        |rule: RuleId, line: u32| rule != RuleId::UndocumentedUnsafe && in_regions(&tests, line);

    // D1 context: does the file import std::time at all? (A bare
    // `Instant::now()` after `use std::time::Instant` has no `std::time`
    // prefix at the call site.)
    let mut imports_std_time = false;
    for w in tokens.windows(4) {
        if w[0].is_ident("std") && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident("time")
        {
            imports_std_time = true;
        }
    }

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            // D5 indexing heuristic handled on punct below.
            if rules.contains(&RuleId::PanickingIo)
                && t.is_punct('[')
                && !exempt(RuleId::PanickingIo, t.line)
            {
                let prev = i.checked_sub(1).map(|p| &tokens[p]);
                let indexes = prev.is_some_and(|p| {
                    p.kind == TokKind::Ident && !is_keyword(&p.text)
                        || p.is_punct(')')
                        || p.is_punct(']')
                });
                if indexes {
                    fire(
                        RuleId::PanickingIo,
                        t,
                        "indexing can panic; prefer `.get()`/iterators in I/O paths".to_string(),
                        &mut out,
                    );
                }
            }
            continue;
        }
        let prev_is_dot = i > 0 && tokens[i - 1].is_punct('.');
        let followed_by = |a: char, b: &str| {
            tokens.get(i + 1).is_some_and(|x| x.is_punct(a))
                && tokens.get(i + 2).is_some_and(|x| x.is_punct(a))
                && tokens.get(i + 3).is_some_and(|x| x.is_ident(b))
        };
        let preceded_by_path = |seg: &str| {
            i >= 3
                && tokens[i - 1].is_punct(':')
                && tokens[i - 2].is_punct(':')
                && tokens[i - 3].is_ident(seg)
        };

        match t.text.as_str() {
            "Instant" | "SystemTime"
                if rules.contains(&RuleId::WallClock)
                    && !exempt(RuleId::WallClock, t.line)
                    && (preceded_by_path("time")
                        || followed_by(':', "now")
                        || imports_std_time) =>
            {
                fire(
                    RuleId::WallClock,
                    t,
                    format!(
                        "`{}` reads the wall clock; simulations must use SimTime",
                        t.text
                    ),
                    &mut out,
                );
            }
            "HashMap" | "HashSet"
                if rules.contains(&RuleId::NondeterministicOrder)
                    && !exempt(RuleId::NondeterministicOrder, t.line) =>
            {
                fire(
                    RuleId::NondeterministicOrder,
                    t,
                    format!(
                        "`{}` iteration order is nondeterministic in a sim/report path",
                        t.text
                    ),
                    &mut out,
                );
            }
            "thread_rng" | "RandomState" | "from_entropy" | "OsRng"
                if rules.contains(&RuleId::AmbientEntropy)
                    && !exempt(RuleId::AmbientEntropy, t.line) =>
            {
                fire(
                    RuleId::AmbientEntropy,
                    t,
                    format!(
                        "`{}` draws ambient entropy; derive from the run seed",
                        t.text
                    ),
                    &mut out,
                );
            }
            "unsafe"
                if rules.contains(&RuleId::UndocumentedUnsafe)
                    && !has_safety_comment(&comments, t.line) =>
            {
                fire(
                    RuleId::UndocumentedUnsafe,
                    t,
                    "`unsafe` needs a `// SAFETY:` comment (or `# Safety` doc) within the \
                     6 lines above"
                        .to_string(),
                    &mut out,
                );
            }
            // The three no-panic rules, first claimant wins: D5 in
            // checkpoint/trace I/O; D7's checked-I/O mode in the durability
            // modules, which run the crash path unattended (no indexing
            // heuristic there — the fixed-offset codecs slice by constant
            // bounds on length-checked buffers); D8 in the rest of the live
            // runtime, where a panic takes the executor down, so every
            // surviving site names its invariant in a per-site allow.
            "unwrap" | "expect" | "panic" if !in_regions(&tests, t.line) => {
                let (what, called) = if t.text == "panic" {
                    let bang = tokens.get(i + 1).is_some_and(|x| x.is_punct('!'));
                    ("panic!".to_string(), bang)
                } else {
                    (format!(".{}()", t.text), prev_is_dot)
                };
                let claim = [
                    (
                        RuleId::PanickingIo,
                        "checkpoint/trace I/O stays Result-based",
                    ),
                    (
                        RuleId::DurabilityBoundary,
                        "WAL/snapshot/recovery I/O stays Result-based",
                    ),
                    (
                        RuleId::LivePanic,
                        "use a checked error, or pin the invariant with an allow",
                    ),
                ]
                .into_iter()
                .find(|(rule, _)| {
                    rules.contains(rule)
                        && (*rule != RuleId::DurabilityBoundary || is_durability_file(file))
                });
                if let (true, Some((rule, why))) = (called, claim) {
                    fire(rule, t, format!("`{what}` can panic; {why}"), &mut out);
                }
            }
            // D7 isolation mode: a sim-path crate naming a durability
            // module would grow the deterministic simulator a filesystem
            // dependency. Matching the full `strip_live::<module>` path
            // keeps idents like `Ingest::Snapshot` from firing.
            "wal" | "snapshot" | "recovery" | "logdir"
                if rules.contains(&RuleId::DurabilityBoundary)
                    && preceded_by_path("strip_live")
                    && !exempt(RuleId::DurabilityBoundary, t.line) =>
            {
                fire(
                    RuleId::DurabilityBoundary,
                    t,
                    format!(
                        "durability module `strip_live::{}` named in a sim-path crate",
                        t.text
                    ),
                    &mut out,
                );
            }
            _ => {}
        }
    }
    out.sort_by_key(|a| (a.line, a.col, a.rule));
    out
}

/// Keywords that can precede `[` without it being an indexing expression
/// (slice patterns, array types after `mut`, etc.).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut"
            | "in"
            | "return"
            | "break"
            | "as"
            | "const"
            | "static"
            | "let"
            | "ref"
            | "move"
            | "else"
            | "match"
            | "if"
            | "dyn"
            | "impl"
            | "where"
            | "box"
            | "await"
            | "yield"
    )
}

/// True when a `SAFETY:` marker (or a `# Safety` doc section) appears in a
/// comment ending within the six lines above `line` (or trailing on it).
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    comments.iter().any(|c| {
        c.end_line <= line
            && line.saturating_sub(c.end_line) <= 6
            && (c.text.contains("SAFETY:") || c.text.contains("# Safety"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        analyze_source("test.rs", src, &RuleId::ALL)
    }

    #[test]
    fn d2_fires_and_allow_silences() {
        let v = run("use std::collections::HashMap;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::NondeterministicOrder);
        let v = run(
            "// lint: allow(nondeterministic-order, reason=keyed lookups only)\n\
             use std::collections::HashMap;\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // Trailing form.
        let v = run("use std::collections::HashMap; // lint: allow(D2, reason=keyed)\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let v = run("// lint: allow(nondeterministic-order)\nuse std::collections::HashMap;\n");
        assert!(v.iter().any(|x| x.rule == RuleId::BadAllow));
        assert!(v.iter().any(|x| x.rule == RuleId::NondeterministicOrder));
    }

    #[test]
    fn allow_file_covers_everything() {
        let v = run("// lint: allow-file(D2, reason=reference oracle)\n\
             use std::collections::HashMap;\nfn f() { let _ = HashMap::<u8, u8>::new(); }\n");
        assert!(v.is_empty(), "{v:?}");
        // Doc comments are prose, never live annotations.
        let v = run("//! write `// lint: allow(D2, reason=...)` to silence\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_is_exempt_for_determinism_rules() {
        let src = "\
fn main() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashSet;\n\
    #[test]\n\
    fn t() { let _ = HashSet::<u8>::new(); }\n\
}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unsafe_needs_safety_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { core::hint::unreachable_unchecked() } }\n}\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::UndocumentedUnsafe);
    }

    #[test]
    fn safety_comment_and_doc_section_satisfy_d4() {
        let ok = "// SAFETY: ptr is valid\nunsafe { do_it() }\n";
        assert!(run(ok).is_empty());
        let doc = "/// # Safety\n/// caller checks bounds\nunsafe fn f() {}\n";
        assert!(run(doc).is_empty());
    }

    #[test]
    fn d1_matches_paths_and_nows() {
        let v = run("use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == RuleId::WallClock));
        // An unrelated ident containing the word does not fire.
        assert!(run("enum Step { InstantProgress }\n").is_empty());
    }

    #[test]
    fn d5_catches_unwrap_expect_panic_indexing() {
        let only = [RuleId::PanickingIo];
        let v = analyze_source(
            "test.rs",
            "fn f(xs: &[u8]) { xs.first().unwrap(); }\n",
            &only,
        );
        assert_eq!(v.len(), 1);
        let v = analyze_source("test.rs", "fn f() { panic!(\"boom\"); }\n", &only);
        assert_eq!(v.len(), 1);
        let v = analyze_source(
            "test.rs",
            "fn f(xs: &[u8], i: usize) -> u8 { xs[i] }\n",
            &only,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // Array types, attributes and vec! are not indexing.
        let v = analyze_source(
            "test.rs",
            "#[derive(Debug)]\nstruct S { a: [u8; 4] }\n",
            &only,
        );
        assert!(v.is_empty());
        let v = analyze_source("test.rs", "fn f() { let _ = vec![1, 2]; }\n", &only);
        assert!(v.is_empty());
    }

    #[test]
    fn d8_requires_pinned_allows_outside_tests() {
        let only = [RuleId::LivePanic];
        let v = analyze_source(
            "crates/live/src/executor.rs",
            "fn f(r: Option<u8>) -> u8 { r.expect(\"x\") }\n",
            &only,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::LivePanic);
        let v = analyze_source(
            "crates/live/src/executor.rs",
            "fn f() { panic!(\"boom\"); }\n",
            &only,
        );
        assert_eq!(v.len(), 1);
        // A per-site pin naming the invariant silences it.
        let v = analyze_source(
            "crates/live/src/executor.rs",
            "fn f(r: Option<u8>) -> u8 {\n    // lint: allow(live-panic, reason=peeked above)\n    r.expect(\"x\")\n}\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
        // Tests are exempt; checked combinators never fire.
        let v = analyze_source(
            "crates/live/src/executor.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
        let v = analyze_source(
            "crates/live/src/executor.rs",
            "fn f(r: Option<u8>) -> u8 { r.unwrap_or(0) }\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn strings_never_fire() {
        assert!(run("fn f() -> &'static str { \"HashMap unsafe thread_rng\" }\n").is_empty());
    }

    #[test]
    fn d7_checked_io_mode_catches_unwrap_expect_panic_but_not_indexing() {
        let only = [RuleId::DurabilityBoundary];
        let v = analyze_source(
            "wal.rs",
            "fn f(r: Option<u8>) -> u8 { r.unwrap() }\n",
            &only,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::DurabilityBoundary);
        let v = analyze_source("wal.rs", "fn f() { panic!(\"torn\"); }\n", &only);
        assert_eq!(v.len(), 1);
        // Fixed-offset codec slicing is deliberate: no indexing heuristic.
        let v = analyze_source("wal.rs", "fn f(b: &mut [u8]) { b[0] = 1; }\n", &only);
        assert!(v.is_empty(), "{v:?}");
        // `unwrap_or` is checked, not panicking.
        let v = analyze_source(
            "wal.rs",
            "fn f(r: Option<u8>) -> u8 { r.unwrap_or(0) }\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
        // Outside the durability modules only isolation mode applies:
        // ordinary sim-crate panics belong to D5's jurisdiction, not D7.
        let v = analyze_source(
            "sim.rs",
            "fn f(r: Option<u8>) -> u8 { r.expect(\"x\") }\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
        let v = analyze_source("sim.rs", "fn f() { panic!(\"x\"); }\n", &only);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn d7_isolation_mode_catches_durability_paths_only() {
        let only = [RuleId::DurabilityBoundary];
        let v = analyze_source("sim.rs", "use strip_live::wal::WalHandle;\n", &only);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::DurabilityBoundary);
        let v = analyze_source(
            "sim.rs",
            "fn f() { strip_live::recovery::noop(); }\n",
            &only,
        );
        assert_eq!(v.len(), 1);
        // Bare idents and enum variants that merely share the words do
        // not fire: only the full `strip_live::<module>` path counts.
        let v = analyze_source(
            "sim.rs",
            "fn f() { let snapshot = 1; let _ = snapshot; }\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
        let v = analyze_source(
            "sim.rs",
            "fn f(m: Ingest) { matches!(m, Ingest::Snapshot); }\n",
            &only,
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
