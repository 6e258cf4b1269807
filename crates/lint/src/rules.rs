//! The rule identifiers, the `lint: allow` annotation parser and the token
//! helpers that the sync rules D9–D11 ([`crate::sync`]) and the structure
//! rows S1–S5 ([`crate::structure`]) share.
//!
//! Every check walks the token stream produced by [`crate::lex`]; comments
//! and literals are already out of band, so a rule keyword inside a string
//! or a doc can never fire. Regions under `#[cfg(test)]` (and
//! `#[cfg(loom)]` / `#[test]` items) are found by [`test_regions`].
//!
//! The per-file rules D1–D5, D7 and D8 are compiler and clippy lints
//! (DESIGN.md §11), so a D9–D11 violation is the only one silenced in place,
//! with
//!
//! ```text
//! // lint: allow(atomic-protocol, reason=bench scaffolding; never shared)
//! ```
//!
//! on the offending line (trailing) or the line above, or for a whole file
//! with `// lint: allow-file(rule, reason=...)`. The `reason=` clause is
//! mandatory; an allow without one, or naming no D9–D11 rule, is itself
//! reported (`bad-allow`).

use crate::lex::{Comment, Tok, TokKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
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
    pub const ALL: [RuleId; 3] = [
        RuleId::AtomicProtocol,
        RuleId::LockOrder,
        RuleId::SendSyncAudit,
    ];

    /// Short code ("D9") and annotation name ("atomic-protocol").
    fn code_and_name(self) -> (&'static str, &'static str) {
        match self {
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

    /// Short code ("D9").
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.code_and_name().0
    }

    /// Annotation name ("atomic-protocol").
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
/// items: the sync rules and the structure rows skip them.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn allows(src: &str) -> (Vec<Allow>, Vec<Violation>) {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let mut bad = Vec::new();
        let allows = parse_allows(&lexed.comments, "test.rs", &lines, &mut bad);
        (allows, bad)
    }

    #[test]
    fn an_allow_covers_its_own_or_the_next_line() {
        let (a, bad) = allows("// lint: allow(atomic-protocol, reason=single owner)\nx.load();\n");
        assert!(bad.is_empty(), "{bad:?}");
        assert!(allowed(&a, RuleId::AtomicProtocol, 2));
        assert!(!allowed(&a, RuleId::AtomicProtocol, 3));
        assert!(!allowed(&a, RuleId::LockOrder, 2));
        let (a, _) = allows("\nx.lock(); // lint: allow(D10, reason=leaf lock)\n");
        assert!(allowed(&a, RuleId::LockOrder, 2));
        let (a, _) = allows("// lint: allow-file(D11, reason=reference oracle)\n");
        assert!(allowed(&a, RuleId::SendSyncAudit, 400));
    }

    #[test]
    fn malformed_or_retired_allows_are_reported() {
        for src in [
            "// lint: allow(atomic-protocol)\n",
            "// lint: allow(atomic-protocol, reason=)\n",
            "// lint: allow(wall-clock, reason=a compiler lint now)\n",
            "// lint: allow(D2, reason=a compiler lint now)\n",
        ] {
            let (a, bad) = allows(src);
            assert!(a.is_empty(), "{src}");
            assert_eq!(bad.len(), 1, "{src}");
            assert_eq!(bad[0].rule, RuleId::BadAllow);
        }
        // Doc comments are prose, never live annotations.
        let (a, bad) = allows("//! write `// lint: allow(D9, reason=...)` to silence\n");
        assert!(a.is_empty() && bad.is_empty());
    }

    #[test]
    fn test_regions_span_the_attributed_item() {
        let src = "fn main() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let regions = test_regions(&lex(src).tokens);
        assert_eq!(regions, [(2, 5)]);
        assert!(in_regions(&regions, 4) && !in_regions(&regions, 6));
    }
}
