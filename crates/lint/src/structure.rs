//! The structure gates S1–S5: the "one of everything" invariants
//! (DESIGN.md §11), each a row of [`ROWS`] saying where a piece of source
//! text may occur. Rows are matched on the lexer's tokens outside
//! `#[cfg(test)]` regions, so neither a comment nor a test module can trip
//! or hide one, and no `lint: allow` silences them.

use crate::lex::{lex, Comment, Lexed, Tok};
use crate::rules::{in_regions, snippet, test_regions, RuleId, Violation};

/// Where a row's needles may occur inside its scope.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Nowhere.
    Never,
    /// In this file only.
    OnlyIn(&'static str),
    /// Exactly once, and that in this file.
    OnceIn(&'static str),
}

/// One structure check.
#[derive(Debug)]
pub struct Row {
    /// The gate (S1–S5) the row reports as.
    pub rule: RuleId,
    /// Written as source and lexed like it: a needle matches a contiguous
    /// run of tokens, a `*` after an identifier makes that identifier a
    /// prefix, and a needle that is a comment matches any comment
    /// containing its text.
    pub needles: &'static [&'static str],
    /// Workspace-relative path prefixes the row looks under.
    pub scope: &'static [&'static str],
    pub expect: Expect,
    /// The invariant, as the diagnostic states it.
    pub why: &'static str,
}

const SCHEDULER: &str = "crates/core/src/scheduler.rs";
const GENERATORS: &str = "crates/workload/src/generators.rs";
const FIGURES: &str = "crates/experiments/src/figures.rs";
const SWEEP_CODE: &[&str] = &["crates/experiments/src/", "crates/core/src/"];

/// Every structure check, in gate order.
pub const ROWS: [Row; 14] = [
    Row {
        rule: RuleId::SchedulerCore,
        needles: &[
            "fn try_update_step",
            "fn apply_update",
            "fn take_preempt_cost",
            "fn work_state",
            "fn try_dag_step",
            "fn on_txn_slice_done",
            "fn handle_view_read",
            "fn begin_scan",
            "fn handle_post_scan",
            "fn finalize_read",
            "fn continue_txn",
            "fn propagate_base_install",
            "fn dag_apply",
            "fn dag_refresh_work",
            "fn perform_dag_refresh",
            "fn handle_derived_read",
            "fn finalize_derived_read",
        ],
        scope: &["crates/"],
        expect: Expect::OnceIn(SCHEDULER),
        why: "the scheduling state machine lives once and both drivers call it",
    },
    Row {
        rule: RuleId::UpdatePath,
        needles: &["Ingest::Update"],
        scope: &["crates/live/src/server.rs"],
        expect: Expect::Never,
        why: "every wire update rides its connection's SPSC ring; the channel carries control",
    },
    Row {
        rule: RuleId::UpdatePath,
        needles: &["fn replay*"],
        scope: &["crates/live/src/"],
        expect: Expect::OnceIn("crates/live/src/loadgen.rs"),
        why: "strip-loadgen has one replay",
    },
    Row {
        rule: RuleId::UpdatePath,
        needles: &["\"--batch\""],
        scope: &["crates/live/src/"],
        expect: Expect::Never,
        why: "no option selects a frame shape",
    },
    Row {
        rule: RuleId::ConfigContract,
        needles: &["Unsupported"],
        scope: &["crates/live/src/"],
        expect: Expect::Never,
        why: "the live crate refuses no SimConfig the core validates",
    },
    Row {
        rule: RuleId::ConfigContract,
        needles: &["cfg.disturbance"],
        scope: &["crates/workload/src/"],
        expect: Expect::OnlyIn(GENERATORS),
        why: "UpdateStream::from_config alone turns a config into a stream",
    },
    Row {
        rule: RuleId::ConfigContract,
        needles: &[
            "pub fn charge_preemption",
            ") fn charge_preemption",
            "pub fn requeue_bound",
            ") fn requeue_bound",
        ],
        scope: &["crates/core/src/"],
        expect: Expect::Never,
        why: "drivers hand the Preempt verdict back through Scheduler::preempt",
    },
    Row {
        rule: RuleId::ConfigContract,
        needles: &["// allow(live-panic"],
        scope: &["crates/live/src/loadgen.rs"],
        expect: Expect::Never,
        why: "the loadgen's merge needs no panic allowance",
    },
    Row {
        rule: RuleId::ConfigContract,
        needles: &[
            "PoissonUpdates::from_config",
            "PeriodicUpdates::from_config",
        ],
        scope: &[""],
        expect: Expect::OnlyIn(GENERATORS),
        why: "build update streams with UpdateStream::from_config (run_paper_sim_checked)",
    },
    Row {
        rule: RuleId::ExperimentTable,
        needles: &["fn assemble*"],
        scope: SWEEP_CODE,
        expect: Expect::OnceIn(FIGURES),
        why: "one assembler turns a sweep into a figure",
    },
    Row {
        rule: RuleId::ExperimentTable,
        needles: &["fn run_sweep*", "fn average"],
        scope: SWEEP_CODE,
        expect: Expect::Never,
        why: "SweepRunner::run_replicated is the one executor; replicas are never merged \
              into a report",
    },
    Row {
        rule: RuleId::ExperimentTable,
        needles: &[
            "key: \"baseline_lt\"",
            "key: \"abort_lt\"",
            "key: \"lifo_lt\"",
            "key: \"uu_lt\"",
            "key: \"xupdate\"",
            "key: \"xqueue\"",
            "key: \"xscan\"",
            "key: \"lambda_u\"",
            "key: \"alpha\"",
            "key: \"alpha_scaled\"",
            "key: \"pview\"",
            "key: \"dag_depth\"",
            "key: \"resilience_outage\"",
            "key: \"resilience_shed\"",
        ],
        scope: &["crates/experiments/src/"],
        expect: Expect::OnceIn(FIGURES),
        why: "each sweep is declared once",
    },
    Row {
        rule: RuleId::ExperimentTable,
        needles: &["FigureId::Fig*"],
        scope: &["crates/experiments/src/tracing.rs"],
        expect: Expect::Never,
        why: "repro trace reads the SWEEPS/PANELS tables; no per-figure code",
    },
    Row {
        rule: RuleId::DurabilityDirectory,
        needles: &[
            "std::fs",
            "File::",
            "OpenOptions",
            "rename(",
            "remove_file",
            "set_len",
            "sync_all",
            "sync_data",
        ],
        scope: &["crates/live/src/"],
        expect: Expect::OnlyIn("crates/live/src/logdir.rs"),
        why: "one module names, opens, truncates, renames, unlinks and fsyncs files",
    },
];

/// Position (line, col) of every occurrence of `needle`.
fn hits(needle: &str, tokens: &[Tok], comments: &[Comment]) -> Vec<(u32, u32)> {
    let pattern = lex(needle);
    if let Some(c) = pattern.comments.first() {
        let text = c.text.trim_start_matches('/').trim();
        return comments
            .iter()
            .filter(|c| c.text.contains(text))
            .map(|c| (c.line, 1))
            .collect();
    }
    let mut elems: Vec<(&Tok, bool)> = Vec::new();
    for t in &pattern.tokens {
        match elems.last_mut() {
            Some(last) if t.is_punct('*') => last.1 = true,
            _ => elems.push((t, false)),
        }
    }
    tokens
        .windows(elems.len())
        .filter(|w| {
            w.iter().zip(&elems).all(|(t, (p, prefix))| {
                t.kind == p.kind
                    && if *prefix {
                        t.text.starts_with(&p.text)
                    } else {
                        t.text == p.text
                    }
            })
        })
        .map(|w| (w[0].line, w[0].col))
        .collect()
}

/// Walks [`ROWS`] over `sources` (workspace-relative path, text): one
/// violation per occurrence that breaks its row's expectation, and one
/// per `OnceIn` needle that its file, when among `sources`, no longer
/// holds — so a rename updates the row instead of emptying it.
#[must_use]
pub fn check_structure(sources: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut found: Vec<Vec<bool>> = ROWS.iter().map(|r| vec![false; r.needles.len()]).collect();
    for (rel, src) in sources {
        let Lexed { tokens, comments } = lex(src);
        let tests = test_regions(&tokens);
        let lines: Vec<&str> = src.lines().collect();
        for (row, found) in ROWS.iter().zip(&mut found) {
            if !row.scope.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            for (needle, found) in row.needles.iter().zip(found) {
                for (line, col) in hits(needle, &tokens, &comments) {
                    if in_regions(&tests, line) {
                        continue;
                    }
                    let (breach, verdict) = match row.expect {
                        Expect::Never => (true, "must not appear here".to_string()),
                        Expect::OnlyIn(f) => (rel != f, format!("belongs in {f} only")),
                        Expect::OnceIn(f) => (
                            rel != f || std::mem::replace(found, true),
                            format!("is defined once, in {f}"),
                        ),
                    };
                    if breach {
                        out.push(Violation {
                            rule: row.rule,
                            file: rel.clone(),
                            line,
                            col,
                            message: format!("`{needle}` {verdict}: {}", row.why),
                            snippet: snippet(&lines, line),
                        });
                    }
                }
            }
        }
    }
    for (row, found) in ROWS.iter().zip(&found) {
        let Expect::OnceIn(f) = row.expect else {
            continue;
        };
        if !sources.iter().any(|(rel, _)| rel == f) {
            continue;
        }
        for (needle, _) in row.needles.iter().zip(found).filter(|(_, found)| !**found) {
            out.push(Violation {
                rule: row.rule,
                file: f.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "`{needle}` is gone from this file; bring row {} of \
                     crates/lint/src/structure.rs up to date: {}",
                    row.rule.code(),
                    row.why
                ),
                snippet: String::new(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        check_structure(&sources)
    }

    #[test]
    fn needles_match_tokens_not_text() {
        let l =
            lex("fn replay() {} fn replay_batched() {} // fn replay_x\nlet s = \"fn replay_y\";");
        assert_eq!(hits("fn replay*", &l.tokens, &l.comments).len(), 2);
        let l = lex("match a { \"--batch\" => 1, \"usage: --batch N\" => 2 }");
        assert_eq!(hits("\"--batch\"", &l.tokens, &l.comments).len(), 1);
        let l = lex("LogFile::open(p); File::open(p); file.rename(a); fs::rename(a, b);");
        assert_eq!(hits("File::", &l.tokens, &l.comments), [(1, 19)]);
        assert_eq!(hits("rename(", &l.tokens, &l.comments).len(), 2);
        let l = lex("// lint: allow(live-panic, reason=x)\nfn f() {}");
        assert_eq!(
            hits("// allow(live-panic", &l.tokens, &l.comments),
            [(1, 1)]
        );
    }

    #[test]
    fn test_modules_are_out_of_reach() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::fs::read(\"x\"); }\n}\n";
        assert!(check(&[("crates/live/src/wal.rs", src)]).is_empty());
    }

    #[test]
    fn once_in_flags_the_second_definition_and_the_missing_one() {
        // A figures.rs holding every needle of its `OnceIn` rows once.
        let complete: String = ROWS
            .iter()
            .filter(|r| matches!(r.expect, Expect::OnceIn(f) if f == FIGURES))
            .flat_map(|r| r.needles)
            .map(|n| format!("{};\n", n.trim_end_matches('*')))
            .collect();
        assert!(check(&[(FIGURES, &complete)]).is_empty());

        let v = check(&[(FIGURES, &format!("fn assemble_ratio() {{}}\n{complete}"))]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::ExperimentTable);
        assert!(v[0].snippet.starts_with("fn assemble;"), "{}", v[0].snippet);

        let v = check(&[(FIGURES, &complete.replace("fn assemble;\n", ""))]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("`fn assemble*` is gone"),
            "{}",
            v[0].message
        );
    }
}
