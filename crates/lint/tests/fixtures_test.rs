//! Self-tests over the fixtures: each must trigger its rule or structure
//! row exactly once (and nothing else) when scanned under the path it
//! stands in for, and `clean.rs` must pass everything.

use std::path::PathBuf;

use strip_lint::{analyze_source, check_structure, RuleId, Violation};

/// Every per-file rule and every structure row over the fixture `name`,
/// scanned as the workspace file `scanned_as`.
fn scan(name: &str, scanned_as: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let mut violations = analyze_source(scanned_as, &src, &RuleId::ALL);
    violations.extend(check_structure(&[(scanned_as.to_string(), src)]));
    violations
}

/// (fixture, the path it is scanned as, the rule that fires).
const CASES: [(&str, &str, RuleId); 20] = [
    ("d1.rs", "d1.rs", RuleId::WallClock),
    ("d2.rs", "d2.rs", RuleId::NondeterministicOrder),
    ("d3.rs", "d3.rs", RuleId::AmbientEntropy),
    ("d4.rs", "d4.rs", RuleId::UndocumentedUnsafe),
    ("d5.rs", "d5.rs", RuleId::PanickingIo),
    // d7.rs exercises D7's isolation mode (a sim-path crate naming a
    // durability module); the checked-I/O mode is covered by unit tests,
    // since under the full rule set an `.unwrap()` is claimed by D5 first.
    ("d7.rs", "d7.rs", RuleId::DurabilityBoundary),
    // One fixture per row of `structure::ROWS`, in table order. The two
    // `OnceIn` rows whose fixture stands in for the row's own file carry
    // the first definition too; the others are scanned as a neighbour.
    (
        "s1_scheduler_fn.rs",
        "crates/live/src/executor.rs",
        RuleId::SchedulerCore,
    ),
    (
        "s2_channel_update.rs",
        "crates/live/src/server.rs",
        RuleId::UpdatePath,
    ),
    (
        "s2_second_replay.rs",
        "crates/live/src/loadgen.rs",
        RuleId::UpdatePath,
    ),
    (
        "s2_batch_flag.rs",
        "crates/live/src/bin/strip_loadgen.rs",
        RuleId::UpdatePath,
    ),
    (
        "s3_unsupported.rs",
        "crates/live/src/executor.rs",
        RuleId::ConfigContract,
    ),
    (
        "s3_disturbance.rs",
        "crates/workload/src/disturbance.rs",
        RuleId::ConfigContract,
    ),
    (
        "s3_charge_preemption.rs",
        "crates/core/src/controller.rs",
        RuleId::ConfigContract,
    ),
    (
        "s3_loadgen_allow.rs",
        "crates/live/src/loadgen.rs",
        RuleId::ConfigContract,
    ),
    (
        "s3_stream_by_hand.rs",
        "crates/experiments/src/runner.rs",
        RuleId::ConfigContract,
    ),
    (
        "s4_second_assemble.rs",
        "crates/experiments/src/sweep.rs",
        RuleId::ExperimentTable,
    ),
    (
        "s4_run_sweep.rs",
        "crates/experiments/src/sweep.rs",
        RuleId::ExperimentTable,
    ),
    (
        "s4_duplicate_key.rs",
        "crates/experiments/src/scenarios.rs",
        RuleId::ExperimentTable,
    ),
    (
        "s4_figure_code.rs",
        "crates/experiments/src/tracing.rs",
        RuleId::ExperimentTable,
    ),
    (
        "s5_fs_outside_logdir.rs",
        "crates/live/src/wal.rs",
        RuleId::DurabilityDirectory,
    ),
];

#[test]
fn each_fixture_triggers_its_rule_exactly_once() {
    for (name, scanned_as, rule) in CASES {
        let violations = scan(name, scanned_as);
        assert_eq!(
            violations.len(),
            1,
            "{name}: expected exactly one violation, got {violations:?}"
        );
        assert_eq!(violations[0].rule, rule, "{name}: wrong rule fired");
        assert!(violations[0].line > 0 && violations[0].col > 0);
    }
}

#[test]
fn clean_fixture_passes_every_rule() {
    let violations = scan("clean.rs", "clean.rs");
    assert!(violations.is_empty(), "{violations:?}");
}
