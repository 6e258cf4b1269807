//! Self-tests over the structure fixtures: each must trigger its row
//! exactly once (and nothing else) when scanned under the path it stands
//! in for, and `clean.rs` must pass everything. The sync fixtures
//! (`d9.rs`–`d11.rs`) are `sync_protocol.rs`'s.

use std::path::PathBuf;

use strip_lint::{check_structure, RuleId, Violation};

/// Every structure row over the fixture `name`, scanned as the workspace
/// file `scanned_as`.
fn scan(name: &str, scanned_as: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    check_structure(&[(scanned_as.to_string(), src)])
}

/// (fixture, the path it is scanned as, the rule that fires).
const CASES: [(&str, &str, RuleId); 21] = [
    // One fixture per row of `structure::ROWS`, in table order. The two
    // `OnceIn` rows whose fixture stands in for the row's own file carry
    // the first definition too; the others are scanned as a neighbour.
    (
        "s1_scheduler_fn.rs",
        "crates/live/src/executor.rs",
        RuleId::SchedulerCore,
    ),
    (
        "s1_second_run_loop.rs",
        "crates/simkit/src/engine.rs",
        RuleId::SchedulerCore,
    ),
    (
        "s1_simulation_trait.rs",
        "crates/simkit/src/engine.rs",
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
        "s2_update_frame.rs",
        "crates/live/src/protocol.rs",
        RuleId::UpdatePath,
    ),
    (
        "s2_os_shed.rs",
        "crates/core/src/config.rs",
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
        "s3_admission.rs",
        "crates/core/src/config.rs",
        RuleId::ConfigContract,
    ),
    (
        "s3_stream_fault.rs",
        "crates/workload/src/disturbance.rs",
        RuleId::ConfigContract,
    ),
    (
        "s3_charge_preemption.rs",
        "crates/core/src/policy.rs",
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
        "s4_bench_experiment.rs",
        "crates/bench/src/ablation.rs",
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
    (
        "s5_root_names_wal.rs",
        "src/lib.rs",
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
    for scanned_as in ["src/lib.rs", "crates/live/src/wal.rs"] {
        let violations = scan("clean.rs", scanned_as);
        assert!(violations.is_empty(), "{scanned_as}: {violations:?}");
    }
}
