//! Golden parity pins for the scheduling state machine.
//!
//! The pins were generated (PR 5) from the controller as it was *before*
//! its dispatch decisions were extracted into the pure `strip_core::policy`
//! module, on the fig03 short-sweep grid — all four algorithms at
//! λt ∈ {2.5, 10, 20}, 5 simulated seconds, seed 0x5712_1995 — and must be
//! reproduced bit-for-bit, down to the processed-event count.
//!
//! Since the state machine itself moved into `strip_core::scheduler`, which
//! the simulator's `Controller` and the `strip-live` executor both drive,
//! sim/live decision parity holds by construction; what these pins guard
//! now is the drivers — that the simulator driver still feeds the core the
//! same inputs in the same order (the calendar breaks ties by scheduling
//! order) and that a change to the core is an intended one.

use strip::core::config::{DagSpec, Policy, SimConfig};
use strip::run_paper_sim;

/// (policy, λt, arrived, committed, committed_fresh, installed,
/// value_committed, fold_low, fold_high, events_processed).
type ParityRow = (&'static str, f64, u64, u64, u64, u64, f64, f64, f64, u64);

/// Generated by running the pre-refactor build of this workspace; see the
/// module docs. Regenerate only for an *intentional* behavioural change.
const PRE_REFACTOR: [ParityRow; 12] = [
    (
        "UF", 2.5, 12, 11, 11, 1990, 16.721639, 0.059291, 0.064311, 5038,
    ),
    (
        "UF", 10.0, 53, 32, 31, 1990, 61.541493, 0.059291, 0.064311, 6246,
    ),
    (
        "UF", 20.0, 94, 33, 31, 1990, 66.120080, 0.059291, 0.064311, 6353,
    ),
    (
        "TF", 2.5, 12, 11, 11, 1997, 16.721639, 0.060001, 0.065146, 4509,
    ),
    (
        "TF", 10.0, 53, 40, 30, 416, 70.056256, 0.157495, 0.163411, 3060,
    ),
    (
        "TF", 20.0, 94, 41, 28, 4, 79.519674, 0.195175, 0.200624, 2735,
    ),
    (
        "SU", 2.5, 12, 11, 11, 1993, 16.721639, 0.060073, 0.064310, 5036,
    ),
    (
        "SU", 10.0, 53, 36, 32, 1211, 66.207211, 0.168978, 0.064310, 5600,
    ),
    (
        "SU", 20.0, 94, 37, 31, 1020, 74.302624, 0.195175, 0.064309, 5555,
    ),
    (
        "OD", 2.5, 12, 11, 11, 1997, 16.721639, 0.060001, 0.065146, 4509,
    ),
    (
        "OD", 10.0, 53, 40, 38, 417, 70.056256, 0.155653, 0.161023, 3064,
    ),
    (
        "OD", 20.0, 94, 41, 38, 19, 79.714773, 0.191903, 0.194896, 2750,
    ),
];

fn policy_by_label(label: &str) -> Policy {
    Policy::PAPER_SET
        .into_iter()
        .find(|p| p.label() == label)
        .expect("known policy label")
}

#[test]
fn extracted_policy_module_is_bit_identical_on_fig03_short_sweep() {
    for row in PRE_REFACTOR {
        let (label, lambda_t, arrived, committed, fresh, installed, value, fl, fh, events) = row;
        let cfg = SimConfig::builder()
            .policy(policy_by_label(label))
            .lambda_t(lambda_t)
            .duration(5.0)
            .seed(0x5712_1995)
            .build()
            .unwrap();
        let r = run_paper_sim(&cfg);
        let tag = format!("{label} λt={lambda_t}");
        assert_eq!(r.txns.arrived, arrived, "{tag}: arrived");
        assert_eq!(r.txns.committed, committed, "{tag}: committed");
        assert_eq!(r.txns.committed_fresh, fresh, "{tag}: fresh");
        assert_eq!(r.updates.installed_total(), installed, "{tag}: installed");
        assert_eq!(r.cpu.events_processed, events, "{tag}: events");
        assert!(
            (r.txns.value_committed - value).abs() < 1e-6,
            "{tag}: value {} vs {}",
            r.txns.value_committed,
            value
        );
        assert!(
            (r.fold_low - fl).abs() < 1e-6,
            "{tag}: fold_low {} vs {}",
            r.fold_low,
            fl
        );
        assert!(
            (r.fold_high - fh).abs() < 1e-6,
            "{tag}: fold_high {} vs {}",
            r.fold_high,
            fh
        );
    }
}

/// Derived-view DAG sweep: a depth×fanout grid under all four algorithms.
/// For every point the delta accounting must
/// conserve (`enqueued = applied + coalesced + shed + pending`), reruns
/// must be bit-identical, derived reads must actually occur, and only OD
/// may pay on-demand refreshes. This is the scenario-family analogue of
/// the fig03 pins: it does not pin absolute values (the DAG is an
/// extension, not paper-calibrated), it pins the invariants every future
/// refactor must preserve.
#[test]
fn dag_scenario_sweep_conserves_and_is_deterministic() {
    for &depth in &[1u32, 3] {
        for &fanout in &[2u32, 4] {
            for label in ["UF", "TF", "SU", "OD"] {
                let build = || {
                    SimConfig::builder()
                        .policy(policy_by_label(label))
                        .lambda_t(10.0)
                        .duration(5.0)
                        .seed(0x5712_1995)
                        .dag(Some(DagSpec {
                            depth,
                            width: 12,
                            fanout,
                            ..DagSpec::default()
                        }))
                        .build()
                        .unwrap()
                };
                let r = run_paper_sim(&build());
                let tag = format!("{label} depth={depth} fanout={fanout}");
                assert_eq!(
                    r.dag.enqueued,
                    r.dag.terminal_total(),
                    "{tag}: delta conservation"
                );
                assert!(r.dag.enqueued > 0, "{tag}: installs must enqueue deltas");
                assert!(r.dag.derived_reads > 0, "{tag}: txns must read derived");
                if label == "OD" {
                    assert!(
                        r.dag.stale_derived_reads == 0 || r.dag.od_refreshes > 0,
                        "{tag}: OD must refresh stale derived reads"
                    );
                } else {
                    assert_eq!(r.dag.od_refreshes, 0, "{tag}: only OD refreshes");
                }
                // Base-stream accounting still conserves with the DAG on.
                assert_eq!(
                    r.updates.terminal_total(),
                    r.updates.arrived,
                    "{tag}: update conservation"
                );
                let again = run_paper_sim(&build());
                assert_eq!(r.dag, again.dag, "{tag}: determinism");
                assert_eq!(
                    r.cpu.events_processed, again.cpu.events_processed,
                    "{tag}: event-count determinism"
                );
            }
        }
    }
}
