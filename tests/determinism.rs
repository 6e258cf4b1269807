//! Cross-thread-count / cross-replica determinism harness.
//!
//! The static-analysis pass (`strip-lint` rules D1–D3, which
//! `tests/structure.rs` runs) guards the
//! *sources* of nondeterminism; this harness checks the *outcome*: the
//! same configuration must produce **byte-identical** serialized reports
//! regardless of how many worker threads execute the sweep, and replicated
//! sweeps must be byte-stable too — the thread count may only change
//! wall-clock time, never a single bit of output. Reports are compared in
//! the checkpoint text format (`serialize_report`), the exact
//! representation the resume path trusts. The sweeps go through
//! `SweepRunner::run_replicated`, the executor every `repro` figure uses.

use strip_core::config::{DagSpec, DisturbanceSpec, Policy, SimConfig};
use strip_core::report::RunReport;
use strip_experiments::runner::serialize_report;
use strip_experiments::{RunSettings, SweepRunner};
use strip_obs::TraceConfig;
use strip_workload::{run_paper_sim_checked, run_paper_sim_traced};

/// A small but non-trivial sweep: every paper policy at two loads, plus one
/// derived-view DAG run (under UF, which installs enough in two seconds for
/// deltas to cascade) and one run over a disturbed stream (every fault on).
/// `serialize_report` carries every `dag.*` and `resilience.*` field, so
/// the blob comparison sees their non-determinism too.
fn sweep_configs() -> Vec<SimConfig> {
    let small = || {
        SimConfig::builder()
            .duration(2.0)
            .seed(0x5712_1995)
            .n_low(60)
            .n_high(60)
    };
    let mut configs = vec![
        small()
            .policy(Policy::UpdatesFirst)
            .dag(Some(DagSpec {
                width: 20,
                ..DagSpec::default()
            }))
            .build()
            .expect("valid dag config"),
        small()
            .policy(Policy::OnDemand)
            .disturbance(Some(DisturbanceSpec {
                outage_from: 0.5,
                outage_secs: 0.3,
            }))
            .build()
            .expect("valid disturbed config"),
    ];
    for &policy in &Policy::PAPER_SET {
        for lambda_t in [6.0, 14.0] {
            configs.push(
                SimConfig::builder()
                    .policy(policy)
                    .lambda_t(lambda_t)
                    // Byte-identity does not need the paper's durations or
                    // full database; small runs keep the matrix fast under
                    // debug. (`run_replicated` takes duration/seed from
                    // the configs, not from `RunSettings`.)
                    .duration(2.0)
                    .seed(0x5712_1995)
                    .n_low(60)
                    .n_high(60)
                    .build()
                    .expect("valid sweep config"),
            );
        }
    }
    configs
}

/// The per-config replica sets of the sweep, none of them failed.
fn replica_sets(threads: usize, replicas: usize) -> Vec<Vec<RunReport>> {
    let settings = RunSettings {
        duration: 1.0,
        seed: 0x5712_1995,
        threads,
        replicas,
    };
    let outcome = SweepRunner::new().run_replicated(&settings, "determinism", sweep_configs());
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    outcome.replica_sets
}

/// Serializes a full replicated sweep result to one comparable byte blob.
fn sweep_bytes(threads: usize, replicas: usize) -> String {
    let sets = replica_sets(threads, replicas);
    let mut blob = String::new();
    for (c, set) in sets.iter().enumerate() {
        for (r, report) in set.iter().enumerate() {
            blob.push_str(&format!("== config {c} replica {r} ==\n"));
            blob.push_str(&serialize_report(report));
        }
    }
    blob
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    for replicas in [1usize, 4] {
        let single = sweep_bytes(1, replicas);
        for threads in [2usize, 4] {
            let multi = sweep_bytes(threads, replicas);
            assert_eq!(
                single, multi,
                "replicas={replicas}: {threads}-thread sweep diverged from single-threaded"
            );
        }
    }
}

#[test]
fn replica_zero_matches_the_unreplicated_run() {
    // Replica r runs with seed+r, so replica 0 of a replicated sweep must
    // be bit-identical to the corresponding unreplicated run.
    let base = replica_sets(2, 1);
    let replicated = replica_sets(2, 4);
    assert_eq!(base.len(), replicated.len());
    for (set1, set4) in base.iter().zip(&replicated) {
        assert_eq!(set4.len(), 4);
        assert_eq!(
            serialize_report(&set1[0]),
            serialize_report(&set4[0]),
            "replica 0 must not feel the presence of replicas 1-3"
        );
    }
}

#[test]
fn every_runner_sees_the_stream_the_one_constructor_builds() {
    // Plain and traced runs both get their update stream from
    // `UpdateStream::from_config`, disturbance included.
    for (c, cfg) in sweep_configs().iter().enumerate() {
        let plain = run_paper_sim_checked(cfg).expect("valid config");
        assert_eq!(
            cfg.disturbance.is_some(),
            plain.resilience.outage_held > 0,
            "config {c}: a stream is disturbed exactly when its config says so"
        );
        let (traced, _) = run_paper_sim_traced(cfg, TraceConfig::default()).expect("valid config");
        assert_eq!(
            serialize_report(&plain),
            serialize_report(&traced),
            "config {c}: tracing changed the run"
        );
    }
}
