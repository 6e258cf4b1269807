//! Cross-thread-count / cross-replica determinism harness.
//!
//! The static-analysis pass (`strip-lint`, rules D1–D3) guards the
//! *sources* of nondeterminism; this harness checks the *outcome*: the
//! same configuration must produce **byte-identical** serialized reports
//! regardless of how many worker threads execute the sweep, and replicated
//! sweeps must be byte-stable too — the thread count may only change
//! wall-clock time, never a single bit of output. Reports are compared in
//! the checkpoint text format (`serialize_report`), the exact
//! representation the resume path trusts.

use strip_core::config::{DagSpec, Policy, SimConfig};
use strip_experiments::runner::serialize_report;
use strip_experiments::sweep::{run_sweep_replicated, RunSettings};

/// A small but non-trivial sweep: every paper policy at two loads, plus one
/// derived-view DAG run (under UF, which installs enough in two seconds for
/// deltas to cascade). `serialize_report` carries every `dag.*` field, so
/// the blob comparison sees DAG non-determinism too.
fn sweep_configs() -> Vec<SimConfig> {
    let mut configs = vec![SimConfig::builder()
        .policy(Policy::UpdatesFirst)
        .dag(Some(DagSpec {
            width: 20,
            ..DagSpec::default()
        }))
        .duration(2.0)
        .seed(0x5712_1995)
        .n_low(60)
        .n_high(60)
        .build()
        .expect("valid dag config")];
    for &policy in &Policy::PAPER_SET {
        for lambda_t in [6.0, 14.0] {
            configs.push(
                SimConfig::builder()
                    .policy(policy)
                    .lambda_t(lambda_t)
                    // Byte-identity does not need the paper's durations or
                    // full database; small runs keep the matrix fast under
                    // debug. (`run_sweep_replicated` takes duration/seed
                    // from the configs, not from `RunSettings`.)
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

/// Serializes a full replicated sweep result to one comparable byte blob.
fn sweep_bytes(threads: usize, replicas: usize) -> String {
    let settings = RunSettings {
        duration: 1.0,
        seed: 0x5712_1995,
        threads,
        replicas,
    };
    let sets = run_sweep_replicated(&settings, sweep_configs());
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
    let settings1 = RunSettings {
        duration: 1.0,
        seed: 0x5712_1995,
        threads: 2,
        replicas: 1,
    };
    let settings4 = RunSettings {
        replicas: 4,
        ..settings1
    };
    let base = run_sweep_replicated(&settings1, sweep_configs());
    let replicated = run_sweep_replicated(&settings4, sweep_configs());
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
