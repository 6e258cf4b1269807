//! The sync-protocol rules on their fixtures: the seeded violations fail
//! as D9/D10/D11 must. That the committed registry
//! (`crates/lint/sync_protocol.toml`) and the code agree in both
//! directions is part of the one workspace scan (`tests/structure.rs` at
//! the root); the coverage pins at the bottom keep the registry honest
//! about *what* it covers, so a PR that deletes entries wholesale (rather
//! than keeping them in step with the code) fails loudly here.

use std::path::PathBuf;

use strip_lint::registry::{self, SyncRegistry};
use strip_lint::{analyze_sync, RuleId, REGISTRY_PATH};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture readable")
}

fn fixture_registry() -> SyncRegistry {
    let reg = registry::parse(&fixture("sync_registry.toml")).expect("fixture registry parses");
    assert!(reg.validate().is_empty(), "{:?}", reg.validate());
    reg
}

fn run_fixture(name: &str) -> Vec<strip_lint::Violation> {
    analyze_sync(&[(name.to_string(), fixture(name))], &fixture_registry())
}

#[test]
fn d9_fixture_unpaired_release_fails() {
    let v = run_fixture("d9.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, RuleId::AtomicProtocol);
    assert!(
        v[0].message.contains("no Acquire load partner"),
        "{}",
        v[0].message
    );
    assert!(
        v[0].snippet.contains("Ordering::Release"),
        "{}",
        v[0].snippet
    );
}

#[test]
fn d10_fixture_two_lock_cycle_fails_on_the_backward_edge() {
    let v = run_fixture("d10.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, RuleId::LockOrder);
    assert!(
        v[0].message.contains("lock-order breach"),
        "{}",
        v[0].message
    );
    // The forward path is clean; only `backward`'s ingest-under-report
    // acquisition fires.
    assert!(
        v[0].message
            .contains("`ingest` (rank 10) while holding `report` (rank 20)"),
        "{}",
        v[0].message
    );
}

#[test]
fn d11_fixture_unregistered_send_impl_fails() {
    let v = run_fixture("d11.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, RuleId::SendSyncAudit);
    assert!(
        v[0].message.contains("`unsafe impl Send for RawBox`"),
        "{}",
        v[0].message
    );
}

/// Coverage pins: the committed registry's shape. Update deliberately
/// when the concurrency surface changes — each bullet is a reviewed
/// protocol, not bookkeeping.
#[test]
fn committed_registry_covers_the_audited_surface() {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let text = std::fs::read_to_string(root.join(REGISTRY_PATH)).expect("registry readable");
    let reg = registry::parse(&text).expect("registry parses");
    assert!(reg.validate().is_empty(), "{:?}", reg.validate());

    // The SPSC ring protocol: both cursors plus the close latch.
    for field in ["head", "tail", "closed"] {
        assert!(
            reg.atomic("crates/live/src/spsc.rs", field).is_some(),
            "spsc `{field}` must stay registered"
        );
    }
    let head = reg.atomic("crates/live/src/spsc.rs", "head").expect("head");
    assert_eq!(head.relaxed_in, ["Inner::drop"], "single-owner context pin");

    // The WAL watermark and failure latch; the counters ride along.
    let written = reg
        .atomic("crates/live/src/wal.rs", "written")
        .expect("written");
    assert_eq!(written.role, "publication");
    assert_eq!(written.relaxed_in, ["flusher_loop"]);
    assert!(reg.atomic("crates/live/src/wal.rs", "failed").is_some());

    // Shutdown plumbing and the sweep counters.
    assert!(reg
        .atomic("crates/live/src/signal.rs", "TERMINATED")
        .is_some());
    assert!(reg.atomic("crates/live/src/server.rs", "stop").is_some());
    assert!(reg
        .atomic("crates/experiments/src/sweep.rs", "cursor")
        .is_some());

    // Exactly one Mutex in the workspace (the sweep failure collector)
    // and exactly the ring's two unsafe impls.
    assert_eq!(reg.locks.len(), 1, "{:?}", reg.locks);
    assert_eq!(reg.locks[0].name, "failures");
    assert_eq!(reg.send_sync.len(), 2, "{:?}", reg.send_sync);
    assert!(reg
        .send_sync
        .iter()
        .all(|s| s.file == "crates/live/src/spsc.rs" && s.type_name == "Inner"));
}
