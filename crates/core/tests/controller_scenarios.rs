//! Scenario tests of the controller: hand-built workloads with exactly
//! predictable timing, validating each scheduling policy's mechanics
//! against the paper's §3–§4 semantics.

use strip_core::config::{Policy, QueuePolicy, SimConfig};
use strip_core::controller::{run_simulation, Controller};
use strip_core::report::RunReport;
use strip_core::sources::{NoArrivals, ScriptedTxns, ScriptedUpdates, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::StalenessSpec;
use strip_sim::time::SimTime;

const LOOKUP: f64 = 4_000.0 / 50.0e6; // 80 µs
const INSTALL: f64 = 24_000.0 / 50.0e6; // 480 µs
const WRITE: f64 = 20_000.0 / 50.0e6; // 400 µs

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// Baseline test config: no background update stream (pins initial object
/// timestamps to 0), small partitions, explicit duration.
fn cfg(policy: Policy, duration: f64) -> SimConfig {
    SimConfig::builder()
        .lambda_u(0.0)
        .lambda_t(0.0)
        .n_low(4)
        .n_high(4)
        .policy(policy)
        .duration(duration)
        .seed(1)
        .build()
        .unwrap()
}

fn txn(id: u64, arrival: f64, compute: f64, slack: f64, reads: Vec<ViewObjectId>) -> TxnSpec {
    TxnSpec {
        id,
        class: Importance::Low,
        value: 1.0,
        arrival: t(arrival),
        slack,
        compute_time: compute,
        reads,
        derived_reads: vec![],
    }
}

fn upd(arrival: f64, gen: f64, obj: ViewObjectId) -> UpdateSpec {
    UpdateSpec {
        arrival: t(arrival),
        object: obj,
        generation_ts: t(gen),
        payload: gen,
        attr_mask: u64::MAX,
    }
}

fn low(i: u32) -> ViewObjectId {
    ViewObjectId::new(Importance::Low, i)
}

fn high(i: u32) -> ViewObjectId {
    ViewObjectId::new(Importance::High, i)
}

fn run(cfg: &SimConfig, updates: Vec<UpdateSpec>, txns: Vec<TxnSpec>) -> RunReport {
    let (report, _) = run_simulation(
        cfg,
        ScriptedUpdates::new(updates),
        ScriptedTxns::new(txns),
        None,
    )
    .unwrap();
    report
}

#[test]
fn single_txn_commits_with_exact_timing() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    let r = run(&c, vec![], vec![txn(1, 1.0, 0.1, 0.5, vec![])]);
    assert_eq!(r.txns.arrived, 1);
    assert_eq!(r.txns.committed, 1);
    assert_eq!(r.txns.committed_fresh, 1);
    assert_eq!(r.txns.finished(), 1);
    assert!((r.txns.response_mean - 0.1).abs() < 1e-12);
    assert!((r.cpu.busy_txn - 0.1).abs() < 1e-12);
    assert_eq!(r.cpu.busy_update, 0.0);
    assert_eq!(r.txns.p_md(), 0.0);
    assert!((r.av() - 1.0 / 5.0).abs() < 1e-12);
}

#[test]
fn value_density_orders_the_ready_queue() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    // A occupies the CPU; B (low density) and C (high density) queue up.
    let mut b = txn(2, 1.1, 0.4, 4.0, vec![]);
    b.value = 1.0; // density 2.5
    let mut cx = txn(3, 1.2, 0.1, 4.0, vec![]);
    cx.value = 2.0; // density 20
    let a = txn(1, 1.0, 1.0, 4.0, vec![]);
    let r = run(&c, vec![], vec![a, b, cx]);
    assert_eq!(r.txns.committed, 3);
    // C (arrived later, higher density) must run before B: C commits at
    // 2.1, B at 2.5. Mean response: A=1.0, C=0.9, B=1.4.
    let expected_mean = (1.0 + 0.9 + 1.4) / 3.0;
    assert!(
        (r.txns.response_mean - expected_mean).abs() < 1e-9,
        "mean {}",
        r.txns.response_mean
    );
}

#[test]
fn uf_preempts_running_txn_for_update() {
    let c = cfg(Policy::UpdatesFirst, 5.0);
    let r = run(
        &c,
        vec![upd(1.05, 1.0, low(0))],
        vec![txn(1, 1.0, 0.1, 1.0, vec![])],
    );
    assert_eq!(r.txns.committed, 1);
    assert_eq!(r.updates.installed_immediate, 1);
    assert_eq!(r.updates.installed_background, 0);
    // The transaction is stretched by exactly one install.
    assert!(
        (r.txns.response_mean - (0.1 + INSTALL)).abs() < 1e-9,
        "mean {}",
        r.txns.response_mean
    );
    assert!((r.cpu.busy_txn - 0.1).abs() < 1e-9);
    assert!((r.cpu.busy_update - INSTALL).abs() < 1e-9);
}

#[test]
fn tf_defers_install_until_idle() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    let r = run(
        &c,
        vec![upd(1.05, 1.0, low(0))],
        vec![txn(1, 1.0, 0.1, 1.0, vec![])],
    );
    assert_eq!(r.txns.committed, 1);
    // The transaction is NOT delayed.
    assert!((r.txns.response_mean - 0.1).abs() < 1e-12);
    assert_eq!(r.updates.installed_background, 1);
    assert_eq!(r.updates.enqueued, 1);
    assert!((r.cpu.busy_update - INSTALL).abs() < 1e-9);
}

#[test]
fn od_refreshes_stale_object_on_demand() {
    let mut c = cfg(Policy::OnDemand, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    // A keeps the CPU busy 7.4 → 8.4 so the update queues; B then reads the
    // stale object (initial generation 0, age > 7 at 8.4).
    let a = txn(1, 7.4, 1.0, 3.0, vec![]);
    let b = txn(2, 7.6, 0.1, 3.0, vec![low(0)]);
    let u = upd(7.5, 7.3, low(0));
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!(r.txns.committed, 2);
    assert_eq!(r.txns.committed_fresh, 2, "OD must refresh the stale read");
    assert_eq!(r.updates.installed_on_demand, 1);
    assert_eq!(r.txns.stale_reads, 0);
    // B's wall time includes the on-demand write.
    let b_response = (8.4 + LOOKUP + WRITE + 0.1) - 7.6;
    let expected_mean = (1.0 + b_response) / 2.0;
    assert!(
        (r.txns.response_mean - expected_mean).abs() < 1e-9,
        "mean {}",
        r.txns.response_mean
    );
}

#[test]
fn deadline_inside_an_od_apply_puts_the_update_back() {
    let mut c = cfg(Policy::OnDemand, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    c.feasible_deadline = false;
    // As in `od_refreshes_stale_object_on_demand`, B takes the queued
    // update at 8.4 + LOOKUP; its deadline falls halfway through the write.
    let a = txn(1, 7.4, 1.0, 3.0, vec![]);
    let b = txn(2, 7.6, 0.1, 0.7 + WRITE / 2.0, vec![low(0)]);
    let u = upd(7.5, 7.3, low(0));
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!((r.txns.committed, r.txns.missed_deadline), (1, 1));
    assert_eq!(r.updates.installed_on_demand, 0);
    assert_eq!(
        r.updates.terminal_total(),
        r.updates.arrived,
        "{:?}",
        r.updates
    );
    // Back in the queue, the update is installed once the CPU is idle.
    assert_eq!(r.updates.installed_background, 1);
}

#[test]
fn tf_reads_stale_where_od_refreshes() {
    let mut c = cfg(Policy::TransactionsFirst, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    let a = txn(1, 7.4, 1.0, 3.0, vec![]);
    let b = txn(2, 7.6, 0.1, 3.0, vec![low(0)]);
    let u = upd(7.5, 7.3, low(0));
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!(r.txns.committed, 2);
    assert_eq!(r.txns.committed_fresh, 1, "B reads stale under TF");
    assert_eq!(r.txns.stale_reads, 1);
    assert_eq!(r.updates.installed_on_demand, 0);
    // The queued update is installed in the background afterwards.
    assert_eq!(r.updates.installed_background, 1);
    assert!((r.txns.p_suc_nontardy() - 0.5).abs() < 1e-12);
}

#[test]
fn abort_on_stale_kills_the_reader() {
    let mut c = cfg(Policy::TransactionsFirst, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    c.abort_on_stale = true;
    // Read at t=8 of an object whose value dates to t=0: stale, abort.
    let b = txn(1, 8.0, 0.1, 3.0, vec![low(0)]);
    let r = run(&c, vec![], vec![b]);
    assert_eq!(r.txns.committed, 0);
    assert_eq!(r.txns.aborted_stale, 1);
    assert_eq!(r.txns.p_md(), 1.0);
    assert_eq!(r.txns.value_committed, 0.0);
}

#[test]
fn od_rescues_abort_on_stale_when_update_available() {
    let mut c = cfg(Policy::OnDemand, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    c.abort_on_stale = true;
    let a = txn(1, 7.4, 1.0, 3.0, vec![]);
    let b = txn(2, 7.6, 0.1, 3.0, vec![low(0)]);
    let u = upd(7.5, 7.3, low(0));
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!(r.txns.aborted_stale, 0);
    assert_eq!(r.txns.committed, 2);
    assert_eq!(r.txns.committed_fresh, 2);
}

#[test]
fn feasible_deadline_purges_hopeless_txn() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    // A runs 1.0 → 2.0; B needs 0.1s but its deadline is 2.05.
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let b = txn(2, 1.9, 0.1, 0.05, vec![]);
    let r = run(&c, vec![], vec![a, b]);
    assert_eq!(r.txns.committed, 1);
    assert_eq!(r.txns.aborted_infeasible, 1);
    assert_eq!(r.txns.missed_deadline, 0);
}

#[test]
fn deadline_watchdog_aborts_queued_txn() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    // B's firm deadline (1.65) passes while A holds the CPU until 2.0.
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let b = txn(2, 1.5, 0.1, 0.05, vec![]);
    let r = run(&c, vec![], vec![a, b]);
    assert_eq!(r.txns.committed, 1);
    assert_eq!(r.txns.missed_deadline, 1);
    assert_eq!(r.txns.aborted_infeasible, 0);
    assert!((r.txns.p_md() - 0.5).abs() < 1e-12);
}

#[test]
fn su_splits_by_importance() {
    let c = cfg(Policy::SplitUpdates, 5.0);
    let a = txn(1, 1.0, 0.5, 3.0, vec![]);
    let uh = upd(1.1, 1.05, high(0));
    let ul = upd(1.2, 1.15, low(0));
    let r = run(&c, vec![uh, ul], vec![a]);
    assert_eq!(r.updates.installed_immediate, 1, "high applied on arrival");
    assert_eq!(r.updates.installed_background, 1, "low deferred to idle");
    assert_eq!(r.updates.enqueued, 1);
    // The transaction is stretched by exactly the high-importance install.
    assert!((r.txns.response_mean - (0.5 + INSTALL)).abs() < 1e-9);
}

#[test]
fn lifo_skips_superseded_generations() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.queue_policy = QueuePolicy::Lifo;
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    // Two updates to the same object: LIFO installs the newest first, then
    // skips the older as superseded.
    let u1 = upd(1.1, 1.05, low(0));
    let u2 = upd(1.2, 1.15, low(0));
    let r = run(&c, vec![u1, u2], vec![a]);
    assert_eq!(r.updates.installed_background, 1);
    assert_eq!(r.updates.superseded_skips, 1);
}

#[test]
fn fifo_installs_both_generations() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let u1 = upd(1.1, 1.05, low(0));
    let u2 = upd(1.2, 1.15, low(0));
    let r = run(&c, vec![u1, u2], vec![a]);
    assert_eq!(r.updates.installed_background, 2);
    assert_eq!(r.updates.superseded_skips, 0);
}

#[test]
fn uq_overflow_discards_oldest() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.uq_max = 2;
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let us = vec![
        upd(1.1, 1.05, low(0)),
        upd(1.2, 1.15, low(1)),
        upd(1.3, 1.25, low(2)),
    ];
    let r = run(&c, us, vec![a]);
    assert_eq!(r.updates.overflow_dropped, 1);
    assert_eq!(r.updates.installed_background, 2);
}

#[test]
fn ma_expired_update_is_discarded_not_installed() {
    let mut c = cfg(Policy::TransactionsFirst, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    // Generated at 0.9, arrives at 8.0 — already 7.1 s old.
    let u = upd(8.0, 0.9, low(0));
    let r = run(&c, vec![u], vec![]);
    assert_eq!(r.updates.expired_dropped, 1);
    assert_eq!(r.updates.installed_total(), 0);
}

#[test]
fn ma_fold_counts_initial_values_expiring() {
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    // No updates at all: every object (generation 0) goes stale at t = 7.
    let r = run(&c, vec![], vec![]);
    assert!((r.fold_low - 0.3).abs() < 1e-9, "fold_low {}", r.fold_low);
    assert!((r.fold_high - 0.3).abs() < 1e-9);
}

#[test]
fn uu_staleness_window_is_receive_to_install() {
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    c.staleness = StalenessSpec::UnappliedUpdate;
    // A runs 1.0 → 3.0; the update arrives at 2.0 and installs at ~3.0.
    let a = txn(1, 1.0, 2.0, 5.0, vec![]);
    let u = upd(2.0, 1.9, low(0));
    let r = run(&c, vec![u], vec![a]);
    // Stale window ≈ [2.0, 3.0 + INSTALL] for 1 of 4 low objects.
    let expected = (1.0 + INSTALL) / 10.0 / 4.0;
    assert!(
        (r.fold_low - expected).abs() < 1e-6,
        "fold_low {} expected {expected}",
        r.fold_low
    );
    assert_eq!(r.fold_high, 0.0);
}

#[test]
fn uu_stale_read_detected_via_queue_scan() {
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    c.staleness = StalenessSpec::UnappliedUpdate;
    let a = txn(1, 1.0, 1.0, 5.0, vec![]);
    // B reads low(0) while the update for it is still queued.
    let b = txn(2, 1.5, 0.1, 5.0, vec![low(0)]);
    let u = upd(1.2, 1.1, low(0));
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!(r.txns.stale_reads, 1);
    assert_eq!(r.txns.committed, 2);
    assert_eq!(r.txns.committed_fresh, 1);
}

#[test]
fn od_under_uu_applies_queued_update_during_read() {
    let mut c = cfg(Policy::OnDemand, 10.0);
    c.staleness = StalenessSpec::UnappliedUpdate;
    let a = txn(1, 1.0, 1.0, 5.0, vec![]);
    let b = txn(2, 1.5, 0.1, 5.0, vec![low(0)]);
    let u = upd(1.2, 1.1, low(0));
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!(r.txns.stale_reads, 0);
    assert_eq!(r.updates.installed_on_demand, 1);
    assert_eq!(r.txns.committed_fresh, 2);
}

#[test]
fn accounting_conserves_transactions() {
    let c = cfg(Policy::TransactionsFirst, 4.0);
    let txns = vec![
        txn(1, 0.5, 0.5, 0.2, vec![low(0)]),
        txn(2, 0.6, 0.3, 0.1, vec![low(1)]),
        txn(3, 0.7, 0.2, 2.0, vec![]),
        txn(4, 3.9, 0.5, 5.0, vec![]), // still running at the horizon
    ];
    let r = run(&c, vec![], txns);
    assert_eq!(r.txns.arrived, 4);
    assert_eq!(r.txns.finished() + r.txns.in_flight_at_end, 4);
    assert!(r.cpu.utilization() <= 1.0 + 1e-9);
}

#[test]
fn fixed_fraction_extension_reserves_update_share() {
    let mut c = cfg(Policy::FixedFraction { fraction: 0.5 }, 5.0);
    c.uq_max = 100;
    // A long transaction queue plus a burst of updates: with a 50% update
    // share the updates must not starve even though transactions wait.
    let txns: Vec<TxnSpec> = (0..8).map(|i| txn(i, 1.0, 0.5, 10.0, vec![])).collect();
    let updates: Vec<UpdateSpec> = (0..20)
        .map(|i| upd(1.0 + 0.01 * f64::from(i), 0.9, low(i % 4)))
        .collect();
    let r = run(&c, updates, txns);
    assert!(
        r.updates.installed_total() + r.updates.superseded_skips >= 20,
        "updates processed promptly: {:?}",
        r.updates
    );
}

#[test]
fn txn_preemption_extension_lets_high_density_jump_in() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.txn_preemption = true;
    let a = txn(1, 1.0, 1.0, 5.0, vec![]); // density 1
    let mut b = txn(2, 1.2, 0.1, 5.0, vec![]);
    b.value = 10.0; // density 100 — preempts A
    let r = run(&c, vec![], vec![a, b]);
    assert_eq!(r.txns.committed, 2);
    // B commits at 1.3 (response 0.1); A resumes and commits at 2.1.
    let expected = (0.1 + 1.1) / 2.0;
    assert!(
        (r.txns.response_mean - expected).abs() < 1e-9,
        "mean {}",
        r.txns.response_mean
    );
}

#[test]
fn running_txn_aborted_at_deadline_mid_flight() {
    let mut c = cfg(Policy::UpdatesFirst, 5.0);
    c.feasible_deadline = false;
    // The txn would finish at 1.1 but a storm of updates (each 480 µs,
    // strictly increasing generations so none is superseded) pushes it past
    // its deadline of 1.0 + 0.1 + 0.01 = 1.11.
    let updates: Vec<UpdateSpec> = (0..100)
        .map(|i| {
            let arrival = 1.01 + 0.0001 * f64::from(i);
            upd(arrival, arrival - 0.001, low(i % 4))
        })
        .collect();
    let a = txn(1, 1.0, 0.1, 0.01, vec![]);
    let r = run(&c, updates, vec![a]);
    assert_eq!(r.txns.committed, 0);
    assert_eq!(r.txns.missed_deadline, 1);
    assert_eq!(
        r.updates.installed_total() + r.updates.superseded_skips,
        100
    );
}

#[test]
fn reports_are_deterministic() {
    let mut c = cfg(Policy::OnDemand, 12.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    let build = || {
        (
            vec![upd(7.5, 7.3, low(0))],
            vec![
                txn(1, 7.4, 1.0, 3.0, vec![]),
                txn(2, 7.6, 0.1, 3.0, vec![low(0)]),
            ],
        )
    };
    let (u1, t1) = build();
    let (u2, t2) = build();
    let r1 = run(&c, u1, t1);
    let r2 = run(&c, u2, t2);
    assert_eq!(r1, r2);
}

#[test]
fn indexed_queue_extension_dedups() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.indexed_queue = true;
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    // Three updates to the same object while the CPU is busy: only the
    // newest survives in the queue.
    let us = vec![
        upd(1.1, 1.05, low(0)),
        upd(1.2, 1.15, low(0)),
        upd(1.3, 1.25, low(0)),
    ];
    let r = run(&c, us, vec![a]);
    assert_eq!(r.updates.dedup_dropped, 2);
    assert_eq!(r.updates.installed_background, 1);
    assert_eq!(r.updates.superseded_skips, 0);
}

#[test]
fn warmup_excludes_prefix() {
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    c.warmup = 5.0;
    let early = txn(1, 1.0, 0.1, 1.0, vec![]);
    let late = txn(2, 6.0, 0.1, 1.0, vec![]);
    let r = run(&c, vec![], vec![early, late]);
    assert_eq!(r.txns.arrived, 1);
    assert_eq!(r.txns.committed, 1);
    assert!((r.cpu.measured_secs - 5.0).abs() < 1e-12);
    assert!((r.cpu.busy_txn - 0.1).abs() < 1e-12);
}

#[test]
fn either_criterion_flags_both_kinds_of_staleness() {
    let mut c = cfg(Policy::TransactionsFirst, 12.0);
    c.staleness = StalenessSpec::Either { alpha: 7.0 };
    // B1 reads an MA-stale object (no pending update); B2 reads a young
    // object that has a pending (unreceived-into-store) update.
    let a = txn(1, 1.0, 1.0, 8.0, vec![]); // occupies CPU 1.0 → 2.0
    let u = upd(1.2, 1.1, low(1)); // pending for low(1) while A runs
    let b2 = txn(2, 1.5, 0.1, 8.0, vec![low(1)]);
    let b1 = txn(3, 8.0, 0.1, 8.0, vec![low(0)]); // at t=8, age 8 > 7
    let r = run(&c, vec![u], vec![a, b2, b1]);
    assert_eq!(r.txns.committed, 3);
    assert_eq!(
        r.txns.stale_reads, 2,
        "one UU-stale read + one MA-stale read"
    );
    assert_eq!(r.txns.committed_fresh, 1);
}

#[test]
fn either_criterion_od_refreshes_the_uu_component() {
    let mut c = cfg(Policy::OnDemand, 12.0);
    c.staleness = StalenessSpec::Either { alpha: 7.0 };
    let a = txn(1, 1.0, 1.0, 8.0, vec![]);
    let u = upd(1.2, 1.1, low(1));
    let b = txn(2, 1.5, 0.1, 8.0, vec![low(1)]);
    let r = run(&c, vec![u], vec![a, b]);
    assert_eq!(r.updates.installed_on_demand, 1);
    assert_eq!(r.txns.stale_reads, 0);
    assert_eq!(r.txns.committed_fresh, 2);
}

#[test]
fn partial_updates_only_freshen_when_all_attributes_covered() {
    let mut c = cfg(Policy::TransactionsFirst, 12.0);
    c.attrs_per_object = 2;
    c.p_partial_update = 0.5; // validation gate; masks below are explicit
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    // Two partial updates: attr 0 at generation 7.2, attr 1 at 7.4. After
    // only the first installs, the object's oldest attribute still dates to
    // t = 0, so a read at ~8 is stale; after both, it is fresh.
    let mut u0 = upd(7.45, 7.2, low(0));
    u0.attr_mask = 0b01;
    let mut u1 = upd(7.5, 7.4, low(0));
    u1.attr_mask = 0b10;
    let a = txn(1, 7.4, 1.0, 3.0, vec![]); // CPU busy 7.4 → 8.4
    let b = txn(2, 7.6, 0.1, 3.0, vec![low(0)]); // reads after installs
    let r = run(&c, vec![u0, u1], vec![a, b]);
    // Both partial updates install in the background after B commits (TF),
    // so B reads the stale object.
    assert_eq!(r.txns.stale_reads, 1);
    assert_eq!(r.updates.installed_background, 2);
    // A partial install costs lookup + half the write.
    let expected_busy_update = 2.0 * (LOOKUP + WRITE / 2.0);
    assert!(
        (r.cpu.busy_update - expected_busy_update).abs() < 1e-9,
        "busy_update {}",
        r.cpu.busy_update
    );
}

#[test]
fn od_partial_refresh_covers_one_attribute_only() {
    let mut c = cfg(Policy::OnDemand, 12.0);
    c.attrs_per_object = 2;
    c.p_partial_update = 0.5;
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    // Only attr 0 has a queued update; OD applies it on demand, but the
    // object remains MA-stale because attr 1 still dates to t = 0.
    let mut u0 = upd(7.5, 7.3, low(0));
    u0.attr_mask = 0b01;
    let a = txn(1, 7.4, 1.0, 3.0, vec![]);
    let b = txn(2, 7.6, 0.1, 3.0, vec![low(0)]);
    let r = run(&c, vec![u0], vec![a, b]);
    assert_eq!(r.updates.installed_on_demand, 1);
    assert_eq!(r.txns.stale_reads, 1, "oldest attribute still stale");
    assert_eq!(r.txns.committed, 2);
}

#[test]
fn historical_reads_hit_and_miss_the_retained_window() {
    use strip_core::config::HistoryAccess;
    use strip_db::history::HistoryPolicy;
    let mut c = cfg(Policy::TransactionsFirst, 30.0);
    c.history = Some(HistoryAccess {
        policy: HistoryPolicy {
            retention_secs: 5.0,
            max_entries_per_object: 64,
        },
        p_historical_read: 1.0, // every view read is as-of
        lag_min: 1.0,
        lag_max: 1.0, // deterministic 1 s lag
    });
    // Installs at generations 2 and 10 for low(0) (CPU idle → immediate
    // background installs under TF).
    let u1 = upd(2.0, 2.0, low(0));
    let u2 = upd(10.0, 10.0, low(0));
    // B reads as-of 11.5: generation 10 is in force → hit.
    let b = txn(1, 12.5, 0.1, 3.0, vec![low(0)]);
    // C reads as-of ~19.6 — in force value is generation 10, retained → hit.
    let cx = txn(2, 20.6, 0.1, 3.0, vec![low(0)]);
    let r = run(&c, vec![u1, u2], vec![b, cx]);
    assert_eq!(r.history.historical_reads, 2);
    assert_eq!(r.history.misses, 0);
    assert_eq!(r.history.appends, 2);
    // Recording generation 10 prunes generation 2 (older than 5 s).
    assert_eq!(r.history.pruned, 1);
    assert_eq!(r.txns.committed_fresh, 2, "as-of reads are never stale");
}

#[test]
fn historical_miss_when_before_retained_window() {
    use strip_core::config::HistoryAccess;
    use strip_db::history::HistoryPolicy;
    let mut c = cfg(Policy::TransactionsFirst, 30.0);
    c.history = Some(HistoryAccess {
        policy: HistoryPolicy {
            retention_secs: 100.0,
            max_entries_per_object: 64,
        },
        p_historical_read: 1.0,
        lag_min: 4.0,
        lag_max: 4.0,
    });
    // Only install is at generation 10; a read as-of 12.1 - 4 = 8.1
    // predates the first retained version → miss.
    let u = upd(10.0, 10.0, low(0));
    let b = txn(1, 12.0, 0.1, 3.0, vec![low(0)]);
    let r = run(&c, vec![u], vec![b]);
    assert_eq!(r.history.historical_reads, 1);
    assert_eq!(r.history.misses, 1);
    assert!((r.history.miss_fraction() - 1.0).abs() < 1e-12);
}

#[test]
fn triggers_fire_and_execute_with_cost() {
    use strip_core::config::TriggerConfig;
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    // Deterministic rule generation over 8 view objects: with 200 rules of
    // 2 sources, every object is watched by several rules.
    c.triggers = Some(TriggerConfig {
        n_rules: 200,
        sources_per_rule: 2,
        exec_instr: 50_000.0, // 1 ms per full refresh
        max_pending: 1_000,
    });
    // Two installs while the CPU is otherwise idle.
    let us = vec![upd(1.0, 0.9, low(0)), upd(2.0, 1.9, high(1))];
    let r = run(&c, us, vec![]);
    assert!(r.triggers.fired > 0, "installs must fire rules");
    assert_eq!(
        r.triggers.executed + r.triggers.pending_at_end + r.triggers.coalesced + r.triggers.dropped,
        r.triggers.fired,
        "trigger conservation: {:?}",
        r.triggers
    );
    assert_eq!(r.triggers.dropped, 0);
    // Execution charges scale with the coalesced delta set
    // (`RuleSet::exec_cost`): the CPU is idle, so each install's firings
    // drain before the next install arrives and every execution carries
    // exactly one changed source out of two — half the 1 ms refresh.
    let expected = 2.0 * INSTALL + r.triggers.executed as f64 * 0.000_5;
    assert!(
        (r.cpu.busy_update - expected).abs() < 1e-9,
        "busy_update {} expected {expected}",
        r.cpu.busy_update
    );
    assert!(r.triggers.lag_mean >= 0.0);
}

#[test]
fn trigger_executions_wait_behind_transactions_under_tf() {
    use strip_core::config::TriggerConfig;
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    c.triggers = Some(TriggerConfig {
        n_rules: 50,
        sources_per_rule: 2,
        exec_instr: 50_000.0,
        max_pending: 1_000,
    });
    // The install happens while idle at t=1; fired rules start executing,
    // but a transaction arriving at 1.0005 takes priority at the next
    // slice boundary and runs to completion first.
    let u = upd(1.0, 0.9, low(0));
    let a = txn(1, 1.0005, 0.5, 5.0, vec![]);
    let r = run(&c, vec![u], vec![a]);
    assert_eq!(r.txns.committed, 1);
    if r.triggers.executed > 0 {
        // Executions that happened after the transaction carry its runtime
        // in their lag.
        assert!(
            r.triggers.lag_mean > 0.4,
            "rule lag should include the transaction: {}",
            r.triggers.lag_mean
        );
    }
    assert!(r.triggers.fired > 0);
}

#[test]
fn disk_resident_misses_stall_reads_and_installs() {
    use strip_core::config::IoModel;
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    // hit_ratio 0: every access misses, each costing 2 ms.
    c.io = Some(IoModel {
        hit_ratio: 0.0,
        x_io: 100_000.0,
    });
    let u = upd(1.0, 0.9, low(0));
    let b = txn(1, 2.0, 0.1, 3.0, vec![low(1), low(2)]);
    let r = run(&c, vec![u], vec![b]);
    assert_eq!(r.cpu.io_misses_installs, 1);
    assert_eq!(r.cpu.io_misses_reads, 2);
    // Install: lookup + write + 2 ms; reads: 2 × (lookup + 2 ms) + compute.
    assert!((r.cpu.busy_update - (INSTALL + 0.002)).abs() < 1e-9);
    assert!(
        (r.cpu.busy_txn - (0.1 + 2.0 * LOOKUP + 0.004)).abs() < 1e-9,
        "busy_txn {}",
        r.cpu.busy_txn
    );
    // The stall stretches the transaction's wall clock.
    assert!((r.txns.response_mean - (0.1 + 2.0 * LOOKUP + 0.004)).abs() < 1e-9);
}

#[test]
fn full_buffer_pool_behaves_like_main_memory() {
    use strip_core::config::IoModel;
    let mut c = cfg(Policy::TransactionsFirst, 10.0);
    c.io = Some(IoModel {
        hit_ratio: 1.0,
        x_io: 100_000.0,
    });
    let b = txn(1, 2.0, 0.1, 3.0, vec![low(1)]);
    let r = run(&c, vec![], vec![b]);
    assert_eq!(r.cpu.io_misses_reads, 0);
    assert!((r.txns.response_mean - (0.1 + LOOKUP)).abs() < 1e-12);
}

#[test]
fn split_queue_installs_high_importance_first() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.split_update_queue = true;
    // Three updates queue while A runs; the low one has the oldest
    // generation, but the high partition drains first.
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let ul = upd(1.1, 1.05, low(0)); // oldest generation, low importance
    let uh1 = upd(1.2, 1.15, high(0));
    let uh2 = upd(1.3, 1.25, high(1));
    let r = run(&c, vec![ul, uh1, uh2], vec![a]);
    assert_eq!(r.updates.installed_background, 3);
    // High-importance data freshens first: verify via fold integral — the
    // low object stays at its pre-install generation longer. Instead of
    // fold (coarse), check install order via response of a reader:
    // B reads high(0) right after the first install completes.
    let mut c2 = cfg(Policy::TransactionsFirst, 5.0);
    c2.split_update_queue = true;
    c2.staleness = StalenessSpec::UnappliedUpdate;
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    // Reader arrives so it runs right after exactly one install slice.
    let b = txn(2, 2.0 + INSTALL - 1e-6, 0.05, 3.0, vec![high(0)]);
    let r2 = run(&c2, vec![ul, uh1, uh2], vec![a, b]);
    // Under UU, high(0) must already be fresh when B reads it (its update
    // was installed first thanks to the split queue).
    assert_eq!(r2.txns.stale_reads, 0, "{:?}", r2.txns);
}

#[test]
fn unsplit_queue_installs_oldest_generation_first() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.staleness = StalenessSpec::UnappliedUpdate;
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let ul = upd(1.1, 1.05, low(0));
    let uh1 = upd(1.2, 1.15, high(0));
    let uh2 = upd(1.3, 1.25, high(1));
    // Same reader as above: without splitting, FIFO installs the low update
    // first, so high(0) is still pending when B reads it.
    let b = txn(2, 2.0 + INSTALL - 1e-6, 0.05, 3.0, vec![high(0)]);
    let r = run(&c, vec![ul, uh1, uh2], vec![a, b]);
    assert_eq!(r.txns.stale_reads, 1, "{:?}", r.txns);
}

#[test]
fn os_queue_overflow_drops_arrivals() {
    let mut c = cfg(Policy::TransactionsFirst, 5.0);
    c.os_max = 2;
    c.uq_max = 100;
    // A holds the CPU for its whole 1 s compute: but the receive step moves
    // OS arrivals into the update queue at scheduling points only, so four
    // arrivals during one uninterrupted slice overflow the 2-slot OS queue.
    let a = txn(1, 1.0, 1.0, 3.0, vec![]);
    let us: Vec<UpdateSpec> = (0..4)
        .map(|i| upd(1.1 + 0.1 * f64::from(i), 1.0 + 0.1 * f64::from(i), low(i)))
        .collect();
    let r = run(&c, us, vec![a]);
    assert_eq!(r.updates.arrived, 4);
    assert_eq!(r.updates.os_dropped, 2, "{:?}", r.updates);
    assert_eq!(r.updates.installed_total(), 2);
    assert_eq!(r.updates.terminal_total(), 4);
}

#[test]
fn warmup_excludes_staleness_transient() {
    // All objects start with generation 0 (lambda_u = 0 pins init ages) and
    // go stale at t = 7. With warm-up 20 s and horizon 30 s the measured
    // fold must be exactly 1 (stale for the entire window), not 23/30.
    let mut c = cfg(Policy::TransactionsFirst, 30.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 7.0 };
    c.warmup = 20.0;
    let r = run(&c, vec![], vec![]);
    assert!((r.fold_low - 1.0).abs() < 1e-9, "fold_low {}", r.fold_low);
    assert!((r.cpu.measured_secs - 10.0).abs() < 1e-12);
}

#[test]
fn empty_simulation_is_silent() {
    let c = cfg(Policy::OnDemand, 3.0);
    let (r, _) = run_simulation(&c, NoArrivals, NoArrivals, None).unwrap();
    assert_eq!(r.txns.arrived, 0);
    assert_eq!(r.updates.arrived, 0);
    assert_eq!(r.cpu.utilization(), 0.0);
    assert_eq!(r.av(), 0.0);
}

// ---- the run loop: `Controller::run_until` ----------------------------------

/// A scripted workload that keeps every event kind busy for `secs`
/// seconds: an update every 50 ms over both classes, and a transaction
/// reading two objects every 300 ms, one in four too long to meet its
/// deadline.
fn busy(secs: f64) -> (Vec<UpdateSpec>, Vec<TxnSpec>) {
    let updates = (0..(secs * 20.0) as u32)
        .map(|i| {
            let at = f64::from(i) * 0.05 + 0.01;
            let obj = if i % 3 == 0 { high(i % 4) } else { low(i % 4) };
            upd(at, at - 0.1, obj)
        })
        .collect();
    let txns = (0..(secs / 0.3) as u64)
        .map(|i| {
            let compute = if i % 4 == 0 { 0.5 } else { 0.05 };
            let reads = vec![low((i % 4) as u32), high(((i + 1) % 4) as u32)];
            txn(i + 1, i as f64 * 0.3 + 0.02, compute, 0.2, reads)
        })
        .collect();
    (updates, txns)
}

fn controller(
    cfg: &SimConfig,
    updates: Vec<UpdateSpec>,
    txns: Vec<TxnSpec>,
) -> Controller<ScriptedUpdates, ScriptedTxns> {
    Controller::new(
        cfg.clone(),
        ScriptedUpdates::new(updates),
        ScriptedTxns::new(txns),
    )
    .unwrap()
}

#[test]
fn an_event_at_the_horizon_is_handled_and_none_after_it() {
    let c = cfg(Policy::TransactionsFirst, 5.0);
    let at_horizon = run(&c, vec![], vec![txn(1, 5.0, 0.1, 0.5, vec![])]);
    assert_eq!(at_horizon.txns.arrived, 1);
    assert_eq!(at_horizon.txns.in_flight_at_end, 1);
    let after = run(&c, vec![], vec![txn(1, 5.0 + 1e-9, 0.1, 0.5, vec![])]);
    assert_eq!(after.txns.arrived, 0);
    assert_eq!(
        after.cpu.events_processed + 1,
        at_horizon.cpu.events_processed
    );
}

#[test]
fn run_until_in_steps_reports_what_one_run_does() {
    let mut c = cfg(Policy::OnDemand, 10.0);
    c.staleness = StalenessSpec::MaxAge { alpha: 0.4 };
    let (updates, txns) = busy(12.0);
    let whole = run(&c, updates.clone(), txns.clone());
    assert!(whole.txns.committed > 0 && whole.txns.aborted_infeasible > 0);
    assert!(whole.txns.committed_fresh > 0 && whole.txns.stale_reads > 0);
    assert!(whole.updates.installed_total() > 0);
    let mut stepped = controller(&c, updates, txns);
    for s in 1..=10 {
        stepped.run_until(t(f64::from(s)));
    }
    assert_eq!(stepped.finish().0.to_json(), whole.to_json());
}

#[test]
fn run_until_past_the_horizon_handles_nothing_beyond_it() {
    let c = cfg(Policy::UpdatesFirst, 4.0);
    let (updates, txns) = busy(8.0);
    let whole = run(&c, updates.clone(), txns.clone());
    let mut past = controller(&c, updates, txns);
    past.run_until(t(100.0));
    // The arrivals due after the horizon are still pending.
    assert!(past.calendar().peek_time().is_some_and(|at| at > t(4.0)));
    assert_eq!(past.finish().0.to_json(), whole.to_json());
}
