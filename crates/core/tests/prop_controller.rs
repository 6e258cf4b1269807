//! Property tests of the whole controller: random scripted workloads under
//! random policy/staleness/abort settings must preserve the accounting
//! identities — no transaction or update is ever lost or double counted,
//! CPU time adds up, and derived fractions stay in range.

use proptest::prelude::*;
use strip_core::config::{HistoryAccess, IoModel, Policy, QueuePolicy, SimConfig, TriggerConfig};
use strip_core::controller::run_simulation;
use strip_core::sources::{ScriptedTxns, ScriptedUpdates, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::staleness::StalenessSpec;
use strip_sim::time::SimTime;

const N_OBJ: u32 = 6;
const DURATION: f64 = 30.0;

#[derive(Debug, Clone)]
struct WorkloadSeed {
    updates: Vec<(u16, u8, u8, u16)>,   // (gap_ms, class, obj, age_ms)
    txns: Vec<(u16, u8, u16, u16, u8)>, // (gap_ms, class, compute_ms, slack_ms, reads)
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSeed> {
    let upd = (1u16..400, 0u8..2, 0u8..N_OBJ as u8, 0u16..500);
    let txn = (1u16..900, 0u8..2, 1u16..300, 10u16..1500, 0u8..4);
    (
        prop::collection::vec(upd, 0..120),
        prop::collection::vec(txn, 0..60),
    )
        .prop_map(|(updates, txns)| WorkloadSeed { updates, txns })
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::UpdatesFirst),
        Just(Policy::TransactionsFirst),
        Just(Policy::SplitUpdates),
        Just(Policy::OnDemand),
        (0.05f64..0.95).prop_map(|fraction| Policy::FixedFraction { fraction }),
    ]
}

/// Builds sources whose arrivals land strictly inside the horizon (the
/// controller only receives events at t ≤ duration, so arrivals generated
/// at the boundary would make the expected counts float-rounding dependent).
fn build_sources(seed: &WorkloadSeed) -> (ScriptedUpdates, ScriptedTxns, u64, u64) {
    let cutoff = DURATION - 0.5;
    let mut t = 0.0f64;
    let mut updates = Vec::new();
    for &(gap_ms, class, obj, age_ms) in &seed.updates {
        t += f64::from(gap_ms) / 1000.0;
        if t > cutoff {
            break;
        }
        let class = if class == 0 {
            Importance::Low
        } else {
            Importance::High
        };
        updates.push(UpdateSpec {
            arrival: SimTime::from_secs(t),
            object: ViewObjectId::new(class, u32::from(obj) % N_OBJ),
            generation_ts: SimTime::from_secs(t - f64::from(age_ms) / 1000.0),
            payload: t,
            attr_mask: u64::MAX,
        });
    }
    let mut t = 0.0f64;
    let mut txns = Vec::new();
    for (i, &(gap_ms, class, compute_ms, slack_ms, reads)) in seed.txns.iter().enumerate() {
        t += f64::from(gap_ms) / 1000.0;
        if t > cutoff {
            break;
        }
        let class = if class == 0 {
            Importance::Low
        } else {
            Importance::High
        };
        txns.push(TxnSpec {
            id: i as u64,
            class,
            value: 1.0 + f64::from(i as u32 % 5),
            arrival: SimTime::from_secs(t),
            slack: f64::from(slack_ms) / 1000.0,
            compute_time: f64::from(compute_ms) / 1000.0,
            reads: (0..reads)
                .map(|r| ViewObjectId::new(class, u32::from(r) % N_OBJ))
                .collect(),
            derived_reads: vec![],
        });
    }
    let (nu, nt) = (updates.len() as u64, txns.len() as u64);
    (
        ScriptedUpdates::new(updates),
        ScriptedTxns::new(txns),
        nu,
        nt,
    )
}

struct Extras {
    history: bool,
    triggers: bool,
    io: bool,
}

fn cfg(
    policy: Policy,
    staleness: StalenessSpec,
    abort: bool,
    qp: QueuePolicy,
    indexed: bool,
    extras: &Extras,
) -> SimConfig {
    let mut cfg = SimConfig::builder()
        .lambda_u(0.0)
        .lambda_t(0.0)
        .n_low(N_OBJ)
        .n_high(N_OBJ)
        .policy(policy)
        .staleness(staleness)
        .abort_on_stale(abort)
        .queue_policy(qp)
        .indexed_queue(indexed)
        .uq_max(16)
        .os_max(8)
        .duration(DURATION)
        .seed(7)
        .build()
        .unwrap();
    // Exercise nonzero overheads so cost paths are hit.
    cfg.costs.x_queue = 50.0;
    cfg.costs.x_scan = 20.0;
    cfg.costs.x_switch = 100.0;
    if extras.history {
        cfg.history = Some(HistoryAccess {
            p_historical_read: 0.3,
            lag_min: 0.0,
            lag_max: 5.0,
            ..HistoryAccess::default()
        });
    }
    if extras.triggers {
        cfg.triggers = Some(TriggerConfig {
            n_rules: 20,
            sources_per_rule: 2,
            exec_instr: 5_000.0,
            max_pending: 50,
        });
    }
    if extras.io {
        cfg.io = Some(IoModel {
            hit_ratio: 0.8,
            x_io: 50_000.0,
        });
    }
    cfg.validate().expect("prop config valid");
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_identities_hold(
        seed in workload_strategy(),
        policy in policy_strategy(),
        uu in proptest::bool::ANY,
        abort in proptest::bool::ANY,
        lifo in proptest::bool::ANY,
        indexed in proptest::bool::ANY,
        history in proptest::bool::ANY,
        triggers in proptest::bool::ANY,
        io in proptest::bool::ANY,
        p_view in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
    ) {
        let staleness = if uu {
            StalenessSpec::UnappliedUpdate
        } else {
            StalenessSpec::MaxAge { alpha: 2.0 }
        };
        let qp = if lifo { QueuePolicy::Lifo } else { QueuePolicy::Fifo };
        let extras = Extras { history, triggers, io };
        let (us, ts, n_updates, n_txns) = build_sources(&seed);
        let mut c = cfg(policy, staleness, abort, qp, indexed, &extras);
        // Reads anywhere from first to last in the plan: late reads let a
        // deadline land inside an on-demand apply.
        c.p_view = p_view;
        let r = run_simulation(&c, us, ts, None).unwrap().0;

        // Every arrival is accounted for.
        prop_assert_eq!(r.txns.arrived, n_txns);
        prop_assert_eq!(r.updates.arrived, n_updates);
        prop_assert_eq!(r.txns.finished() + r.txns.in_flight_at_end, n_txns);
        prop_assert_eq!(r.updates.terminal_total(), n_updates, "updates: {:?}", r.updates);

        // CPU accounting.
        prop_assert!(r.cpu.utilization() <= 1.0 + 1e-9, "util {}", r.cpu.utilization());
        prop_assert!(r.cpu.busy_txn >= 0.0 && r.cpu.busy_update >= 0.0);

        // Fractions.
        for v in [r.txns.p_md(), r.txns.p_success(), r.txns.p_suc_nontardy(), r.fold_low, r.fold_high] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "fraction {v}");
        }
        prop_assert!(r.txns.committed_fresh <= r.txns.committed);
        prop_assert!(r.txns.stale_reads <= r.txns.view_reads);

        // Without aborts there are no stale aborts, and vice versa UF
        // (which installs immediately) never installs in the background.
        if !abort {
            prop_assert_eq!(r.txns.aborted_stale, 0);
        }
        if policy == Policy::UpdatesFirst {
            prop_assert_eq!(r.updates.installed_background, 0);
            prop_assert_eq!(r.updates.enqueued, 0);
        }

        // Extension invariants.
        prop_assert_eq!(
            r.triggers.executed + r.triggers.pending_at_end + r.triggers.coalesced + r.triggers.dropped,
            r.triggers.fired,
            "trigger conservation: {:?}", r.triggers
        );
        prop_assert!(r.history.misses <= r.history.historical_reads);
        prop_assert!(r.history.entries_at_end as u64 <= r.history.appends);
        if !triggers {
            prop_assert_eq!(r.triggers.fired, 0);
        }
        if !history {
            prop_assert_eq!(r.history.historical_reads, 0);
        }
        if !io {
            prop_assert_eq!(r.cpu.io_misses_reads + r.cpu.io_misses_installs, 0);
        }
    }

    #[test]
    fn deterministic_replay(
        seed in workload_strategy(),
        policy in policy_strategy(),
    ) {
        let extras = Extras { history: true, triggers: true, io: true };
        let c = cfg(policy, StalenessSpec::MaxAge { alpha: 2.0 }, false, QueuePolicy::Fifo, false, &extras);
        let (u1, t1, _, _) = build_sources(&seed);
        let (u2, t2, _, _) = build_sources(&seed);
        let r1 = run_simulation(&c, u1, t1, None).unwrap().0;
        let r2 = run_simulation(&c, u2, t2, None).unwrap().0;
        prop_assert_eq!(r1, r2);
    }

    /// Committed value never exceeds the sum of all offered values, and
    /// response times are within [0, duration].
    #[test]
    fn value_and_response_bounds(
        seed in workload_strategy(),
        policy in policy_strategy(),
    ) {
        let offered: f64 = (0..seed.txns.len()).map(|i| 1.0 + (i % 5) as f64).sum();
        let (us, ts, _, _) = build_sources(&seed);
        let extras = Extras { history: false, triggers: false, io: false };
        let c = cfg(policy, StalenessSpec::MaxAge { alpha: 2.0 }, false, QueuePolicy::Fifo, false, &extras);
        let r = run_simulation(&c, us, ts, None).unwrap().0;
        prop_assert!(r.txns.value_committed <= offered + 1e-9);
        if r.txns.committed > 0 {
            prop_assert!(r.txns.response_mean >= 0.0);
            prop_assert!(r.txns.response_mean <= DURATION);
        }
    }
}
