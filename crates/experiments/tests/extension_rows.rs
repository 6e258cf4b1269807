//! figX1–figX4 configure every point exactly as the standalone sweeps they
//! replaced did (`ablation`, `ext_streams`, `ext_services` and
//! `ext_transient` in `crates/bench/benches/`). The reference configs below
//! are those sweeps' own builder chains, copied; each row they printed must
//! be the `(curve, x)` point of some sweep, built through the one table.

use strip_core::config::{
    BurstSpec, HistoryAccess, IoModel, Policy, QueuePolicy, SimConfig, TriggerConfig, UpdateMode,
};
use strip_db::history::HistoryPolicy;
use strip_db::staleness::StalenessSpec;
use strip_experiments::figures::{
    Curve, Sweep, BASELINE_LT, FEASIBLE_DEADLINE, FIXED_FRACTION, HISTORY_RETENTION, HIT_RATIO,
    INDEXED_QUEUE, INSTALL_ORDER, PARTIAL_UPDATES, PERIODIC, SPLIT_QUEUE, SPLIT_QUEUE_SKEWED,
    STALENESS_CRITERION, TRANSIENT_BURST, TRIGGER_RULES, TXN_PREEMPTION, UU_LT, WINDOW_GRID,
};
use strip_experiments::RunSettings;

use Policy::{OnDemand as OD, SplitUpdates as SU, TransactionsFirst as TF, UpdatesFirst as UF};

fn point(sweep: &Sweep, policy: Policy, x: f64) -> SimConfig {
    sweep.config(&RunSettings::default(), Curve::Algorithm(policy), x)
}

fn duration() -> f64 {
    RunSettings::default().duration
}

/// `ablation`'s `run`: λt = 15, then the row's mutation.
fn ablation(mutate: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut cfg = SimConfig::builder()
        .lambda_t(15.0)
        .duration(duration())
        .build()
        .expect("ablation config");
    mutate(&mut cfg);
    cfg
}

/// `ext_streams`' and `ext_services`' `base`.
fn ext(policy: Policy) -> SimConfig {
    SimConfig::builder()
        .policy(policy)
        .lambda_t(10.0)
        .duration(duration())
        .build()
        .expect("base config")
}

#[test]
fn ablation_rows_are_figx1_points() {
    for policy in Policy::PAPER_SET {
        let reference = ablation(|c| c.policy = policy);
        assert_eq!(point(&BASELINE_LT, policy, 15.0), reference);
    }
    for frac in [0.05, 0.1, 0.19, 0.3, 0.5] {
        let fx = Policy::FixedFraction { fraction: frac };
        let reference = ablation(|c| c.policy = fx);
        let curve = (FIXED_FRACTION.curves)()[0];
        let cfg = FIXED_FRACTION.config(&RunSettings::default(), curve, frac);
        assert_eq!(cfg, reference, "FX({frac})");
        assert_eq!(curve.label(), "FX");
    }
    for (x_scan, indexed, sweep_x) in [
        (0.0, false, None),
        (10_000.0, false, Some(0.0)),
        (10_000.0, true, Some(1.0)),
    ] {
        let reference = ablation(|c| {
            c.policy = Policy::OnDemand;
            c.costs.x_scan = x_scan;
            c.indexed_queue = indexed;
        });
        let cfg = match sweep_x {
            Some(x) => point(&INDEXED_QUEUE, OD, x),
            None => point(&BASELINE_LT, OD, 15.0),
        };
        assert_eq!(cfg, reference, "x_scan {x_scan}, indexed {indexed}");
    }
    for (policy, split) in [
        (TF, false),
        (TF, true),
        (OD, false),
        (OD, true),
        (SU, false),
    ] {
        let reference = ablation(|c| {
            c.policy = policy;
            c.split_update_queue = split;
        });
        assert_eq!(
            point(&SPLIT_QUEUE, policy, f64::from(u8::from(split))),
            reference
        );
    }
    for split in [false, true] {
        let reference = ablation(|c| {
            c.policy = Policy::TransactionsFirst;
            c.lambda_t = 10.0;
            c.p_update_low = 0.8;
            c.n_high = 200;
            c.split_update_queue = split;
        });
        let x = f64::from(u8::from(split));
        assert_eq!(point(&SPLIT_QUEUE_SKEWED, TF, x), reference);
    }
    for preempt in [false, true] {
        let reference = ablation(|c| {
            c.policy = Policy::TransactionsFirst;
            c.txn_preemption = preempt;
        });
        let x = f64::from(u8::from(preempt));
        assert_eq!(point(&TXN_PREEMPTION, TF, x), reference);
    }
    for feasible in [true, false] {
        let reference = ablation(|c| {
            c.policy = Policy::OnDemand;
            c.feasible_deadline = feasible;
        });
        let x = f64::from(u8::from(feasible));
        assert_eq!(point(&FEASIBLE_DEADLINE, OD, x), reference);
    }
}

#[test]
fn ext_streams_rows_are_figx2_points() {
    for policy in Policy::PAPER_SET {
        assert_eq!(point(&PERIODIC, policy, 0.0), ext(policy));
        let mut cfg = ext(policy);
        cfg.update_mode = UpdateMode::Periodic { jitter_frac: 0.1 };
        assert_eq!(point(&PERIODIC, policy, 1.0), cfg);
    }
    for policy in [UF, OD] {
        for p_partial in [0.0, 0.5, 1.0] {
            let mut cfg = ext(policy);
            cfg.attrs_per_object = 4;
            cfg.p_partial_update = p_partial;
            assert_eq!(point(&PARTIAL_UPDATES, policy, p_partial), cfg);
        }
    }
    for (policy, qp, x) in [
        (TF, QueuePolicy::Fifo, 0.0),
        (TF, QueuePolicy::Lifo, 1.0),
        (TF, QueuePolicy::HotFirst, 2.0),
        (OD, QueuePolicy::Fifo, 0.0),
    ] {
        let mut cfg = ext(policy);
        cfg.read_skew = 1.0;
        cfg.queue_policy = qp;
        assert_eq!(point(&INSTALL_ORDER, policy, x), cfg);
    }
    for policy in Policy::PAPER_SET {
        assert_eq!(point(&STALENESS_CRITERION, policy, 0.0), ext(policy));
        let mut uu = ext(policy);
        uu.staleness = StalenessSpec::UnappliedUpdate;
        assert_eq!(point(&STALENESS_CRITERION, policy, 1.0), uu);
        let mut either = ext(policy);
        either.staleness = StalenessSpec::Either { alpha: 7.0 };
        assert_eq!(point(&STALENESS_CRITERION, policy, 2.0), either);
        // The MA and UU columns are also fig06a's and fig16's points at
        // λt = 10.
        assert_eq!(point(&BASELINE_LT, policy, 10.0), ext(policy));
        assert_eq!(point(&UU_LT, policy, 10.0), uu);
    }
}

#[test]
fn ext_services_rows_are_figx3_points() {
    for retention in [5.0, 15.0, 30.0, 60.0] {
        let mut cfg = ext(Policy::OnDemand);
        cfg.history = Some(HistoryAccess {
            policy: HistoryPolicy {
                retention_secs: retention,
                max_entries_per_object: 1024,
            },
            p_historical_read: 0.2,
            lag_min: 0.0,
            lag_max: 30.0,
        });
        assert_eq!(point(&HISTORY_RETENTION, OD, retention), cfg);
    }
    for policy in [TF, UF, OD] {
        for n_rules in [0u32, 1_000] {
            let mut cfg = ext(policy);
            if n_rules > 0 {
                cfg.triggers = Some(TriggerConfig {
                    n_rules,
                    sources_per_rule: 4,
                    exec_instr: 10_000.0,
                    max_pending: 10_000,
                });
            }
            assert_eq!(point(&TRIGGER_RULES, policy, f64::from(n_rules)), cfg);
        }
    }
    for policy in [UF, OD] {
        for hit in [1.0, 0.95, 0.9, 0.8] {
            let mut cfg = ext(policy);
            if hit < 1.0 {
                cfg.io = Some(IoModel {
                    hit_ratio: hit,
                    x_io: 100_000.0,
                });
            }
            assert_eq!(point(&HIT_RATIO, policy, hit), cfg);
        }
    }
}

/// `ext_transient` ran `max(duration, 400)` seconds; figX4 runs the
/// campaign's duration, so the two agree from 400 s on (the paper's 1000 s
/// included).
#[test]
fn ext_transient_runs_are_figx4_points() {
    let total = 1_000.0;
    let settings = RunSettings {
        duration: total,
        ..RunSettings::default()
    };
    let burst = BurstSpec {
        from: total * 0.3,
        until: total * 0.3 + 100.0,
        factor: 4.0,
    };
    for policy in Policy::PAPER_SET {
        let reference = SimConfig::builder()
            .policy(policy)
            .lambda_t(6.0)
            .lambda_t_burst(Some(burst))
            .timeline_window(Some(20.0))
            .duration(total)
            .build()
            .expect("transient config");
        for x in WINDOW_GRID {
            let cfg = TRANSIENT_BURST.config(&settings, Curve::Algorithm(policy), x);
            assert_eq!(cfg, reference, "{} at t = {x}", policy.label());
        }
    }
}
