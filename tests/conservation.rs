//! Conservation and sanity invariants that must hold for EVERY
//! configuration: transactions and updates are neither lost nor double
//! counted, CPU time adds up, all fractions stay in range, and the event
//! calendar stays inside the capacity the config reserves for it.

use strip::core::config::{Policy, QueuePolicy, SimConfig, StalenessDef};
use strip::core::controller::Controller;
use strip::run_paper_sim;
use strip::sim::time::SimTime;
use strip::workload::{PoissonTxns, UpdateStream};
use strip::RunReport;

fn check_invariants(r: &RunReport, label: &str) {
    // Transaction conservation.
    assert_eq!(
        r.txns.finished() + r.txns.in_flight_at_end,
        r.txns.arrived,
        "{label}: txn conservation {:?}",
        r.txns
    );
    assert!(r.txns.committed_fresh <= r.txns.committed, "{label}");
    assert!(r.txns.stale_reads <= r.txns.view_reads, "{label}");
    // Update conservation: every arrival ends in exactly one bucket.
    assert_eq!(
        r.updates.terminal_total(),
        r.updates.arrived,
        "{label}: update conservation {:?}",
        r.updates
    );
    // CPU time adds up.
    let util = r.cpu.utilization();
    assert!((0.0..=1.0 + 1e-9).contains(&util), "{label}: util {util}");
    assert!(r.cpu.busy_txn >= 0.0 && r.cpu.busy_update >= 0.0, "{label}");
    // Fractions in range.
    for (name, v) in [
        ("pMD", r.txns.p_md()),
        ("psuccess", r.txns.p_success()),
        ("psuc|nontardy", r.txns.p_suc_nontardy()),
        ("fold_low", r.fold_low),
        ("fold_high", r.fold_high),
    ] {
        assert!(
            (0.0..=1.0 + 1e-9).contains(&v),
            "{label}: {name} out of range: {v}"
        );
    }
    // psuccess can never exceed the commit rate.
    assert!(r.txns.p_success() <= 1.0 - r.txns.p_md() + 1e-9, "{label}");
    assert!(r.av() >= 0.0, "{label}");
}

fn base(policy: Policy, seed: u64) -> SimConfig {
    SimConfig::builder()
        .policy(policy)
        .duration(60.0)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn invariants_hold_across_policies_and_loads() {
    for policy in Policy::PAPER_SET {
        for lambda_t in [2.0, 10.0, 25.0] {
            let mut cfg = base(policy, 0xC0FFEE);
            cfg.lambda_t = lambda_t;
            let r = run_paper_sim(&cfg);
            check_invariants(&r, &format!("{policy:?}/lt={lambda_t}"));
        }
    }
}

#[test]
fn invariants_hold_with_aborts_and_uu() {
    for policy in Policy::PAPER_SET {
        let mut cfg = base(policy, 0xDADA);
        cfg.abort_on_stale = true;
        cfg.lambda_t = 15.0;
        check_invariants(&run_paper_sim(&cfg), &format!("{policy:?}/abort"));

        let mut cfg = base(policy, 0xDADA);
        cfg.staleness = StalenessDef::UnappliedUpdate;
        cfg.lambda_t = 12.0;
        check_invariants(&run_paper_sim(&cfg), &format!("{policy:?}/uu"));
    }
}

#[test]
fn invariants_hold_under_stress_knobs() {
    // Tiny queues, heavy costs, LIFO, indexed queue, preemption, fixed
    // fraction — the corners where accounting bugs hide.
    let mut cfg = base(Policy::TransactionsFirst, 1);
    cfg.uq_max = 8;
    cfg.os_max = 4;
    cfg.lambda_t = 20.0;
    check_invariants(&run_paper_sim(&cfg), "tiny-queues");

    let mut cfg = base(Policy::OnDemand, 2);
    cfg.costs.x_scan = 5_000.0;
    cfg.costs.x_queue = 2_000.0;
    cfg.costs.x_switch = 10_000.0;
    cfg.lambda_t = 15.0;
    check_invariants(&run_paper_sim(&cfg), "heavy-costs");

    let mut cfg = base(Policy::SplitUpdates, 3);
    cfg.queue_policy = QueuePolicy::Lifo;
    cfg.indexed_queue = true;
    cfg.lambda_t = 18.0;
    check_invariants(&run_paper_sim(&cfg), "lifo-indexed");

    let mut cfg = base(Policy::FixedFraction { fraction: 0.3 }, 4);
    cfg.lambda_t = 15.0;
    check_invariants(&run_paper_sim(&cfg), "fixed-fraction");

    let mut cfg = base(Policy::TransactionsFirst, 5);
    cfg.txn_preemption = true;
    cfg.lambda_t = 15.0;
    check_invariants(&run_paper_sim(&cfg), "txn-preemption");

    let mut cfg = base(Policy::UpdatesFirst, 6);
    cfg.costs.x_switch = 5_000.0;
    cfg.lambda_t = 10.0;
    check_invariants(&run_paper_sim(&cfg), "uf-switch-cost");

    // Reads last: firm deadlines land inside on-demand applies.
    let mut cfg = base(Policy::OnDemand, 0);
    cfg.p_view = 1.0;
    cfg.lambda_t = 25.0;
    check_invariants(&run_paper_sim(&cfg), "od-reads-last");

    let mut cfg = base(Policy::OnDemand, 7);
    cfg.warmup = 10.0;
    cfg.lambda_t = 10.0;
    let r = run_paper_sim(&cfg);
    // Warm-up breaks exact conservation (gated counters) but fractions and
    // CPU identities must still hold.
    assert!(r.cpu.measured_secs == 50.0);
    assert!(r.cpu.utilization() <= 1.0 + 1e-9);
    assert!((0.0..=1.0).contains(&r.fold_low));
}

#[test]
fn determinism_same_seed_same_report() {
    for policy in [Policy::OnDemand, Policy::SplitUpdates] {
        let cfg = base(policy, 99);
        let a = run_paper_sim(&cfg);
        let b = run_paper_sim(&cfg);
        assert_eq!(a, b, "{policy:?} not deterministic");
    }
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let mut avs = Vec::new();
    for seed in 0..4 {
        let mut cfg = base(Policy::OnDemand, seed);
        cfg.lambda_t = 10.0;
        let r = run_paper_sim(&cfg);
        avs.push(r.av());
    }
    // Seeds differ...
    assert!(avs.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    // ...but estimate the same quantity.
    let mean: f64 = avs.iter().sum::<f64>() / avs.len() as f64;
    for av in &avs {
        assert!((av - mean).abs() / mean < 0.1, "AV {av} vs mean {mean}");
    }
}

#[test]
fn calendar_holds_a_baseline_run_within_its_capacity_hint() {
    // Under UF every update installs and arms an MA watchdog α = 7 s out,
    // so ≈ α·λu = 2 800 of them are pending at once — not one per view
    // object (1 000), which is what the hint used to count. The hint
    // reserves the calendar's slab, where every pending event sits; its
    // near heap is not reserved and stays a few entries
    // (`calendar_near_tier_stays_a_few_events`).
    let cfg = base(Policy::UpdatesFirst, 0x5712_1995);
    let hint = cfg.calendar_capacity_hint();
    let mut controller = Controller::new(
        cfg.clone(),
        UpdateStream::from_config(&cfg),
        PoissonTxns::from_config(&cfg),
    )
    .unwrap();
    let reserved = controller.calendar().capacity();
    assert!(reserved >= hint);
    let mut peak = 0;
    for s in 1..=cfg.duration as u32 {
        controller.run_until(SimTime::from_secs(f64::from(s)));
        peak = peak.max(controller.calendar().len());
    }
    assert!(peak > 2_500, "the watchdogs pile up: peak {peak}");
    assert!(peak <= hint, "peak {peak} pending events, hint {hint}");
    assert_eq!(
        controller.calendar().capacity(),
        reserved,
        "the calendar's slab reallocated mid-run"
    );
}

#[test]
fn calendar_near_tier_stays_a_few_events() {
    // The near tier holds only the events of the current 7.8 ms bucket;
    // the MA watchdogs wait in the ring. Filing the first arrival before
    // the initial watchdogs keeps start-up there too: were a watchdog
    // first into the empty calendar, its bucket (up to α = 7 s ahead)
    // would become the current one, and every event of the seconds
    // before it would pile into the heap (≈ 1 000 of them).
    let cfg = base(Policy::UpdatesFirst, 0x5712_1995);
    let mut controller = Controller::new(
        cfg.clone(),
        UpdateStream::from_config(&cfg),
        PoissonTxns::from_config(&cfg),
    )
    .unwrap();
    let mut peak = controller.calendar().near_len();
    let start_up = (1..=10_000).map(|ms| f64::from(ms) / 1e3);
    let after = (11..=cfg.duration as u32).map(f64::from);
    for secs in start_up.chain(after) {
        controller.run_until(SimTime::from_secs(secs));
        peak = peak.max(controller.calendar().near_len());
    }
    assert!(peak <= 64, "the near tier peaked at {peak} events");
}
