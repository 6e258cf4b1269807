//! `sim_sweep` — the simulator alone.
//!
//! Sixteen points per round: the paper's Figure 3 grid (UF/TF/SU/OD ×
//! λt ∈ {2.5, 10, 20}) at the Table 1–3 baseline over the paper's horizon
//! of 1000 simulated seconds, plus the `derived_analytics` scenario over a
//! 3×50×3 view DAG under each policy. The rng → generators → calendar →
//! controller → queues → report pipeline does all the work and
//! `strip-live` does none, so a change to the live path must leave every
//! number here alone, and a refactor of `controller.rs` (ROADMAP item 2)
//! must leave the digests alone.

use std::time::Instant;

use strip_core::config::{DagSpec, Policy, SimConfig};
use strip_core::report::RunReport;
use strip_workload::run_paper_sim;
use strip_workload::scenarios::derived_analytics;

use crate::json::Json;
use crate::stats::{median, quantile, sorted, Summary};
use crate::workload::{
    fnv1a, package_dir, Ctx, Outcome, DEFAULT_SEED, FRESH_FRAC, SETUP_S, SUCCESS_FRAC, THROUGHPUT,
};

const LAMBDA_T_GRID: [f64; 3] = [2.5, 10.0, 20.0];

/// Simulated seconds per point (the paper's horizon).
const HORIZON: f64 = 250.0;
/// Simulated seconds per point in `--quick` smoke mode.
const QUICK_HORIZON: f64 = 10.0;
/// Horizon of the construction-only runs that `setup_s` times.
const SETUP_HORIZON: f64 = 1e-3;

/// One sweep point: a label, the span name it is traced under, whether it
/// is a DAG point, and its configuration.
struct Point {
    label: String,
    span: &'static str,
    policy: Policy,
    dag: bool,
    cfg: SimConfig,
}

fn span_name(policy: Policy) -> &'static str {
    match policy.label() {
        "UF" => "sim_point.UF",
        "TF" => "sim_point.TF",
        "SU" => "sim_point.SU",
        "OD" => "sim_point.OD",
        _ => "sim_point.other",
    }
}

fn points(seed: u64, duration: f64) -> Vec<Point> {
    let mut out = Vec::new();
    for &policy in &Policy::PAPER_SET {
        for &lambda_t in &LAMBDA_T_GRID {
            out.push(Point {
                label: format!("fig03/{}/lt{lambda_t}", policy.label()),
                span: span_name(policy),
                policy,
                dag: false,
                cfg: SimConfig::builder()
                    .policy(policy)
                    .lambda_t(lambda_t)
                    .duration(duration)
                    .seed(seed)
                    .build()
                    .expect("fig03 point is a valid config"),
            });
        }
    }
    for &policy in &Policy::PAPER_SET {
        let mut cfg = derived_analytics(policy, seed, DagSpec::default());
        cfg.duration = duration;
        out.push(Point {
            label: format!("dag3x50x3/{}", policy.label()),
            span: span_name(policy),
            policy,
            dag: true,
            cfg,
        });
    }
    out
}

/// Conservation laws every simulated report must satisfy.
fn conserved(r: &RunReport) -> bool {
    r.updates.terminal_total() == r.updates.arrived
        && r.txns.finished() + r.txns.in_flight_at_end == r.txns.arrived
        && r.dag.terminal_total() == r.dag.enqueued
}

fn expected_path() -> std::path::PathBuf {
    package_dir().join("expected").join("sim_sweep.json")
}

/// `{label: digest}` plus the total event count, as pinned or as measured.
fn pin_document(seed: u64, total_events: u64, digests: &[(String, u64)]) -> Json {
    let mut d = Json::obj();
    for (label, digest) in digests {
        d.set(label, format!("{digest:016x}"));
    }
    let mut doc = Json::obj();
    doc.set("seed", seed)
        .set("simulated_seconds_per_point", HORIZON)
        .set("total_events", total_events)
        .set("report_digests", d);
    doc
}

/// One pass over the sixteen points, untimed: `(total events, digests)`.
fn reference_pass(seed: u64) -> (u64, Vec<(String, u64)>) {
    let mut total = 0;
    let digests = points(seed, HORIZON)
        .iter()
        .map(|p| {
            let r = run_paper_sim(&p.cfg);
            total += r.cpu.events_processed;
            (p.label.clone(), fnv1a(r.to_json().as_bytes()))
        })
        .collect();
    (total, digests)
}

/// Rewrites `expected/sim_sweep.json` from the current simulator. Run it
/// when a change to the model is intended; a perf-only change never needs
/// it.
pub fn write_pins() -> std::io::Result<()> {
    let (total, digests) = reference_pass(DEFAULT_SEED);
    let path = expected_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, pin_document(DEFAULT_SEED, total, &digests).pretty())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let duration = if ctx.quick { QUICK_HORIZON } else { HORIZON };
    let started = Instant::now();
    let deadline = ctx.deadline(started);

    let mut setup_s = Vec::new();
    let mut round_events_per_s = Vec::new();
    // Wall seconds of every point, one sample per round.
    let mut walls: Vec<Vec<f64>> = Vec::new();
    let mut events: Vec<u64> = Vec::new();
    let mut first: Option<(u64, Vec<(String, u64)>)> = None;
    let (mut success, mut fresh) = (0.0, 0.0);
    let mut json_us = Vec::new();

    let mut round = 0u32;
    // At least two rounds, so determinism across rounds is always checked.
    while round < 2 || Instant::now() < deadline {
        ctx.trace.set_round(round);
        // Set-up: build the sixteen configurations and run each for a
        // vanishing horizon — generator construction, initial store ages,
        // tracker and calendar allocation, report finalisation.
        let t = Instant::now();
        {
            let _span = ctx.trace.span("setup");
            for p in points(ctx.seed, SETUP_HORIZON) {
                std::hint::black_box(run_paper_sim(&p.cfg));
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());

        let pts = points(ctx.seed, duration);
        walls.resize(pts.len(), Vec::new());
        events.resize(pts.len(), 0);
        let (mut round_events, mut round_wall) = (0u64, 0.0f64);
        let mut digests = Vec::with_capacity(pts.len());
        let (mut ps, mut fr) = (0.0, 0.0);
        for (i, p) in pts.iter().enumerate() {
            let t = Instant::now();
            let report = {
                let _span = ctx.trace.span(p.span);
                run_paper_sim(&p.cfg)
            };
            let secs = t.elapsed().as_secs_f64();
            out.attempted += 1;
            if !conserved(&report) {
                out.failed += 1;
                out.violate(format!("{}: conservation broken", p.label));
            }
            walls[i].push(secs);
            events[i] = report.cpu.events_processed;
            round_events += report.cpu.events_processed;
            round_wall += secs;
            ps += report.txns.p_success();
            fr += 1.0 - report.txns.stale_read_fraction();
            let t = Instant::now();
            let json = {
                let _span = ctx.trace.span("report_json");
                report.to_json()
            };
            json_us.push(t.elapsed().as_secs_f64() * 1e6);
            digests.push((p.label.clone(), fnv1a(json.as_bytes())));
        }
        round_events_per_s.push(round_events as f64 / round_wall);
        success = ps / pts.len() as f64;
        fresh = fr / pts.len() as f64;
        match &first {
            None => first = Some((round_events, digests)),
            Some((e0, d0)) => {
                out.check(*e0 == round_events, || {
                    format!("round {round}: {round_events} events, round 0 had {e0}")
                });
                out.check(*d0 == digests, || {
                    format!("round {round}: report digests differ from round 0")
                });
            }
        }
        round += 1;
    }

    // The default seed's outputs are pinned: a faster simulator that
    // simulates something else is not faster.
    if ctx.seed == DEFAULT_SEED && !ctx.quick {
        let (total, digests) = first.as_ref().expect("at least one round ran");
        let want = std::fs::read_to_string(expected_path())
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t));
        match want {
            Ok(want) => out.check(want == pin_document(ctx.seed, *total, digests), || {
                "outputs differ from benchmark/expected/sim_sweep.json".to_string()
            }),
            Err(e) => out.violate(format!("cannot read pinned outputs: {e}")),
        }
    }
    if !out.correct() {
        return out; // a failed check reports no rate
    }

    // Each point is compared with itself: the lower quartile of its wall
    // times over the rounds (see `Summary::quiet_low`). The sweep's rate is
    // its events over the sum of those quartiles, so a disturbance that hits
    // some points of some rounds moves nothing.
    let typical: Vec<f64> = walls
        .iter()
        .map(|w| quantile(&sorted(w.clone()), 0.25))
        .collect();
    let pts = points(ctx.seed, duration);
    let rate = |pick: &dyn Fn(&Point) -> bool| {
        let (e, w) = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| pick(p))
            .fold((0u64, 0.0), |(e, w), (i, _)| {
                (e + events[i], w + typical[i])
            });
        if w > 0.0 {
            e as f64 / w
        } else {
            0.0
        }
    };
    let per_round = Summary::of(&round_events_per_s);
    out.put(SETUP_S, Summary::quiet_low(&setup_s));
    out.put(
        THROUGHPUT,
        Summary {
            value: rate(&|_| true),
            ..per_round
        },
    );
    out.put(SUCCESS_FRAC, Summary::single(success));
    out.put(FRESH_FRAC, Summary::single(fresh));

    for (name, policy) in [
        ("controller.events_per_s.UF", Policy::UpdatesFirst),
        ("controller.events_per_s.TF", Policy::TransactionsFirst),
        ("controller.events_per_s.SU", Policy::SplitUpdates),
        ("controller.events_per_s.OD", Policy::OnDemand),
    ] {
        out.layer(name, "1/s", rate(&|p| !p.dag && p.policy == policy));
    }
    out.layer("controller.dag_events_per_s", "1/s", rate(&|p| p.dag));
    out.layer("report.to_json_us", "us", median(&json_us));
    out
}
