//! Running workloads and writing down what they measured.
//!
//! One run of one workload ends in a [`WorkloadResult`]. The driver's
//! contract is its last line ([`WorkloadResult::contract_line`]); the
//! result document ([`document`]) is what `diff` and `selfcheck` compare
//! and what is committed as a trajectory point.

use std::path::Path;

use crate::json::Json;
use crate::live_burst::{self, Kind};
use crate::stats::Summary;
use crate::trace::{chrome_trace, self_times, Trace};
use crate::workload::{out_dir, repo_root, Ctx, Outcome, THROUGHPUT};
use crate::{host, layers, live_mix, sim_sweep};

/// Every per-layer metric: `(name, unit)`, in reporting order. A traced run
/// reports all of them; a layer that does no work on the workload at hand
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Simulator pipeline, timed through public functions.
    ("event.hold_ns", "ns"),
    ("rng.exp_sample_ns", "ns"),
    ("generators.update_arrival_ns", "ns"),
    ("generators.txn_arrival_ns", "ns"),
    ("controller.events_per_s.UF", "1/s"),
    ("controller.events_per_s.TF", "1/s"),
    ("controller.events_per_s.SU", "1/s"),
    ("controller.events_per_s.OD", "1/s"),
    ("controller.dag_events_per_s", "1/s"),
    ("policy.decision_ns", "ns"),
    ("ready.push_pop_ns", "ns"),
    ("report.to_json_us", "us"),
    ("obs.trace_overhead_frac", "frac"),
    ("update_queue.fifo_churn_ns", "ns"),
    ("update_queue.dedup_churn_ns", "ns"),
    ("update_queue.take_newest_for_ns", "ns"),
    ("dag.delta_ns", "ns"),
    // The ★ ladder of one update, socket to tracker.
    ("server.syscall_ns", "ns"),
    ("protocol.decode_batch_ns", "ns"),
    ("protocol.encode_batch_ns", "ns"),
    ("spsc.push_pop_ns", "ns"),
    ("osqueue.deliver_receive_ns", "ns"),
    ("store.install_ns", "ns"),
    ("staleness.receive_install_ns", "ns"),
    ("clock.now_ns", "ns"),
    ("clock.spin_install_ns", "ns"),
    ("executor.channel_ingest_ns", "ns"),
    ("ladder.sum_ns", "ns"),
    ("ladder.coverage", "frac"),
    ("executor.unattributed_ns", "ns"),
    // Threads and flow control over a round.
    ("executor.cpu_s", "s"),
    ("server.conn_cpu_s", "s"),
    ("wal.cpu_s", "s"),
    ("credit.stalls", "count"),
    ("credit.stall_frac", "frac"),
    // Durability.
    ("wal.append_ns", "ns"),
    ("wal.crc32_mb_s", "MB/s"),
    ("wal.bytes_per_update", "B"),
    ("wal.fsyncs", "count"),
    ("wal.group_max", "count"),
    ("wal.barrier_us", "us"),
    ("snapshot.encode_us", "us"),
    ("snapshot.write_us", "us"),
    ("recovery.replay_ns", "ns"),
    ("recovery.crash_replay_per_s", "1/s"),
    // Executor timing and the monitoring plane.
    ("clock.spin_overshoot_p50_us", "us"),
    ("clock.spin_overshoot_p99_us", "us"),
    ("executor.query_idle_rtt_us", "us"),
    ("server.stats_barrier_us", "us"),
    ("server.metrics_scrape_us", "us"),
    // Context for the mix.
    ("executor.rho_t", "frac"),
    ("executor.rho_u", "frac"),
    ("executor.p_md", "frac"),
    ("executor.fold_low", "frac"),
    ("executor.fold_high", "frac"),
    ("executor.query_p50_us", "us"),
    ("executor.query_p90_us", "us"),
    ("executor.query_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("sim.p_success_gap", "frac"),
    ("sim.p_md_gap", "frac"),
    // What the benchmark's own spans cost.
    ("trace.overhead_frac", "frac"),
];

/// How one run of one workload is configured.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub e2e: Vec<(&'static str, &'static str, Summary)>,
    /// Present for a traced run, in [`PER_LAYER`] order.
    pub per_layer: Option<Vec<(&'static str, &'static str, f64)>>,
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "sim_sweep" => Ok(sim_sweep::run(ctx)),
        "live_drain" => Ok(live_burst::run(ctx, Kind::Drain)),
        "live_durable" => Ok(live_burst::run(ctx, Kind::Durable)),
        "live_mix" => Ok(live_mix::run(ctx)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn print_self_times(trace: &Trace) {
    println!(
        "  {:<16} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in self_times(&trace.spans()) {
        println!(
            "  {name:<16} {count:>8} {:>14.3} {:>14.3}",
            total / 1e3,
            own / 1e3
        );
    }
}

/// Runs one workload. Untraced: the timed rounds, nothing else. Traced:
/// half the time untraced as the reference, half with spans recorded, then
/// the layer ladder; the trace goes to `out/trace-<workload>.json`.
pub fn run(name: &str, args: &RunArgs) -> Result<WorkloadResult, String> {
    let seconds = if args.quick { 1.0 } else { args.seconds };
    let ctx = |seconds: f64, trace: Trace| Ctx {
        seed: args.seed,
        seconds,
        quick: args.quick,
        trace,
    };
    if !args.trace {
        let out = run_workload(name, &ctx(seconds, Trace::detached()))?;
        return Ok(WorkloadResult {
            workload: name.to_string(),
            correct: out.correct(),
            attempted: out.attempted,
            failed: out.failed,
            violations: out.violations,
            e2e: out.e2e,
            per_layer: None,
        });
    }

    let base = run_workload(name, &ctx(seconds / 2.0, Trace::detached()))?;
    let trace = Trace::attached();
    let traced = run_workload(name, &ctx(seconds / 2.0, trace.clone()))?;
    let spans = trace.spans();
    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, chrome_trace(&spans).render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} spans -> {}", spans.len(), path.display());
    print_self_times(&trace);

    let mut found: Vec<(&'static str, &'static str, f64)> = traced.layers.clone();
    let rate = |o: &Outcome| o.e2e_value(THROUGHPUT.0);
    if let (Some(plain), Some(spanned)) = (rate(&base), rate(&traced)) {
        found.push(("trace.overhead_frac", "frac", 1.0 - spanned / plain));
    }
    let drain_rate = (name == "live_drain").then(|| rate(&base)).flatten();
    found.extend(
        layers::ladder(args.seed, args.quick, drain_rate).map_err(|e| format!("ladder: {e}"))?,
    );
    let per_layer = PER_LAYER
        .iter()
        .map(|&(n, unit)| {
            let value = found.iter().find(|(f, _, _)| *f == n).map_or(0.0, |f| f.2);
            (n, unit, value)
        })
        .collect();
    if let Some(stray) = found
        .iter()
        .find(|(f, _, _)| !PER_LAYER.iter().any(|(n, _)| n == f))
    {
        return Err(format!("layer metric `{}` is not declared", stray.0));
    }

    let mut violations = base.violations;
    violations.extend(traced.violations);
    Ok(WorkloadResult {
        workload: name.to_string(),
        correct: violations.is_empty(),
        attempted: base.attempted + traced.attempted,
        failed: base.failed + traced.failed,
        violations,
        // End-to-end values always come from the untraced half.
        e2e: base.e2e,
        per_layer: Some(per_layer),
    })
}

/// Folds several runs of one workload into one result: every end-to-end
/// metric becomes the median of the runs' values, with the p10–p90 range
/// *across runs* — the spread `diff` needs to tell a shift from noise.
pub fn merge_runs(runs: Vec<WorkloadResult>) -> Option<WorkloadResult> {
    let first = runs.first()?;
    let e2e = first
        .e2e
        .iter()
        .map(|&(name, unit, _)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.e2e.iter().find(|(n, _, _)| *n == name))
                .map(|(_, _, s)| s.value)
                .collect();
            (name, unit, Summary::of(&values))
        })
        .collect();
    Some(WorkloadResult {
        workload: first.workload.clone(),
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        violations: runs.iter().flat_map(|r| r.violations.clone()).collect(),
        e2e,
        per_layer: None,
    })
}

impl WorkloadResult {
    /// True when the run produced every metric it owes.
    pub fn complete(&self) -> bool {
        !self.e2e.is_empty()
    }

    /// The one-line JSON the driver reads: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        let mut put = |name: &str, unit: &str, value: f64| {
            let mut m = Json::obj();
            m.set("value", value).set("unit", unit);
            metrics.set(name, m);
        };
        match &self.per_layer {
            Some(layers) => layers.iter().for_each(|(n, u, v)| put(n, u, *v)),
            None => self.e2e.iter().for_each(|(n, u, s)| put(n, u, s.value)),
        }
        let mut line = Json::obj();
        line.set("correct", self.correct)
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics);
        line.render()
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        println!(
            "== {} == correct: {}  ops attempted: {}  failed: {}",
            self.workload, self.correct, self.attempted, self.failed
        );
        for v in &self.violations {
            println!("  CHECK FAILED: {v}");
        }
        for (name, unit, s) in &self.e2e {
            println!(
                "  {name:<34} {:>16.4} {unit:<6} (p10 {:.4}, p90 {:.4}, {} rounds)",
                s.value, s.p10, s.p90, s.rounds
            );
        }
        for (name, unit, v) in self.per_layer.iter().flatten() {
            println!("  {name:<34} {v:>16.4} {unit}");
        }
    }

    fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for (name, unit, s) in &self.e2e {
            e2e.set(name, s.to_json(unit));
        }
        let mut o = Json::obj();
        o.set("correct", self.correct)
            .set("ops_attempted", self.attempted)
            .set("ops_failed", self.failed)
            .set(
                "violations",
                self.violations
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect::<Vec<_>>(),
            )
            .set("end_to_end", e2e);
        if let Some(layers) = &self.per_layer {
            let mut l = Json::obj();
            for (name, unit, v) in layers {
                let mut m = Json::obj();
                m.set("value", *v).set("unit", *unit);
                l.set(name, m);
            }
            o.set("per_layer", l);
        }
        o
    }
}

/// The result document: a host stamp and one entry per workload.
pub fn document(args: &RunArgs, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::obj();
    for r in results {
        workloads.set(&r.workload, r.to_json());
    }
    let mut doc = Json::obj();
    doc.set("schema", "strip-benchmark/1")
        .set("quick", args.quick)
        .set("traced", args.trace)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("host", host::stamp(&repo_root(), &out_dir()))
        .set("workloads", workloads);
    doc
}

pub fn write_document(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
