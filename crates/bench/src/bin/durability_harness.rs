//! Bench-gated durability harness. Prices what crash durability costs the
//! live runtime: the WAL layers in isolation (append to the written
//! watermark, group commit at a real fsync cadence, recovery replay), and
//! end-to-end batched TCP ingest with fold/p(MD) across fsync cadences
//! against the no-WAL baseline — the acceptance gate is `--fsync off` within 5%
//! of that baseline. Writes a machine-readable JSON artefact (default
//! `BENCH_7.json`; first CLI argument overrides the path).
//!
//! Knobs: `PERF_DUR_UPDATES` scales the end-to-end streams (default
//! 50 000), `PERF_DUR_LAYER` the socket-free layers (default 20× that).

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

use std::fmt::Write as _;

use strip_bench::live_perf::{
    layer_group_commit, layer_recovery_replay, layer_wal_append, live_ingest_batched_durable,
    DurableIngest, RateResult,
};
use strip_live::wal::FsyncPolicy;

fn rate_json(out: &mut String, indent: &str, r: &RateResult) {
    let _ = write!(
        out,
        "{indent}{{\n\
         {indent}  \"name\": \"{}\",\n\
         {indent}  \"ops\": {},\n\
         {indent}  \"secs\": {:.6},\n\
         {indent}  \"ops_per_sec\": {:.1},\n\
         {indent}  \"ns_per_op\": {:.2}\n\
         {indent}}}",
        r.name,
        r.ops,
        r.secs,
        r.ops_per_sec(),
        r.ns_per_op(),
    );
}

fn ingest_json(out: &mut String, indent: &str, label: &str, d: &DurableIngest) {
    let _ = write!(
        out,
        "{indent}{{\n\
         {indent}  \"fsync\": \"{label}\",\n\
         {indent}  \"name\": \"{}\",\n\
         {indent}  \"ops\": {},\n\
         {indent}  \"secs\": {:.6},\n\
         {indent}  \"ops_per_sec\": {:.1},\n\
         {indent}  \"ns_per_op\": {:.2},\n\
         {indent}  \"fold_low\": {:.6},\n\
         {indent}  \"fold_high\": {:.6},\n\
         {indent}  \"p_md\": {:.6},\n\
         {indent}  \"wal_appended\": {},\n\
         {indent}  \"wal_fsyncs\": {},\n\
         {indent}  \"wal_group_max\": {}\n\
         {indent}}}",
        d.rate.name,
        d.rate.ops,
        d.rate.secs,
        d.rate.ops_per_sec(),
        d.rate.ns_per_op(),
        d.fold_low,
        d.fold_high,
        d.p_md,
        d.wal_appended,
        d.wal_fsyncs,
        d.wal_group_max,
    );
}

fn print_rate(r: &RateResult, unit: &str) {
    eprintln!(
        "{:<28} {:>14.0} {unit}/s {:>9.2} ns/{unit}",
        r.name,
        r.ops_per_sec(),
        r.ns_per_op(),
    );
}

fn env_scale(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or(default)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_7.json".to_string());
    // Fail before the measurements, not after them, if the artefact path
    // is unwritable.
    if let Err(e) = std::fs::File::create(&out_path) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    let n_updates = env_scale("PERF_DUR_UPDATES", 50_000);
    let n_layer = env_scale("PERF_DUR_LAYER", n_updates.saturating_mul(20));
    let reps = 3;

    eprintln!("# durability layers ({n_layer} records, best of {reps}) …");
    let append = layer_wal_append(n_layer, reps);
    print_rate(&append, "record");
    let group250 = layer_group_commit(n_layer, 250, reps);
    print_rate(&group250, "record");
    let group1000 = layer_group_commit(n_layer, 1_000, reps);
    print_rate(&group1000, "record");
    let replay = layer_recovery_replay(n_layer, reps);
    print_rate(&replay, "record");

    let cadences: [(&str, Option<FsyncPolicy>); 5] = [
        ("none", None),
        ("off", Some(FsyncPolicy::Off)),
        ("group:250us", Some(FsyncPolicy::Group(250))),
        ("group:1000us", Some(FsyncPolicy::Group(1_000))),
        ("always", Some(FsyncPolicy::Always)),
    ];
    // The acceptance gate is measured against a same-machine no-WAL
    // baseline, so machine speed differences vs the committed artefact
    // cancel out.
    let batch = 512;
    eprintln!(
        "# batched ingest (batch {batch}) across fsync cadences ({n_updates} updates, best of {reps}) …"
    );
    let batched_sweeps: Vec<(&str, DurableIngest)> = cadences
        .iter()
        .map(|(label, fsync)| {
            let d = live_ingest_batched_durable(n_updates, batch, *fsync, reps);
            print_rate(&d.rate, "update");
            (*label, d)
        })
        .collect();
    let batched_baseline = batched_sweeps[0].1.rate.ops_per_sec();
    let batched_wal_off = batched_sweeps[1].1.rate.ops_per_sec();
    let batched_off_overhead = 1.0 - batched_wal_off / batched_baseline;
    eprintln!(
        "--fsync off overhead vs batched no-WAL baseline (the gate): {:.2}%",
        batched_off_overhead * 100.0
    );

    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut json = String::new();
    json.push_str("{\n  \"bench\": 7,\n");
    let _ = writeln!(
        json,
        "  \"description\": \"crash durability pricing: WAL layer costs (append to the written \
         watermark with fsync off, group commit at 250us/1000us cadences, recovery replay of a \
         cold segment), and end-to-end batched TCP ingest with fold/p(MD) across fsync cadences vs \
         a same-machine no-WAL baseline (1000x-scaled cost model, \
         StatsRequest written-watermark barrier). Caveat: on a single-CPU host (host_cpus=1) the \
         flusher thread cannot overlap with the executor, so its encode+crc+write cost \
         serializes into the measured rate; on multi-core hosts the steady-state executor-side \
         cost is the raw-record chunk handoff alone.\","
    );
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    json.push_str("  \"layers\": [\n");
    for (i, r) in [&append, &group250, &group1000, &replay].iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        rate_json(&mut json, "    ", r);
    }
    json.push_str("\n  ],\n");
    json.push_str("  \"ingest_batched_by_fsync\": [\n");
    for (i, (label, d)) in batched_sweeps.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        ingest_json(&mut json, "    ", label, d);
    }
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"batch_size\": {batch},");
    let _ = writeln!(
        json,
        "  \"batched_fsync_off_overhead\": {batched_off_overhead:.4}"
    );
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {out_path}");
}
