//! The program's output, held against `BENCHMARK.json`.
//!
//! Runs the real binary in `--quick` smoke mode (a few seconds) and checks
//! the three things a reader of the numbers relies on: the contract file
//! itself is well-formed, every metric it declares is reported exactly once
//! with the declared unit, and smoke numbers are stamped so `diff` refuses
//! them.

use std::path::PathBuf;
use std::process::Command;

use strip_benchmark::json::Json;
use strip_benchmark::report::PER_LAYER;
use strip_benchmark::spec::Spec;
use strip_benchmark::workload::{out_dir, repo_root, WORKLOADS};

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn contract() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_keeps_to_its_contract() {
    let doc = contract();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let spec = Spec::load().expect("spec");
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    assert_eq!(
        spec.workloads, WORKLOADS,
        "workloads as the program names them"
    );
    for w in doc.get("workloads").expect("workloads").as_arr() {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }
    let paths = doc.get("paths").expect("paths").as_arr();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));

    let mut seen = std::collections::BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(name_ok(&m.name), "name {}", m.name);
        assert!(unit_ok(&m.unit), "unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
    }
    for w in &spec.workloads {
        assert!(name_ok(w) && seen.insert(w.clone()), "workload name {w}");
    }
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec.e2e("setup_s").expect("setup_s is required");
    assert!(setup.unit == "s" && !setup.higher_is_better);

    // The program's own table and the contract name the same layer metrics.
    let declared: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(declared, PER_LAYER);
}

fn run_quick(extra: &[&str], out: &str) -> (Json, Vec<Json>) {
    let path: PathBuf = out_dir().join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_strip-benchmark"))
        .args(["run", "--quick", "--out"])
        .arg(&path)
        .args(extra)
        .output()
        .expect("run the benchmark");
    assert!(
        output.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("contract line parses"))
        .collect();
    assert!(
        stdout.lines().last().is_some_and(|l| l.starts_with('{')),
        "the last line of standard output must be the result"
    );
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("result document"))
        .expect("result document parses");
    let _ = std::fs::remove_file(&path);
    (doc, lines)
}

fn check_contract_line(line: &Json, want: &[(&str, &str)]) {
    let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert!(line
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = line.get("metrics").expect("metrics").fields();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.as_str(),
                v.get("unit").and_then(Json::as_str).expect("unit"),
            )
        })
        .collect();
    assert_eq!(got, want, "metrics reported vs declared");
    for (name, v) in metrics {
        let value = v.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{name} has no finite value"
        );
    }
}

#[test]
fn quick_run_reports_every_declared_metric_once() {
    let spec = Spec::load().expect("spec");
    let e2e: Vec<(&str, &str)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();

    let (doc, lines) = run_quick(&[], "schema-test-all.json");
    assert_eq!(lines.len(), WORKLOADS.len(), "one result line per workload");
    for line in &lines {
        check_contract_line(line, &e2e);
        for (name, m) in line.get("metrics").expect("metrics").fields() {
            assert!(
                m.get("value").and_then(Json::as_f64) != Some(0.0),
                "end-to-end metric {name} read 0"
            );
        }
    }
    assert_eq!(
        doc.get("quick").and_then(Json::as_bool),
        Some(true),
        "smoke stamp"
    );
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("strip-benchmark/1")
    );
    for key in ["nproc", "cpu_model", "kernel", "rustc", "git_sha", "wal_fs"] {
        assert!(
            doc.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }
    for w in WORKLOADS {
        let entry = doc.get("workloads").and_then(|x| x.get(w)).expect(w);
        assert!(entry.get("ops_attempted").and_then(Json::as_f64).is_some());
        assert_eq!(entry.get("ops_failed").and_then(Json::as_f64), Some(0.0));
        let reported = entry.get("end_to_end").expect("end_to_end").fields();
        assert_eq!(reported.len(), e2e.len(), "{w}: every metric exactly once");
        for ((name, m), (want, unit)) in reported.iter().zip(&e2e) {
            assert_eq!(name, want);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            for k in ["value", "p10", "p90", "rounds"] {
                assert!(m.get(k).and_then(Json::as_f64).is_some(), "{w}.{name}.{k}");
            }
        }
    }

    // A traced run reports the per-layer set instead, and leaves a trace.
    let (_, lines) = run_quick(
        &["--workload", "live_drain", "--trace", "1"],
        "schema-test-trace.json",
    );
    assert_eq!(lines.len(), 1);
    check_contract_line(&lines[0], PER_LAYER);
    let trace =
        std::fs::read_to_string(out_dir().join("trace-live_drain.json")).expect("trace file");
    let events = Json::parse(&trace).expect("trace parses");
    let names: std::collections::BTreeSet<&str> = events
        .get("traceEvents")
        .expect("traceEvents")
        .as_arr()
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for span in [
        "setup",
        "generate",
        "encode",
        "socket_write",
        "barrier_wait",
        "query_rtt",
        "shutdown",
    ] {
        assert!(names.contains(span), "trace has no `{span}` span");
    }
}
