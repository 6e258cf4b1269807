//! `strip-benchmark` — command line.
//!
//! ```text
//! strip-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                     [--quick] [--out FILE]
//! strip-benchmark diff OLD.json NEW.json
//! strip-benchmark selfcheck [--seconds S] [--seed N]
//! strip-benchmark pin
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use strip_benchmark::diff;
use strip_benchmark::json::Json;
use strip_benchmark::report::{self, RunArgs, WorkloadResult};
use strip_benchmark::sim_sweep;
use strip_benchmark::spec::Spec;
use strip_benchmark::workload::{out_dir, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  strip-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  strip-benchmark diff OLD.json NEW.json
  strip-benchmark selfcheck [--seconds S] [--seed N]
  strip-benchmark pin          (rewrite expected/sim_sweep.json after an intended model change)
workloads: sim_sweep live_drain live_durable live_mix (default: all four)";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_flags(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                cli.seed = parse_seed(v).ok_or_else(|| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{v}`"))?,
                );
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(cli)
}

/// The run arguments and workload names the flags ask for.
fn plan<'a>(cli: &'a Cli, spec: &Spec) -> (RunArgs, Vec<&'a str>) {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(spec.run_seconds),
        trace: cli.trace,
        quick: cli.quick,
    };
    let names = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    (args, names)
}

/// Runs the chosen workloads and prints every metric. Returns the results
/// for the caller to file.
fn run_suite(cli: &Cli, spec: &Spec) -> Result<(RunArgs, Vec<WorkloadResult>), String> {
    let (args, names) = plan(cli, spec);
    let mut results = Vec::new();
    for name in names {
        let result = report::run(name, &args)?;
        result.print();
        if !result.complete() {
            return Err(format!(
                "{name}: every round failed its checks; no rate is reported"
            ));
        }
        results.push(result);
    }
    Ok((args, results))
}

fn cmd_run(flags: &[String]) -> Result<ExitCode, String> {
    let cli = parse_flags(flags)?;
    let spec = Spec::load()?;
    let (args, results) = run_suite(&cli, &spec)?;
    let doc = report::document(&args, &results);
    let path = cli.out.clone().unwrap_or_else(|| {
        let what = cli.workload.as_deref().unwrap_or("all");
        out_dir().join(format!("run-{what}.json"))
    });
    report::write_document(&path, &doc)?;
    println!("result document -> {}", path.display());
    // The driver reads the last line of standard output.
    for r in &results {
        println!("{}", r.contract_line());
    }
    Ok(ExitCode::SUCCESS)
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("diff takes OLD.json NEW.json".into());
    };
    let spec = Spec::load()?;
    let comparison = diff::compare(
        &spec,
        &read_doc(Path::new(old))?,
        &read_doc(Path::new(new))?,
    )?;
    diff::print(&comparison);
    Ok(if comparison.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs of each side in `selfcheck`.
const SELFCHECK_PAIRS: usize = 3;

/// Two sets of runs of the same code, taken as alternating pairs workload
/// by workload (a b, b a, a b): the host here drifts by a quarter within
/// minutes, and only sides that saw the same minutes can be held to the
/// bounds. Each side reports the median of its runs.
fn cmd_selfcheck(flags: &[String]) -> Result<ExitCode, String> {
    let cli = parse_flags(flags)?;
    if cli.quick || cli.trace {
        return Err("selfcheck compares full untraced runs".into());
    }
    let spec = Spec::load()?;
    let (args, names) = plan(&cli, &spec);
    let mut sides: [Vec<WorkloadResult>; 2] = [Vec::new(), Vec::new()];
    for name in names {
        let mut runs: [Vec<WorkloadResult>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..SELFCHECK_PAIRS {
            for turn in 0..2 {
                let side = (pair + turn) % 2;
                println!(
                    "---- selfcheck: {name}, pair {pair}, set {} ----",
                    ["a", "b"][side]
                );
                let result = report::run(name, &args)?;
                result.print();
                if !result.correct || !result.complete() {
                    return Err(format!("{name}: output checks failed"));
                }
                runs[side].push(result);
            }
        }
        for (side, runs) in runs.into_iter().enumerate() {
            sides[side].extend(report::merge_runs(runs));
        }
    }
    let docs: Vec<Json> = sides.iter().map(|s| report::document(&args, s)).collect();
    for (doc, side) in docs.iter().zip(["a", "b"]) {
        report::write_document(&out_dir().join(format!("selfcheck-{side}.json")), doc)?;
    }
    let comparison = diff::compare(&spec, &docs[0], &docs[1])?;
    diff::print(&comparison);
    let apart = diff::disagreements(&comparison);
    for r in &apart {
        println!(
            "DISAGREE: {} {} — {:.4} vs {:.4} {} (bound {:.0}%)",
            r.workload,
            r.metric,
            r.old.value,
            r.new.value,
            r.unit,
            r.bound * 100.0
        );
    }
    if apart.is_empty() && comparison.broken.is_empty() {
        println!("selfcheck passed: two sets of runs agree within every bound");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "diff" => cmd_diff(rest),
            "selfcheck" => cmd_selfcheck(rest),
            "pin" => sim_sweep::write_pins()
                .map(|()| ExitCode::SUCCESS)
                .map_err(|e| e.to_string()),
            _ => Err(USAGE.to_string()),
        },
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("strip-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
