//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro all                          # every experiment
//! repro fig06 fig14                  # a subset
//! repro tables                       # print Tables 1–3
//! repro all --seconds 200 --seed 7   # faster sweep, different seed
//! repro all --out target/repro       # also export CSV + text
//! repro all --checkpoint target/ckpt # resumable: rerun picks up where a
//!                                    # killed sweep stopped
//! repro trace fig06                  # export Perfetto/CSV traces of one
//!                                    # representative run per policy
//! repro trace telecom --trace out/   # trace a scenario preset elsewhere
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use strip_core::config::{Policy, SimConfig};
use strip_experiments::{
    export_figure, render_parameter_tables, run_trace, Campaign, FigureId, RunSettings,
    SweepRunner, TraceTarget,
};
use strip_obs::TraceConfig;
use strip_workload::run_paper_sim_checked;

struct Args {
    figures: Vec<FigureId>,
    trace_targets: Vec<TraceTarget>,
    report_policies: Vec<Policy>,
    json: bool,
    settings: RunSettings,
    out_dir: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = FigureId::ALL.iter().map(|f| f.name()).collect();
    format!(
        "usage: repro <all|{}> [--seconds N] [--seed N] [--threads N] [--replicas N] [--out DIR] [--checkpoint DIR]\n\
         \u{20}      repro trace <figure|program_trading|plant_control|telecom>... [--seconds N] [--seed N] [--trace DIR]\n\
         \u{20}      repro report <uf|tf|su|od>... [--json] [--seconds N] [--seed N]\n\
         \n\
         Regenerates the evaluation of 'Applying Update Streams in a Soft\n\
         Real-Time Database System' (SIGMOD 1995). Default run length is the\n\
         paper's 1000 simulated seconds per data point (override with\n\
         --seconds or the REPRO_SECONDS environment variable).\n\
         \n\
         With --checkpoint DIR every completed data point is persisted and a\n\
         rerun with the same parameters resumes instead of re-simulating; a\n\
         point that crashes is retried once and then reported, without\n\
         aborting the rest of the campaign.\n\
         \n\
         'repro trace' re-runs one representative configuration of the named\n\
         figure (or scenario preset) per scheduling policy with the flight\n\
         recorder attached, and writes <label>.trace.json (Perfetto /\n\
         chrome://tracing), <label>.records.csv and <label>.gauges.csv under\n\
         --trace DIR (default target/trace). Tracing is observation-only:\n\
         the traced run is bit-identical to the untraced one.\n\
         \n\
         'repro report' runs one paper-baseline simulation per named policy\n\
         and prints its full RunReport; with --json the output is the same\n\
         JSON document a live `stripd` server prints at shutdown and serves\n\
         to `strip-loadgen`, so simulated and live runs diff directly.",
        names.join("|")
    )
}

fn parse_policy(name: &str) -> Result<Policy, String> {
    match name {
        "uf" => Ok(Policy::UpdatesFirst),
        "tf" => Ok(Policy::TransactionsFirst),
        "su" => Ok(Policy::SplitUpdates),
        "od" => Ok(Policy::OnDemand),
        other => Err(format!("unknown policy `{other}` (uf|tf|su|od)")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut trace_targets = Vec::new();
    let mut report_policies = Vec::new();
    let mut trace_mode = false;
    let mut report_mode = false;
    let mut json = false;
    let mut settings = RunSettings::default();
    let mut out_dir = None;
    let mut checkpoint_dir = None;
    let mut trace_dir = PathBuf::from("target/trace");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "trace" if !trace_mode && !report_mode && figures.is_empty() => trace_mode = true,
            "report" if !trace_mode && !report_mode && figures.is_empty() => report_mode = true,
            "--json" if report_mode => json = true,
            "all" if !trace_mode && !report_mode => figures.extend(FigureId::ALL),
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a value")?;
                settings.duration = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if settings.duration <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                settings.seed = v.parse::<u64>().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                settings.threads = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--replicas" => {
                let v = it.next().ok_or("--replicas needs a value")?;
                settings.replicas = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --replicas: {e}"))?
                    .max(1);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out_dir = Some(PathBuf::from(v));
            }
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a value")?;
                checkpoint_dir = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a value")?;
                trace_dir = PathBuf::from(v);
            }
            name if report_mode => report_policies.push(parse_policy(name)?),
            name if trace_mode => trace_targets.push(
                name.parse::<TraceTarget>()
                    .map_err(|e| format!("{e}\n\n{}", usage()))?,
            ),
            name => figures.push(
                name.parse::<FigureId>()
                    .map_err(|e| format!("{e}\n\n{}", usage()))?,
            ),
        }
    }
    if trace_mode && trace_targets.is_empty() {
        return Err(format!(
            "repro trace needs at least one target\n\n{}",
            usage()
        ));
    }
    if report_mode && report_policies.is_empty() {
        return Err(format!(
            "repro report needs at least one policy\n\n{}",
            usage()
        ));
    }
    if figures.is_empty() && trace_targets.is_empty() && report_policies.is_empty() {
        return Err(usage());
    }
    figures.dedup();
    trace_targets.dedup();
    report_policies.dedup();
    Ok(Args {
        figures,
        trace_targets,
        report_policies,
        json,
        settings,
        out_dir,
        checkpoint_dir,
        trace_dir,
    })
}

/// Runs the `repro report` subcommand: one paper-baseline run per policy,
/// printed as the shared `RunReport` JSON (with `--json`) or a one-line
/// summary. The JSON comes from `RunReport::to_json`, the same code path
/// the live server uses for its shutdown report and the loadgen's
/// `ReportRequest` reply.
fn run_report_mode(args: &Args) -> ExitCode {
    for &policy in &args.report_policies {
        let cfg = args.settings.apply(SimConfig {
            policy,
            ..SimConfig::default()
        });
        let report = match run_paper_sim_checked(&cfg) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("# config for {}: {e}", policy.label());
                return ExitCode::FAILURE;
            }
        };
        if args.json {
            println!("{}", report.to_json());
        } else {
            println!(
                "# {} seed={} {}s: committed={}/{} p_md={:.4} fold_l={:.4} fold_h={:.4} av={:.2}",
                report.policy,
                report.seed,
                report.duration,
                report.txns.committed,
                report.txns.arrived,
                report.txns.p_md(),
                report.fold_low,
                report.fold_high,
                report.av(),
            );
        }
    }
    ExitCode::SUCCESS
}

/// Runs the `repro trace` subcommand: one traced run per (target, policy),
/// exported under `args.trace_dir`.
fn run_trace_mode(args: &Args) -> ExitCode {
    println!(
        "# repro trace: {} target(s), {} simulated seconds, seed {}, exporting to {}",
        args.trace_targets.len(),
        args.settings.duration,
        args.settings.seed,
        args.trace_dir.display()
    );
    let mut code = ExitCode::SUCCESS;
    for target in &args.trace_targets {
        let started = std::time::Instant::now();
        match run_trace(
            *target,
            &args.settings,
            TraceConfig::default(),
            &args.trace_dir,
        ) {
            Ok(written) => {
                for path in &written {
                    println!("# wrote {}", path.display());
                }
                println!("# {} traced in {:.1?}", target.name(), started.elapsed());
            }
            Err(e) => {
                eprintln!("# {} failed: {e}", target.name());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if !args.report_policies.is_empty() {
        return run_report_mode(&args);
    }
    if !args.trace_targets.is_empty() {
        return run_trace_mode(&args);
    }
    println!(
        "# repro: {} experiment(s), {} simulated seconds per point, seed {}",
        args.figures.len(),
        args.settings.duration,
        args.settings.seed
    );
    let mut runner = SweepRunner::new();
    if let Some(dir) = &args.checkpoint_dir {
        println!("# checkpointing completed points under {}", dir.display());
        runner = runner.with_checkpoint_dir(dir);
    }
    let mut campaign = Campaign::with_runner(args.settings, runner);
    for id in &args.figures {
        let started = std::time::Instant::now();
        if *id == FigureId::Tables {
            println!("{}", render_parameter_tables());
            continue;
        }
        let panels = campaign.figure(*id);
        for fig in &panels {
            println!("{}", fig.render_ascii());
            if let Some(dir) = &args.out_dir {
                if let Err(e) = export_figure(dir, fig) {
                    eprintln!("warning: could not export {}: {e}", fig.id);
                }
            }
        }
        println!("# {} done in {:.1?}\n", id.name(), started.elapsed());
    }
    if campaign.resumed() > 0 {
        println!(
            "# resumed {} data point(s) from checkpoints",
            campaign.resumed()
        );
    }
    if campaign.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "# {} data point(s) failed twice and were excluded:",
            campaign.failures().len()
        );
        for f in campaign.failures() {
            eprintln!(
                "#   {}[{}] {} after {} attempts: {}",
                f.sweep, f.index, f.label, f.attempts, f.message
            );
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_figure_lists_and_flags() {
        let a = parse(&[
            "fig06",
            "fig14",
            "--seconds",
            "50",
            "--seed",
            "9",
            "--replicas",
            "3",
        ])
        .unwrap();
        assert_eq!(a.figures.len(), 2);
        assert_eq!(a.settings.duration, 50.0);
        assert_eq!(a.settings.seed, 9);
        assert_eq!(a.settings.replicas, 3);
        assert!(a.out_dir.is_none());
    }

    #[test]
    fn all_expands_to_every_experiment() {
        let a = parse(&["all"]).unwrap();
        assert_eq!(a.figures.len(), FigureId::ALL.len());
    }

    #[test]
    fn rejects_unknown_figures_and_bad_flags() {
        assert!(parse(&["fig99"]).is_err());
        assert!(parse(&["fig06", "--seconds", "-3"]).is_err());
        assert!(parse(&["fig06", "--seconds"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn out_dir_is_captured() {
        let a = parse(&["tables", "--out", "/tmp/x"]).unwrap();
        assert_eq!(a.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
    }

    #[test]
    fn trace_mode_parses_targets_and_dir() {
        let a = parse(&["trace", "fig06", "telecom", "--seconds", "20"]).unwrap();
        assert_eq!(a.trace_targets.len(), 2);
        assert!(a.figures.is_empty());
        assert_eq!(a.settings.duration, 20.0);
        assert_eq!(a.trace_dir, std::path::Path::new("target/trace"));

        let a = parse(&["trace", "plant_control", "--trace", "/tmp/tr"]).unwrap();
        assert_eq!(a.trace_dir, std::path::Path::new("/tmp/tr"));

        // Bare `trace`, tables, and unknown targets are rejected.
        assert!(parse(&["trace"]).is_err());
        assert!(parse(&["trace", "tables"]).is_err());
        assert!(parse(&["trace", "fig99"]).is_err());
        // Outside trace mode the scenario names are not figures.
        assert!(parse(&["telecom"]).is_err());
    }

    #[test]
    fn report_mode_parses_policies_and_json_flag() {
        let a = parse(&["report", "tf", "od", "--json", "--seconds", "5"]).unwrap();
        assert_eq!(
            a.report_policies,
            vec![Policy::TransactionsFirst, Policy::OnDemand]
        );
        assert!(a.json);
        assert!(a.figures.is_empty());
        assert_eq!(a.settings.duration, 5.0);

        let a = parse(&["report", "uf"]).unwrap();
        assert!(!a.json);

        // Bare `report`, unknown policies, and figure names are rejected.
        assert!(parse(&["report"]).is_err());
        assert!(parse(&["report", "fx"]).is_err());
        assert!(parse(&["report", "fig06"]).is_err());
        // --json outside report mode is rejected.
        assert!(parse(&["fig06", "--json"]).is_err());
    }

    #[test]
    fn checkpoint_dir_is_captured() {
        let a = parse(&["fig06", "--checkpoint", "/tmp/ck"]).unwrap();
        assert_eq!(
            a.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ck"))
        );
        assert!(parse(&["fig06", "--checkpoint"]).is_err());
        assert!(parse(&["fig06"]).unwrap().checkpoint_dir.is_none());
    }
}
