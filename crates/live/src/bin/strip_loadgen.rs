//! `strip-loadgen` — replay a STRIP workload against a live `stripd`.
//!
//! Builds the same Poisson generators the simulator uses (same seed, same
//! substreams), paces them in real time over TCP, and prints the
//! *server's* aggregate stats plus its full JSON report.
//!
//! ```text
//! strip-loadgen [--addr 127.0.0.1:7411] [--lambda-u R] [--lambda-t R] \
//!               [--duration SECS] [--n-low N] [--n-high N] \
//!               [--mean-update-age S] [--compute-mean S] [--seed N] \
//!               [--shutdown]
//! ```
//!
//! Updates travel in `UpdateBatch` frames under credit-based flow
//! control; with `--shutdown` the loadgen sends a shutdown frame after
//! collecting the report, ending the server run.

// D4, D8 and the unsafe boundary, as in the library (DESIGN.md §11).
#![deny(unsafe_code)]
#![deny(
    clippy::allow_attributes_without_reason,
    clippy::undocumented_unsafe_blocks
)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::net::TcpStream;
use std::process::ExitCode;

use strip_core::config::SimConfig;
use strip_live::loadgen::replay;
use strip_live::protocol::{write_msg, Msg};

const USAGE: &str = "usage: strip-loadgen [--addr A] [--lambda-u R] [--lambda-t R] \
     [--duration S] [--n-low N] [--n-high N] [--mean-update-age S] \
     [--compute-mean S] [--seed N] [--shutdown]";

struct Args {
    addr: String,
    lambda_u: f64,
    lambda_t: f64,
    duration: f64,
    n_low: u32,
    n_high: u32,
    mean_update_age: f64,
    compute_mean: f64,
    seed: u64,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7411".to_string(),
        lambda_u: 200.0,
        lambda_t: 10.0,
        duration: 2.0,
        n_low: 500,
        n_high: 500,
        mean_update_age: 0.5,
        compute_mean: 0.02,
        seed: 0x5712_1995,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--shutdown" {
            args.shutdown = true;
            continue;
        }
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--addr" => args.addr = val,
            "--lambda-u" => args.lambda_u = parse_num(&val, &flag)?,
            "--lambda-t" => args.lambda_t = parse_num(&val, &flag)?,
            "--duration" => args.duration = parse_num(&val, &flag)?,
            "--n-low" => args.n_low = parse_num(&val, &flag)?,
            "--n-high" => args.n_high = parse_num(&val, &flag)?,
            "--mean-update-age" => args.mean_update_age = parse_num(&val, &flag)?,
            "--compute-mean" => args.compute_mean = parse_num(&val, &flag)?,
            "--seed" => args.seed = parse_num(&val, &flag)?,
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value `{s}` for {flag}"))
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match SimConfig::builder()
        .lambda_u(args.lambda_u)
        .lambda_t(args.lambda_t)
        .duration(args.duration)
        .n_low(args.n_low)
        .n_high(args.n_high)
        .mean_update_age(args.mean_update_age)
        .compute_mean(args.compute_mean)
        .warmup(0.0)
        .seed(args.seed)
        .build()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("config: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = match replay(&args.addr, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("replay against {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let s = &summary.stats;
    eprintln!(
        "sent {} updates ({} batch frames) + {} txns in {:.3}s; server: \
         ingested={} applied={} superseded={} shed={} queued={} committed={}/{}",
        summary.sent_updates,
        summary.sent_batches,
        summary.sent_txns,
        summary.elapsed,
        s.ingested,
        s.applied,
        s.superseded,
        s.shed,
        s.queued,
        s.txns_committed,
        s.txns_arrived,
    );
    println!("{}", summary.report_json);
    if args.shutdown {
        match TcpStream::connect(&args.addr) {
            Ok(mut stream) => {
                if let Err(e) = write_msg(&mut stream, &Msg::Shutdown) {
                    eprintln!("shutdown frame: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("shutdown connect: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
