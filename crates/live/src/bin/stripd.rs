//! `stripd` — the live STRIP server.
//!
//! Binds a TCP listener, runs the wall-clock executor with the requested
//! policy, and serves the binary protocol plus `/metrics` scrapes until a
//! client sends a shutdown frame (or SIGTERM/SIGINT arrives); the final
//! `RunReport` is printed to stdout as JSON.
//!
//! With `--wal DIR` every accepted update is group-committed to an
//! append-only log and the store is snapshotted periodically; after a
//! crash, `--recover` replays the snapshot + WAL tail before the listener
//! binds. See DESIGN.md §14.
//!
//! With `--stripes N` the object space is hash-partitioned across N
//! executor threads, each with its own queues, staleness tracker, and
//! (under `--wal`) its own `stripe-<s>/` WAL directory; recovery replays
//! the stripes independently. See DESIGN.md §15.
//!
//! ```text
//! stripd [--addr 127.0.0.1:7411] [--policy uf|tf|su|od] \
//!        [--staleness ma|uu|either] [--max-age SECS] [--quantum-us US] \
//!        [--n-low N] [--n-high N] [--stripes N] [--warmup SECS] [--seed N] \
//!        [--wal DIR] [--fsync always|group:<us>|off] [--wal-rotate BYTES] \
//!        [--snapshot-secs SECS] [--recover] [--dag DEPTHxWIDTHxFANOUT]
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use strip_core::config::{DagSpec, Policy, SimConfig};
use strip_db::staleness::StalenessSpec;
use strip_live::executor::LiveConfig;
use strip_live::server::serve_recovered;
use strip_live::wal::{DurabilityConfig, FsyncPolicy};
use strip_live::{recovery, signal};

const USAGE: &str = "usage: stripd [--addr A] [--policy uf|tf|su|od] \
     [--staleness ma|uu|either] [--max-age S] [--quantum-us US] \
     [--n-low N] [--n-high N] [--stripes N] [--warmup S] [--seed N] \
     [--wal DIR] [--fsync always|group:<us>|off] [--wal-rotate BYTES] \
     [--snapshot-secs S] [--recover] [--dag DEPTHxWIDTHxFANOUT]";

struct Args {
    addr: String,
    policy: Policy,
    staleness: &'static str,
    max_age: f64,
    quantum_us: u64,
    n_low: u32,
    n_high: u32,
    stripes: u32,
    warmup: f64,
    seed: u64,
    wal_dir: Option<String>,
    fsync: FsyncPolicy,
    wal_rotate: u64,
    snapshot_secs: f64,
    recover: bool,
    dag: Option<DagSpec>,
}

/// Parses a `--dag` value of the form `DEPTHxWIDTHxFANOUT` (e.g. `3x50x3`)
/// into a [`DagSpec`] with the default cost knobs.
fn parse_dag(s: &str) -> Option<DagSpec> {
    let mut it = s.split('x');
    let depth = it.next()?.parse().ok()?;
    let width = it.next()?.parse().ok()?;
    let fanout = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(DagSpec {
        depth,
        width,
        fanout,
        ..DagSpec::default()
    })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7411".to_string(),
        policy: Policy::TransactionsFirst,
        staleness: "ma",
        max_age: 7.0,
        quantum_us: 500,
        n_low: 500,
        n_high: 500,
        stripes: 1,
        warmup: 0.0,
        seed: 0x5712_1995,
        wal_dir: None,
        fsync: FsyncPolicy::Group(1_000),
        wal_rotate: strip_live::wal::DEFAULT_ROTATE_BYTES,
        snapshot_secs: 5.0,
        recover: false,
        dag: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--addr" => args.addr = val()?,
            "--policy" => {
                args.policy = match val()?.as_str() {
                    "uf" => Policy::UpdatesFirst,
                    "tf" => Policy::TransactionsFirst,
                    "su" => Policy::SplitUpdates,
                    "od" => Policy::OnDemand,
                    other => return Err(format!("unknown policy `{other}` (uf|tf|su|od)")),
                }
            }
            "--staleness" => {
                args.staleness = match val()?.as_str() {
                    "ma" => "ma",
                    "uu" => "uu",
                    "either" => "either",
                    other => return Err(format!("unknown staleness `{other}` (ma|uu|either)")),
                }
            }
            "--max-age" => args.max_age = parse_num(&val()?, &flag)?,
            "--quantum-us" => args.quantum_us = parse_num(&val()?, &flag)?,
            "--n-low" => args.n_low = parse_num(&val()?, &flag)?,
            "--n-high" => args.n_high = parse_num(&val()?, &flag)?,
            "--stripes" => args.stripes = parse_num(&val()?, &flag)?,
            "--warmup" => args.warmup = parse_num(&val()?, &flag)?,
            "--seed" => args.seed = parse_num(&val()?, &flag)?,
            "--wal" => args.wal_dir = Some(val()?),
            "--fsync" => {
                let v = val()?;
                args.fsync = FsyncPolicy::parse(&v)
                    .ok_or_else(|| format!("unknown fsync policy `{v}` (always|group:<us>|off)"))?;
            }
            "--wal-rotate" => args.wal_rotate = parse_num(&val()?, &flag)?,
            "--snapshot-secs" => args.snapshot_secs = parse_num(&val()?, &flag)?,
            "--recover" => args.recover = true,
            "--dag" => {
                let v = val()?;
                args.dag = Some(
                    parse_dag(&v)
                        .ok_or_else(|| format!("invalid --dag `{v}` (DEPTHxWIDTHxFANOUT)"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.recover && args.wal_dir.is_none() {
        return Err("--recover requires --wal DIR".to_string());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value `{s}` for {flag}"))
}

fn build_config(a: &Args) -> Result<SimConfig, String> {
    let staleness = match a.staleness {
        "uu" => StalenessSpec::UnappliedUpdate,
        "either" => StalenessSpec::Either { alpha: a.max_age },
        _ => StalenessSpec::MaxAge { alpha: a.max_age },
    };
    SimConfig::builder()
        // Offered load arrives over the wire, not from generators.
        .lambda_u(0.0)
        .lambda_t(0.0)
        .n_low(a.n_low)
        .n_high(a.n_high)
        .stripes(a.stripes)
        .policy(a.policy)
        .staleness(staleness)
        .max_age(a.max_age)
        .warmup(a.warmup)
        .seed(a.seed)
        .dag(a.dag)
        .build()
        .map_err(|e| format!("config: {e}"))
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
    let sim = match build_config(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let quantum = args.quantum_us as f64 * 1e-6;
    let mut cfg = match LiveConfig::with_quantum(sim, quantum) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("live config: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.wal_dir {
        cfg.durability = Some(DurabilityConfig {
            dir: dir.into(),
            fsync: args.fsync,
            rotate_bytes: args.wal_rotate,
            snapshot_secs: args.snapshot_secs,
            recover: args.recover,
        });
    }
    // Recover before binding: a recovering server is never half-visible.
    // Each stripe replays its own snapshot + segment chain.
    let recovered = if args.recover {
        match recovery::recover_all(&cfg) {
            Ok(parts) => {
                if parts.len() == 1 {
                    let r = &parts[0];
                    println!(
                        "stripd recovered: snapshot={} replayed={} discarded={} next_seq={}",
                        if r.snapshot_loaded { "loaded" } else { "none" },
                        r.replayed,
                        r.discarded,
                        r.next_seq
                    );
                } else {
                    for (s, r) in parts.iter().enumerate() {
                        println!(
                            "stripd recovered stripe={s}: snapshot={} replayed={} discarded={} next_seq={}",
                            if r.snapshot_loaded { "loaded" } else { "none" },
                            r.replayed,
                            r.discarded,
                            r.next_seq
                        );
                    }
                }
                Some(parts)
            }
            Err(e) => {
                eprintln!("recover: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let handle = match serve_recovered(&cfg, listener, recovered) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // SIGTERM/SIGINT take the same orderly path as a wire shutdown frame:
    // drain, seal the WAL segment, print the report. kill -9 is the only
    // lossy way to stop the process (and the crash harness exercises it).
    if signal::install() {
        let trigger = handle.shutdown_trigger();
        let _ = std::thread::Builder::new()
            .name("stripd-signal".into())
            .spawn(move || loop {
                if signal::terminated() {
                    trigger.fire();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            });
    }
    println!(
        "stripd listening on {} policy={} staleness={} quantum={}us wal={} fsync={} stripes={} dag={}",
        handle.addr(),
        cfg.sim.policy.label(),
        args.staleness,
        args.quantum_us,
        args.wal_dir.as_deref().unwrap_or("off"),
        args.fsync,
        args.stripes,
        args.dag.map_or_else(
            || "off".to_string(),
            |d| format!("{}x{}x{}", d.depth, d.width, d.fanout)
        )
    );
    match handle.wait() {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server: {e}");
            ExitCode::FAILURE
        }
    }
}
