//! Crash-isolated, checkpointing sweep execution.
//!
//! One panicking point must not tear down a whole campaign and lose hours
//! of completed work, so [`SweepRunner`] — the one sweep executor — is
//! hardened for long reproduction runs:
//!
//! * every point runs under [`std::panic::catch_unwind`], so a crash is
//!   confined to its own point;
//! * a crashed point is retried once with the same seed (distinguishing a
//!   transient environment fault from a deterministic bug);
//! * points that still fail are recorded as [`PointFailure`]s in the
//!   [`SweepOutcome`] instead of aborting the remaining points;
//! * when a checkpoint directory is configured, every completed point is
//!   serialised to disk, and a rerun of the same sweep resumes from those
//!   files instead of re-simulating.
//!
//! Checkpoints are plain `key value` text (one field per line) so they stay
//! inspectable and diffable. A version header plus a fingerprint of the
//! *complete* [`SimConfig`] (see [`config_fingerprint`]) protect against
//! stale files from a differently-parameterised run: any changed parameter
//! — not just policy/seed/duration — invalidates the checkpoint, and the
//! point is re-simulated.

use std::any::Any;
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use strip_core::config::SimConfig;
use strip_core::report::{RunReport, TimelineWindow, Value};
use strip_workload::run_paper_sim;

use crate::sweep::{run_indexed, RunSettings};

/// The simulation entry point used for each point. Injectable so tests can
/// substitute a run function that panics on chosen configurations.
pub type RunFn = Arc<dyn Fn(&SimConfig) -> RunReport + Send + Sync>;

/// One point that panicked on both its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Sweep namespace the point belonged to (the memoisation key).
    pub sweep: String,
    /// Expanded job index within the sweep (replica-expanded order).
    pub index: usize,
    /// Human-readable point identity (policy label and seed).
    pub label: String,
    /// Attempts made (always 2: the initial run plus one same-seed retry).
    pub attempts: u32,
    /// Panic payload of the final attempt.
    pub message: String,
}

/// Result of a crash-isolated sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Per-configuration replica sets in input order. Replicas whose runs
    /// failed are omitted from their set; a point where every replica failed
    /// yields an empty set.
    pub replica_sets: Vec<Vec<RunReport>>,
    /// Points that panicked twice, in job-index order.
    pub failures: Vec<PointFailure>,
    /// Points satisfied from checkpoint files instead of simulation.
    pub resumed: usize,
}

/// Crash-isolated sweep driver. See the module docs for semantics.
#[derive(Clone)]
pub struct SweepRunner {
    checkpoint_dir: Option<PathBuf>,
    run: RunFn,
}

impl fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepRunner")
            .field("checkpoint_dir", &self.checkpoint_dir)
            .finish_non_exhaustive()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner {
            checkpoint_dir: None,
            run: Arc::new(run_paper_sim),
        }
    }
}

impl SweepRunner {
    /// A runner with no checkpointing that executes the paper simulation.
    #[must_use]
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Persists every completed point under `dir` and resumes from any
    /// matching checkpoint already there.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Substitutes the per-point run function (test hook for fault
    /// injection).
    #[must_use]
    pub fn with_run_fn(mut self, run: RunFn) -> Self {
        self.run = run;
        self
    }

    /// The configured checkpoint directory, if any.
    #[must_use]
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Runs every configuration under `settings.replicas` seeds — replica `r`
    /// with `cfg.seed.wrapping_add(r)`, so replica 0 is bit-identical to the
    /// unreplicated run — and executes every job crash-isolated.
    ///
    /// `sweep` namespaces the checkpoint files so distinct sweeps sharing a
    /// directory cannot collide.
    #[must_use]
    pub fn run_replicated(
        &self,
        settings: &RunSettings,
        sweep: &str,
        configs: Vec<SimConfig>,
    ) -> SweepOutcome {
        let replicas = settings.replicas.max(1);
        if configs.is_empty() {
            return SweepOutcome::default();
        }
        if let Some(dir) = &self.checkpoint_dir {
            // Best-effort: an unwritable directory degrades to a plain run.
            let _ = std::fs::create_dir_all(dir);
        }
        let mut jobs = Vec::with_capacity(configs.len() * replicas);
        for cfg in &configs {
            for rep in 0..replicas {
                let mut c = cfg.clone();
                c.seed = c.seed.wrapping_add(rep as u64);
                jobs.push(c);
            }
        }
        let workers = settings.worker_count(jobs.len());
        let failures = Mutex::new(Vec::new());
        let resumed = AtomicUsize::new(0);
        let results: Vec<Option<RunReport>> = run_indexed(jobs.len(), workers, |i| {
            let Some(cfg) = jobs.get(i) else {
                // run_indexed only hands out indices < jobs.len().
                return None;
            };
            if let Some(report) = self.load_checkpoint(sweep, i, cfg) {
                resumed.fetch_add(1, Ordering::Relaxed);
                return Some(report);
            }
            let mut message = String::new();
            for _attempt in 0..2 {
                match catch_unwind(AssertUnwindSafe(|| (self.run)(cfg))) {
                    Ok(report) => {
                        self.store_checkpoint(sweep, i, cfg, &report);
                        return Some(report);
                    }
                    Err(payload) => message = panic_message(payload.as_ref()),
                }
            }
            // A panic while another worker held the lock only poisons the
            // Vec push, which cannot leave it inconsistent: recover the
            // guard rather than cascading the panic through the sweep.
            failures
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(PointFailure {
                    sweep: sweep.to_string(),
                    index: i,
                    label: format!("{} seed={:#x}", cfg.policy.label(), cfg.seed),
                    attempts: 2,
                    message,
                });
            None
        });
        let mut failures = failures
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        failures.sort_by_key(|f| f.index);
        let replica_sets = results
            .chunks(replicas)
            .map(|chunk| chunk.iter().filter_map(Clone::clone).collect())
            .collect();
        SweepOutcome {
            replica_sets,
            failures,
            resumed: resumed.into_inner(),
        }
    }

    fn checkpoint_path(&self, sweep: &str, index: usize) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("{sweep}-{index:04}.ckpt")))
    }

    /// Loads a completed point, rejecting checkpoints whose stored
    /// [`config_fingerprint`] does not match the configuration being
    /// resumed — e.g. files left by a run with a different `--seconds`,
    /// `--seed`, or *any* other simulation parameter. The legacy identity
    /// fields (policy/seed/duration) are still cross-checked as a
    /// belt-and-braces guard against hand-edited files.
    fn load_checkpoint(&self, sweep: &str, index: usize, cfg: &SimConfig) -> Option<RunReport> {
        let path = self.checkpoint_path(sweep, index)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let Some(report) = parse_report(&text) else {
            let found = text.lines().next().unwrap_or("").trim_end();
            if found.starts_with("strip-checkpoint") && found != CHECKPOINT_HEADER {
                eprintln!(
                    "# checkpoint {}: version mismatch (found \"{found}\", \
                     expected \"{CHECKPOINT_HEADER}\"); re-running point",
                    path.display()
                );
            }
            return None;
        };
        let expected = config_fingerprint(cfg);
        let stored = text
            .lines()
            .find_map(|l| l.strip_prefix("config_fingerprint "))
            .and_then(|v| u64::from_str_radix(v.trim_end(), 16).ok());
        match stored {
            None => {
                eprintln!(
                    "# checkpoint {}: no config fingerprint; re-running point",
                    path.display()
                );
                return None;
            }
            Some(got) if got != expected => {
                eprintln!(
                    "# checkpoint {}: config fingerprint {got:016x} does not match \
                     the resumed configuration ({expected:016x}) — a simulation \
                     parameter changed; re-running point",
                    path.display()
                );
                return None;
            }
            Some(_) => {}
        }
        let matches = report.policy == cfg.policy.label()
            && report.seed == cfg.seed
            && (report.duration - cfg.duration).abs() < 1e-9;
        if !matches {
            eprintln!(
                "# checkpoint {}: identity fields disagree with the fingerprinted \
                 config; re-running point",
                path.display()
            );
        }
        matches.then_some(report)
    }

    /// Persists a completed point atomically (write-then-rename), so a kill
    /// mid-write leaves either no checkpoint or a complete one. The full
    /// config fingerprint rides along as an extra `key value` line (ignored
    /// by [`parse_report`], checked on resume).
    fn store_checkpoint(&self, sweep: &str, index: usize, cfg: &SimConfig, report: &RunReport) {
        let Some(path) = self.checkpoint_path(sweep, index) else {
            return;
        };
        let mut text = serialize_report(report);
        let _ = writeln!(text, "config_fingerprint {:016x}", config_fingerprint(cfg));
        let tmp = path.with_extension("ckpt.tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// A 64-bit FNV-1a fingerprint of the *complete* configuration, taken over
/// its `Debug` form (every `SimConfig` field derives `Debug`, and floats
/// render in shortest-round-trip form, so two configs fingerprint equal iff
/// every parameter is bit-identical). Stored in each checkpoint and checked
/// on resume, so changing any parameter — `lambda_u`, queue bounds, cost
/// model, staleness criterion, … — invalidates old checkpoints instead of
/// silently serving results from a different experiment.
///
/// The hash itself lives in [`strip_core::fingerprint`] so the live
/// runtime's WAL segments and snapshots can carry the identical identity
/// without depending on this crate; this re-export keeps the historic
/// checkpoint API in place.
pub use strip_core::fingerprint::config_fingerprint;

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- checkpoint format ------------------------------------------------------
//
// One `key value` pair per line; floats are written in shortest round-trip
// form, so parse(serialize(r)) == r bit-for-bit. The labels and folds come
// first, then every row of the `RunReport` field table under its
// `section.field` key (so a field added to the table is checkpointed with no
// edit here), then `resilience.recovery_secs` when present, then one
// `timeline t finished committed fresh` line per window, in order.
//
// v3: the body walks the report field table, which brought in the `dag.*`
// and WAL-rotation keys that the hand-listed v2 body never wrote. Files of
// an older version fail the header check and the point is re-run.
const CHECKPOINT_HEADER: &str = "strip-checkpoint v3";

/// Serialises a report to the checkpoint text form.
#[must_use]
pub fn serialize_report(r: &RunReport) -> String {
    let mut s = String::with_capacity(4096);
    let _ = writeln!(s, "{CHECKPOINT_HEADER}");
    let mut kv = |k: &str, v: &dyn fmt::Display| {
        let _ = writeln!(s, "{k} {v}");
    };
    kv("policy", &r.policy);
    kv("seed", &r.seed);
    kv("duration", &r.duration);
    kv("warmup", &r.warmup);
    kv("fold_low", &r.fold_low);
    kv("fold_high", &r.fold_high);
    for (section, (name, _, value)) in r.scalars() {
        kv(&format!("{section}.{name}"), &value);
    }
    if let Some(rec) = r.resilience.recovery_secs {
        kv("resilience.recovery_secs", &rec);
    }
    for w in &r.timeline {
        kv(
            "timeline",
            &format!(
                "{} {} {} {}",
                w.t_start, w.finished, w.committed, w.committed_fresh
            ),
        );
    }
    s
}

/// Parses the checkpoint text form back into a report. Returns `None` on any
/// missing field, malformed line, or version mismatch — callers treat that
/// as "no checkpoint" and re-run the point.
#[must_use]
pub fn parse_report(text: &str) -> Option<RunReport> {
    let mut lines = text.lines();
    if lines.next()?.trim_end() != CHECKPOINT_HEADER {
        return None;
    }
    let mut map: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
    let mut timeline = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once(' ')?;
        if key == "timeline" {
            let mut it = value.split(' ');
            timeline.push(TimelineWindow {
                t_start: it.next()?.parse().ok()?,
                finished: it.next()?.parse().ok()?,
                committed: it.next()?.parse().ok()?,
                committed_fresh: it.next()?.parse().ok()?,
            });
        } else {
            map.insert(key, value);
        }
    }
    let f = |k: &str| -> Option<f64> { map.get(k)?.parse().ok() };
    let mut r = RunReport {
        policy: (*map.get("policy")?).to_string(),
        seed: map.get("seed")?.parse().ok()?,
        duration: f("duration")?,
        warmup: f("warmup")?,
        fold_low: f("fold_low")?,
        fold_high: f("fold_high")?,
        timeline,
        ..RunReport::default()
    };
    let rows: Option<Vec<Value>> = r
        .scalars()
        .map(|(section, (name, rule, _))| {
            rule.parse(map.get(format!("{section}.{name}").as_str())?)
        })
        .collect();
    r.set_scalars(rows?);
    if map.contains_key("resilience.recovery_secs") {
        r.resilience.recovery_secs = Some(f("resilience.recovery_secs")?);
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use strip_core::config::Policy;
    use strip_core::report::Rule;

    /// A report built by walking the field table: row `i` holds `i + 1`
    /// (counters) or `(i + 1) / 7` (reals), so every row — including ones
    /// added after this test was written — has a distinct non-default value.
    fn sample_report() -> RunReport {
        let mut r = RunReport {
            policy: "TF".into(),
            seed: 0xDEAD_BEEF,
            duration: 51.5,
            warmup: 5.25,
            fold_low: 0.123_456_789_012_345,
            fold_high: 1.0 / 3.0,
            ..RunReport::default()
        };
        let rows: Vec<Value> = (1u64..)
            .zip(r.scalars())
            .map(|(row, (_, (_, rule, _)))| match rule {
                Rule::Count => Value::Count(row),
                Rule::Real => Value::Real(row as f64 / 7.0),
            })
            .collect();
        r.set_scalars(rows);
        r.resilience.recovery_secs = Some(std::f64::consts::PI);
        r.timeline = vec![
            TimelineWindow {
                t_start: 0.0,
                finished: 10,
                committed: 9,
                committed_fresh: 8,
            },
            TimelineWindow {
                t_start: 12.5,
                finished: 11,
                committed: 7,
                committed_fresh: 5,
            },
        ];
        r
    }

    fn fake_run() -> RunFn {
        Arc::new(|cfg: &SimConfig| RunReport {
            policy: cfg.policy.label().to_string(),
            seed: cfg.seed,
            duration: cfg.duration,
            ..RunReport::default()
        })
    }

    fn configs(n: usize) -> Vec<SimConfig> {
        (0..n)
            .map(|i| {
                SimConfig::builder()
                    .policy(Policy::PAPER_SET[i % 4])
                    .duration(2.0)
                    .seed(40 + i as u64 * 10)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "strip-runner-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_round_trips_bit_for_bit() {
        let r = sample_report();
        assert!(r
            .scalars()
            .all(|(_, (_, _, v))| v != Value::Count(0) && v != Value::Real(0.0)));
        let text = serialize_report(&r);
        assert!(
            text.contains("\ndag.od_refreshes ") && text.contains("\ndurability.wal_rotations ")
        );
        let parsed = parse_report(&text).expect("parse");
        assert_eq!(parsed, r);
        // No recovery and no timeline also round-trip.
        let plain = RunReport {
            policy: "UF".into(),
            ..RunReport::default()
        };
        assert_eq!(parse_report(&serialize_report(&plain)), Some(plain));
    }

    #[test]
    fn parse_rejects_garbage_and_missing_fields() {
        assert!(parse_report("").is_none());
        assert!(parse_report("strip-checkpoint v0\npolicy UF\n").is_none());
        // Older checkpoints are rejected wholesale by the version bump, even
        // when their body would otherwise parse.
        let full = serialize_report(&sample_report());
        let v2 = full.replace(CHECKPOINT_HEADER, "strip-checkpoint v2");
        assert!(parse_report(&v2).is_none());
        let truncated: String = full.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(parse_report(&truncated).is_none());
        // Every table row is required, and a malformed value is not a zero.
        let without_row: String = full
            .lines()
            .filter(|l| !l.starts_with("durability.wal_rotations "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_report(&without_row).is_none());
        let recovery = format!("resilience.recovery_secs {}", std::f64::consts::PI);
        assert!(full.contains(&recovery));
        assert!(parse_report(&full.replace(&recovery, "resilience.recovery_secs soon")).is_none());
    }

    #[test]
    fn config_fingerprint_covers_every_parameter() {
        let base = configs(1).remove(0);
        let same = configs(1).remove(0);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&same));
        // Parameters outside the legacy policy/seed/duration identity must
        // still change the fingerprint.
        let mut lam = base.clone();
        lam.lambda_u += 1.0;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&lam));
        let mut uq = base.clone();
        uq.uq_max = 17;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&uq));
        let mut cost = base.clone();
        cost.costs.x_scan += 1.0;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&cost));
    }

    #[test]
    fn panicking_point_is_retried_recorded_and_isolated() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in_run = Arc::clone(&calls);
        let run: RunFn = Arc::new(move |cfg: &SimConfig| {
            calls_in_run.fetch_add(1, Ordering::Relaxed);
            assert!(cfg.seed != 50, "injected crash for seed 50");
            RunReport {
                policy: cfg.policy.label().to_string(),
                seed: cfg.seed,
                duration: cfg.duration,
                ..RunReport::default()
            }
        });
        let runner = SweepRunner::new().with_run_fn(run);
        let settings = RunSettings::quick(2.0);
        let out = runner.run_replicated(&settings, "iso", configs(3));
        // Point 1 (seed 50) fails twice; the other points survive.
        assert_eq!(out.replica_sets.len(), 3);
        assert_eq!(out.replica_sets[0].len(), 1);
        assert!(out.replica_sets[1].is_empty());
        assert_eq!(out.replica_sets[2].len(), 1);
        assert_eq!(out.failures.len(), 1);
        let fail = &out.failures[0];
        assert_eq!(fail.index, 1);
        assert_eq!(fail.attempts, 2);
        assert!(fail.message.contains("seed 50"), "got: {}", fail.message);
        assert_eq!(fail.sweep, "iso");
        // 2 good points + 2 attempts on the crashing one.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn flaky_point_succeeds_on_retry() {
        let first = Arc::new(AtomicU64::new(1));
        let first_in_run = Arc::clone(&first);
        let run: RunFn = Arc::new(move |cfg: &SimConfig| {
            if cfg.seed == 50 && first_in_run.swap(0, Ordering::Relaxed) == 1 {
                panic!("transient fault");
            }
            RunReport {
                policy: cfg.policy.label().to_string(),
                seed: cfg.seed,
                duration: cfg.duration,
                ..RunReport::default()
            }
        });
        let runner = SweepRunner::new().with_run_fn(run);
        let out = runner.run_replicated(&RunSettings::quick(2.0), "flaky", configs(2));
        assert!(out.failures.is_empty());
        assert_eq!(out.replica_sets[1].len(), 1);
        assert_eq!(out.replica_sets[1][0].seed, 50);
    }

    #[test]
    fn checkpoints_resume_without_resimulating() {
        let dir = temp_dir("resume");
        let settings = RunSettings::quick(2.0);
        let runner = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(fake_run());
        let first = runner.run_replicated(&settings, "ckpt", configs(3));
        assert_eq!(first.resumed, 0);
        assert!(first.failures.is_empty());
        // Second pass: the run function refuses to work, so every point must
        // come from disk.
        let poisoned: RunFn = Arc::new(|_: &SimConfig| panic!("should have resumed"));
        let second = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(poisoned)
            .run_replicated(&settings, "ckpt", configs(3));
        assert_eq!(second.resumed, 3);
        assert!(second.failures.is_empty());
        assert_eq!(second.replica_sets, first.replica_sets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_non_identity_param_invalidates_checkpoints() {
        // Regression: v1 checkpoints keyed identity on policy/seed/duration
        // only, so changing e.g. the update arrival rate silently resumed
        // results from the *old* experiment. The fingerprint catches it.
        let dir = temp_dir("fingerprint");
        let runner = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(fake_run());
        let settings = RunSettings::quick(2.0);
        let first = runner.run_replicated(&settings, "fp", configs(2));
        assert_eq!(first.resumed, 0);
        // Same policy/seed/duration, different lambda_u: must re-simulate.
        let mut changed = configs(2);
        for c in &mut changed {
            c.lambda_u += 5.0;
        }
        let out = runner.run_replicated(&settings, "fp", changed.clone());
        assert_eq!(
            out.resumed, 0,
            "stale checkpoint served for a changed config"
        );
        assert!(out.failures.is_empty());
        // The re-run overwrote the checkpoints; an identical third pass now
        // resumes all points from disk.
        let poisoned: RunFn = Arc::new(|_: &SimConfig| panic!("should have resumed"));
        let third = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(poisoned)
            .run_replicated(&settings, "fp", changed);
        assert_eq!(third.resumed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoints_are_ignored() {
        let dir = temp_dir("stale");
        let runner = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(fake_run());
        let settings = RunSettings::quick(2.0);
        let _ = runner.run_replicated(&settings, "mix", configs(2));
        // Same sweep name, different seed: identities no longer match.
        let mut moved = configs(2);
        for c in &mut moved {
            c.seed += 1;
        }
        let out = runner.run_replicated(&settings, "mix", moved);
        assert_eq!(out.resumed, 0);
        assert_eq!(out.replica_sets[0][0].seed, 41);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn order_and_results_do_not_depend_on_the_thread_count() {
        // Real simulations, two seeds each.
        let mut settings = RunSettings::quick(2.0);
        settings.replicas = 2;
        let runner = SweepRunner::new();
        let sequential = runner.run_replicated(&settings, "seq", configs(6));
        settings.threads = 4;
        let parallel = runner.run_replicated(&settings, "par", configs(6));
        assert_eq!(sequential.replica_sets, parallel.replica_sets);
        assert!(parallel.failures.is_empty());
        for (cfg, reps) in configs(6).iter().zip(&parallel.replica_sets) {
            assert_eq!(reps[0].policy, cfg.policy.label());
            assert_eq!(reps[1].seed, cfg.seed + 1);
        }
        let empty = runner.run_replicated(&settings, "none", Vec::new());
        assert!(empty.replica_sets.is_empty());
    }

    #[test]
    fn replicas_run_with_consecutive_seeds() {
        let mut settings = RunSettings::quick(2.0);
        settings.replicas = 3;
        let runner = SweepRunner::new().with_run_fn(fake_run());
        let out = runner.run_replicated(&settings, "reps", configs(2));
        assert_eq!(out.replica_sets.len(), 2);
        for (i, reps) in out.replica_sets.iter().enumerate() {
            assert_eq!(reps.len(), 3);
            for (rep, r) in reps.iter().enumerate() {
                assert_eq!(r.seed, 40 + i as u64 * 10 + rep as u64);
            }
        }
    }
}
