//! `diff OLD NEW` and the agreement test behind `selfcheck`.
//!
//! Directions and bounds come from `BENCHMARK.json`. A metric whose value
//! worsened by more than its bound is a **regression** when the two
//! p10–p90 ranges stand clear of each other, and **unresolved** when they
//! overlap: the spread of the rounds is then wider than the shift, and the
//! honest report is "cannot tell", not "unchanged" and not "worse". A
//! metric within its bound is likewise unresolved when either side's
//! spread exceeds the bound — unless every round of the new side reads
//! better than every round of the old.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub old: Summary,
    pub new: Summary,
    /// Relative change in the metric's bad direction.
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// `new`'s whole range is on the better (or worse) side of `old`'s.
fn clear_of(m: &MetricSpec, old: &Summary, new: &Summary, better: bool) -> bool {
    if m.higher_is_better == better {
        new.p10 > old.p90
    } else {
        new.p90 < old.p10
    }
}

fn relative_spread(s: &Summary) -> f64 {
    (s.p90 - s.p10) / s.value.abs().max(f64::MIN_POSITIVE)
}

pub fn judge(m: &MetricSpec, old: &Summary, new: &Summary) -> (f64, Verdict) {
    let bound = m.bound.unwrap_or(0.0);
    let w = m.worsening(old.value, new.value);
    let verdict = if w > bound {
        if clear_of(m, old, new, false) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if clear_of(m, old, new, true) {
        if -w > bound {
            Verdict::Improved
        } else {
            Verdict::Ok
        }
    } else if relative_spread(old).max(relative_spread(new)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (w, verdict)
}

fn workload_entry<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)
}

fn failed_share(entry: &Json) -> f64 {
    let n = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    n("ops_failed") / n("ops_attempted").max(1.0)
}

fn comparable(doc: &Json, which: &str) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("strip-benchmark/1") {
        return Err(format!("{which}: not a strip-benchmark/1 document"));
    }
    if doc.get("quick").and_then(Json::as_bool) == Some(true) {
        return Err(format!(
            "{which}: taken with --quick; smoke numbers are not comparable"
        ));
    }
    Ok(())
}

/// What `diff` found.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed-op share rose, or that became incorrect.
    pub broken: Vec<String>,
    /// `old` and `new` were taken on different hosts.
    pub host_differs: bool,
}

impl Comparison {
    /// A regression, or more failed operations: `diff` exits non-zero.
    pub fn failed(&self) -> bool {
        !self.broken.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regression)
    }
}

/// Compares every end-to-end metric of every workload present in both
/// documents.
pub fn compare(spec: &Spec, old: &Json, new: &Json) -> Result<Comparison, String> {
    comparable(old, "OLD")?;
    comparable(new, "NEW")?;
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    for workload in &spec.workloads {
        let (Some(o), Some(n)) = (workload_entry(old, workload), workload_entry(new, workload))
        else {
            continue;
        };
        if failed_share(n) > failed_share(o) {
            broken.push(format!(
                "{workload}: failed-op share rose from {:.3e} to {:.3e}",
                failed_share(o),
                failed_share(n)
            ));
        }
        if n.get("correct").and_then(Json::as_bool) == Some(false) {
            broken.push(format!("{workload}: output checks failed in NEW"));
        }
        for m in &spec.end_to_end {
            let side = |e: &Json| {
                e.get("end_to_end")
                    .and_then(|x| x.get(&m.name))
                    .and_then(Summary::from_json)
            };
            let (Some(os), Some(ns)) = (side(o), side(n)) else {
                broken.push(format!("{workload}: `{}` missing on one side", m.name));
                continue;
            };
            let (worsening, verdict) = judge(m, &os, &ns);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                old: os,
                new: ns,
                worsening,
                bound: m.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two documents share no workload".into());
    }
    let host = |d: &Json| {
        d.get("host").map(|h| {
            ["nproc", "cpu_model", "kernel"].map(|k| h.get(k).map(Json::render).unwrap_or_default())
        })
    };
    Ok(Comparison {
        rows,
        broken,
        host_differs: host(old) != host(new),
    })
}

pub fn print(c: &Comparison) {
    if c.host_differs {
        println!("note: the two documents were taken on different hosts");
    }
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "old", "new", "worse by", "bound"
    );
    for r in &c.rows {
        println!(
            "{:<13} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.old.value,
            r.new.value,
            r.worsening * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Unresolved => "unresolved (ranges overlap)",
                Verdict::Regression => "REGRESSION",
            }
        );
    }
    for b in &c.broken {
        println!("FAILED: {b}");
    }
}

/// `selfcheck`: two runs of the same code agree when no value differs from
/// the other by more than the metric's bound, in either direction.
pub fn disagreements(c: &Comparison) -> Vec<&Row> {
    c.rows
        .iter()
        .filter(|r| {
            let back =
                (r.old.value - r.new.value).abs() / r.new.value.abs().max(f64::MIN_POSITIVE);
            r.worsening.abs() > r.bound || back > r.bound
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    fn s(value: f64, p10: f64, p90: f64) -> Summary {
        Summary {
            value,
            p10,
            p90,
            rounds: 5,
        }
    }

    #[test]
    fn clear_drop_is_a_regression_and_overlap_is_unresolved() {
        let m = metric(true);
        assert_eq!(
            judge(&m, &s(100.0, 98.0, 102.0), &s(80.0, 78.0, 82.0)).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(&m, &s(100.0, 70.0, 130.0), &s(80.0, 60.0, 110.0)).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn within_bound_is_ok_unless_the_spread_hides_it() {
        let m = metric(false);
        assert_eq!(
            judge(&m, &s(100.0, 98.0, 102.0), &s(104.0, 102.0, 106.0)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&m, &s(100.0, 80.0, 120.0), &s(104.0, 85.0, 125.0)).1,
            Verdict::Unresolved
        );
        // Every new round better than every old round: resolved, improved.
        assert_eq!(
            judge(&m, &s(100.0, 80.0, 120.0), &s(60.0, 50.0, 70.0)).1,
            Verdict::Improved
        );
    }

    fn doc(quick: bool, value: f64, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema": "strip-benchmark/1", "quick": {quick},
                "host": {{"nproc": 2, "cpu_model": "x", "kernel": "k"}},
                "workloads": {{"w": {{"correct": true, "ops_attempted": 100,
                  "ops_failed": {failed},
                  "end_to_end": {{"m": {{"value": {value}, "unit": "u",
                     "p10": {value}, "p90": {value}, "rounds": 3}}}}}}}}}}"#
        ))
        .expect("test document")
    }

    fn spec() -> Spec {
        Spec {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![metric(true)],
            per_layer: vec![],
        }
    }

    #[test]
    fn quick_documents_are_refused() {
        assert!(compare(&spec(), &doc(true, 1.0, 0), &doc(false, 1.0, 0)).is_err());
        assert!(compare(&spec(), &doc(false, 1.0, 0), &doc(true, 1.0, 0)).is_err());
    }

    #[test]
    fn more_failed_ops_fail_the_diff_even_when_faster() {
        let c = compare(&spec(), &doc(false, 100.0, 0), &doc(false, 150.0, 1)).expect("compare");
        assert!(c.failed());
        assert_eq!(c.rows[0].verdict, Verdict::Improved);
        let same = compare(&spec(), &doc(false, 100.0, 0), &doc(false, 100.0, 0)).expect("compare");
        assert!(!same.failed());
        assert!(disagreements(&same).is_empty());
        let far = compare(&spec(), &doc(false, 100.0, 0), &doc(false, 130.0, 0)).expect("compare");
        assert_eq!(disagreements(&far).len(), 1);
    }
}
