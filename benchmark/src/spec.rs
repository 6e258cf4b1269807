//! `BENCHMARK.json`: the contract this benchmark is run and judged by.
//!
//! The file at the repository root names the workloads and every metric
//! with its unit, direction and — for end-to-end metrics — the bound by
//! which it may worsen before a change counts as a regression. `run` takes
//! its default run length from it, `diff` and `selfcheck` take directions
//! and bounds from it, and a test holds the program's output against it.

use crate::json::Json;
use crate::workload::repo_root;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// How much worse `new` is than `old`, as a share of `old`, in this
    /// metric's bad direction (negative when `new` is better).
    pub fn worsening(&self, old: f64, new: f64) -> f64 {
        let change = (new - old) / old.abs().max(f64::MIN_POSITIVE);
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric(v: &Json) -> Result<MetricSpec, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric without `{k}`"))
    };
    let better = field("better")?;
    if better != "higher" && better != "lower" {
        return Err(format!("`better` must be higher or lower, not {better}"));
    }
    Ok(MetricSpec {
        name: field("name")?.to_string(),
        unit: field("unit")?.to_string(),
        higher_is_better: better == "higher",
        bound: v.get("bound").and_then(Json::as_f64),
    })
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |k: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(k)
                .ok_or_else(|| format!("BENCHMARK.json has no `{k}`"))?
                .as_arr()
                .iter()
                .map(metric)
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the repository root.
    pub fn load() -> Result<Spec, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn e2e(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let up = MetricSpec {
            name: "t".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.1),
        };
        let down = MetricSpec {
            higher_is_better: false,
            ..up.clone()
        };
        assert!((up.worsening(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((up.worsening(100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((down.worsening(100.0, 120.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn parses_the_contract_shape() {
        let spec = Spec::parse(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 7,
                "workloads": [{"name": "a", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "l.x", "unit": "ns", "better": "lower"}]}"#,
        )
        .expect("parse");
        assert_eq!(spec.run_seconds, 7.0);
        assert_eq!(spec.workloads, ["a"]);
        assert_eq!(spec.e2e("setup_s").and_then(|m| m.bound), Some(0.25));
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(Spec::parse(r#"{"run_seconds": 1}"#).is_err());
    }
}
