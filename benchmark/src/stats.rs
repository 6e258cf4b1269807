//! Order statistics over the rounds of one run.

use crate::json::Json;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a sample ascending (NaNs last, so they never become a median).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// A metric as reported: one value for its rounds with their p10–p90 range
/// and count, so a reader can tell a shift from the spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the rounds ([`Summary::of`]) or
    /// their quartile on the undisturbed side ([`Summary::quiet_high`],
    /// [`Summary::quiet_low`]).
    pub value: f64,
    pub p10: f64,
    pub p90: f64,
    pub rounds: usize,
}

impl Summary {
    fn at(values: &[f64], q: f64) -> Summary {
        let s = sorted(values.to_vec());
        Summary {
            value: quantile(&s, q),
            p10: quantile(&s, 0.1),
            p90: quantile(&s, 0.9),
            rounds: s.len(),
        }
    }

    /// The median of the rounds.
    pub fn of(values: &[f64]) -> Summary {
        Summary::at(values, 0.5)
    }

    /// The upper quartile of the rounds, for a rate. The shared host only
    /// ever slows a round down — seconds-long phases at less than half
    /// speed, a quarter of the rounds of one run and none of the next — so
    /// the rounds are a tight cluster with a long tail on the slow side. The
    /// median sits wherever that tail pushes it; the quartile on the fast
    /// side stays inside the cluster until half the rounds are disturbed.
    pub fn quiet_high(values: &[f64]) -> Summary {
        Summary::at(values, 0.75)
    }

    /// The lower quartile of the rounds, for a time (see
    /// [`Summary::quiet_high`]).
    pub fn quiet_low(values: &[f64]) -> Summary {
        Summary::at(values, 0.25)
    }

    /// A single measurement (one round, or a count).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            p10: value,
            p90: value,
            rounds: 1,
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        let mut o = Json::obj();
        o.set("value", self.value)
            .set("unit", unit)
            .set("p10", self.p10)
            .set("p90", self.p90)
            .set("rounds", self.rounds);
        o
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        let value = v.get("value")?.as_f64()?;
        Some(Summary {
            value,
            p10: v.get("p10").and_then(Json::as_f64).unwrap_or(value),
            p90: v.get("p90").and_then(Json::as_f64).unwrap_or(value),
            rounds: v.get("rounds").and_then(Json::as_f64).unwrap_or(1.0) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.value, 2.0);
        assert_eq!(s.rounds, 3);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }
}
