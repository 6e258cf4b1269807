//! Figure and table rendering.
//!
//! Every reproduced experiment is expressed as a [`Figure`]: a set of named
//! series over a swept x-axis. Figures render as aligned ASCII tables (the
//! rows the paper plots) and as CSV for external plotting.

use serde::{Deserialize, Serialize};

/// One plotted series (e.g. one scheduling algorithm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label ("UF", "TF", ...).
    pub label: String,
    /// `(x, y)` points in sweep order (`y` is the mean over replicas).
    pub points: Vec<(f64, f64)>,
    /// Sample standard deviation per point across replicas; empty when the
    /// sweep ran a single replica.
    pub spread: Vec<f64>,
}

impl Series {
    /// Index of the point at `x`, if the series has one.
    fn point_at(&self, x: f64) -> Option<usize> {
        self.points.iter().position(|(px, _)| (px - x).abs() < 1e-9)
    }
}

/// A reproduced figure: everything needed to print or export it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Identifier matching the paper ("fig04a").
    pub id: String,
    /// Human title ("Fraction of missed deadlines vs λt").
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// The qualitative shape the paper reports, for eyeball verification.
    pub paper_expectation: String,
}

impl Figure {
    /// Renders the figure as an aligned ASCII table: one row per x value,
    /// one column per series.
    #[must_use]
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("   paper: {}\n", self.paper_expectation));
        let xs = self.x_values();
        // Columns widen to fit the longest label or value plus a
        // separating space.
        let values = self.series.iter().flat_map(|s| &s.points);
        let w = self
            .series
            .iter()
            .map(|s| s.label.len())
            .chain(std::iter::once(self.x_label.len()))
            .chain(values.flat_map(|(x, y)| [format!("{x:.4}").len(), format!("{y:.4}").len()]))
            .map(|len| len + 1)
            .fold(12, usize::max);
        out.push_str(&format!("{:>w$}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>w$}", s.label));
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x:>w$.4}"));
            for s in &self.series {
                match s.point_at(x) {
                    Some(i) => out.push_str(&format!("{:>w$.4}", s.points[i].1)),
                    None => out.push_str(&format!("{:>w$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as CSV (`x,<series...>` header). When replica
    /// spreads are present, each series gains a `<label>_sd` column.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let with_spread = self.series.iter().any(|s| !s.spread.is_empty());
        let mut out = String::new();
        out.push_str(&csv_escape(&self.x_label));
        for s in &self.series {
            out.push(',');
            out.push_str(&csv_escape(&s.label));
            if with_spread {
                out.push(',');
                out.push_str(&csv_escape(&format!("{}_sd", s.label)));
            }
        }
        out.push('\n');
        for x in self.x_values() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                out.push(',');
                // A series with no point at this x leaves its cells empty.
                if let Some(idx) = s.point_at(x) {
                    out.push_str(&format!("{}", s.points[idx].1));
                    if with_spread {
                        out.push(',');
                        if let Some(sd) = s.spread.get(idx) {
                            out.push_str(&format!("{sd}"));
                        }
                    }
                } else if with_spread {
                    out.push(',');
                }
            }
            out.push('\n');
        }
        out
    }

    /// The union of x values across series, in first-series order.
    #[must_use]
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.iter().any(|&e| (e - x).abs() < 1e-9) {
                    xs.push(x);
                }
            }
        }
        xs
    }

    /// Looks up a series by label.
    #[must_use]
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "figXX".into(),
            title: "test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                Series {
                    label: "A".into(),
                    points: vec![(1.0, 0.5), (2.0, 0.75)],
                    spread: vec![],
                },
                Series {
                    label: "B".into(),
                    points: vec![(1.0, 0.25), (2.0, 0.5)],
                    spread: vec![],
                },
            ],
            paper_expectation: "A above B".into(),
        }
    }

    #[test]
    fn ascii_contains_all_points() {
        let s = fig().render_ascii();
        assert!(s.contains("figXX"));
        assert!(s.contains("0.7500"));
        assert!(s.contains("0.2500"));
        assert!(s.contains("A above B"));
    }

    #[test]
    fn csv_round_trips_grid() {
        let csv = fig().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,A,B"));
        assert_eq!(lines.next(), Some("1,0.5,0.25"));
        assert_eq!(lines.next(), Some("2,0.75,0.5"));
    }

    #[test]
    fn csv_escapes_commas() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn csv_includes_spread_columns_when_present() {
        let mut f = fig();
        f.series[0].spread = vec![0.1, 0.2];
        f.series[1].spread = vec![0.05, 0.06];
        let csv = f.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,A,A_sd,B,B_sd"));
        assert_eq!(lines.next(), Some("1,0.5,0.1,0.25,0.05"));
        assert_eq!(lines.next(), Some("2,0.75,0.2,0.5,0.06"));
    }

    #[test]
    fn a_gap_in_a_series_is_an_empty_cell_not_a_neighbours_value() {
        let mut f = fig();
        f.series[1].points.remove(0);
        let csv = f.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,A,B"));
        assert_eq!(lines.next(), Some("1,0.5,"));
        assert_eq!(lines.next(), Some("2,0.75,0.5"));
        f.series[1].spread = vec![0.06];
        f.series[0].spread = vec![0.1, 0.2];
        let csv = f.to_csv();
        assert_eq!(csv.lines().nth(1), Some("1,0.5,0.1,,"));
        assert_eq!(csv.lines().nth(2), Some("2,0.75,0.2,0.5,0.06"));
        assert!(f.render_ascii().lines().nth(3).unwrap().ends_with('-'));
    }

    #[test]
    fn columns_widen_to_keep_large_values_apart() {
        let mut f = fig();
        f.series[0].points[0].1 = 1_574_551.0;
        f.series[1].points[0].1 = 650_634.0;
        let ascii = f.render_ascii();
        let row = ascii.lines().nth(3).unwrap();
        assert_eq!(row.split_whitespace().count(), 3, "{row}");
    }

    #[test]
    fn x_values_union() {
        let mut f = fig();
        f.series[1].points.push((3.0, 1.0));
        assert_eq!(f.x_values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn series_lookup() {
        let f = fig();
        assert!(f.series("A").is_some());
        assert!(f.series("Z").is_none());
    }
}
