//! Plain-text chart primitives used by every analysis.
//!
//! The paper's artifact produces matplotlib figures; here every figure is a
//! typed result that renders to aligned text (for terminals and the
//! EXPERIMENTS log) and to CSV (for external plotting).

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// A horizontal bar chart: labelled values, drawn to scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BarChart {
    /// Chart title.
    pub title: String,
    /// `(label, value)` rows in display order.
    pub rows: Vec<(String, f64)>,
    /// Unit suffix printed after values (e.g. `"%"` or `""`).
    pub unit: String,
}

impl BarChart {
    /// Creates a chart.
    pub fn new(title: impl Into<String>, unit: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            rows: Vec::new(),
            unit: unit.into(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, value: f64) {
        self.rows.push((label.into(), value));
    }

    /// Sorts rows by decreasing value.
    pub fn sort_desc(&mut self) {
        self.rows
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Keeps only the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
    }

    /// Renders the chart as aligned text with `width`-character bars.
    pub fn render_text(&self, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let label_w = self.rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let max = self
            .rows
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for (label, value) in &self.rows {
            let bar_len = ((value / max) * width as f64).round() as usize;
            let _ = writeln!(
                out,
                "{label:<label_w$}  {value:>9.2}{}  {}",
                self.unit,
                "#".repeat(bar_len)
            );
        }
        out
    }

    /// Renders the rows as CSV (`label,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label,value\n");
        for (label, value) in &self.rows {
            let _ = writeln!(out, "{},{}", csv_escape(label), value);
        }
        out
    }
}

/// A set of named series over a shared x axis (time series, histograms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesChart {
    /// Chart title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// Named series; points are `(x, y)` sorted by `x`.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

impl SeriesChart {
    /// Creates a chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Appends a series.
    pub fn push(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push((name.into(), points));
    }

    /// Renders a compact text view: per series, the final value plus a
    /// sparkline over a fixed number of buckets.
    pub fn render_text(&self, buckets: usize) -> String {
        const GLYPHS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ==  [{} vs {}]",
            self.title, self.y_label, self.x_label
        );
        let (x_min, x_max) = self.x_range();
        let y_max = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|p| p.1))
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let name_w = self.series.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, points) in &self.series {
            let mut line = String::new();
            for b in 0..buckets {
                let x = x_min + (x_max - x_min) * (b as f64 + 0.5) / buckets as f64;
                // Last point at or before x (step interpolation).
                let y = points
                    .iter()
                    .take_while(|(px, _)| *px <= x)
                    .last()
                    .map(|(_, py)| *py)
                    .unwrap_or(0.0);
                let idx = ((y / y_max) * (GLYPHS.len() - 1) as f64).round() as usize;
                line.push(GLYPHS[idx.min(GLYPHS.len() - 1)]);
            }
            let last = points.last().map(|p| p.1).unwrap_or(0.0);
            let _ = writeln!(out, "{name:<name_w$} |{line}| {last:>9.2}");
        }
        out
    }

    /// Renders all points as CSV (`series,x,y`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for (name, points) in &self.series {
            for (x, y) in points {
                let _ = writeln!(out, "{},{},{}", csv_escape(name), x, y);
            }
        }
        out
    }

    fn x_range(&self) -> (f64, f64) {
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
            .collect();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if min.is_finite() && max.is_finite() && max > min {
            (min, max)
        } else {
            (0.0, 1.0)
        }
    }
}

/// A labelled numeric matrix (heatmap-style figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixChart {
    /// Chart title.
    pub title: String,
    /// Row labels.
    pub row_labels: Vec<String>,
    /// Column labels.
    pub col_labels: Vec<String>,
    /// Cells, row-major: `cells[row][col]`.
    pub cells: Vec<Vec<f64>>,
}

impl MatrixChart {
    /// Creates a zero matrix with the given labels.
    pub fn zeros(
        title: impl Into<String>,
        row_labels: Vec<String>,
        col_labels: Vec<String>,
    ) -> Self {
        let cells = vec![vec![0.0; col_labels.len()]; row_labels.len()];
        Self {
            title: title.into(),
            row_labels,
            col_labels,
            cells,
        }
    }

    /// Cell accessor.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.cells[row][col]
    }

    /// Mutable cell accessor.
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        &mut self.cells[row][col]
    }

    /// Renders the matrix as a density grid plus the peak cells as text.
    pub fn render_text(&self) -> String {
        const GLYPHS: &[char] = &['.', ':', '-', '=', '+', '*', '#', '@'];
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let max = self
            .cells
            .iter()
            .flatten()
            .copied()
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let label_w = self.row_labels.iter().map(String::len).max().unwrap_or(0);
        for (row_label, row) in self.row_labels.iter().zip(&self.cells) {
            let mut line = String::new();
            for &v in row {
                let idx = ((v / max) * (GLYPHS.len() - 1) as f64).round() as usize;
                line.push(if v == 0.0 {
                    ' '
                } else {
                    GLYPHS[idx.min(GLYPHS.len() - 1)]
                });
            }
            let _ = writeln!(out, "{row_label:<label_w$} |{line}|");
        }
        out
    }

    /// Renders cells as CSV (`row,col,value`), skipping zeros.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("row,col,value\n");
        for (row_label, row) in self.row_labels.iter().zip(&self.cells) {
            for (col_label, &v) in self.col_labels.iter().zip(row) {
                if v != 0.0 {
                    let _ = writeln!(
                        out,
                        "{},{},{}",
                        csv_escape(row_label),
                        csv_escape(col_label),
                        v
                    );
                }
            }
        }
        out
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

    #[test]
    fn bar_chart_renders_scaled_bars() {
        let mut chart = BarChart::new("demo", "");
        chart.push("big", 10.0);
        chart.push("small", 5.0);
        let text = chart.render_text(10);
        assert!(text.contains("== demo =="));
        let lines: Vec<&str> = text.lines().collect();
        let big_hashes = lines[1].matches('#').count();
        let small_hashes = lines[2].matches('#').count();
        assert_eq!(big_hashes, 10);
        assert_eq!(small_hashes, 5);
    }

    #[test]
    fn bar_chart_sort_and_truncate() {
        let mut chart = BarChart::new("t", "");
        chart.push("a", 1.0);
        chart.push("b", 3.0);
        chart.push("c", 2.0);
        chart.sort_desc();
        chart.truncate(2);
        assert_eq!(chart.rows[0].0, "b");
        assert_eq!(chart.rows.len(), 2);
    }

    #[test]
    fn bar_chart_csv() {
        let mut chart = BarChart::new("t", "");
        chart.push("x,y", 1.0);
        let csv = chart.to_csv();
        assert!(csv.starts_with("label,value\n"));
        assert!(csv.contains("\"x,y\",1"));
    }

    #[test]
    fn series_chart_text_and_csv() {
        let mut chart = SeriesChart::new("growth", "year", "count");
        chart.push("a", vec![(2010.0, 1.0), (2011.0, 4.0)]);
        chart.push("b", vec![(2010.0, 2.0)]);
        let text = chart.render_text(8);
        assert!(text.contains("growth"));
        assert!(text.contains("a"));
        let csv = chart.to_csv();
        assert!(csv.contains("a,2010,1"));
        assert!(csv.contains("b,2010,2"));
    }

    #[test]
    fn empty_series_chart_does_not_panic() {
        let chart = SeriesChart::new("empty", "x", "y");
        assert!(!chart.render_text(4).is_empty());
        assert_eq!(chart.to_csv(), "series,x,y\n");
    }

    #[test]
    fn matrix_chart_cells_and_top() {
        let mut m = MatrixChart::zeros(
            "m",
            vec!["r1".into(), "r2".into()],
            vec!["c1".into(), "c2".into()],
        );
        *m.get_mut(0, 1) = 5.0;
        *m.get_mut(1, 0) = 2.0;
        assert_eq!(m.get(0, 1), 5.0);
        assert!(m.render_text().contains("r1"));
        let csv = m.to_csv();
        assert!(csv.contains("r1,c2,5"));
        assert!(!csv.contains("r1,c1"));
    }
}
