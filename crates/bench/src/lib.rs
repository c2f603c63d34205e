//! # hdlock-bench — experiment harness for the HDLock reproduction
//!
//! One binary per paper table/figure:
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `fig3`  | Fig. 3 — guess-distance profile against a standard encoder |
//! | `table1`| Tab. 1 — original vs recovered accuracy + reasoning time |
//! | `fig5`  | Fig. 5 — HDLock parameter sweeps, binary model |
//! | `fig6`  | Fig. 6 — HDLock parameter sweeps, non-binary model |
//! | `fig7`  | Fig. 7 — guess counts vs `D`, `P`, `L` |
//! | `fig8`  | Fig. 8 — accuracy vs key layers |
//! | `fig9`  | Fig. 9 — relative encoding time vs key layers |
//!
//! Every binary accepts `--full` (paper-scale parameters), `--scale X`
//! (dataset-size multiplier), `--dim N`, `--seed S`, `--stride K` and
//! `--csv PATH`.
//!
//! This library holds the shared run-scale parsing and plain-text table
//! rendering used by those binaries.

#![warn(missing_docs)]

pub mod lockfig;

use std::fmt::Write as _;

/// Common command-line options for experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Dataset-size multiplier (1.0 = paper-like sample counts).
    pub scale: f64,
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Master seed.
    pub seed: u64,
    /// Rotation-sweep stride for Fig. 5/6 (1 = exhaustive).
    pub stride: usize,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Whether `--full` was requested.
    pub full: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: 0.05,
            dim: 10_000,
            seed: 2022,
            stride: 20,
            csv: None,
            full: false,
        }
    }
}

impl RunOptions {
    /// Parses options from `std::env::args`, with experiment-specific
    /// defaults applied first.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn from_args(mut defaults: RunOptions) -> RunOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    defaults.full = true;
                    defaults.scale = 1.0;
                    defaults.stride = 1;
                    i += 1;
                }
                "--scale" => {
                    defaults.scale = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--scale needs a float"));
                    i += 2;
                }
                "--dim" => {
                    defaults.dim = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--dim needs an integer"));
                    i += 2;
                }
                "--seed" => {
                    defaults.seed = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs an integer"));
                    i += 2;
                }
                "--stride" => {
                    defaults.stride = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--stride needs an integer"));
                    i += 2;
                }
                "--csv" => {
                    defaults.csv = Some(
                        args.get(i + 1)
                            .unwrap_or_else(|| panic!("--csv needs a path"))
                            .clone(),
                    );
                    i += 2;
                }
                other => panic!(
                    "unknown argument '{other}'; supported: --full --scale X --dim N --seed S --stride K --csv PATH"
                ),
            }
        }
        defaults
    }
}

/// A plain-text table renderer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (j, cell) in row.iter().enumerate() {
                widths[j] = widths[j].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (j, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", cell, width = widths[j]);
            }
            out.push_str("|\n");
        };
        write_row(&mut out, &self.headers);
        for (j, w) in widths.iter().enumerate().take(ncol) {
            let _ = write!(&mut out, "|{:-<width$}", "", width = w + 2);
            if j == ncol - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table and, if requested, writes the CSV file.
    pub fn emit(&self, csv: Option<&str>) {
        println!("{}", self.render());
        if let Some(path) = csv {
            if let Err(e) = std::fs::write(path, self.to_csv()) {
                eprintln!("warning: cannot write {path}: {e}");
            } else {
                println!("(csv written to {path})");
            }
        }
    }
}

/// Formats a float with `prec` decimals.
#[must_use]
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Simple summary statistics of a score slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreSummary {
    /// Minimum value.
    pub min: f64,
    /// Mean value.
    pub mean: f64,
    /// Maximum value.
    pub max: f64,
}

/// Summarizes a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summarize(scores: &[f64]) -> ScoreSummary {
    assert!(!scores.is_empty(), "cannot summarize an empty slice");
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &s in scores {
        min = min.min(s);
        max = max.max(s);
        sum += s;
    }
    ScoreSummary {
        min,
        mean: sum / scores.len() as f64,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["1", "2"]);
        let s = t.render();
        assert!(s.contains("| a "));
        assert!(s.contains("| long-header "));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(vec!["x"]);
        t.row(vec!["a,b"]);
        assert!(t.to_csv().contains("\"a,b\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn summarize_computes_stats() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn defaults_are_sane() {
        let o = RunOptions::default();
        assert_eq!(o.dim, 10_000);
        assert!(!o.full);
    }
}
