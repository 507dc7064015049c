//! Report formatting and CSV output for the experiment binaries.

use std::fs;
use std::path::PathBuf;

use fgcs_experiments::artifacts::csv_text;

/// Where CSV outputs land.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Writes `rows` (already comma-joined) under `results/<name>.csv` with
/// the given header. Creates the directory as needed.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    write_text(name, &csv_text(header, rows))
}

/// Writes `text`, a whole CSV file, as `results/<name>.csv`. Creates
/// the directory as needed.
pub fn write_text(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, text)?;
    Ok(path)
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a key/value comparison line: measured vs the paper's value.
pub fn compare_line(what: &str, measured: impl std::fmt::Display, paper: &str) {
    println!("{what:<44} measured: {measured:<18} paper: {paper}");
}

/// A plain fixed-width text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.header);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds as hours with two decimals.
pub fn hours(secs: f64) -> String {
    format!("{:.2}h", secs / 3600.0)
}

/// Writes a tiny ASCII bar for quick visual comparison of a series.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}
