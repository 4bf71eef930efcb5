#![deny(unsafe_code)]
#![warn(missing_docs)]
//! Shared plumbing for the benchmark harness: figure tables, CSV output and
//! rate-sweep helpers.
//!
//! Every table and figure of the paper's evaluation (§5) has a regeneration
//! target in `benches/figures.rs` (run with `cargo bench --bench figures`),
//! which writes its series into `bench_results/` at the workspace root.
//! Per-layer timings of the engine are `streambench`'s (its own package).

use std::io::Write;
use std::path::PathBuf;

/// A printable/exportable results table for one figure.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Identifier, e.g. `fig05a_durability`.
    pub name: String,
    /// Human title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl FigureTable {
    /// Creates an empty table.
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table for the terminal.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let hdr: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
            .collect();
        out.push_str(&hdr.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(hdr.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout and writes `bench_results/<name>.csv`.
    pub fn emit(&self) {
        println!("{}", self.render());
        if let Err(e) = self.write_csv() {
            eprintln!("warning: could not write CSV for {}: {e}", self.name);
        }
    }

    /// Writes the CSV file; returns its path.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut file = std::fs::File::create(&path)?;
        writeln!(file, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Prints an end-of-run metrics snapshot and writes
/// `bench_results/<name>.metrics.json` next to the figure CSVs, so a bench
/// run leaves behind the per-stage instrument values that produced it.
pub fn emit_metrics_snapshot(name: &str, snapshot: &pravega_common::metrics::Snapshot) {
    println!("\n== {name}: per-stage metrics ==\n{snapshot}");
    let dir = results_dir();
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.metrics.json"));
        std::fs::write(path, snapshot.to_json())
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write metrics snapshot for {name}: {e}");
    }
}

/// `bench_results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("bench_results")
}

/// Finds (by bisection) the highest rate in `[lo, hi]` for which `stable`
/// holds. Assumes monotonicity; 12 iterations give <0.1% resolution.
pub fn max_stable_rate(lo: f64, hi: f64, mut stable: impl FnMut(f64) -> bool) -> f64 {
    let mut lo = lo;
    let mut hi = hi;
    if !stable(lo) {
        return 0.0;
    }
    if stable(hi) {
        return hi;
    }
    for _ in 0..12 {
        let mid = (lo + hi) / 2.0;
        if stable(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_writes() {
        let mut t = FigureTable::new("test_table", "Test", &["a", "b"]);
        t.row(vec!["1".into(), "2.5".into()]);
        let rendered = t.render();
        assert!(rendered.contains("Test"));
        assert!(rendered.contains("2.5"));
        let path = t.write_csv().unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("a,b\n1,2.5"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        let mut t = FigureTable::new("x", "x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn bisection_finds_threshold() {
        // Stable below 420.
        let max = max_stable_rate(100.0, 1000.0, |r| r < 420.0);
        assert!((max - 420.0).abs() < 2.0, "got {max}");
        // Degenerate cases.
        assert_eq!(max_stable_rate(100.0, 1000.0, |_| false), 0.0);
        assert_eq!(max_stable_rate(100.0, 1000.0, |_| true), 1000.0);
    }

    #[test]
    fn fmt_handles_nan() {
        assert_eq!(fmt(f64::NAN, 1), "-");
        assert_eq!(fmt(1.25, 1), "1.2");
    }
}
