//! Shared infrastructure for the experiment binaries and Criterion
//! benches that regenerate every table and figure of the ScalaGraph paper.
//!
//! Each figure/table has a binary in `src/bin/` (run with
//! `cargo run --release -p scalagraph-bench --bin fig14`); this library
//! holds the pieces they share: workload construction, system runners,
//! and table formatting.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod runners;
pub mod sweep;
pub mod workloads;

use std::fmt::Write as _;

/// Environment variable overriding the graph down-scale divisor.
pub const SCALE_ENV: &str = "SCALAGRAPH_SCALE";

/// Returns the down-scale divisor for dataset generation: the
/// `SCALAGRAPH_SCALE` environment variable, or `default`.
pub fn scale_or(default: u64) -> u64 {
    std::env::var(SCALE_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(default)
}

/// Renders a simple aligned table (markdown-flavored) to stdout.
///
/// # Example
///
/// ```
/// use scalagraph_bench::print_table;
///
/// print_table(
///     "Demo",
///     &["graph", "gteps"],
///     &[vec!["PK".into(), "1.25".into()]],
/// );
/// ```
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let mut line = String::from("|");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, " {h:<w$} |");
    }
    let _ = writeln!(out, "{line}");
    let mut sep = String::from("|");
    for w in &widths {
        let _ = write!(sep, "{}|", "-".repeat(w + 2));
    }
    let _ = writeln!(out, "{sep}");
    for row in rows {
        let mut line = String::from("|");
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, " {cell:<w$} |");
        }
        let _ = writeln!(out, "{line}");
    }
    print!("{out}");
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_when_env_unset() {
        std::env::remove_var(SCALE_ENV);
        assert_eq!(scale_or(2048), 2048);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(ratio(2.0), "2.00x");
    }
}
