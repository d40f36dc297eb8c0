//! Shared infrastructure for the experiment binaries that regenerate
//! every table and figure of the ScalaGraph paper.
//!
//! Each figure/table has a binary in `src/bin/` (run with
//! `cargo run --release -p scalagraph-bench --bin fig14`); this library
//! holds the pieces they share: workload construction, system runners,
//! table formatting, and the [`Checker`] that gates the `bench_*`
//! harnesses' reports.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod runners;
pub mod sweep;
pub mod workloads;

use scalagraph_conformance::json::{self, Json};
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

/// How a [`Gate`] bounds its figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// At least this multiple of the baseline's figure.
    AtLeast(f64),
    /// At most this multiple of the baseline's figure.
    AtMost(f64),
    /// Exactly the baseline's figure: a pinned count.
    Equal,
    /// At least this constant: an in-run bound that reads no baseline.
    Floor(f64),
}

/// Reads a gate's figure from a report; `None` when the report lacks it.
type Figure = Box<dyn Fn(&Json) -> Option<f64>>;

/// One named pass/fail bound on a figure of a bench report. The same
/// accessor reads the figure from the current report and the baseline.
pub struct Gate {
    name: String,
    rule: Rule,
    figure: Figure,
}

impl Gate {
    /// A gate on the figure `figure` reads from a report.
    pub fn new(
        name: impl Into<String>,
        rule: Rule,
        figure: impl Fn(&Json) -> Option<f64> + 'static,
    ) -> Self {
        Gate {
            name: name.into(),
            rule,
            figure: Box::new(figure),
        }
    }

    /// A gate on the number at `path`, object keys joined by `.`, named
    /// by its path.
    pub fn at(path: &str, rule: Rule) -> Self {
        let keys: Vec<String> = path.split('.').map(String::from).collect();
        Gate::new(path, rule, move |report| {
            keys.iter()
                .try_fold(report, |value, key| value.get(key))?
                .as_f64()
        })
    }

    /// The gate's verdict on `current`: `Ok` with the comparison if it
    /// holds, `Err` naming the gate otherwise. `None` when the rule is
    /// relative to a baseline and there is none.
    fn judge(&self, current: &Json, baseline: Option<&Json>) -> Option<Result<String, String>> {
        let name = &self.name;
        let (bound, source) = match self.rule {
            Rule::Floor(floor) => (floor, String::new()),
            rule => {
                let Some(base) = (self.figure)(baseline?) else {
                    return Some(Err(format!("{name}: missing from the baseline")));
                };
                match rule {
                    Rule::AtLeast(k) | Rule::AtMost(k) => (k * base, format!(" = {k} x {base}")),
                    Rule::Equal | Rule::Floor(_) => (base, String::new()),
                }
            }
        };
        let Some(now) = (self.figure)(current) else {
            return Some(Err(format!("{name}: missing from the current report")));
        };
        let (op, holds) = match self.rule {
            Rule::AtLeast(_) | Rule::Floor(_) => (">=", now >= bound),
            Rule::AtMost(_) => ("<=", now <= bound),
            Rule::Equal => ("==", now == bound),
        };
        let line = format!("{name}: {now} {op} {bound}{source}");
        Some(if holds { Ok(line) } else { Err(line) })
    }
}

/// The element of array `array` in `report` whose `key` is the string
/// `value`: a configuration by label, a preset by name.
pub fn entry<'a>(report: &'a Json, array: &str, key: &str, value: &str) -> Option<&'a Json> {
    report
        .get(array)?
        .as_array()?
        .iter()
        .find(|item| item.get(key).and_then(Json::as_str) == Some(value))
}

/// The one `--check` of the `bench_*` harnesses: where a harness writes
/// its report, and the baseline it gates the report against. The baseline
/// is parsed when the harness starts, before anything is measured, so a
/// missing or malformed one fails at once and a report later written
/// over the same path is never compared with itself.
pub struct Checker {
    out_path: String,
    baseline: Option<(String, Json)>,
}

impl Checker {
    /// Parses a harness's command line, where every flag takes a value:
    /// `--out <path>` (default `default_out`), `--check <path>`, and the
    /// flags `extra` accepts. `extra` gets each other flag with its value
    /// and returns `false` for one it does not know. Without `--check`
    /// only the [`Rule::Floor`] gates run. Exits 1 if the `--check` file
    /// cannot be read or parsed.
    pub fn from_args(default_out: &str, mut extra: impl FnMut(&str, String) -> bool) -> Self {
        let mut out_path = default_out.to_string();
        let mut check_path = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .unwrap_or_else(|| panic!("{flag} needs a value"));
            match flag.as_str() {
                "--out" => out_path = value,
                "--check" => check_path = Some(value),
                other if !extra(other, value) => panic!("unknown flag `{other}`"),
                _ => {}
            }
        }
        let baseline = check_path.map(|path| {
            let report = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
                .unwrap_or_else(|e| fail(&format!("--check {path}: {e}")));
            (path, report)
        });
        Checker { out_path, baseline }
    }

    /// Writes `report`, parses it back and applies `gates`, one printed
    /// line per gate. Exits 1 if any gate fails.
    pub fn finish(&self, report: &str, gates: &[Gate]) {
        let out_path = &self.out_path;
        if let Err(e) = std::fs::write(out_path, report) {
            fail(&format!("cannot write {out_path}: {e}"));
        }
        println!("wrote {out_path}");
        let current = json::parse(report)
            .unwrap_or_else(|e| fail(&format!("{out_path} is not valid JSON: {e}")));
        let baseline = self.baseline.as_ref().map(|(_, report)| report);
        let mut failed = Vec::new();
        for gate in gates {
            match gate.judge(&current, baseline) {
                None => {}
                Some(Ok(line)) => println!("gate {line}: ok"),
                Some(Err(line)) => {
                    println!("gate {line}: FAILED");
                    failed.push(gate.name.as_str());
                }
            }
        }
        if !failed.is_empty() {
            fail(&format!("gates failed: {}", failed.join(", ")));
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
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

    fn report(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    /// Judges `gate` on a current report holding `now` at `key` against a
    /// baseline holding `base` there.
    fn judge_at(gate: &Gate, key: &str, now: f64, base: f64) -> Result<String, String> {
        let current = report(&format!("{{\"{key}\": {now}}}"));
        let baseline = report(&format!("{{\"{key}\": {base}}}"));
        gate.judge(&current, Some(&baseline)).unwrap()
    }

    #[test]
    fn at_least_passes_at_the_bound_and_fails_just_below() {
        let gate = Gate::at("speedup", Rule::AtLeast(0.5));
        assert!(judge_at(&gate, "speedup", 2.0, 4.0).is_ok());
        assert!(judge_at(&gate, "speedup", 9.0, 4.0).is_ok());
        let err = judge_at(&gate, "speedup", 2.0f64.next_down(), 4.0).unwrap_err();
        assert!(err.starts_with("speedup: "), "{err}");
    }

    #[test]
    fn at_most_passes_at_the_bound_and_fails_just_above() {
        let gate = Gate::at("ratio", Rule::AtMost(1.10));
        let bound = 1.10 * 0.5872;
        assert!(judge_at(&gate, "ratio", bound, 0.5872).is_ok());
        assert!(judge_at(&gate, "ratio", 0.1, 0.5872).is_ok());
        assert!(judge_at(&gate, "ratio", bound.next_up(), 0.5872).is_err());
    }

    #[test]
    fn equal_pins_an_exact_count() {
        let gate = Gate::at("cycles", Rule::Equal);
        assert!(judge_at(&gate, "cycles", 2389.0, 2389.0).is_ok());
        assert!(judge_at(&gate, "cycles", 2390.0, 2389.0).is_err());
        assert!(judge_at(&gate, "cycles", 2388.0, 2389.0).is_err());
    }

    #[test]
    fn a_floor_needs_no_baseline_and_relative_rules_wait_for_one() {
        let floor = Gate::at("gm", Rule::Floor(2.0));
        let at_least = Gate::at("gm", Rule::AtLeast(0.5));
        let current = report(r#"{"gm": 2.0}"#);
        assert!(floor.judge(&current, None).unwrap().is_ok());
        assert!(at_least.judge(&current, None).is_none());
        let below = report(&format!("{{\"gm\": {}}}", 2.0f64.next_down()));
        assert!(floor.judge(&below, None).unwrap().is_err());
        // A baseline does not move a floor.
        let baseline = report(r#"{"gm": 100.0}"#);
        assert!(floor.judge(&current, Some(&baseline)).unwrap().is_ok());
    }

    #[test]
    fn a_missing_figure_fails_its_gate_by_name() {
        let gate = Gate::at("event_core.cycles_per_sec", Rule::AtLeast(0.8));
        let full = report(r#"{"event_core": {"cycles_per_sec": 159523}}"#);
        let empty = report(r#"{"event_core": {}}"#);
        let err = gate.judge(&empty, Some(&full)).unwrap().unwrap_err();
        assert_eq!(
            err,
            "event_core.cycles_per_sec: missing from the current report"
        );
        let err = gate.judge(&full, Some(&empty)).unwrap().unwrap_err();
        assert_eq!(err, "event_core.cycles_per_sec: missing from the baseline");
        let floor = Gate::at("gm", Rule::Floor(2.0));
        let err = floor.judge(&empty, None).unwrap().unwrap_err();
        assert_eq!(err, "gm: missing from the current report");
    }

    #[test]
    fn entries_are_found_by_label() {
        let configs = report(
            r#"{"configs": [{"label": "lat64", "cycles": 2389}, {"label": "lat128", "cycles": 3285}]}"#,
        );
        let gate = |label: &'static str| {
            Gate::new(format!("configs[{label}].cycles"), Rule::Equal, move |r| {
                entry(r, "configs", "label", label)?.get("cycles")?.as_f64()
            })
        };
        assert!(gate("lat128")
            .judge(&configs, Some(&configs))
            .unwrap()
            .is_ok());
        let err = gate("lat512")
            .judge(&configs, Some(&configs))
            .unwrap()
            .unwrap_err();
        assert_eq!(err, "configs[lat512].cycles: missing from the baseline");
    }
}
