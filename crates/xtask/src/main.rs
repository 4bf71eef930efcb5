//! Repo automation tasks (`cargo run -p xtask -- <task>`).
//!
//! The first task is `lint`: a token-level static-analysis pass (`lexer` +
//! `guards` and the rules beside them) that enforces the parts of the
//! concurrency discipline documented in `DESIGN.md` ("Concurrency
//! discipline" and "Static concurrency analysis") that neither clippy nor
//! the runtime rank checker can see. The textual rules — banned types and
//! methods, `unwrap`/`expect` on the write path, the codecs' indexing,
//! arithmetic and narrowing casts — are clippy's, configured in the root
//! `clippy.toml` and in each codec file.
//!
//! The analyzer is dependency-free by design so the tool builds instantly
//! anywhere.
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O error.
//!
//! A second task, `bench-gate`, compares a fresh criterion report against
//! the committed `BENCH_protocol.json` baseline and fails on regression
//! (exit 1) so CI catches performance drift. (The soak run gates itself.)

mod atomics;
mod benchgate;
mod channels;
mod guards;
mod hotpath;
mod lexer;
mod lints;

use std::path::PathBuf;
use std::process::ExitCode;

const EXIT_ERROR: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut task = None;
    let mut root: Option<PathBuf> = None;
    let mut allowlist: Option<PathBuf> = None;
    let mut json = false;
    let mut hot = false;
    let mut write_baseline = false;
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut tolerance = 0.5f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => root = iter.next().map(PathBuf::from),
            "--allowlist" => allowlist = iter.next().map(PathBuf::from),
            "--json" => json = true,
            "--hot" => hot = true,
            "--write-hotpath-baseline" => write_baseline = true,
            "--baseline" => baseline = iter.next().map(PathBuf::from),
            "--fresh" => fresh = iter.next().map(PathBuf::from),
            "--tolerance" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a non-negative number");
                    return ExitCode::from(EXIT_ERROR);
                }
            },
            "lint" => task = Some("lint"),
            "bench-gate" => task = Some("bench-gate"),
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                return ExitCode::from(EXIT_ERROR);
            }
        }
    }

    match task {
        Some("lint") => run_lint(root, allowlist, json, hot, write_baseline),
        Some("bench-gate") => run_bench_gate(baseline, fresh, tolerance),
        _ => {
            print_usage();
            ExitCode::from(EXIT_ERROR)
        }
    }
}

/// Reads the fresh criterion report and holds it to the tolerance band
/// against the baseline.
fn run_bench_gate(baseline: Option<PathBuf>, fresh: Option<PathBuf>, tolerance: f64) -> ExitCode {
    let workspace_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask sits two levels under the workspace root")
        .to_path_buf();
    let Some(fresh) = fresh else {
        eprintln!("bench-gate needs --fresh FILE (the just-generated report)");
        return ExitCode::from(EXIT_ERROR);
    };
    let read = |p: &PathBuf| -> Option<String> {
        match std::fs::read_to_string(p) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", p.display());
                None
            }
        }
    };
    let Some(fresh_text) = read(&fresh) else {
        return ExitCode::from(EXIT_ERROR);
    };
    let baseline = baseline.unwrap_or_else(|| workspace_root.join("BENCH_protocol.json"));
    let Some(base_text) = read(&baseline) else {
        return ExitCode::from(EXIT_ERROR);
    };
    ExitCode::from(benchgate::run(&base_text, &fresh_text, tolerance) as u8)
}

fn print_usage() {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--root DIR] [--allowlist FILE] [--json] [--hot] \
         [--write-hotpath-baseline]"
    );
    eprintln!(
        "       cargo run -p xtask -- bench-gate --fresh FILE [--baseline FILE] [--tolerance F]"
    );
    eprintln!();
    eprintln!("Lints the workspace sources. With --root, scans an arbitrary");
    eprintln!("directory with every rule applied to every file (used for the");
    eprintln!("violation fixtures under crates/xtask/fixtures).");
    eprintln!();
    eprintln!("  --json    emit machine-readable JSON on stdout instead of text");
    eprintln!("  --hot     print the hot-path function dump (allocation counts)");
    eprintln!("  --write-hotpath-baseline");
    eprintln!("            rewrite crates/xtask/hotpath-baseline.txt with the");
    eprintln!("            current counts (use after removing allocations)");
    eprintln!();
    eprintln!("bench-gate compares a fresh criterion report against the committed");
    eprintln!("baseline (default BENCH_protocol.json) and exits 1 when any");
    eprintln!("benchmark slowed past the tolerance band (default 0.5 = +50%).");
}

fn run_lint(
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    json: bool,
    hot: bool,
    write_baseline: bool,
) -> ExitCode {
    // Default to the workspace root: xtask lives at <root>/crates/xtask.
    let workspace_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask sits two levels under the workspace root")
        .to_path_buf();
    let fixture_mode = root.is_some();
    let scan_root = root.unwrap_or_else(|| workspace_root.clone());
    let allowlist_path =
        allowlist.unwrap_or_else(|| workspace_root.join("crates/xtask/lint-allowlist.txt"));

    let allow = match lints::Allowlist::load(&allowlist_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: cannot read allowlist {}: {e}",
                allowlist_path.display()
            );
            return ExitCode::from(EXIT_ERROR);
        }
    };

    let mut report = match lints::scan_tree(&scan_root, fixture_mode, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };

    // Ratchet helper: rewrite the committed baseline from the counts just
    // measured, then rescan so the report reflects the new baseline.
    if write_baseline && !fixture_mode {
        let path = workspace_root.join("crates/xtask/hotpath-baseline.txt");
        let rendered = hotpath::render_baseline(&report.hotpath_counts);
        if let Err(e) = std::fs::write(&path, rendered) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(EXIT_ERROR);
        }
        eprintln!(
            "wrote {} ({} entries)",
            path.display(),
            report.hotpath_counts.len()
        );
        let allow = match lints::Allowlist::load(&allowlist_path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: cannot re-read allowlist: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
        report = match lints::scan_tree(&scan_root, fixture_mode, &allow) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        };
    }

    if json {
        println!("{}", report_to_json(&report));
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        if hot {
            println!("hot-path functions ({}):", report.hot.len());
            for line in &report.hot {
                println!("  {line}");
            }
        }
        if report.violations.is_empty() {
            println!("xtask lint: clean ({} files scanned)", report.files);
        } else {
            println!("xtask lint: {} violation(s)", report.violations.len());
        }
    }
    ExitCode::from(if report.violations.is_empty() { 0 } else { 1 })
}

/// Serializes the report by hand (the tool is dependency-free). Violations
/// are already sorted by (path, line, col, rule), so the output is stable
/// across runs and machines.
fn report_to_json(report: &lints::ScanReport) -> String {
    let mut out = String::from("{\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let path = v.path.to_string_lossy().replace('\\', "/");
        out.push_str(&format!("\"file\": {}, ", json_str(&path)));
        out.push_str(&format!("\"line\": {}, ", v.line));
        out.push_str(&format!("\"col\": {}, ", v.col));
        out.push_str(&format!("\"rule\": {}, ", json_str(v.rule)));
        out.push_str(&format!("\"message\": {}, ", json_str(&v.message)));
        out.push_str(&format!("\"snippet\": {}", json_str(v.snippet.trim())));
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files));
    out.push_str("  \"hot_path\": [");
    for (i, line) in report.hot.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json_str(line));
    }
    if !report.hot.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_valid_and_escaped() {
        let report = lints::ScanReport {
            violations: vec![lints::Violation {
                path: "a\\b.rs".into(),
                line: 3,
                col: 7,
                rule: "relaxed-atomics",
                message: "say \"no\"".into(),
                snippet: "\tx.unwrap()".into(),
            }],
            files: 1,
            hot: vec!["f.rs::f allocs=1  [root]".into()],
            hotpath_counts: std::collections::BTreeMap::new(),
        };
        let json = report_to_json(&report);
        // Windows separators are normalized, never escaped.
        assert!(json.contains("\"file\": \"a/b.rs\""));
        assert!(json.contains("\"line\": 3, \"col\": 7"));
        assert!(json.contains("\"message\": \"say \\\"no\\\"\""));
        // Snippet is trimmed, so the tab disappears rather than escaping.
        assert!(json.contains("\"snippet\": \"x.unwrap()\""));
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"hot_path\""));
        assert!(json.contains("f.rs::f allocs=1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_serializes_to_empty_arrays() {
        let report = lints::ScanReport {
            violations: Vec::new(),
            files: 0,
            hot: Vec::new(),
            hotpath_counts: std::collections::BTreeMap::new(),
        };
        let json = report_to_json(&report);
        assert!(json.contains("\"violations\": []"));
        assert!(json.contains("\"hot_path\": []"));
    }
}
