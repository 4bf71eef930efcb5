//! Repo automation tasks (`cargo run -p xtask -- <task>`).
//!
//! The one task is `bench-gate`: it compares a fresh criterion report
//! against the committed `BENCH_protocol.json` baseline and fails on
//! regression (exit 1) so CI catches performance drift. (The soak run gates
//! itself.) Exit codes: 0 within the band, 1 regression, 2 usage or I/O
//! error.
//!
//! The concurrency discipline is checked elsewhere (DESIGN.md §7, §10): lock
//! order and blocking under a lock by the runtime checker in `pravega_sync`,
//! the textual rules by clippy from the root `clippy.toml`, allocations on
//! the append path by `tests/hot_path_alloc.rs`, and the channel-capacity
//! table and `Relaxed` orderings by this crate's `tests/source_rules.rs`.

#![deny(unsafe_code)]

mod benchgate;

use std::path::PathBuf;
use std::process::ExitCode;

const EXIT_ERROR: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut task = None;
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut tolerance = 0.5f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => baseline = iter.next().map(PathBuf::from),
            "--fresh" => fresh = iter.next().map(PathBuf::from),
            "--tolerance" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a non-negative number");
                    return ExitCode::from(EXIT_ERROR);
                }
            },
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
        "usage: cargo run -p xtask -- bench-gate --fresh FILE [--baseline FILE] [--tolerance F]"
    );
    eprintln!();
    eprintln!("Compares a fresh criterion report against the committed baseline");
    eprintln!("(default BENCH_protocol.json) and exits 1 when any benchmark slowed");
    eprintln!("past the tolerance band (default 0.5 = +50%).");
}
