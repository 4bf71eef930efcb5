//! Bench regression gate: compares a freshly generated `BENCH_protocol.json`
//! against the committed baseline and fails when any benchmark slowed past
//! the tolerance band (ROADMAP item 2: perf numbers regress silently unless
//! a gate reads them).
//!
//! The report shape is what `crates/bench` emits:
//!
//! ```json
//! { "benchmark": "protocol",
//!   "results": [ { "group": "...", "id": "...", "ns_per_iter": 123.4,
//!                  "iters": 1000, "mib_per_s": 56.7 }, … ] }
//! ```
//!
//! Parsing is hand-rolled (the workspace builds without serde): a minimal
//! scanner that understands just enough JSON to pull string and number
//! fields out of the `results` array of objects.

use std::collections::BTreeMap;

/// `(group, id) -> ns_per_iter`.
pub type BenchMap = BTreeMap<(String, String), f64>;

/// Extracts `(group, id, ns_per_iter)` triples from a bench report.
/// Tolerant of field order and unknown fields; objects missing any of the
/// three fields are skipped.
pub fn parse_report(text: &str) -> BenchMap {
    let mut out = BenchMap::new();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    // Walk top-level; for each `{ … }` object at any depth, collect its
    // scalar fields. The report nests one level (results array), so a
    // simple per-object field harvest is enough.
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let (fields, end) = parse_object_scalars(text, i);
            if let (Some(group), Some(id), Some(ns)) = (
                fields.get("group"),
                fields.get("id"),
                fields.get("ns_per_iter"),
            ) {
                if let Ok(v) = ns.parse::<f64>() {
                    out.insert((group.clone(), id.clone()), v);
                }
            }
            // Only skip the whole object if it yielded a result row;
            // otherwise descend into it looking for nested rows.
            if fields.contains_key("ns_per_iter") {
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Collects the scalar (string/number/bool) fields of the object starting
/// at `open` (byte offset of `{`). Returns the fields and the offset one
/// past the matching `}`. Nested objects/arrays are skipped for scalar
/// purposes but their extent is honored.
fn parse_object_scalars(text: &str, open: usize) -> (BTreeMap<String, String>, usize) {
    let bytes = text.as_bytes();
    let mut fields = BTreeMap::new();
    let mut i = open + 1;
    let mut depth = 1i32;
    let mut key: Option<String> = None;
    while i < bytes.len() && depth > 0 {
        match bytes[i] {
            b'"' => {
                let (s, ni) = parse_string(text, i);
                i = ni;
                if depth == 1 {
                    match key.take() {
                        None => key = Some(s),
                        Some(k) => {
                            fields.insert(k, s);
                        }
                    }
                }
                continue;
            }
            b':' | b',' | b' ' | b'\n' | b'\r' | b'\t' => {}
            b'{' | b'[' => {
                depth += 1;
                if depth == 2 {
                    key = None; // key held a container, not a scalar
                }
            }
            b'}' | b']' => depth -= 1,
            _ => {
                if depth == 1 {
                    let start = i;
                    while i < bytes.len()
                        && !matches!(bytes[i], b',' | b'}' | b']' | b' ' | b'\n' | b'\r' | b'\t')
                    {
                        i += 1;
                    }
                    if let Some(k) = key.take() {
                        fields.insert(k, text[start..i].to_string());
                    }
                    continue;
                }
            }
        }
        i += 1;
    }
    (fields, i)
}

/// Parses the JSON string starting at `open` (offset of `"`); returns the
/// unescaped value and the offset one past the closing quote.
fn parse_string(text: &str, open: usize) -> (String, usize) {
    let bytes = text.as_bytes();
    let mut out = String::new();
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return (out, i + 1),
            b'\\' if i + 1 < bytes.len() => {
                match bytes[i + 1] {
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    c => out.push(c as char),
                }
                i += 2;
                continue;
            }
            _ => {
                // Multi-byte UTF-8 is copied through by char boundary.
                let ch = text[i..].chars().next().unwrap_or('\u{fffd}');
                out.push(ch);
                i += ch.len_utf8();
                continue;
            }
        }
    }
    (out, i)
}

/// One gate verdict line.
pub struct GateLine {
    pub label: String,
    pub base_ns: f64,
    pub fresh_ns: f64,
    pub ratio: f64,
    pub regressed: bool,
}

/// Compares fresh results against the baseline. A benchmark regresses when
/// `fresh > base * (1 + tolerance)`. Benchmarks present in the baseline but
/// missing from the fresh run are hard failures (silently dropping a bench
/// would otherwise un-gate it); new benchmarks are reported informationally.
pub fn compare(base: &BenchMap, fresh: &BenchMap, tolerance: f64) -> (Vec<GateLine>, Vec<String>) {
    let mut lines = Vec::new();
    let mut errors = Vec::new();
    for ((group, id), &base_ns) in base {
        let label = format!("{group}/{id}");
        match fresh.get(&(group.clone(), id.clone())) {
            None => errors.push(format!(
                "benchmark `{label}` present in baseline but missing from fresh results"
            )),
            Some(&fresh_ns) => {
                let ratio = if base_ns > 0.0 {
                    fresh_ns / base_ns
                } else {
                    f64::INFINITY
                };
                lines.push(GateLine {
                    label,
                    base_ns,
                    fresh_ns,
                    ratio,
                    regressed: fresh_ns > base_ns * (1.0 + tolerance),
                });
            }
        }
    }
    for (group, id) in fresh.keys() {
        if !base.contains_key(&(group.clone(), id.clone())) {
            lines.push(GateLine {
                label: format!("{group}/{id} (new, not gated)"),
                base_ns: 0.0,
                fresh_ns: fresh[&(group.clone(), id.clone())],
                ratio: 0.0,
                regressed: false,
            });
        }
    }
    (lines, errors)
}

/// Runs the gate: returns the process exit code (0 pass, 1 regression or
/// structural error) and prints a verdict table.
pub fn run(baseline_text: &str, fresh_text: &str, tolerance: f64) -> i32 {
    let base = parse_report(baseline_text);
    let fresh = parse_report(fresh_text);
    if base.is_empty() {
        eprintln!("bench-gate: baseline contains no benchmark results");
        return 1;
    }
    let (lines, errors) = compare(&base, &fresh, tolerance);
    println!(
        "bench-gate: {} benchmark(s), tolerance +{:.0}%",
        base.len(),
        tolerance * 100.0
    );
    let mut failed = !errors.is_empty();
    for e in &errors {
        println!("  FAIL  {e}");
    }
    for l in &lines {
        if l.base_ns == 0.0 {
            println!("  info  {}: {:.1} ns/iter", l.label, l.fresh_ns);
            continue;
        }
        let verdict = if l.regressed {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  {verdict:>4}  {}: {:.1} -> {:.1} ns/iter ({:+.1}%)",
            l.label,
            l.base_ns,
            l.fresh_ns,
            (l.ratio - 1.0) * 100.0
        );
    }
    if failed {
        println!("bench-gate: REGRESSION (or missing benchmarks) — see lines above");
        1
    } else {
        println!("bench-gate: pass");
        0
    }
}

/// The scalar summary a soak run writes into `BENCH_soak.json` (the
/// `summary` object; the per-second `timeline` array is checked for
/// presence/size but not gated row-by-row).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakSummary {
    pub events: f64,
    pub p50_ms: f64,
    pub p999_ms: f64,
    pub measured_seconds: f64,
    pub p90_second_p999_ms: f64,
    pub spike_seconds: f64,
    pub unattributed_spike_seconds: f64,
    pub timeline_rows: usize,
}

/// Extracts the soak summary from a `BENCH_soak.json`. Returns an error
/// naming the first missing/unparseable field — a silently-missing field
/// must fail the gate, never pass it.
pub fn parse_soak(text: &str) -> Result<SoakSummary, String> {
    let bytes = text.as_bytes();
    // Harvest every object's scalars; the summary object is the one that
    // carries `p90_second_p999_ms`.
    let mut summary: Option<BTreeMap<String, String>> = None;
    let mut timeline_rows = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let (fields, end) = parse_object_scalars(text, i);
            if fields.contains_key("p90_second_p999_ms") {
                summary = Some(fields);
                i = end;
                continue;
            }
            if fields.contains_key("p999_ms") && fields.contains_key("sec") {
                timeline_rows += 1;
                i = end;
                continue;
            }
        }
        i += 1;
    }
    let summary = summary.ok_or("no summary object (missing `p90_second_p999_ms` field)")?;
    let num = |name: &str| -> Result<f64, String> {
        summary
            .get(name)
            .ok_or(format!("summary is missing `{name}`"))?
            .parse::<f64>()
            .map_err(|_| format!("summary field `{name}` is not a number"))
    };
    Ok(SoakSummary {
        events: num("events")?,
        p50_ms: num("p50_ms")?,
        p999_ms: num("p999_ms")?,
        measured_seconds: num("measured_seconds")?,
        p90_second_p999_ms: num("p90_second_p999_ms")?,
        spike_seconds: num("spike_seconds")?,
        unattributed_spike_seconds: num("unattributed_spike_seconds")?,
        timeline_rows,
    })
}

/// Overall-p50 ceiling for a soak run. Latency is measured from each event's
/// *scheduled* slot, so a median in the hundreds of milliseconds means the
/// writers spent the run queued behind the store — the collapse regime, which
/// flattens the tail into the median instead of spiking it.
pub const MAX_ON_SCHEDULE_P50_MS: f64 = 250.0;

/// Bound on the 90th-percentile second's p999, in milliseconds. Healthy
/// `soak --smoke` runs, paced and under `--fault-seed 7`, read
/// 1.5–26 ms (EXPERIMENTS.md lists every run); the on/off throttle
/// oscillation this gate exists to catch parks that second at the
/// threshold drain time, 333 ms under the burst-control profile.
pub const MAX_P90_SECOND_P999_MS: f64 = 50.0;

/// Runs the soak gate on a fresh report. Returns the process exit code
/// (0 pass, 1 fail).
///
/// The gated tail statistic is `p90_second_p999_ms` — the 90th-percentile
/// *second's* p999. The single worst second (and the overall p999 it drags
/// along) is deliberately not bounded: a soak under a bursty workload
/// legitimately catches an occasional flush × surge collision, and a gate
/// keyed to the worst second would flake on it. What separates a healthy
/// run from an oscillating one is spike *depth* across the run: host
/// scheduling noise produces shallow (tens of ms) wobbles, while throttle
/// oscillation parks the p90 second at hundreds of ms.
///
/// Bounds:
/// - the timeline must exist, be non-empty, and carry events;
/// - every latency spike must be attributed to a stall class;
/// - `p90_second_p999_ms` must not exceed [`MAX_P90_SECOND_P999_MS`];
/// - overall p50 must stay under [`MAX_ON_SCHEDULE_P50_MS`]: a store whose
///   writers fall hopelessly behind schedule shows a *flat* tail (every
///   latency balloons together), so a tail bound alone would wave through
///   exactly the collapse the soak exists to catch.
pub fn run_soak(fresh_text: &str) -> i32 {
    let fresh = match parse_soak(fresh_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("soak-gate: fresh report unusable: {e}");
            return 1;
        }
    };
    println!(
        "soak-gate: events={} p50={}ms p999={}ms p90_second_p999={}ms spikes={}/{} \
         unattributed={} timeline_rows={}",
        fresh.events,
        fresh.p50_ms,
        fresh.p999_ms,
        fresh.p90_second_p999_ms,
        fresh.spike_seconds,
        fresh.measured_seconds,
        fresh.unattributed_spike_seconds,
        fresh.timeline_rows,
    );
    let mut failures = Vec::new();
    if fresh.events <= 0.0 {
        failures.push("run recorded no events".to_string());
    }
    if fresh.timeline_rows == 0 {
        failures.push("report carries no per-second timeline".to_string());
    }
    if fresh.unattributed_spike_seconds > 0.0 {
        failures.push(format!(
            "{} spike second(s) not attributed to any stall class",
            fresh.unattributed_spike_seconds
        ));
    }
    if fresh.p90_second_p999_ms > MAX_P90_SECOND_P999_MS {
        failures.push(format!(
            "p90 second's p999 {}ms exceeds the bound {MAX_P90_SECOND_P999_MS}ms",
            fresh.p90_second_p999_ms
        ));
    }
    if fresh.p50_ms > MAX_ON_SCHEDULE_P50_MS {
        failures.push(format!(
            "overall p50 {}ms exceeds the on-schedule ceiling {MAX_ON_SCHEDULE_P50_MS}ms \
             (writers collapsed behind the store)",
            fresh.p50_ms
        ));
    }
    if failures.is_empty() {
        println!("soak-gate: pass");
        0
    } else {
        for f in &failures {
            println!("  FAIL  {f}");
        }
        println!("soak-gate: FAILED");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "benchmark": "protocol",
      "results": [
        { "group": "encode", "id": "append_1k", "ns_per_iter": 100.0, "iters": 10, "mib_per_s": 5.0 },
        { "group": "decode", "id": "read_1k", "ns_per_iter": 200.5, "iters": 10, "mib_per_s": 2.0 }
      ]
    }"#;

    #[test]
    fn parses_group_id_and_ns() {
        let m = parse_report(SAMPLE);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&("encode".into(), "append_1k".into())], 100.0);
        assert_eq!(m[&("decode".into(), "read_1k".into())], 200.5);
    }

    #[test]
    fn within_tolerance_passes() {
        let base = parse_report(SAMPLE);
        let fresh_text = SAMPLE.replace("100.0,", "140.0,");
        let fresh = parse_report(&fresh_text);
        let (lines, errors) = compare(&base, &fresh, 0.5);
        assert!(errors.is_empty());
        assert!(
            lines.iter().all(|l| !l.regressed),
            "{:?}",
            lines
                .iter()
                .map(|l| (&l.label, l.ratio))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn past_tolerance_regresses() {
        let base = parse_report(SAMPLE);
        let fresh_text = SAMPLE.replace("100.0,", "160.0,");
        let fresh = parse_report(&fresh_text);
        let (lines, _) = compare(&base, &fresh, 0.5);
        let bad: Vec<_> = lines.iter().filter(|l| l.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "encode/append_1k");
        assert_eq!(run(SAMPLE, &fresh_text, 0.5), 1);
        assert_eq!(run(SAMPLE, SAMPLE, 0.5), 0);
    }

    #[test]
    fn missing_benchmark_is_a_hard_failure() {
        let base = parse_report(SAMPLE);
        let fresh_text = SAMPLE.replace("\"group\": \"decode\"", "\"group\": \"renamed\"");
        let fresh = parse_report(&fresh_text);
        let (_, errors) = compare(&base, &fresh, 0.5);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("decode/read_1k"));
    }

    #[test]
    fn faster_results_always_pass() {
        let base = parse_report(SAMPLE);
        let fresh_text = SAMPLE.replace("200.5,", "50.0,");
        let fresh = parse_report(&fresh_text);
        let (lines, errors) = compare(&base, &fresh, 0.0);
        assert!(errors.is_empty());
        assert!(lines.iter().all(|l| !l.regressed));
    }

    const SOAK_SAMPLE: &str = r#"{
      "benchmark": "soak",
      "summary": {
        "profile": "paced",
        "seconds": 35,
        "writers": 4,
        "events": 21000,
        "errors": 0,
        "p50_ms": 1.500,
        "p99_ms": 6.000,
        "p999_ms": 12.000,
        "dispersion": 8.00,
        "measured_seconds": 28,
        "p90_second_p999_ms": 9.000,
        "typical_dispersion": 6.00,
        "worst_second_p999_ms": 20.000,
        "worst_dispersion": 13.33,
        "spike_seconds": 2,
        "unattributed_spike_seconds": 0
      },
      "timeline": [
        {"sec": 0, "count": 600, "p50_ms": 1.5, "p99_ms": 5.0, "p999_ms": 8.0, "stall_ms": {"throttle": 0.0, "flush": 2.5, "truncation": 0.1, "cache_evict": 0.0, "wal_rollover": 0.0}},
        {"sec": 1, "count": 600, "p50_ms": 1.4, "p99_ms": 6.0, "p999_ms": 20.0, "stall_ms": {"throttle": 18.0, "flush": 1.0, "truncation": 0.0, "cache_evict": 0.0, "wal_rollover": 0.0}}
      ]
    }"#;

    #[test]
    fn soak_summary_parses() {
        let s = parse_soak(SOAK_SAMPLE).unwrap();
        assert_eq!(s.events, 21000.0);
        assert_eq!(s.measured_seconds, 28.0);
        assert_eq!(s.p90_second_p999_ms, 9.0);
        assert_eq!(s.unattributed_spike_seconds, 0.0);
        assert_eq!(s.timeline_rows, 2);
    }

    #[test]
    fn soak_within_bounds_passes() {
        assert_eq!(run_soak(SOAK_SAMPLE), 0);
    }

    #[test]
    fn soak_tail_bound_is_absolute() {
        // The bound is in milliseconds, whatever the median: a faster p50
        // does not turn the same tail into a failure.
        let fast = SOAK_SAMPLE.replace("\"p50_ms\": 1.500,", "\"p50_ms\": 0.250,");
        assert_eq!(run_soak(&fast), 0);
        let with_p90 = |ms: f64| {
            let field = format!("\"p90_second_p999_ms\": {ms},");
            SOAK_SAMPLE.replace("\"p90_second_p999_ms\": 9.000,", &field)
        };
        assert_eq!(run_soak(&with_p90(MAX_P90_SECOND_P999_MS)), 0);
        assert_eq!(run_soak(&with_p90(MAX_P90_SECOND_P999_MS + 1.0)), 1);
    }

    #[test]
    fn soak_single_bad_second_does_not_fail() {
        // One collision second blows up the worst-second and overall-p999
        // stats, but the p90 second stays healthy — the gate must absorb
        // it, not flake.
        let fresh = SOAK_SAMPLE
            .replace("\"p999_ms\": 12.000,", "\"p999_ms\": 265.000,")
            .replace(
                "\"worst_second_p999_ms\": 20.000,",
                "\"worst_second_p999_ms\": 274.000,",
            );
        assert_eq!(run_soak(&fresh), 0);
    }

    #[test]
    fn soak_collapsed_schedule_fails_despite_a_flat_tail() {
        // The collapse regime: every latency balloons together, so the tail
        // sits on the median — only the p50 ceiling catches it.
        let fresh = SOAK_SAMPLE
            .replace("\"p50_ms\": 1.500,", "\"p50_ms\": 2900.000,")
            .replace("\"p999_ms\": 12.000,", "\"p999_ms\": 5800.000,");
        assert_eq!(run_soak(&fresh), 1);
    }

    #[test]
    fn soak_unattributed_spike_fails() {
        let fresh = SOAK_SAMPLE.replace(
            "\"unattributed_spike_seconds\": 0",
            "\"unattributed_spike_seconds\": 1",
        );
        assert_eq!(run_soak(&fresh), 1);
    }

    #[test]
    fn soak_missing_summary_or_timeline_fails() {
        assert_eq!(run_soak("{}"), 1);
        assert_eq!(run_soak(""), 1);
        let fresh = SOAK_SAMPLE.replace("\"events\": 21000,", "");
        assert_eq!(run_soak(&fresh), 1);
        // Summary intact but the timeline array emptied: structural failure.
        let (head, _) = SOAK_SAMPLE.split_once("\"timeline\"").unwrap();
        let no_timeline = format!("{head}\"timeline\": []\n    }}");
        assert_eq!(run_soak(&no_timeline), 1);
    }
}
