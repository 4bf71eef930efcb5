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
}
