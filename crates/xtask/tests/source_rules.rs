//! Two source rules that need neither types nor execution, checked by
//! scanning lines of the workspace's non-test code:
//!
//! - every channel is bounded by a named `const`, and DESIGN.md §10's
//!   channel-capacity table lists exactly the channels in the code (an
//!   unbounded channel is clippy's `disallowed-methods`, excepted at its
//!   site with an `#[expect(…, reason)]`);
//! - `Ordering::Relaxed` appears only on counters: flags and latches publish
//!   state and need Release/Acquire.
//!
//! Scanned: every `.rs` file under the workspace root except `vendor`,
//! `target`, `tests`, `benches`, `examples`, `crates/xtask` and the lock
//! facade `crates/sync`; in each file, items under `#[cfg(test)]` are
//! skipped.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(path relative to the root, non-test lines with their 1-based numbers)`
/// for every scanned file, sorted by path.
fn product_sources(root: &Path) -> Vec<(String, Vec<(usize, String)>)> {
    let mut files = Vec::new();
    collect(root, root, &mut files);
    files.sort();
    files
        .into_iter()
        .map(|rel| {
            let text = fs::read_to_string(root.join(&rel)).unwrap();
            (rel, strip_test_items(&text))
        })
        .collect()
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            let skip = matches!(
                name.as_ref(),
                ".git" | "target" | "vendor" | "tests" | "benches" | "examples" | "fixtures"
            ) || rel == "crates/xtask"
                || rel == "crates/sync";
            if !skip {
                collect(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// The file's lines minus each `#[cfg(test)]` item: from the attribute to
/// the line that closes the item's first brace (or ends it with `;`).
fn strip_test_items(text: &str) -> Vec<(usize, String)> {
    let mut kept = Vec::new();
    let mut skipping = false;
    let mut depth = 0i64;
    let mut opened = false;
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if !skipping && code.trim_start().starts_with("#[cfg(test)]") {
            (skipping, depth, opened) = (true, 0, false);
        }
        if !skipping {
            kept.push((i + 1, line.to_string()));
            continue;
        }
        for c in code.chars() {
            match c {
                '{' => (depth, opened) = (depth + 1, true),
                '}' => depth -= 1,
                _ => {}
            }
        }
        let item_ended = (opened && depth == 0) || (!opened && code.trim_end().ends_with(';'));
        if item_ended {
            skipping = false;
        }
    }
    kept
}

/// What stands between the parentheses that open right after `at`.
fn call_argument(line: &str, at: usize) -> Option<&str> {
    let rest = line.get(at..)?;
    let open = rest.find('(')?;
    let close = rest.find(')')?;
    // A turbofish (`bounded::<T>(…)`) may sit between the name and `(`.
    let between = rest.get(..open)?;
    if !(between.is_empty() || between.starts_with("::<")) {
        return None;
    }
    rest.get(open + 1..close).map(str::trim)
}

/// Rows of the channel-capacity table built from the code, plus every
/// channel whose capacity is not a named constant.
fn channel_table(root: &Path) -> (BTreeSet<String>, Vec<String>) {
    let sources = product_sources(root);
    let mut consts = BTreeMap::new();
    for (_, lines) in &sources {
        for (_, line) in lines {
            let decl = line.trim_start().trim_start_matches("pub ");
            let parsed = decl
                .strip_prefix("const ")
                .and_then(|d| d.split_once(": usize = "));
            if let Some((name, value)) = parsed {
                consts.insert(name.to_string(), value.trim_end_matches(';').to_string());
            }
        }
    }
    let mut rows = BTreeSet::new();
    let mut literal = Vec::new();
    for (rel, lines) in &sources {
        let short = rel
            .strip_prefix("crates/")
            .unwrap_or(rel)
            .replacen("/src/", "/", 1);
        for (n, line) in lines {
            let sender = line
                .split_once("let (")
                .and_then(|(_, rest)| rest.split_once(','))
                .map_or_else(|| format!("chan:{n}"), |(tx, _)| tx.trim().to_string());
            let capacity = if find_call(line, "unbounded").is_some() {
                "unbounded (`#[expect]`)".to_string()
            } else if let Some(at) = find_call(line, "bounded") {
                let arg = call_argument(line, at + "bounded".len()).unwrap_or("");
                match consts.get(arg) {
                    Some(value) if is_ident(arg) => format!("`{arg}` = {value}"),
                    _ if is_ident(arg) => format!("`{arg}`"),
                    _ => {
                        literal.push(format!("{rel}:{n}: bounded({arg})"));
                        format!("`{arg}` (unnamed)")
                    }
                }
            } else {
                continue;
            };
            rows.insert(format!("| `{short}` | `{sender}` | {capacity} |"));
        }
    }
    (rows, literal)
}

/// Byte offset of a call to the free function `name` on `line`: the word
/// followed by `(` or a turbofish, not a method (`.name(`) or a definition.
fn find_call(line: &str, name: &str) -> Option<usize> {
    let code = line.split("//").next().unwrap_or("");
    code.match_indices(name).map(|(at, _)| at).find(|&at| {
        let before = code.get(..at).unwrap_or("");
        let after = code.get(at + name.len()..).unwrap_or("");
        let starts_word = !before.ends_with(|c: char| c.is_alphanumeric() || c == '_');
        starts_word
            && !before.ends_with('.')
            && !before.trim_end().ends_with("fn")
            && (after.starts_with('(') || after.starts_with("::<"))
    })
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

#[test]
fn design_doc_channel_table_matches_the_code() {
    let root = workspace_root();
    let (rows, literal) = channel_table(&root);
    assert!(
        literal.is_empty(),
        "a channel capacity must be a named `const` so the channel table documents the \
         backpressure budget: {literal:?}"
    );
    assert!(
        rows.len() >= 8,
        "found only {} channels: {rows:?}",
        rows.len()
    );
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let table = design
        .split_once("<!-- channel-capacity-table:begin -->")
        .and_then(|(_, rest)| rest.split_once("<!-- channel-capacity-table:end -->"))
        .map(|(table, _)| table)
        .expect("DESIGN.md has the channel-capacity table markers");
    let documented: BTreeSet<String> = table
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(str::to_string)
        .collect();
    assert_eq!(
        documented, rows,
        "DESIGN.md §10's channel table differs from the channels in the code"
    );
}

/// Substrings that mark an atomic as a statistic.
const COUNTER_WORDS: &[&str] = &[
    "count", "counter", "bytes", "ops", "seq", "next", "total", "token", "hits", "misses", "id",
    "epoch", "gen", "tick",
];

/// Read-modify-write accumulators: atomic under any ordering.
const ACCUMULATORS: &[&str] = &["fetch_add", "fetch_sub", "fetch_min", "fetch_max"];

/// The method whose argument list is open at the end of `before`, with its
/// receiver chain (`self.stop.store(` gives `("store", "self.stop")`).
fn open_call(before: &str) -> Option<(String, String)> {
    let mut depth = 0i32;
    for (at, c) in before.char_indices().rev() {
        match c {
            ')' => depth += 1,
            '(' if depth > 0 => depth -= 1,
            '(' => {
                let head = before.get(..at)?;
                let start = head
                    .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
                    .map_or(0, |i| i + 1);
                let chain = head.get(start..)?;
                let (receiver, method) = chain.rsplit_once('.').unwrap_or(("", chain));
                return Some((method.to_string(), receiver.to_string()));
            }
            _ => {}
        }
    }
    None
}

/// Every `Relaxed` ordering outside a counter site, as `path:line`.
fn relaxed_flags(root: &Path) -> Vec<String> {
    let mut flagged = Vec::new();
    for (rel, lines) in product_sources(root) {
        if rel.ends_with("metrics.rs") {
            continue;
        }
        for (i, (n, line)) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let Some(at) = code.find("Relaxed") else {
                continue;
            };
            if code.trim_start().starts_with("use ") || code.contains("Relaxed =>") {
                continue;
            }
            // The call may open a few lines up (`fetch_update(\n Relaxed,`).
            let first = i.saturating_sub(4);
            let before: String = lines[first..i]
                .iter()
                .map(|(_, l)| l.split("//").next().unwrap_or(""))
                .chain(std::iter::once(code.get(..at).unwrap_or("")))
                .map(str::trim)
                .collect();
            let (method, receiver) = open_call(&before).unwrap_or_default();
            let counter = COUNTER_WORDS
                .iter()
                .any(|w| receiver.to_ascii_lowercase().contains(w));
            if !ACCUMULATORS.contains(&method.as_str()) && !counter {
                flagged.push(format!("{rel}:{n}: `{receiver}.{method}(…, Relaxed)`"));
            }
        }
    }
    flagged
}

#[test]
fn relaxed_orderings_sit_only_on_counters() {
    let flagged = relaxed_flags(&workspace_root());
    assert!(
        flagged.is_empty(),
        "`Ordering::Relaxed` outside a counter: a flag or latch publishes state, so it needs \
         Release/Acquire: {flagged:?}"
    );
}

#[test]
fn the_scans_see_what_they_look_for() {
    let dir = std::env::temp_dir().join(format!("source-rules-{}", std::process::id()));
    fs::create_dir_all(dir.join("src")).unwrap();
    fs::write(
        dir.join("src/lib.rs"),
        "const DEPTH: usize = 8;\n\
         fn queues() {\n\
         \x20   let (good_tx, _) = bounded::<u64>(DEPTH);\n\
         \x20   let (raw_tx, _) = bounded(64);\n\
         \x20   let (evt_tx, _) = unbounded::<u64>();\n\
         }\n\
         fn flags(running: &AtomicBool, ops_count: &AtomicU64) {\n\
         \x20   running.store(false, Ordering::Relaxed);\n\
         \x20   ops_count.fetch_add(1, Ordering::Relaxed);\n\
         \x20   let _ = ops_count.load(Ordering::Relaxed);\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn t(stop: &AtomicBool) { stop.store(true, Ordering::Relaxed); }\n\
         \x20   fn q() { let (test_tx, _) = bounded(1); }\n\
         }\n",
    )
    .unwrap();
    let (rows, literal) = channel_table(&dir);
    let flagged = relaxed_flags(&dir);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(
        rows.into_iter().collect::<Vec<_>>(),
        [
            "| `src/lib.rs` | `evt_tx` | unbounded (`#[expect]`) |",
            "| `src/lib.rs` | `good_tx` | `DEPTH` = 8 |",
            "| `src/lib.rs` | `raw_tx` | `64` (unnamed) |",
        ]
    );
    assert_eq!(literal, ["src/lib.rs:4: bounded(64)"]);
    assert_eq!(flagged, ["src/lib.rs:8: `running.store(…, Relaxed)`"]);
}
