//! The lint driver: runs every token-level rule over the tree and collects
//! the violations.
//!
//! The textual rules — locks only through `pravega_sync`, guards never
//! returned or stored, no `unwrap`/`expect` on the write path, time only
//! through `pravega_common::clock`, sleeps only in `pravega_common::retry`,
//! crash hooks armed only by `pravega-faults`, and `<crate>.<component>.<name>`
//! metric names — are not here. Clippy enforces the first six from the root
//! `clippy.toml` with type resolution; `MetricsRegistry` checks the last when
//! a name is registered.
//!
//! Neither is lock order: the runtime rank checker in `pravega-sync` panics
//! on any inversion an exercised path takes, and the rank-table test there
//! pins `rank.rs` to DESIGN.md §7. Nor are the codecs' panic paths: clippy's
//! `indexing_slicing`, `arithmetic_side_effects` and
//! `cast_possible_truncation` are switched on in each codec file.
//!
//! A guard-liveness pass over the token stream (see `lexer` and `guards`)
//! enforces guard discipline:
//!
//! * `guard-across-blocking` — no `pravega_sync` guard may be live across a
//!   blocking operation: sleeps, channel `recv`, `thread::join`, `Condvar`
//!   waits on *other* locks, retry executions, or calls into functions that
//!   transitively perform file I/O. The append path must never stall behind
//!   a held lock.
//!
//! Three more rules ride on the same tokens:
//!
//! * `relaxed-atomics` (see `atomics`) — `Ordering::Relaxed` only on
//!   recognizable counters; flags and latches publish state.
//! * `channel-discipline` (see `channels`) — every channel is bounded by a
//!   named capacity, or allowlisted with the reason it cannot be.
//! * `hot-path-alloc` (see `hotpath`) — allocations and copies inside the
//!   append/read hot paths are counted per function and gated by the
//!   ratcheted baseline in `crates/xtask/hotpath-baseline.txt`.
//!
//! Finally `allowlist-stale` keeps `lint-allowlist.txt` honest: an entry
//! that no longer matches any would-be violation is itself an error.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions), `tests/`,
//! `benches/`, `examples/` and `vendor/` are exempt from every rule.

use crate::guards;
use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation, printed as `path:line:col: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    pub path: PathBuf,
    pub line: usize,
    pub col: usize,
    pub rule: &'static str,
    pub message: String,
    /// The trimmed source line, for human output and the JSON artifact.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

/// Sanctioned lint sites: `path-suffix: line-substring` entries. Every rule
/// that supports suppression consults the same list; `mark`s record which
/// entries earned their keep so stale ones can be reported.
#[derive(Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: RefCell<Vec<bool>>,
}

struct AllowEntry {
    path_suffix: String,
    needle: String,
    /// 1-based line in `lint-allowlist.txt`, for `allowlist-stale` reports.
    file_line: usize,
}

impl Allowlist {
    /// Loads the allowlist; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(e),
        };
        Ok(Self::parse(&text))
    }

    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((path, needle)) = line.split_once(": ") {
                entries.push(AllowEntry {
                    path_suffix: path.trim().to_string(),
                    needle: needle.trim().to_string(),
                    file_line: idx + 1,
                });
            }
        }
        let used = RefCell::new(vec![false; entries.len()]);
        Self { entries, used }
    }

    pub(crate) fn permits(&self, path: &Path, line: &str) -> bool {
        let path = path.to_string_lossy().replace('\\', "/");
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if path.ends_with(e.path_suffix.as_str()) && line.contains(e.needle.as_str()) {
                self.used.borrow_mut()[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries that never matched anything: `(allowlist line, entry text)`.
    fn stale_entries(&self) -> Vec<(usize, String)> {
        let used = self.used.borrow();
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(_, e)| (e.file_line, format!("{}: {}", e.path_suffix, e.needle)))
            .collect()
    }
}

/// Result of a tree scan.
pub struct ScanReport {
    pub violations: Vec<Violation>,
    pub files: usize,
    /// The hot-path dump: one `file::fn allocs=N` line per hot function.
    pub hot: Vec<String>,
    /// Per-function hot-path allocation counts (the baseline content model).
    pub hotpath_counts: std::collections::BTreeMap<String, usize>,
}

/// Scans every `.rs` file under `root`.
///
/// In `fixture_mode` (a `--root` override) every rule applies to every file,
/// so the violation fixtures trip their rule without needing to live on the
/// real write path.
pub fn scan_tree(
    root: &Path,
    fixture_mode: bool,
    allow: &Allowlist,
) -> std::io::Result<ScanReport> {
    let texts = read_tree(root, fixture_mode)?;
    let mut violations = Vec::new();
    let all_fns = guard_pass(&texts, fixture_mode, allow, &mut violations);

    let line_text = |rel: &Path, line: u32| -> String {
        texts
            .iter()
            .find(|(r, _)| r == rel)
            .and_then(|(_, t)| t.lines().nth(line as usize - 1))
            .unwrap_or("")
            .trim()
            .to_string()
    };

    // channel-discipline: every channel creation site, checked where it is
    // written.
    for ch in &crate::channels::scan(&texts, fixture_mode) {
        let Some(message) = ch.problem() else {
            continue;
        };
        let snippet = line_text(&ch.file, ch.line);
        if allow.permits(&ch.file, &snippet) {
            continue;
        }
        violations.push(Violation {
            path: ch.file.clone(),
            line: ch.line as usize,
            col: ch.col as usize,
            rule: "channel-discipline",
            message,
            snippet,
        });
    }

    // relaxed-atomics: Relaxed orderings outside recognizable counters.
    for (rel, text) in &texts {
        if !guards::guard_analysis_applies(rel, fixture_mode) {
            continue;
        }
        for s in crate::atomics::scan_file(rel, text) {
            let snippet = line_text(rel, s.line);
            if allow.permits(rel, &snippet) {
                continue;
            }
            violations.push(Violation {
                path: rel.clone(),
                line: s.line as usize,
                col: s.col as usize,
                rule: "relaxed-atomics",
                message: format!(
                    "`Ordering::Relaxed` in `{}.{}(…)` is not a recognized counter site; \
                     flags and latches publish state — use Acquire/Release (or justify the \
                     entry in the allowlist)",
                    s.receiver, s.method
                ),
                snippet,
            });
        }
    }

    // hot-path-alloc: reachability from the root list, allocation sites,
    // ratcheted baseline (fixture mode: every site is a violation).
    let hp = crate::hotpath::audit(&texts, &all_fns, fixture_mode, allow);
    if fixture_mode {
        crate::hotpath::check_fixture(&hp, &mut violations);
    } else {
        let baseline =
            fs::read_to_string(root.join("crates/xtask/hotpath-baseline.txt")).unwrap_or_default();
        crate::hotpath::check(&hp, &baseline, &mut violations);
    }
    let hot = crate::hotpath::render(&hp);
    let hotpath_counts = crate::hotpath::counts(&hp);

    // Staleness only applies to the real tree: fixture scans deliberately
    // run against an allowlist written for the workspace.
    if !fixture_mode {
        for (file_line, entry) in allow.stale_entries() {
            violations.push(Violation {
                path: PathBuf::from("crates/xtask/lint-allowlist.txt"),
                line: file_line,
                col: 1,
                rule: "allowlist-stale",
                message: format!(
                    "allowlist entry `{entry}` matches no current violation; remove it"
                ),
                snippet: entry,
            });
        }
    }

    violations
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(ScanReport {
        violations,
        files: texts.len(),
        hot,
        hotpath_counts,
    })
}

/// Every `.rs` file under `root` as `(path relative to root, text)`, sorted.
fn read_tree(root: &Path, fixture_mode: bool) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, fixture_mode, &mut files)?;
    files.sort();
    files
        .iter()
        .map(|file| {
            let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
            Ok((rel, fs::read_to_string(file)?))
        })
        .collect()
}

/// The token-level passes: guard liveness and blocking propagation. Returns
/// every function summary (the hot-path audit walks the same call graph).
fn guard_pass(
    texts: &[(PathBuf, String)],
    fixture_mode: bool,
    allow: &Allowlist,
    out: &mut Vec<Violation>,
) -> Vec<guards::FnSummary> {
    let applicable: Vec<&(PathBuf, String)> = texts
        .iter()
        .filter(|(rel, _)| guards::guard_analysis_applies(rel, fixture_mode))
        .collect();

    // Pass A: workspace-wide field → rank map (fallback for files that
    // acquire locks declared elsewhere).
    let mut lock_map = guards::LockMap::default();
    for (rel, text) in &applicable {
        let _ = rel;
        let toks = crate::lexer::lex(text);
        lock_map.add_file(&guards::lock_fields_of(&toks));
    }

    // Pass B: full per-file analysis with the global map available.
    let mut all_fns = Vec::new();
    for (rel, text) in &applicable {
        let toks = crate::lexer::lex(text);
        all_fns.extend(guards::analyze_file(rel, &toks, &lock_map));
    }

    let line_text = |rel: &Path, line: u32| -> String {
        texts
            .iter()
            .find(|(r, _)| r == rel)
            .and_then(|(_, t)| t.lines().nth(line as usize - 1))
            .unwrap_or("")
            .trim()
            .to_string()
    };

    // guard-across-blocking: direct blocking primitives under a live guard…
    for f in &all_fns {
        for b in &f.blocking_held {
            let snippet = line_text(&f.file, b.line);
            if allow.permits(&f.file, &snippet) {
                continue;
            }
            out.push(Violation {
                path: f.file.clone(),
                line: b.line as usize,
                col: b.col as usize,
                rule: "guard-across-blocking",
                message: format!(
                    "{} in `{}` while holding {}; drop the guard (copy out, then block) \
                     or narrow the critical section",
                    b.what,
                    f.name,
                    b.held.join(", ")
                ),
                snippet,
            });
        }
    }

    // …and calls into functions that transitively block (file I/O, fsync,
    // retry executions, pacing sleeps), matched by bare callee name.
    let blocking = guards::blocking_callees(&all_fns);
    for f in &all_fns {
        for c in &f.calls_held {
            // A call to a callee sharing the caller's own name is almost
            // always wrapper delegation to another type's method; bare-name
            // matching would pin the caller's own summary on it, so skip it.
            if !blocking.contains(&c.callee)
                || guards::CALL_STOPLIST.contains(&c.callee.as_str())
                || c.callee == f.name
            {
                continue;
            }
            let snippet = line_text(&f.file, c.line);
            if allow.permits(&f.file, &snippet) {
                continue;
            }
            out.push(Violation {
                path: f.file.clone(),
                line: c.line as usize,
                col: c.col as usize,
                rule: "guard-across-blocking",
                message: format!(
                    "call to `{}` (reaches blocking I/O or a sleep) in `{}` while holding {}; \
                     drop the guard first or allowlist with a justification",
                    c.callee,
                    f.name,
                    c.held_labels.join(", ")
                ),
                snippet,
            });
        }
    }

    all_fns
}

fn collect_rs_files(dir: &Path, fixture_mode: bool, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Exempt trees. In fixture mode only VCS/build litter is skipped,
            // so a fixtures directory passed as --root is fully scanned.
            let skip = if fixture_mode {
                matches!(name.as_ref(), ".git" | "target")
            } else {
                matches!(
                    name.as_ref(),
                    ".git" | "target" | "vendor" | "tests" | "benches" | "examples" | "fixtures"
                ) || name.as_ref() == "xtask"
            };
            if !skip {
                collect_rs_files(&path, fixture_mode, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_each_trip_their_rule() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = scan_tree(&fixtures, true, &Allowlist::default()).unwrap();
        // Each fixture file must trip the rule it is named for.
        for (file, rule) in [
            ("guard_across_blocking.rs", "guard-across-blocking"),
            ("hot_path_alloc.rs", "hot-path-alloc"),
            ("channel_discipline.rs", "channel-discipline"),
            ("relaxed_atomics.rs", "relaxed-atomics"),
        ] {
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.path.to_string_lossy() == file && v.rule == rule),
                "fixture {file} did not trip {rule}:\n{}",
                report
                    .violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        // Both-direction checks for the new rules: the compliant
        // counterexamples inside each fixture must NOT fire.
        let disc: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "channel-discipline")
            .collect();
        assert_eq!(disc.len(), 2, "unbounded + magic capacity only: {disc:?}");
        assert!(disc.iter().all(|v| !v.snippet.contains("REPLY_DEPTH")));
        let relaxed: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "relaxed-atomics")
            .collect();
        assert_eq!(
            relaxed.len(),
            1,
            "the fetch_add counter is exempt: {relaxed:?}"
        );
        assert!(relaxed[0].snippet.contains("running.store"));
    }

    /// Pins the DESIGN.md §10 channel-capacity table to the generated rows:
    /// the doc cannot drift from the code's actual queue inventory.
    #[test]
    fn design_doc_channel_table_is_current() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let generated = crate::channels::capacity_table(&read_tree(root, false).unwrap(), false);
        let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();

        let begin = design
            .find("<!-- channel-capacity-table:begin -->")
            .expect("DESIGN.md is missing the channel-capacity-table:begin marker");
        let end = design
            .find("<!-- channel-capacity-table:end -->")
            .expect("DESIGN.md is missing the channel-capacity-table:end marker");
        let documented: Vec<&str> = design[begin..end]
            .lines()
            .filter(|l| l.trim_start().starts_with('|'))
            .map(str::trim)
            .collect();
        assert_eq!(
            documented, generated,
            "DESIGN.md §10 channel-capacity table is stale; replace the block \
             with the generated rows (right-hand side)"
        );
    }

    #[test]
    fn violations_are_sorted_and_carry_columns() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = scan_tree(&fixtures, true, &Allowlist::default()).unwrap();
        assert!(!report.violations.is_empty());
        let keys: Vec<_> = report
            .violations
            .iter()
            .map(|v| (v.path.clone(), v.line, v.col, v.rule))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "scan output must be deterministically sorted");
        assert!(report.violations.iter().all(|v| v.col >= 1));
        assert!(report.violations.iter().all(|v| !v.snippet.is_empty()));
    }

    #[test]
    fn stale_allowlist_entry_is_reported() {
        let allow = Allowlist::parse(
            "# comment\n\
             crates/nowhere/src/lib.rs: .unwrap()\n",
        );
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let report = scan_tree(root, false, &allow).unwrap();
        let stale: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "allowlist-stale")
            .collect();
        assert_eq!(stale.len(), 1, "{stale:?}");
        // Reported against the allowlist file at the entry's own line.
        assert_eq!(stale[0].line, 2);
        assert!(stale[0].message.contains("crates/nowhere/src/lib.rs"));
    }

    #[test]
    fn design_doc_hot_path_roots_are_current() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
        let begin = design
            .find("<!-- hot-path-roots:begin -->")
            .expect("DESIGN.md is missing the hot-path-roots:begin marker");
        let end = design
            .find("<!-- hot-path-roots:end -->")
            .expect("DESIGN.md is missing the hot-path-roots:end marker");
        let documented: Vec<&str> = design[begin..end]
            .lines()
            .filter(|l| l.contains("::"))
            .map(str::trim)
            .collect();
        let actual: Vec<String> = crate::hotpath::HOT_PATH_ROOTS
            .iter()
            .map(|(file, name)| format!("{file}::{name}"))
            .collect();
        assert_eq!(
            documented, actual,
            "DESIGN.md §10 hot-path root list is stale; update the block to \
             match hotpath::HOT_PATH_ROOTS"
        );
    }

    #[test]
    fn real_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let allow = Allowlist::load(&root.join("crates/xtask/lint-allowlist.txt")).unwrap();
        let report = scan_tree(root, false, &allow).unwrap();
        assert!(
            report.violations.is_empty(),
            "lint violations in tree:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
