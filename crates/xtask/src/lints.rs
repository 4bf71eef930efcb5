//! The lint rules and the line scanner that applies them.
//!
//! The line rules, each mapping to one clause of the concurrency or fault
//! discipline:
//!
//! * `direct-lock` — blocking synchronisation must go through the
//!   `pravega_sync` facade so the rank checker sees every acquisition. Direct
//!   `parking_lot` or `std::sync` `Mutex`/`RwLock`/`Condvar` use is banned
//!   everywhere except inside the facade itself.
//! * `no-unwrap` — the write/flush path (`wal`, `lts`, `segmentstore`), the
//!   shared protocol/transport crate (`common`) and the client must not
//!   panic on recoverable conditions: `.unwrap()` / `.expect(` are banned
//!   in non-test code there, unless listed in `lint-allowlist.txt` with a
//!   justification.
//! * `raw-time` — time must flow through `pravega_common::clock` so tests and
//!   simulations can virtualise it. `Instant::now()` / `SystemTime::now()`
//!   are banned outside the clock module.
//! * `metric-name` — metric names registered on the registry must follow
//!   `<crate>.<component>.<name>` (three lowercase dotted segments) so the
//!   per-stage pipeline dashboards can group them.
//! * `retry-sleep` — ad-hoc `thread::sleep` retry loops are banned outside
//!   `pravega_common::retry`, the one sanctioned backoff implementation
//!   (typed error classification, bounded attempts, jitter). Pacing and
//!   polling sleeps that are *not* retry loops are sanctioned via
//!   `lint-allowlist.txt` entries.
//! * `crash-point` — `CrashHook::armed(` may only be called inside
//!   `pravega-faults` (and the hook's own module): every armed crash hook
//!   must flow from a seeded `FaultPlan` so crash schedules stay
//!   reproducible from a single u64 seed. Production code wires hooks with
//!   `FaultPlan::crash_hook()`, never by arming one directly.
//!
//! On top of the line rules, three token-level passes (see `lexer`, `guards`
//! and `lockgraph`) enforce guard discipline:
//!
//! * `guard-across-blocking` — no `pravega_sync` guard may be live across a
//!   blocking operation: sleeps, channel `recv`, `thread::join`, `Condvar`
//!   waits on *other* locks, retry executions, or calls into functions that
//!   transitively perform file I/O. The append path must never stall behind
//!   a held lock.
//! * `lock-order` — the static acquired-while-held graph (direct edges plus
//!   one level of call propagation) must be acyclic and must agree with the
//!   rank hierarchy in `crates/sync/src/rank.rs`.
//! * `guard-escape` — guard types must not be returned or stored in structs
//!   outside the sync facade; a guard that escapes its function has an
//!   unauditable live range.
//!
//! Two whole-program perf/robustness rules ride on the same call graph:
//!
//! * `hot-path-alloc` (see `hotpath`) — allocations and copies inside the
//!   append/read hot paths are counted per function and gated by the
//!   ratcheted baseline in `crates/xtask/hotpath-baseline.txt`.
//! * `panic-surface` (see `panics`) — the wire-facing codecs must not index
//!   slices, do unchecked length arithmetic, or narrow with `as` in decode
//!   functions; malformed bytes must surface as typed errors.
//!
//! Finally `allowlist-stale` keeps `lint-allowlist.txt` honest: an entry
//! that no longer matches any would-be violation is itself an error.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions), `tests/`,
//! `benches/`, `examples/` and `vendor/` are exempt from every rule.

use crate::{guards, lockgraph};
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
    /// The rendered static lock-order graph, one edge per line.
    pub graph: Vec<String>,
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
    for (rel, text) in &texts {
        scan_file(rel, text, fixture_mode, allow, &mut violations);
        if crate::panics::applies(rel, fixture_mode) {
            crate::panics::scan(rel, text, allow, &mut violations);
        }
    }

    let (graph, all_fns) = guard_pass(root, &texts, fixture_mode, allow, &mut violations);

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
        graph,
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

/// The token-level passes: guard liveness, blocking propagation, escapes and
/// the whole-program lock-order graph. Returns the rendered graph.
fn guard_pass(
    root: &Path,
    texts: &[(PathBuf, String)],
    fixture_mode: bool,
    allow: &Allowlist,
    out: &mut Vec<Violation>,
) -> (Vec<String>, Vec<guards::FnSummary>) {
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
    let mut escapes: Vec<(PathBuf, guards::EscapeSite)> = Vec::new();
    for (rel, text) in &applicable {
        let toks = crate::lexer::lex(text);
        let analysis = guards::analyze_file(rel, &toks, &lock_map);
        all_fns.extend(analysis.fns);
        escapes.extend(analysis.escapes.into_iter().map(|e| (rel.clone(), e)));
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

    // guard-escape.
    for (rel, e) in &escapes {
        let snippet = line_text(rel, e.line);
        if allow.permits(rel, &snippet) {
            continue;
        }
        out.push(Violation {
            path: rel.clone(),
            line: e.line as usize,
            col: e.col as usize,
            rule: "guard-escape",
            message: format!(
                "`{}` {} outside the sync facade; guards must not outlive their function",
                e.type_name, e.how
            ),
            snippet,
        });
    }

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

    // lock-order: assemble the graph, drop allowlisted edges, then check.
    let table = load_rank_table(root);
    let edges: Vec<lockgraph::GraphEdge> = lockgraph::build_edges(&all_fns)
        .into_iter()
        .filter(|e| !allow.permits(&e.file, &line_text(&e.file, e.line)))
        .collect();
    for p in lockgraph::check(&edges, &table) {
        out.push(Violation {
            path: p.file.clone(),
            line: p.line as usize,
            col: p.col as usize,
            rule: "lock-order",
            message: format!("{}: {}", p.kind, p.message),
            snippet: line_text(&p.file, p.line),
        });
    }
    (lockgraph::render(&edges, &table), all_fns)
}

/// Loads the rank table from the scanned tree, falling back to the
/// workspace's own `rank.rs` so fixture scans still resolve real ranks.
fn load_rank_table(root: &Path) -> lockgraph::RankTable {
    let in_tree = root.join("crates/sync/src/rank.rs");
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../sync/src/rank.rs");
    fs::read_to_string(&in_tree)
        .or_else(|_| fs::read_to_string(&fallback))
        .map(|src| lockgraph::RankTable::parse(&src))
        .unwrap_or_default()
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

/// Whether the `no-unwrap` rule applies to this file: the durability and
/// tiering write path, the shared protocol/transport crate, and the client
/// (whose decode paths are fed by the network). In fixture mode every file
/// is on the write path.
fn on_write_path(rel: &Path, fixture_mode: bool) -> bool {
    if fixture_mode {
        return true;
    }
    let p = rel.to_string_lossy().replace('\\', "/");
    p.starts_with("crates/wal/src")
        || p.starts_with("crates/lts/src")
        || p.starts_with("crates/segmentstore/src")
        || p.starts_with("crates/common/src")
        || p.starts_with("crates/client/src")
}

/// Whether the file is exempt from the `direct-lock` rule (the facade itself
/// wraps parking_lot) or the `raw-time` rule (the clock module is the one
/// sanctioned caller of `Instant::now`).
fn lock_exempt(rel: &Path, fixture_mode: bool) -> bool {
    !fixture_mode
        && rel
            .to_string_lossy()
            .replace('\\', "/")
            .starts_with("crates/sync/")
}

fn time_exempt(rel: &Path, fixture_mode: bool) -> bool {
    !fixture_mode
        && rel
            .to_string_lossy()
            .replace('\\', "/")
            .ends_with("crates/common/src/clock.rs")
}

/// The retry module is the one place allowed to sleep between attempts.
fn retry_sleep_exempt(rel: &Path, fixture_mode: bool) -> bool {
    !fixture_mode
        && rel
            .to_string_lossy()
            .replace('\\', "/")
            .ends_with("crates/common/src/retry.rs")
}

/// The fault-injection crate (seeded `FaultPlan`) and the hook module itself
/// are the only places allowed to arm a crash hook directly.
fn crash_point_exempt(rel: &Path, fixture_mode: bool) -> bool {
    if fixture_mode {
        return false;
    }
    let p = rel.to_string_lossy().replace('\\', "/");
    p.starts_with("crates/faults/src") || p.ends_with("crates/common/src/crashpoints.rs")
}

pub fn scan_file(
    rel: &Path,
    text: &str,
    fixture_mode: bool,
    allow: &Allowlist,
    out: &mut Vec<Violation>,
) {
    let write_path = on_write_path(rel, fixture_mode);
    let lock_rule = !lock_exempt(rel, fixture_mode);
    let time_rule = !time_exempt(rel, fixture_mode);
    let sleep_rule = !retry_sleep_exempt(rel, fixture_mode);
    let crash_rule = !crash_point_exempt(rel, fixture_mode);

    // Brace-depth tracker for `#[cfg(test)]` / `#[test]` blocks: once the
    // attribute is seen, everything from the next `{` to its matching `}` is
    // test code and exempt. Format-string braces are balanced so the naive
    // per-line count stays correct in practice.
    let mut test_depth: i64 = 0;
    let mut test_pending = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Strip line comments; no rule matches inside a comment.
        let line = raw.split("//").next().unwrap_or(raw);

        if test_depth > 0 {
            test_depth += brace_delta(line);
            continue;
        }
        if is_test_attr(line) {
            test_pending = true;
            continue;
        }
        if test_pending {
            let delta = brace_delta(line);
            if line.contains('{') {
                test_pending = false;
                test_depth = delta.max(0);
                if test_depth == 0 && delta == 0 {
                    // `fn f() {}` on one line: block opened and closed.
                }
                continue;
            }
            // Still between the attribute and the item body (signature lines,
            // further attributes).
            continue;
        }

        if lock_rule {
            check_direct_lock(rel, line_no, line, raw, out);
        }
        if time_rule {
            check_raw_time(rel, line_no, line, raw, out);
        }
        if write_path {
            check_unwrap(rel, line_no, line, raw, allow, out);
        }
        if sleep_rule {
            check_retry_sleep(rel, line_no, line, raw, allow, out);
        }
        if crash_rule {
            check_crash_point(rel, line_no, line, raw, out);
        }
        check_metric_name(rel, line_no, line, raw, out);
    }
}

fn is_test_attr(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("#[cfg(test)]")
        || t.starts_with("#[cfg(any(test")
        || t.starts_with("#[test]")
        || t.starts_with("#[bench]")
}

fn brace_delta(line: &str) -> i64 {
    let mut delta = 0i64;
    for c in line.chars() {
        match c {
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// 1-based column of `needle` in `line` (1 when absent, for synthesized
/// matches).
fn col_of(line: &str, needle: &str) -> usize {
    line.find(needle).map(|p| p + 1).unwrap_or(1)
}

fn check_direct_lock(rel: &Path, line_no: usize, line: &str, raw: &str, out: &mut Vec<Violation>) {
    let banned = if line.contains("parking_lot") {
        Some(("parking_lot", "parking_lot"))
    } else if line.contains("std::sync::")
        && ["Mutex", "RwLock", "Condvar"]
            .iter()
            .any(|t| line.contains(t))
    {
        Some(("std::sync", "std::sync::"))
    } else {
        None
    };
    if let Some((src, needle)) = banned {
        out.push(Violation {
            path: rel.to_path_buf(),
            line: line_no,
            col: col_of(line, needle),
            rule: "direct-lock",
            message: format!(
                "direct {src} lock use; go through pravega_sync so the rank checker sees it"
            ),
            snippet: raw.trim().to_string(),
        });
    }
}

fn check_raw_time(rel: &Path, line_no: usize, line: &str, raw: &str, out: &mut Vec<Violation>) {
    for call in ["Instant::now()", "SystemTime::now()"] {
        if line.contains(call) {
            out.push(Violation {
                path: rel.to_path_buf(),
                line: line_no,
                col: col_of(line, call),
                rule: "raw-time",
                message: format!(
                    "{call} outside pravega_common::clock; use clock::monotonic_now()/wall_now()"
                ),
                snippet: raw.trim().to_string(),
            });
        }
    }
}

fn check_unwrap(
    rel: &Path,
    line_no: usize,
    line: &str,
    raw: &str,
    allow: &Allowlist,
    out: &mut Vec<Violation>,
) {
    let hit = if line.contains(".unwrap()") {
        Some((".unwrap()", ".unwrap()"))
    } else if line.contains(".expect(") {
        Some((".expect(…)", ".expect("))
    } else {
        None
    };
    if let Some((call, needle)) = hit {
        if allow.permits(rel, raw) {
            return;
        }
        out.push(Violation {
            path: rel.to_path_buf(),
            line: line_no,
            col: col_of(line, needle),
            rule: "no-unwrap",
            message: format!(
                "{call} on the write/flush path; return a typed error or add an allowlist entry"
            ),
            snippet: raw.trim().to_string(),
        });
    }
}

fn check_retry_sleep(
    rel: &Path,
    line_no: usize,
    line: &str,
    raw: &str,
    allow: &Allowlist,
    out: &mut Vec<Violation>,
) {
    if line.contains("thread::sleep") {
        if allow.permits(rel, raw) {
            return;
        }
        out.push(Violation {
            path: rel.to_path_buf(),
            line: line_no,
            col: col_of(line, "thread::sleep"),
            rule: "retry-sleep",
            message: "thread::sleep outside pravega_common::retry; use RetryPolicy for retries, \
                      or allowlist a pacing/polling sleep"
                .to_string(),
            snippet: raw.trim().to_string(),
        });
    }
}

fn check_crash_point(rel: &Path, line_no: usize, line: &str, raw: &str, out: &mut Vec<Violation>) {
    if line.contains("CrashHook::armed(") {
        out.push(Violation {
            path: rel.to_path_buf(),
            line: line_no,
            col: col_of(line, "CrashHook::armed("),
            rule: "crash-point",
            message: "CrashHook::armed(…) outside pravega-faults; wire hooks with \
                      FaultPlan::crash_hook() so crash schedules stay seed-reproducible"
                .to_string(),
            snippet: raw.trim().to_string(),
        });
    }
}

fn check_metric_name(rel: &Path, line_no: usize, line: &str, raw: &str, out: &mut Vec<Violation>) {
    for method in [".counter(\"", ".histogram(\"", ".gauge(\"", ".text(\""] {
        let mut rest = line;
        let mut consumed = 0usize;
        while let Some(pos) = rest.find(method) {
            let after = &rest[pos + method.len()..];
            if let Some(end) = after.find('"') {
                let name = &after[..end];
                if !valid_metric_name(name) {
                    out.push(Violation {
                        path: rel.to_path_buf(),
                        line: line_no,
                        col: consumed + pos + method.len() + 1,
                        rule: "metric-name",
                        message: format!(
                            "metric name `{name}` must match <crate>.<component>.<name>"
                        ),
                        snippet: raw.trim().to_string(),
                    });
                }
                consumed += pos + method.len() + end;
                rest = &after[end..];
            } else {
                break;
            }
        }
    }
}

fn valid_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() == 3
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_snippet(snippet: &str, fixture_mode: bool, allow: &Allowlist) -> Vec<Violation> {
        let mut out = Vec::new();
        scan_file(
            Path::new("crates/wal/src/sample.rs"),
            snippet,
            fixture_mode,
            allow,
            &mut out,
        );
        out
    }

    #[test]
    fn clean_code_passes() {
        let v = scan_snippet(
            "use pravega_sync::{rank, Mutex};\n\
             fn f(m: &Mutex<u32>) -> u32 { *m.lock() }\n\
             fn m(r: &MetricsRegistry) { r.counter(\"wal.ledger.appends\"); }\n",
            false,
            &Allowlist::default(),
        );
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn direct_lock_flagged() {
        for line in [
            "use parking_lot::Mutex;",
            "use std::sync::Mutex;",
            "let m = std::sync::RwLock::new(0);",
            "static C: std::sync::Condvar = std::sync::Condvar::new();",
        ] {
            let v = scan_snippet(line, false, &Allowlist::default());
            assert_eq!(v.len(), 1, "expected 1 violation for {line}: {v:?}");
            assert_eq!(v[0].rule, "direct-lock");
        }
        // Non-lock std::sync items are fine.
        let v = scan_snippet(
            "use std::sync::Arc;\nuse std::sync::atomic::AtomicBool;\nuse std::sync::mpsc;\n",
            false,
            &Allowlist::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_time_flagged() {
        let v = scan_snippet("let t = Instant::now();", false, &Allowlist::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "raw-time");
        let v = scan_snippet(
            "let t = std::time::SystemTime::now();",
            false,
            &Allowlist::default(),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "raw-time");
    }

    #[test]
    fn unwrap_flagged_on_write_path_only() {
        let snippet = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let v = scan_snippet(snippet, false, &Allowlist::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");

        // The client and common crates are in scope too.
        for path in ["crates/client/src/sample.rs", "crates/common/src/sample.rs"] {
            let mut out = Vec::new();
            scan_file(
                Path::new(path),
                snippet,
                false,
                &Allowlist::default(),
                &mut out,
            );
            assert_eq!(out.len(), 1, "{path} should be on the write path");
            assert_eq!(out[0].rule, "no-unwrap");
        }

        // Same code off the write path (control plane) is not flagged.
        let mut out = Vec::new();
        scan_file(
            Path::new("crates/controller/src/sample.rs"),
            snippet,
            false,
            &Allowlist::default(),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allowlist_suppresses_unwrap() {
        let allow = Allowlist::parse(
            "# sanctioned: invariant established at startup\n\
             crates/wal/src/sample.rs: x.expect(\"set at startup\")\n",
        );
        let v = scan_snippet(
            "fn f(x: Option<u32>) -> u32 { x.expect(\"set at startup\") }",
            false,
            &allow,
        );
        assert!(v.is_empty(), "{v:?}");
        // A different expect in the same file still trips.
        let v = scan_snippet(
            "fn f(x: Option<u32>) -> u32 { x.expect(\"other\") }",
            false,
            &allow,
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn metric_name_shape_enforced() {
        let v = scan_snippet(
            "let c = registry.counter(\"events\");",
            false,
            &Allowlist::default(),
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "metric-name");
        for bad in [
            "r.histogram(\"a.b\");",
            "r.gauge(\"a.b.c.d\");",
            "r.counter(\"A.B.C\");",
            "r.counter(\"a..c\");",
        ] {
            let v = scan_snippet(bad, false, &Allowlist::default());
            assert_eq!(v.len(), 1, "expected violation for {bad}");
        }
        let v = scan_snippet(
            "r.counter(\"segmentstore.durablelog.queued_ops\");",
            false,
            &Allowlist::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn retry_sleep_flagged_outside_retry_module() {
        let v = scan_snippet(
            "fn f() { std::thread::sleep(Duration::from_millis(5)); }",
            false,
            &Allowlist::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "retry-sleep");

        // The sanctioned backoff implementation is exempt.
        let mut out = Vec::new();
        scan_file(
            Path::new("crates/common/src/retry.rs"),
            "fn f() { std::thread::sleep(Duration::from_millis(5)); }",
            false,
            &Allowlist::default(),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");

        // A pacing sleep is sanctioned through the allowlist.
        let allow =
            Allowlist::parse("crates/wal/src/sample.rs: thread::sleep(self.pacing_interval)\n");
        let v = scan_snippet(
            "fn f(&self) { std::thread::sleep(self.pacing_interval); }",
            false,
            &allow,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_point_arming_flagged_outside_faults_crate() {
        let v = scan_snippet(
            "fn f() { let h = CrashHook::armed(|_| true); }",
            false,
            &Allowlist::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "crash-point");

        // The seeded FaultPlan crate and the hook's own module are exempt.
        for path in [
            "crates/faults/src/lib.rs",
            "crates/common/src/crashpoints.rs",
        ] {
            let mut out = Vec::new();
            scan_file(
                Path::new(path),
                "fn f() { let h = CrashHook::armed(|_| true); }",
                false,
                &Allowlist::default(),
                &mut out,
            );
            assert!(out.is_empty(), "{path}: {out:?}");
        }

        // The sanctioned wiring API is fine anywhere.
        let v = scan_snippet(
            "fn f(plan: &Arc<FaultPlan>) { let h = plan.crash_hook(); }",
            false,
            &Allowlist::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn text_slot_names_follow_metric_shape() {
        let v = scan_snippet(
            "let t = registry.text(\"last_error\");",
            false,
            &Allowlist::default(),
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "metric-name");
        let v = scan_snippet(
            "let t = registry.text(\"segmentstore.storagewriter.last_flush_error\");",
            false,
            &Allowlist::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_blocks_exempt() {
        let snippet = "\
fn prod(x: Option<u32>) -> Option<u32> { x }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = Some(1).unwrap();
        let t = Instant::now();
        let m = parking_lot::Mutex::new(x);
        registry.counter(\"bad\");
        let _ = (t, m);
    }
}
";
        let v = scan_snippet(snippet, false, &Allowlist::default());
        assert!(v.is_empty(), "test code must be exempt: {v:?}");
    }

    #[test]
    fn test_attr_fn_exempt() {
        let snippet = "\
#[test]
fn t() {
    let x = Some(1).unwrap();
}
fn prod(x: Option<u32>) -> u32 { x.unwrap() }
";
        let v = scan_snippet(snippet, false, &Allowlist::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn fixtures_each_trip_their_rule() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let report = scan_tree(&fixtures, true, &Allowlist::default()).unwrap();
        // Each fixture file must trip the rule it is named for.
        for (file, rule) in [
            ("direct_lock.rs", "direct-lock"),
            ("unwrap_flush_path.rs", "no-unwrap"),
            ("raw_time.rs", "raw-time"),
            ("bad_metric_name.rs", "metric-name"),
            ("retry_sleep.rs", "retry-sleep"),
            ("crash_point.rs", "crash-point"),
            ("guard_across_blocking.rs", "guard-across-blocking"),
            ("guard_escape.rs", "guard-escape"),
            ("lock_graph_cycle.rs", "lock-order"),
            ("hot_path_alloc.rs", "hot-path-alloc"),
            ("panic_surface.rs", "panic-surface"),
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
        // The cycle fixture must report both lock-order flavours.
        for kind in ["cycle:", "rank-contradiction:"] {
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.path.to_string_lossy() == "lock_graph_cycle.rs"
                        && v.message.starts_with(kind)),
                "lock_graph_cycle.rs missing a `{kind}` finding"
            );
        }
        // The escape fixture covers both escape positions.
        let escapes = report
            .violations
            .iter()
            .filter(|v| v.rule == "guard-escape")
            .count();
        assert_eq!(escapes, 2, "expected struct-field and return escapes");
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

    /// Pins the DESIGN.md §10 channel-capacity table to the generated rows,
    /// like the lock-order graph block: the doc cannot drift from the
    /// code's actual queue inventory.
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

    /// DESIGN.md §10 embeds the generated lock-order graph; it must track
    /// the analyzer exactly.
    #[test]
    fn design_doc_graph_is_current() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let allow = Allowlist::load(&root.join("crates/xtask/lint-allowlist.txt")).unwrap();
        let report = scan_tree(root, false, &allow).unwrap();
        let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();

        let begin = design
            .find("<!-- lock-order-graph:begin -->")
            .expect("DESIGN.md is missing the lock-order-graph:begin marker");
        let end = design
            .find("<!-- lock-order-graph:end -->")
            .expect("DESIGN.md is missing the lock-order-graph:end marker");
        let documented: Vec<&str> = design[begin..end]
            .lines()
            .filter(|l| l.contains(" -> "))
            .map(str::trim)
            .collect();
        let generated: Vec<&str> = report.graph.iter().map(String::as_str).collect();
        assert_eq!(
            documented, generated,
            "DESIGN.md §10 lock-order graph is stale; replace the block with \
             the output of `cargo run -p xtask -- lint --graph`"
        );
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
