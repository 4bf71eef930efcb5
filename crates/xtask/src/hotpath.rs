//! The `hot-path-alloc` rule: a whole-program allocation/copy audit of the
//! append and read hot paths, gated by a ratcheted baseline.
//!
//! The hot-path function set is computed by propagating reachability over
//! the same name-matched call graph the blocking analysis uses (see
//! [`crate::guards`]): a fixed root list ([`HOT_PATH_ROOTS`], the paper's
//! append pipeline plus the wire codec and the tail-read/cache path) seeds
//! the set, and every callee reachable from a hot function — skipping the
//! generic names in [`guards::CALL_STOPLIST`] and the explicitly-cold
//! control paths in [`COLD_STOPS`] — is hot too. Closures passed to `spawn`
//! inside a hot function run that function's code on another thread, so they
//! inherit hotness from their parent.
//!
//! Inside hot functions the pass flags heap allocations and copies: owned
//! container constructors (`Vec::new`, `BytesMut::with_capacity`, …),
//! `format!` / `vec!`, `to_vec` / `to_string` / `to_owned`, `Box::new`,
//! `collect` into owned containers, and `.clone()` on buffer-ish receivers.
//! Sites are counted per function and compared against the committed
//! baseline (`crates/xtask/hotpath-baseline.txt`):
//!
//! * a count **above** baseline (or a hot function missing from it) fails
//!   the lint — the hot path regressed;
//! * a count **below** baseline also fails, telling you to ratchet the
//!   committed file down — the budget only ever shrinks;
//! * individual sites can be suppressed with a justified
//!   `lint-allowlist.txt` entry, exactly like every other rule.
//!
//! The baseline is regenerated with `--write-hotpath-baseline`; CI runs the
//! plain lint, so any drift from the committed file fails the build.

use crate::guards::{self, FnSummary};
use crate::lexer::TokenKind;
use crate::lints::{Allowlist, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The hot-path roots: `(file suffix, function name)`. Each entry must
/// resolve to a real function (a missing root is itself a violation, so the
/// list can never silently rot), and DESIGN.md §10 documents the same list
/// (pinned by a self-test).
pub const HOT_PATH_ROOTS: &[(&str, &str)] = &[
    // Client append path: event framing, routing, block batching, the pump.
    ("crates/client/src/writer.rs", "write_event"),
    ("crates/client/src/writer.rs", "write_raw"),
    ("crates/client/src/writer.rs", "write_raw_atomic"),
    ("crates/client/src/writer.rs", "route_event_inner"),
    ("crates/client/src/writer.rs", "append_to_block"),
    ("crates/client/src/writer.rs", "send_block"),
    ("crates/client/src/writer.rs", "pump_loop"),
    ("crates/client/src/serializer.rs", "frame_event"),
    // Durable log: frame build and the commit pipeline.
    ("crates/segmentstore/src/durablelog.rs", "enqueue"),
    ("crates/segmentstore/src/durablelog.rs", "builder_loop"),
    ("crates/segmentstore/src/durablelog.rs", "commit_loop"),
    // Bookie journal group commit.
    ("crates/wal/src/journal.rs", "journal_commit_loop"),
    ("crates/wal/src/journal.rs", "append_async"),
    // Container append and the server connection loop.
    ("crates/segmentstore/src/processor.rs", "append_sessioned"),
    ("crates/segmentstore/src/store.rs", "connection_loop"),
    // Read index tail reads and the block cache.
    ("crates/segmentstore/src/readindex.rs", "append"),
    ("crates/segmentstore/src/readindex.rs", "read"),
    ("crates/segmentstore/src/readindex.rs", "insert_entry"),
    ("crates/segmentstore/src/cache.rs", "insert"),
    ("crates/segmentstore/src/cache.rs", "get"),
    ("crates/segmentstore/src/cache.rs", "append_to_chain"),
    // Wire protocol encode/decode.
    ("crates/common/src/protocol.rs", "encode_request"),
    ("crates/common/src/protocol.rs", "encode_reply"),
    ("crates/common/src/protocol.rs", "feed"),
    ("crates/common/src/protocol.rs", "next_request"),
    ("crates/common/src/protocol.rs", "next_reply"),
    // TCP pump loops.
    ("crates/common/src/tcp.rs", "write_pump"),
    ("crates/common/src/tcp.rs", "read_pump"),
];

/// Function names where hot-path propagation *stops*: rare control paths
/// reachable from the hot loops (reconnects, seal handling, failure
/// teardown) whose allocations are irrelevant to steady-state throughput.
/// Keeping them out keeps the baseline signal high. Each entry is a
/// documented judgement call, reviewed like the root list.
pub const COLD_STOPS: &[&str] = &[
    // Client reconnect / scale-event handling (bounded-retry, rare).
    "handle_sealed",
    "refresh_segments",
    "open_segment",
    "handshake",
    "reconnect",
    "ensure_initialized",
    // Failure teardown: runs once when a writer or pipeline dies.
    "fail_all_pending",
    "fail_batch",
    // Corruption repair: reached from the cold-read path only after a
    // checksum mismatch, then replays the retained WAL to rebuild the
    // chunk. Runs per detected corruption, never per append or per read.
    "repair_chunk_from_wal",
    // Store session/control-plane dispatch reached from connection_loop;
    // appends re-enter through `append_sessioned`, which is a root.
    "handle_request",
    // Lifecycle and admin verbs: run once per process, per connection, or
    // per scale event — never per append — so their allocations are noise.
    // Hot loops that would collide with these names are extracted/renamed
    // (e.g. `seal_frame`, `journal_commit_loop`) so no hot code is lost.
    "start",
    "start_with_metrics",
    "start_flusher",
    "stop",
    "boot",
    "shutdown",
    "close",
    "connect",
    "connect_stream",
    "create",
    "create_segment",
    "seal",
    "truncate",
    "delete",
    "kill_connections",
];

/// Crates that contain hot-path code: the client append/read path, the
/// shared protocol/transport, the segment store, and the WAL. Control-plane
/// crates (controller, coordination, core wiring) and the cold tier (lts)
/// run per-scale-event or per-chunk-rollover, not per-append, so bare-name
/// propagation must not leak into them.
const HOT_CRATES: &[&str] = &[
    "crates/client/src/",
    "crates/common/src/",
    "crates/segmentstore/src/",
    "crates/wal/src/",
];

fn in_hot_crate(file: &str) -> bool {
    HOT_CRATES
        .iter()
        .any(|c| file.starts_with(c) || file.contains(&format!("/{c}")))
}

/// Substrings that mark a `.clone()` receiver as buffer-ish (payload/frame
/// data rather than a cheap handle).
const BUFFERISH: &[&str] = &[
    "buf", "bytes", "payload", "frame", "data", "record", "block", "chunk", "segment", "event",
    "framed", "ack", "body",
];

/// Owned-container constructors flagged as allocations.
const OWNED_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "BytesMut", "Box", "BTreeMap", "HashMap", "BTreeSet", "HashSet",
];
const CTOR_METHODS: &[&str] = &["new", "with_capacity", "from"];

/// One allocation/copy site inside a hot function.
#[derive(Debug)]
pub struct AllocSite {
    pub kind: String,
    pub line: u32,
    pub col: u32,
}

/// Per-function audit results, keyed `file::fn`.
#[derive(Debug, Default)]
pub struct HotPathAudit {
    /// Allocation sites per hot function (allowlisted sites excluded).
    pub sites: BTreeMap<String, Vec<AllocSite>>,
    /// Every hot function (with zero-alloc ones), for the dump.
    pub hot_fns: BTreeMap<String, bool>, // key → is_root
    /// Roots that matched no function in the scanned tree.
    pub missing_roots: Vec<(String, String)>,
}

fn norm(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}

fn is_root(file: &str, name: &str) -> bool {
    HOT_PATH_ROOTS
        .iter()
        .any(|(f, n)| *n == name && file.ends_with(f))
}

/// Base name of a summary: strips the `@spawn:<line>` suffix.
fn base_name(name: &str) -> &str {
    name.split('@').next().unwrap_or(name)
}

/// Computes the hot function set. Returns the set of `(file, fn-name)`
/// identities considered hot. In fixture mode every function is hot, so the
/// fixtures trip the rule without living on the real hot path.
pub fn hot_set(fns: &[FnSummary], fixture_mode: bool) -> BTreeSet<(String, String)> {
    if fixture_mode {
        return fns
            .iter()
            .map(|f| (norm(&f.file), base_name(&f.name).to_string()))
            .collect();
    }
    // All real function names, so propagation never admits names that exist
    // only as std/library methods.
    let known: BTreeSet<&str> = fns.iter().map(|f| base_name(&f.name)).collect();
    let mut hot_names: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut changed = false;
        for f in fns {
            let file = norm(&f.file);
            if !in_hot_crate(&file) {
                continue;
            }
            let name = base_name(&f.name);
            let hot = is_root(&file, name) || hot_names.contains(name);
            if !hot {
                continue;
            }
            for c in &f.calls {
                if guards::CALL_STOPLIST.contains(&c.as_str())
                    || COLD_STOPS.contains(&c.as_str())
                    || !known.contains(c.as_str())
                    || hot_names.contains(c)
                {
                    continue;
                }
                hot_names.insert(c.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    fns.iter()
        .filter(|f| {
            let file = norm(&f.file);
            let name = base_name(&f.name);
            in_hot_crate(&file)
                && !COLD_STOPS.contains(&name)
                && (is_root(&file, name) || hot_names.contains(name))
        })
        .map(|f| (norm(&f.file), base_name(&f.name).to_string()))
        .collect()
}

/// Scans `texts` for allocation/copy sites inside hot functions.
pub fn audit(
    texts: &[(PathBuf, String)],
    fns: &[FnSummary],
    fixture_mode: bool,
    allow: &Allowlist,
) -> HotPathAudit {
    let hot = hot_set(fns, fixture_mode);
    let mut out = HotPathAudit::default();

    for (file, name) in &hot {
        let key = format!("{file}::{name}");
        out.hot_fns.insert(key, is_root(file, name));
    }
    if !fixture_mode {
        for (suffix, name) in HOT_PATH_ROOTS {
            if !hot.iter().any(|(f, n)| n == name && f.ends_with(suffix)) {
                out.missing_roots
                    .push((suffix.to_string(), name.to_string()));
            }
        }
    }

    for (rel, text) in texts {
        let file = norm(rel);
        if !hot.iter().any(|(f, _)| f == &file) {
            continue;
        }
        let toks = crate::lexer::lex(text);
        let sig: Vec<&crate::lexer::Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
        let test_ranges = guards::collect_test_ranges(&sig);
        let mut i = 0usize;
        while i < sig.len() {
            if let Some((name, header_end, _body_start, body_end)) = guards::fn_item(&sig, i) {
                let in_test = test_ranges.iter().any(|&(s, e)| i >= s && i < e);
                if !in_test && hot.contains(&(file.clone(), name.clone())) {
                    let key = format!("{file}::{name}");
                    let sites = out.sites.entry(key).or_default();
                    scan_alloc_sites(&sig, header_end, body_end, rel, text, allow, sites);
                }
                i = header_end;
                continue;
            }
            i += 1;
        }
    }
    // Hot functions with no surviving sites still appear (count 0) so the
    // dump shows coverage; drop empties from the site map for the baseline.
    out.sites.retain(|_, v| !v.is_empty());
    out
}

fn line_of(text: &str, line: u32) -> &str {
    text.lines().nth(line as usize - 1).unwrap_or("")
}

fn scan_alloc_sites(
    sig: &[&crate::lexer::Token<'_>],
    start: usize,
    end: usize,
    rel: &Path,
    text: &str,
    allow: &Allowlist,
    out: &mut Vec<AllocSite>,
) {
    let mut push = |kind: String, line: u32, col: u32| {
        if allow.permits(rel, line_of(text, line)) {
            return;
        }
        out.push(AllocSite { kind, line, col });
    };
    let mut i = start;
    while i < end.min(sig.len()) {
        let t = sig[i];
        // `Type::new(` / `Type::with_capacity(` / `Type::from(` on an owned
        // container type.
        if OWNED_TYPES.contains(&t.text)
            && sig.get(i + 1).is_some_and(|n| n.text == ":")
            && sig.get(i + 2).is_some_and(|n| n.text == ":")
            && sig
                .get(i + 3)
                .is_some_and(|n| CTOR_METHODS.contains(&n.text))
            && sig.get(i + 4).is_some_and(|n| n.text == "(")
        {
            push(format!("{}::{}", t.text, sig[i + 3].text), t.line, t.col);
            i += 5;
            continue;
        }
        // `format!` / `vec!` macros.
        if matches!(t.text, "format" | "vec") && sig.get(i + 1).is_some_and(|n| n.text == "!") {
            push(format!("{}!", t.text), t.line, t.col);
            i += 2;
            continue;
        }
        if t.text == "." {
            if let Some(m) = sig.get(i + 1) {
                let called = sig.get(i + 2).is_some_and(|n| n.text == "(")
                    || (m.text == "collect" && sig.get(i + 2).is_some_and(|n| n.text == ":"));
                if called {
                    match m.text {
                        "to_vec" | "to_string" | "to_owned" => {
                            push(m.text.to_string(), m.line, m.col);
                        }
                        "collect" => push("collect".into(), m.line, m.col),
                        // Only buffer-ish receivers: `payload.clone()`.
                        "clone" if i > 0 && sig[i - 1].kind == TokenKind::Ident => {
                            let recv = sig[i - 1].text.to_ascii_lowercase();
                            if BUFFERISH.iter().any(|b| recv.contains(b)) {
                                push(format!("clone of `{}`", sig[i - 1].text), m.line, m.col);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        i += 1;
    }
}

/// Renders the hot-path dump: one line per hot function, sorted, with the
/// allocation count and a root marker. This is the `--hot` output and the
/// CI artifact.
pub fn render(audit: &HotPathAudit) -> Vec<String> {
    audit
        .hot_fns
        .iter()
        .map(|(key, is_root)| {
            let n = audit.sites.get(key).map_or(0, Vec::len);
            let marker = if *is_root { "  [root]" } else { "" };
            format!("{key} allocs={n}{marker}")
        })
        .collect()
}

/// Per-function counts, the baseline file's content model.
pub fn counts(audit: &HotPathAudit) -> BTreeMap<String, usize> {
    audit
        .sites
        .iter()
        .map(|(k, v)| (k.clone(), v.len()))
        .collect()
}

/// Serializes counts in the committed baseline format.
pub fn render_baseline(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# hotpath-baseline.txt — ratcheted hot-path allocation budget.\n\
         #\n\
         # One line per hot-path function with at least one allocation/copy\n\
         # site: `<file>::<fn> <count>`. `cargo run -p xtask -- lint` fails if\n\
         # any count grows; if a count shrinks, regenerate this file with\n\
         # `cargo run -p xtask -- lint --write-hotpath-baseline` and commit it\n\
         # (the budget only ratchets down). Individual sites are suppressed\n\
         # with justified lint-allowlist.txt entries, never by editing counts\n\
         # upward here.\n",
    );
    for (k, n) in counts {
        out.push_str(&format!("{k} {n}\n"));
    }
    out
}

/// Parses the baseline file: `file::fn count` lines, `#` comments. Returns
/// `(entries, line numbers)`.
pub fn parse_baseline(text: &str) -> BTreeMap<String, (usize, usize)> {
    let mut map = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, count)) = line.rsplit_once(' ') {
            if let Ok(n) = count.trim().parse::<usize>() {
                map.insert(key.trim().to_string(), (n, idx + 1));
            }
        }
    }
    map
}

const BASELINE_REL: &str = "crates/xtask/hotpath-baseline.txt";

/// Compares the audit against the committed baseline and emits
/// `hot-path-alloc` violations for regressions, un-ratcheted entries, stale
/// entries, and missing roots.
pub fn check(audit: &HotPathAudit, baseline_text: &str, out: &mut Vec<Violation>) {
    for (suffix, name) in &audit.missing_roots {
        out.push(Violation {
            path: PathBuf::from("crates/xtask/src/hotpath.rs"),
            line: 1,
            col: 1,
            rule: "hot-path-alloc",
            message: format!(
                "hot-path root `{name}` ({suffix}) matches no function in the tree; \
                 update HOT_PATH_ROOTS to track the rename"
            ),
            snippet: format!("(\"{suffix}\", \"{name}\")"),
        });
    }
    let baseline = parse_baseline(baseline_text);
    let current = counts(audit);
    for (key, sites) in &audit.sites {
        let n = sites.len();
        let base = baseline.get(key).map(|&(n, _)| n).unwrap_or(0);
        if n > base {
            let detail: Vec<String> = sites
                .iter()
                .map(|s| format!("{}@{}", s.kind, s.line))
                .collect();
            let (file, func) = key.split_once("::").unwrap_or((key.as_str(), ""));
            out.push(Violation {
                path: PathBuf::from(file),
                line: sites.first().map_or(1, |s| s.line as usize),
                col: sites.first().map_or(1, |s| s.col as usize),
                rule: "hot-path-alloc",
                message: format!(
                    "`{func}` has {n} hot-path allocation/copy site(s), baseline {base}: \
                     [{}]; remove them or allowlist with a justification",
                    detail.join(", ")
                ),
                snippet: detail.join(", "),
            });
        }
    }
    for (key, &(base, file_line)) in &baseline {
        let n = current.get(key).copied().unwrap_or(0);
        if n < base {
            out.push(Violation {
                path: PathBuf::from(BASELINE_REL),
                line: file_line,
                col: 1,
                rule: "hot-path-alloc",
                message: if n == 0 {
                    format!(
                        "baseline entry `{key} {base}` matches no current hot-path \
                         allocation; remove it (ratchet down)"
                    )
                } else {
                    format!(
                        "baseline entry `{key} {base}` is above the actual count {n}; \
                         ratchet it down (--write-hotpath-baseline)"
                    )
                },
                snippet: format!("{key} {base}"),
            });
        }
    }
}

/// Fixture mode: every allocation site is a violation (no baseline), so the
/// fixture trips the rule and clean files stay clean.
pub fn check_fixture(audit: &HotPathAudit, out: &mut Vec<Violation>) {
    for (key, sites) in &audit.sites {
        let (file, func) = key.split_once("::").unwrap_or((key.as_str(), ""));
        for s in sites {
            out.push(Violation {
                path: PathBuf::from(file),
                line: s.line as usize,
                col: s.col as usize,
                rule: "hot-path-alloc",
                message: format!("hot-path allocation ({}) in `{func}`", s.kind),
                snippet: s.kind.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn summaries(src: &str, file: &str) -> Vec<FnSummary> {
        let toks = lex(src);
        guards::analyze_file(Path::new(file), &toks, &guards::LockMap::default())
    }

    #[test]
    fn reachability_propagates_from_roots() {
        let src = "
            fn write_event(&self) { self.build_frame(); }
            fn build_frame(&self) { helper_alloc(); }
            fn helper_alloc() {}
            fn unrelated() { other(); }
            fn other() {}
        ";
        let fns = summaries(src, "crates/client/src/writer.rs");
        let hot = hot_set(&fns, false);
        let names: Vec<&str> = hot.iter().map(|(_, n)| n.as_str()).collect();
        assert!(names.contains(&"write_event"), "{names:?}");
        assert!(names.contains(&"build_frame"), "{names:?}");
        assert!(names.contains(&"helper_alloc"), "{names:?}");
        assert!(!names.contains(&"unrelated"), "{names:?}");
        assert!(!names.contains(&"other"), "{names:?}");
    }

    #[test]
    fn stoplist_and_cold_stops_block_propagation() {
        let src = "
            fn write_event(&self) { self.insert(1); self.handle_sealed(); }
            fn insert(&self, x: u32) {}
            fn handle_sealed(&self) { deep(); }
            fn deep() {}
        ";
        let fns = summaries(src, "crates/client/src/writer.rs");
        let hot = hot_set(&fns, false);
        let names: Vec<&str> = hot.iter().map(|(_, n)| n.as_str()).collect();
        assert!(names.contains(&"write_event"));
        assert!(!names.contains(&"insert"), "stoplisted edge: {names:?}");
        assert!(!names.contains(&"handle_sealed"), "cold stop: {names:?}");
        assert!(!names.contains(&"deep"), "beyond a cold stop: {names:?}");
    }

    #[test]
    fn allocation_sites_counted_in_hot_fns_only() {
        let src = "
            fn write_event(&self) {
                let v = Vec::new();
                let s = format!(\"x{}\", 1);
                let c = self.payload.clone();
                let w = data.to_vec();
            }
            fn cold() { let v = Vec::new(); }
        ";
        let texts = vec![(
            PathBuf::from("crates/client/src/writer.rs"),
            src.to_string(),
        )];
        let fns = summaries(src, "crates/client/src/writer.rs");
        let a = audit(&texts, &fns, false, &Allowlist::default());
        let key = "crates/client/src/writer.rs::write_event";
        assert_eq!(a.sites.get(key).map(Vec::len), Some(4), "{:?}", a.sites);
        assert!(!a.sites.keys().any(|k| k.ends_with("::cold")));
        // Missing roots are reported for everything else in the list.
        assert!(a
            .missing_roots
            .iter()
            .any(|(_, n)| n == "journal_commit_loop"));
    }

    #[test]
    fn cheap_handle_clones_are_not_flagged() {
        let src = "
            fn write_event(&self) {
                let a = self.shared.clone();
                let b = completer.clone();
            }
        ";
        let texts = vec![(
            PathBuf::from("crates/client/src/writer.rs"),
            src.to_string(),
        )];
        let fns = summaries(src, "crates/client/src/writer.rs");
        let a = audit(&texts, &fns, false, &Allowlist::default());
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn baseline_regression_and_ratchet_both_fail() {
        let src = "fn write_event(&self) { let v = Vec::new(); let w = Vec::new(); }";
        let texts = vec![(
            PathBuf::from("crates/client/src/writer.rs"),
            src.to_string(),
        )];
        let fns = summaries(src, "crates/client/src/writer.rs");
        let a = audit(&texts, &fns, false, &Allowlist::default());

        // Regression: baseline says 1, tree has 2.
        let mut v = Vec::new();
        check(&a, "crates/client/src/writer.rs::write_event 1\n", &mut v);
        assert!(
            v.iter()
                .any(|x| x.rule == "hot-path-alloc" && x.message.contains("baseline 1")),
            "{v:?}"
        );

        // Exact match: clean (aside from missing-root reports, filtered).
        let mut v = Vec::new();
        check(&a, "crates/client/src/writer.rs::write_event 2\n", &mut v);
        assert!(
            v.iter().all(|x| x.message.contains("matches no function")),
            "{v:?}"
        );

        // Ratchet: baseline says 5, tree has 2.
        let mut v = Vec::new();
        check(&a, "crates/client/src/writer.rs::write_event 5\n", &mut v);
        assert!(v.iter().any(|x| x.message.contains("ratchet")), "{v:?}");

        // Stale: baseline names a function with no sites.
        let mut v = Vec::new();
        check(&a, "crates/client/src/writer.rs::gone 3\n", &mut v);
        assert!(
            v.iter().any(|x| x.message.contains("matches no current")),
            "{v:?}"
        );
    }

    #[test]
    fn baseline_roundtrips_through_render_and_parse() {
        let mut c = BTreeMap::new();
        c.insert("a.rs::f".to_string(), 3usize);
        c.insert("b.rs::g".to_string(), 1usize);
        let text = render_baseline(&c);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.get("a.rs::f").map(|&(n, _)| n), Some(3));
        assert_eq!(parsed.get("b.rs::g").map(|&(n, _)| n), Some(1));
    }

    #[test]
    fn allowlisted_sites_do_not_count() {
        let src = "fn write_event(&self) { let v = Vec::with_capacity(self.cap); }";
        let texts = vec![(
            PathBuf::from("crates/client/src/writer.rs"),
            src.to_string(),
        )];
        let allow = Allowlist::parse("crates/client/src/writer.rs: Vec::with_capacity(self.cap)\n");
        let fns = summaries(src, "crates/client/src/writer.rs");
        let a = audit(&texts, &fns, false, &allow);
        assert!(a.sites.is_empty(), "{:?}", a.sites);
    }

    #[test]
    fn spawn_closures_inherit_parent_hotness() {
        let src = "
            fn pump_loop(&self) {
                std::thread::spawn(move || { inner_work(); });
            }
            fn inner_work() {}
        ";
        let fns = summaries(src, "crates/client/src/writer.rs");
        let hot = hot_set(&fns, false);
        let names: Vec<&str> = hot.iter().map(|(_, n)| n.as_str()).collect();
        assert!(names.contains(&"inner_work"), "{names:?}");
    }
}
