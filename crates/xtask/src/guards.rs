//! Guard-liveness analysis over the token stream.
//!
//! This pass tracks `pravega_sync` guard live ranges per function — from the
//! `let` binding (or an expression temporary) to `drop(guard)`, shadowing, or
//! the end of the enclosing block — and derives the **guard-across-blocking**
//! sites from them: a live guard at a call to a blocking operation (sleeps,
//! channel `recv`, `thread::join`, future/`Condvar` waits on *other* locks,
//! retry executions, and calls into functions that themselves perform
//! blocking work — file I/O, journal fsync, pacing).
//!
//! The analysis is deliberately approximate: it is token-level, names locks
//! by the rank of their `Mutex::new(rank::X, …)` declaration, and matches
//! callees by bare name. Closures passed to `spawn` run on another thread, so
//! their bodies are analyzed as detached contexts that inherit no held
//! guards. Lock *order* is not checked here: the runtime rank checker in
//! `pravega-sync` enforces it on every debug-build test.

use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A call made while at least one guard was live.
#[derive(Debug, Clone)]
pub struct CallWhileHeld {
    pub callee: String,
    /// Human-readable labels of every live guard (for messages).
    pub held_labels: Vec<String>,
    pub line: u32,
    pub col: u32,
}

/// A blocking primitive executed while a guard was live.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// What blocked: `thread::sleep`, `recv`, `join`, `condvar-wait`, …
    pub what: String,
    /// Names (or `<guard>`) of the live guards held across it.
    pub held: Vec<String>,
    pub line: u32,
    pub col: u32,
}

/// Everything the analysis learned about one function body.
#[derive(Debug, Default)]
pub struct FnSummary {
    /// Bare function name; spawned-closure contexts get `name@spawn:<line>`,
    /// which never matches a call site.
    pub name: String,
    pub file: PathBuf,
    pub calls_held: Vec<CallWhileHeld>,
    pub blocking_held: Vec<BlockingSite>,
    /// All callee names (for blocking-set propagation).
    pub calls: BTreeSet<String>,
    /// The body directly executes a blocking primitive.
    pub blocks_directly: bool,
}

/// Blocking primitives recognised directly at a call site; each entry is
/// `(method name, requires empty args, what)`. Method calls only (`.name(`).
const BLOCKING_METHODS: [(&str, bool, &str); 7] = [
    ("recv", true, "channel recv"),
    ("recv_timeout", false, "channel recv"),
    ("recv_deadline", false, "channel recv"),
    ("join", true, "thread join"),
    ("wait_for", false, "condvar wait"),
    ("wait_while", false, "condvar wait"),
    ("wait_timeout", false, "condvar wait"),
];

/// Idents that mark a body as doing file/device I/O when they appear as a
/// path segment (`fs::write`, `File::open`) or method (`.sync_all()`).
const IO_MARKERS: [&str; 7] = [
    "sync_all",
    "sync_data",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "OpenOptions",
];

/// Callee names too generic for name-matched propagation: ubiquitous on std
/// collections, iterators, atomics (`store`/`load`), formatting, and the
/// in-process metrics registry, so a bare-name match carries no signal about
/// which function is actually called — and none of the workspace functions
/// with these names may do blocking work. Direct (same-body) facts are
/// unaffected — only cross-function matching consults this list, both when
/// propagating "may block" through the call graph and when flagging a call
/// made under a guard.
pub const CALL_STOPLIST: [&str; 58] = [
    // std collections / iterators / conversions
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "clone",
    "contains",
    "contains_key",
    "entry",
    "keys",
    "values",
    "drain",
    "clear",
    "release",
    "extend",
    "next",
    "take",
    "replace",
    "retain",
    "split_off",
    "new",
    "default",
    "from",
    "into",
    "min",
    "max",
    "sum",
    "count",
    "cmp",
    "abs",
    // formatting
    "fmt",
    "finish",
    "to_json",
    "render",
    // atomics
    "store",
    "load",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    // pure-CPU codec / math helpers
    "parse",
    "encode",
    "decode",
    "encoded_len",
    "jittered",
    // virtualised clock reads (never block; see crates/common/src/clock.rs)
    "monotonic_now",
    "wall_now",
    "now",
    "now_nanos",
    // in-process metrics registry ops (lock-free or leaf-rank only)
    "inc",
    "record",
    "observe",
    "set",
    "add",
];

/// Extracts just the `field → rank` declarations from a token stream (used
/// to build the workspace-wide [`LockMap`] before the full analysis pass).
pub fn lock_fields_of(toks: &[Token<'_>]) -> BTreeMap<String, String> {
    let sig: Vec<&Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
    collect_lock_fields(&sig)
}

/// Whether this file participates in guard analysis at all (the sync facade
/// implements the guards; analysing it would be self-referential).
pub fn guard_analysis_applies(rel: &Path, fixture_mode: bool) -> bool {
    fixture_mode
        || !rel
            .to_string_lossy()
            .replace('\\', "/")
            .starts_with("crates/sync/")
}

/// Analyzes one file's token stream into per-function summaries.
pub fn analyze_file(rel: &Path, toks: &[Token<'_>], global_locks: &LockMap) -> Vec<FnSummary> {
    let sig: Vec<&Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
    let lock_fields = collect_lock_fields(&sig);
    let test_ranges = collect_test_ranges(&sig);

    let resolve = |field: &str| -> Option<String> {
        lock_fields
            .get(field)
            .cloned()
            .or_else(|| global_locks.unambiguous(field))
    };

    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if let Some((name, header_end, body_start, body_end)) = fn_item(&sig, i) {
            let in_test = test_ranges.iter().any(|&(s, e)| i >= s && i < e);
            if !in_test {
                let mut summary = FnSummary {
                    name,
                    file: rel.to_path_buf(),
                    ..Default::default()
                };
                let mut spawned = Vec::new();
                analyze_body(
                    &sig,
                    body_start + 1,
                    body_end,
                    &resolve,
                    &mut summary,
                    &mut spawned,
                );
                fns.push(summary);
                fns.append(&mut spawned);
            }
            // Continue scanning *inside* the body too: nested fns are rare
            // but cheap to support by resuming right after the header.
            i = header_end;
            continue;
        }
        i += 1;
    }
    fns
}

/// Workspace-wide `field → rank` map with ambiguity tracking, used as a
/// fallback when a file acquires a lock declared in another file.
#[derive(Debug, Default)]
pub struct LockMap {
    by_field: BTreeMap<String, BTreeSet<String>>,
}

impl LockMap {
    pub fn add_file(&mut self, analysis_fields: &BTreeMap<String, String>) {
        for (field, rank) in analysis_fields {
            self.by_field
                .entry(field.clone())
                .or_default()
                .insert(rank.clone());
        }
    }

    fn unambiguous(&self, field: &str) -> Option<String> {
        let ranks = self.by_field.get(field)?;
        if ranks.len() == 1 {
            ranks.iter().next().cloned()
        } else {
            None
        }
    }
}

/// Finds `<binding>: Mutex::new(rank::NAME, …)` / `let <binding> =
/// [Arc::new(] Mutex::new(rank::NAME` declarations.
fn collect_lock_fields(sig: &[&Token<'_>]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut i = 0usize;
    while i + 6 < sig.len() {
        let is_ctor = (sig[i].text == "Mutex" || sig[i].text == "RwLock")
            && sig[i + 1].text == ":"
            && sig[i + 2].text == ":"
            && sig[i + 3].text == "new"
            && sig[i + 4].text == "(";
        if is_ctor {
            // Rank path: `rank :: NAME` (possibly `pravega_sync :: rank :: NAME`).
            let mut j = i + 5;
            let mut rank = None;
            // Look a short distance ahead for `rank :: IDENT`.
            while j + 2 < sig.len() && j < i + 16 {
                if sig[j].text == "rank" && sig[j + 1].text == ":" && sig[j + 2].text == ":" {
                    if let Some(t) = sig.get(j + 3) {
                        if t.kind == TokenKind::Ident {
                            rank = Some(t.text.to_string());
                        }
                    }
                    break;
                }
                if sig[j].text == "," {
                    break;
                }
                j += 1;
            }
            if let Some(rank) = rank {
                if let Some(binding) = binding_before(sig, i) {
                    map.entry(binding).or_insert(rank);
                }
            }
        }
        i += 1;
    }
    map
}

/// Walks backwards from a `Mutex::new` token to the field or `let` binding
/// it initialises, skipping `Arc::new(` / `Some(` wrappers.
fn binding_before(sig: &[&Token<'_>], ctor: usize) -> Option<String> {
    let mut k = ctor;
    while k > 0 {
        k -= 1;
        let t = sig[k].text;
        let part_of_path_sep = t == ":"
            && ((k > 0 && sig[k - 1].text == ":") || sig.get(k + 1).is_some_and(|n| n.text == ":"));
        if part_of_path_sep || matches!(t, "(" | "new" | "Arc" | "Box" | "Some" | "Rc" | "mut") {
            // Wrapper layers between the binding and the ctor.
            continue;
        }
        if t == ":" {
            // Struct literal `field : Mutex::new(…)`.
            return (k > 0 && sig[k - 1].kind == TokenKind::Ident)
                .then(|| sig[k - 1].text.to_string());
        }
        if t == "=" {
            // `let [mut] name = …`.
            if k >= 2
                && sig[k - 1].kind == TokenKind::Ident
                && matches!(sig[k - 2].text, "let" | "mut")
            {
                return Some(sig[k - 1].text.to_string());
            }
            return None;
        }
        return None;
    }
    None
}

/// Token-index ranges (over the significant stream) that are test code:
/// items annotated `#[test]` / `#[cfg(test)]` / `#[cfg(any(test, …))]`.
pub(crate) fn collect_test_ranges(sig: &[&Token<'_>]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if sig[i].text == "#" && i + 1 < sig.len() && sig[i + 1].text == "[" {
            // Scan the attribute for a bare `test` ident.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut has_test = false;
            let mut has_not = false;
            while j < sig.len() {
                match sig[j].text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" => has_test = true,
                    "not" => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            // `#[cfg(not(test))]` is production-only code, not test code.
            if has_test && !has_not {
                // The next `{` opens the annotated item's body (skipping any
                // further attributes); exempt through its matching `}`.
                let mut k = j + 1;
                let mut brace = 0i32;
                let mut started = false;
                while k < sig.len() {
                    match sig[k].text {
                        "{" => {
                            brace += 1;
                            started = true;
                        }
                        "}" => {
                            brace -= 1;
                            if started && brace == 0 {
                                ranges.push((i, k + 1));
                                break;
                            }
                        }
                        ";" if !started && brace == 0 => {
                            // `#[cfg(test)] mod tests;` — no inline body.
                            ranges.push((i, k + 1));
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                i = j + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Recognises a `fn` item starting at index `i`; returns
/// `(name, header_end, body_start, body_end)` as significant-token indices,
/// where `body_start` points at the opening `{` and `body_end` one past the
/// matching `}`. Returns `None` for trait-method declarations (no body).
pub(crate) fn fn_item(sig: &[&Token<'_>], i: usize) -> Option<(String, usize, usize, usize)> {
    if sig[i].text != "fn" || sig[i].kind != TokenKind::Ident {
        return None;
    }
    // `fn` must be a keyword position, not a path segment (`Fn` trait is a
    // different ident; `.fn` cannot occur).
    let name_tok = sig.get(i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    // Find the parameter list `( … )`.
    let mut j = i + 2;
    // Skip generics `< … >`.
    if sig.get(j).is_some_and(|t| t.text == "<") {
        let mut angle = 0i32;
        while j < sig.len() {
            match sig[j].text {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if sig.get(j).map(|t| t.text) != Some("(") {
        return None;
    }
    let mut paren = 0i32;
    while j < sig.len() {
        match sig[j].text {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Scan for the body `{` (or `;` for bodyless declarations), staying at
    // bracket depth 0 so `-> Result<(), E>` and where-clauses are crossed.
    let mut depth = 0i32;
    while j < sig.len() {
        match sig[j].text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return None,
            "{" if depth == 0 => {
                let body_start = j;
                let mut brace = 0i32;
                let mut k = j;
                while k < sig.len() {
                    match sig[k].text {
                        "{" => brace += 1,
                        "}" => {
                            brace -= 1;
                            if brace == 0 {
                                return Some((
                                    name_tok.text.to_string(),
                                    body_start + 1,
                                    body_start,
                                    k + 1,
                                ));
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return Some((
                    name_tok.text.to_string(),
                    body_start + 1,
                    body_start,
                    sig.len(),
                ));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// One live guard.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name; `None` for expression temporaries.
    name: Option<String>,
    rank: Option<String>,
    /// Brace depth at binding; dies when its block closes.
    depth: i32,
    line: u32,
}

impl Guard {
    fn label(&self) -> String {
        match (&self.name, &self.rank) {
            (Some(n), Some(r)) => format!("`{n}` ({r}, line {})", self.line),
            (Some(n), None) => format!("`{n}` (line {})", self.line),
            (None, Some(r)) => format!("temporary ({r}, line {})", self.line),
            (None, None) => format!("temporary (line {})", self.line),
        }
    }
}

/// Walks a function body tracking guard liveness; `spawn_out` receives
/// detached summaries for closures passed to `spawn`.
fn analyze_body(
    sig: &[&Token<'_>],
    start: usize,
    end: usize,
    resolve: &dyn Fn(&str) -> Option<String>,
    summary: &mut FnSummary,
    spawn_out: &mut Vec<FnSummary>,
) {
    let mut live: Vec<Guard> = Vec::new();
    let mut depth: i32 = 1; // we start just inside the body `{`
                            // `let` binding state: Some(name) after `let [mut] name =` until `;`.
    let mut pending: Option<String> = None;
    let mut pending_if_let = false;
    // Guard bindings seen so far with their declaration depth, so that a
    // plain reassignment (`g = x.lock();` after a `drop(g)`) revives the
    // guard at its original scope, not the reassignment's scope.
    let mut declared: Vec<(String, i32)> = Vec::new();

    let mut i = start;
    while i < end.min(sig.len()) {
        let t = sig[i];
        match t.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                live.retain(|g| g.depth <= depth);
                declared.retain(|&(_, d)| d <= depth);
            }
            ";" => {
                pending = None;
                pending_if_let = false;
                // Expression temporaries die at statement end.
                live.retain(|g| g.name.is_some());
            }
            "let" => {
                let is_if_let = i > 0 && matches!(sig[i - 1].text, "if" | "while");
                let mut j = i + 1;
                while sig.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                // `let Some(name)` / `let Ok(name)` patterns.
                let mut wrapped = false;
                if sig.get(j).is_some_and(|t| matches!(t.text, "Some" | "Ok"))
                    && sig.get(j + 1).is_some_and(|t| t.text == "(")
                {
                    wrapped = true;
                    j += 2;
                    while sig.get(j).is_some_and(|t| t.text == "mut") {
                        j += 1;
                    }
                }
                if let Some(name_tok) = sig.get(j) {
                    let (close_ok, eq_idx) = if wrapped {
                        (sig.get(j + 1).is_some_and(|t| t.text == ")"), j + 2)
                    } else {
                        (true, j + 1)
                    };
                    if name_tok.kind == TokenKind::Ident
                        && close_ok
                        && sig.get(eq_idx).is_some_and(|t| t.text == "=")
                    {
                        // `let v = *…lock();` copies the value out — the
                        // binding is not a guard.
                        let deref = sig
                            .get(eq_idx + 1)
                            .is_some_and(|t| matches!(t.text, "*" | "&"));
                        if !deref {
                            pending = Some(name_tok.text.to_string());
                            pending_if_let = is_if_let;
                        }
                    }
                }
            }
            "drop" => {
                // `drop(name)` / `mem::drop(name)` ends the guard.
                if sig.get(i + 1).is_some_and(|t| t.text == "(") {
                    if let Some(name_tok) = sig.get(i + 2) {
                        if name_tok.kind == TokenKind::Ident
                            && sig.get(i + 3).is_some_and(|t| t.text == ")")
                        {
                            live.retain(|g| g.name.as_deref() != Some(name_tok.text));
                        }
                    }
                }
            }
            "sleep" => {
                // `thread::sleep(…)` (the lexical pattern `:: sleep (`).
                if i >= 2
                    && sig[i - 1].text == ":"
                    && sig[i - 2].text == ":"
                    && sig.get(i + 1).is_some_and(|t| t.text == "(")
                {
                    summary.blocks_directly = true;
                    record_blocking(summary, &live, None, "thread::sleep", t);
                }
            }
            "park" | "park_timeout" => {
                if i >= 2 && sig[i - 1].text == ":" && sig[i - 2].text == ":" {
                    summary.blocks_directly = true;
                    record_blocking(summary, &live, None, "thread park", t);
                }
            }
            "spawn" => {
                // `thread::spawn(closure)` / `builder.spawn(closure)`: the
                // closure runs on another thread — analyze it detached.
                if sig.get(i + 1).is_some_and(|t| t.text == "(") {
                    let close = match_paren(sig, i + 1, end);
                    let mut detached = FnSummary {
                        name: format!("{}@spawn:{}", summary.name, t.line),
                        file: summary.file.clone(),
                        ..Default::default()
                    };
                    analyze_body(sig, i + 2, close, resolve, &mut detached, spawn_out);
                    spawn_out.push(detached);
                    i = close; // resume at the `)`
                }
            }
            "wait" => {
                // `.wait()` → future wait; `.wait(&mut g)` → condvar wait
                // releasing `g` but holding everything else.
                if i > 0 && sig[i - 1].text == "." && sig.get(i + 1).is_some_and(|t| t.text == "(")
                {
                    if sig.get(i + 2).is_some_and(|t| t.text == ")") {
                        summary.blocks_directly = true;
                        record_blocking(summary, &live, None, "future wait", t);
                    } else {
                        let waited = first_ident_in_args(sig, i + 1, end);
                        summary.blocks_directly = true;
                        record_blocking(summary, &live, waited.as_deref(), "condvar wait", t);
                    }
                }
            }
            _ => {
                // Blocking method primitives.
                let mut condvar_wait = false;
                if i > 0 && sig[i - 1].text == "." {
                    for (name, needs_empty, what) in BLOCKING_METHODS {
                        if t.text == name && sig.get(i + 1).is_some_and(|t| t.text == "(") {
                            let empty = sig.get(i + 2).is_some_and(|t| t.text == ")");
                            if !needs_empty || empty {
                                summary.blocks_directly = true;
                                let waited = if what == "condvar wait" {
                                    condvar_wait = true;
                                    first_ident_in_args(sig, i + 1, end)
                                } else {
                                    None
                                };
                                record_blocking(summary, &live, waited.as_deref(), what, t);
                            }
                        }
                    }
                }
                if IO_MARKERS.contains(&t.text) {
                    summary.blocks_directly = true;
                }
                if (t.text == "fs" || t.text == "File")
                    && sig.get(i + 1).is_some_and(|t| t.text == ":")
                    && sig.get(i + 2).is_some_and(|t| t.text == ":")
                {
                    summary.blocks_directly = true;
                    record_blocking(summary, &live, None, "file I/O", t);
                }

                // Lock acquisitions: `.lock()`, `.try_lock()`, `.read()`,
                // `.write()` — all with empty argument lists (I/O `read`/
                // `write` calls take arguments and are handled as calls).
                if i > 0
                    && sig[i - 1].text == "."
                    && sig.get(i + 1).is_some_and(|t| t.text == "(")
                    && sig.get(i + 2).is_some_and(|t| t.text == ")")
                    && matches!(t.text, "lock" | "try_lock" | "read" | "write")
                {
                    let field = if i >= 2 && sig[i - 2].kind == TokenKind::Ident {
                        Some(sig[i - 2].text.to_string())
                    } else {
                        None
                    };
                    let rank = field.as_deref().and_then(resolve);
                    // Bind when the acquisition is the whole initialiser
                    // (`let g = x.lock();` or `if let Some(g) = x.try_lock()
                    // {`); a chained call (`x.lock().len()`) makes it a
                    // statement temporary instead.
                    let after = sig.get(i + 3).map(|t| t.text);
                    let binds = match (&pending, pending_if_let) {
                        (Some(_), true) => after == Some("{"),
                        (Some(_), false) => after == Some(";"),
                        (None, _) => false,
                    };
                    // `g = x.lock();` with no `let`: reassignment revives the
                    // binding (the three-phase pattern drops a guard for
                    // unlocked I/O and then re-acquires into the same name).
                    let reassigned = if pending.is_none() && after == Some(";") {
                        reassign_target(sig, i)
                    } else {
                        None
                    };
                    let (name, gdepth) = if binds {
                        let n = pending.take().expect("checked above");
                        let d = depth + if pending_if_let { 1 } else { 0 };
                        // Shadowing: a same-name rebinding in the same scope
                        // ends the previous guard's tracked range.
                        live.retain(|g| g.name.as_deref() != Some(n.as_str()) || g.depth != d);
                        pending_if_let = false;
                        declared.push((n.clone(), d));
                        (Some(n), d)
                    } else if let Some(n) = reassigned {
                        let d = declared
                            .iter()
                            .rev()
                            .find(|(dn, _)| dn == &n)
                            .map(|&(_, d)| d)
                            .unwrap_or(depth);
                        live.retain(|g| g.name.as_deref() != Some(n.as_str()));
                        (Some(n), d)
                    } else {
                        (None, depth)
                    };
                    live.push(Guard {
                        name,
                        rank,
                        depth: gdepth,
                        line: t.line,
                    });
                    i += 2; // resume at the `)`
                    continue;
                }

                // Generic calls: `name(` (method or free), excluding macros
                // (`name!(…)` never lexes with `(` directly after the ident),
                // keywords, and constructor wrappers.
                // A timed condvar wait is fully accounted for above, like
                // the untimed `wait`: recording it as a call too would
                // resolve to `pravega_sync::Condvar::wait_for` and flag the
                // very guard the wait releases.
                if t.kind == TokenKind::Ident
                    && !condvar_wait
                    && sig.get(i + 1).is_some_and(|t| t.text == "(")
                    && !matches!(
                        t.text,
                        "if" | "while"
                            | "for"
                            | "match"
                            | "return"
                            | "fn"
                            | "loop"
                            | "Some"
                            | "Ok"
                            | "Err"
                            | "None"
                            | "Box"
                            | "Arc"
                            | "Rc"
                            | "Vec"
                    )
                    && !(i > 0 && sig[i - 1].text == "fn")
                {
                    summary.calls.insert(t.text.to_string());
                    if !live.is_empty() {
                        summary.calls_held.push(CallWhileHeld {
                            callee: t.text.to_string(),
                            held_labels: live.iter().map(|g| g.label()).collect(),
                            line: t.line,
                            col: t.col,
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// For an acquisition at `lock_idx` (the `lock`/`read`/`write` ident),
/// detects the `name = <receiver>.lock();` reassignment shape and returns
/// `name`. Rejects comparisons (`==`, `!=`, `<=`, `>=`), `let` bindings
/// (handled by the caller), and field stores (`self.g = …`).
fn reassign_target(sig: &[&Token<'_>], lock_idx: usize) -> Option<String> {
    // Walk back over the receiver path (`self . inner`, `mutex`).
    let mut k = lock_idx.checked_sub(2)?;
    loop {
        let t = sig.get(k)?;
        if t.kind == TokenKind::Ident || t.text == "." {
            k = k.checked_sub(1)?;
        } else {
            break;
        }
    }
    if sig.get(k)?.text != "=" {
        return None;
    }
    let name_tok = sig.get(k.checked_sub(1)?)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    if k >= 2 && matches!(sig[k - 2].text, "=" | "!" | "<" | ">" | "." | "let" | "mut") {
        return None;
    }
    Some(name_tok.text.to_string())
}

fn record_blocking(
    summary: &mut FnSummary,
    live: &[Guard],
    waited: Option<&str>,
    what: &str,
    tok: &Token<'_>,
) {
    let kept: Vec<&Guard> = live
        .iter()
        .filter(|g| match (waited, &g.name) {
            (Some(w), Some(n)) => n != w,
            _ => true,
        })
        .collect();
    let held: Vec<String> = kept.iter().map(|g| g.label()).collect();
    if !held.is_empty() {
        summary.blocking_held.push(BlockingSite {
            what: what.to_string(),
            held,
            line: tok.line,
            col: tok.col,
        });
    }
}

/// Computes the set of callee names considered blocking: a fixpoint over
/// the approximate (name-matched) call graph, seeded with every workspace
/// function whose body directly executes a blocking primitive or file I/O.
///
/// Name matching is deliberately coarse — `.append(…)` on a `Vec` matches a
/// journal `append` that fsyncs — so the rule errs towards flagging; sites
/// that are provably safe go in the allowlist with a justification.
pub fn blocking_callees(fns: &[FnSummary]) -> BTreeSet<String> {
    let mut blocking: BTreeSet<String> = fns
        .iter()
        .filter(|f| f.blocks_directly && !f.name.contains('@'))
        .map(|f| f.name.clone())
        .collect();
    loop {
        let mut changed = false;
        for f in fns {
            if f.name.contains('@') || blocking.contains(&f.name) {
                continue;
            }
            // Generic names carry no signal, so they neither receive nor
            // transmit "may block" through the approximate call graph.
            if f.calls
                .iter()
                .any(|c| blocking.contains(c) && !CALL_STOPLIST.contains(&c.as_str()))
            {
                blocking.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            return blocking;
        }
    }
}

/// Index one past the `)` matching the `(` at `open` (clamped to `end`).
fn match_paren(sig: &[&Token<'_>], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end.min(sig.len()) {
        match sig[i].text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.min(sig.len())
}

/// First identifier inside the argument list at `open` (skipping `&`/`mut`).
fn first_ident_in_args(sig: &[&Token<'_>], open: usize, end: usize) -> Option<String> {
    let close = match_paren(sig, open, end);
    let mut i = open + 1;
    while i < close {
        let t = sig[i];
        if t.kind == TokenKind::Ident && t.text != "mut" {
            return Some(t.text.to_string());
        }
        if !matches!(t.text, "&" | "*") && t.kind != TokenKind::Ident {
            return None;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze(src: &str) -> Vec<FnSummary> {
        let toks = lex(src);
        analyze_file(
            Path::new("crates/wal/src/sample.rs"),
            &toks,
            &LockMap::default(),
        )
    }

    const DECL: &str = "
        struct S { state: Mutex<u32> }
        impl S {
            fn mk() -> Self { Self { state: Mutex::new(rank::WAL_LOG, 0) } }
        }
    ";

    #[test]
    fn lock_fields_resolved_through_wrappers() {
        let fields = lock_fields_of(&lex("struct S { a: Mutex<u32>, b: RwLock<u8> }\n\
             fn mk() { let s = S { a: Mutex::new(rank::WAL_LOG, 0), \
             b: Arc::new(RwLock::new(rank::WAL_BOOKIE, 0)) }; }\n\
             fn local() { let m = Mutex::new(rank::LTS_CHUNKS, 0); }"));
        assert_eq!(fields.get("a").map(String::as_str), Some("WAL_LOG"));
        assert_eq!(fields.get("b").map(String::as_str), Some("WAL_BOOKIE"));
        assert_eq!(fields.get("m").map(String::as_str), Some("LTS_CHUNKS"));
    }

    #[test]
    fn guard_held_across_sleep_is_flagged() {
        let src = format!(
            "{DECL}
            impl S {{
                fn bad(&self) {{
                    let g = self.state.lock();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    drop(g);
                }}
            }}"
        );
        let a = analyze(&src);
        let bad = a.iter().find(|f| f.name == "bad").unwrap();
        assert_eq!(bad.blocking_held.len(), 1, "{bad:?}");
        assert_eq!(bad.blocking_held[0].what, "thread::sleep");
        assert!(bad.blocking_held[0].held[0].contains("WAL_LOG"));
    }

    #[test]
    fn reassignment_revives_the_guard() {
        let src = format!(
            "{DECL}
            impl S {{
                fn three_phase(&self) {{
                    let mut g = self.state.lock();
                    drop(g);
                    std::fs::write(\"x\", b\"y\").ok();
                    g = self.state.lock();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "three_phase").unwrap();
        // The file I/O runs unlocked; only the sleep holds the revived guard.
        assert_eq!(f.blocking_held.len(), 1, "{f:?}");
        assert_eq!(f.blocking_held[0].what, "thread::sleep");
        assert!(f.blocking_held[0].held[0].contains("WAL_LOG"));
    }

    #[test]
    fn comparison_is_not_a_reassignment() {
        let src = format!(
            "{DECL}
            impl S {{
                fn cmp(&self, other: u32) -> bool {{
                    let v = *self.state.lock();
                    v == other
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "cmp").unwrap();
        assert!(f.blocking_held.is_empty(), "{f:?}");
    }

    #[test]
    fn drop_ends_the_live_range() {
        let src = format!(
            "{DECL}
            impl S {{
                fn good(&self) {{
                    let g = self.state.lock();
                    drop(g);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }}
            }}"
        );
        let a = analyze(&src);
        let good = a.iter().find(|f| f.name == "good").unwrap();
        assert!(good.blocking_held.is_empty(), "{good:?}");
        assert!(good.blocks_directly);
    }

    #[test]
    fn scope_end_ends_the_live_range() {
        let src = format!(
            "{DECL}
            impl S {{
                fn good(&self) {{
                    {{ let g = self.state.lock(); let _ = *g; }}
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }}
            }}"
        );
        let a = analyze(&src);
        let good = a.iter().find(|f| f.name == "good").unwrap();
        assert!(good.blocking_held.is_empty(), "{good:?}");
    }

    #[test]
    fn shadowing_rebind_ends_the_previous_guard() {
        let src = format!(
            "{DECL}
            impl S {{
                fn f(&self, other: &S) {{
                    let g = self.state.lock();
                    let x = *g;
                    let g = other.state.lock();
                    std::thread::sleep(std::time::Duration::from_millis(x as u64));
                    drop(g);
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "f").unwrap();
        // Only one guard (the second) is live at the sleep.
        assert_eq!(f.blocking_held.len(), 1);
        assert_eq!(f.blocking_held[0].held.len(), 1, "{f:?}");
    }

    #[test]
    fn condvar_wait_on_own_lock_is_fine_but_other_guards_flag() {
        let src = "
            struct S { a: Mutex<u32>, b: Mutex<u32>, cv: Condvar }
            fn mk() { let s = S { a: Mutex::new(rank::WAL_LOG, 0),
                                  b: Mutex::new(rank::WAL_BOOKIE, 0),
                                  cv: Condvar::new() }; }
            impl S {
                fn ok(&self) {
                    let mut g = self.a.lock();
                    self.cv.wait(&mut g);
                }
                fn timed(&self) {
                    let mut g = self.a.lock();
                    self.cv.wait_for(&mut g, left);
                }
                fn bad(&self) {
                    let ga = self.a.lock();
                    let mut gb = self.b.lock();
                    self.cv.wait(&mut gb);
                    drop(ga);
                }
            }";
        let a = analyze(src);
        let ok = a.iter().find(|f| f.name == "ok").unwrap();
        assert!(ok.blocking_held.is_empty(), "{ok:?}");
        let timed = a.iter().find(|f| f.name == "timed").unwrap();
        assert!(timed.blocking_held.is_empty(), "{timed:?}");
        assert!(timed.calls_held.is_empty(), "{timed:?}");
        let bad = a.iter().find(|f| f.name == "bad").unwrap();
        assert_eq!(bad.blocking_held.len(), 1, "{bad:?}");
        assert!(bad.blocking_held[0].held[0].contains("ga"), "{bad:?}");
    }

    #[test]
    fn spawn_closures_are_detached_contexts() {
        let src = format!(
            "{DECL}
            impl S {{
                fn f(&self) {{
                    let g = self.state.lock();
                    std::thread::spawn(move || {{
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }});
                    drop(g);
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "f").unwrap();
        // The sleep happens on the spawned thread: no violation in `f`...
        assert!(f.blocking_held.is_empty(), "{f:?}");
        // ...and the detached context records it without inheriting guards.
        let sp = a.iter().find(|f| f.name.contains("@spawn")).unwrap();
        assert!(sp.blocks_directly);
        assert!(sp.blocking_held.is_empty());
    }

    #[test]
    fn calls_while_held_are_recorded() {
        let src = format!(
            "{DECL}
            impl S {{
                fn f(&self) {{
                    let g = self.state.lock();
                    self.flush_inner(1);
                    drop(g);
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.calls_held.len(), 1, "{f:?}");
        assert_eq!(f.calls_held[0].callee, "flush_inner");
        assert!(f.calls_held[0].held_labels[0].contains("WAL_LOG"), "{f:?}");
    }

    #[test]
    fn statement_temporaries_die_at_semicolon() {
        let src = format!(
            "{DECL}
            impl S {{
                fn f(&self) {{
                    *self.state.lock() = 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "f").unwrap();
        assert!(f.blocking_held.is_empty(), "{f:?}");
    }

    #[test]
    fn recv_and_join_are_blocking() {
        let src = format!(
            "{DECL}
            impl S {{
                fn f(&self, rx: &Receiver<u32>, h: JoinHandle<()>) {{
                    let g = self.state.lock();
                    let v = rx.recv();
                    drop(g);
                    let g2 = self.state.lock();
                    h.join();
                    drop(g2);
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "f").unwrap();
        let whats: Vec<&str> = f.blocking_held.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(whats, vec!["channel recv", "thread join"], "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let a = analyze(
            "#[cfg(test)]\nmod tests {\n fn f(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock() }\n}\n\
             #[test]\nfn t() { let g = m.lock(); std::thread::sleep(d); }\n",
        );
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn if_let_try_lock_guard_tracked() {
        let src = format!(
            "{DECL}
            impl S {{
                fn f(&self) {{
                    if let Some(g) = self.state.try_lock() {{
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        drop(g);
                    }}
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }}
            }}"
        );
        let a = analyze(&src);
        let f = a.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.blocking_held.len(), 1, "{f:?}");
    }
}
