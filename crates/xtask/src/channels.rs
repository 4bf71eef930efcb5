//! `channel-discipline`: the paper's backpressure is bounded queues with
//! named capacities (DESIGN.md §12), so every channel creation site is
//! checked where it is written.
//!
//! The scan looks only at creation sites — `bounded(..)` / `unbounded()`
//! calls outside test code — and records the sender name from the
//! `let (tx, rx) = …` pattern and the capacity token. An unbounded channel
//! needs an allowlist justification; a bounded one must name its capacity
//! as a constant. The same scan, with the `const` value behind each named
//! capacity, renders the channel-capacity table that a self-test pins in
//! DESIGN.md §10.

use crate::guards;
use crate::lexer::{lex, Token, TokenKind};
#[cfg(test)]
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A channel's capacity as written at its creation site.
#[derive(Debug, PartialEq)]
pub enum Capacity {
    Unbounded,
    /// A single identifier: a named constant.
    Named(String),
    /// Anything else, joined token by token (`64`, `N * 2`).
    Literal(String),
}

/// One channel creation site.
#[derive(Debug)]
pub struct Channel {
    /// Sender binding from the `let (tx, rx) = …` pattern, or `chan:<line>`
    /// when the pattern is not a two-binding tuple.
    pub name: String,
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    pub capacity: Capacity,
}

impl Channel {
    /// The `channel-discipline` finding for this site, if any.
    pub fn problem(&self) -> Option<String> {
        match &self.capacity {
            Capacity::Unbounded => Some(format!(
                "unbounded channel `{}`: queues must be bounded with a named-constant \
                 capacity so backpressure reaches the source (DESIGN.md channel-capacity \
                 table); if unbounded is load-bearing, justify it in the allowlist",
                self.name
            )),
            Capacity::Named(_) => None,
            Capacity::Literal(cap) => Some(format!(
                "bounded channel `{}` uses magic capacity `{cap}`: name it as a `const` so \
                 the DESIGN.md channel-capacity table documents the backpressure budget",
                self.name
            )),
        }
    }
}

/// Every channel creation site in the files the guard analysis covers (the
/// sync facade is exempt).
pub fn scan(texts: &[(PathBuf, String)], fixture_mode: bool) -> Vec<Channel> {
    let mut channels = Vec::new();
    for (rel, text) in texts {
        if !guards::guard_analysis_applies(rel, fixture_mode) {
            continue;
        }
        let toks = lex(text);
        let sig: Vec<&Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
        let tests = guards::collect_test_ranges(&sig);
        for i in 0..sig.len() {
            if sig[i].kind != TokenKind::Ident
                || !matches!(sig[i].text, "bounded" | "unbounded")
                || (i > 0 && matches!(sig[i - 1].text, "." | "fn"))
                || tests.iter().any(|&(s, e)| i >= s && i < e)
            {
                continue;
            }
            let open = skip_turbofish(&sig, i + 1);
            if sig.get(open).map(|t| t.text) != Some("(") {
                continue; // e.g. a `use` import of the name
            }
            let capacity = if sig[i].text == "unbounded" {
                Capacity::Unbounded
            } else {
                match &sig[open + 1..close_of(&sig, open)] {
                    [t] if t.kind == TokenKind::Ident => Capacity::Named(t.text.to_string()),
                    inner => Capacity::Literal(
                        inner.iter().map(|t| t.text).collect::<Vec<_>>().join(" "),
                    ),
                }
            };
            channels.push(Channel {
                name: sender_name(&sig, i).unwrap_or_else(|| format!("chan:{}", sig[i].line)),
                file: rel.clone(),
                line: sig[i].line,
                col: sig[i].col,
                capacity,
            });
        }
    }
    channels
}

/// Markdown rows of the DESIGN.md channel-capacity table: every channel
/// [`scan`] finds, a named capacity with its `const` value.
#[cfg(test)]
pub fn capacity_table(texts: &[(PathBuf, String)], fixture_mode: bool) -> Vec<String> {
    let mut consts = BTreeMap::new();
    for (rel, text) in texts {
        if guards::guard_analysis_applies(rel, fixture_mode) {
            let toks = lex(text);
            let sig: Vec<&Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
            harvest_consts(&sig, &mut consts);
        }
    }
    let rows: BTreeSet<String> = scan(texts, fixture_mode)
        .iter()
        .map(|ch| {
            let spec = match &ch.capacity {
                Capacity::Unbounded => "unbounded (allowlisted)".to_string(),
                Capacity::Named(cap) => match consts.get(cap) {
                    Some(v) => format!("`{cap}` = {v}"),
                    None => format!("`{cap}`"),
                },
                Capacity::Literal(cap) => format!("`{cap}` (unnamed)"),
            };
            format!("| `{}` | `{}` | {spec} |", short_path(&ch.file), ch.name)
        })
        .collect();
    let mut out = vec![
        "| file | channel | capacity |".to_string(),
        "|---|---|---|".to_string(),
    ];
    out.extend(rows);
    out
}

/// `crates/common/src/tcp.rs` → `common/tcp.rs`; fixture paths unchanged.
#[cfg(test)]
fn short_path(p: &std::path::Path) -> String {
    let s = p.to_string_lossy().replace('\\', "/");
    let s = s.strip_prefix("crates/").unwrap_or(&s);
    s.replace("/src/", "/")
}

/// Harvests `const NAME: usize = <value>;` declarations.
#[cfg(test)]
fn harvest_consts(sig: &[&Token<'_>], out: &mut BTreeMap<String, String>) {
    let mut i = 0;
    while i + 5 < sig.len() {
        if sig[i].text == "const"
            && sig[i + 1].kind == TokenKind::Ident
            && sig[i + 2].text == ":"
            && sig[i + 3].text == "usize"
            && sig[i + 4].text == "="
        {
            let mut j = i + 5;
            let mut value: Vec<&str> = Vec::new();
            while j < sig.len() && sig[j].text != ";" {
                value.push(sig[j].text);
                j += 1;
            }
            out.insert(sig[i + 1].text.to_string(), value.join(" "));
            i = j;
        }
        i += 1;
    }
}

/// Skips a `:: < … >` turbofish starting at `j`; returns the index after it.
fn skip_turbofish(sig: &[&Token<'_>], mut j: usize) -> usize {
    if j + 2 < sig.len() && sig[j].text == ":" && sig[j + 1].text == ":" && sig[j + 2].text == "<" {
        let mut angle = 0i32;
        j += 2;
        while j < sig.len() {
            match sig[j].text {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    j
}

/// Index of the `)` matching the `(` at `open` (clamped to the last token).
fn close_of(sig: &[&Token<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in sig.iter().enumerate().skip(open) {
        match t.text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    sig.len() - 1
}

/// Index of the `(` matching the `)` at `close` (or 0).
fn open_of(sig: &[&Token<'_>], close: usize) -> usize {
    let mut depth = 0i32;
    for i in (0..=close).rev() {
        match sig[i].text {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    0
}

/// The sender of a `let (tx, rx) = [path::]bounded(…)` pattern, walking back
/// from the creation call at `i` (handles `let (a, b): (S, R) = …`).
fn sender_name(sig: &[&Token<'_>], i: usize) -> Option<String> {
    let mut k = i;
    while k >= 3
        && sig[k - 1].text == ":"
        && sig[k - 2].text == ":"
        && sig[k - 3].kind == TokenKind::Ident
    {
        k -= 3;
    }
    if k < 2 || sig[k - 1].text != "=" {
        return None;
    }
    // The tuple group ending at `close`: its idents and its `(` index.
    let group_back = |close: usize| -> Option<(Vec<&str>, usize)> {
        if sig[close].text != ")" {
            return None;
        }
        let open = open_of(sig, close);
        let ids = sig[open + 1..close]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text != "mut")
            .map(|t| t.text)
            .collect();
        Some((ids, open))
    };
    let (mut ids, mut open) = group_back(k - 2)?;
    if open > 1 && sig[open - 1].text == ":" && sig[open - 2].text == ")" {
        (ids, open) = group_back(open - 2)?;
    }
    if open == 0 || sig[open - 1].text != "let" || ids.len() != 2 {
        return None;
    }
    Some(ids[0].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> [(PathBuf, String); 1] {
        [(PathBuf::from("t.rs"), src.to_string())]
    }

    #[test]
    fn channel_bindings_capacities_and_discipline() {
        let src = "const CAP: usize = 8;\n\
                   fn f() {\n\
                       let (tx, rx) = bounded(CAP);\n\
                       let (a, b): (Sender<u8>, Receiver<u8>) = unbounded();\n\
                       let (m, n) = crossbeam::channel::bounded::<u8>(64);\n\
                       let _ = (rx, b, n, m, a, tx);\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn t() { let (x, y) = unbounded(); } }\n";
        let channels = scan(&texts(src), true);
        assert_eq!(channels.len(), 3, "{channels:?}");
        assert_eq!(channels[0].name, "tx");
        assert_eq!(channels[0].capacity, Capacity::Named("CAP".into()));
        assert_eq!(channels[1].name, "a");
        assert_eq!(channels[1].capacity, Capacity::Unbounded);
        assert_eq!(channels[2].name, "m");
        assert_eq!(channels[2].capacity, Capacity::Literal("64".into()));

        let problems: Vec<String> = channels.iter().filter_map(Channel::problem).collect();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("unbounded channel `a`"));
        assert!(problems[1].contains("magic capacity `64`"));
    }

    #[test]
    fn capacity_table_lists_named_and_unbounded_channels() {
        let src = "const CAP: usize = 8;\n\
                   fn f() {\n\
                       let (tx, _rx) = bounded(CAP);\n\
                       let (evt_tx, _evt_rx) = unbounded();\n\
                       let pair = bounded(CAP);\n\
                       let _ = (tx, evt_tx, pair);\n\
                   }\n";
        let table = capacity_table(&texts(src), true);
        let joined = table.join("\n");
        assert!(joined.contains("| `t.rs` | `tx` | `CAP` = 8 |"), "{joined}");
        assert!(
            joined.contains("| `t.rs` | `evt_tx` | unbounded (allowlisted) |"),
            "{joined}"
        );
        assert!(
            joined.contains("| `t.rs` | `chan:5` | `CAP` = 8 |"),
            "{joined}"
        );
    }
}
