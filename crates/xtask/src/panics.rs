//! The `panic-surface` rule: the wire-facing codecs must not be able to
//! panic on attacker-controlled bytes.
//!
//! Scope ([`SCOPE`]): the framed protocol (`protocol.rs`), the TCP pumps
//! (`tcp.rs`), the in-process transport (`wire.rs`), the shared buffer
//! helpers (`buf.rs`), the two WAL/durable-log frame codecs (`bookie.rs`,
//! `dataframe.rs`), and the LTS chunk block/footer codec (`format.rs`).
//! Within those files, non-test code is checked for:
//!
//! * **slice indexing** — `x[..]` / `x[i]` panics on out-of-range input;
//!   decode paths must use `get(..)` / `split_to` after an explicit length
//!   check (flagged file-wide);
//! * **unchecked length/offset arithmetic** — `+`/`-`/`*` (including
//!   compound assignment) where an operand is length-ish (`len`, `offset`,
//!   `declared`, …) overflows and panics under `overflow-checks = on`;
//!   flagged inside decode functions, which must use `checked_*` /
//!   typed-error forms;
//! * **narrowing `as` casts** — `as u8/u16/u32/i8/i16/i32` silently wraps;
//!   flagged inside decode functions, which must use `try_from` or a
//!   checked helper.
//!
//! `unwrap`/`expect` in these files is covered by the `no-unwrap` line rule
//! (whose scope includes `crates/common` and `crates/client`), so it is not
//! re-flagged here. Decode functions are recognised by name: `decode*`,
//! `get_*`, `next_*`, `feed`, `replay`. Sites are suppressible via
//! justified `lint-allowlist.txt` entries like every other rule.

use crate::guards;
use crate::lexer::{lex, Token, TokenKind};
use crate::lints::{Allowlist, Violation};
use std::path::Path;

/// Files whose non-test code is panic-surface checked.
pub const SCOPE: &[&str] = &[
    "crates/common/src/protocol.rs",
    "crates/common/src/tcp.rs",
    "crates/common/src/wire.rs",
    "crates/common/src/buf.rs",
    "crates/wal/src/bookie.rs",
    "crates/segmentstore/src/dataframe.rs",
    "crates/lts/src/format.rs",
];

/// Identifier substrings that mark an arithmetic operand as length-ish.
const LEN_WORDS: &[&str] = &[
    "len",
    "size",
    "offset",
    "pos",
    "declared",
    "remaining",
    "capacity",
    "idx",
    "index",
    "count",
    "overhead",
    "cursor",
];

/// Narrowing cast targets (usize/u64/i64/u128 stay unflagged: they cannot
/// lose length information on 64-bit targets).
const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

pub fn applies(rel: &Path, fixture_mode: bool) -> bool {
    if fixture_mode {
        return true;
    }
    let p = rel.to_string_lossy().replace('\\', "/");
    SCOPE.iter().any(|s| p.ends_with(s))
}

fn is_decode_fn(name: &str) -> bool {
    name.contains("decode")
        || name.starts_with("get_")
        || name.starts_with("next_")
        || name == "feed"
        || name == "replay"
}

/// Keywords that, immediately before `[`, mean "array literal", not
/// indexing.
const NOT_RECEIVER: &[&str] = &[
    "mut", "in", "return", "else", "as", "break", "match", "loop",
];

pub fn scan(rel: &Path, text: &str, allow: &Allowlist, out: &mut Vec<Violation>) {
    let toks = lex(text);
    let sig: Vec<&Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
    let test_ranges = guards::collect_test_ranges(&sig);
    let in_test = |i: usize| test_ranges.iter().any(|&(s, e)| i >= s && i < e);

    // Map each token index to the enclosing function's decode-ness.
    let mut decode_span: Vec<(usize, usize)> = Vec::new();
    {
        let mut i = 0usize;
        while i < sig.len() {
            if let Some((name, header_end, body_start, body_end)) = guards::fn_item(&sig, i) {
                if is_decode_fn(&name) {
                    decode_span.push((body_start, body_end));
                }
                i = header_end;
                continue;
            }
            i += 1;
        }
    }
    let in_decode = |i: usize| decode_span.iter().any(|&(s, e)| i >= s && i < e);

    let line_of = |line: u32| text.lines().nth(line as usize - 1).unwrap_or("").trim();
    let mut push = |line: u32, col: u32, message: String| {
        let snippet = line_of(line);
        if allow.permits(rel, snippet) {
            return;
        }
        out.push(Violation {
            path: rel.to_path_buf(),
            line: line as usize,
            col: col as usize,
            rule: "panic-surface",
            message,
            snippet: snippet.to_string(),
        });
    };

    let mut i = 0usize;
    while i < sig.len() {
        if in_test(i) {
            i += 1;
            continue;
        }
        let t = sig[i];
        match t.text {
            // Slice/array indexing: `recv[ … ]` where recv is an expression
            // tail (ident, `)`, or `]`), with non-empty brackets.
            "[" if i > 0 => {
                let prev = sig[i - 1];
                let is_recv = matches!(prev.text, ")" | "]")
                    || (prev.kind == TokenKind::Ident && !NOT_RECEIVER.contains(&prev.text));
                let nonempty = sig.get(i + 1).is_some_and(|n| n.text != "]");
                // `#[attr]`: the scanner sees `#` then `[`, already excluded
                // by is_recv. `&x[..]` has `x` before `[` — flagged.
                if is_recv && nonempty {
                    push(
                        t.line,
                        t.col,
                        format!(
                            "slice indexing `{}[..]` can panic on malformed input; use \
                             `.get(..)` / `split_to` after a length check",
                            prev.text
                        ),
                    );
                }
            }
            // Unchecked arithmetic on length-ish operands, decode fns only.
            "+" | "-" | "*" if in_decode(i) && i > 0 => {
                // `->` is not arithmetic.
                if t.text == "-" && sig.get(i + 1).is_some_and(|n| n.text == ">") {
                    i += 2;
                    continue;
                }
                let prev = sig[i - 1];
                let binary = matches!(prev.kind, TokenKind::Ident | TokenKind::Number)
                    || matches!(prev.text, ")" | "]");
                if binary {
                    let mut lenish = None;
                    // Left operand: `x +`, or `x.len() +` (scan back through
                    // the call parens).
                    if prev.kind == TokenKind::Ident && !NOT_RECEIVER.contains(&prev.text) {
                        lenish = lenish_ident(prev.text);
                    } else if prev.text == ")" && i >= 3 && sig[i - 2].text == "(" {
                        lenish = lenish_ident(sig[i - 3].text);
                    }
                    // Right operand: `+ x`.
                    if lenish.is_none() {
                        if let Some(n) = sig.get(i + 1) {
                            let skip = usize::from(n.text == "=");
                            if let Some(r) = sig.get(i + 1 + skip) {
                                if r.kind == TokenKind::Ident {
                                    lenish = lenish_ident(r.text);
                                }
                            }
                        }
                    }
                    if let Some(ident) = lenish {
                        push(
                            t.line,
                            t.col,
                            format!(
                                "unchecked `{}` on length-ish operand `{ident}` in a decode \
                                 function; use `checked_{}` and return a typed error",
                                t.text,
                                match t.text {
                                    "+" => "add",
                                    "-" => "sub",
                                    _ => "mul",
                                }
                            ),
                        );
                    }
                }
            }
            // Narrowing casts, decode fns only.
            "as" if t.kind == TokenKind::Ident && in_decode(i) => {
                if let Some(n) = sig.get(i + 1) {
                    if NARROW.contains(&n.text) {
                        push(
                            t.line,
                            t.col,
                            format!(
                                "narrowing `as {}` cast in a decode function silently wraps; \
                                 use `try_from` or a checked helper",
                                n.text
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn lenish_ident(ident: &str) -> Option<String> {
    let low = ident.to_ascii_lowercase();
    LEN_WORDS
        .iter()
        .any(|w| low.contains(w))
        .then(|| ident.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        scan(
            Path::new("crates/common/src/protocol.rs"),
            src,
            &Allowlist::default(),
            &mut v,
        );
        v
    }

    #[test]
    fn indexing_is_flagged_everywhere_in_scope() {
        let v = run("fn encode(buf: &[u8]) -> u8 { buf[0] }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("slice indexing"));
    }

    #[test]
    fn attributes_and_array_types_are_not_indexing() {
        let v = run("#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() -> [u8; 2] { [0, 1] }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn length_arithmetic_flagged_in_decode_fns_only() {
        let hit = run("fn decode_frame(len: usize) -> usize { len - 4 }");
        assert_eq!(hit.len(), 1, "{hit:?}");
        assert!(hit[0].message.contains("checked_sub"));
        let miss = run("fn encode_frame(len: usize) -> usize { len - 4 }");
        assert!(miss.is_empty(), "{miss:?}");
    }

    #[test]
    fn len_call_on_left_operand_is_recognised() {
        let v = run("fn next_frame(&self) -> usize { self.buf.len() - FRAME_OVERHEAD }");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn narrowing_casts_flagged_in_decode_fns_only() {
        let hit = run("fn decode_len(n: usize) -> u32 { n as u32 }");
        assert_eq!(hit.len(), 1, "{hit:?}");
        assert!(hit[0].message.contains("narrowing"));
        let widen = run("fn decode_len(n: u32) -> usize { n as usize }");
        assert!(widen.is_empty(), "{widen:?}");
        let encode = run("fn encode_len(n: usize) -> u32 { n as u32 }");
        assert!(encode.is_empty(), "{encode:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let v = run("#[cfg(test)]\nmod tests { fn f(b: &[u8]) -> u8 { b[0] } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allowlist_suppresses_sites() {
        let allow = Allowlist::parse("crates/common/src/protocol.rs: TABLE[(crc ^ b) as usize]\n");
        let mut v = Vec::new();
        scan(
            Path::new("crates/common/src/protocol.rs"),
            "fn crc(crc: u32, b: u32) -> u32 { TABLE[(crc ^ b) as usize] }",
            &allow,
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_is_the_codec_files() {
        assert!(applies(Path::new("crates/common/src/protocol.rs"), false));
        assert!(applies(Path::new("crates/wal/src/bookie.rs"), false));
        assert!(applies(Path::new("crates/lts/src/format.rs"), false));
        assert!(!applies(Path::new("crates/client/src/writer.rs"), false));
        assert!(applies(Path::new("anything.rs"), true));
    }

    #[test]
    fn compound_assignment_on_offsets_is_flagged() {
        let v = run("fn decode_step(&mut self) { self.cursor += frame_len; }");
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
