//! A hand-rolled, dependency-free Rust lexer producing positioned tokens.
//!
//! The lexer is *lossless*: every byte of the input belongs to exactly one
//! token, tokens are emitted in order, and concatenating their texts
//! reproduces the input byte-for-byte (the "tiling" invariant, asserted by a
//! self-test over every `.rs` file in the workspace). Comments and
//! whitespace are real tokens so downstream passes can skip them without
//! losing positions.
//!
//! It is a *token* lexer, not a parser: it understands exactly enough Rust
//! lexical structure for the concurrency analyses built on top of it —
//! string/char/lifetime disambiguation, raw strings, nested block comments —
//! and treats everything else as single-character punctuation. Malformed
//! input (unterminated literals) never panics; the remainder of the file
//! becomes one token so the tiling invariant holds on any byte sequence.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Horizontal/vertical whitespace run.
    Whitespace,
    /// `// …` to end of line (newline not included).
    LineComment,
    /// `/* … */`, nesting honoured.
    BlockComment,
    /// Identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// `'label` / `'a` lifetime (or loop label).
    Lifetime,
    /// Character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// String literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`, incl. suffixes.
    Str,
    /// Numeric literal (integer or float, any radix, with suffix).
    Number,
    /// Any other single character.
    Punct,
}

/// One lexeme with its 1-based line/column position.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in characters) of the first byte.
    pub col: u32,
}

impl Token<'_> {
    /// Whether this token carries no syntactic weight.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// Lexes `src` into a complete, tiling token stream.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn run(mut self) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let kind = self.next_kind();
            let end = self.pos;
            debug_assert!(end > start, "lexer must always make progress");
            let text = &self.src[start..end];
            self.advance_position(text);
            out.push(Token {
                kind,
                text,
                line,
                col,
            });
        }
        out
    }

    /// Updates line/col counters for a consumed token text.
    fn advance_position(&mut self, text: &str) {
        for c in text.chars() {
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Consumes one token's worth of bytes and returns its kind. `self.pos`
    /// is advanced past the token; position bookkeeping happens in `run`.
    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b if (b as char).is_whitespace() => {
                while self
                    .peek(0)
                    .is_some_and(|b| b.is_ascii() && (b as char).is_whitespace())
                {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while self.peek(0).is_some_and(|b| b != b'\n') {
                    self.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            self.pos += 2;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            self.pos += 2;
                        }
                        (Some(_), _) => self.pos += 1,
                        (None, _) => break, // unterminated: rest of file
                    }
                }
                TokenKind::BlockComment
            }
            b'r' | b'b' if self.raw_or_byte_literal() => self.string_or_ident_after_prefix(),
            b'"' => {
                self.pos += 1;
                self.consume_quoted(b'"');
                self.consume_suffix();
                TokenKind::Str
            }
            b'\'' => self.lifetime_or_char(),
            b'0'..=b'9' => self.number(),
            b if b == b'_' || (b as char).is_alphabetic() || b >= 0x80 => {
                self.consume_ident();
                TokenKind::Ident
            }
            _ => {
                // Any other byte is one punctuation token. Multi-byte UTF-8
                // outside identifiers cannot occur in valid Rust, but consume
                // the full character anyway to keep spans on char boundaries.
                let ch_len = self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(1, |c| c.len_utf8());
                self.pos += ch_len;
                TokenKind::Punct
            }
        }
    }

    /// Does the current `r`/`b` start a raw/byte literal (vs. an ident)?
    fn raw_or_byte_literal(&self) -> bool {
        let b0 = self.bytes[self.pos];
        match b0 {
            b'r' => {
                // r"…" | r#"…"# (r#ident is a raw identifier, not a string).
                let mut i = 1;
                while self.peek(i) == Some(b'#') {
                    i += 1;
                }
                self.peek(i) == Some(b'"')
            }
            b'b' => match self.peek(1) {
                Some(b'"') | Some(b'\'') => true,
                Some(b'r') => {
                    let mut i = 2;
                    while self.peek(i) == Some(b'#') {
                        i += 1;
                    }
                    self.peek(i) == Some(b'"')
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Consumes a literal that starts with an `r`/`b`/`br` prefix; the caller
    /// has already verified via [`Self::raw_or_byte_literal`] that a literal
    /// follows.
    fn string_or_ident_after_prefix(&mut self) -> TokenKind {
        if self.bytes[self.pos] == b'b' && self.peek(1) == Some(b'\'') {
            // Byte char literal b'x'.
            self.pos += 2;
            self.consume_quoted(b'\'');
            return TokenKind::Char;
        }
        // r"…", r#…#, b"…", br#…# — skip prefix letters.
        let mut raw = false;
        while matches!(self.peek(0), Some(b'r') | Some(b'b')) {
            raw |= self.peek(0) == Some(b'r');
            self.pos += 1;
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek(0) == Some(b'"') {
            self.pos += 1;
            if raw {
                // Raw strings have no escapes: scan to `"` + the matching
                // number of hashes (zero hashes → the first bare quote).
                self.consume_raw_until(hashes);
            } else {
                self.consume_quoted(b'"');
            }
            self.consume_suffix();
        }
        TokenKind::Str
    }

    /// Consumes up to and including the closing delimiter, honouring `\`
    /// escapes. Stops at end of input if unterminated.
    fn consume_quoted(&mut self, delim: u8) {
        while let Some(b) = self.peek(0) {
            self.pos += 1;
            if b == b'\\' {
                if self.peek(0).is_some() {
                    // Skip the escaped char (full UTF-8 char for span safety).
                    let ch_len = self.src[self.pos..]
                        .chars()
                        .next()
                        .map_or(1, |c| c.len_utf8());
                    self.pos += ch_len;
                }
            } else if b == delim {
                return;
            }
        }
    }

    /// Consumes a raw string body up to `"` followed by `hashes` `#`s.
    fn consume_raw_until(&mut self, hashes: usize) {
        while let Some(b) = self.peek(0) {
            self.pos += 1;
            if b == b'"' {
                let mut n = 0;
                while n < hashes && self.peek(n) == Some(b'#') {
                    n += 1;
                }
                if n == hashes {
                    self.pos += hashes;
                    return;
                }
            }
        }
    }

    /// Consumes a literal suffix (`usize`, `f64`, …) if present.
    fn consume_suffix(&mut self) {
        if self
            .peek(0)
            .is_some_and(|b| b == b'_' || (b as char).is_alphabetic())
        {
            self.consume_ident();
        }
    }

    fn consume_ident(&mut self) {
        // Raw identifier prefix r#ident.
        if self.bytes[self.pos] == b'r' && self.peek(1) == Some(b'#') {
            self.pos += 2;
        }
        while let Some(b) = self.peek(0) {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.pos += 1;
            } else if b >= 0x80 {
                let ch = self.src[self.pos..].chars().next();
                match ch {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                }
            } else {
                break;
            }
        }
    }

    /// `'a` lifetime vs `'x'` char literal. A lifetime is `'` + ident not
    /// followed by a closing `'`; everything else after `'` is a char.
    fn lifetime_or_char(&mut self) -> TokenKind {
        let next = self.peek(1);
        let is_ident_start =
            next.is_some_and(|b| b == b'_' || (b as char).is_alphabetic() || b >= 0x80);
        if is_ident_start && next != Some(b'\'') {
            // Find the end of the ident run; if it is immediately closed by
            // `'`, this was a char literal like 'a'.
            let mut i = 1;
            while self
                .peek(i)
                .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
            {
                i += 1;
            }
            if self.peek(i) != Some(b'\'') {
                self.pos += 1;
                self.consume_ident();
                return TokenKind::Lifetime;
            }
        }
        self.pos += 1;
        self.consume_quoted(b'\'');
        TokenKind::Char
    }

    fn number(&mut self) -> TokenKind {
        // Radix prefix.
        if self.bytes[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x') | Some(b'o') | Some(b'b'))
        {
            self.pos += 2;
        }
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        // Decimal point: only when followed by a digit (so `1.max(2)` and
        // `0..n` lex the dot separately).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.pos += 1;
            }
        }
        // Exponent sign (`1e-3`): the alnum run above swallowed the `e`; pick
        // up a sign + digits if they follow directly.
        if matches!(self.peek(0), Some(b'+') | Some(b'-'))
            && self.src[..self.pos]
                .bytes()
                .last()
                .is_some_and(|b| b == b'e' || b == b'E')
            && self.peek(1).is_some_and(|b| b.is_ascii_digit())
        {
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.pos += 1;
            }
        }
        TokenKind::Number
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text))
            .collect()
    }

    /// The tiling invariant: every token is non-empty and the texts
    /// concatenate to the input.
    fn assert_tiles(src: &str) {
        let toks = lex(src);
        assert!(toks.iter().all(|t| !t.text.is_empty()), "{src:?}");
        let joined: String = toks.iter().map(|t| t.text).collect();
        assert_eq!(joined, src);
    }

    #[test]
    fn basic_tokens() {
        let got = kinds("let x = self.state.lock();");
        assert_eq!(
            got,
            vec![
                (TokenKind::Ident, "let"),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, "="),
                (TokenKind::Ident, "self"),
                (TokenKind::Punct, "."),
                (TokenKind::Ident, "state"),
                (TokenKind::Punct, "."),
                (TokenKind::Ident, "lock"),
                (TokenKind::Punct, "("),
                (TokenKind::Punct, ")"),
                (TokenKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn strings_chars_lifetimes() {
        let got = kinds(r#"f("a {} b", 'x', '\n', 'a: &'static str, b'\'')"#);
        assert!(got.contains(&(TokenKind::Str, "\"a {} b\"")));
        assert!(got.contains(&(TokenKind::Char, "'x'")));
        assert!(got.contains(&(TokenKind::Char, r"'\n'")));
        assert!(got.contains(&(TokenKind::Lifetime, "'a")));
        assert!(got.contains(&(TokenKind::Lifetime, "'static")));
        assert!(got.contains(&(TokenKind::Char, r"b'\''")));
    }

    #[test]
    fn raw_strings() {
        assert_eq!(
            kinds(r###"r#"quote " inside"#"###),
            vec![(TokenKind::Str, r###"r#"quote " inside"#"###)]
        );
        assert_eq!(
            kinds(r#"r"plain raw""#),
            vec![(TokenKind::Str, r#"r"plain raw""#)]
        );
        // Raw string containing a backslash before the quote.
        assert_eq!(kinds(r#"r"back\" "#), vec![(TokenKind::Str, r#"r"back\""#)]);
        // r#ident is a raw identifier, not a string.
        assert_eq!(kinds("r#match"), vec![(TokenKind::Ident, "r#match")]);
        // Byte strings.
        assert_eq!(kinds(r#"b"bytes""#), vec![(TokenKind::Str, r#"b"bytes""#)]);
        assert_eq!(
            kinds(r##"br#"raw bytes"#"##),
            vec![(TokenKind::Str, r##"br#"raw bytes"#"##)]
        );
    }

    #[test]
    fn comments_nest() {
        let src = "a /* outer /* inner */ still */ b // tail\nc";
        let got = kinds(src);
        assert_eq!(
            got,
            vec![
                (TokenKind::Ident, "a"),
                (TokenKind::Ident, "b"),
                (TokenKind::Ident, "c"),
            ]
        );
        assert_tiles(src);
    }

    #[test]
    fn numbers() {
        let got = kinds("1 1.5 0x1f 1_000u64 1e-3 2.0f64 0..n 1.max(2)");
        assert!(got.contains(&(TokenKind::Number, "1.5")));
        assert!(got.contains(&(TokenKind::Number, "0x1f")));
        assert!(got.contains(&(TokenKind::Number, "1_000u64")));
        assert!(got.contains(&(TokenKind::Number, "1e-3")));
        assert!(got.contains(&(TokenKind::Number, "2.0f64")));
        // `0..n` keeps the dots as punctuation.
        assert!(got.contains(&(TokenKind::Number, "0")));
        // `1.max(2)` lexes the dot separately.
        assert!(got.contains(&(TokenKind::Ident, "max")));
    }

    #[test]
    fn line_and_col_positions() {
        let toks = lex("ab\n  cd");
        let cd = toks.iter().find(|t| t.text == "cd").unwrap();
        assert_eq!((cd.line, cd.col), (2, 3));
        let ab = toks.iter().find(|t| t.text == "ab").unwrap();
        assert_eq!((ab.line, ab.col), (1, 1));
    }

    /// Every `.rs` file in the workspace must lex into a lossless tiling —
    /// the property the whole analyzer rests on. `vendor/` is included on
    /// purpose: it is third-party code we did not shape to the lexer.
    #[test]
    fn tokens_tile_every_workspace_file() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .unwrap()
            .to_path_buf();
        let mut stack = vec![root];
        let mut checked = 0usize;
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let entry = entry.unwrap();
                let path = entry.path();
                let name = entry.file_name();
                if path.is_dir() {
                    if !matches!(name.to_string_lossy().as_ref(), ".git" | "target") {
                        stack.push(path);
                    }
                } else if name.to_string_lossy().ends_with(".rs") {
                    let src = std::fs::read_to_string(&path).unwrap();
                    let joined: String = lex(&src).iter().map(|t| t.text).collect();
                    assert!(joined == src, "round-trip mismatch in {}", path.display());
                    checked += 1;
                }
            }
        }
        assert!(
            checked > 100,
            "expected to lex the whole tree, got {checked} files"
        );
    }

    /// Property test over adversarial random token soups: whatever bytes a
    /// seeded generator produces, the lexer must tile them without panicking.
    /// (Hand-rolled LCG; xtask stays dependency-free.)
    #[test]
    fn tokens_tile_random_inputs() {
        let mut state = 0x243f_6a88_85a3_08d3u64; // fixed seed: deterministic
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let fragments = [
            "fn ",
            "let g = ",
            "\"str \\\" esc\"",
            "r#\"raw\"#",
            "r\"raw2\"",
            "'a",
            "'x'",
            "b'\\''",
            "/* c /* n */ */",
            "// line\n",
            "{",
            "}",
            "(",
            ")",
            "1.5e-3",
            "0x_ff",
            "::",
            ".lock()",
            "drop(g)",
            "\\",
            "\"",
            "'",
            "#",
            "r#",
            "br#\"",
            "\u{00e9}",
            "\n",
            " ",
            "\t",
            "ident_0",
            "0..n",
            "1.max(2)",
            "b\"bytes\"",
            "/*",
            "r\"",
            "'_",
        ];
        for _ in 0..500 {
            let n = 1 + (next() as usize % 40);
            let src: String = (0..n)
                .map(|_| fragments[next() as usize % fragments.len()])
                .collect();
            assert_tiles(&src);
        }
    }

    #[test]
    fn tiles_on_edge_cases() {
        for src in [
            "",
            "\n",
            "unterminated: \"abc",
            "unterminated: /* abc",
            "r#\"unterminated raw",
            "char 'u",
            "let s = \"a\\\"b\"; // esc",
            "émoji_idänt π = 3.14;",
            "#[cfg(test)]\nmod tests { fn f() {} }",
            "format!(\"{x:?} {{literal}}\")",
        ] {
            assert_tiles(src);
        }
    }
}
