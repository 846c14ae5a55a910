//! The hand-written Rust lexer behind every analysis pass: one scan of the
//! source into spanned [`Token`]s, from which both the structural passes
//! (parser, call graph) and the masked view the `#[cfg(test)]` region scan
//! reads are derived.
//!
//! The lexer is deliberately *not* a full Rust tokenizer — it recognises
//! exactly the classes the passes need to be sound about: nested block
//! comments, doc comments, plain/byte/raw strings (any `#` depth), char
//! literals vs. lifetimes, identifiers, numbers, and single-character
//! punctuation. Everything it does not understand degrades to `Punct`,
//! never to a mis-classified literal.

/// What a token is. Comments and literals carry enough classification for
/// masking and doc handling; everything structural is `Ident`/`Punct`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `pub`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`, `'static`). The leading quote is part of the span.
    Lifetime,
    /// Character literal, including the quotes (`'x'`, `'\n'`).
    CharLit,
    /// String literal of any flavour: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, ….
    StrLit,
    /// Numeric literal (digits, `_`, and alphanumeric suffix characters).
    Num,
    /// `//`-style comment to end of line (doc comments included).
    LineComment,
    /// `/* … */` comment, nesting handled (doc comments included).
    BlockComment,
    /// A single punctuation character.
    Punct,
}

/// One spanned token. Spans are *char* indices into the source (the lexer
/// operates on `Vec<char>` so multi-byte characters count as one column,
/// matching how editors report positions).
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Start char index (inclusive).
    pub start: usize,
    /// End char index (exclusive).
    pub end: usize,
    /// 1-based line of `start`.
    pub line: usize,
    /// 1-based char column of `start`.
    pub col: usize,
}

/// A lexed source file: the decoded characters plus the token stream.
pub struct Lexed {
    /// The source, decoded to chars (token spans index into this).
    pub chars: Vec<char>,
    /// Tokens in source order, whitespace omitted.
    pub tokens: Vec<Token>,
}

impl Lexed {
    /// The text of `token` as a `String`.
    pub fn text(&self, token: &Token) -> String {
        self.chars
            .get(token.start..token.end)
            .map(|s| s.iter().collect())
            .unwrap_or_default()
    }

    /// Whether `token` spells exactly `word` (cheap keyword/ident check
    /// without allocating).
    pub fn is_word(&self, token: &Token, word: &str) -> bool {
        token.kind == TokenKind::Ident
            && token.end - token.start == word.chars().count()
            && self
                .chars
                .get(token.start..token.end)
                .is_some_and(|s| s.iter().copied().eq(word.chars()))
    }

    /// The source with comment bodies and string/char-literal contents
    /// blanked to spaces (newlines preserved, so line numbers survive), so
    /// a textual scan never matches inside a comment or literal.
    pub fn masked(&self) -> String {
        let mut out = self.chars.clone();
        for t in &self.tokens {
            if matches!(
                t.kind,
                TokenKind::LineComment
                    | TokenKind::BlockComment
                    | TokenKind::StrLit
                    | TokenKind::CharLit
            ) {
                for c in out.iter_mut().take(t.end).skip(t.start) {
                    if *c != '\n' {
                        *c = ' ';
                    }
                }
            }
        }
        out.into_iter().collect()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into a token stream. Never fails: malformed input (an
/// unterminated literal or comment) produces a token running to end of
/// file, mirroring how rustc recovers.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;

    // Advances (line, col) across chars[from..to].
    let step = |chars: &[char], from: usize, to: usize, line: &mut usize, col: &mut usize| {
        for c in chars.iter().take(to).skip(from) {
            if *c == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
        }
    };

    while let Some(&c) = chars.get(i) {
        let next = chars.get(i + 1).copied();
        let (start_line, start_col) = (line, col);
        let start = i;

        let kind = if c.is_whitespace() {
            let mut j = i + 1;
            while chars.get(j).is_some_and(|c| c.is_whitespace()) {
                j += 1;
            }
            step(&chars, i, j, &mut line, &mut col);
            i = j;
            continue;
        } else if c == '/' && next == Some('/') {
            let mut j = i + 2;
            while chars.get(j).is_some_and(|&c| c != '\n') {
                j += 1;
            }
            i = j;
            TokenKind::LineComment
        } else if c == '/' && next == Some('*') {
            // Block comments nest.
            let mut depth = 0usize;
            let mut j = i;
            while let Some(&cj) = chars.get(j) {
                if cj == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if cj == '*' && chars.get(j + 1) == Some(&'/') {
                    depth = depth.saturating_sub(1);
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            i = j;
            TokenKind::BlockComment
        } else if let Some(end) = raw_ident_end(&chars, i) {
            // `r#type` / `r#match`: a raw identifier, not a raw string.
            i = end;
            TokenKind::Ident
        } else if let Some(end) = raw_string_end(&chars, i) {
            i = end;
            TokenKind::StrLit
        } else if c == '"' || (c == 'b' && next == Some('"')) {
            i = quoted_end(&chars, if c == 'b' { i + 2 } else { i + 1 }, '"');
            TokenKind::StrLit
        } else if c == '\'' {
            // Char literal vs lifetime: 'x' / '\n' are literals; 'a with no
            // closing quote right after one element is a lifetime.
            let is_char = match next {
                Some('\\') => true,
                Some(_) => chars.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char {
                i = quoted_end(&chars, i + 1, '\'');
                TokenKind::CharLit
            } else {
                let mut j = i + 1;
                while chars.get(j).copied().is_some_and(is_ident_continue) {
                    j += 1;
                }
                i = j;
                TokenKind::Lifetime
            }
        } else if c.is_ascii_digit() {
            let mut j = i + 1;
            while chars.get(j).copied().is_some_and(is_ident_continue) {
                j += 1;
            }
            i = j;
            TokenKind::Num
        } else if is_ident_start(c) {
            let mut j = i + 1;
            while chars.get(j).copied().is_some_and(is_ident_continue) {
                j += 1;
            }
            i = j;
            TokenKind::Ident
        } else {
            i += 1;
            TokenKind::Punct
        };

        step(&chars, start, i, &mut line, &mut col);
        tokens.push(Token {
            kind,
            start,
            end: i,
            line: start_line,
            col: start_col,
        });
    }

    Lexed { chars, tokens }
}

/// If a raw identifier (`r#type`, `r#match`) starts at `i`, returns the
/// char index one past its end. Exactly one `#` followed by an identifier
/// start distinguishes it from a raw string (`r#"…"#`, where a quote
/// follows the hashes) and from multi-hash raw strings (`r##"…"##`).
fn raw_ident_end(chars: &[char], i: usize) -> Option<usize> {
    if chars.get(i) != Some(&'r') || chars.get(i + 1) != Some(&'#') {
        return None;
    }
    if !chars.get(i + 2).copied().is_some_and(is_ident_start) {
        return None;
    }
    let mut j = i + 3;
    while chars.get(j).copied().is_some_and(is_ident_continue) {
        j += 1;
    }
    Some(j)
}

/// If a raw (byte) string starts at `i` (`r"…"`, `r#"…"#`, `br"…"`, any
/// `#` depth), returns the char index one past its end. The closing quote
/// must be followed by *exactly* the opening number of hashes — a shorter
/// run at end of file does not close the literal (the old line scanner got
/// this wrong: `take(n).all(…)` is vacuously true on a short iterator).
fn raw_string_end(chars: &[char], i: usize) -> Option<usize> {
    let c = chars.get(i).copied()?;
    let next = chars.get(i + 1).copied();
    if !(c == 'r' || (c == 'b' && next == Some('r'))) {
        return None;
    }
    let start = if c == 'b' { i + 2 } else { i + 1 };
    let mut hashes = 0;
    while chars.get(start + hashes) == Some(&'#') {
        hashes += 1;
    }
    if chars.get(start + hashes) != Some(&'"') {
        return None;
    }
    let mut j = start + hashes + 1;
    while let Some(&cj) = chars.get(j) {
        let closing_hashes = chars.get(j + 1..j + 1 + hashes);
        if cj == '"' && closing_hashes.is_some_and(|run| run.iter().all(|&h| h == '#')) {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(chars.len()) // unterminated: run to EOF
}

/// Scans a quoted literal body starting at `from` (one past the opening
/// quote) until the unescaped `close` char; returns one past it, clamped
/// to the source length for unterminated literals.
fn quoted_end(chars: &[char], from: usize, close: char) -> usize {
    let mut j = from;
    while let Some(&cj) = chars.get(j) {
        if cj == '\\' {
            j += 2;
        } else if cj == close {
            return j + 1;
        } else {
            j += 1;
        }
    }
    chars.len()
}

/// Returns, for each line of the *masked* source, whether the line belongs
/// to a `cfg(test)` region: an item under an outer `#[cfg(test)]` attribute
/// (tracked to the end of its brace-balanced body), or anything at all once
/// an inner `#![cfg(test)]` declares the whole file test-only.
pub fn test_line_mask(masked: &str) -> Vec<bool> {
    let mut flags = Vec::new();
    let mut whole_file = false;
    // Depth bookkeeping for the item following a `#[cfg(test)]` attribute:
    // `None` outside such a region, `Some((depth, seen_brace))` inside.
    let mut gated: Option<(usize, bool)> = None;

    for line in masked.lines() {
        let trimmed = line.trim_start();
        if whole_file {
            flags.push(true);
            continue;
        }
        if trimmed.starts_with("#![") && trimmed.contains("cfg(test)") {
            whole_file = true;
            flags.push(true);
            continue;
        }
        if gated.is_none() && trimmed.starts_with("#[") && trimmed.contains("cfg(test)") {
            // Scan the attribute line itself too: the gated item may start
            // (and even end) on this very line.
            gated = Some((0, false));
        }
        match gated.as_mut() {
            None => flags.push(false),
            Some((depth, seen_brace)) => {
                flags.push(true);
                let mut terminated = false;
                for ch in line.chars() {
                    match ch {
                        '{' => {
                            *depth += 1;
                            *seen_brace = true;
                        }
                        '}' => {
                            *depth = depth.saturating_sub(1);
                            if *seen_brace && *depth == 0 {
                                terminated = true;
                            }
                        }
                        // A braceless item (`#[cfg(test)] use …;`) ends at
                        // the first top-level semicolon.
                        ';' if !*seen_brace && *depth == 0 => terminated = true,
                        _ => {}
                    }
                }
                if terminated {
                    gated = None;
                }
            }
        }
    }
    flags
}

/// Convenience: lex + mask in one call (the old `scan::mask` entry point).
pub fn mask(source: &str) -> String {
    lex(source).masked()
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- goldens ported from the retired xtask line scanner ----

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"panic!\"; // .unwrap()\nlet y = 1; /* todo! */ let z = 2;";
        let m = mask(src);
        assert!(!m.contains("panic!"));
        assert!(!m.contains(".unwrap()"));
        assert!(!m.contains("todo!"));
        assert!(m.contains("let x ="));
        assert!(m.contains("let z = 2;"));
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn masks_raw_strings_with_hashes() {
        let src = "let s = r#\"has \".unwrap()\" inside\"#; call();";
        let m = mask(src);
        assert!(!m.contains(".unwrap()"));
        assert!(m.contains("call();"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; g(x) }";
        let m = mask(src);
        assert!(m.contains("<'a>"), "{m}");
        assert!(m.contains("&'a str"), "{m}");
        assert!(!m.contains("'y'"), "{m}");
        assert!(m.contains("g(x)"), "{m}");
    }

    #[test]
    fn nested_block_comment() {
        let src = "a /* outer /* inner */ still */ b";
        let m = mask(src);
        assert!(m.contains('a') && m.contains('b'));
        assert!(!m.contains("inner") && !m.contains("still"));
    }

    #[test]
    fn cfg_test_mod_is_gated() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\nfn after() {}\n";
        let flags = test_line_mask(&mask(src));
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn inner_cfg_test_gates_whole_file() {
        let src = "#![cfg(test)]\nfn anything() { x.unwrap() }\n";
        let flags = test_line_mask(&mask(src));
        assert!(flags.iter().all(|&f| f));
    }

    #[test]
    fn braceless_gated_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn real() {}\n";
        let flags = test_line_mask(&mask(src));
        assert_eq!(flags, vec![true, true, false]);
    }

    // ---- new lexer-level goldens ----

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.iter().map(|t| t.kind).collect()
    }

    #[test]
    fn token_kinds_on_a_dense_line() {
        use TokenKind::*;
        assert_eq!(
            kinds("fn f(x: &'a u8) -> u8 { x[0] } // tail"),
            vec![
                Ident,
                Ident,
                Punct,
                Ident,
                Punct,
                Punct,
                Lifetime,
                Ident,
                Punct,
                Punct,
                Punct,
                Ident,
                Punct,
                Ident,
                Punct,
                Num,
                Punct,
                Punct,
                LineComment,
            ]
        );
    }

    #[test]
    fn raw_string_unterminated_short_hash_run_does_not_close_early() {
        // The retired scanner closed `r##"…"#` at the single-hash quote when
        // it sat at end of input; the closing run must be exactly 2 hashes.
        let src = "let s = r##\"body .unwrap() \"#";
        let l = lex(src);
        let last = l.tokens.last().copied();
        assert!(matches!(
            last,
            Some(Token {
                kind: TokenKind::StrLit,
                ..
            })
        ));
        assert_eq!(last.map(|t| t.end), Some(l.chars.len()));
        assert!(!l.masked().contains(".unwrap()"));
    }

    #[test]
    fn raw_byte_strings_and_suffixed_r_identifiers() {
        let m = mask("let a = br#\"x \"panic!\" y\"#; let barr = 1; barr\"not raw\";");
        assert!(!m.contains("panic!"));
        assert!(m.contains("let barr = 1;"), "{m}");
        // `barr"…"` is an ident then a plain string, not a raw string.
        assert!(!m.contains("not raw"));
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        // `r#type` is one identifier token, not an `r` + `#` + keyword and
        // certainly not the start of a raw string swallowing the rest of
        // the line.
        let l = lex("let r#type = r#match; call();");
        let idents: Vec<String> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| l.text(t))
            .collect();
        assert_eq!(idents, vec!["let", "r#type", "r#match", "call"]);
        // Nothing got masked: no literal was recognised.
        assert!(l.masked().contains("call();"));
    }

    #[test]
    fn raw_identifier_does_not_shadow_raw_strings() {
        // A single-hash raw string still lexes as a string, and the
        // two-hash form keeps its exact-terminator rule.
        let m =
            mask("let a = r#\"has .unwrap() inside\"#; let r#fn = 1; r##\"x \"# y\"##; done();");
        assert!(!m.contains(".unwrap()"));
        assert!(!m.contains("\"# y"));
        assert!(m.contains("done();"));
        let l = lex("let r#fn = 1;");
        assert!(l
            .tokens
            .iter()
            .any(|t| l.text(t) == "r#fn" && t.kind == TokenKind::Ident));
    }

    #[test]
    fn doc_comments_are_comments() {
        let m = mask("/// says panic!\n//! also panic!\n/** block panic! */\nfn ok() {}\n");
        assert!(!m.contains("panic!"));
        assert!(m.contains("fn ok() {}"));
    }

    #[test]
    fn spans_carry_line_and_col() {
        let l = lex("ab cd\n  ef\n");
        let spans: Vec<(usize, usize)> = l.tokens.iter().map(|t| (t.line, t.col)).collect();
        assert_eq!(spans, vec![(1, 1), (1, 4), (2, 3)]);
    }

    #[test]
    fn tokens_tile_the_source_without_overlap() {
        let src = "fn f<'a>(v: &'a [u8]) -> u8 { v[0] + 'x' as u8 } /* t */ \"s\"";
        let l = lex(src);
        let mut prev_end = 0;
        for t in &l.tokens {
            assert!(t.start >= prev_end, "overlap at {t:?}");
            assert!(t.end > t.start);
            prev_end = t.end;
        }
        assert!(prev_end <= l.chars.len());
    }

    #[test]
    fn masked_preserves_char_count_and_lines() {
        let src = "let s = \"ab\u{e9}\"; // caf\u{e9}\nnext();";
        let m = mask(src);
        assert_eq!(m.chars().count(), src.chars().count());
        assert_eq!(m.lines().count(), src.lines().count());
    }
}
