//! A hand-rolled Rust lexer: just enough fidelity for line-accurate static
//! analysis, with none of the grammar.
//!
//! The passes only need to know, for every byte of a source file, whether it
//! is *code* or *text* (comment/string contents), plus the identifier stream
//! with line numbers. The hard part of that split is exactly the places a
//! regex-based scanner gets wrong, and each is handled explicitly here:
//!
//! - raw strings with arbitrary hash fences (`r##"…"##`, `br#"…"#`), whose
//!   bodies may contain `"` and `//` freely;
//! - nested block comments (`/* /* */ */` is one comment in Rust);
//! - lifetimes vs. char literals (`'a` vs `'a'` vs `b'\''`);
//! - doc comments (`///`, `//!`, `/** */`) distinguished from plain ones so
//!   documentation can quote the annotation grammar without suppressing
//!   anything.
//!
//! Tokens carry their starting and ending line so multi-line tokens (block
//! comments, raw strings) interact correctly with the adjacency windows used
//! by the passes.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `fn`, `unwrap`, …).
    Ident,
    /// A lifetime such as `'a` or `'static` (no closing quote).
    Lifetime,
    /// A char or byte-char literal (`'x'`, `b'\''`).
    Char,
    /// A string literal of any flavor (plain, byte, raw, raw-byte).
    Str,
    /// A numeric literal.
    Num,
    /// A comment. `doc` distinguishes `///` / `//!` / `/** */` forms.
    Comment { block: bool, doc: bool },
    /// Any single punctuation byte (`{`, `.`, `#`, …).
    Punct,
}

/// One lexeme with its source text and (1-based) line span.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// The raw source text of the token (including delimiters).
    pub text: String,
    /// Line the token starts on, 1-based.
    pub line: u32,
    /// Line the token ends on (equals `line` for single-line tokens).
    pub end_line: u32,
}

impl Tok {
    /// True for `Punct` tokens equal to `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }

    /// True for `Ident` tokens equal to `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// True for any comment token.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::Comment { .. })
    }
}

/// A lexing failure: the construct and the line it started on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into a token stream.
///
/// The lexer is permissive where the real grammar is strict (it will happily
/// tokenize some non-Rust), but strict about the constructs that change the
/// code/text split: unterminated strings, chars, and block comments are hard
/// errors, because silently misclassifying the rest of the file would make
/// every downstream pass wrong.
pub fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut toks = Vec::new();

    while let Some(b) = cur.peek() {
        let start_pos = cur.pos;
        let start_line = cur.line;

        // Whitespace.
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }

        // Comments.
        if cur.starts_with("//") {
            // `///` and `//!` are doc comments; `////…` is plain again per
            // the reference, but the distinction is immaterial here.
            let doc = cur.starts_with("///") || cur.starts_with("//!");
            while let Some(nb) = cur.peek() {
                if nb == b'\n' {
                    break;
                }
                cur.bump();
            }
            toks.push(tok(
                TokKind::Comment { block: false, doc },
                src,
                start_pos,
                &cur,
                start_line,
            ));
            continue;
        }
        if cur.starts_with("/*") {
            let doc = cur.starts_with("/**") && !cur.starts_with("/***") || cur.starts_with("/*!");
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            loop {
                if cur.starts_with("/*") {
                    depth += 1;
                    cur.bump();
                    cur.bump();
                } else if cur.starts_with("*/") {
                    depth -= 1;
                    cur.bump();
                    cur.bump();
                    if depth == 0 {
                        break;
                    }
                } else if cur.bump().is_none() {
                    return Err(LexError {
                        line: start_line,
                        message: "unterminated block comment".into(),
                    });
                }
            }
            toks.push(tok(
                TokKind::Comment { block: true, doc },
                src,
                start_pos,
                &cur,
                start_line,
            ));
            continue;
        }

        // Raw strings (`r"…"`, `r#"…"#`, `br##"…"##`) and raw identifiers
        // (`r#match`). Both start with `r` (optionally after `b`/`c`), so
        // disambiguate by what follows the hashes.
        if b == b'r' || ((b == b'b' || b == b'c') && cur.peek_at(1) == Some(b'r')) {
            let r_off = if b == b'r' { 0 } else { 1 };
            let mut hashes = 0usize;
            while cur.peek_at(r_off + 1 + hashes) == Some(b'#') {
                hashes += 1;
            }
            let after = cur.peek_at(r_off + 1 + hashes);
            if after == Some(b'"') {
                // Raw string: consume prefix, hashes, and opening quote.
                for _ in 0..(r_off + 1 + hashes + 1) {
                    cur.bump();
                }
                let fence: String = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                loop {
                    if cur.starts_with(&fence) {
                        for _ in 0..fence.len() {
                            cur.bump();
                        }
                        break;
                    }
                    if cur.bump().is_none() {
                        return Err(LexError {
                            line: start_line,
                            message: "unterminated raw string".into(),
                        });
                    }
                }
                toks.push(tok(TokKind::Str, src, start_pos, &cur, start_line));
                continue;
            }
            if hashes > 0 && after.is_some_and(is_ident_start) && r_off == 0 {
                // Raw identifier `r#ident`.
                cur.bump(); // r
                cur.bump(); // #
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                toks.push(tok(TokKind::Ident, src, start_pos, &cur, start_line));
                continue;
            }
            // Plain identifier starting with r/b/c: fall through.
        }

        // Plain and byte strings.
        if b == b'"' || ((b == b'b' || b == b'c') && cur.peek_at(1) == Some(b'"')) {
            if b != b'"' {
                cur.bump(); // prefix
            }
            cur.bump(); // opening quote
            loop {
                match cur.bump() {
                    Some(b'\\') => {
                        cur.bump(); // whatever is escaped, including `"` and `\`
                    }
                    Some(b'"') => break,
                    Some(_) => {}
                    None => {
                        return Err(LexError {
                            line: start_line,
                            message: "unterminated string literal".into(),
                        });
                    }
                }
            }
            toks.push(tok(TokKind::Str, src, start_pos, &cur, start_line));
            continue;
        }

        // Byte-char literal `b'x'`.
        if b == b'b' && cur.peek_at(1) == Some(b'\'') {
            cur.bump();
            lex_char_body(&mut cur, start_line)?;
            toks.push(tok(TokKind::Char, src, start_pos, &cur, start_line));
            continue;
        }

        // Identifiers and keywords.
        if is_ident_start(b) {
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            toks.push(tok(TokKind::Ident, src, start_pos, &cur, start_line));
            continue;
        }

        // Lifetime vs. char literal. After a `'`:
        // - `'\…'` is always a char (escapes only occur in chars);
        // - `'X'` (ident-ish X followed by a closing quote) is a char;
        // - `'ident` with no closing quote is a lifetime (incl. `'_`).
        if b == b'\'' {
            let next = cur.peek_at(1);
            if next == Some(b'\\') {
                lex_char_body(&mut cur, start_line)?;
                toks.push(tok(TokKind::Char, src, start_pos, &cur, start_line));
                continue;
            }
            if next.is_some_and(is_ident_start) && cur.peek_at(2) != Some(b'\'') {
                cur.bump(); // '
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                toks.push(tok(TokKind::Lifetime, src, start_pos, &cur, start_line));
                continue;
            }
            lex_char_body(&mut cur, start_line)?;
            toks.push(tok(TokKind::Char, src, start_pos, &cur, start_line));
            continue;
        }

        // Numbers (a coarse scan: `0xff_u32`, `1_000`, `1e9`; `1.5` lexes as
        // Num Punct Num, which no pass cares about).
        if b.is_ascii_digit() {
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            toks.push(tok(TokKind::Num, src, start_pos, &cur, start_line));
            continue;
        }

        // Everything else: one punctuation byte.
        cur.bump();
        toks.push(tok(TokKind::Punct, src, start_pos, &cur, start_line));
    }

    Ok(toks)
}

/// Consume a char literal starting at the opening `'` (cursor on the quote).
fn lex_char_body(cur: &mut Cursor<'_>, start_line: u32) -> Result<(), LexError> {
    cur.bump(); // opening '
    loop {
        match cur.bump() {
            Some(b'\\') => {
                cur.bump();
            }
            Some(b'\'') => return Ok(()),
            Some(b'\n') | None => {
                return Err(LexError {
                    line: start_line,
                    message: "unterminated char literal".into(),
                });
            }
            Some(_) => {}
        }
    }
}

fn tok(kind: TokKind, src: &str, start_pos: usize, cur: &Cursor<'_>, start_line: u32) -> Tok {
    Tok {
        kind,
        text: src[start_pos..cur.pos].to_string(),
        line: start_line,
        end_line: cur.line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn raw_strings_with_hashes_swallow_quotes_and_comments() {
        let toks = kinds(r####"let s = r##"not a "comment": // nor /* this */"##;"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("nor /* this */")));
        assert!(!toks
            .iter()
            .any(|(k, _)| matches!(k, TokKind::Comment { .. })));
        // The trailing semicolon survives as code.
        assert_eq!(toks.last().unwrap().1, ";");
    }

    #[test]
    fn byte_raw_strings_lex_as_one_string() {
        let toks = kinds(r###"br#"bytes " here"# x"###);
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[1].1, "x");
    }

    #[test]
    fn nested_block_comments_are_one_token() {
        let toks = kinds("a /* outer /* inner */ still outer */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].1, "a");
        assert!(matches!(toks[1].0, TokKind::Comment { block: true, .. }));
        assert_eq!(toks[2].1, "b");
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(lex("code /* never closed").is_err());
        assert!(lex("s = \"never closed").is_err());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'x'; let z = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert!(lifetimes.iter().all(|(_, t)| t == "'a"));
        assert_eq!(chars.len(), 2, "{toks:?}");
        assert_eq!(chars[0].1, "'x'");
        assert_eq!(chars[1].1, "'\\''");
    }

    #[test]
    fn static_lifetime_and_underscore_lifetime() {
        let toks = kinds("&'static str; &'_ u8");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'static", "'_"]);
    }

    #[test]
    fn byte_char_with_escaped_quote() {
        let toks = kinds(r"let q = b'\'';");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Char && t == r"b'\''"));
    }

    #[test]
    fn raw_identifiers_are_identifiers() {
        let toks = kinds("r#match x");
        assert_eq!(toks[0], (TokKind::Ident, "r#match".to_string()));
    }

    #[test]
    fn doc_comments_are_flagged() {
        let toks = lex("/// outer\n//! inner\n// plain\n/** block doc */").unwrap();
        let docs: Vec<bool> = toks
            .iter()
            .map(|t| matches!(t.kind, TokKind::Comment { doc: true, .. }))
            .collect();
        assert_eq!(docs, vec![true, true, false, true]);
    }

    #[test]
    fn multi_line_tokens_carry_line_spans() {
        let toks = lex("a\n/* one\ntwo\nthree */\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].end_line, 4);
        assert_eq!(toks[2].line, 5);
    }

    #[test]
    fn strings_with_escapes_do_not_leak() {
        let toks = kinds(r#"let s = "quote \" slash \\ end"; next"#);
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
        assert_eq!(toks.last().unwrap().1, "next");
    }
}
