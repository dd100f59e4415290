//! A minimal hand-rolled Rust lexer — just enough structure to tell
//! *code* apart from *non-code*.
//!
//! It records four facts about a source file:
//!
//! 1. the stream of identifier / `::` tokens that the compiler would see
//!    as code (so `bytes as f64` in a string literal or a comment can
//!    never trip U01);
//! 2. the *structural* punctuation — braces, brackets, parens, `.`,
//!    `;`, `#`, `!` and friends — that U01 splits statements on and the
//!    [`crate::structure`] scan uses to find test code;
//! 3. the comments, with the line each starts on;
//! 4. which lines carry any code at all, and which any comment.
//!
//! Everything else (numbers, the remaining punctuation) is consumed and
//! discarded. The tricky parts are the ones that hide rule keywords
//! from naive `grep`: string literals with escapes, raw strings with
//! arbitrary `#` fences (`r#"…"#`), byte/C-string prefixes, nested block
//! comments, and `'a` lifetimes vs `'a'` char literals. Line endings
//! are normalised: `\r\n` sources lex to the same tokens, lines and
//! comment *text* as their `\n` twins, and a file whose last line lacks
//! a trailing newline anchors that line exactly like any other.

use std::collections::BTreeSet;

/// One code token the rule engine matches against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based byte column of the token's first character.
    pub col: u32,
}

/// The structural punctuation bytes [`lex`] emits as [`TokKind::Punct`].
/// Everything else non-alphanumeric is consumed and discarded.
pub const STRUCT_PUNCT: &[u8] = b"{}()[]#.;=,!&<>";

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`bytes`, `as`, `f64`, …).
    Ident(String),
    /// The `::` path separator.
    PathSep,
    /// One structural punctuation byte from [`STRUCT_PUNCT`].
    Punct(u8),
}

impl TokKind {
    /// Is this token the given punctuation byte?
    #[inline]
    pub fn is_punct(&self, b: u8) -> bool {
        matches!(self, TokKind::Punct(p) if *p == b)
    }
    /// Is this token the given identifier?
    #[inline]
    pub fn is_ident(&self, id: &str) -> bool {
        matches!(self, TokKind::Ident(s) if s == id)
    }
}

/// One comment (line or block), with the line it *starts* on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// Comment text without the `//` / `/*` delimiters.
    pub text: String,
    /// 1-based start line.
    pub line: u32,
}

/// Lexer output: tokens, comments, and per-line occupancy facts.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Lines containing at least one non-comment, non-whitespace byte
    /// (string literals and punctuation count as code here).
    pub code_lines: BTreeSet<u32>,
    /// Every line spanned by a comment (all lines of a block comment).
    pub comment_lines: BTreeSet<u32>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does a raw/byte/C string literal start at `i`? Returns the index of
/// its opening quote's *fence*: `(hashes, quote_index, is_raw)`.
///
/// Handles `r"`, `r#"`, `b"`, `br#"`, `c"`, `cr##"`, `b'` (byte char).
fn string_prefix(src: &[u8], i: usize) -> Option<(usize, usize, bool)> {
    let rest = &src[i..];
    let prefix_len = match rest {
        [b'b', b'r', ..] | [b'c', b'r', ..] => 2,
        [b'r', ..] | [b'b', ..] | [b'c', ..] => 1,
        _ => return None,
    };
    let raw = rest[prefix_len - 1] == b'r';
    let mut j = prefix_len;
    if raw {
        let mut hashes = 0;
        while j < rest.len() && rest[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < rest.len() && rest[j] == b'"' {
            return Some((hashes, i + j, true));
        }
        return None;
    }
    if j < rest.len() && (rest[j] == b'"' || (rest[j] == b'\'' && rest[0] == b'b')) {
        return Some((0, i + j, false));
    }
    None
}

/// Lex `src` into tokens + comments + line facts. Never fails: malformed
/// input (unterminated literal, stray byte) degrades to "skip to EOF",
/// which is safe for a linter — rustc will reject the file anyway.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if b[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        // ---- whitespace -------------------------------------------------
        if c.is_ascii_whitespace() {
            bump!();
            continue;
        }
        // ---- comments ---------------------------------------------------
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start_line = line;
            let start = i + 2;
            while i < b.len() && b[i] != b'\n' {
                bump!();
            }
            // CRLF sources leave a `\r` before the `\n`; strip it so the
            // comment *text* is byte-identical to the `\n`-only twin.
            let text = src[start..i].strip_suffix('\r').unwrap_or(&src[start..i]);
            out.comments.push(Comment {
                text: text.to_string(),
                line: start_line,
            });
            out.comment_lines.insert(start_line);
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start_line = line;
            let start = i + 2;
            bump!();
            bump!();
            let mut depth = 1usize;
            let mut end = b.len();
            while i < b.len() {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                    bump!();
                } else {
                    bump!();
                }
            }
            let end = end.min(b.len());
            // Normalise interior CRLF so multi-line comment text is
            // line-ending agnostic.
            let mut text = src[start..end].to_string();
            if text.contains('\r') {
                text = text.replace("\r\n", "\n");
            }
            out.comments.push(Comment {
                text,
                line: start_line,
            });
            for l in start_line..=line {
                out.comment_lines.insert(l);
            }
            continue;
        }
        // From here on, everything is code as far as line occupancy goes.
        out.code_lines.insert(line);
        // ---- raw / byte / C strings (prefix before ident lexing!) -------
        if let Some((hashes, quote, raw)) = string_prefix(b, i) {
            while i <= quote {
                bump!();
            }
            if raw {
                // scan for `"` followed by `hashes` `#`s
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                bump!();
                            }
                            break 'raw;
                        }
                    }
                    bump!();
                }
            } else {
                let close = b[quote]; // `"` or `'` (byte char)
                while i < b.len() {
                    if b[i] == b'\\' {
                        bump!();
                        if i < b.len() {
                            bump!();
                        }
                        continue;
                    }
                    if b[i] == close {
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            continue;
        }
        // ---- plain strings ----------------------------------------------
        if c == b'"' {
            bump!();
            while i < b.len() {
                if b[i] == b'\\' {
                    bump!();
                    if i < b.len() {
                        bump!();
                    }
                    continue;
                }
                if b[i] == b'"' {
                    bump!();
                    break;
                }
                bump!();
            }
            continue;
        }
        // ---- char literal vs lifetime -----------------------------------
        if c == b'\'' {
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                // escaped char literal: consume to the closing quote
                bump!();
                bump!();
                while i < b.len() {
                    if b[i] == b'\\' {
                        bump!();
                        if i < b.len() {
                            bump!();
                        }
                        continue;
                    }
                    if b[i] == b'\'' {
                        bump!();
                        break;
                    }
                    bump!();
                }
                continue;
            }
            // `'x'` (possibly multibyte x) is a char literal; `'a` with no
            // closing quote within one character is a lifetime/label.
            let mut j = i + 1;
            let mut seen = 0;
            while j < b.len() && seen < 4 {
                if b[j] == b'\'' && j > i + 1 {
                    break;
                }
                // count a char per non-continuation byte
                if b[j] & 0xC0 != 0x80 {
                    seen += 1;
                }
                if seen > 1 {
                    j = usize::MAX;
                    break;
                }
                j += 1;
            }
            if j != usize::MAX && j < b.len() && b[j] == b'\'' {
                while i <= j {
                    bump!();
                }
            } else {
                bump!(); // lifetime: skip the quote, lex `a` as an ident
            }
            continue;
        }
        // ---- identifiers / keywords -------------------------------------
        if is_ident_start(c) {
            let (l, cl) = (line, col);
            let start = i;
            while i < b.len() && is_ident_cont(b[i]) {
                bump!();
            }
            out.tokens.push(Token {
                kind: TokKind::Ident(src[start..i].to_string()),
                line: l,
                col: cl,
            });
            continue;
        }
        // ---- numbers (consume suffixes so `0xFA17` yields no ident) -----
        if c.is_ascii_digit() {
            while i < b.len() && is_ident_cont(b[i]) {
                bump!();
            }
            continue;
        }
        // ---- `::` --------------------------------------------------------
        if c == b':' && i + 1 < b.len() && b[i + 1] == b':' {
            out.tokens.push(Token {
                kind: TokKind::PathSep,
                line,
                col,
            });
            bump!();
            bump!();
            continue;
        }
        // ---- structural punctuation -------------------------------------
        if STRUCT_PUNCT.contains(&c) {
            out.tokens.push(Token {
                kind: TokKind::Punct(c),
                line,
                col,
            });
            bump!();
            continue;
        }
        // ---- anything else: ignorable punctuation -----------------------
        bump!();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            let a = "HashMap in a string";
            // HashMap in a line comment
            /* HashMap in a /* nested */ block comment */
            let b = r#"HashMap in a raw string "quoted" inside"#;
            let c = b"HashMap bytes";
            let d = "escaped quote \" HashMap still inside";
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "HashMap"), "leaked: {ids:?}");
        assert!(ids.iter().any(|s| s == "let"));
    }

    #[test]
    fn code_after_tricky_literals_is_seen() {
        let src = r##"let s = r#"x"#; thread_rng();"##;
        assert!(idents(src).iter().any(|s| s == "thread_rng"));
        let src = "let c = '\\''; thread_rng();";
        assert!(idents(src).iter().any(|s| s == "thread_rng"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        // the lifetime name is lexed as an ident and the rest survives
        assert!(ids.iter().any(|s| s == "str"));
        assert!(ids.iter().any(|s| s == "a"));
        // but a real char literal swallows its payload
        assert!(!idents("let c = 'q';").iter().any(|s| s == "q"));
        assert!(!idents("let c = b'q';").iter().any(|s| s == "q"));
    }

    #[test]
    fn path_sep_is_tokenized() {
        let toks = lex("std::thread::spawn").tokens;
        let kinds: Vec<_> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(kinds.len(), 5);
        assert_eq!(*kinds[1], TokKind::PathSep);
        assert_eq!(*kinds[3], TokKind::PathSep);
    }

    #[test]
    fn numeric_suffixes_do_not_create_identifiers() {
        let ids = idents("let x = 0xFA17u64 + 1e5f64;");
        assert!(!ids.iter().any(|s| s == "xFA17u64" || s == "u64"));
    }

    #[test]
    fn lines_and_comments_are_tracked() {
        let src = "let a = 1;\n// SAFETY: fine\nlet b = 2; // trailing\n/* multi\nline */\n";
        let lx = lex(src);
        assert!(lx.code_lines.contains(&1));
        assert!(!lx.code_lines.contains(&2));
        assert!(lx.code_lines.contains(&3));
        assert!(lx.comment_lines.contains(&2));
        assert!(lx.comment_lines.contains(&3)); // trailing comment
        assert!(lx.comment_lines.contains(&4) && lx.comment_lines.contains(&5));
        assert_eq!(lx.comments.len(), 3);
        assert_eq!(lx.comments[0].text.trim(), "SAFETY: fine");
    }

    #[test]
    fn block_comment_spanning_lines_keeps_line_numbers() {
        let src = "/* a\nb\nc */ thread_rng();";
        let lx = lex(src);
        let t = &lx.tokens[0];
        assert_eq!(t.line, 3);
        assert!(matches!(&t.kind, TokKind::Ident(s) if s == "thread_rng"));
    }

    #[test]
    fn structural_punctuation_is_tokenized() {
        let toks = lex("fn f() { x.await; g!() }").tokens;
        let puncts: Vec<u8> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Punct(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            vec![b'(', b')', b'{', b'.', b';', b'!', b'(', b')', b'}']
        );
    }

    #[test]
    fn crlf_sources_lex_identically_to_lf_twins() {
        let lf = "fn f() {\n    // simlint: allow(D02) why\n    let t = now();\n}\n\
                  /* SAFETY: multi\nline head */\nlet s = r\"keep\";\nlet c = 'q';\n";
        let crlf = lf.replace('\n', "\r\n");
        let a = lex(lf);
        let b = lex(&crlf);
        assert_eq!(a.tokens, b.tokens, "token stream differs under CRLF");
        assert_eq!(
            a.comments, b.comments,
            "comment text/lines differ under CRLF"
        );
        assert_eq!(a.code_lines, b.code_lines);
        assert_eq!(a.comment_lines, b.comment_lines);
    }

    #[test]
    fn crlf_raw_string_interior_is_preserved() {
        // A raw string's *contents* must not be rewritten — only comment
        // text is normalised.
        let lx = lex("let s = r\"a\r\nb\"; now();");
        assert!(lx.tokens.iter().any(|t| t.kind.is_ident("now")));
        assert_eq!(lx.tokens.last().unwrap().line, 2);
    }

    #[test]
    fn last_line_pragma_without_trailing_newline_is_anchored() {
        // trailing pragma at EOF, LF file with no final newline
        let lx = lex("fn f() {}\nlet x = 1; // simlint: allow(D02) tail");
        let c = lx.comments.last().unwrap();
        assert_eq!(c.line, 2);
        assert_eq!(c.text.trim(), "simlint: allow(D02) tail");
        assert!(lx.code_lines.contains(&2));
        // same, CRLF file ending in a bare `\r` (no `\n`)
        let lx = lex("fn f() {}\r\nlet x = 1; // simlint: allow(D02) tail\r");
        let c = lx.comments.last().unwrap();
        assert_eq!(c.line, 2);
        assert_eq!(c.text.trim(), "simlint: allow(D02) tail");
    }
}
