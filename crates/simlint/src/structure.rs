//! The test-code scan U01 needs: which tokens belong to a `#[test]` or
//! `#[cfg(test)]` item — no `syn`, no grammar, just brace discipline.
//!
//! [`test_ranges`] walks the tokens once. An outer attribute that names
//! `test` (and not `not(test)`) arms the next `{ … }` block as test code; a
//! `;` before that brace disarms it, for a bodyless item (`fn f();`,
//! `#[cfg(test)] mod tests;`).
//!
//! The scan is resilient by construction to the things that break naive
//! brace counters: braces inside string/char literals and comments never
//! reach the token stream (the lexer ate them), braces inside attributes
//! are skipped with the attribute, and `>>` in generics is invisible
//! because angle brackets are never counted. An unclosed test block runs
//! to EOF, which is safe for a linter.

use crate::lexer::{Lexed, TokKind, Token};

/// Half-open token ranges `[start, end)` covered by test items.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TestRanges(pub Vec<(usize, usize)>);

impl TestRanges {
    /// Is token index `tok` inside a `#[test]`/`#[cfg(test)]` item?
    pub fn contains(&self, tok: usize) -> bool {
        self.0.iter().any(|&(s, e)| s <= tok && tok < e)
    }
}

/// Skip the attribute starting at `toks[i] == '#'`. Returns the index just
/// past its closing `]`, and whether it is an outer attribute that arms
/// a test item; `None` if `#` does not open an attribute.
fn attribute(toks: &[Token], i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1;
    let inner = toks.get(j).is_some_and(|t| t.kind.is_punct(b'!'));
    if inner {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.kind.is_punct(b'[')) {
        return None;
    }
    let (mut depth, mut saw_test, mut saw_not) = (0usize, false, false);
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Ident(s) if s == "test" => saw_test = true,
            TokKind::Ident(s) if s == "not" => saw_not = true,
            _ => {}
        }
        j += 1;
    }
    Some((j + 1, !inner && saw_test && !saw_not))
}

/// The token ranges of every test block in a lexed file, in the order the
/// blocks close (an unclosed one last, running to EOF).
pub fn test_ranges(lx: &Lexed) -> TestRanges {
    let toks = &lx.tokens;
    let mut out = Vec::new();
    // open blocks: (token index of `{`, is a test block)
    let mut stack: Vec<(usize, bool)> = Vec::new();
    let mut armed = false;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct(b'#') => {
                if let Some((next, arms)) = attribute(toks, i) {
                    armed |= arms;
                    i = next;
                    continue;
                }
            }
            TokKind::Punct(b'{') => {
                stack.push((i, armed));
                armed = false;
            }
            TokKind::Punct(b'}') => {
                if let Some((open, true)) = stack.pop() {
                    out.push((open, i + 1));
                }
            }
            TokKind::Punct(b';') => armed = false,
            _ => {}
        }
        i += 1;
    }
    for (open, test) in stack {
        if test {
            out.push((open, toks.len()));
        }
    }
    TestRanges(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Whether the `nth` occurrence of identifier `id` is test code.
    fn in_test(src: &str, id: &str, nth: usize) -> bool {
        let lx = lex(src);
        let tok = lx
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_ident(id))
            .nth(nth)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("no occurrence {nth} of {id}"));
        test_ranges(&lx).contains(tok)
    }

    #[test]
    fn test_attr_marks_fn_and_cfg_test_marks_module() {
        let src = "fn real() {}\n#[test]\nfn t() { real() }\n\
                   #[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n\
                   #[cfg(not(test))]\nfn prod() {}\n";
        assert!(!in_test(src, "real", 0));
        assert!(in_test(src, "real", 1));
        assert!(in_test(src, "helper", 0));
        assert!(!in_test(src, "prod", 0));
    }

    #[test]
    fn trait_decl_without_body_has_no_block() {
        // a bodyless test item disarms: the next body is production code
        let src = "trait T {\n  #[cfg(test)]\n  fn f(&self);\n  fn g(&self) { self.h() }\n}\n";
        assert!(!in_test(src, "h", 0));
        let src = "#[cfg(test)]\nmod tests;\nfn prod() { body() }\n";
        assert!(!in_test(src, "body", 0));
    }

    #[test]
    fn generics_closures_and_match_guards_do_not_confuse_spans() {
        let src = "#[test]\nfn f<T: Into<Vec<Vec<u8>>>>(x: T) -> u64 {\n\
                     let g = |y: u64| y >> 2;\n\
                     match g(1) { n if n > 0 => { n }, _ => 0 }\n\
                     last\n\
                   }\nfn after() { prod() }\n";
        assert!(in_test(src, "g", 0));
        assert!(in_test(src, "last", 0));
        assert!(!in_test(src, "prod", 0));
    }

    #[test]
    fn braces_in_strings_and_attrs_are_invisible() {
        let src = "#[test]\n#[doc = \"{ not a block\"]\nfn f() { let s = \"}}}\"; s.len() }\n\
                   fn after() { prod() }\n";
        assert!(in_test(src, "len", 0));
        assert!(!in_test(src, "prod", 0));
    }

    #[test]
    fn unclosed_block_runs_to_eof() {
        let src = "#[test]\nfn f() { let x = 1;";
        assert!(in_test(src, "x", 0));
        assert_eq!(
            test_ranges(&lex(src)).0.last().map(|r| r.1),
            Some(lex(src).tokens.len())
        );
    }
}
