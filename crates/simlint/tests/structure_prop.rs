//! Property tests for the test-code scan: generated snippets carry their
//! own ground truth (each `mark` identifier knows whether it sits in test
//! code), and the adversarial material — `>>` in generics, closures, match
//! guards, raw strings and comments with unbalanced braces, `not(test)`,
//! bodyless test items — must never skew the scan away from it.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use simlint::lexer::lex;
use simlint::structure::test_ranges;

/// A generated snippet plus, for each `mark` it contains (in source
/// order), whether that `mark` is test code.
#[derive(Clone, Debug)]
struct Snip {
    src: String,
    marks: Vec<bool>,
}

impl Snip {
    fn leaf(src: &str) -> Snip {
        // no leaf hides `mark` in a string or a comment
        Snip {
            src: src.to_string(),
            marks: vec![false; src.matches("mark").count()],
        }
    }

    /// Wrap in `open … close`; `test` says whether the wrapper is a test item.
    fn wrap(self, open: String, close: &str, test: bool) -> Snip {
        Snip {
            src: format!("{open}{}{close}", self.src),
            marks: self.marks.into_iter().map(|m| m || test).collect(),
        }
    }
}

/// Statements with no nested snippet: the decoys. Braces inside raw
/// strings, plain strings, char literals and comments must not count;
/// `>>` must not be mistaken for anything structural; a bodyless test item
/// must not arm the block after it.
fn leaves() -> impl Strategy<Value = Snip> {
    prop_oneof![
        Just(Snip::leaf("mark;\n")),
        Just(Snip::leaf(
            "let v: Vec<Vec<u8>> = cvt::<Vec<u8>>(mark >> 2);\n"
        )),
        Just(Snip::leaf("let s = r#\"{ not a block }}\"#; mark;\n")),
        Just(Snip::leaf("let s2 = \"}} {\";\n")),
        Just(Snip::leaf("let c = '{';\n")),
        Just(Snip::leaf("// { dangling open #[test]\n")),
        Just(Snip::leaf("/* } stray close { */\n")),
        Just(Snip::leaf(
            "#[cfg(test)]\nfn decl();\nfn after() { mark }\n"
        )),
        Just(Snip::leaf("#[doc = \"#[test] {\"]\nfn d() { mark }\n")),
        Just(Snip::leaf(
            "match v { Some(x) if x > 0 => { mark } None => {} }\n"
        )),
    ]
}

/// Wrap inner snippets in test items (`#[test] fn`, `#[cfg(test)] mod`)
/// and in the constructs that are not (plain and `not(test)` fns,
/// closures, bare blocks), or concatenate two. Hand-rolled depth recursion
/// — the offline proptest stand-in has no `prop_recursive`, but
/// `BoxedStrategy` is cloneable.
fn snips(depth: u32) -> BoxedStrategy<Snip> {
    if depth == 0 {
        return leaves().boxed();
    }
    let inner = snips(depth - 1);
    prop_oneof![
        leaves(),
        (inner.clone(), 0u32..1000).prop_map(|(s, id)| s.wrap(
            format!("#[test]\nfn t_{id}<T: Into<Vec<Vec<u8>>>>() {{ "),
            " }\n",
            true
        )),
        (inner.clone(), 0u32..1000).prop_map(|(s, id)| s.wrap(
            format!("#[cfg(test)]\nmod m_{id} {{ "),
            " }\n",
            true
        )),
        (inner.clone(), 0u32..1000).prop_map(|(s, id)| s.wrap(
            format!("fn f_{id}() {{ "),
            " }\n",
            false
        )),
        (inner.clone(), 0u32..1000).prop_map(|(s, id)| s.wrap(
            format!("#[cfg(not(test))]\nfn p_{id}() {{ "),
            " }\n",
            false
        )),
        inner
            .clone()
            .prop_map(|s| s.wrap("let cl = move |q: u64| { ".into(), " q };\n", false)),
        inner
            .clone()
            .prop_map(|s| s.wrap("{ ".into(), " }\n", false)),
        (inner.clone(), inner).prop_map(|(a, b)| Snip {
            src: format!("{}{}", a.src, b.src),
            marks: a.marks.into_iter().chain(b.marks).collect(),
        }),
    ]
    .boxed()
}

/// Whether each `mark` in `src`, in order, is test code by the scan.
fn scanned(src: &str) -> Vec<bool> {
    let lx = lex(src);
    let ranges = test_ranges(&lx);
    lx.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind.is_ident("mark"))
        .map(|(i, _)| ranges.contains(i))
        .collect()
}

proptest! {
    #[test]
    fn tracker_matches_generated_ground_truth(s in snips(4)) {
        prop_assert_eq!(scanned(&s.src), s.marks, "in:\n{}", s.src);
        // every generated snippet is balanced: each range opens on `{`
        // and closes just past `}`
        let lx = lex(&s.src);
        for &(open, end) in &test_ranges(&lx).0 {
            prop_assert!(lx.tokens[open].kind.is_punct(b'{'));
            prop_assert!(lx.tokens[end - 1].kind.is_punct(b'}'));
        }
    }

    #[test]
    fn crlf_twin_has_identical_structure(s in snips(4)) {
        let crlf = s.src.replace('\n', "\r\n");
        prop_assert_eq!(test_ranges(&lex(&s.src)), test_ranges(&lex(&crlf)));
    }
}
