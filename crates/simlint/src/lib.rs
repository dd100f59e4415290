//! # simlint — workspace determinism & unsafe-audit static analysis
//!
//! Every reproduced claim in this repo rests on the simulator being
//! bit-exact for a given seed. That property used to hold *by
//! convention* (BTree collections, seeded ChaCha RNG, virtual time);
//! `simlint` carves the convention in stone. It walks all workspace
//! sources with a hand-rolled lexer ([`lexer`]) — no `syn`, no
//! dependencies — and enforces:
//!
//! | rule | contract |
//! |------|----------|
//! | D01  | no `std` hash collections in simulator code (iteration order is nondeterministic; use the BTree variants) |
//! | D02  | no wall-clock reads (`Instant::now`, `SystemTime`) — simulation time comes from `Sim::now` |
//! | D03  | no ambient randomness (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`) — RNGs derive from the `Sim` seed |
//! | D04  | no host threads (`std::thread`, `crossbeam`, `rayon`) outside `crates/bench`, the sanctioned host-parallelism zone |
//! | D05  | every `unsafe` block carries its own adjacent `// SAFETY:` justification — one comment per block |
//! | D00  | pragma hygiene: every waiver is well-formed, reasoned, and actually waives something |
//!
//! Four *structural* families (see [`families`]) run on top of the
//! [`structure`] index — fn boundaries, block spans, `.await` points:
//!
//! | rule | contract |
//! |------|----------|
//! | P01  | panic-freedom in simulation-visible crates; sites carry an audited `// INVARIANT:` comment or return typed errors |
//! | U01  | no raw numeric cast in a statement mixing bytes/nanoseconds/rate vocabulary — use `sim::units` newtypes |
//! | A01  | no `RefCell` borrow or lock guard live across `.await` |
//! | C01  | async payload iteration in `vos`/`media` must reach the charged cost engine |
//!
//! Every rule gates at zero violations.
//!
//! Legitimate exceptions are documented **at the use site** with a
//! pragma and counted in the report:
//!
//! ```text
//! // simlint: allow(D02) wall-time provenance stamp, never sim-visible
//! ```
//!
//! A trailing pragma waives its own line; a standalone pragma comment
//! waives the next line that contains code (intervening comment lines
//! are skipped). A pragma with no reason, an unknown rule id, or nothing
//! to waive is itself a violation (D00), so waivers cannot rot.

#![forbid(unsafe_code)]

pub mod families;
pub mod json;
pub mod lexer;
pub mod structure;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use lexer::{lex, Lexed, TokKind};

/// A token pattern element: a literal identifier or the `::` separator.
#[derive(Clone, Copy, Debug)]
pub enum Pat {
    Id(&'static str),
    Sep,
}

/// One determinism rule, matched structurally against the token stream.
pub struct Rule {
    pub id: &'static str,
    pub title: &'static str,
    pub advice: &'static str,
    /// Any consecutive-token match of any pattern is a hit.
    pub patterns: &'static [&'static [Pat]],
    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// where hits are *sanctioned* rather than violations.
    pub exempt: &'static [&'static str],
}

/// The pattern-driven rules (D05 is structural and handled separately).
pub static RULES: [Rule; 4] = [
    Rule {
        id: "D01",
        title: "no std hash collections in simulator code",
        advice: "iteration order is seeded per process; use the BTree variant",
        patterns: &[&[Pat::Id("HashMap")], &[Pat::Id("HashSet")]],
        exempt: &[],
    },
    Rule {
        id: "D02",
        title: "no wall-clock reads",
        advice: "virtual time only: Sim::now; host timing needs a pragma",
        patterns: &[
            &[Pat::Id("Instant"), Pat::Sep, Pat::Id("now")],
            &[Pat::Id("SystemTime")],
        ],
        exempt: &[],
    },
    Rule {
        id: "D03",
        title: "no ambient randomness",
        advice: "derive every RNG from the Sim seed (ChaCha)",
        patterns: &[
            &[Pat::Id("thread_rng")],
            &[Pat::Id("from_entropy")],
            &[Pat::Id("rand"), Pat::Sep, Pat::Id("random")],
            &[Pat::Id("OsRng")],
            &[Pat::Id("getrandom")],
        ],
        exempt: &[],
    },
    Rule {
        id: "D04",
        title: "no host threads outside crates/bench",
        advice: "host parallelism is sanctioned only in the bench harness",
        patterns: &[
            &[Pat::Id("std"), Pat::Sep, Pat::Id("thread")],
            &[Pat::Id("thread"), Pat::Sep, Pat::Id("spawn")],
            &[Pat::Id("crossbeam")],
            &[Pat::Id("rayon")],
        ],
        exempt: &["crates/bench/"],
    },
];

/// Rule ids a pragma may waive.
pub const WAIVABLE: [&str; 9] = [
    "D01", "D02", "D03", "D04", "D05", "P01", "U01", "A01", "C01",
];

const D05_ID: &str = "D05";
const D05_TITLE: &str = "every unsafe block carries its own SAFETY comment";
const D00_ID: &str = "D00";
const D00_TITLE: &str = "pragma hygiene";

/// One rule hit with its location and, for waived hits, the reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hit {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    /// What matched (`Instant::now`, `unsafe`, or a pragma-hygiene note).
    pub what: String,
    pub reason: Option<String>,
}

/// Per-file analysis result.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    pub path: String,
    /// Unwaived hits — these gate the exit code.
    pub violations: Vec<Hit>,
    /// Hits documented at the use site with a pragma.
    pub waived: Vec<Hit>,
    /// Hits inside a rule's sanctioned zone (e.g. D04 in `crates/bench`,
    /// U01 in the blessed conversion modules).
    pub sanctioned: Vec<Hit>,
    /// P01 sites carrying an audited `// INVARIANT:` justification;
    /// `reason` holds the invariant text.
    pub audited: Vec<Hit>,
}

// ---------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Pragma {
    rules: Vec<String>,
    reason: String,
    line: u32,
    /// Which of `rules` actually waived a hit (stale detection).
    used: Vec<bool>,
}

/// Parse `simlint: allow(D02[,D03]) reason…` out of a comment, if the
/// comment mentions simlint at all. `Err` carries a D00 explanation.
///
/// Doc comments never carry pragmas — they *describe* the pragma syntax
/// (as this one does), they don't waive anything. The lexer strips only
/// the `//`/`/*` delimiters, so a doc comment's text starts with the
/// third delimiter character: `/`, `!` or `*`.
fn parse_pragma(text: &str, line: u32) -> Option<Result<Pragma, String>> {
    if text.starts_with(['/', '!', '*']) {
        return None;
    }
    let at = text.find("simlint:")?;
    let rest = text[at + "simlint:".len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "expected `allow(<rule>)` after `simlint:`, found {rest:?}"
        )));
    };
    let Some(close) = args.find(')') else {
        return Some(Err("unclosed `allow(` in pragma".into()));
    };
    let mut rules = Vec::new();
    for id in args[..close].split(',') {
        let id = id.trim();
        if !WAIVABLE.contains(&id) {
            return Some(Err(format!(
                "unknown rule {id:?} in pragma (waivable: {})",
                WAIVABLE.join(", ")
            )));
        }
        rules.push(id.to_string());
    }
    let reason = args[close + 1..].trim();
    if reason.is_empty() {
        return Some(Err(
            "pragma needs a reason: `simlint: allow(Dnn) <why this is sound>`".into(),
        ));
    }
    let used = vec![false; rules.len()];
    Some(Ok(Pragma {
        rules,
        reason: reason.to_string(),
        line,
        used,
    }))
}

/// The line a pragma waives: its own line if it trails code, otherwise
/// the next line containing code.
fn pragma_target(lx: &Lexed, pragma_line: u32) -> Option<u32> {
    if lx.code_lines.contains(&pragma_line) {
        return Some(pragma_line);
    }
    lx.code_lines.range(pragma_line + 1..).next().copied()
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

fn pattern_text(p: &[Pat]) -> String {
    let mut s = String::new();
    for el in p {
        match el {
            Pat::Id(id) => s.push_str(id),
            Pat::Sep => s.push_str("::"),
        }
    }
    s
}

fn matches_at(toks: &[lexer::Token], i: usize, pat: &[Pat]) -> bool {
    if i + pat.len() > toks.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, el)| match el {
        Pat::Id(id) => matches!(&toks[i + k].kind, TokKind::Ident(s) if s == id),
        Pat::Sep => toks[i + k].kind == TokKind::PathSep,
    })
}

/// Is this comment a `SAFETY:` justification? Accepts `// SAFETY: …`
/// and block comments whose first non-empty line is `SAFETY: …`
/// (allowing a leading `*`).
fn is_safety_comment(text: &str) -> bool {
    text.lines()
        .map(|l| l.trim().trim_start_matches('*').trim_start())
        .find(|l| !l.is_empty())
        .is_some_and(|l| l.starts_with("SAFETY:"))
}

/// Analyze one file's source. `rel_path` is the workspace-relative,
/// `/`-separated path used for zone exemptions and reporting.
pub fn analyze_source(rel_path: &str, src: &str) -> FileReport {
    let lx = lex(src);
    let mut out = FileReport {
        path: rel_path.to_string(),
        ..Default::default()
    };

    // -- pragmas ------------------------------------------------------
    let mut pragmas: Vec<Pragma> = Vec::new();
    for c in &lx.comments {
        match parse_pragma(&c.text, c.line) {
            None => {}
            Some(Ok(p)) => pragmas.push(p),
            Some(Err(why)) => out.violations.push(Hit {
                rule: D00_ID,
                line: c.line,
                col: 1,
                what: why,
                reason: None,
            }),
        }
    }
    // (target line, rule) -> pragma/rule indices, first pragma wins
    let mut waivers: BTreeMap<(u32, &str), (usize, usize)> = BTreeMap::new();
    for (pi, p) in pragmas.iter().enumerate() {
        let Some(target) = pragma_target(&lx, p.line) else {
            continue; // no code follows: reported stale below
        };
        for (ri, rule) in p.rules.iter().enumerate() {
            let rule: &'static str = WAIVABLE
                .iter()
                .copied()
                .find(|w| *w == rule.as_str())
                .expect("validated in parse_pragma");
            waivers.entry((target, rule)).or_insert((pi, ri));
        }
    }

    // -- route one hit to violations / waived / sanctioned ------------
    let mut route = |pragmas: &mut Vec<Pragma>, mut hit: Hit, sanctioned: bool| {
        if sanctioned {
            out.sanctioned.push(hit);
            return;
        }
        if let Some(&(pi, ri)) = waivers.get(&(hit.line, hit.rule)) {
            pragmas[pi].used[ri] = true;
            hit.reason = Some(pragmas[pi].reason.clone());
            out.waived.push(hit);
            return;
        }
        out.violations.push(hit);
    };

    // -- pattern rules D01–D04 ----------------------------------------
    for rule in &RULES {
        let sanctioned = rule.exempt.iter().any(|p| rel_path.starts_with(p));
        // one hit per (line, pattern): `std::thread::spawn(..)` on one
        // line reports `std::thread` and `thread::spawn` once each
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        for i in 0..lx.tokens.len() {
            for pat in rule.patterns {
                if !matches_at(&lx.tokens, i, pat) {
                    continue;
                }
                let what = pattern_text(pat);
                if seen.insert((lx.tokens[i].line, what.clone())) {
                    route(
                        &mut pragmas,
                        Hit {
                            rule: rule.id,
                            line: lx.tokens[i].line,
                            col: lx.tokens[i].col,
                            what,
                            reason: None,
                        },
                        sanctioned,
                    );
                }
            }
        }
    }

    // -- D05: unsafe audit --------------------------------------------
    let mut safety: BTreeMap<u32, bool> = lx
        .comments
        .iter()
        .filter(|c| is_safety_comment(&c.text))
        .map(|c| (c.line, false))
        .collect();
    for t in &lx.tokens {
        let TokKind::Ident(id) = &t.kind else {
            continue;
        };
        if id != "unsafe" {
            continue;
        }
        let mut justified = false;
        // a SAFETY comment on the same line (leading or trailing)…
        if let Some(claimed) = safety.get_mut(&t.line) {
            if !*claimed {
                *claimed = true;
                justified = true;
            }
        }
        // …or the nearest one in the contiguous comment block above.
        if !justified {
            let mut k = t.line.saturating_sub(1);
            while k > 0 && lx.comment_lines.contains(&k) {
                if let Some(claimed) = safety.get_mut(&k) {
                    if !*claimed {
                        *claimed = true;
                        justified = true;
                    }
                    break; // claimed or not, this block's SAFETY is spoken for
                }
                k -= 1;
            }
        }
        if !justified {
            route(
                &mut pragmas,
                Hit {
                    rule: D05_ID,
                    line: t.line,
                    col: t.col,
                    what: "unsafe".into(),
                    reason: None,
                },
                false,
            );
        }
    }

    // -- structural families P01 / U01 / A01 / C01 --------------------
    let st = structure::build(&lx);
    for fh in families::check(rel_path, &lx, &st) {
        let hit = Hit {
            rule: fh.rule,
            line: fh.line,
            col: fh.col,
            what: fh.what,
            reason: fh.audited.clone(),
        };
        if fh.audited.is_some() {
            out.audited.push(hit);
        } else {
            route(&mut pragmas, hit, fh.sanctioned);
        }
    }

    // -- D00: stale pragmas -------------------------------------------
    for p in &pragmas {
        for (ri, used) in p.used.iter().enumerate() {
            if !used {
                out.violations.push(Hit {
                    rule: D00_ID,
                    line: p.line,
                    col: 1,
                    what: format!(
                        "stale pragma: allow({}) waives nothing on its target line",
                        p.rules[ri]
                    ),
                    reason: None,
                });
            }
        }
    }

    out.violations.sort_by_key(|h| (h.line, h.col));
    out
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

/// Directory names never descended into during the default walk.
/// `fixtures` holds simlint's own planted-violation corpus; `vendor`
/// holds offline stand-ins for external crates (not workspace sources).
pub const SKIP_DIRS: [&str; 6] = [
    "target",
    "vendor",
    "fixtures",
    ".git",
    "results",
    "baselines",
];

/// Find the workspace root: the nearest ancestor (of
/// `$CARGO_MANIFEST_DIR`, else the current directory) whose
/// `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir.to_path_buf());
                }
            }
        }
        dir = dir.parent()?;
    }
}

fn walk(dir: &Path, files: &mut BTreeSet<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, files);
            }
        } else if name.ends_with(".rs") {
            files.insert(path);
        }
    }
}

/// The default scan set: every `.rs` under `crates/`, `tests/` and
/// `examples/`, minus [`SKIP_DIRS`]. Sorted, so the report — like
/// everything else around here — is deterministic.
pub fn default_files(root: &Path) -> Vec<PathBuf> {
    let mut files = BTreeSet::new();
    for sub in ["crates", "tests", "examples"] {
        walk(&root.join(sub), &mut files);
    }
    files.into_iter().collect()
}

/// Collect `.rs` files from explicit path arguments (files are taken
/// as-is — even inside `fixtures/` — directories are walked).
pub fn collect_paths(paths: &[PathBuf]) -> Vec<PathBuf> {
    let mut files = BTreeSet::new();
    for p in paths {
        if p.is_dir() {
            walk(p, &mut files);
        } else {
            files.insert(p.clone());
        }
    }
    files.into_iter().collect()
}

/// Analyze files, reporting paths relative to `root` where possible.
pub fn analyze_files(root: &Path, files: &[PathBuf]) -> Vec<FileReport> {
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(path) {
            Ok(src) => out.push(analyze_source(&rel, &src)),
            Err(e) => out.push(FileReport {
                path: rel.clone(),
                violations: vec![Hit {
                    rule: D00_ID,
                    line: 0,
                    col: 0,
                    what: format!("unreadable source file: {e}"),
                    reason: None,
                }],
                ..Default::default()
            }),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

fn rule_heading(id: &str) -> String {
    for r in &RULES {
        if r.id == id {
            return format!("{} — {} ({})", r.id, r.title, r.advice);
        }
    }
    match id {
        D05_ID => format!("{D05_ID} — {D05_TITLE}"),
        D00_ID => format!("{D00_ID} — {D00_TITLE}"),
        families::P01_ID => format!("{} — {}", families::P01_ID, families::P01_TITLE),
        families::U01_ID => format!("{} — {}", families::U01_ID, families::U01_TITLE),
        families::A01_ID => format!("{} — {}", families::A01_ID, families::A01_TITLE),
        families::C01_ID => format!("{} — {}", families::C01_ID, families::C01_TITLE),
        other => other.to_string(),
    }
}

/// Render the per-rule report. Returns `(text, violation_count)`.
pub fn render_report(reports: &[FileReport]) -> (String, usize) {
    let mut by_rule: BTreeMap<&str, Vec<(&FileReport, &Hit)>> = BTreeMap::new();
    let mut waived: Vec<(&FileReport, &Hit)> = Vec::new();
    let mut sanctioned: Vec<(&FileReport, &Hit)> = Vec::new();
    let mut violations = 0usize;
    let mut audited = 0usize;
    for fr in reports {
        for h in &fr.violations {
            by_rule.entry(h.rule).or_default().push((fr, h));
            violations += 1;
        }
        waived.extend(fr.waived.iter().map(|h| (fr, h)));
        sanctioned.extend(fr.sanctioned.iter().map(|h| (fr, h)));
        audited += fr.audited.len();
    }

    let mut s = String::new();
    let _ = writeln!(s, "simlint: {} file(s) scanned", reports.len());
    for (rule, hits) in &by_rule {
        let _ = writeln!(s, "\n{}", rule_heading(rule));
        for (fr, h) in hits {
            let _ = writeln!(s, "  {}:{}:{}  {}", fr.path, h.line, h.col, h.what);
        }
    }
    if !waived.is_empty() {
        let _ = writeln!(s, "\nwaived at the use site ({}):", waived.len());
        for (fr, h) in &waived {
            let _ = writeln!(
                s,
                "  {} {}:{}  {} — {}",
                h.rule,
                fr.path,
                h.line,
                h.what,
                h.reason.as_deref().unwrap_or("")
            );
        }
    }
    if !sanctioned.is_empty() {
        let _ = writeln!(
            s,
            "\nsanctioned-zone hits ({}, rule carve-outs):",
            sanctioned.len()
        );
        for (fr, h) in &sanctioned {
            let _ = writeln!(s, "  {} {}:{}  {}", h.rule, fr.path, h.line, h.what);
        }
    }
    let _ = writeln!(
        s,
        "\nsummary: {} violation(s), {} waived, {} sanctioned, {} audited INVARIANT",
        violations,
        waived.len(),
        sanctioned.len(),
        audited,
    );
    (s, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str) -> Vec<(String, u32)> {
        analyze_source("crates/sim/src/x.rs", src)
            .violations
            .iter()
            .map(|h| (h.rule.to_string(), h.line))
            .collect()
    }

    #[test]
    fn clean_source_has_no_hits() {
        let fr = analyze_source(
            "crates/sim/src/x.rs",
            "use std::collections::BTreeMap;\nfn f() { let _m: BTreeMap<u32, u32> = BTreeMap::new(); }\n",
        );
        assert!(fr.violations.is_empty() && fr.waived.is_empty() && fr.sanctioned.is_empty());
    }

    #[test]
    fn d01_fires_on_code_not_strings() {
        let src = "use std::collections::{HashMap, HashSet};\nfn f() { let s = \"HashMap\"; }\n";
        let v = violations(src);
        assert_eq!(v, vec![("D01".into(), 1), ("D01".into(), 1)]);
    }

    #[test]
    fn d02_matches_now_call_not_type_mention() {
        assert!(violations("use std::time::Instant;\n").is_empty());
        assert_eq!(
            violations("fn f() { let _t = std::time::Instant::now(); }"),
            vec![("D02".into(), 1)]
        );
    }

    #[test]
    fn d04_is_sanctioned_inside_bench() {
        let src = "fn f() { crossbeam::scope(|_| {}); }";
        let fr = analyze_source("crates/bench/src/lib.rs", src);
        assert!(fr.violations.is_empty());
        assert_eq!(fr.sanctioned.len(), 1);
        let fr = analyze_source("crates/vos/src/lib.rs", src);
        assert_eq!(fr.violations.len(), 1);
    }

    #[test]
    fn trailing_and_standalone_pragmas_waive() {
        let src = "\
fn f() {
    let _a = std::time::Instant::now(); // simlint: allow(D02) trailing waiver
    // simlint: allow(D02) standalone waiver
    // (comment lines between pragma and code are fine)
    let _b = std::time::Instant::now();
}
";
        let fr = analyze_source("crates/sim/src/x.rs", src);
        assert!(fr.violations.is_empty(), "{:?}", fr.violations);
        assert_eq!(fr.waived.len(), 2);
        assert_eq!(fr.waived[0].reason.as_deref(), Some("trailing waiver"));
    }

    #[test]
    fn pragma_without_reason_or_with_unknown_rule_is_d00() {
        let v = violations("// simlint: allow(D02)\nfn f() {}\n");
        assert_eq!(v[0].0, "D00");
        let v = violations("// simlint: allow(D99) because\nfn f() {}\n");
        assert_eq!(v[0].0, "D00");
    }

    #[test]
    fn doc_comments_never_carry_pragmas() {
        let src = "//! example syntax: `simlint: allow(D02) reason`\n/// simlint: allow(D03) docs describe, they do not waive\nfn f() {}\n";
        assert!(violations(src).is_empty());
    }

    #[test]
    fn stale_pragma_is_d00() {
        let v = violations("// simlint: allow(D03) nothing random here\nfn f() {}\n");
        assert_eq!(v, vec![("D00".into(), 1)]);
    }

    #[test]
    fn d05_requires_one_safety_comment_per_block() {
        let with = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(violations(with).is_empty());
        let without = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(violations(without), vec![("D05".into(), 2)]);
        // one shared paragraph over two blocks: the second is unjustified
        let shared = "\
fn f(p: *const u8) -> (u8, u8) {
    // SAFETY: shared paragraph for both
    let a = unsafe { *p };
    let b = unsafe { *p };
    (a, b)
}
";
        assert_eq!(violations(shared), vec![("D05".into(), 4)]);
    }

    #[test]
    fn d05_blank_line_breaks_adjacency() {
        let src = "// SAFETY: too far away\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(violations(src), vec![("D05".into(), 3)]);
    }

    #[test]
    fn report_counts_and_exit_gate() {
        let fr = analyze_source(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap;\nfn f() {}\n",
        );
        let (text, n) = render_report(&[fr]);
        assert_eq!(n, 1);
        assert!(text.contains("D01"));
        assert!(text.contains("crates/sim/src/x.rs:1"));
    }
}
