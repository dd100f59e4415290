//! Structural rule families: P01 panic-freedom, U01 unit-safety,
//! A01 await-hazards, C01 charge-accounting.
//!
//! These rules need more than token adjacency — they consume the
//! [`crate::structure`] index (fn boundaries, block spans, `.await`
//! points, test ranges) built over the [`crate::lexer`] stream.
//!
//! | rule | contract |
//! |------|----------|
//! | P01  | no `.unwrap()` / `.expect()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in simulation-visible crates unless carrying an adjacent audited `// INVARIANT:` comment (one claim per comment, D05-style) |
//! | U01  | no raw `as u64/usize/f64/…` cast in a statement that mixes the bytes, nanoseconds and rate vocabularies — route the arithmetic through `sim::units` instead |
//! | A01  | no `RefCell` borrow or lock guard bound by `let` and still live across an `.await` — a deterministic-deadlock / re-borrow-panic class |
//! | C01  | an async fn in `vos`/`media` that touches payload-iterating machinery must also reach the charged cost engine in the same body |
//!
//! Test code (`#[test]` fns, `#[cfg(test)]` modules) is exempt from all
//! four families: a panicking assert in a test is the point, not a bug.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, TokKind};
use crate::structure::Structure;

pub const P01_ID: &str = "P01";
pub const P01_TITLE: &str = "panic-freedom on simulation-visible paths";
pub const U01_ID: &str = "U01";
pub const U01_TITLE: &str = "no raw casts across bytes/nanoseconds/rate unit boundaries";
pub const A01_ID: &str = "A01";
pub const A01_TITLE: &str = "no RefCell borrow or lock guard live across .await";
pub const C01_ID: &str = "C01";
pub const C01_TITLE: &str = "payload iteration must reach the charged cost engine";

/// Crates whose `src/` is simulation-visible: a panic here can take
/// down a simulated run that the paper's figures depend on.
pub const SIM_VISIBLE: [&str; 9] = [
    // planted violations: the default walk skips them, and CI's smoke
    // checks name them explicitly to prove these rules still gate
    "crates/simlint/fixtures/",
    "crates/sim/src/",
    "crates/core/src/",
    "crates/fabric/src/",
    "crates/vos/src/",
    "crates/dfs/src/",
    "crates/media/src/",
    "crates/placement/src/",
    "crates/raft/src/",
];

/// U01 also covers the bench layer (figures do unit arithmetic too).
pub const U01_EXTRA: [&str; 1] = ["crates/bench/src/"];

/// Blessed conversion modules: the newtypes themselves must cast at the
/// boundary, so raw casts there are *sanctioned*, not violations.
pub const U01_SANCTIONED: [&str; 2] = ["crates/sim/src/units.rs", "crates/sim/src/time.rs"];

/// C01 zone: the crates that own payload bytes and their cost engine.
pub const C01_ZONE: [&str; 2] = ["crates/vos/src/", "crates/media/src/"];

/// One family hit, pre-routing: `audited` carries the `INVARIANT:`
/// justification when the site is claimed, `sanctioned` marks blessed
/// zones (both bypass the violation path in `analyze_source`).
#[derive(Clone, Debug)]
pub struct FamilyHit {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub what: String,
    pub audited: Option<String>,
    pub sanctioned: bool,
}

/// Run every family on one lexed+indexed file.
pub fn check(rel_path: &str, lx: &Lexed, st: &Structure) -> Vec<FamilyHit> {
    let mut out = Vec::new();
    p01(rel_path, lx, st, &mut out);
    u01(rel_path, lx, st, &mut out);
    a01(rel_path, lx, st, &mut out);
    c01(rel_path, lx, st, &mut out);
    out.sort_by_key(|h| (h.line, h.col, h.rule));
    out
}

// ---------------------------------------------------------------------
// P01 — panic-freedom
// ---------------------------------------------------------------------

/// Extract the justification from an `INVARIANT:` audit comment.
/// Mirrors the D05 `SAFETY:` shape: `// INVARIANT: …` or a block
/// comment whose first non-empty line is `INVARIANT: …` (allowing a
/// leading `*`).
fn invariant_reason(text: &str) -> Option<String> {
    text.lines()
        .map(|l| l.trim().trim_start_matches('*').trim_start())
        .find(|l| !l.is_empty())
        .and_then(|l| l.strip_prefix("INVARIANT:"))
        .map(|r| r.trim().to_string())
}

const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn p01(rel_path: &str, lx: &Lexed, st: &Structure, out: &mut Vec<FamilyHit>) {
    if !SIM_VISIBLE.iter().any(|z| rel_path.starts_with(z)) {
        return;
    }
    // INVARIANT comments are claimable once each, exactly like SAFETY.
    let mut audits: BTreeMap<u32, (bool, String)> = lx
        .comments
        .iter()
        .filter_map(|c| invariant_reason(&c.text).map(|r| (c.line, (false, r))))
        .collect();
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        let what = match &toks[i].kind {
            TokKind::Ident(s) if PANIC_METHODS.contains(&s.as_str()) => {
                // `.unwrap()` the method call, not `unwrap_or` (distinct
                // ident) and not a fn *named* unwrap (no leading dot).
                if i == 0 || !toks[i - 1].kind.is_punct(b'.') {
                    continue;
                }
                format!(".{s}()")
            }
            TokKind::Ident(s) if PANIC_MACROS.contains(&s.as_str()) => {
                if !toks
                    .get(i + 1)
                    .map(|t| t.kind.is_punct(b'!'))
                    .unwrap_or(false)
                {
                    continue;
                }
                format!("{s}!")
            }
            _ => continue,
        };
        if st.in_test(i) {
            continue;
        }
        let t = &toks[i];
        // claim an audit: same line first, else the nearest comment in
        // the contiguous comment block above.
        let mut audited = None;
        if let Some((claimed, reason)) = audits.get_mut(&t.line) {
            if !*claimed {
                *claimed = true;
                audited = Some(reason.clone());
            }
        }
        if audited.is_none() {
            let mut k = t.line.saturating_sub(1);
            while k > 0 && lx.comment_lines.contains(&k) {
                if let Some((claimed, reason)) = audits.get_mut(&k) {
                    if !*claimed {
                        *claimed = true;
                        audited = Some(reason.clone());
                    }
                    break; // claimed or not, this block's audit is spoken for
                }
                k -= 1;
            }
        }
        out.push(FamilyHit {
            rule: P01_ID,
            line: t.line,
            col: t.col,
            what,
            audited,
            sanctioned: false,
        });
    }
}

// ---------------------------------------------------------------------
// U01 — unit-safety
// ---------------------------------------------------------------------

const CAST_TYPES: [&str; 7] = ["u64", "usize", "u32", "i64", "u128", "f64", "f32"];

/// Vocabulary families. A statement whose identifiers span ≥2 families
/// *and* contains a raw numeric cast is crossing a unit boundary.
const FAM_BYTES: [&str; 16] = [
    "bytes",
    "byte",
    "nbytes",
    "size",
    "block_bytes",
    "granularity",
    "kib",
    "mib",
    "gib",
    "tib",
    "capacity",
    "bulk_bytes",
    "frame_bytes",
    "payload_bytes",
    "chunk_bytes",
    "resident_bytes",
];
const FAM_NANOS: [&str; 14] = [
    "ns",
    "nanos",
    "ns_for",
    "as_ns",
    "from_ns",
    "busy_ns",
    "latency_ns",
    "deadline_ns",
    "elapsed_ns",
    "wire_ns",
    "wait_ns",
    "service_ns",
    "sleep_ns",
    "stall_ns",
];
const FAM_RATE: [&str; 12] = [
    "bw",
    "bandwidth",
    "rate",
    "gib_per_sec",
    "bytes_per_sec",
    "gbit_per_sec",
    "mib_per_sec",
    "gibps",
    "bps",
    "goodput",
    "throughput",
    "iops",
];

fn family_of(id: &str) -> Option<&'static str> {
    let low = id.to_ascii_lowercase();
    let low = low.as_str();
    if FAM_BYTES.contains(&low) {
        return Some("bytes");
    }
    if FAM_NANOS.contains(&low) {
        return Some("ns");
    }
    if FAM_RATE.contains(&low) {
        return Some("rate");
    }
    None
}

fn u01(rel_path: &str, lx: &Lexed, st: &Structure, out: &mut Vec<FamilyHit>) {
    let in_zone = SIM_VISIBLE
        .iter()
        .chain(U01_EXTRA.iter())
        .any(|z| rel_path.starts_with(z));
    if !in_zone {
        return;
    }
    let sanctioned = U01_SANCTIONED.contains(&rel_path);
    let toks = &lx.tokens;
    // Statement segmentation: `;` and `{`/`}` bound a statement.
    let mut start = 0usize;
    for i in 0..=toks.len() {
        let boundary = i == toks.len()
            || matches!(
                &toks[i].kind,
                TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}')
            );
        if !boundary {
            continue;
        }
        let stmt = &toks[start..i];
        let stmt_start = start;
        start = i + 1;
        if stmt.is_empty() || st.in_test(stmt_start) {
            continue;
        }
        // find raw casts `as <numeric>`
        let mut casts: Vec<usize> = Vec::new();
        for k in 0..stmt.len().saturating_sub(1) {
            if stmt[k].kind.is_ident("as") {
                if let TokKind::Ident(t) = &stmt[k + 1].kind {
                    if CAST_TYPES.contains(&t.as_str()) {
                        casts.push(k);
                    }
                }
            }
        }
        if casts.is_empty() {
            continue;
        }
        // classify the statement's vocabulary
        let mut fams: Vec<&'static str> = Vec::new();
        for t in stmt {
            if let TokKind::Ident(s) = &t.kind {
                if let Some(f) = family_of(s) {
                    if !fams.contains(&f) {
                        fams.push(f);
                    }
                }
            }
        }
        if fams.len() < 2 {
            continue;
        }
        let k = casts[0];
        let target = match &stmt[k + 1].kind {
            TokKind::Ident(t) => t.clone(),
            _ => unreachable!("cast target checked above"),
        };
        out.push(FamilyHit {
            rule: U01_ID,
            line: stmt[k].line,
            col: stmt[k].col,
            what: format!("`as {target}` in a {} statement", fams.join("×")),
            audited: None,
            sanctioned,
        });
    }
}

// ---------------------------------------------------------------------
// A01 — await-hazards
// ---------------------------------------------------------------------

/// Methods whose return value is a scoped guard: holding one across an
/// `.await` in a single-threaded cooperative executor is a recipe for a
/// deterministic re-borrow panic or deadlock. (`Semaphore::acquire` is
/// *designed* to be held across awaits and is not listed.)
const GUARD_METHODS: [&str; 4] = ["borrow", "borrow_mut", "lock", "try_borrow_mut"];

fn a01(rel_path: &str, lx: &Lexed, st: &Structure, out: &mut Vec<FamilyHit>) {
    if !SIM_VISIBLE.iter().any(|z| rel_path.starts_with(z)) {
        return;
    }
    let toks = &lx.tokens;
    #[derive(Clone)]
    struct Guard {
        name: String,
        method: String,
        line: u32,
        /// Token index where the binding statement ends — the guard is
        /// only live for awaits *after* its own initializer.
        live_from: usize,
        dropped: bool,
    }
    struct Scope {
        guards: Vec<Guard>,
        /// An `async { }` / `async move { }` block is a *barrier*: its
        /// awaits run in a different task activation, so guards bound
        /// outside it are not held across them.
        barrier: bool,
    }
    // per-open-block guard scopes; index 0 = file scope
    let mut scopes: Vec<Scope> = vec![Scope {
        guards: Vec::new(),
        barrier: false,
    }];
    // `if let` / `while let` scrutinee guards: in Rust 2021 the
    // temporary lives to the end of the *body*, so they attach to the
    // next opened block rather than the enclosing scope.
    let mut pending_cond: Vec<Guard> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct(b'{') => {
                let before = |n: usize| i.checked_sub(n).map(|k| &toks[k].kind);
                let barrier = matches!(before(1), Some(TokKind::Ident(s)) if s == "async")
                    || (matches!(before(1), Some(TokKind::Ident(s)) if s == "move")
                        && matches!(before(2), Some(TokKind::Ident(s)) if s == "async"));
                let mut guards = Vec::new();
                guards.append(&mut pending_cond);
                scopes.push(Scope { guards, barrier });
            }
            TokKind::Punct(b'}') if scopes.len() > 1 => {
                scopes.pop();
            }
            TokKind::Ident(s) if s == "let" && !st.in_test(i) => {
                // binding name: first ident after `let`, skipping `mut`
                let mut j = i + 1;
                let mut name = None;
                while j < toks.len() && j < i + 6 {
                    match &toks[j].kind {
                        TokKind::Ident(m) if m == "mut" => {}
                        TokKind::Ident(n) => {
                            name = Some(n.clone());
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                // Scan the initializer (to `;` or a body-opening `{` at
                // this nesting level) for a guard-producing method call.
                // The guard must be the *final* call of its chain: in
                // `let v = c.borrow().clone()` the temporary guard dies
                // at the end of the statement and `v` is a plain value.
                let mut depth = 0i32;
                let mut method: Option<(String, i32)> = None;
                let mut k = j;
                while k < toks.len() {
                    match &toks[k].kind {
                        TokKind::Punct(b'{') if depth == 0 => break,
                        TokKind::Punct(b'{') | TokKind::Punct(b'(') => depth += 1,
                        TokKind::Punct(b'}') | TokKind::Punct(b')') => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        TokKind::Punct(b';') if depth == 0 => break,
                        TokKind::Ident(m) if k > 0 && toks[k - 1].kind.is_punct(b'.') => {
                            if GUARD_METHODS.contains(&m.as_str()) {
                                method = Some((m.clone(), depth));
                            } else if let Some((_, d)) = &method {
                                if depth <= *d {
                                    // a later call consumed the guard
                                    method = None;
                                }
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let method = method.map(|(m, _)| m);
                if let (Some(name), Some(method)) = (name, method) {
                    let conditional = i > 0
                        && matches!(&toks[i - 1].kind,
                            TokKind::Ident(p) if p == "if" || p == "while");
                    let g = Guard {
                        name,
                        method,
                        line: toks[i].line,
                        live_from: k,
                        dropped: false,
                    };
                    if conditional {
                        pending_cond.push(g);
                    } else if let Some(scope) = scopes.last_mut() {
                        scope.guards.push(g);
                    }
                }
            }
            // `drop(name)` releases the guard early
            TokKind::Ident(s)
                if s == "drop"
                    && toks
                        .get(i + 1)
                        .map(|t| t.kind.is_punct(b'('))
                        .unwrap_or(false) =>
            {
                if let Some(TokKind::Ident(n)) = toks.get(i + 2).map(|t| &t.kind) {
                    for scope in scopes.iter_mut() {
                        for g in scope.guards.iter_mut() {
                            if &g.name == n {
                                g.dropped = true;
                            }
                        }
                    }
                }
            }
            TokKind::Ident(s)
                if s == "await" && i > 0 && toks[i - 1].kind.is_punct(b'.') && !st.in_test(i) =>
            {
                // walk scopes innermost-out, stopping at the nearest
                // async-block barrier (outer guards belong to the
                // spawning task, not this await's task)
                for scope in scopes.iter().rev() {
                    for g in &scope.guards {
                        if !g.dropped && i > g.live_from {
                            out.push(FamilyHit {
                                rule: A01_ID,
                                line: toks[i].line,
                                col: toks[i].col,
                                what: format!(
                                    "guard `{}` ({}(), bound line {}) live across .await",
                                    g.name, g.method, g.line
                                ),
                                audited: None,
                                sanctioned: false,
                            });
                        }
                    }
                    if scope.barrier {
                        break;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// C01 — charge-accounting
// ---------------------------------------------------------------------

/// Byte-iterating machinery: an async fn touching any of these is
/// walking payload bytes (or delegating to something that does).
const ITER_MARKERS: [&str; 10] = [
    "csum64",
    "csum64_bytes",
    "csum_fold_pattern",
    "csum_fold",
    "pattern_block",
    "PatternWords",
    "materialize",
    "verify_range",
    "chunks_exact",
    "inject_rot",
];

/// Charged cost-engine entry points: reaching one of these means the
/// simulated clock pays for the bytes walked.
const CHARGE_MARKERS: [&str; 10] = [
    "read_payload",
    "write_payload",
    "index_update",
    "meta_op",
    "transfer",
    "occupy",
    "reserve_after",
    "ns_for",
    "charge",
    "scm",
];

fn c01(rel_path: &str, lx: &Lexed, st: &Structure, out: &mut Vec<FamilyHit>) {
    if !C01_ZONE.iter().any(|z| rel_path.starts_with(z)) {
        return;
    }
    let toks = &lx.tokens;
    for f in &st.fns {
        if !f.is_async || f.in_test {
            continue;
        }
        let Some(bi) = f.body else { continue };
        let b = &st.blocks[bi];
        let body = &toks[b.open_tok..b.close_tok.min(toks.len())];
        let has = |set: &[&str]| {
            body.iter().any(|t| match &t.kind {
                TokKind::Ident(s) => set.contains(&s.as_str()),
                _ => false,
            })
        };
        if has(&ITER_MARKERS) && !has(&CHARGE_MARKERS) {
            out.push(FamilyHit {
                rule: C01_ID,
                line: f.line,
                col: 1,
                what: format!("async fn `{}` iterates payload bytes but never reaches the charged cost engine", f.name),
                audited: None,
                sanctioned: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::structure::build;

    fn run(path: &str, src: &str) -> Vec<FamilyHit> {
        let lx = lex(src);
        let st = build(&lx);
        check(path, &lx, &st)
    }

    fn rules(hits: &[FamilyHit]) -> Vec<&str> {
        hits.iter()
            .filter(|h| h.audited.is_none() && !h.sanctioned)
            .map(|h| h.rule)
            .collect()
    }

    #[test]
    fn p01_flags_unwrap_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n  fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        let hits = run("crates/vos/src/x.rs", src);
        assert_eq!(rules(&hits), vec![P01_ID]);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn p01_invariant_comment_audits_one_site_each() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                     // INVARIANT: x checked Some by caller\n\
                     x.unwrap()\n\
                   }\n";
        let hits = run("crates/vos/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].audited.as_deref(), Some("x checked Some by caller"));
        // one comment cannot claim two sites
        let src2 = "fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n\
                      // INVARIANT: shared paragraph\n\
                      let x = a.unwrap();\n\
                      let y = b.unwrap();\n\
                      x + y\n\
                    }\n";
        let hits = run("crates/vos/src/x.rs", src2);
        assert_eq!(rules(&hits), vec![P01_ID]);
        assert_eq!(hits.iter().find(|h| h.audited.is_none()).unwrap().line, 4);
    }

    #[test]
    fn p01_macros_and_unwrap_or_variants() {
        let src = "fn f(x: u32) -> u32 {\n  if x > 9 { panic!(\"no\") }\n  x\n}\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        let hits = run("crates/sim/src/x.rs", src);
        assert_eq!(rules(&hits), vec![P01_ID]);
        assert_eq!(hits[0].what, "panic!");
    }

    #[test]
    fn p01_out_of_zone_is_silent() {
        assert!(run(
            "crates/bench/src/x.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }"
        )
        .is_empty());
    }

    #[test]
    fn u01_flags_cross_family_cast() {
        let src = "fn f(bytes: u64, bw: f64) -> u64 { (bytes as f64 * 1e9 / bw) as u64 }\n";
        let hits = run("crates/fabric/src/x.rs", src);
        assert_eq!(rules(&hits), vec![U01_ID]);
        assert!(hits[0].what.contains("bytes"), "{}", hits[0].what);
    }

    #[test]
    fn u01_single_family_cast_is_fine() {
        let src = "fn f(bytes: usize) -> u64 { bytes as u64 }\n";
        assert!(run("crates/fabric/src/x.rs", src).is_empty());
        // statistics over dimensionless counts: fine
        let src = "fn g(vals: &[f64]) -> f64 { vals.iter().sum::<f64>() / vals.len() as f64 }\n";
        assert!(run("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn u01_sanctioned_in_units_module() {
        let src =
            "pub fn ns_for(bytes: u64, bw: f64) -> u64 { (bytes as f64 * 1e9 / bw) as u64 }\n";
        let hits = run("crates/sim/src/units.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].sanctioned);
    }

    #[test]
    fn a01_flags_guard_live_across_await() {
        let src = "async fn f(c: RefCell<u32>) {\n\
                     let g = c.borrow_mut();\n\
                     step().await;\n\
                   }\n";
        let hits = run("crates/sim/src/x.rs", src);
        assert_eq!(rules(&hits), vec![A01_ID]);
        assert!(hits[0].what.contains("borrow_mut"));
    }

    #[test]
    fn a01_scoped_or_dropped_guard_is_fine() {
        let scoped = "async fn f(c: RefCell<u32>) {\n\
                        { let g = c.borrow_mut(); *g += 1; }\n\
                        step().await;\n\
                      }\n";
        assert!(run("crates/sim/src/x.rs", scoped).is_empty());
        let dropped = "async fn f(c: RefCell<u32>) {\n\
                         let g = c.borrow_mut();\n\
                         drop(g);\n\
                         step().await;\n\
                       }\n";
        assert!(run("crates/sim/src/x.rs", dropped).is_empty());
        // a temporary borrow that ends at the statement is fine
        let temp = "async fn f(c: RefCell<u32>) {\n\
                      *c.borrow_mut() += 1;\n\
                      step().await;\n\
                    }\n";
        assert!(run("crates/sim/src/x.rs", temp).is_empty());
    }

    #[test]
    fn c01_requires_charge_alongside_iteration() {
        let bad = "async fn materialize_all(&self, sim: &Sim) -> u64 {\n\
                     let h = csum64(&self.payload);\n\
                     h\n\
                   }\n";
        let hits = run("crates/vos/src/x.rs", bad);
        assert_eq!(rules(&hits), vec![C01_ID]);
        let good = "async fn materialize_all(&self, sim: &Sim) -> u64 {\n\
                      self.media.read_payload(sim, self.len).await;\n\
                      csum64(&self.payload)\n\
                    }\n";
        assert!(run("crates/vos/src/x.rs", good).is_empty());
        // sync helpers are the engine itself, not the IO path
        let sync_fn = "pub fn csum64(p: &[u8]) -> u64 { csum_fold(p) }\n";
        assert!(run("crates/vos/src/x.rs", sync_fn).is_empty());
    }
}
