//! U01 unit-safety: the one rule of the determinism and unit contract
//! (DESIGN.md §8) that clippy cannot state, because it is about the
//! *vocabulary* of a statement, not its types.
//!
//! | rule | contract |
//! |------|----------|
//! | U01  | no raw `as u64/usize/f64/…` cast in a statement that mixes the bytes, nanoseconds and rate vocabularies — route the arithmetic through `sim::units` instead |
//!
//! The vocabularies match whole identifiers only, so a cast over names
//! outside them (`copy_bytes`, `xstream_copy_bw`) goes unseen. Test code
//! (`#[test]` fns, `#[cfg(test)]` modules) is exempt.

use crate::lexer::{Lexed, TokKind};
use crate::structure::TestRanges;
use crate::Hit;

pub const U01_ID: &str = "U01";
pub const U01_TITLE: &str = "no raw casts across bytes/nanoseconds/rate unit boundaries";

/// Where U01 applies: the simulation-visible crates, the bench layer
/// (figures do unit arithmetic too), and the planted fixtures, which the
/// default walk skips and an explicit path argument reaches.
pub const U01_ZONE: [&str; 10] = [
    "crates/simlint/fixtures/",
    "crates/sim/src/",
    "crates/core/src/",
    "crates/fabric/src/",
    "crates/vos/src/",
    "crates/dfs/src/",
    "crates/media/src/",
    "crates/placement/src/",
    "crates/raft/src/",
    "crates/bench/src/",
];

/// Blessed conversion modules: the newtypes themselves must cast at the
/// boundary, so raw casts there are *sanctioned*, not violations.
pub const U01_SANCTIONED: [&str; 2] = ["crates/sim/src/units.rs", "crates/sim/src/time.rs"];

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

/// Every U01 hit in one lexed file (none outside [`U01_ZONE`]).
pub fn u01(rel_path: &str, lx: &Lexed, tests: &TestRanges) -> Vec<Hit> {
    let mut out = Vec::new();
    if !U01_ZONE.iter().any(|z| rel_path.starts_with(z)) {
        return out;
    }
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
        if stmt.is_empty() || tests.contains(stmt_start) {
            continue;
        }
        // find raw casts `as <numeric>`
        let mut casts: Vec<(usize, &str)> = Vec::new();
        for k in 0..stmt.len().saturating_sub(1) {
            if stmt[k].kind.is_ident("as") {
                if let TokKind::Ident(t) = &stmt[k + 1].kind {
                    if CAST_TYPES.contains(&t.as_str()) {
                        casts.push((k, t));
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
        let (k, target) = casts[0];
        out.push(Hit {
            line: stmt[k].line,
            col: stmt[k].col,
            what: format!("`as {target}` in a {} statement", fams.join("×")),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::structure::test_ranges;

    fn run(path: &str, src: &str) -> Vec<Hit> {
        let lx = lex(src);
        u01(path, &lx, &test_ranges(&lx))
    }

    #[test]
    fn u01_flags_cross_family_cast() {
        let src = "fn f(bytes: u64, bw: f64) -> u64 { (bytes as f64 * 1e9 / bw) as u64 }\n";
        let hits = run("crates/fabric/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].what.contains("bytes"), "{}", hits[0].what);
        // the same statement in a test, or outside the zone, is silent
        let test = format!("#[test]\n{src}");
        assert!(run("crates/fabric/src/x.rs", &test).is_empty());
        assert!(run("crates/dfuse/src/x.rs", src).is_empty());
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
        let fr = crate::analyze_source("crates/sim/src/units.rs", src);
        assert_eq!((fr.violations.len(), fr.sanctioned.len()), (0, 1));
    }
}
