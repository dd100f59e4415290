//! Fixture-based self-tests: each per-rule good/bad snippet under
//! `fixtures/` must produce exactly the expected hits, and the committed
//! workspace itself must scan clean — `cargo test -p simlint` is the same
//! gate CI runs via the binary.

use std::path::{Path, PathBuf};

use simlint::{analyze_files, analyze_source, default_files, render_report, workspace_root};

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    // fixtures are analyzed as if they sat in a sim-facing crate
    (format!("crates/sim/src/{name}"), src)
}

fn rules_hit(name: &str) -> Vec<(String, u32)> {
    let (path, src) = fixture(name);
    analyze_source(&path, &src)
        .violations
        .iter()
        .map(|h| (h.rule.to_string(), h.line))
        .collect()
}

fn assert_clean(name: &str) {
    let (path, src) = fixture(name);
    let fr = analyze_source(&path, &src);
    assert!(
        fr.violations.is_empty(),
        "{name} should be clean, got {:?}",
        fr.violations
    );
}

#[test]
fn d01_bad_flags_every_hash_collection_use() {
    let hits = rules_hit("d01_bad.rs");
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "D01"));
}

#[test]
fn d01_ok_lexer_cases_are_invisible() {
    assert_clean("d01_ok.rs");
}

#[test]
fn d02_bad_flags_instant_now_and_systemtime() {
    let hits = rules_hit("d02_bad.rs");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "D02"));
}

#[test]
fn d02_waived_is_clean_and_counted() {
    assert_clean("d02_waived.rs");
    let (path, src) = fixture("d02_waived.rs");
    let fr = analyze_source(&path, &src);
    assert_eq!(fr.waived.len(), 2, "{:?}", fr.waived);
    assert!(fr.waived.iter().all(|h| h.reason.is_some()));
}

#[test]
fn d03_bad_flags_ambient_randomness() {
    let hits = rules_hit("d03_bad.rs");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "D03"));
}

#[test]
fn d04_bad_flags_threads_outside_bench_but_sanctions_bench() {
    let hits = rules_hit("d04_bad.rs");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "D04"));
    // the same source inside the bench crate is sanctioned, not a violation
    let (_, src) = fixture("d04_bad.rs");
    let fr = analyze_source("crates/bench/src/sweep.rs", &src);
    assert!(fr.violations.is_empty());
    assert_eq!(fr.sanctioned.len(), 3);
}

#[test]
fn d05_bad_flags_missing_and_shared_safety() {
    let hits = rules_hit("d05_bad.rs");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "D05"));
}

#[test]
fn d05_ok_per_block_safety_passes() {
    assert_clean("d05_ok.rs");
}

#[test]
fn d00_bad_flags_pragma_hygiene() {
    let hits = rules_hit("d00_bad.rs");
    let d00 = hits.iter().filter(|(r, _)| r == "D00").count();
    let d02 = hits.iter().filter(|(r, _)| r == "D02").count();
    assert_eq!((d00, d02), (3, 1), "{hits:?}");
}

#[test]
fn lexer_torture_is_clean() {
    assert_clean("lexer_torture.rs");
}

#[test]
fn p01_bad_flags_unaudited_panic_sites() {
    let hits = rules_hit("p01_bad.rs");
    assert_eq!(hits.len(), 5, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "P01"));
    // the shared INVARIANT paragraph claims only the first site
    let (path, src) = fixture("p01_bad.rs");
    let fr = analyze_source(&path, &src);
    assert_eq!(fr.audited.len(), 1, "{:?}", fr.audited);
}

#[test]
fn p01_ok_audits_tests_and_lookalikes_pass() {
    assert_clean("p01_ok.rs");
    let (path, src) = fixture("p01_ok.rs");
    let fr = analyze_source(&path, &src);
    assert_eq!(fr.audited.len(), 2, "{:?}", fr.audited);
    assert!(fr.audited.iter().all(|h| h.reason.is_some()));
}

#[test]
fn u01_bad_flags_cross_family_casts() {
    let hits = rules_hit("u01_bad.rs");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "U01"));
}

#[test]
fn u01_ok_single_family_and_typed_pass() {
    assert_clean("u01_ok.rs");
}

#[test]
fn a01_bad_flags_guards_held_across_await() {
    let hits = rules_hit("a01_bad.rs");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| r == "A01"));
}

#[test]
fn a01_ok_scoped_dropped_extracted_isolated_pass() {
    assert_clean("a01_ok.rs");
}

#[test]
fn c01_bad_flags_uncharged_iteration() {
    // C01's zone is vos/media, so these fixtures analyze under vos
    let (_, src) = fixture("c01_bad.rs");
    let fr = analyze_source("crates/vos/src/c01_bad.rs", &src);
    let hits: Vec<_> = fr.violations.iter().map(|h| h.rule).collect();
    assert_eq!(hits, vec!["C01", "C01"], "{:?}", fr.violations);
}

#[test]
fn c01_ok_charged_sync_and_test_code_pass() {
    let (_, src) = fixture("c01_ok.rs");
    let fr = analyze_source("crates/vos/src/c01_ok.rs", &src);
    assert!(fr.violations.is_empty(), "{:?}", fr.violations);
}

#[test]
fn bad_fixtures_gate_the_exit_path() {
    // what CI's negative smoke check relies on: analyzing a planted
    // fixture yields a nonzero violation count through render_report
    for name in [
        "d01_bad.rs",
        "d02_bad.rs",
        "d03_bad.rs",
        "d04_bad.rs",
        "d05_bad.rs",
        "d00_bad.rs",
        "p01_bad.rs",
        "u01_bad.rs",
        "a01_bad.rs",
    ] {
        let (path, src) = fixture(name);
        let (_, n) = render_report(&[analyze_source(&path, &src)]);
        assert!(n > 0, "{name} must gate");
    }
    let (_, src) = fixture("c01_bad.rs");
    let (_, n) = render_report(&[analyze_source("crates/vos/src/c01_bad.rs", &src)]);
    assert!(n > 0, "c01_bad.rs must gate");
}

#[test]
fn committed_workspace_scans_clean() {
    let root = workspace_root().expect("workspace root");
    let files = default_files(&root);
    assert!(
        files.len() > 50,
        "workspace walk looks truncated: {} files",
        files.len()
    );
    assert!(
        files.iter().all(|f| !f.components().any(|c| {
            let c = c.as_os_str().to_string_lossy();
            c == "fixtures" || c == "vendor" || c == "target"
        })),
        "walk must skip fixtures/, vendor/ and target/"
    );
    // dogfood: exactly what CI runs
    let reports = analyze_files(&root, &files);
    let (text, violations) = render_report(&reports);
    assert_eq!(violations, 0, "workspace must lint clean:\n{text}");
    // C01 (media charge accounting) carries zero debt in any bucket:
    // scrubber and rebuild media traffic route through the engine's
    // charged-cost path, so nothing in the media zone needs a waiver
    // or — worst of all — an unwaived violation.
    let c01 = |hits: &[simlint::Hit]| hits.iter().filter(|h| h.rule == "C01").count();
    for fr in &reports {
        assert_eq!(
            c01(&fr.violations) + c01(&fr.waived),
            0,
            "{}: media-charge debt must stay at zero (no C01 violations or waivers)",
            fr.path
        );
    }
}

#[test]
fn explicit_path_args_bypass_the_fixtures_skip() {
    let bad = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("d01_bad.rs");
    let root = workspace_root().expect("workspace root");
    let files: Vec<PathBuf> = simlint::collect_paths(&[bad]);
    assert_eq!(files.len(), 1);
    let reports = analyze_files(&root, &files);
    let (_, violations) = render_report(&reports);
    assert!(violations > 0);
}
