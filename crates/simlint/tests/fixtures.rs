//! Fixture-based self-tests: the planted U01 snippets under `fixtures/`
//! must produce exactly the expected hits, and the committed workspace
//! itself must scan clean — `cargo test -p simlint` is the same gate CI
//! runs via the binary.

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

fn lines_hit(name: &str) -> Vec<u32> {
    let (path, src) = fixture(name);
    analyze_source(&path, &src)
        .violations
        .iter()
        .map(|h| h.line)
        .collect()
}

#[test]
fn lexer_torture_is_clean() {
    assert_eq!(lines_hit("lexer_torture.rs"), Vec::<u32>::new());
}

#[test]
fn u01_bad_flags_cross_family_casts() {
    assert_eq!(lines_hit("u01_bad.rs"), vec![4, 8]);
}

#[test]
fn u01_ok_single_family_and_typed_pass() {
    assert_eq!(lines_hit("u01_ok.rs"), Vec::<u32>::new());
}

#[test]
fn bad_fixtures_gate_the_exit_path() {
    // what CI's negative smoke check relies on: analyzing the planted
    // fixture yields a nonzero violation count through render_report
    let (path, src) = fixture("u01_bad.rs");
    let (_, n) = render_report(&[analyze_source(&path, &src)]);
    assert!(n > 0, "u01_bad.rs must gate");
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
}

#[test]
fn explicit_path_args_bypass_the_fixtures_skip() {
    let bad = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("u01_bad.rs");
    let root = workspace_root().expect("workspace root");
    let files: Vec<PathBuf> = simlint::collect_paths(&[bad]);
    assert_eq!(files.len(), 1);
    let reports = analyze_files(&root, &files);
    let (_, violations) = render_report(&reports);
    assert!(violations > 0);
}
