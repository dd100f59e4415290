//! # simlint — the workspace unit-safety gate (U01)
//!
//! Every reproduced claim in this repo rests on the simulator being
//! bit-exact for a given seed. Clippy enforces that contract (DESIGN.md
//! §8): the root `clippy.toml` bans hash collections, wall clocks, ambient
//! randomness and host threads (D01–D04), `daos-sim` denies undocumented
//! `unsafe` blocks (D05), the simulation-visible crates deny the panic
//! lints (P01), and a waiver is an `#[expect(…, reason = "…")]` that fails
//! once it waives nothing (D00).
//!
//! One rule is left that clippy cannot state, and simlint checks it with a
//! hand-rolled lexer ([`lexer`]) — no `syn`, no dependencies:
//!
//! | rule | contract |
//! |------|----------|
//! | U01  | no raw numeric cast in a statement mixing bytes/nanoseconds/rate vocabulary — use `sim::units` newtypes |
//!
//! Test code is exempt ([`structure`] finds it). The blessed conversion
//! modules (`sim::units`, `sim::time`) cast at the boundary by design: their
//! hits are reported as sanctioned and do not gate. Everything else gates at
//! zero hits.

#![forbid(unsafe_code)]

pub mod families;
pub mod lexer;
pub mod structure;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One U01 hit with its location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hit {
    pub line: u32,
    pub col: u32,
    /// What matched (`` `as f64` in a rate×bytes statement ``).
    pub what: String,
}

/// Per-file analysis result.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    pub path: String,
    /// These gate the exit code.
    pub violations: Vec<Hit>,
    /// Hits inside the blessed conversion modules.
    pub sanctioned: Vec<Hit>,
}

/// Analyze one file's source. `rel_path` is the workspace-relative,
/// `/`-separated path that decides the rule's zone.
pub fn analyze_source(rel_path: &str, src: &str) -> FileReport {
    let lx = lexer::lex(src);
    let tests = structure::test_ranges(&lx);
    let hits = families::u01(rel_path, &lx, &tests);
    let mut out = FileReport {
        path: rel_path.to_string(),
        ..Default::default()
    };
    if families::U01_SANCTIONED.contains(&rel_path) {
        out.sanctioned = hits;
    } else {
        out.violations = hits;
    }
    out
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

/// Directory names never descended into during the default walk.
/// `fixtures` holds planted violations; `vendor` holds offline stand-ins
/// for external crates (not workspace sources).
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

/// Analyze files, reporting paths relative to `root` where possible. An
/// unreadable file is a violation: the gate cannot vouch for it.
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
                path: rel,
                violations: vec![Hit {
                    line: 0,
                    col: 0,
                    what: format!("unreadable source file: {e}"),
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

/// Render the report. Returns `(text, violation_count)`.
pub fn render_report(reports: &[FileReport]) -> (String, usize) {
    let violations: usize = reports.iter().map(|fr| fr.violations.len()).sum();
    let sanctioned: usize = reports.iter().map(|fr| fr.sanctioned.len()).sum();
    let mut s = String::new();
    let _ = writeln!(s, "simlint: {} file(s) scanned", reports.len());
    if violations > 0 {
        let _ = writeln!(s, "\n{} — {}", families::U01_ID, families::U01_TITLE);
        for fr in reports {
            for h in &fr.violations {
                let _ = writeln!(s, "  {}:{}:{}  {}", fr.path, h.line, h.col, h.what);
            }
        }
    }
    if sanctioned > 0 {
        let _ = writeln!(s, "\nsanctioned in the conversion modules ({sanctioned}):");
        for fr in reports {
            for h in &fr.sanctioned {
                let _ = writeln!(s, "  {}:{}  {}", fr.path, h.line, h.what);
            }
        }
    }
    let _ = writeln!(
        s,
        "\nsummary: {violations} violation(s), {sanctioned} sanctioned"
    );
    (s, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_hits() {
        let fr = analyze_source(
            "crates/sim/src/x.rs",
            "use std::collections::BTreeMap;\nfn f(bytes: u64) -> u64 { let _m: BTreeMap<u32, u32> = BTreeMap::new(); bytes }\n",
        );
        assert!(fr.violations.is_empty() && fr.sanctioned.is_empty());
    }

    #[test]
    fn report_counts_and_exit_gate() {
        let fr = analyze_source(
            "crates/sim/src/x.rs",
            "fn f(bytes: u64, bw: f64) -> u64 {\n    (bytes as f64 / bw) as u64\n}\n",
        );
        let (text, n) = render_report(&[fr]);
        assert_eq!(n, 1);
        assert!(text.contains("U01"));
        assert!(text.contains("crates/sim/src/x.rs:2"));
        // the same cast in the conversion module is reported, not counted
        let fr = analyze_source(
            "crates/sim/src/units.rs",
            "fn f(bytes: u64, bw: f64) -> u64 {\n    (bytes as f64 / bw) as u64\n}\n",
        );
        let (text, n) = render_report(&[fr]);
        assert_eq!(n, 0);
        assert!(text.contains("1 sanctioned"), "{text}");
    }
}
