//! `simlint` CLI — the unit-safety (U01) gate.
//!
//! ```text
//! cargo run -p simlint --release                       # scan the workspace
//! cargo run -p simlint --release -- path/to/file.rs    # scan explicit paths
//! ```
//!
//! Exit codes: `0` clean, `1` at least one violation, `2` usage or I/O
//! error. Explicit path arguments bypass the `fixtures/` skip so CI can
//! smoke-check the gate against a planted violation.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{analyze_files, collect_paths, default_files, render_report, workspace_root};

const USAGE: &str = "usage: simlint [PATHS...]
  PATHS              .rs files or directories to scan (default: the workspace's
                     crates/, tests/ and examples/, skipping target/, vendor/
                     and fixtures/)";

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("simlint: unknown flag {flag:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    let Some(root) = workspace_root() else {
        eprintln!("simlint: no workspace root found (no ancestor Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };
    let files = if paths.is_empty() {
        default_files(&root)
    } else {
        collect_paths(&paths)
    };
    if files.is_empty() {
        eprintln!("simlint: nothing to scan");
        return ExitCode::from(2);
    }

    let (text, violations) = render_report(&analyze_files(&root, &files));
    print!("{text}");
    if violations > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
