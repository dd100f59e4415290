//! `simlint` CLI — the determinism & unsafe-audit gate.
//!
//! ```text
//! cargo run -p simlint --release                       # scan the workspace
//! cargo run -p simlint --release -- path/to/file.rs    # scan explicit paths
//! cargo run -p simlint --release -- --report out.txt   # also write the report
//! cargo run -p simlint --release -- --json out.json    # machine-readable report
//! ```
//!
//! Exit codes: `0` clean, `1` at least one unwaived violation, `2` usage
//! or I/O error. Explicit path arguments bypass the `fixtures/` skip so
//! CI can smoke-check the gate against a planted violation.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::json::render_json;
use simlint::{analyze_files, collect_paths, default_files, render_report, workspace_root};

const USAGE: &str = "usage: simlint [PATHS...] [--report FILE] [--json FILE]
  PATHS              .rs files or directories to scan (default: the workspace's
                     crates/, tests/ and examples/, skipping target/, vendor/
                     and fixtures/)
  --report FILE      also write the text report to FILE (parent dirs created)
  --json FILE        also write the machine-readable JSON report to FILE";

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut report_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--report" => match args.next() {
                Some(p) => report_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --report needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --json needs a file argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
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

    let reports = analyze_files(&root, &files);
    let (text, violations) = render_report(&reports);
    print!("{text}");
    if let Some(path) = report_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("simlint: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = json_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, render_json(&reports)) {
            eprintln!("simlint: cannot write JSON report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if violations > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
