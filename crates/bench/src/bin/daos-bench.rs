//! `daos-bench` — run, list and gate the figures of [`daos_bench::FIGURES`].
//!
//! ```text
//! daos-bench list                       # the table, audited against results/
//! daos-bench <figure>                   # one figure
//! daos-bench <figure> --compare-only    # re-print + re-check a previous run's report
//! daos-bench regress                    # the CI gate
//! daos-bench regress --update           # rewrite the committed reports
//! daos-bench regress --compare-only     # re-diff a previous run's reports
//! ```
//!
//! (`cargo run -p daos-bench --release -- <args>` from the repo root, or
//! `target/release/daos-bench <args>` after a release build.)
//!
//! **A figure** runs its cells as one parallel job slate, prints the
//! report as CSV tables (plus ASCII charts for the paper's Figures 1–2),
//! evaluates its checks as `[PASS]`/`[FAIL]` lines, writes
//! `BENCH_<figure>.json` to `$DAOS_BENCH_OUT` (default `target/bench/`)
//! and exits 1 if any check failed.
//!
//! **`regress`** runs every figure's full plan as one slate,
//! compares each fresh report byte for byte with the committed
//! `results/BENCH_<figure>.json`, evaluates every figure's checks, and
//! exits nonzero naming each differing cell or failed check. The simulator
//! is deterministic and the slate reduces in submission order, so an
//! unchanged tree reproduces its reports exactly *at any thread count*;
//! a PR that moves a figure rewrites them *intentionally* with `--update`,
//! the one writer of `results/`, which also rewrites each
//! `results/<figure>.txt` with what `daos-bench <figure>` prints.
//! `--update` refuses to write from a dirty working tree (the reports'
//! provenance must be reproducible from a commit) unless `--allow-dirty`.
//! Fresh reports, `drift.txt` and per-job wall times (`timing.txt`) land
//! in `$DAOS_BENCH_OUT` (default `target/regress/`) for CI to upload.
//!
//! `--threads N` pins the slate width of any command; the default is the
//! host's available parallelism and `1` is serial. Every check reads the
//! report, so `--compare-only` prints what the live run printed. Any
//! other flag, a switch given a value, a flag given twice or a stray word
//! exits 2 ([`daos_bench::cli::Args`]).

use std::path::{Path, PathBuf};

use daos_bench::baseline::drift;
use daos_bench::cli::Args;
use daos_bench::figure::{
    find, out_dir, render, render_verdicts, run_figures, table_problems, Figure, FigureRun, Scale,
};
use daos_bench::FIGURES;

/// The committed reports `regress` compares against and `--update` writes.
const RESULTS_DIR: &str = "results";

fn die(msg: &str) -> ! {
    eprintln!("daos-bench: {msg}");
    eprintln!("usage: daos-bench list | <figure> [--compare-only] | regress [--update [--allow-dirty]] [--compare-only]   (all: [--threads N])");
    std::process::exit(2);
}

struct Opts {
    /// Slate width (`--threads N`).
    threads: usize,
    compare_only: bool,
    update: bool,
    allow_dirty: bool,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.split_first();
    let Some((cmd, rest)) = first.filter(|(cmd, _)| !cmd.starts_with("--")) else {
        die("expected a command before any flag")
    };
    let switches: &[&str] = match cmd.as_str() {
        "list" => &[],
        "regress" => &["compare-only", "update", "allow-dirty"],
        _ => &["compare-only"],
    };
    let args = Args::parse(rest, switches, &["threads"]).unwrap_or_else(|e| die(&e));
    let host = std::thread::available_parallelism().map_or(4, |p| p.get());
    let threads = args.parsed("threads", host).ok().filter(|&n| n > 0);
    let o = Opts {
        threads: threads.unwrap_or_else(|| die("--threads needs a positive integer")),
        compare_only: args.has("compare-only"),
        update: args.has("update"),
        allow_dirty: args.has("allow-dirty"),
    };
    match cmd.as_str() {
        "list" => list(),
        "regress" => regress(&o),
        name => match find(name) {
            Some(figure) => standalone(figure, &o),
            None => die(&format!("no figure named {name:?} (see `daos-bench list`)")),
        },
    }
}

/// Print the table; exit 1 if it disagrees with itself or with the
/// committed reports.
fn list() -> ! {
    println!(
        "{:<17} {:>8}  {:<16} about",
        "figure", "seed", "cells full/smoke"
    );
    for f in FIGURES {
        let [full, smoke] = Scale::ALL.map(|s| (f.plan)(s).cells.len());
        let cells = format!("{full}/{smoke}");
        println!("{:<17} {:>#8x}  {cells:<16} {}", f.name, f.seed, f.about);
    }
    let problems = table_problems(FIGURES, Path::new(RESULTS_DIR));
    for p in &problems {
        eprintln!("daos-bench list: {p}");
    }
    std::process::exit(if problems.is_empty() { 0 } else { 1 });
}

/// What `daos-bench <figure>` prints and `results/<figure>.txt` holds: the
/// report's tables, then its checks.
fn printout(run: &FigureRun) -> String {
    let checks = render_verdicts(&run.figure.verdicts(&run.report));
    format!("{}\n{checks}", render(run.figure, &run.report))
}

/// Run (or reload) one figure, print it, evaluate its checks.
fn standalone(figure: &'static Figure, o: &Opts) -> ! {
    let dir = out_dir();
    let run = if o.compare_only {
        let Some(dir) = &dir else {
            die("--compare-only with an empty DAOS_BENCH_OUT has nothing to load")
        };
        FigureRun::load(figure, dir).unwrap_or_else(|e| {
            eprintln!("daos-bench: --compare-only needs a prior run's report: {e}");
            std::process::exit(2);
        })
    } else {
        eprintln!("{}: running on {} thread(s)...", figure.name, o.threads);
        let mut slate = run_figures(&[(figure, Scale::Full)], o.threads);
        eprintln!(
            "{}: {} jobs, serial-equivalent {:.1}s, elapsed {:.1}s",
            figure.name,
            slate.timings.len(),
            slate.serial_secs(),
            slate.elapsed_secs
        );
        slate.figures.remove(0)
    };

    print!("{}", printout(&run));

    if let (false, Some(dir)) = (o.compare_only, &dir) {
        match run.report.write_to(dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_{}.json: {e}", figure.name);
                std::process::exit(1);
            }
        }
    }
    let failed = run
        .figure
        .verdicts(&run.report)
        .iter()
        .filter(|v| !v.pass)
        .count();
    if failed > 0 {
        eprintln!("{failed} check(s) failed");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Committed reports are provenance: a figure someone can reproduce by
/// checking out the commit that shipped it. Refuse to write them from
/// uncommitted state.
fn refuse_dirty_tree() {
    match std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
    {
        Ok(o) if o.status.success() => {
            let dirty = String::from_utf8_lossy(&o.stdout);
            let dirty = dirty.trim();
            if !dirty.is_empty() {
                eprintln!(
                    "regress: --update refused — the working tree has uncommitted changes:\n{dirty}"
                );
                eprintln!(
                    "regress: commit first so the new reports are reproducible, or pass --allow-dirty"
                );
                std::process::exit(2);
            }
        }
        _ => eprintln!(
            "regress: warning: cannot check working-tree cleanliness (git unavailable); proceeding"
        ),
    }
}

/// The CI gate: every figure's full plan, run → compare with its
/// committed report → checks.
fn regress(o: &Opts) -> ! {
    if o.update && o.compare_only {
        die("--update needs a live sweep; drop --compare-only");
    }
    if o.update && !o.allow_dirty {
        refuse_dirty_tree();
    }
    let out = std::env::var("DAOS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/regress"));

    let wanted: Vec<(&'static Figure, Scale)> = FIGURES.iter().map(|f| (f, Scale::Full)).collect();

    // ---- every figure, one parallel slate -----------------------------
    let runs: Vec<FigureRun> = if o.compare_only {
        wanted
            .iter()
            .map(|(f, _)| {
                FigureRun::load(f, &out).unwrap_or_else(|e| {
                    eprintln!(
                        "regress: --compare-only needs a prior run's reports in {}: {e}",
                        out.display()
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    } else {
        eprintln!(
            "regress: running {} figure(s) on {} thread(s)...",
            wanted.len(),
            o.threads
        );
        let slate = run_figures(&wanted, o.threads);
        eprintln!(
            "regress: slate done — {} jobs, serial-equivalent {:.1}s, elapsed {:.1}s ({:.2}x on {} thread(s))",
            slate.timings.len(),
            slate.serial_secs(),
            slate.elapsed_secs,
            slate.speedup(),
            slate.threads,
        );
        // persist fresh reports + per-job wall times for CI artifacts
        let written = slate
            .figures
            .iter()
            .try_for_each(|r| r.report.write_to(&out).map(drop))
            .and_then(|_| std::fs::write(out.join("timing.txt"), slate.timing_table()));
        if let Err(e) = written {
            eprintln!("regress: cannot write artifacts to {}: {e}", out.display());
            std::process::exit(2);
        }
        slate.figures
    };

    if o.update {
        for run in &runs {
            let txt = Path::new(RESULTS_DIR).join(format!("{}.txt", run.figure.name));
            let written = run
                .report
                .write_to(Path::new(RESULTS_DIR))
                .and_then(|path| std::fs::write(&txt, printout(run)).map(|_| path));
            match written {
                Ok(path) => println!("report updated: {} and {}", path.display(), txt.display()),
                Err(e) => {
                    eprintln!("regress: cannot write report: {e}");
                    std::process::exit(2);
                }
            }
        }
        println!(
            "\nreports regenerated — commit {RESULTS_DIR}/BENCH_*.json and {RESULTS_DIR}/*.txt"
        );
        std::process::exit(0);
    }

    // ---- every report byte for byte against the committed one ---------
    let mut drift_text = String::new();
    let mut differing = 0usize;
    println!("== reports vs {RESULTS_DIR}/, byte for byte ==");
    for FigureRun { report, .. } in &runs {
        let path = Path::new(RESULTS_DIR).join(format!("BENCH_{}.json", report.name));
        let table = match std::fs::read_to_string(&path) {
            Ok(text) => drift(report, &text),
            Err(e) => Some(format!(
                "-- {}: no baseline ({e}) — run `daos-bench regress --update` and commit --\n",
                report.name
            )),
        };
        match table {
            None => println!("-- {}: identical --", report.name),
            Some(table) => {
                differing += 1;
                print!("{table}");
                drift_text.push_str(&table);
            }
        }
    }
    let _ = std::fs::write(out.join("drift.txt"), &drift_text);

    // ---- every figure's checks ----------------------------------------
    let mut check_failures = 0usize;
    for run in &runs {
        println!("\n== {} checks ==", run.figure.name);
        let verdicts = run.figure.verdicts(&run.report);
        print!("{}", render_verdicts(&verdicts));
        check_failures += verdicts.iter().filter(|v| !v.pass).count();
    }

    // ---- verdict -----------------------------------------------------
    println!(
        "\nregress: {differing} of {} report(s) differ from their baselines, {check_failures} failed check(s)",
        runs.len()
    );
    if differing > 0 || check_failures > 0 {
        eprintln!(
            "regress: FAILED — see drift table above (artifacts in {})",
            out.display()
        );
        std::process::exit(1);
    }
    println!(
        "regress: OK — every report is byte-identical to its baseline and all invariants hold"
    );
    std::process::exit(0);
}
