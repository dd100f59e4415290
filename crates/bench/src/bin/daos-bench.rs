//! `daos-bench` — run, list and gate the figures of [`daos_bench::FIGURES`].
//!
//! ```text
//! daos-bench list                       # the table, audited against results/baselines/
//! daos-bench <figure>                   # one figure at full scale
//! daos-bench <figure> --reduced         # ... at the CI gate's reduced scale
//! daos-bench <figure> --compare-only    # re-print + re-check a previous run's report
//! daos-bench regress                    # the CI perf gate
//! daos-bench regress --update           # new baselines
//! daos-bench regress --compare-only     # re-diff a previous run's reports
//! daos-bench regress --nightly          # + the nightly-gated figures (scale tier)
//! ```
//!
//! (`cargo run -p daos-bench --release -- <args>` from the repo root, or
//! `target/release/daos-bench <args>` after a release build.)
//!
//! **A figure** runs its cells as one parallel job slate, prints the
//! report as CSV tables (plus ASCII charts for the paper's Figures 1–2),
//! evaluates its checks as `[PASS]`/`[FAIL]` lines, writes
//! `BENCH_<figure>.json` and exits 1 if any check failed. A full-scale
//! run from the repo root writes into `results/`; reduced runs write to
//! `target/bench/`; `$DAOS_BENCH_OUT` overrides both.
//!
//! **`regress`** runs every PR-gated figure at reduced scale as one slate,
//! compares each fresh report byte for byte with its committed baseline
//! in `results/baselines/`, evaluates every figure's checks, and exits
//! nonzero naming each differing cell or failed check. The simulator is
//! deterministic and the slate reduces in submission order, so an
//! unchanged tree reproduces its baselines exactly *at any thread count*;
//! a PR that moves a figure updates the baselines *intentionally*.
//! `--nightly` adds the nightly-gated entries (the 64–512-node scale
//! sweep, far heavier than the PR gate). `--update` refuses to mint
//! baselines from a dirty working tree (their provenance must be
//! reproducible from a commit) unless `--allow-dirty`.
//! Fresh reports, `drift.txt`, per-job wall times (`timing.txt`) and the
//! runner's own report (`BENCH_regress.json`) land in `$DAOS_BENCH_OUT`
//! (default `target/regress/`) for CI to upload.
//!
//! `--threads N` (or `BENCH_THREADS`) pins the slate width everywhere;
//! the default is the host's available parallelism and `1` is serial.
//! `--compare-only` simulates nothing, so the shape checks that ride out
//! of live cells (timeline and accounting checks) are skipped: it covers
//! drift and the report-level checks only.

use std::path::{Path, PathBuf};

use daos_bench::baseline::drift;
use daos_bench::exec;
use daos_bench::figure::{
    find, out_dir, render, render_verdicts, run_figures, table_problems, Figure, FigureRun, Gate,
    Scale,
};
use daos_bench::report::BenchReport;
use daos_bench::FIGURES;

const BASELINE_DIR: &str = "results/baselines";

fn die(msg: &str) -> ! {
    eprintln!("daos-bench: {msg}");
    eprintln!("usage: daos-bench list | <figure> [--reduced] [--compare-only] | regress [--update [--allow-dirty]] [--compare-only] [--nightly]   (all: [--threads N])");
    std::process::exit(2);
}

#[derive(Default)]
struct Opts {
    reduced: bool,
    compare_only: bool,
    update: bool,
    allow_dirty: bool,
    nightly: bool,
    /// Every flag given, for per-command validation.
    given: Vec<String>,
}

impl Opts {
    fn allow_only(&self, cmd: &str, allowed: &[&str]) {
        if let Some(bad) = self.given.iter().find(|f| !allowed.contains(&f.as_str())) {
            die(&format!("`{cmd}` does not take {bad}"));
        }
    }
}

fn main() {
    let args = exec::parse_threads_flag(std::env::args().skip(1).collect());
    let mut o = Opts::default();
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--reduced" => o.reduced = true,
            "--compare-only" => o.compare_only = true,
            "--update" => o.update = true,
            "--allow-dirty" => o.allow_dirty = true,
            "--nightly" => o.nightly = true,
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            _ => {
                positional.push(a);
                continue;
            }
        }
        o.given.push(a);
    }
    match positional.as_slice() {
        [cmd] if cmd == "list" => {
            o.allow_only("list", &[]);
            list()
        }
        [cmd] if cmd == "regress" => {
            o.allow_only(
                "regress",
                &["--compare-only", "--update", "--allow-dirty", "--nightly"],
            );
            regress(&o)
        }
        [name] => match find(name) {
            Some(figure) => {
                o.allow_only(name, &["--reduced", "--compare-only"]);
                standalone(figure, &o)
            }
            None => die(&format!("no figure named {name:?} (see `daos-bench list`)")),
        },
        _ => die("expected exactly one command"),
    }
}

/// Print the table; exit 1 if it disagrees with itself or with the
/// committed baselines.
fn list() -> ! {
    println!(
        "{:<17} {:<8} {:>8}  {:<20} about",
        "figure", "gate", "seed", "cells full/red/smoke"
    );
    for f in FIGURES {
        let cells: Vec<String> = Scale::ALL
            .iter()
            .map(|&s| (f.plan)(s).map_or("-".to_string(), |p| p.cells.len().to_string()))
            .collect();
        println!(
            "{:<17} {:<8} {:>#8x}  {:<20} {}",
            f.name,
            f.gate.name(),
            f.seed,
            cells.join("/"),
            f.about
        );
    }
    let problems = table_problems(Path::new(BASELINE_DIR));
    for p in &problems {
        eprintln!("daos-bench list: {p}");
    }
    std::process::exit(if problems.is_empty() { 0 } else { 1 });
}

/// Run (or reload) one figure, print it, evaluate its checks.
fn standalone(figure: &'static Figure, o: &Opts) -> ! {
    let scale = if o.reduced {
        Scale::Reduced
    } else {
        Scale::Full
    };
    if (figure.plan)(scale).is_none() {
        die(&format!(
            "{} declares no {} scale",
            figure.name,
            scale.name()
        ));
    }
    let dir = out_dir(scale);
    let run = if o.compare_only {
        let Some(dir) = &dir else {
            die("--compare-only with an empty DAOS_BENCH_OUT has nothing to load")
        };
        FigureRun::load(figure, dir).unwrap_or_else(|e| {
            eprintln!("daos-bench: --compare-only needs a prior run's report: {e}");
            std::process::exit(2);
        })
    } else {
        let threads = exec::threads();
        eprintln!(
            "{}: {} scale on {threads} thread(s)...",
            figure.name,
            scale.name()
        );
        let mut slate = run_figures(&[(figure, scale)], threads);
        eprintln!(
            "{}: {} jobs, serial-equivalent {:.1}s, elapsed {:.1}s",
            figure.name,
            slate.timings.len(),
            slate.serial_secs(),
            slate.elapsed_secs
        );
        slate.figures.remove(0)
    };

    print!("{}", render(figure, &run.report));
    println!();
    if o.compare_only {
        println!("(per-cell shape checks need a live run; report-level checks only)");
    }
    let verdicts = run.verdicts();
    print!("{}", render_verdicts(&verdicts));

    if let (false, Some(dir)) = (o.compare_only, &dir) {
        match run.report.write_to(dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write BENCH_{}.json: {e}", figure.name);
                std::process::exit(1);
            }
        }
    }
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    if failed > 0 {
        eprintln!("{failed} check(s) failed");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Baselines are provenance: a figure someone can reproduce by checking
/// out the commit that shipped it. Refuse to mint them from uncommitted
/// state.
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
                    "regress: commit first so the new baselines are reproducible, or pass --allow-dirty"
                );
                std::process::exit(2);
            }
        }
        _ => eprintln!(
            "regress: warning: cannot check working-tree cleanliness (git unavailable); proceeding"
        ),
    }
}

/// The CI perf gate: every gated figure, run → compare with its baseline
/// → checks.
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

    let wanted: Vec<(&'static Figure, Scale)> = FIGURES
        .iter()
        .filter(|f| f.gate == Gate::Pr || (o.nightly && f.gate == Gate::Nightly))
        .map(|f| (f, f.gate.scale()))
        .collect();

    // ---- the gated figures, one parallel slate ------------------------
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
        let threads = exec::threads();
        eprintln!(
            "regress: running {} figure(s) on {threads} thread(s)...",
            wanted.len()
        );
        let slate = run_figures(&wanted, threads);
        eprintln!(
            "regress: slate done — {} jobs, serial-equivalent {:.1}s, elapsed {:.1}s ({:.2}x on {} thread(s))",
            slate.timings.len(),
            slate.serial_secs(),
            slate.elapsed_secs,
            slate.speedup(),
            slate.threads,
        );
        // persist fresh reports + runner timing for CI artifacts; the
        // measured speedup is itself a tracked artifact, so
        // runner-overhead regressions show up in CI
        let mut runner = BenchReport::new("regress", 0);
        runner.record("runner", 0, "threads", slate.threads as f64);
        runner.record("runner", 0, "jobs", slate.timings.len() as f64);
        runner.record("runner", 0, "serial_secs", slate.serial_secs());
        runner.record("runner", 0, "elapsed_secs", slate.elapsed_secs);
        runner.record("runner", 0, "speedup", slate.speedup());
        let written = slate
            .figures
            .iter()
            .map(|r| &r.report)
            .chain([&runner])
            .try_for_each(|r| r.write_to(&out).map(drop))
            .and_then(|_| std::fs::write(out.join("timing.txt"), slate.timing_table()));
        if let Err(e) = written {
            eprintln!("regress: cannot write artifacts to {}: {e}", out.display());
            std::process::exit(2);
        }
        slate.figures
    };

    if o.update {
        for run in &runs {
            match run.report.write_to(Path::new(BASELINE_DIR)) {
                Ok(path) => println!("baseline updated: {}", path.display()),
                Err(e) => {
                    eprintln!("regress: cannot write baseline: {e}");
                    std::process::exit(2);
                }
            }
        }
        println!("\nbaselines regenerated — commit {BASELINE_DIR}/BENCH_*.json");
        std::process::exit(0);
    }

    // ---- every report byte for byte against its baseline -------------
    let mut drift_text = String::new();
    let mut differing = 0usize;
    println!("== reports vs {BASELINE_DIR}, byte for byte ==");
    for FigureRun { report, .. } in &runs {
        let path = Path::new(BASELINE_DIR).join(format!("BENCH_{}.json", report.name));
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
    if o.compare_only {
        println!("\n(per-cell shape checks skipped: no live sweep in --compare-only)");
    }
    let mut check_failures = 0usize;
    for run in &runs {
        println!("\n== {} checks ==", run.figure.name);
        let verdicts = run.verdicts();
        print!("{}", render_verdicts(&verdicts));
        check_failures += verdicts.iter().filter(|v| !v.pass).count();
    }

    // ---- verdict -----------------------------------------------------
    println!(
        "\nregress: {differing} of {} report(s) differ from their baselines, {check_failures} invariant/shape failure(s)",
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
