//! The `daos-bench` binary end to end, through `--compare-only` (no
//! simulation: the committed reports in `results/` stand in for a previous
//! run's), so the real argument parsing, exit codes and check evaluation
//! are what is tested.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use daos_bench::report::BenchReport;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A scratch output dir seeded with the committed `results/BENCH_*.json`.
fn out_dir_with_baselines(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daos_bench_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in daos_bench::FIGURES {
        let file = format!("BENCH_{}.json", f.name);
        std::fs::copy(repo_root().join("results").join(&file), dir.join(file)).unwrap();
    }
    dir
}

fn daos_bench(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_daos-bench"))
        .args(args)
        .current_dir(repo_root())
        .env("DAOS_BENCH_OUT", out)
        .output()
        .expect("spawn daos-bench")
}

fn check_lines(out: &Output, prefix: &str) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("[PASS]") || l.starts_with("[FAIL]"))
        .filter(|l| l[7..].starts_with(prefix))
        .map(str::to_string)
        .collect()
}

/// R1–R5 come out of the same function whether a figure runs standalone
/// or under the gate: the two paths print the same check lines, numbers
/// included.
#[test]
fn standalone_and_regress_evaluate_the_same_invariants() {
    let out = out_dir_with_baselines("same");
    let gate = daos_bench(&out, &["regress", "--compare-only"]);
    assert_eq!(gate.status.code(), Some(0), "{gate:?}");
    for (figure, ids) in [
        ("fig1_fpp", &["R1:", "R2:", "R3:"][..]),
        ("fig2_shared", &["R4:", "R5b:"]),
        ("pfs_contrast", &["R5:"]),
        ("traffic_sweep", &["R6:", "R7:", "R8:"]),
        ("qos_sweep", &["R9:", "R10:", "R11:"]),
    ] {
        let alone = daos_bench(&out, &[figure, "--compare-only"]);
        assert_eq!(alone.status.code(), Some(0), "{alone:?}");
        for id in ids {
            let a = check_lines(&alone, id);
            assert_eq!(a.len(), 1, "{figure} prints {id} once: {a:?}");
            assert!(a[0].starts_with("[PASS]"));
            assert_eq!(a, check_lines(&gate, id), "{figure} {id}");
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// Planted negative: a fresh QoS report with its shaped and unshaped
/// series swapped must exit 1, failing R9 and naming the report in the
/// drift table — the exit-code wiring every check and every drift shares.
#[test]
fn inverted_r9_fails_the_gate() {
    let out = out_dir_with_baselines("invert");
    let mut qos = BenchReport::load(&out, "qos_sweep").unwrap();
    let shaped = qos.series.remove("shaped").unwrap();
    let unshaped = qos.series.insert("unshaped".to_string(), shaped).unwrap();
    qos.series.insert("shaped".to_string(), unshaped);
    qos.write_to(&out).unwrap();

    let gate = daos_bench(&out, &["regress", "--compare-only"]);
    assert_eq!(gate.status.code(), Some(1), "{gate:?}");
    assert!(check_lines(&gate, "R9:")[0].starts_with("[FAIL]"));
    let stdout = String::from_utf8_lossy(&gate.stdout);
    assert!(
        stdout.contains("-- qos_sweep: differs from its baseline in"),
        "{stdout}"
    );
    assert!(stdout.contains("1 of 15 report(s) differ"), "{stdout}");
    let _ = std::fs::remove_dir_all(&out);
}

/// `list` audits the table against `results/`; usage errors exit 2
/// without running anything.
#[test]
fn list_passes_and_bad_usage_is_rejected() {
    let out = out_dir_with_baselines("usage");
    let list = daos_bench(&out, &["list"]);
    assert_eq!(list.status.code(), Some(0), "{list:?}");
    let stdout = String::from_utf8_lossy(&list.stdout);
    for f in daos_bench::FIGURES {
        assert!(stdout.contains(f.name), "list names {}", f.name);
    }
    for bad in [
        &["no_such_figure"][..],
        &["fig1_fpp", "read"],
        &["fig1_fpp", "--update"],
        &["io500", "--threads", "0"],
        &["regress", "--threads", "x"],
        &["regress", "--threads"],
        &["regress", "--update", "--compare-only"],
        &["regress", "--tol", "5"],
        &["regress", "--verbose"],
        &["list", "--verbose"],
        &["io500", "--bogus"],
        &[],
        // a switch given a value, a flag given twice
        &["io500", "--compare-only", "yes"],
        &["io500", "--compare-only", "--compare-only"],
        &[
            "io500",
            "--compare-only",
            "--threads",
            "2",
            "--threads",
            "3",
        ],
        &["list", "--threads"],
        // flags come after the command
        &["--threads", "2", "regress"],
    ] {
        assert_eq!(daos_bench(&out, bad).status.code(), Some(2), "{bad:?}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// Every figure is gated on every PR: there is no second tier to ask
/// for, so `--nightly` is an unknown flag.
#[test]
fn regress_has_no_nightly_tier() {
    let out = out_dir_with_baselines("nightly");
    let run = daos_bench(&out, &["regress", "--nightly"]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown flag --nightly"), "{stderr}");
    let _ = std::fs::remove_dir_all(&out);
}

/// `results/<name>.txt` is the one printer's rendering of the committed
/// `results/BENCH_<name>.json` beside it.
#[test]
fn results_txt_is_the_printer_run_on_the_committed_json() {
    let results = repo_root().join("results");
    let mut pinned = 0;
    for figure in daos_bench::FIGURES {
        let txt = results.join(format!("{}.txt", figure.name));
        let json = results.join(format!("BENCH_{}.json", figure.name));
        if !(txt.is_file() && json.is_file()) {
            continue;
        }
        let out = daos_bench(Path::new("results"), &[figure.name, "--compare-only"]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            std::fs::read_to_string(&txt).unwrap(),
            "regenerate with: DAOS_BENCH_OUT=results daos-bench {0} --compare-only > results/{0}.txt",
            figure.name
        );
        pinned += 1;
    }
    assert_eq!(
        pinned,
        daos_bench::FIGURES.len(),
        "every committed report has its pinned rendering"
    );
}

fn daosctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_daosctl"))
        .args(args)
        .output()
        .expect("spawn daosctl")
}

/// `daosctl` runs each command with the flags it lists, names the
/// interception-library rung, and exits 2 instead of running on a value
/// or a flag it does not know, a switch given a value, a flag without its
/// value or given twice, or a stray word.
#[test]
fn daosctl_runs_its_commands_and_refuses_unknown_flags() {
    let ior = [
        "ior", "--api", "posix-il", "--nodes", "1", "--ppn", "2", "--block", "1m",
    ];
    let run = daosctl(&ior);
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    assert!(
        String::from_utf8_lossy(&run.stdout).contains("POSIX+IL"),
        "{run:?}"
    );
    for args in [
        &["pool", "--nodes", "1"][..],
        &["place", "--oclass", "S2", "--count", "100"],
    ] {
        let run = daosctl(args);
        assert_eq!(run.status.code(), Some(0), "{args:?}: {run:?}");
    }
    for (args, said) in [
        (&["ior", "--api", "bogus"][..], "unknown api: bogus"),
        (
            &["ior", "--api", "dfs", "--nodse", "8"],
            "unknown flag --nodse",
        ),
        (&["ior", "--json", "d"], "unknown flag --json"),
        (
            &["ior", "--verify", "yes"],
            "--verify takes no value (got yes)",
        ),
        (
            &["ior", "--nodes", "1", "--nodes", "2"],
            "--nodes given twice",
        ),
        (&["ior", "--shared", "--shared"], "--shared given twice"),
        (&["ior", "--seed"], "--seed needs a value"),
        (&["ior", "--nodes", "--verify"], "--nodes needs a value"),
        (
            &["pool", "--nodes", "1", "extra"],
            "unexpected argument: extra",
        ),
        (&["place", "--count", "x"], "bad --count: x"),
    ] {
        let run = daosctl(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(said), "{args:?}: {stderr}");
    }
}

/// `daosctl` refuses a run with nothing in it, and IOR's driver a block
/// that is not a whole number of transfers: each exits 2 naming what it
/// refused, where they once panicked (exit 101) or reported 0 GiB/s.
#[test]
fn daosctl_refuses_degenerate_input() {
    for (args, said) in [
        (&["ior", "--xfer", "0"][..], "--xfer must be at least 1"),
        (&["ior", "--block", "0"], "--block must be at least 1"),
        (&["ior", "--chunk", "0"], "--chunk must be at least 1"),
        (&["ior", "--nodes", "0"], "--nodes must be at least 1"),
        (&["ior", "--ppn", "0"], "--ppn must be at least 1"),
        (&["ior", "--segments", "0"], "--segments must be at least 1"),
        (
            &["ior", "--stonewall-ms", "0"],
            "--stonewall-ms must be at least 1",
        ),
        (
            &["ior", "--block", "99999999999g"],
            "bad --block: 99999999999g",
        ),
        (&["pool", "--nodes", "0"], "--nodes must be at least 1"),
        (&["place", "--count", "0"], "--count must be at least 1"),
        (
            &[
                "ior", "--nodes", "1", "--ppn", "1", "--block", "3m", "--xfer", "2m",
            ],
            "blocksize 3.0MiB is not a multiple of xfersize 2.0MiB",
        ),
    ] {
        let run = daosctl(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(said), "{args:?}: {stderr}");
    }
}
