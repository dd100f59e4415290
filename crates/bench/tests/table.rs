//! The `FIGURES` table against the rest of the repo: complete, consistent
//! with the committed reports in `results/`, and able to fail.

use std::path::{Path, PathBuf};

use daos_bench::figure::{find, table_problems, Gate, Scale};
use daos_bench::report::{BenchReport, READ_GIB_S, WRITE_GIB_S};
use daos_bench::FIGURES;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn baselines() -> PathBuf {
    repo_root().join("results")
}

/// Names unique; every baseline has a gated entry with the same seed;
/// every gated entry has a baseline; every entry enumerates >= 1 cell at
/// every scale it declares — `table_problems` is what `daos-bench list`
/// exits 1 on.
#[test]
fn table_and_baselines_agree() {
    assert_eq!(table_problems(&baselines()), Vec::<String>::new());
}

/// The complete figure set: 14 PR-gated (the first eight, `mdtest_bench`,
/// `protection_sweep`, `daos_api`, `app_workloads`, `dfuse_ablation` and
/// `oclass_sweep`) and 1 nightly — nothing else.
#[test]
fn table_holds_exactly_the_known_figures() {
    let names = |gate: Gate| -> Vec<&str> {
        FIGURES
            .iter()
            .filter(|f| f.gate == gate)
            .map(|f| f.name)
            .collect()
    };
    assert_eq!(
        names(Gate::Pr),
        [
            "fig1_fpp",
            "fig2_shared",
            "pfs_contrast",
            "io500",
            "fault_sweep",
            "scrub_sweep",
            "traffic_sweep",
            "qos_sweep",
            "mdtest_bench",
            "protection_sweep",
            "daos_api",
            "app_workloads",
            "dfuse_ablation",
            "oclass_sweep"
        ]
    );
    assert_eq!(names(Gate::Nightly), ["scale"]);
    // a PR-gated figure is also in the debug-build determinism test
    for f in FIGURES.iter().filter(|f| f.gate == Gate::Pr) {
        assert!(
            (f.plan)(Scale::Smoke).is_some(),
            "{} needs a smoke scale",
            f.name
        );
    }
}

/// Planted negatives: a gated entry without its baseline, and a baseline
/// without a gated entry, are each reported.
#[test]
fn audit_catches_a_missing_and_a_stray_baseline() {
    let dir = std::env::temp_dir().join(format!("daos_bench_table_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in FIGURES {
        let file = format!("BENCH_{}.json", f.name);
        std::fs::copy(baselines().join(&file), dir.join(file)).unwrap();
    }
    assert!(table_problems(&dir).is_empty());

    std::fs::remove_file(dir.join("BENCH_io500.json")).unwrap();
    // a baseline for a figure the table does not hold is stray
    BenchReport::new("no_such_figure", 0)
        .write_to(&dir)
        .unwrap();
    let problems = table_problems(&dir);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].starts_with("io500: gated but has no baseline"));
    assert!(problems[1].starts_with("BENCH_no_such_figure.json: baseline without"));

    // a baseline minted under another seed is a different experiment
    let mut wrong = BenchReport::load(&baselines(), "io500").unwrap();
    wrong.seed ^= 1;
    wrong.write_to(&dir).unwrap();
    assert!(table_problems(&dir)[0].starts_with("io500: baseline seed"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Planted negative for the newly gated `mdtest_bench`: with the `dfs`
/// and `pfs` series swapped, its checks must fail.
#[test]
fn mdtest_checks_fail_when_dfs_and_pfs_are_swapped() {
    let figure = find("mdtest_bench").unwrap();
    let mut report = BenchReport::load(&baselines(), "mdtest_bench").unwrap();
    let verdicts = (figure.checks)(&report);
    assert!(!verdicts.is_empty() && verdicts.iter().all(|v| v.pass));

    let dfs = report.series.remove("dfs").unwrap();
    let pfs = report.series.insert("pfs".to_string(), dfs).unwrap();
    report.series.insert("dfs".to_string(), pfs);
    let verdicts = (figure.checks)(&report);
    assert!(verdicts.iter().all(|v| !v.pass), "{verdicts:?}");

    // and an empty report cannot pass vacuously
    let empty = BenchReport::new("mdtest_bench", figure.seed);
    assert!((figure.checks)(&empty).iter().all(|v| !v.pass));
}

/// Planted negatives for the newly gated `protection_sweep`: replication
/// as cheap as `SX`, `S2` as dear as `RP_3`, and degraded reads at a
/// third of healthy each fail their check.
#[test]
fn protection_checks_fail_when_redundancy_is_free_or_broken() {
    let figure = find("protection_sweep").unwrap();
    let mut report = BenchReport::load(&baselines(), "protection_sweep").unwrap();
    let verdicts = (figure.checks)(&report);
    assert!(verdicts.len() == 3 && verdicts.iter().all(|v| v.pass));

    let mut swap = |a: &str, b: &str| {
        let sa = report.series.remove(a).unwrap();
        let sb = report.series.insert(b.to_string(), sa).unwrap();
        report.series.insert(a.to_string(), sb);
    };
    swap("SX", "RP_2GX");
    swap("S2", "RP_3GX");
    for series in ["RP_2GX/degraded", "EC_2P1GX/degraded"] {
        for row in report.series.get_mut(series).unwrap().values_mut() {
            row.insert(
                "degraded_read_gib_s".into(),
                row["healthy_read_gib_s"] / 3.0,
            );
        }
    }
    let verdicts = (figure.checks)(&report);
    assert!(verdicts.iter().all(|v| !v.pass), "{verdicts:?}");
}

/// Planted negatives for the newly gated `oclass_sweep` and `daos_api`:
/// each check fails once the series it reads is moved out of shape.
#[test]
fn wide_grid_checks_fail_when_a_series_moves() {
    let cases = [
        // S1 twice as fast as S4 at 16 nodes: sharding does not interpolate
        ("oclass_sweep", "DFS-S1", WRITE_GIB_S, 2.0, 0),
        // 100x writes leave the sane envelope
        ("oclass_sweep", "DFS-S8", WRITE_GIB_S, 100.0, 1),
        // the native API at half of DFS
        ("daos_api", "DAOS-SX", WRITE_GIB_S, 0.5, 0),
        // the interception library recovers nothing
        ("daos_api", "POSIX+IL-SX", READ_GIB_S, 0.5, 1),
        // POSIX at half of the native API
        ("daos_api", "POSIX-SX", WRITE_GIB_S, 0.5, 2),
    ];
    for (name, series, metric, factor, check) in cases {
        let figure = find(name).unwrap();
        let mut report = BenchReport::load(&baselines(), name).unwrap();
        assert!((figure.checks)(&report).iter().all(|v| v.pass), "{name}");
        for row in report.series.get_mut(series).unwrap().values_mut() {
            *row.get_mut(metric).unwrap() *= factor;
        }
        let verdicts = (figure.checks)(&report);
        assert!(
            !verdicts[check].pass,
            "{name} {series} x{factor}: {verdicts:?}"
        );
    }
}

/// Planted negatives for the newly gated `dfuse_ablation` and
/// `app_workloads`: each check fails once the series it reads is moved out
/// of shape.
#[test]
fn ablation_checks_fail_when_a_series_moves() {
    let cases = [
        // 128 KiB requests split for free
        ("dfuse_ablation", "small requests", WRITE_GIB_S, 1.25, 0),
        // one daemon thread keeps up with sixteen
        (
            "dfuse_ablation",
            "single daemon thread",
            WRITE_GIB_S,
            4.0,
            1,
        ),
        // the interception library at half of native DFS
        (
            "dfuse_ablation",
            "interception library",
            WRITE_GIB_S,
            0.5,
            2,
        ),
        // POSIX at half of the native API
        ("app_workloads", "nwp/posix", "io_gib_s", 0.5, 0),
        // a producer-consumer pipeline that moves nothing
        ("app_workloads", "producer_consumer/dfs", "io_gib_s", 0.0, 1),
    ];
    for (name, series, metric, factor, check) in cases {
        let figure = find(name).unwrap();
        let mut report = BenchReport::load(&baselines(), name).unwrap();
        assert!((figure.checks)(&report).iter().all(|v| v.pass), "{name}");
        for row in report.series.get_mut(series).unwrap().values_mut() {
            *row.get_mut(metric).unwrap() *= factor;
        }
        let verdicts = (figure.checks)(&report);
        assert!(
            !verdicts[check].pass,
            "{name} {series} x{factor}: {verdicts:?}"
        );
    }
}

/// Planted negatives for R6–R11, R2x and R5x: one mutation of the
/// committed full-scale report per predicate, each failing exactly the
/// check it targets.
#[test]
fn every_invariant_fails_on_its_mutated_baseline() {
    type Mutation = fn(&mut BenchReport);
    let cases: [(&str, usize, &str, Mutation); 8] = [
        // SX/ac p99 falls below its 50 % point on the way to the knee
        ("traffic_sweep", 0, "R6:", |r| {
            r.record("SX/ac", 100, "p99_us", 1000.0)
        }),
        // protected goodput halves past the knee
        ("traffic_sweep", 1, "R7:", |r| {
            r.record("SX/ac", 200, "goodput_gib_s", 6.0)
        }),
        // the unprotected storm keeps up with its protected twin
        ("traffic_sweep", 2, "R8:", |r| {
            r.record("SX/noac", 200, "goodput_gib_s", 12.0)
        }),
        // shaping no longer halves the victim's p99
        ("qos_sweep", 0, "R9:", |r| {
            let off = r.get("unshaped", 300, "victim_p99_us").unwrap();
            r.record("shaped", 300, "victim_p99_us", off)
        }),
        // shaping costs fairness
        ("qos_sweep", 1, "R10:", |r| {
            r.record("shaped", 300, "jain", 0.5)
        }),
        // the background tenant overruns its budget
        ("qos_sweep", 2, "R11:", |r| {
            let budget = r.get("shaped", 150, "bg_budget_bytes").unwrap();
            r.record("shaped", 150, "bg_bytes", 2.0 * budget)
        }),
        // S2 keeps the fpp-write lead at 512 nodes (raising S2 leaves the
        // SX shared/fpp ratio that R5x reads untouched)
        ("scale", 0, "R2x:", |r| {
            r.record("DFS-S2-fpp", 512, WRITE_GIB_S, 1000.0)
        }),
        // shared-file writes lose parity at 512 nodes
        ("scale", 1, "R5x:", |r| {
            r.record("DFS-SX-shared", 512, WRITE_GIB_S, 500.0)
        }),
    ];
    for (name, check, id, mutate) in cases {
        let figure = find(name).unwrap();
        let mut report = BenchReport::load(&baselines(), name).unwrap();
        let verdicts = (figure.checks)(&report);
        assert!(verdicts.iter().all(|v| v.pass), "{name}: {verdicts:?}");
        mutate(&mut report);
        let verdicts = (figure.checks)(&report);
        assert!(verdicts[check].label.starts_with(id), "{verdicts:?}");
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.pass, i != check, "{name} {id}: {verdicts:?}");
        }
    }
}

/// Every figure with report-level checks fails them on an empty report:
/// a check that reads nothing must not read as green.
#[test]
fn no_figure_passes_its_checks_vacuously() {
    for f in FIGURES {
        let verdicts = (f.checks)(&BenchReport::new(f.name, f.seed));
        assert!(
            verdicts.iter().all(|v| !v.pass),
            "{}: passes on an empty report: {verdicts:?}",
            f.name
        );
    }
}
