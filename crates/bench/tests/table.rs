//! The `FIGURES` table against the rest of the repo: complete, consistent
//! with the committed reports in `results/`, and able to fail.

use std::path::{Path, PathBuf};

use daos_bench::figure::{find, table_problems, Figure, Plan, Scale};
use daos_bench::figures::{io500_plan, scale_plan};
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
/// both scales — `table_problems` is what `daos-bench list` exits 1 on.
#[test]
fn table_and_baselines_agree() {
    assert_eq!(table_problems(FIGURES, &baselines()), Vec::<String>::new());
}

/// The complete figure set, in table order — nothing else.
#[test]
fn table_holds_exactly_the_known_figures() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(
        names,
        [
            "fig1_fpp",
            "fig2_shared",
            "pfs_contrast",
            "io500",
            "fault_sweep",
            "scrub_sweep",
            "traffic_sweep",
            "qos_sweep",
            "scale",
            "mdtest_bench",
            "protection_sweep",
            "daos_api",
            "app_workloads",
            "dfuse_ablation",
            "oclass_sweep"
        ]
    );
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
    assert!(table_problems(FIGURES, &dir).is_empty());

    std::fs::remove_file(dir.join("BENCH_io500.json")).unwrap();
    // a baseline for a figure the table does not hold is stray
    BenchReport::new("no_such_figure", 0)
        .write_to(&dir)
        .unwrap();
    let problems = table_problems(FIGURES, &dir);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].starts_with("io500: gated but has no baseline"));
    assert!(problems[1].starts_with("BENCH_no_such_figure.json: baseline without"));

    // a baseline minted under another seed is a different experiment
    let mut wrong = BenchReport::load(&baselines(), "io500").unwrap();
    wrong.seed ^= 1;
    wrong.write_to(&dir).unwrap();
    assert!(table_problems(FIGURES, &dir)[0].starts_with("io500: baseline seed"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Planted negatives: an entry whose smoke plan has no cells, and one
/// whose full plan has none, are each named.
#[test]
fn audit_catches_a_plan_without_cells() {
    fn no_cells() -> Plan {
        Plan {
            config_hash: 0,
            cells: Vec::new(),
        }
    }
    let mut table: Vec<Figure> = FIGURES.iter().map(|f| Figure { ..*f }).collect();
    for f in &mut table {
        match f.name {
            "io500" => {
                f.plan = |s| match s {
                    Scale::Full => io500_plan(s),
                    Scale::Smoke => no_cells(),
                }
            }
            "scale" => {
                f.plan = |s| match s {
                    Scale::Full => no_cells(),
                    Scale::Smoke => scale_plan(s),
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        table_problems(&table, &baselines()),
        [
            "io500: no cells at smoke scale",
            "scale: no cells at full scale"
        ]
    );
}

/// Planted negative for the newly gated `mdtest_bench`: with the `dfs`
/// and `pfs` series swapped, its checks must fail.
#[test]
fn mdtest_checks_fail_when_dfs_and_pfs_are_swapped() {
    let figure = find("mdtest_bench").unwrap();
    let mut report = BenchReport::load(&baselines(), "mdtest_bench").unwrap();
    let verdicts = figure.verdicts(&report);
    assert!(!verdicts.is_empty() && verdicts.iter().all(|v| v.pass));

    let dfs = report.series.remove("dfs").unwrap();
    let pfs = report.series.insert("pfs".to_string(), dfs).unwrap();
    report.series.insert("dfs".to_string(), pfs);
    let verdicts = figure.verdicts(&report);
    assert!(verdicts.iter().all(|v| !v.pass), "{verdicts:?}");

    // and an empty report cannot pass vacuously
    let empty = BenchReport::new("mdtest_bench", figure.seed);
    assert!(figure.verdicts(&empty).iter().all(|v| !v.pass));
}

/// Planted negatives for the newly gated `protection_sweep`: replication
/// as cheap as `SX`, `S2` as dear as `RP_3`, and degraded reads at a
/// third of healthy each fail their check.
#[test]
fn protection_checks_fail_when_redundancy_is_free_or_broken() {
    let figure = find("protection_sweep").unwrap();
    let mut report = BenchReport::load(&baselines(), "protection_sweep").unwrap();
    let verdicts = figure.verdicts(&report);
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
    let verdicts = figure.verdicts(&report);
    assert!(verdicts.iter().all(|v| !v.pass), "{verdicts:?}");
}

/// Planted negatives for the newly gated `oclass_sweep` and `daos_api`,
/// and `io500`'s R5 row: each check fails once the series it reads is
/// moved out of shape.
#[test]
fn wide_grid_checks_fail_when_a_series_moves() {
    let cases = [
        // S1 twice as fast as S4 at 16 nodes: sharding does not interpolate
        ("oclass_sweep", "DFS-S1", WRITE_GIB_S, 2.0, 0),
        // 100x writes leave the sane envelope
        ("oclass_sweep", "DFS-S8", WRITE_GIB_S, 100.0, 1),
        // the native API at half of DFS, and 1 % below it
        ("daos_api", "DAOS-SX", WRITE_GIB_S, 0.5, 0),
        ("daos_api", "DAOS-SX", WRITE_GIB_S, 0.99, 0),
        // the interception library recovers nothing
        ("daos_api", "POSIX+IL-SX", READ_GIB_S, 0.5, 1),
        // POSIX at half of the native API
        ("daos_api", "POSIX-SX", WRITE_GIB_S, 0.5, 2),
        // a shared file at 0.7x file-per-process (1.11x committed): R5
        // fails in IO500 form
        ("io500", "ior-hard", WRITE_GIB_S, 0.63, 1),
    ];
    for (name, series, metric, factor, check) in cases {
        let figure = find(name).unwrap();
        let mut report = BenchReport::load(&baselines(), name).unwrap();
        assert!(figure.verdicts(&report).iter().all(|v| v.pass), "{name}");
        for row in report.series.get_mut(series).unwrap().values_mut() {
            *row.get_mut(metric).unwrap() *= factor;
        }
        let verdicts = figure.verdicts(&report);
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
        // a pipeline slower than phase-separated NWP on one rung
        ("app_workloads", "producer_consumer/dfs", "io_gib_s", 0.8, 1),
    ];
    for (name, series, metric, factor, check) in cases {
        let figure = find(name).unwrap();
        let mut report = BenchReport::load(&baselines(), name).unwrap();
        assert!(figure.verdicts(&report).iter().all(|v| v.pass), "{name}");
        for row in report.series.get_mut(series).unwrap().values_mut() {
            *row.get_mut(metric).unwrap() *= factor;
        }
        let verdicts = figure.verdicts(&report);
        assert!(
            !verdicts[check].pass,
            "{name} {series} x{factor}: {verdicts:?}"
        );
    }
}

/// Add `by` to one metric of one cell.
fn bump(r: &mut BenchReport, series: &str, scale: u32, metric: &str, by: f64) {
    let v = r.get(series, scale, metric).unwrap();
    r.record(series, scale, metric, v + by);
}

/// Planted negatives for every claim a mutation of one cell can break:
/// R1–R11, R5b, R2x, R5x, the per-cell claims of the traffic, QoS, fault and
/// rot reports, and the interception-library check. One mutation of the
/// committed full-scale report per check, each failing exactly the check
/// it targets, on the live report and on its reloaded JSON alike (a NaN
/// is stored as a finite sentinel).
#[test]
fn every_invariant_fails_on_its_mutated_baseline() {
    type Mutation = fn(&mut BenchReport);
    let cases: [(&str, usize, &str, Mutation); 31] = [
        // SX reads overtake S2's 106.93 at 16 nodes
        ("fig1_fpp", 0, "R1:", |r| {
            r.record("DFS-SX", 16, READ_GIB_S, 110.0)
        }),
        // SX writes beat S2's 10.81 on one node: no crossover
        ("fig1_fpp", 1, "R2:", |r| {
            r.record("DFS-SX", 1, WRITE_GIB_S, 11.0)
        }),
        // HDF5 writes as fast as MPI-IO on one node
        ("fig1_fpp", 2, "R3:", |r| {
            let mpiio = r.get("MPIIO-S1", 1, WRITE_GIB_S).unwrap();
            r.record("HDF5-S1", 1, WRITE_GIB_S, mpiio)
        }),
        // HDF5 shared-file writes fall 30 % behind DFS's 42.63
        ("fig2_shared", 0, "R4:", |r| {
            r.record("HDF5-SX", 16, WRITE_GIB_S, 30.0)
        }),
        // a shared S2 file keeps up with half of SX
        ("fig2_shared", 1, "R5b:", |r| {
            r.record("DFS-S2", 16, WRITE_GIB_S, 20.0)
        }),
        // the PFS shared file writes as fast as file-per-process
        ("pfs_contrast", 0, "R5:", |r| {
            let fpp = r.get("pfs-fpp", 16, WRITE_GIB_S).unwrap();
            r.record("pfs-shared", 16, WRITE_GIB_S, fpp)
        }),
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
        // one cell where every request failed, accounted as failed
        ("traffic_sweep", 3, "some requests complete", |r| {
            let arrivals = r.get("S1/noac", 200, "arrivals").unwrap();
            r.record("S1/noac", 200, "completed", 0.0);
            r.record("S1/noac", 200, "failed", arrivals);
        }),
        // one request counted twice
        ("traffic_sweep", 4, "accounting closes", |r| {
            bump(r, "SX/ac", 200, "failed", 1.0)
        }),
        // sheds that no retry and no breaker ever saw
        ("traffic_sweep", 5, "retries are metered", |r| {
            r.record("SX/burst", 200, "retries_spent", 0.0);
            r.record("SX/burst", 200, "breaker_fastfail", 0.0);
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
        // the victim's reads all fail in one cell, accounted as failed
        ("qos_sweep", 3, "the victim completes", |r| {
            let arrivals = r.get("unshaped", 300, "victim_arrivals").unwrap();
            r.record("unshaped", 300, "victim_completed", 0.0);
            r.record("unshaped", 300, "victim_failed", arrivals);
        }),
        ("qos_sweep", 4, "victim accounting closes", |r| {
            bump(r, "shaped", 125, "victim_failed", 1.0)
        }),
        ("qos_sweep", 5, "noisy accounting closes", |r| {
            bump(r, "unshaped", 100, "noisy_completed", -1.0)
        }),
        // the shaper charges the scrubber nothing
        ("qos_sweep", 6, "the background tenant is accounted", |r| {
            r.record("shaped", 150, "bg_bytes", 0.0)
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
        // the crash never leaves the pool map
        ("fault_sweep", 0, "failure detected", |r| {
            r.record("RP_2GX", 4, "map_version", 1.0)
        }),
        // reads stall while the engine is down
        ("fault_sweep", 1, "reads survive", |r| {
            r.record("EC_4P1GX", 4, "read_during_failure", 0.0)
        }),
        ("fault_sweep", 2, "post-rebuild bandwidth recovers", |r| {
            let healthy = r.get("RP_2GX", 4, "read_healthy").unwrap();
            r.record("RP_2GX", 4, "read_after_rebuild", 0.5 * healthy)
        }),
        ("fault_sweep", 3, "reintegration restores", |r| {
            let healthy = r.get("EC_4P1GX", 4, "read_healthy").unwrap();
            r.record("EC_4P1GX", 4, "read_after_reintegration", 0.5 * healthy)
        }),
        // the rot was never reported in time
        ("scrub_sweep", 2, "rot injected and detected", |r| {
            r.record("EC_2P1GX/client-read", 0, "detect_ms", f64::NAN)
        }),
        ("scrub_sweep", 3, "targeted repairs landed", |r| {
            r.record("RP_2GX/scrubber", 0, "repairs_ok", 0.0)
        }),
        ("scrub_sweep", 4, "all bytes read back identical", |r| {
            r.record("RP_2GX/client-read", 0, "bytes_equal", 0.0)
        }),
        ("scrub_sweep", 5, "the rotted target scrubs clean", |r| {
            r.record("EC_2P1GX/scrubber", 0, "media_clean", 0.0)
        }),
        // POSIX+IL reads 3 % short of DFS at 4 nodes
        ("daos_api", 1, "interception library recovers", |r| {
            let dfs = r.get("DFS-SX", 4, READ_GIB_S).unwrap();
            r.record("POSIX+IL-SX", 4, READ_GIB_S, 0.97 * dfs)
        }),
        // POSIX+IL writes 3 % above DFS at 16 nodes
        ("daos_api", 1, "interception library recovers", |r| {
            let dfs = r.get("DFS-SX", 16, WRITE_GIB_S).unwrap();
            r.record("POSIX+IL-SX", 16, WRITE_GIB_S, 1.03 * dfs)
        }),
    ];
    for (name, check, id, mutate) in cases {
        let figure = find(name).unwrap();
        let mut report = BenchReport::load(&baselines(), name).unwrap();
        let verdicts = figure.verdicts(&report);
        assert!(verdicts.iter().all(|v| v.pass), "{name}: {verdicts:?}");
        mutate(&mut report);
        let reloaded = BenchReport::from_json(&report.to_json()).unwrap();
        let verdicts = figure.verdicts(&report);
        assert_eq!(verdicts, figure.verdicts(&reloaded), "{name} {id}");
        assert!(verdicts[check].label.starts_with(id), "{verdicts:?}");
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.pass, i != check, "{name} {id}: {verdicts:?}");
        }
    }
}

/// Every figure has checks, and fails each of them on an empty report: a
/// check that reads nothing must not read as green.
#[test]
fn no_figure_passes_its_checks_vacuously() {
    for f in FIGURES {
        let verdicts = f.verdicts(&BenchReport::new(f.name, f.seed));
        assert!(!verdicts.is_empty(), "{}: no checks", f.name);
        assert!(
            verdicts.iter().all(|v| !v.pass),
            "{}: passes on an empty report: {verdicts:?}",
            f.name
        );
    }
}
