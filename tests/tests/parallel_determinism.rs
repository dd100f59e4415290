//! Schedule-independence of the parallel bench executor: the same slate
//! run at 1, 2 and 8 host threads must serialize to *byte-identical*
//! output. Seeds are confined to individual jobs and the reduction is
//! keyed by submission order, so thread count and OS scheduling must be
//! invisible in every artifact the gate compares.
//!
//! This file deliberately contains no `std::thread` usage of its own
//! (D04, `clippy.toml`) — all threading happens inside `daos-bench`'s
//! sanctioned executor.

use daos_bench::exec::Slate;
use daos_bench::figure::{find, run_figures, Figure, Scale};
use daos_bench::qos::{qos_point, QosSweepParams};
use daos_bench::report::{BenchReport, Fragment};
use daos_bench::timelines::rot_timeline;
use daos_bench::traffic::{traffic_modes, traffic_point, TrafficParams};
use daos_bench::FIGURES;
use daos_placement::ObjectClass;

/// Everything a cell recorded, as comparable bytes: its fragment replayed
/// into a report of its own and rendered with `to_json` (which, unlike
/// `==` on the values, equates a NaN metric — an undetected rot's
/// `detect_ms` — with itself).
fn cell_bytes(out: &Fragment) -> String {
    let mut report = BenchReport::new("cell", 0);
    out.replay_into(&mut report);
    report.to_json()
}

/// A cell is a pure function of its parameters: run directly, and twice
/// more as the jobs of a two-thread slate, it records the same fragment —
/// jobs get their own seeded sims, so where they run cannot matter.
/// Returns the direct run's fragment.
fn assert_pure(what: &str, cell: impl Fn(&mut Fragment) + Sync) -> Fragment {
    let run = || {
        let mut out = Fragment::new();
        cell(&mut out);
        out
    };
    let direct = run();
    assert!(!direct.records.is_empty(), "{what} recorded nothing");
    let mut slate = Slate::new();
    for copy in 0..2 {
        slate.push(format!("{what}#{copy}"), run);
    }
    for job in slate.run(2).expect("cell job") {
        assert_eq!(
            cell_bytes(&direct),
            cell_bytes(&job.value),
            "{} diverged from the direct run",
            job.label
        );
    }
    direct
}

/// Every figure at its smoke scale, as one slate: each report
/// byte-identical across thread counts, and so are its verdicts (their
/// labels carry the numbers they read) and the job order. Every check
/// reads the report, so the report reloaded from its JSON — where a NaN
/// is stored as a finite sentinel — gives the live run's verdicts.
#[test]
fn every_smoke_figure_is_byte_identical_across_thread_counts() {
    let wanted: Vec<(&'static Figure, Scale)> = FIGURES.iter().map(|f| (f, Scale::Smoke)).collect();
    assert_eq!(wanted.len(), FIGURES.len());
    let observe = |threads: usize| {
        let run = run_figures(&wanted, threads);
        assert_eq!(run.threads, threads);
        for r in &run.figures {
            assert!(
                !r.report.cells().is_empty(),
                "{} recorded nothing",
                r.figure.name
            );
        }
        let reports: Vec<String> = run.figures.iter().map(|r| r.report.to_json()).collect();
        let verdicts: Vec<_> = run
            .figures
            .iter()
            .map(|r| r.figure.verdicts(&r.report))
            .collect();
        for (r, live) in run.figures.iter().zip(&verdicts) {
            let reloaded = BenchReport::from_json(&r.report.to_json()).expect("round trip");
            assert_eq!(
                live,
                &r.figure.verdicts(&reloaded),
                "{}: a check reads the reloaded report differently",
                r.figure.name
            );
        }
        // timings are schedule-dependent by design, but the labels (the
        // submission order) must not be
        let labels: Vec<String> = run.timings.into_iter().map(|(l, _)| l).collect();
        (reports, verdicts, labels)
    };
    let base = observe(1);
    assert!(
        base.1
            .iter()
            .flatten()
            .any(|v| v.label.starts_with("victim accounting closes")),
        "the smoke slate must check the QoS cells' accounting"
    );
    for id in ["R2x:", "R5x:"] {
        assert!(
            base.1.iter().flatten().any(|v| v.label.starts_with(id)),
            "the smoke slate must check scale's {id}"
        );
    }
    for threads in [2usize, 8] {
        assert_eq!(base, observe(threads), "diverged at {threads} threads");
    }
}

#[test]
fn rot_timeline_matches_direct_run() {
    assert_pure("rot/RP_2GX/scrub", |out| {
        rot_timeline(out, ObjectClass::RP_2GX, true, 0x5C2B ^ 1)
    });
}

#[test]
fn qos_cell_is_deterministic_directly_and_under_the_slate() {
    let params = QosSweepParams::smoke();
    assert_pure("qos/shaped/smoke", |out| {
        qos_point(out, true, params.loads[0], params)
    });
}

/// Every traffic series at every smoke load — latency quantiles, goodput,
/// every shed and damping counter: what the committed
/// `BENCH_traffic_sweep.json` baseline and the R6–R8 gate rest on — and
/// every cell's accounting closes.
#[test]
fn traffic_cells_are_deterministic_directly_and_under_the_slate() {
    let params = TrafficParams::smoke();
    let mut report = BenchReport::new("traffic_sweep", 0);
    for mode in traffic_modes() {
        for &load in params.loads {
            let what = format!("traffic/{}/{load}", mode.series());
            let out = assert_pure(&what, |out| traffic_point(out, mode, load, params));
            out.replay_into(&mut report);
        }
    }
    let accounting: Vec<_> = find("traffic_sweep")
        .unwrap()
        .verdicts(&report)
        .into_iter()
        .filter(|v| v.label.contains("traffic cell"))
        .collect();
    assert_eq!(accounting.len(), 3, "{accounting:?}");
    assert!(accounting.iter().all(|v| v.pass), "{accounting:?}");
}
