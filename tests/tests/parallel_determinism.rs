//! Schedule-independence of the parallel bench executor: the same slate
//! run at 1, 2 and 8 host threads must serialize to *byte-identical*
//! output. Seeds are confined to individual jobs and the reduction is
//! keyed by submission order, so thread count and OS scheduling must be
//! invisible in every artifact the gate compares.
//!
//! This file deliberately contains no `std::thread` / `crossbeam` usage
//! of its own (simlint D04) — all threading happens inside `daos-bench`'s
//! sanctioned executor.

use daos_bench::figure::{run_figures, Figure, Scale};
use daos_bench::timelines::{rot_timeline, RotTimeline};
use daos_bench::FIGURES;
use daos_placement::ObjectClass;

/// Every observable field of a rot timeline, as one comparable string.
fn rot_key(t: &RotTimeline) -> String {
    format!(
        "{:?}/{}/{}/{:.6}/{}/{}/{}/{}",
        t.class, t.mode, t.rot_extents, t.detect_ms, t.reported, t.repairs_ok, t.equal, t.clean
    )
}

/// Every observable field of a QoS cell, as one comparable string.
fn qos_key(c: &daos_bench::qos::QosCell) -> String {
    format!(
        "{}/{}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{:.6}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{:.6}/{:.6}",
        c.series,
        c.load_pct,
        c.victim_p50_us,
        c.victim_p99_us,
        c.noisy_p99_us,
        c.victim_goodput_mib_s,
        c.noisy_goodput_mib_s,
        c.victim_sat,
        c.noisy_sat,
        c.noisy_ent_share,
        c.jain,
        c.victim_arrivals,
        c.victim_completed,
        c.victim_failed,
        c.noisy_arrivals,
        c.noisy_completed,
        c.noisy_failed,
        c.engine_sheds,
        c.bg_bytes,
        c.bg_budget_bytes,
        c.victim_throttle_ms,
        c.noisy_throttle_ms,
    )
}

/// Every figure that declares a smoke scale, as one slate: each report
/// byte-identical across thread counts, and so are the cells' verdicts
/// (their labels carry the timeline rows' numbers) and the job order.
#[test]
fn every_smoke_figure_is_byte_identical_across_thread_counts() {
    let wanted: Vec<(&'static Figure, Scale)> = FIGURES
        .iter()
        .filter(|f| (f.plan)(Scale::Smoke).is_some())
        .map(|f| (f, Scale::Smoke))
        .collect();
    assert!(
        wanted.len() >= 9,
        "every PR-gated figure declares a smoke scale"
    );
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
        let verdicts: Vec<_> = run.figures.iter().map(|r| r.verdicts()).collect();
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
            .any(|v| v.label.starts_with("shaped@")),
        "the smoke slate must produce QoS cell verdicts"
    );
    for threads in [2usize, 8] {
        assert_eq!(base, observe(threads), "diverged at {threads} threads");
    }
}

/// A rot timeline produced inside a slate job equals the directly-run
/// one: jobs get their own seeded sims, so where they run cannot matter.
#[test]
fn rot_timeline_matches_direct_run() {
    let direct = rot_timeline(ObjectClass::RP_2GX, true, 0x5C2B ^ 1);

    let mut slate = daos_bench::exec::Slate::new();
    slate.push("rot/RP_2GX/scrub", || {
        rot_timeline(ObjectClass::RP_2GX, true, 0x5C2B ^ 1)
    });
    let out = slate.run(4).expect("rot job");
    assert_eq!(out.len(), 1);
    assert_eq!(rot_key(&direct), rot_key(&out[0].value));
}

/// A noisy-neighbor QoS cell is a pure function of its `(series, load)`
/// point: two direct runs agree on every observable field, and so does
/// the same cell produced inside a multi-threaded slate job.
#[test]
fn qos_cell_is_deterministic_directly_and_under_the_slate() {
    use daos_bench::qos::{qos_point, QosSweepParams};
    let params = QosSweepParams::smoke();
    let load = params.loads[0];

    let a = qos_point(true, load, params);
    let b = qos_point(true, load, params);
    assert_eq!(qos_key(&a), qos_key(&b), "two runs of one cell diverged");

    let mut slate = daos_bench::exec::Slate::new();
    slate.push("qos/shaped/smoke", move || qos_point(true, load, params));
    let out = slate.run(4).expect("qos job");
    assert_eq!(out.len(), 1);
    assert_eq!(
        qos_key(&a),
        qos_key(&out[0].value),
        "slate-run cell diverged from the direct run"
    );
}
