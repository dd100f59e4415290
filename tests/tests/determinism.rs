//! Determinism regression: the invariant every reproduced claim rests
//! on — a given seed produces a *byte-identical* `BENCH` report, run to
//! run — checked end to end through the serialized JSON.
//!
//! The existing chaos proptest asserts determinism of fault timelines;
//! these tests cover what it does not: the figure-cell bandwidth path
//! (client → fabric → engine → VOS → media with checksums charged) and
//! the scrub/targeted-repair path added with the integrity model. They
//! intentionally share machinery (`run_point_with`, `rot_timeline`) and
//! seeds with the `regress` gate, so a nondeterminism bug that would
//! make CI flaky fails here first, with a readable diff.

use daos_bench::report::{config_hash, BenchReport, Fragment};
use daos_bench::timelines::rot_timeline;
use daos_bench::{paper_cluster, paper_params, run_point_with};
use daos_ior::Api;
use daos_placement::ObjectClass;

/// Figure 1's 1-node DFS-S2 file-per-process cell at a CI-friendly
/// volume: same testbed and seed salting as `regress`, one placement and a
/// smaller per-rank block.
fn figure_cell_json() -> String {
    let mut params = paper_params(Api::Dfs, ObjectClass::S2, true, 16);
    params.block_size = 4 << 20;
    let m = run_point_with(1, params, 0xF161, 1);
    let mut report = BenchReport::new("determinism_cell", 0xF161);
    report.config_hash = config_hash(&paper_cluster(1));
    report.record(&m.series, 1, "write_gib_s", m.report.write_gib_s());
    report.record(&m.series, 1, "read_gib_s", m.report.read_gib_s());
    report.to_json()
}

/// The `regress` scrub-mode rot cell: bit-rot injected on the busiest
/// target, detected by the background scrubber, healed by targeted
/// repair — the PR 2 paths the chaos determinism proptest never drives.
/// Returns the report and the repairs that landed.
fn scrub_repair_json() -> (String, f64) {
    let mut cell = Fragment::new();
    rot_timeline(&mut cell, ObjectClass::RP_2GX, true, 0x5C2B ^ 1);
    let mut report = BenchReport::new("determinism_rot", 0x5C2B ^ 1);
    cell.replay_into(&mut report);
    let repairs = report.get("RP_2GX/scrubber", 0, "repairs_ok");
    (report.to_json(), repairs.expect("the rot row"))
}

#[test]
fn figure_cell_reports_are_byte_identical() {
    let a = figure_cell_json();
    let b = figure_cell_json();
    assert!(
        a.contains("write_gib_s") && a.contains("DFS-S2"),
        "report looks empty:\n{a}"
    );
    assert_eq!(a, b, "same seed must serialize to identical bytes");
}

#[test]
fn scrub_repair_reports_are_byte_identical() {
    let (a, repairs_a) = scrub_repair_json();
    let (b, repairs_b) = scrub_repair_json();
    assert!(
        repairs_a > 0.0,
        "cell must actually exercise targeted repair:\n{a}"
    );
    assert_eq!(repairs_a, repairs_b);
    assert_eq!(a, b, "same seed must serialize to identical bytes");
}
