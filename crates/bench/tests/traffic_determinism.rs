//! The open-loop traffic harness's two protection modes offer the same
//! workload. (That a `(mode, load)` point is a pure function of its
//! parameters, on any host thread, is covered with the other cells by the
//! `daos-tests` schedule-independence suite.)

use daos_bench::report::{BenchReport, Fragment};
use daos_bench::traffic::{traffic_modes, traffic_point, TrafficParams};

/// The two protection modes must differ *only* through the admission and
/// damping knobs: identical seeds mean identical arrival sequences, so
/// at an uncongested load (50% of nominal) both modes complete every
/// request and goodput matches closely.
#[test]
fn modes_agree_below_the_knee() {
    let params = TrafficParams::smoke();
    let mut cells = Fragment::new();
    for mode in &traffic_modes()[2..4] {
        traffic_point(&mut cells, *mode, 50, params);
    }
    let mut report = BenchReport::new("below_the_knee", 0);
    cells.replay_into(&mut report);
    let get = |series, metric| report.get(series, 50, metric).expect("recorded");
    assert_eq!(get("SX/ac", "failed"), 0.0);
    assert_eq!(get("SX/noac", "failed"), 0.0);
    assert_eq!(get("SX/ac", "engine_sheds"), 0.0);
    let (ac, noac) = (
        get("SX/ac", "goodput_gib_s"),
        get("SX/noac", "goodput_gib_s"),
    );
    assert!(
        (ac - noac).abs() / noac < 0.25,
        "uncongested goodput diverged: {ac} vs {noac} GiB/s"
    );
}
