//! Tests for the regression-harness machinery: JSON round-trip,
//! tolerance-band comparison, and each R1–R5 invariant predicate against
//! hand-built pass/fail fixtures.

use daos_bench::baseline::{compare, format_drift_table, violations, DriftStatus, TolerancePolicy};
use daos_bench::invariants::{
    evaluate_fig1, evaluate_fig2, evaluate_pfs_contrast, r1_s2_reads_best, r2_sx_write_crossover,
    r3_hdf5_dfuse_penalty, r4_shared_interface_parity, r5_pfs_collapse,
    r5b_narrow_shared_file_bottleneck,
};
use daos_bench::report::{config_hash, fnv1a, BenchReport, SCHEMA_VERSION};

// ---------------------------------------------------------------- JSON

#[test]
fn json_round_trip_preserves_everything() {
    let mut r = BenchReport::new("fixture", 0xDEAD_BEEF_CAFE_F00D);
    r.config_hash = u64::MAX; // > 2^53: must survive without f64 loss
    r.record("DFS-S2", 1, "write_gib_s", 3.25);
    r.record("DFS-S2", 16, "write_gib_s", 34.125);
    r.record("DFS-S2", 16, "read_gib_s", 108.0);
    r.record("weird \"series\"\n", 0, "lock_revokes", 1536.0);

    let text = r.to_json();
    let back = BenchReport::from_json(&text).expect("round trip");
    assert_eq!(back, r);
    assert_eq!(back.seed, 0xDEAD_BEEF_CAFE_F00D);
    assert_eq!(back.config_hash, u64::MAX);
    assert_eq!(back.get("DFS-S2", 16, "read_gib_s"), Some(108.0));
    assert_eq!(
        back.get("weird \"series\"\n", 0, "lock_revokes"),
        Some(1536.0)
    );
}

/// Reports written before `wall_secs` left the schema still carry the
/// key; unknown top-level keys are ignored, so they keep loading.
#[test]
fn json_with_legacy_wall_secs_still_loads() {
    let mut r = BenchReport::new("legacy", 9);
    r.record("s", 1, "write_gib_s", 2.5);
    let fresh = r.to_json();
    assert!(!fresh.contains("wall_secs"), "no longer written");
    let legacy = fresh.replace(
        "  \"series\":",
        "  \"wall_secs\": 366.795336391,\n  \"series\":",
    );
    assert!(legacy.contains("wall_secs"));
    assert_eq!(BenchReport::from_json(&legacy).expect("legacy loads"), r);
}

#[test]
fn json_round_trip_empty_report() {
    let r = BenchReport::new("empty", 7);
    let back = BenchReport::from_json(&r.to_json()).expect("round trip");
    assert_eq!(back, r);
    assert!(back.cells().is_empty());
}

#[test]
fn json_nan_becomes_broken_sentinel() {
    let mut r = BenchReport::new("nan", 1);
    r.record("s", 1, "write_gib_s", f64::NAN);
    let back = BenchReport::from_json(&r.to_json()).expect("round trip");
    // NaN is not JSON; it lands as a huge negative sentinel that any
    // tolerance band flags as drift.
    assert_eq!(back.get("s", 1, "write_gib_s"), Some(-1e308));
}

#[test]
fn json_rejects_schema_mismatch_and_garbage() {
    let mut r = BenchReport::new("x", 1);
    r.record("s", 1, "m", 1.0);
    let good = r.to_json();

    let bumped = good.replace(
        &format!("\"schema\": {SCHEMA_VERSION}"),
        &format!("\"schema\": {}", SCHEMA_VERSION + 1),
    );
    assert!(
        BenchReport::from_json(&bumped).is_err(),
        "schema bump must fail"
    );

    assert!(BenchReport::from_json("").is_err());
    assert!(BenchReport::from_json("{").is_err());
    assert!(BenchReport::from_json(&format!("{good} trailing")).is_err());
    assert!(
        BenchReport::from_json("[1, 2]").is_err(),
        "document must be an object"
    );
}

#[test]
fn json_files_round_trip_through_disk() {
    let dir = std::env::temp_dir().join(format!("daos_bench_test_{}", std::process::id()));
    let mut r = BenchReport::new("disk", 42);
    r.record("s", 4, "write_gib_s", 5.5);
    let path = r.write_to(&dir).expect("write");
    assert_eq!(path.file_name().unwrap(), "BENCH_disk.json");
    let back = BenchReport::load(&dir, "disk").expect("load");
    assert_eq!(back, r);
    assert!(BenchReport::load(&dir, "nonexistent").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hashes_are_stable() {
    // committed baselines embed these, so the functions must never drift
    assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    let h = config_hash(&daos_bench::paper_cluster(16));
    assert_eq!(h, config_hash(&daos_bench::paper_cluster(16)));
    assert_ne!(h, config_hash(&daos_bench::paper_cluster(8)));
}

// ------------------------------------------------------------ tolerance

fn pair(base_v: f64, fresh_v: f64, metric: &str) -> (BenchReport, BenchReport) {
    let mut base = BenchReport::new("t", 1);
    let mut fresh = BenchReport::new("t", 1);
    base.record("s", 1, metric, base_v);
    fresh.record("s", 1, metric, fresh_v);
    (base, fresh)
}

#[test]
fn drift_inside_band_passes() {
    let (base, fresh) = pair(100.0, 107.0, "write_gib_s"); // +7% < 8%
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert_eq!(drifts.len(), 1);
    assert_eq!(drifts[0].status, DriftStatus::Ok);
    assert!((drifts[0].rel_delta - 0.07).abs() < 1e-12);
    assert_eq!(violations(&drifts), 0);
}

#[test]
fn drift_outside_band_fails() {
    let (base, fresh) = pair(100.0, 91.0, "write_gib_s"); // -9% > 8%
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert_eq!(drifts[0].status, DriftStatus::Exceeded);
    assert_eq!(violations(&drifts), 1);
}

#[test]
fn counters_get_zero_tolerance() {
    let (base, fresh) = pair(12.0, 13.0, "map_version"); // any change fails
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert_eq!(drifts[0].tol, 0.0);
    assert_eq!(drifts[0].status, DriftStatus::Exceeded);

    let (base, fresh) = pair(12.0, 12.0, "map_version");
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert_eq!(
        drifts[0].status,
        DriftStatus::Ok,
        "exact match passes a 0% band"
    );
}

#[test]
fn missing_series_fails_both_directions() {
    let mut base = BenchReport::new("t", 1);
    let mut fresh = BenchReport::new("t", 1);
    base.record("dropped", 1, "write_gib_s", 5.0);
    base.record("kept", 1, "write_gib_s", 5.0);
    fresh.record("kept", 1, "write_gib_s", 5.0);
    fresh.record("added", 1, "write_gib_s", 5.0);

    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert_eq!(violations(&drifts), 2);
    let status_of = |series: &str| {
        drifts
            .iter()
            .find(|d| d.series == series)
            .map(|d| d.status)
            .unwrap()
    };
    assert_eq!(status_of("dropped"), DriftStatus::MissingInFresh);
    assert_eq!(status_of("added"), DriftStatus::MissingInBaseline);
    assert_eq!(status_of("kept"), DriftStatus::Ok);
}

#[test]
fn zero_baseline_nonzero_fresh_is_a_violation() {
    let (base, fresh) = pair(0.0, 0.001, "write_gib_s");
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert_eq!(drifts[0].status, DriftStatus::Exceeded);
    assert!(drifts[0].rel_delta.is_infinite());
}

#[test]
fn drift_table_names_the_violating_metric() {
    let (base, fresh) = pair(100.0, 50.0, "read_gib_s");
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    let quiet = format_drift_table("fig1_fpp", &drifts, false);
    assert!(quiet.contains("fig1_fpp"));
    assert!(quiet.contains("read_gib_s"));
    assert!(quiet.contains("EXCEEDED"));
    assert!(quiet.contains("1 violation(s)"));

    // verbose shows passing rows too
    let (base, fresh) = pair(100.0, 100.0, "read_gib_s");
    let drifts = compare(&fresh, &base, &TolerancePolicy::standard());
    assert!(!format_drift_table("f", &drifts, false).contains("read_gib_s"));
    assert!(format_drift_table("f", &drifts, true).contains("read_gib_s"));
}

// ------------------------------------------------------------ invariants

/// A fig1-shaped fixture that satisfies R1, R2 and R3.
fn fig1_fixture() -> BenchReport {
    let mut r = BenchReport::new("fig1_fpp", 1);
    for (series, lo_w, lo_r, hi_w, hi_r) in [
        // series, 1-node write/read, 16-node write/read
        ("DFS-S1", 3.0, 7.0, 33.0, 105.0),
        ("DFS-S2", 3.0, 7.0, 34.0, 100.0),
        ("DFS-SX", 2.4, 6.5, 38.0, 90.0),
        ("MPIIO-S1", 2.9, 6.8, 32.0, 100.0),
        ("MPIIO-S2", 2.9, 6.8, 33.0, 95.0),
        ("MPIIO-SX", 2.3, 6.3, 37.0, 88.0),
        ("HDF5-S1", 2.5, 6.0, 30.0, 92.0),
        ("HDF5-S2", 2.5, 6.0, 31.0, 90.0),
        ("HDF5-SX", 2.0, 5.5, 34.0, 80.0),
    ] {
        r.record(series, 1, "write_gib_s", lo_w);
        r.record(series, 1, "read_gib_s", lo_r);
        r.record(series, 16, "write_gib_s", hi_w);
        r.record(series, 16, "read_gib_s", hi_r);
    }
    r
}

/// A fig2-shaped fixture satisfying R4 and R5b.
fn fig2_fixture() -> BenchReport {
    let mut r = BenchReport::new("fig2_shared", 1);
    for (series, w, rd) in [
        ("DFS-SX", 36.0, 95.0),
        ("MPIIO-SX", 34.0, 90.0),
        ("HDF5-SX", 32.0, 88.0),
        ("DFS-S1", 1.7, 3.6),
        ("DFS-S2", 3.3, 7.2),
    ] {
        r.record(series, 16, "write_gib_s", w);
        r.record(series, 16, "read_gib_s", rd);
    }
    r
}

/// A pfs_contrast-shaped fixture satisfying R5.
fn pfs_fixture() -> BenchReport {
    let mut r = BenchReport::new("pfs_contrast", 1);
    for (series, w) in [
        ("pfs-fpp", 30.0),
        ("pfs-shared", 9.0), // ratio 0.30
        ("daos-fpp", 38.0),
        ("daos-shared", 35.0), // ratio 0.92
    ] {
        r.record(series, 16, "write_gib_s", w);
    }
    r
}

#[test]
fn r1_passes_and_detects_inversion() {
    let mut f = fig1_fixture();
    let res = r1_s2_reads_best(&f);
    assert!(res.pass, "{}", res.label);
    assert!(res.label.starts_with("R1: "), "{}", res.label);

    // hand-invert: SX reads pull ahead of S2
    f.record("DFS-SX", 16, "read_gib_s", 120.0);
    let res = r1_s2_reads_best(&f);
    assert!(!res.pass);
    assert!(
        res.label.contains("120.00"),
        "label carries the numbers: {}",
        res.label
    );
}

#[test]
fn r2_passes_and_detects_lost_crossover() {
    let mut f = fig1_fixture();
    assert!(r2_sx_write_crossover(&f).pass);

    // SX no longer wins at scale
    f.record("DFS-SX", 16, "write_gib_s", 30.0);
    assert!(!r2_sx_write_crossover(&f).pass);

    // ...or SX wins even at 1 node (crossover gone the other way)
    let mut f = fig1_fixture();
    f.record("DFS-SX", 1, "write_gib_s", 3.5);
    assert!(!r2_sx_write_crossover(&f).pass);
}

#[test]
fn r3_passes_and_detects_hdf5_catching_up() {
    let mut f = fig1_fixture();
    assert!(r3_hdf5_dfuse_penalty(&f).pass);

    // HDF5 write penalty vanishes
    f.record("HDF5-S1", 1, "write_gib_s", 2.9);
    assert!(!r3_hdf5_dfuse_penalty(&f).pass);

    // MPI-IO drifting far from DFS also breaks the claim
    let mut f = fig1_fixture();
    f.record("MPIIO-S1", 1, "write_gib_s", 2.0);
    assert!(!r3_hdf5_dfuse_penalty(&f).pass);

    // ... at any scale, on either narrow class (the standalone figure's
    // former "R3a, all scales" check, now part of the one definition)
    let mut f = fig1_fixture();
    f.record("MPIIO-S2", 16, "write_gib_s", 28.0);
    let res = r3_hdf5_dfuse_penalty(&f);
    assert!(!res.pass);
    assert!(res.label.contains("MPIIO-S2 at 16n"), "{}", res.label);

    // a 4-node scale, when the report has one, is held to the 3% margin
    let mut f = fig1_fixture();
    for (series, w, rd) in [
        ("DFS-S1", 20.0, 46.0),
        ("DFS-S2", 22.0, 46.0),
        ("MPIIO-S1", 20.0, 46.0),
        ("MPIIO-S2", 22.0, 46.0),
        ("HDF5-S1", 18.0, 41.0),
    ] {
        f.record(series, 4, "write_gib_s", w);
        f.record(series, 4, "read_gib_s", rd);
    }
    assert!(r3_hdf5_dfuse_penalty(&f).pass);
    f.record("HDF5-S1", 4, "read_gib_s", 45.5); // 0.989x: gap gone at 4 nodes
    assert!(!r3_hdf5_dfuse_penalty(&f).pass);
}

#[test]
fn r4_passes_and_detects_parity_loss() {
    let f = fig2_fixture();
    assert!(r4_shared_interface_parity(&f).pass);

    let mut f = fig2_fixture();
    f.record("HDF5-SX", 16, "write_gib_s", 20.0); // 0.56x DFS: parity broken
    assert!(!r4_shared_interface_parity(&f).pass);

    let mut f = fig2_fixture();
    f.record("MPIIO-SX", 16, "write_gib_s", 40.0); // DFS no longer highest
    assert!(!r4_shared_interface_parity(&f).pass);

    // the one threshold both paths now share: within 2% of the best
    // passes (the standalone binary's own copy used to demand >= best)
    let mut f = fig2_fixture();
    f.record("MPIIO-SX", 16, "write_gib_s", 36.5);
    assert!(r4_shared_interface_parity(&f).pass);
}

#[test]
fn r5b_passes_and_detects_a_narrow_class_keeping_up() {
    let f = fig2_fixture();
    assert!(r5b_narrow_shared_file_bottleneck(&f).pass);

    let mut f = fig2_fixture();
    f.record("DFS-S2", 16, "write_gib_s", 14.0); // 0.39x SX
    assert!(!r5b_narrow_shared_file_bottleneck(&f).pass);
}

#[test]
fn r5_passes_and_detects_pfs_recovery() {
    let f = pfs_fixture();
    assert!(r5_pfs_collapse(&f).pass);

    // PFS shared-file writes stop collapsing -> contrast claim dies
    let mut f = pfs_fixture();
    f.record("pfs-shared", 16, "write_gib_s", 20.0); // ratio 0.67
    assert!(!r5_pfs_collapse(&f).pass);

    // DAOS shared-file writes collapse too
    let mut f = pfs_fixture();
    f.record("daos-shared", 16, "write_gib_s", 20.0); // ratio 0.53
    assert!(!r5_pfs_collapse(&f).pass);
}

#[test]
fn invariants_fail_loudly_on_missing_cells() {
    let empty = BenchReport::new("fig1_fpp", 1);
    for res in [
        evaluate_fig1(&empty),
        evaluate_fig2(&empty),
        evaluate_pfs_contrast(&empty),
    ]
    .concat()
    {
        assert!(!res.pass, "{} must fail on an empty report", res.label);
    }

    // a report with cells but a missing series names the gap
    let mut f = fig1_fixture();
    f.series.remove("DFS-SX");
    let res = r1_s2_reads_best(&f);
    assert!(!res.pass);
    assert!(res.label.contains("missing DFS-SX"), "{}", res.label);
}

#[test]
fn evaluators_on_good_fixtures_are_all_green() {
    let results = [
        evaluate_fig1(&fig1_fixture()),
        evaluate_fig2(&fig2_fixture()),
        evaluate_pfs_contrast(&pfs_fixture()),
    ]
    .concat();
    assert!(results.iter().all(|r| r.pass));
    let ids: Vec<_> = results
        .iter()
        .map(|r| r.label.split(':').next().unwrap())
        .collect();
    assert_eq!(ids, ["R1", "R2", "R3", "R4", "R5b", "R5"]);
}
