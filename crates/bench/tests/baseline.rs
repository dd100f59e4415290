//! Tests for the regression-harness machinery: JSON round-trip (and a
//! property test of the reader over any report the writer can write), the
//! exact baseline comparison, and each R1–R5 claim against hand-built
//! pass/fail fixtures.

use daos_bench::baseline::{compare, drift};
use daos_bench::figure::find;
use daos_bench::invariants::{holds, Claim};
use daos_bench::report::{
    config_hash, fnv1a, BenchReport, Verdict, READ_GIB_S, SCHEMA_VERSION, WRITE_GIB_S,
};
use daos_bench::FIGURES;
use proptest::prelude::*;

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
    // NaN is not JSON; it lands as a huge negative sentinel no real
    // metric takes.
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

/// What a name may hold: every kind of character `quote` escapes (`"`,
/// `\`, newline, tab, other control characters), JSON punctuation, and
/// non-ASCII text.
const NAME_CHARS: [char; 17] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', '{', ':', 'é',
    '中', '🦀',
];

fn name() -> impl Strategy<Value = String> {
    let picks = prop::collection::vec(0..NAME_CHARS.len(), 0..6);
    picks.prop_map(|picks| picks.into_iter().map(|i| NAME_CHARS[i]).collect())
}

/// Integral, fractional, subnormal, huge and non-finite values, and any
/// bit pattern at all.
fn metric() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u32>().prop_map(f64::from),
        0.0f64..1.0,
        any::<u64>().prop_map(|bits| f64::from_bits(bits % (1 << 52))),
        Just(f64::MAX),
        Just(-f64::MIN_POSITIVE),
        Just(f64::NAN),
        Just(f64::NEG_INFINITY),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// A report of up to `cells` cells (fewer when names collide).
fn report(cells: usize) -> impl Strategy<Value = BenchReport> {
    let extreme = || prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()];
    let scale = prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()];
    let cell = (name(), scale, name(), metric());
    let cells = prop::collection::vec(cell, 0..cells);
    (name(), extreme(), extreme(), cells).prop_map(|(name, seed, config_hash, cells)| {
        let mut r = BenchReport::new(&name, seed);
        r.config_hash = config_hash;
        for (series, scale, metric, value) in cells {
            r.record(&series, scale, &metric, value);
        }
        r
    })
}

proptest! {
    /// Any report reads back exactly from what `to_json` writes, a
    /// non-finite metric as the sentinel it is stored as, also with the
    /// indentation stripped or widened (raw newlines occur only between
    /// tokens: `quote` escapes them).
    #[test]
    fn any_report_reads_back_from_its_json_at_any_indentation(r in report(12)) {
        let doc = r.to_json();
        let mut want = r.clone();
        for metrics in want.series.values_mut().flat_map(|s| s.values_mut()) {
            for v in metrics.values_mut().filter(|v| !v.is_finite()) {
                *v = -1e308;
            }
        }
        let compact: String = doc.lines().map(str::trim_start).collect();
        let widened = format!(" \r\n{}", doc.replace('\n', "\r\n\t  "));
        for text in [&doc, &compact, &widened] {
            let back = BenchReport::from_json(text).expect("reads back");
            prop_assert_eq!(&back, &want);
            prop_assert_eq!(&back.to_json(), &doc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No proper prefix of a report's JSON (past its trailing newline) is
    /// a report: a truncated baseline fails to load.
    #[test]
    fn every_proper_prefix_of_a_report_is_rejected(r in report(6)) {
        let json = r.to_json();
        let doc = json.trim_end();
        for (at, _) in doc.char_indices() {
            prop_assert!(BenchReport::from_json(&doc[..at]).is_err(), "{:?}", &doc[..at]);
        }
    }
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

// ------------------------------------------------------------ exact gate

fn pair(base_v: f64, fresh_v: f64, metric: &str) -> (BenchReport, BenchReport) {
    let mut base = BenchReport::new("t", 1);
    let mut fresh = BenchReport::new("t", 1);
    base.record("s", 1, metric, base_v);
    fresh.record("s", 1, metric, fresh_v);
    (base, fresh)
}

/// The one row `drift` renders for a cell that moved, found by the cell.
fn row_of(fresh: &BenchReport, base: &BenchReport, series: &str, metric: &str) -> String {
    let table = drift(fresh, &base.to_json()).expect("a differing report has a table");
    assert!(
        table.starts_with(&format!("-- {}: differs", fresh.name)),
        "{table}"
    );
    let rows: Vec<&str> = table
        .lines()
        .filter(|l| l.starts_with(series) && l.contains(metric))
        .collect();
    assert_eq!(rows.len(), 1, "{table}");
    rows[0].to_string()
}

#[test]
fn identical_report_has_no_rows() {
    let (base, fresh) = pair(100.0, 100.0, WRITE_GIB_S);
    assert!(compare(&fresh, &base).is_empty());
    assert_eq!(drift(&fresh, &base.to_json()), None);

    // a NaN cell compares as the sentinel it is stored as, and the stored
    // report writes back the same bytes
    let (base, fresh) = pair(f64::NAN, f64::NAN, WRITE_GIB_S);
    let stored = BenchReport::from_json(&base.to_json()).unwrap();
    assert!(compare(&fresh, &stored).is_empty());
    assert_eq!(drift(&stored, &base.to_json()), None);
    assert_eq!(drift(&fresh, &base.to_json()), None);
}

#[test]
fn a_cell_moved_by_1e12_relative_is_a_violation() {
    let moved = 100.0 * (1.0 + 1e-12);
    let (base, fresh) = pair(100.0, moved, WRITE_GIB_S);
    let drifts = compare(&fresh, &base);
    assert_eq!(drifts.len(), 1);
    assert_eq!(
        (drifts[0].baseline, drifts[0].fresh),
        (Some(100.0), Some(moved))
    );
    let row = row_of(&fresh, &base, "s", WRITE_GIB_S);
    assert!(
        row.contains("100.0 ") && row.contains(&moved.to_string()),
        "{row}"
    );
    assert!(row.ends_with("+1.0e-10"), "{row}");
}

#[test]
fn a_counter_moved_by_one_is_a_violation() {
    let (base, fresh) = pair(12.0, 13.0, "map_version");
    assert_eq!(compare(&fresh, &base).len(), 1);
    let row = row_of(&fresh, &base, "s", "map_version");
    assert!(row.contains("12.0") && row.contains("13.0"), "{row}");
    assert!(row.ends_with("+8.33"), "{row}");
}

#[test]
fn missing_series_fails_both_directions() {
    let mut base = BenchReport::new("t", 1);
    let mut fresh = BenchReport::new("t", 1);
    base.record("dropped", 1, WRITE_GIB_S, 5.0);
    base.record("kept", 1, WRITE_GIB_S, 5.0);
    fresh.record("kept", 1, WRITE_GIB_S, 5.0);
    fresh.record("added", 1, WRITE_GIB_S, 5.0);

    let drifts = compare(&fresh, &base);
    let series: Vec<&str> = drifts.iter().map(|d| d.series.as_str()).collect();
    assert_eq!(series, ["added", "dropped"]);
    assert_eq!((drifts[0].baseline, drifts[0].fresh), (None, Some(5.0)));
    assert_eq!((drifts[1].baseline, drifts[1].fresh), (Some(5.0), None));
    assert!(row_of(&fresh, &base, "added", WRITE_GIB_S).ends_with("new"));
    assert!(row_of(&fresh, &base, "dropped", WRITE_GIB_S).ends_with("missing"));
}

#[test]
fn zero_baseline_nonzero_fresh_is_a_violation() {
    let (base, fresh) = pair(0.0, 0.001, WRITE_GIB_S);
    assert_eq!(compare(&fresh, &base).len(), 1);
    assert!(row_of(&fresh, &base, "s", WRITE_GIB_S).ends_with("+inf"));
}

/// The table names the report, and what moved when no cell did: its
/// provenance, or the bytes around the cells.
#[test]
fn drift_table_names_the_violating_metric() {
    let (base, fresh) = pair(100.0, 50.0, READ_GIB_S);
    let table = drift(&fresh, &base.to_json()).unwrap();
    assert!(table.starts_with("-- t: differs from its baseline in 1 cell(s) --"));
    assert!(row_of(&fresh, &base, "s", READ_GIB_S).ends_with("-50.00"));

    let (base, mut fresh) = pair(100.0, 100.0, READ_GIB_S);
    fresh.seed = 2;
    let table = drift(&fresh, &base.to_json()).unwrap();
    assert!(
        table.contains("provenance: seed 1 -> 2, config_hash 0x0 -> 0x0"),
        "{table}"
    );

    let (base, fresh) = pair(100.0, 100.0, READ_GIB_S);
    let reindented = base.to_json().replace("  ", "   ");
    let table = drift(&fresh, &reindented).unwrap();
    assert!(table.contains("the bytes differ outside them"), "{table}");
    assert!(drift(&fresh, "{").unwrap().contains("baseline unreadable"));
}

// ------------------------------------------------------------ invariants

/// The verdict of the claim with id `id` (`R1`, `R5b`, ...) on `report`.
fn claim(id: &str, report: &BenchReport) -> Verdict {
    let prefix = format!("{id}: ");
    let mut claims = FIGURES.iter().flat_map(|f| f.claims);
    let claim = claims.find(|c| c.prose.starts_with(&prefix)).unwrap();
    claim.verdict(report)
}

/// Every check of `figure` on `report`.
fn checks(figure: &str, report: &BenchReport) -> Vec<Verdict> {
    find(figure).unwrap().verdicts(report)
}

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
    let res = claim("R1", &f);
    assert!(res.pass, "{}", res.label);
    assert!(res.label.starts_with("R1: "), "{}", res.label);

    // hand-invert: SX reads pull ahead of S2
    f.record("DFS-SX", 16, "read_gib_s", 120.0);
    let res = claim("R1", &f);
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
    assert!(claim("R2", &f).pass);

    // SX no longer wins at scale
    f.record("DFS-SX", 16, "write_gib_s", 30.0);
    assert!(!claim("R2", &f).pass);

    // ...or SX wins even at 1 node (crossover gone the other way)
    let mut f = fig1_fixture();
    f.record("DFS-SX", 1, "write_gib_s", 3.5);
    assert!(!claim("R2", &f).pass);
}

#[test]
fn r3_passes_and_detects_hdf5_catching_up() {
    let mut f = fig1_fixture();
    assert!(claim("R3", &f).pass);

    // HDF5 write penalty vanishes
    f.record("HDF5-S1", 1, "write_gib_s", 2.9);
    assert!(!claim("R3", &f).pass);

    // MPI-IO drifting far from DFS also breaks the claim
    let mut f = fig1_fixture();
    f.record("MPIIO-S1", 1, "write_gib_s", 2.0);
    assert!(!claim("R3", &f).pass);

    // ... at any scale, on either narrow class (the standalone figure's
    // former "R3a, all scales" check, now part of the one definition)
    let mut f = fig1_fixture();
    f.record("MPIIO-S2", 16, "write_gib_s", 28.0);
    let res = claim("R3", &f);
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
    assert!(claim("R3", &f).pass);
    f.record("HDF5-S1", 4, "read_gib_s", 45.5); // 0.989x: gap gone at 4 nodes
    assert!(!claim("R3", &f).pass);
}

#[test]
fn r4_passes_and_detects_parity_loss() {
    let f = fig2_fixture();
    assert!(claim("R4", &f).pass);

    let mut f = fig2_fixture();
    f.record("HDF5-SX", 16, "write_gib_s", 20.0); // 0.56x DFS: parity broken
    assert!(!claim("R4", &f).pass);

    let mut f = fig2_fixture();
    f.record("MPIIO-SX", 16, "write_gib_s", 40.0); // DFS no longer highest
    assert!(!claim("R4", &f).pass);

    // the one threshold both paths now share: within 2% of the best
    // passes (the standalone binary's own copy used to demand >= best)
    let mut f = fig2_fixture();
    f.record("MPIIO-SX", 16, "write_gib_s", 36.5);
    assert!(claim("R4", &f).pass);
}

#[test]
fn r5b_passes_and_detects_a_narrow_class_keeping_up() {
    let f = fig2_fixture();
    assert!(claim("R5b", &f).pass);

    let mut f = fig2_fixture();
    f.record("DFS-S2", 16, "write_gib_s", 14.0); // 0.39x SX
    assert!(!claim("R5b", &f).pass);
}

#[test]
fn r5_passes_and_detects_pfs_recovery() {
    let f = pfs_fixture();
    assert!(claim("R5", &f).pass);

    // PFS shared-file writes stop collapsing -> contrast claim dies
    let mut f = pfs_fixture();
    f.record("pfs-shared", 16, "write_gib_s", 20.0); // ratio 0.67
    assert!(!claim("R5", &f).pass);

    // DAOS shared-file writes collapse too
    let mut f = pfs_fixture();
    f.record("daos-shared", 16, "write_gib_s", 20.0); // ratio 0.53
    assert!(!claim("R5", &f).pass);
}

#[test]
fn invariants_fail_loudly_on_missing_cells() {
    let empty = BenchReport::new("fig1_fpp", 1);
    for res in [
        checks("fig1_fpp", &empty),
        checks("fig2_shared", &empty),
        checks("pfs_contrast", &empty),
    ]
    .concat()
    {
        assert!(!res.pass, "{} must fail on an empty report", res.label);
    }

    // a report with cells but a missing series names the gap
    let mut f = fig1_fixture();
    f.series.remove("DFS-SX");
    let res = claim("R1", &f);
    assert!(!res.pass);
    assert!(res.label.contains("missing DFS-SX"), "{}", res.label);
}

/// A claim whose test reads no cell fails, whatever it answers: the rule
/// that keeps an `.all()` over no cells from passing.
#[test]
fn a_claim_that_reads_no_cell_fails() {
    let vacuous = Claim {
        prose: "vacuous",
        test: |_| holds(true),
    };
    let verdict = vacuous.verdict(&fig1_fixture());
    assert_eq!(verdict, Verdict::new("vacuous — no cell read", false));
    let reads = Claim {
        prose: "reads",
        test: |r| holds(r.get("DFS-S1", 1, WRITE_GIB_S)? > 0.0),
    };
    assert_eq!(reads.verdict(&fig1_fixture()), Verdict::new("reads", true));
}

#[test]
fn evaluators_on_good_fixtures_are_all_green() {
    let results = [
        checks("fig1_fpp", &fig1_fixture()),
        checks("fig2_shared", &fig2_fixture()),
        checks("pfs_contrast", &pfs_fixture()),
    ]
    .concat();
    assert!(results.iter().all(|r| r.pass));
    let ids: Vec<_> = results
        .iter()
        .map(|r| r.label.split(':').next().unwrap())
        .collect();
    assert_eq!(ids, ["R1", "R2", "R3", "R4", "R5b", "R5"]);
}
