//! One definition per figure: the [`FIGURES`] table and the machinery
//! that runs, prints and audits it.
//!
//! An entry holds everything that is true of a figure exactly once — its
//! report name and root seed, how it enumerates its cells at each
//! [`Scale`] and its report-level checks; `regress` holds every entry's
//! full plan to its committed baseline. A standalone `daos-bench <figure>`
//! run and the gate both go through [`run_figures`] and
//! [`Figure::verdicts`], so a figure cannot be defined one way for
//! one of them and another way for the other.
//!
//! Adding a figure is one table entry plus one committed baseline: see
//! DESIGN.md, "Adding a figure".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::exec::Slate;
use crate::invariants::{self, every_cell, CellClaim, Claim};
use crate::report::{BenchReport, Fragment, Verdict, READ_GIB_S, WRITE_GIB_S};
use crate::{apps, figures, qos, timelines, traffic};

/// How big a run is: `Full` is what `regress` runs and the committed
/// `results/BENCH_<name>.json` holds, `Smoke` a miniature every figure
/// declares for the debug-build determinism tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub const ALL: [Scale; 2] = [Scale::Full, Scale::Smoke];

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// One independent, seeded, single-threaded job of a figure: runs a sim
/// and records its metrics into the fragment it is handed.
pub struct Cell {
    pub label: String,
    /// Content key of a cell other figures may list too: every input its
    /// run reads. A slate runs each key once and replays the fragment into
    /// every figure that lists it; `None` keeps the cell figure-local.
    key: Option<String>,
    run: Box<dyn FnOnce(&mut Fragment) + Send>,
}

impl Cell {
    pub fn new(label: impl Into<String>, run: impl FnOnce(&mut Fragment) + Send + 'static) -> Cell {
        Cell {
            label: label.into(),
            key: None,
            run: Box::new(run),
        }
    }

    /// This cell, shared by its content `key` with any figure that lists it.
    pub fn keyed(self, key: String) -> Cell {
        Cell {
            key: Some(key),
            ..self
        }
    }
}

/// A figure at one scale: its cells, in submission (= reduction) order.
pub struct Plan {
    /// [`crate::report::config_hash`] of the testbed the report is
    /// stamped with; 0 when the figure spans several.
    pub config_hash: u64,
    pub cells: Vec<Cell>,
}

/// One figure, defined once.
pub struct Figure {
    /// Report name: the artifact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Root seed the report is stamped with (cells salt it).
    pub seed: u64,
    /// One line for `daos-bench list` and the printed header.
    pub about: &'static str,
    /// Also render bandwidth-vs-nodes ASCII charts (the paper's figures).
    pub chart: bool,
    /// The cells at a scale.
    pub plan: fn(Scale) -> Plan,
    /// What must hold of the finished report, at either scale: its
    /// report-level claims, then the claims each cell must satisfy.
    pub claims: &'static [Claim],
    pub cell_claims: &'static [CellClaim],
}

impl Figure {
    /// Every check of this figure, read off `report`: a live run and a
    /// reloaded one give the same verdicts.
    pub fn verdicts(&self, report: &BenchReport) -> Vec<Verdict> {
        let claims = self.claims.iter().map(|c| c.verdict(report));
        claims.chain(every_cell(report, self.cell_claims)).collect()
    }
}

/// Every figure this crate can produce, each gated on every PR: the
/// paper's figures and their extensions, the beyond-paper scale sweep,
/// then `mdtest_bench`, `protection_sweep`, `daos_api`, `app_workloads`,
/// `dfuse_ablation` and `oclass_sweep`.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1_fpp",
        seed: figures::FIG1_SEED,
        about: "Figure 1: IOR file-per-process, interface x object class x nodes",
        chart: true,
        plan: |s| figures::paper_figure_plan(true, s),
        claims: invariants::FIG1_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "fig2_shared",
        seed: figures::FIG2_SEED,
        about: "Figure 2: IOR single shared file, same grid",
        chart: true,
        plan: |s| figures::paper_figure_plan(false, s),
        claims: invariants::FIG2_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "pfs_contrast",
        seed: figures::PFS_SEED,
        about: "the 'stark contrast': fpp vs shared on DAOS and a Lustre-like PFS",
        chart: false,
        plan: figures::pfs_contrast_plan,
        claims: invariants::PFS_CONTRAST_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "io500",
        seed: figures::IO500_SEED,
        about: "IO500-style composite: ior-easy + ior-hard + mdtest-easy",
        chart: false,
        plan: figures::io500_plan,
        claims: figures::IO500_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "fault_sweep",
        seed: timelines::FAULT_SEED,
        about: "bandwidth along an engine failure: crash, exclude, rebuild, reintegrate",
        chart: false,
        plan: timelines::fault_plan,
        claims: &[],
        cell_claims: timelines::FAULT_CELLS,
    },
    Figure {
        name: "scrub_sweep",
        seed: timelines::SCRUB_SEED,
        about: "integrity: checksum overhead + bit-rot detection and repair",
        chart: false,
        plan: timelines::scrub_plan,
        claims: &[],
        cell_claims: timelines::SCRUB_CELLS,
    },
    Figure {
        name: "traffic_sweep",
        seed: traffic::TRAFFIC_SEED,
        about: "open-loop offered load vs latency/goodput, admission ON and OFF (R6-R8)",
        chart: false,
        plan: traffic::traffic_plan,
        claims: invariants::TRAFFIC_CLAIMS,
        cell_claims: invariants::TRAFFIC_CELLS,
    },
    Figure {
        name: "qos_sweep",
        seed: qos::QOS_SEED,
        about: "noisy-neighbor isolation, per-tenant shaping ON and OFF (R9-R11)",
        chart: false,
        plan: qos::qos_plan,
        claims: invariants::QOS_CLAIMS,
        cell_claims: invariants::QOS_CELLS,
    },
    Figure {
        name: "scale",
        seed: figures::SCALE_SEED,
        about: "beyond the paper: DFS S2/SX x fpp/shared at 64-512 client nodes (R2x, R5x)",
        chart: false,
        plan: figures::scale_plan,
        claims: invariants::SCALE_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "mdtest_bench",
        seed: figures::MDTEST_SEED,
        about: "mdtest create/stat/unlink rates: DFS vs DFuse vs PFS",
        chart: false,
        plan: figures::mdtest_plan,
        claims: figures::MDTEST_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "protection_sweep",
        seed: figures::PROTECTION_SEED,
        about: "replication / erasure-coding write cost and degraded reads",
        chart: false,
        plan: figures::protection_plan,
        claims: figures::PROTECTION_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "daos_api",
        seed: figures::FIG1_SEED,
        about: "native DAOS array API vs DFS vs POSIX (+ interception library)",
        chart: false,
        plan: figures::daos_api_plan,
        claims: figures::DAOS_API_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "app_workloads",
        seed: apps::APP_SEED,
        about: "NWP / checkpoint / producer-consumer through native, DFS and POSIX",
        chart: false,
        plan: apps::app_workloads_plan,
        claims: apps::APP_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "dfuse_ablation",
        seed: figures::DFUSE_ABLATION_SEED,
        about: "DFuse cost decomposition: crossings, request splitting, daemon threads, IL",
        chart: false,
        plan: figures::dfuse_ablation_plan,
        claims: figures::DFUSE_ABLATION_CLAIMS,
        cell_claims: &[],
    },
    Figure {
        name: "oclass_sweep",
        seed: figures::FIG1_SEED,
        about: "DFS over S1/S2/S4/S8/SX, file-per-process",
        chart: false,
        plan: figures::oclass_plan,
        claims: figures::OCLASS_CLAIMS,
        cell_claims: &[],
    },
];

/// Look a figure up by report name.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/// One figure's finished (or reloaded) run.
pub struct FigureRun {
    pub figure: &'static Figure,
    pub report: BenchReport,
}

impl FigureRun {
    /// A previous run's report, reloaded from `dir`.
    pub fn load(
        figure: &'static Figure,
        dir: &Path,
    ) -> Result<FigureRun, crate::report::JsonError> {
        Ok(FigureRun {
            figure,
            report: BenchReport::load(dir, figure.name)?,
        })
    }
}

/// Everything one slate run produces: the figure runs (fully
/// schedule-independent) and the runner's own wall-time accounting
/// (schedule-dependent by nature, reported out-of-band).
pub struct SlateRun {
    pub figures: Vec<FigureRun>,
    /// Per-job `(label, wall_secs)` in submission order.
    pub timings: Vec<(String, f64)>,
    /// Host wall time of the whole slate at the chosen thread count.
    pub elapsed_secs: f64,
    /// Thread count the slate ran with.
    pub threads: usize,
}

impl SlateRun {
    /// Sum of per-job wall times ≈ what a `--threads 1` run costs.
    pub fn serial_secs(&self) -> f64 {
        self.timings.iter().map(|(_, s)| s).sum()
    }

    /// Serial-equivalent over elapsed: what the host threads bought.
    pub fn speedup(&self) -> f64 {
        self.serial_secs() / self.elapsed_secs.max(1e-9)
    }

    /// One summary line, then one line per job — the `timing.txt` format.
    pub fn timing_table(&self) -> String {
        let mut out = format!(
            "threads={} jobs={} serial_secs={:.3} elapsed_secs={:.3} speedup={:.2}\n",
            self.threads,
            self.timings.len(),
            self.serial_secs(),
            self.elapsed_secs,
            self.speedup(),
        );
        for (label, secs) in &self.timings {
            let _ = writeln!(out, "{secs:10.3}s  {label}");
        }
        out
    }
}

/// Run every `(figure, scale)` as one job slate across `threads` host
/// threads. Each cell is a job with a fixed seed, except that a keyed
/// cell ([`Cell::keyed`]) runs once per distinct key, under the label of
/// the first figure that lists it; fragments are replayed into every
/// figure that lists them in submission order, so the reports (and
/// everything derived from them: JSON, drift tables, verdicts) are
/// byte-identical regardless of thread count or schedule. Panics — with
/// the offending job's label — if any job panics, or if two of a figure's records name the
/// same `(series, scale, metric)`: metric names are free-form strings at
/// the record site, and the replay would silently keep the later value.
pub fn run_figures(wanted: &[(&'static Figure, Scale)], threads: usize) -> SlateRun {
    let mut slate: Slate<'_, Fragment> = Slate::new();
    let mut job_of_key = BTreeMap::new();
    let mut spans = Vec::new();
    for &(figure, scale) in wanted {
        let plan = (figure.plan)(scale);
        let mut jobs = Vec::new();
        for cell in plan.cells {
            // a figure-local cell is keyed by the job it is about to become
            let key = cell.key.ok_or(slate.len());
            let job = job_of_key.entry(key).or_insert_with(|| {
                slate.push(format!("{}/{}", figure.name, cell.label), move || {
                    let mut out = Fragment::new();
                    (cell.run)(&mut out);
                    out
                });
                slate.len() - 1
            });
            jobs.push(*job);
        }
        spans.push((figure, plan.config_hash, jobs));
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "D02: whole-slate wall-time provenance; reported out-of-band, never \
                  compared against baselines"
    )]
    let t0 = std::time::Instant::now();
    let results = slate
        .run(threads)
        .unwrap_or_else(|p| panic!("figure slate {p}"));
    let elapsed_secs = t0.elapsed().as_secs_f64();

    let figures = spans
        .into_iter()
        .map(|(figure, config_hash, jobs)| {
            let mut report = BenchReport::new(figure.name, figure.seed);
            report.config_hash = config_hash;
            let mut recorded_by = BTreeMap::new();
            for job in jobs.into_iter().map(|j| &results[j]) {
                for (series, scale, metric, _) in &job.value.records {
                    let key = (series.clone(), *scale, metric.clone());
                    if let Some(first) = recorded_by.insert(key, &job.label) {
                        panic!(
                            "{first} and {} both record ({series}, {scale}, {metric})",
                            job.label
                        );
                    }
                }
                job.value.replay_into(&mut report);
            }
            FigureRun { figure, report }
        })
        .collect();
    SlateRun {
        figures,
        timings: results
            .into_iter()
            .map(|job| (job.label, job.wall_secs))
            .collect(),
        elapsed_secs,
        threads,
    }
}

/// Where a standalone run drops (and `--compare-only` looks for) its
/// `BENCH_<name>.json`: `$DAOS_BENCH_OUT` if set (empty = write nothing),
/// else `target/bench/`. Only `regress --update` writes the committed
/// reports in `results/`.
pub fn out_dir() -> Option<PathBuf> {
    resolve_out_dir(std::env::var("DAOS_BENCH_OUT").ok().as_deref())
}

fn resolve_out_dir(env: Option<&str>) -> Option<PathBuf> {
    match env {
        Some("") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from("target/bench")),
    }
}

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

/// Integral values print as integers (counters), the rest to three
/// decimals (bandwidths, latencies, ratios).
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The report as CSV tables: series that carry the same metric set share
/// one table (`series,scale,<metrics...>`), in order of first appearance.
pub fn render_table(report: &BenchReport) -> String {
    let mut groups: Vec<(BTreeSet<&str>, Vec<&str>)> = Vec::new();
    for (series, scales) in &report.series {
        let metrics: BTreeSet<&str> = scales
            .values()
            .flat_map(|m| m.keys().map(String::as_str))
            .collect();
        match groups.iter_mut().find(|(m, _)| *m == metrics) {
            Some((_, members)) => members.push(series),
            None => groups.push((metrics, vec![series])),
        }
    }
    let mut out = String::new();
    for (i, (metrics, members)) in groups.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str("series,scale");
        for m in metrics {
            let _ = write!(out, ",{m}");
        }
        out.push('\n');
        for series in members {
            for (scale, row) in &report.series[*series] {
                let _ = write!(out, "{series},{scale}");
                for m in metrics {
                    out.push(',');
                    if let Some(&v) = row.get(*m) {
                        out.push_str(&fmt_value(v));
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

/// A rough ASCII chart of one metric: one row per series per scale.
pub fn render_chart(report: &BenchReport, metric: &str) -> String {
    let max = report
        .cells()
        .iter()
        .filter(|(_, _, m, _)| *m == metric)
        .fold(1e-9f64, |a, &(_, _, _, v)| a.max(v));
    let mut out = format!("== {} ({metric}) ==\n", report.name);
    for (series, scales) in &report.series {
        let _ = writeln!(out, "{series}");
        for (nodes, row) in scales {
            if let Some(&bw) = row.get(metric) {
                let bar = "#".repeat(((bw / max) * 50.0).round() as usize);
                let _ = writeln!(out, "  {nodes:>3} nodes | {bar:<50} {bw:7.2} GiB/s");
            }
        }
    }
    out
}

/// The whole human-readable rendering of one figure's report: header,
/// tables, and (for the paper's figures) the read and write charts.
pub fn render(figure: &Figure, report: &BenchReport) -> String {
    let mut out = format!(
        "# {}: {} (seed {:#x})\n",
        figure.name, figure.about, report.seed
    );
    out.push_str(&render_table(report));
    if figure.chart {
        for metric in [READ_GIB_S, WRITE_GIB_S] {
            out.push('\n');
            out.push_str(&render_chart(report, metric));
        }
    }
    out
}

/// `[PASS]` / `[FAIL]` lines, one per verdict.
pub fn render_verdicts(verdicts: &[Verdict]) -> String {
    let mut out = String::new();
    for v in verdicts {
        let _ = writeln!(
            out,
            "[{}] {}",
            if v.pass { "PASS" } else { "FAIL" },
            v.label
        );
    }
    out
}

// ---------------------------------------------------------------------
// Auditing the table
// ---------------------------------------------------------------------

/// Everything wrong with `table`, or between it and the committed
/// baselines in `baseline_dir`; empty = consistent. `daos-bench list`
/// and the completeness test both gate on this for [`FIGURES`].
pub fn table_problems(table: &[Figure], baseline_dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let mut names = BTreeSet::new();
    for f in table {
        if !names.insert(f.name) {
            problems.push(format!("{}: duplicate entry", f.name));
        }
        for scale in Scale::ALL {
            if (f.plan)(scale).cells.is_empty() {
                problems.push(format!("{}: no cells at {} scale", f.name, scale.name()));
            }
        }
        match BenchReport::load(baseline_dir, f.name) {
            Ok(base) if base.seed != f.seed => problems.push(format!(
                "{}: baseline seed {:#x} != table seed {:#x}",
                f.name, base.seed, f.seed
            )),
            Ok(_) => {}
            Err(e) => problems.push(format!("{}: gated but has no baseline ({e})", f.name)),
        }
    }
    let mut stray: Vec<String> = std::fs::read_dir(baseline_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let file = entry.file_name().into_string().ok()?;
            let name = file.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            (!names.contains(name)).then(|| format!("{file}: baseline without a table entry"))
        })
        .collect();
    stray.sort();
    problems.extend(stray);
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: Figure = Figure {
        name: "unit",
        seed: 0,
        about: "",
        chart: false,
        plan: |_| Plan {
            config_hash: 0,
            cells: Vec::new(),
        },
        claims: &[],
        cell_claims: &[],
    };

    /// Two cells that record the same `(series, scale, metric)`.
    static COLLIDING: Figure = Figure {
        plan: |_| {
            let cell = |label| Cell::new(label, |out| out.record("s", 1, "m", 1.0));
            Plan {
                config_hash: 0,
                cells: vec![cell("a"), cell("b")],
            }
        },
        ..UNIT
    };

    #[test]
    #[should_panic(expected = "unit/a and unit/b both record (s, 1, m)")]
    fn two_cells_recording_one_metric_are_refused() {
        run_figures(&[(&COLLIDING, Scale::Full)], 1);
    }

    /// A plan that lists the content key `k`, and with `local` a
    /// figure-local cell too.
    fn sharing_plan(local: bool) -> Plan {
        let mut cells = vec![Cell::new("c", |out| out.record("s", 1, "m", 1.0)).keyed("k".into())];
        if local {
            cells.push(Cell::new("own", |out| out.record("t", 1, "m", 2.0)));
        }
        Plan {
            config_hash: 0,
            cells,
        }
    }

    static SHARE_A: Figure = Figure {
        name: "share_a",
        plan: |_| sharing_plan(false),
        ..UNIT
    };
    static SHARE_B: Figure = Figure {
        name: "share_b",
        plan: |_| sharing_plan(true),
        ..UNIT
    };

    #[test]
    fn a_shared_key_runs_one_job_for_every_figure_that_lists_it() {
        let run = run_figures(&[(&SHARE_A, Scale::Full), (&SHARE_B, Scale::Full)], 2);
        let labels: Vec<&str> = run.timings.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["share_a/c", "share_b/own"]);
        let [a, b] = &run.figures[..] else {
            panic!("two figure runs")
        };
        assert_eq!(a.report.cells(), [("s", 1, "m", 1.0)]);
        assert_eq!(b.report.cells(), [("s", 1, "m", 1.0), ("t", 1, "m", 2.0)]);
    }

    #[test]
    fn standalone_runs_never_write_into_results() {
        // the committed reports change only through `regress --update`
        assert_eq!(resolve_out_dir(None), Some(PathBuf::from("target/bench")));
        assert_eq!(
            resolve_out_dir(Some("/tmp/x")),
            Some(PathBuf::from("/tmp/x"))
        );
        assert_eq!(resolve_out_dir(Some("")), None);
    }

    #[test]
    fn table_groups_series_by_metric_set() {
        let mut r = BenchReport::new("unit", 7);
        r.record("a", 1, "write_gib_s", 1.5);
        r.record("a", 16, "write_gib_s", 20.0);
        r.record("b", 1, "write_gib_s", 2.25);
        r.record("c", 0, "count", 3.0);
        assert_eq!(
            render_table(&r),
            "series,scale,write_gib_s\na,1,1.500\na,16,20\nb,1,2.250\n\nseries,scale,count\nc,0,3\n"
        );
    }

    #[test]
    fn chart_scales_bars_to_the_largest_value() {
        let mut r = BenchReport::new("unit", 7);
        r.record("DFS-S1", 1, READ_GIB_S, 5.0);
        r.record("DFS-S1", 2, READ_GIB_S, 10.0);
        r.record("DFS-S1", 2, WRITE_GIB_S, 99.0);
        let chart = render_chart(&r, READ_GIB_S);
        assert!(chart.contains(&format!("| {:<50}    5.00 GiB/s", "#".repeat(25))));
        assert!(chart.contains(&format!("| {}   10.00 GiB/s", "#".repeat(50))));
    }
}
