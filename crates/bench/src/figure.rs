//! One definition per figure: the [`FIGURES`] table and the machinery
//! that runs, prints and audits it.
//!
//! An entry holds everything that is true of a figure exactly once — its
//! report name and root seed, how it enumerates its cells at each
//! [`Scale`], its report-level checks, and which tier of the `regress`
//! gate holds it to its committed baseline. A standalone `daos-bench <figure>`
//! run and the gate both go through [`run_figures`] and
//! [`FigureRun::verdicts`], so a figure cannot be defined one way for
//! one of them and another way for the other.
//!
//! Adding a figure is one table entry plus one committed baseline: see
//! DESIGN.md, "Adding a figure".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::exec::Slate;
use crate::report::{BenchReport, Fragment, Verdict, READ_GIB_S, WRITE_GIB_S};
use crate::{figures, invariants, qos, timelines, traffic};

/// How big a run is. Every figure declares `Full` (what `regress` runs
/// and the committed `results/BENCH_<name>.json` holds); PR-gated figures
/// also declare `Smoke` (a miniature for debug-build determinism tests).
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

/// When `regress` holds a figure's full plan to its committed report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// On every PR.
    Pr,
    /// In the scheduled job only (`regress --nightly`).
    Nightly,
}

impl Gate {
    pub fn name(self) -> &'static str {
        match self {
            Gate::Pr => "pr",
            Gate::Nightly => "nightly",
        }
    }
}

/// One independent, seeded, single-threaded job of a figure: runs a sim
/// and records its metrics (and any shape checks only the live run can
/// evaluate) into the fragment it is handed.
pub struct Cell {
    pub label: String,
    run: Box<dyn FnOnce(&mut Fragment) + Send>,
}

impl Cell {
    pub fn new(label: impl Into<String>, run: impl FnOnce(&mut Fragment) + Send + 'static) -> Cell {
        Cell {
            label: label.into(),
            run: Box::new(run),
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
    pub gate: Gate,
    /// Also render bandwidth-vs-nodes ASCII charts (the paper's figures).
    pub chart: bool,
    /// The cells at a scale; `None` = the figure declares no such scale.
    pub plan: fn(Scale) -> Option<Plan>,
    /// What must hold of the finished report, at any declared scale.
    pub checks: fn(&BenchReport) -> Vec<Verdict>,
}

fn no_checks(_: &BenchReport) -> Vec<Verdict> {
    Vec::new()
}

/// Every figure this crate can produce, in the paper's order: the eight
/// PR-gated reports, the nightly scale tier, then `mdtest_bench`,
/// `protection_sweep`, `daos_api`, `app_workloads`, `dfuse_ablation` and
/// `oclass_sweep`, each gated since by flipping this one field.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1_fpp",
        seed: figures::FIG1_SEED,
        about: "Figure 1: IOR file-per-process, interface x object class x nodes",
        gate: Gate::Pr,
        chart: true,
        plan: |s| figures::paper_figure_plan(true, figures::FIG1_SEED, s),
        checks: invariants::evaluate_fig1,
    },
    Figure {
        name: "fig2_shared",
        seed: figures::FIG2_SEED,
        about: "Figure 2: IOR single shared file, same grid",
        gate: Gate::Pr,
        chart: true,
        plan: |s| figures::paper_figure_plan(false, figures::FIG2_SEED, s),
        checks: invariants::evaluate_fig2,
    },
    Figure {
        name: "pfs_contrast",
        seed: figures::PFS_SEED,
        about: "the 'stark contrast': fpp vs shared on DAOS and a Lustre-like PFS",
        gate: Gate::Pr,
        chart: false,
        plan: figures::pfs_contrast_plan,
        checks: invariants::evaluate_pfs_contrast,
    },
    Figure {
        name: "io500",
        seed: figures::IO500_SEED,
        about: "IO500-style composite: ior-easy + ior-hard + mdtest-easy",
        gate: Gate::Pr,
        chart: false,
        plan: figures::io500_plan,
        checks: figures::check_io500,
    },
    Figure {
        name: "fault_sweep",
        seed: timelines::FAULT_SEED,
        about: "bandwidth along an engine failure: crash, exclude, rebuild, reintegrate",
        gate: Gate::Pr,
        chart: false,
        plan: timelines::fault_plan,
        checks: no_checks,
    },
    Figure {
        name: "scrub_sweep",
        seed: timelines::SCRUB_SEED,
        about: "integrity: checksum overhead + bit-rot detection and repair",
        gate: Gate::Pr,
        chart: false,
        plan: timelines::scrub_plan,
        checks: timelines::check_csum_overhead,
    },
    Figure {
        name: "traffic_sweep",
        seed: traffic::TRAFFIC_SEED,
        about: "open-loop offered load vs latency/goodput, admission ON and OFF (R6-R8)",
        gate: Gate::Pr,
        chart: false,
        plan: traffic::traffic_plan,
        checks: invariants::evaluate_traffic,
    },
    Figure {
        name: "qos_sweep",
        seed: qos::QOS_SEED,
        about: "noisy-neighbor isolation, per-tenant shaping ON and OFF (R9-R11)",
        gate: Gate::Pr,
        chart: false,
        plan: qos::qos_plan,
        checks: invariants::evaluate_qos,
    },
    Figure {
        name: "scale",
        seed: figures::SCALE_SEED,
        about: "beyond the paper: DFS S2/SX x fpp/shared at 64-512 client nodes (R2x, R5x)",
        gate: Gate::Nightly,
        chart: false,
        plan: figures::scale_plan,
        checks: invariants::evaluate_scale,
    },
    Figure {
        name: "mdtest_bench",
        seed: figures::MDTEST_SEED,
        about: "mdtest create/stat/unlink rates: DFS vs DFuse vs PFS",
        gate: Gate::Pr,
        chart: false,
        plan: figures::mdtest_plan,
        checks: figures::check_mdtest,
    },
    Figure {
        name: "protection_sweep",
        seed: figures::PROTECTION_SEED,
        about: "replication / erasure-coding write cost and degraded reads",
        gate: Gate::Pr,
        chart: false,
        plan: figures::protection_plan,
        checks: figures::check_protection,
    },
    Figure {
        name: "daos_api",
        seed: figures::DAOS_API_SEED,
        about: "native DAOS array API vs DFS vs POSIX (+ interception library)",
        gate: Gate::Pr,
        chart: false,
        plan: figures::daos_api_plan,
        checks: figures::check_daos_api,
    },
    Figure {
        name: "app_workloads",
        seed: figures::APP_SEED,
        about: "NWP / checkpoint / producer-consumer through native, DFS and POSIX",
        gate: Gate::Pr,
        chart: false,
        plan: figures::app_workloads_plan,
        checks: figures::check_app_workloads,
    },
    Figure {
        name: "dfuse_ablation",
        seed: figures::DFUSE_ABLATION_SEED,
        about: "DFuse cost decomposition: crossings, request splitting, daemon threads, IL",
        gate: Gate::Pr,
        chart: false,
        plan: figures::dfuse_ablation_plan,
        checks: figures::check_dfuse_ablation,
    },
    Figure {
        name: "oclass_sweep",
        seed: figures::OCLASS_SEED,
        about: "DFS over S1/S2/S4/S8/SX, file-per-process",
        gate: Gate::Pr,
        chart: false,
        plan: figures::oclass_plan,
        checks: figures::check_oclass,
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
    /// The cells' own shape checks, in submission order; empty when the
    /// report was loaded from disk instead of run.
    pub cell_verdicts: Vec<Verdict>,
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
            cell_verdicts: Vec::new(),
        })
    }

    /// Every check of this figure: the live cells' verdicts, then the
    /// figure's report-level checks.
    pub fn verdicts(&self) -> Vec<Verdict> {
        let mut all = self.cell_verdicts.clone();
        all.extend((self.figure.checks)(&self.report));
        all
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
/// threads. Each cell is a job with a fixed seed; fragments are replayed
/// into their figure's report in submission order, so the reports (and
/// everything derived from them: JSON, drift tables, verdicts) are
/// byte-identical regardless of thread count or schedule. Panics — with
/// the offending job's label — if any job panics, if a figure does not
/// declare the scale asked of it, or if two of a figure's records name the
/// same `(series, scale, metric)`: metric names are free-form strings at
/// the record site, and the replay would silently keep the later value.
pub fn run_figures(wanted: &[(&'static Figure, Scale)], threads: usize) -> SlateRun {
    let mut slate: Slate<'_, Fragment> = Slate::new();
    let mut spans = Vec::new();
    for &(figure, scale) in wanted {
        let plan = (figure.plan)(scale)
            .unwrap_or_else(|| panic!("{} declares no {} scale", figure.name, scale.name()));
        spans.push((figure, plan.config_hash, plan.cells.len()));
        for cell in plan.cells {
            slate.push(format!("{}/{}", figure.name, cell.label), move || {
                let mut out = Fragment::new();
                (cell.run)(&mut out);
                out
            });
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "D02: whole-slate wall-time provenance; reported out-of-band, never \
                  compared against baselines"
    )]
    let t0 = std::time::Instant::now();
    let mut jobs = slate
        .run(threads)
        .unwrap_or_else(|p| panic!("figure slate {p}"))
        .into_iter();
    let elapsed_secs = t0.elapsed().as_secs_f64();

    let mut timings = Vec::new();
    let figures = spans
        .into_iter()
        .map(|(figure, config_hash, n_cells)| {
            let mut report = BenchReport::new(figure.name, figure.seed);
            report.config_hash = config_hash;
            let mut cell_verdicts = Vec::new();
            let mut recorded_by = BTreeMap::new();
            for job in jobs.by_ref().take(n_cells) {
                for (series, scale, metric, _) in &job.value.records {
                    let key = (series.clone(), *scale, metric.clone());
                    if let Some(first) = recorded_by.insert(key, job.label.clone()) {
                        panic!(
                            "{first} and {} both record ({series}, {scale}, {metric})",
                            job.label
                        );
                    }
                }
                job.value.replay_into(&mut report);
                cell_verdicts.extend(job.value.verdicts);
                timings.push((job.label, job.wall_secs));
            }
            FigureRun {
                figure,
                report,
                cell_verdicts,
            }
        })
        .collect();
    SlateRun {
        figures,
        timings,
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

/// Everything wrong with the table, or between it and the committed
/// baselines in `baseline_dir`; empty = consistent. `daos-bench list`
/// and the completeness test both gate on this.
pub fn table_problems(baseline_dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let mut names = BTreeSet::new();
    for f in FIGURES {
        if !names.insert(f.name) {
            problems.push(format!("{}: duplicate entry", f.name));
        }
        for scale in Scale::ALL {
            match (f.plan)(scale) {
                Some(plan) if plan.cells.is_empty() => {
                    problems.push(format!("{}: no cells at {} scale", f.name, scale.name()))
                }
                None if scale == Scale::Full => problems.push(format!(
                    "{}: must declare the {} scale",
                    f.name,
                    scale.name()
                )),
                _ => {}
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
            find(name)
                .is_none()
                .then(|| format!("{file}: baseline without a table entry"))
        })
        .collect();
    stray.sort();
    problems.extend(stray);
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cells that record the same `(series, scale, metric)`.
    static COLLIDING: Figure = Figure {
        name: "unit",
        seed: 0,
        about: "",
        gate: Gate::Pr,
        chart: false,
        plan: |_| {
            let cell = |label| Cell::new(label, |out| out.record("s", 1, "m", 1.0));
            Some(Plan {
                config_hash: 0,
                cells: vec![cell("a"), cell("b")],
            })
        },
        checks: no_checks,
    };

    #[test]
    #[should_panic(expected = "unit/a and unit/b both record (s, 1, m)")]
    fn two_cells_recording_one_metric_are_refused() {
        run_figures(&[(&COLLIDING, Scale::Full)], 1);
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
