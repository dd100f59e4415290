//! Report-level claims as rows of one type, [`Claim`], evaluated by one
//! function, [`Claim::verdict`]; and [`every_cell`], the one form of a
//! claim each cell of a report must satisfy.
//!
//! This module holds the paper's qualitative results (R1–R5) and the
//! R6–R11 / R2x / R5x extensions: the orderings and crossovers *"DAOS as
//! HPC Storage: Exploring Interfaces"* reports and `EXPERIMENTS.md`
//! reproduces. The `regress` gate and a standalone `daos-bench <figure>`
//! run both evaluate them through the figure's [`crate::FIGURES`] entry,
//! so not even an intentional baseline update can silently invert a
//! figure. Each row reads the scales present in the report (smallest,
//! largest, or all of them), so the one definition checks the full figure
//! grids and the smoke miniatures alike.

use std::cell::Cell;
use std::collections::BTreeSet;

use crate::report::{BenchReport, Verdict, NAN_SENTINEL, READ_GIB_S, WRITE_GIB_S};

/// What a claim's test makes of a report: whether the claim holds and the
/// numbers it read (empty: the verdict line is the prose alone), or which
/// cell or scale axis the report lacks.
pub type Outcome = Result<(bool, String), String>;

/// A claim that prints no numbers: its verdict line is its prose.
pub fn holds(pass: bool) -> Outcome {
    Ok((pass, String::new()))
}

/// One report-level claim: the prose its verdict line starts with (an R
/// claim's with its id, e.g. `R2: `) and the test that reads it off a
/// report.
pub struct Claim {
    pub prose: &'static str,
    pub test: fn(&Probe) -> Outcome,
}

impl Claim {
    /// The claim's verdict on `report`: `{prose} — {detail}`, or the prose
    /// alone when the test reports no numbers. A missing cell fails with
    /// its name as the detail, and so does a test that read no cell: an
    /// empty report never passes.
    pub fn verdict(&self, report: &BenchReport) -> Verdict {
        let probe = Probe {
            report,
            reads: Cell::new(0),
        };
        let (pass, detail) = match (self.test)(&probe) {
            Ok(_) if probe.reads.get() == 0 => (false, "no cell read".to_string()),
            Ok(outcome) => outcome,
            Err(missing) => (false, missing),
        };
        match detail.is_empty() {
            true => Verdict::new(self.prose, pass),
            false => Verdict::new(format!("{} — {detail}", self.prose), pass),
        }
    }
}

/// A report as a claim reads it. Every cell read is counted; a cell the
/// report lacks, or holds as NaN (live) or its sentinel (reloaded), and
/// an empty scale axis are each an `Err` naming what is missing.
pub struct Probe<'a> {
    report: &'a BenchReport,
    reads: Cell<usize>,
}

impl Probe<'_> {
    /// One metric of one cell.
    pub fn get(&self, series: &str, scale: u32, metric: &str) -> Result<f64, String> {
        self.reads.set(self.reads.get() + 1);
        match self.report.get(series, scale, metric) {
            Some(v) if !v.is_nan() && v != NAN_SENTINEL => Ok(v),
            _ => Err(format!(
                "missing {series}/{scale}/{metric} in BENCH_{}",
                self.report.name
            )),
        }
    }

    /// One metric of each of `series` at one scale, in `series` order.
    pub fn row<const N: usize>(
        &self,
        series: [&str; N],
        scale: u32,
        metric: &str,
    ) -> Result<[f64; N], String> {
        let mut row = [0.0; N];
        for (v, s) in row.iter_mut().zip(series) {
            *v = self.get(s, scale, metric)?;
        }
        Ok(row)
    }

    /// One metric in every cell that holds it, as stored.
    pub fn every(&self, metric: &str) -> Vec<f64> {
        let cells = self.report.cells().into_iter();
        let values: Vec<f64> = cells.filter(|c| c.2 == metric).map(|c| c.3).collect();
        self.reads.set(self.reads.get() + values.len());
        values
    }

    /// Every series name, in order.
    pub fn series(&self) -> impl Iterator<Item = &str> {
        self.report.series.keys().map(String::as_str)
    }

    /// Every client-node scale present in the report, ascending.
    pub fn scales(&self) -> Result<Vec<u32>, String> {
        let all = self.report.series.values().flat_map(|s| s.keys().copied());
        let scales: Vec<u32> = all.collect::<BTreeSet<u32>>().into_iter().collect();
        match scales.is_empty() {
            true => Err("empty report".into()),
            false => Ok(scales),
        }
    }

    /// The largest scale present in the report.
    pub fn top(&self) -> Result<u32, String> {
        Ok(*self.scales()?.last().expect("non-empty"))
    }

    /// The ascending scale (or load) axis of one series.
    pub fn axis(&self, series: &str) -> Result<Vec<u32>, String> {
        match self.report.series.get(series) {
            Some(scales) if !scales.is_empty() => Ok(scales.keys().copied().collect()),
            _ => Err(format!("empty {series} series")),
        }
    }
}

/// A claim each cell of a report must satisfy: what it says, which
/// series it covers, and what must hold of one cell, whose metrics it
/// reads by name.
pub type CellClaim = (
    &'static str,
    fn(&str) -> bool,
    fn(&dyn Fn(&str) -> f64) -> bool,
);

/// One verdict per claim, over every `(series, scale)` cell of a series it
/// covers: it passes when there is such a cell and each satisfies it. A
/// metric the cell lacks, or holds as the NaN sentinel, reads as NaN, so
/// a live report and its reloaded JSON give the same verdicts. The detail
/// names the failing `series@scale` cells.
pub fn every_cell(report: &BenchReport, claims: &[CellClaim]) -> Vec<Verdict> {
    let verdict = |&(claim, covers, holds): &CellClaim| {
        let (mut cells, mut failing) = (0, Vec::new());
        for (series, scales) in report.series.iter().filter(|(s, _)| covers(s)) {
            for (scale, metrics) in scales {
                cells += 1;
                let metric = |m: &str| match metrics.get(m) {
                    Some(&v) if v != NAN_SENTINEL => v,
                    _ => f64::NAN,
                };
                if !holds(&metric) {
                    failing.push(format!("{series}@{scale}"));
                }
            }
        }
        let detail = match failing.len() {
            0 => format!("{cells} cells"),
            n => format!("fails at {n} of {cells} cells: {}", failing.join(", ")),
        };
        Verdict::new(
            format!("{claim} — {detail}"),
            cells > 0 && failing.is_empty(),
        )
    };
    claims.iter().map(verdict).collect()
}

/// Figure 1's claims: R1–R3.
pub const FIG1_CLAIMS: &[Claim] = &[
    // R1 — "a small amount of object sharding (S2) gives the best
    // performance for reading data": S2 FPP reads beat fully-sharded SX
    // reads at the largest scale (stream-window thrash penalizes SX).
    Claim {
        prose: "R1: S2 FPP reads beat SX at the largest scale",
        test: |r| {
            let top = r.top()?;
            let [s2, sx] = r.row(["DFS-S2", "DFS-SX"], top, READ_GIB_S)?;
            let detail = format!("{top} nodes: S2 read {s2:.2} vs SX read {sx:.2} GiB/s");
            Ok((s2 > sx, detail))
        },
    },
    // R2 — the SX write crossover: full sharding is the best writer under
    // high contention (largest scale) but *slower* than S2 for few writers
    // (smallest scale).
    Claim {
        prose: "R2: SX write crossover: loses to S2 at small scale, wins at large",
        test: |r| {
            let scales = r.scales()?;
            let (lo, top) = (scales[0], scales[scales.len() - 1]);
            let [sx_lo, s2_lo] = r.row(["DFS-SX", "DFS-S2"], lo, WRITE_GIB_S)?;
            let [sx_hi, s2_hi, s1_hi] = r.row(["DFS-SX", "DFS-S2", "DFS-S1"], top, WRITE_GIB_S)?;
            let detail = format!(
                "{lo} node(s): SX {sx_lo:.2} vs S2 {s2_lo:.2}; {top} nodes: SX {sx_hi:.2} vs S2 {s2_hi:.2} / S1 {s1_hi:.2} GiB/s"
            );
            Ok((sx_lo < s2_lo && sx_hi > s2_hi && sx_hi > s1_hi, detail))
        },
    },
    // R3 — "HDF5 using the DFuse mount gives much lower performance, both
    // for read and write" while MPI-IO over DFuse tracks DFS. HDF5-S1
    // trails MPI-IO-S1 on both phases by >5% at the smallest scale and
    // still by >3% at every further scale up to 4 client nodes (the gap
    // closes as the servers saturate, so larger scales are not held to
    // it); MPI-IO writes stay within ±10% of DFS at every scale, for both
    // narrow classes.
    Claim {
        prose: "R3: HDF5-over-DFuse trails MPI-IO/DFS; MPI-IO tracks DFS",
        test: |r| {
            let scales = r.scales()?;
            let lo = scales[0];
            let mut pass = true;
            let mut detail = String::new();
            // worst MPI-IO write deviation from DFS: (fraction, series, scale)
            let mut worst = (0.0f64, String::new(), lo);
            for &n in &scales {
                for class in ["S1", "S2"] {
                    let mpiio = format!("MPIIO-{class}");
                    let m_w = r.get(&mpiio, n, WRITE_GIB_S)?;
                    let d_w = r.get(&format!("DFS-{class}"), n, WRITE_GIB_S)?;
                    let dev = (m_w / d_w - 1.0).abs();
                    // negated so a NaN deviation also becomes the worst
                    let within = dev <= worst.0;
                    if !within {
                        worst = (dev, mpiio, n);
                    }
                }
                if n > lo.max(4) {
                    continue;
                }
                let margin = if n == lo { 0.95 } else { 0.97 };
                let [h_w, m_w] = r.row(["HDF5-S1", "MPIIO-S1"], n, WRITE_GIB_S)?;
                let [h_r, m_r] = r.row(["HDF5-S1", "MPIIO-S1"], n, READ_GIB_S)?;
                pass &= h_w < margin * m_w && h_r < margin * m_r;
                detail.push_str(&format!(
                    "{n} node(s): HDF5 {h_w:.2}w/{h_r:.2}r vs MPIIO {m_w:.2}w/{m_r:.2}r (<{margin}x); "
                ));
            }
            pass &= worst.0 < 0.10;
            detail.push_str(&format!(
                "MPI-IO writes within {:.1}% of DFS at every scale (worst: {} at {}n)",
                worst.0 * 100.0,
                worst.1,
                worst.2
            ));
            Ok((pass, detail))
        },
    },
];

/// Figure 2's claims: R4 and the narrow-class bottleneck R5b.
pub const FIG2_CLAIMS: &[Claim] = &[
    // R4 — shared-file interface parity: the DFS API leads the shared-file
    // write field at scale (within 2% of the best — the paper's margin is
    // razor-thin, "similar performance achieved across interfaces"), with
    // MPI-IO and HDF5 over DFuse within 15% for both phases.
    Claim {
        prose: "R4: shared-file: DFS within 2% of best write, all interfaces within 15%",
        test: |r| {
            let top = r.top()?;
            let apis = ["DFS-SX", "MPIIO-SX", "HDF5-SX"];
            let [d_w, m_w, h_w] = r.row(apis, top, WRITE_GIB_S)?;
            let [d_r, m_r, h_r] = r.row(apis, top, READ_GIB_S)?;
            let detail = format!(
                "{top} nodes write: DFS {d_w:.2} MPIIO {m_w:.2} HDF5 {h_w:.2}; read: {d_r:.2}/{m_r:.2}/{h_r:.2} GiB/s"
            );
            let dfs_highest = d_w >= 0.98 * m_w.max(h_w);
            let parity =
                m_w > 0.85 * d_w && h_w > 0.85 * d_w && m_r > 0.85 * d_r && h_r > 0.85 * d_r;
            Ok((dfs_highest && parity, detail))
        },
    },
    // R5b — why shared files want wide classes: a single shared S1 or S2
    // file bottlenecks on its one or two targets, far below the
    // fully-striped SX file, at the largest scale.
    Claim {
        prose: "R5b: shared file: S1 < 0.2x and S2 < 0.35x the SX write bandwidth",
        test: |r| {
            let top = r.top()?;
            let [s1, s2, sx] = r.row(["DFS-S1", "DFS-S2", "DFS-SX"], top, WRITE_GIB_S)?;
            let detail = format!("{top} nodes write: S1 {s1:.2} S2 {s2:.2} SX {sx:.2} GiB/s");
            Ok((s1 < 0.2 * sx && s2 < 0.35 * sx, detail))
        },
    },
];

/// R5's floor on DAOS's shared-file write bandwidth over its
/// file-per-process bandwidth ("parity").
pub const R5_SHARED_OVER_FPP: f64 = 0.8;

/// The PFS contrast's claim: R5.
pub const PFS_CONTRAST_CLAIMS: &[Claim] = &[
    // R5 — the "stark contrast" claim: on DAOS a shared file writes at
    // ≥80% of file-per-process, while the Lustre-like PFS collapses below
    // 50%, and the DAOS ratio is at least 3× the PFS ratio.
    Claim {
        prose: "R5: DAOS shared/FPP >= 0.8, PFS < 0.5, DAOS ratio >= 3x PFS",
        test: |r| {
            let top = r.top()?;
            let series = ["pfs-fpp", "pfs-shared", "daos-fpp", "daos-shared"];
            let [p_fpp, p_sh, d_fpp, d_sh] = r.row(series, top, WRITE_GIB_S)?;
            let pfs_ratio = p_sh / p_fpp;
            let daos_ratio = d_sh / d_fpp;
            let detail = format!(
                "{top} nodes shared/fpp write ratio: daos {daos_ratio:.2} vs pfs {pfs_ratio:.2}"
            );
            let pass =
                daos_ratio > R5_SHARED_OVER_FPP && pfs_ratio < 0.5 && daos_ratio >= 3.0 * pfs_ratio;
            Ok((pass, detail))
        },
    },
];

/// The beyond-paper scale claims, R2x and R5x.
pub const SCALE_CLAIMS: &[Claim] = &[
    // R2x — the R2 crossover relocated beyond the paper's reach. On the
    // paper's fixed 8-server testbed SX overtakes S2 for fpp writes by 16
    // client nodes (R2). On the weak-scaled testbed — servers growing with
    // clients, per-engine contention held at the calibrated level — S2's
    // smaller per-file fan-out keeps it ahead again until the aggregate
    // metadata/striping overheads of the wider class amortize: the check
    // asserts the lead changes hands from S2 to SX exactly once along the
    // 64–512-node axis, and reports where.
    Claim {
        prose: "R2x: fpp-write lead flips S2 -> SX exactly once along the 64-512-node axis",
        test: |r| {
            let mut leads = Vec::new();
            for n in r.axis("DFS-SX-fpp")? {
                let [sx, s2] = r.row(["DFS-SX-fpp", "DFS-S2-fpp"], n, WRITE_GIB_S)?;
                leads.push((n, sx, s2));
            }
            let flips: Vec<usize> = leads
                .windows(2)
                .enumerate()
                .filter(|(_, w)| (w[0].1 > w[0].2) != (w[1].1 > w[1].2))
                .map(|(i, _)| i)
                .collect();
            let s2_first = leads[0].1 <= leads[0].2;
            let sx_last = leads[leads.len() - 1].1 > leads[leads.len() - 1].2;
            let detail = match flips.as_slice() {
                [i] => {
                    let (below, sx_b, s2_b) = leads[*i];
                    let (at, sx_a, s2_a) = leads[*i + 1];
                    format!(
                        "S2 leads through {below} nodes ({s2_b:.1} vs SX {sx_b:.1}), SX from {at} \
                         ({sx_a:.1} vs S2 {s2_a:.1}) — crossover in ({below}, {at}] client nodes"
                    )
                }
                _ => format!(
                    "{} lead change(s): {}",
                    flips.len(),
                    leads
                        .iter()
                        .map(|(n, sx, s2)| format!("{n}n SX {sx:.1}/S2 {s2:.1}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            Ok((s2_first && sx_last && flips.len() == 1, detail))
        },
    },
    // R5x — the shared-file asymptote beyond the paper: DAOS's
    // shared-file write parity (the R5 claim at 16 nodes) must persist at
    // 64–512 nodes and *flatten* — the shared/fpp ratio stops moving
    // (within 10%) between the two largest scales.
    Claim {
        prose: "R5x: SX shared/fpp write ratio >= 0.8 at 64-512 nodes and flat at the top",
        test: |r| {
            let mut ratios = Vec::new();
            for n in r.axis("DFS-SX-shared")? {
                let [sh, fpp] = r.row(["DFS-SX-shared", "DFS-SX-fpp"], n, WRITE_GIB_S)?;
                ratios.push((n, sh / fpp));
            }
            let [.., (n_prev, r_prev), (n_top, r_top)] = ratios[..] else {
                return Err("need >= 2 scales in DFS-SX-shared".into());
            };
            let parity = ratios.iter().all(|&(_, ratio)| ratio >= R5_SHARED_OVER_FPP);
            let flat = (r_top / r_prev - 1.0).abs() < 0.10;
            let detail = format!(
                "shared/fpp write ratio: {} ; flat {n_prev}->{n_top}: {r_prev:.3}->{r_top:.3}",
                ratios
                    .iter()
                    .map(|(n, ratio)| format!("{n}n {ratio:.3}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            Ok((parity && flat, detail))
        },
    },
];

/// Goodput by offered load (percent) along one traffic series.
fn goodput(r: &Probe, series: &str) -> Result<Vec<(u32, f64)>, String> {
    let loads = r.axis(series)?.into_iter();
    loads
        .map(|l| Ok((l, r.get(series, l, "goodput_gib_s")?)))
        .collect()
}

/// Knee of a goodput curve: the offered load with the highest goodput
/// (the first, on a tie). Open-loop, this is where the latency/throughput
/// curve turns — past it extra offered load can only queue or shed.
fn knee(curve: &[(u32, f64)]) -> (u32, f64) {
    let higher = |best: (u32, f64), p: &(u32, f64)| if p.1 > best.1 { *p } else { best };
    curve.iter().fold(curve[0], higher)
}

/// The lowest goodput past the knee, or the peak if nothing lies past it.
fn min_past_knee(curve: &[(u32, f64)]) -> f64 {
    let (knee, peak) = knee(curve);
    let past = curve.iter().filter(|&&(l, _)| l > knee);
    past.fold(peak, |m, &(_, g)| m.min(g))
}

/// The [`daos_sim::PercentileSketch`]-reported quantiles carry up
/// to 6.25% relative bucket granularity; monotonicity is asserted with
/// that slack so two loads landing in the same bucket never fail R6.
const SKETCH_SLACK: f64 = 0.94;

/// The overload claims R6–R8 over a traffic report.
pub const TRAFFIC_CLAIMS: &[Claim] = &[
    // R6 — open-loop latency knee: on every Poisson series, p99 completion
    // latency grows monotonically with offered load up to the knee, and
    // the knee's p99 sits clearly above the lightest load's.
    //
    // The monotone region is clamped at 100% of nominal capacity: past it
    // a *protected* series sheds most arrivals, and the completion
    // population becomes shed-censored — survivors skew toward requests
    // that found short queues, so the quantiles of successes can
    // legitimately *fall* while the system degrades. Below nominal,
    // everything that arrives completes and the classic
    // utilization/latency curve must hold.
    Claim {
        prose: "R6: p99 latency grows monotonically with offered load up to the knee",
        test: |r| {
            let mut detail = String::new();
            let mut pass = true;
            for s in r.series().filter(|s| !s.ends_with("/burst")) {
                let (knee, _) = knee(&goodput(r, s)?);
                let mut pre = Vec::new();
                for l in r.axis(s)?.into_iter().filter(|&l| l <= knee.min(100)) {
                    pre.push((l, r.get(s, l, "p99_us")?));
                }
                let mono = pre.windows(2).all(|w| w[1].1 >= SKETCH_SLACK * w[0].1);
                let grows = match (pre.first(), pre.last()) {
                    (Some(&(_, first)), Some(&(_, at_knee))) if pre.len() >= 2 => {
                        at_knee >= 1.1 * first
                    }
                    _ => true, // knee at the lightest load: nothing to compare
                };
                pass &= mono && grows;
                let curve: Vec<String> =
                    pre.iter().map(|(l, p)| format!("{l}%:{p:.0}us")).collect();
                detail.push_str(&format!("{s} knee {knee}% [{}]; ", curve.join(" ")));
            }
            Ok((pass, detail))
        },
    },
    // R7 — no goodput collapse with protection ON: past the knee, every
    // admission+damping series keeps goodput within 15% of its peak. This
    // is the property the admission queue caps and the retry budget buy:
    // overload sheds early and cheaply instead of queueing into timeouts.
    Claim {
        prose: "R7: admission ON: goodput stays within 15% of peak past the knee",
        test: |r| {
            let on = |s: &&str| s.ends_with("/ac") || s.ends_with("/burst");
            let mut detail = String::new();
            let mut pass = true;
            for s in r.series().filter(on) {
                let curve = goodput(r, s)?;
                let ((knee, peak), min_past) = (knee(&curve), min_past_knee(&curve));
                pass &= min_past >= 0.85 * peak;
                detail.push_str(&format!(
                    "{s}: peak {peak:.2} @ {knee}%, min past {min_past:.2} GiB/s; "
                ));
            }
            Ok((pass, detail))
        },
    },
    // R8 — the storm with protection OFF: at the sweep's deepest
    // overload, every unprotected series delivers less than *half* the
    // goodput of its protected twin (queueing delay blows through the RPC
    // deadline, retries multiply offered load, served-but-abandoned work
    // evicts goodput), and every unprotected series degrades measurably
    // (>15%) from its own peak past the knee.
    Claim {
        prose: "R8: admission OFF: less than half the protected twin's goodput at top load",
        test: |r| {
            let mut detail = String::new();
            let mut pass = true;
            for s in r.series().filter(|s| s.ends_with("/noac")) {
                let twin = format!("{}ac", s.trim_end_matches("noac"));
                let curve = goodput(r, s)?;
                let (top, g_off) = curve[curve.len() - 1];
                let g_on = r.get(&twin, top, "goodput_gib_s")?;
                let ((knee, peak), min_past) = (knee(&curve), min_past_knee(&curve));
                pass &= g_off < 0.5 * g_on && min_past < 0.85 * peak;
                detail.push_str(&format!(
                    "{s}@{top}%: {g_off:.2} vs {twin} {g_on:.2} GiB/s; own peak {peak:.2} @ {knee}%, min past {min_past:.2}; "
                ));
            }
            Ok((pass, detail))
        },
    },
];

/// What every traffic cell's accounting must show.
pub const TRAFFIC_CELLS: &[CellClaim] = &[
    (
        "some requests complete in every traffic cell",
        |_| true,
        |c| c("completed") > 0.0,
    ),
    (
        "accounting closes in every traffic cell",
        |_| true,
        |c| c("completed") + c("failed") == c("arrivals"),
    ),
    (
        "retries are metered under shedding in every admission-ON traffic cell",
        |s| !s.ends_with("/noac"),
        |c| c("engine_sheds") == 0.0 || c("retries_spent") + c("breaker_fastfail") > 0.0,
    ),
];

/// The multi-tenant QoS claims R9–R11 over a `BENCH_qos_sweep.json`
/// report.
pub const QOS_CLAIMS: &[Claim] = &[
    // R9 — noisy-neighbor isolation: at every *overload* point on the QoS
    // sweep's axis (offered load past 100% of nominal), shaping cuts the
    // victim tenant's p99 read latency to at most half of the unshaped
    // run's — the DRR weight + the aggressor's bandwidth cap keep the
    // victim's small reads from queueing behind MiB writes. At or below
    // nominal load there is no queue to cut, so those points are
    // informational only.
    Claim {
        prose: "R9: shaped victim p99 <= 0.5x unshaped victim p99 at every overload point",
        test: |r| {
            let loads: Vec<u32> = r.axis("shaped")?.into_iter().filter(|&l| l > 100).collect();
            let mut detail = String::new();
            let mut pass = true;
            for load in loads {
                let [on, off] = r.row(["shaped", "unshaped"], load, "victim_p99_us")?;
                pass &= on <= 0.5 * off;
                detail.push_str(&format!("{load}%: {on:.0}us vs {off:.0}us; "));
            }
            Ok((pass, detail))
        },
    },
    // R10 — shaping never trades fairness away: the Jain index over the
    // two tenants' *entitlement* shares (achieved fraction of what each
    // tenant's QoS policy says it is due — see where
    // `crate::qos::qos_point` records `noisy_ent_share`) is at least as
    // high shaped as unshaped at every load (with the quantile-sketch
    // slack `SKETCH_SLACK` reused as a general measurement slack).
    Claim {
        prose: "R10: Jain fairness with shaping >= without, at every load",
        test: |r| {
            let mut detail = String::new();
            let mut pass = true;
            for load in r.axis("shaped")? {
                let [on, off] = r.row(["shaped", "unshaped"], load, "jain")?;
                pass &= on >= SKETCH_SLACK * off;
                detail.push_str(&format!("{load}%: {on:.3} vs {off:.3}; "));
            }
            Ok((pass, detail))
        },
    },
    // R11 — the background tenant stays inside its budget: under shaping,
    // the bytes the scrub/rebuild class charged against the BG token
    // bucket never exceed the budgeted rate integrated over the cell's
    // whole virtual runtime (plus burst allowance), at every load.
    Claim {
        prose: "R11: shaped background tenant bytes <= budget at every load",
        test: |r| {
            let mut detail = String::new();
            let mut pass = true;
            for load in r.axis("shaped")? {
                let used = r.get("shaped", load, "bg_bytes")?;
                let budget = r.get("shaped", load, "bg_budget_bytes")?;
                pass &= used <= budget;
                detail.push_str(&format!(
                    "{load}%: {:.1} of {:.1} MiB; ",
                    used / (1 << 20) as f64,
                    budget / (1 << 20) as f64
                ));
            }
            Ok((pass, detail))
        },
    },
];

/// What every QoS cell's accounting must show.
pub const QOS_CELLS: &[CellClaim] = &[
    (
        "the victim completes some reads in every QoS cell",
        |_| true,
        |c| c("victim_completed") > 0.0,
    ),
    (
        "victim accounting closes in every QoS cell",
        |_| true,
        |c| c("victim_completed") + c("victim_failed") == c("victim_arrivals"),
    ),
    (
        "noisy accounting closes in every QoS cell",
        |_| true,
        |c| c("noisy_completed") + c("noisy_failed") == c("noisy_arrivals"),
    ),
    (
        "the background tenant is accounted under the shaper in every shaped cell",
        |s| s == "shaped",
        |c| c("bg_bytes") > 0.0,
    ),
];
