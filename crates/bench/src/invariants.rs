//! The paper's qualitative results (R1–R5), encoded as machine-checked
//! invariants over [`BenchReport`]s, and [`every_cell`], the one form of
//! a claim each cell of a report must satisfy.
//!
//! These are the orderings and crossovers *"DAOS as HPC Storage: Exploring
//! Interfaces"* reports and `EXPERIMENTS.md` reproduces; the
//! `regress` gate and a standalone `daos-bench <figure>` run both evaluate
//! them through the figure's [`crate::FIGURES`] entry, so not even an
//! intentional baseline update can silently invert a figure. Each
//! predicate reads the scales present in the report (smallest, largest,
//! or all of them), so the one definition checks the full figure grids
//! and the smoke miniatures alike.

use crate::report::{BenchReport, Verdict, NAN_SENTINEL, READ_GIB_S, WRITE_GIB_S};

/// One invariant's verdict: stable id (e.g. `R2`), the claim as prose,
/// and the numbers it was computed from (or what was missing).
fn verdict(id: &str, desc: &str, pass: bool, detail: String) -> Verdict {
    Verdict::new(format!("{id}: {desc} — {detail}"), pass)
}

/// Every client-node scale present in the report, ascending.
fn all_scales(report: &BenchReport) -> Vec<u32> {
    let set: std::collections::BTreeSet<u32> = report
        .series
        .values()
        .flat_map(|scales| scales.keys().copied())
        .collect();
    set.into_iter().collect()
}

/// Smallest and largest client-node scales present in the report.
fn scale_range(report: &BenchReport) -> Option<(u32, u32)> {
    let scales = all_scales(report);
    Some((*scales.first()?, *scales.last()?))
}

/// Fetch a metric or produce a `fail` with a missing-cell message.
fn need(report: &BenchReport, series: &str, scale: u32, metric: &str) -> Result<f64, String> {
    report
        .get(series, scale, metric)
        .ok_or_else(|| format!("missing {series}/{scale}/{metric} in BENCH_{}", report.name))
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

macro_rules! take {
    ($id:expr, $desc:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(msg) => return verdict($id, $desc, false, msg),
        }
    };
}

/// R1 — "a small amount of object sharding (S2) gives the best
/// performance for reading data": S2 FPP reads beat fully-sharded SX
/// reads at the largest scale (stream-window thrash penalizes SX).
pub fn r1_s2_reads_best(fig1: &BenchReport) -> Verdict {
    const ID: &str = "R1";
    const DESC: &str = "S2 FPP reads beat SX at the largest scale";
    let (_, top) = match scale_range(fig1) {
        Some(r) => r,
        None => return verdict(ID, DESC, false, "empty report".into()),
    };
    let s2 = take!(ID, DESC, need(fig1, "DFS-S2", top, READ_GIB_S));
    let sx = take!(ID, DESC, need(fig1, "DFS-SX", top, READ_GIB_S));
    let detail = format!("{top} nodes: S2 read {s2:.2} vs SX read {sx:.2} GiB/s");
    verdict(ID, DESC, s2 > sx, detail)
}

/// R2 — the SX write crossover: full sharding is the best writer under
/// high contention (largest scale) but *slower* than S2 for few writers
/// (smallest scale).
pub fn r2_sx_write_crossover(fig1: &BenchReport) -> Verdict {
    const ID: &str = "R2";
    const DESC: &str = "SX write crossover: loses to S2 at small scale, wins at large";
    let (lo, top) = match scale_range(fig1) {
        Some(r) => r,
        None => return verdict(ID, DESC, false, "empty report".into()),
    };
    let sx_lo = take!(ID, DESC, need(fig1, "DFS-SX", lo, WRITE_GIB_S));
    let s2_lo = take!(ID, DESC, need(fig1, "DFS-S2", lo, WRITE_GIB_S));
    let sx_hi = take!(ID, DESC, need(fig1, "DFS-SX", top, WRITE_GIB_S));
    let s2_hi = take!(ID, DESC, need(fig1, "DFS-S2", top, WRITE_GIB_S));
    let s1_hi = take!(ID, DESC, need(fig1, "DFS-S1", top, WRITE_GIB_S));
    let detail = format!(
        "{lo} node(s): SX {sx_lo:.2} vs S2 {s2_lo:.2}; {top} nodes: SX {sx_hi:.2} vs S2 {s2_hi:.2} / S1 {s1_hi:.2} GiB/s"
    );
    verdict(
        ID,
        DESC,
        sx_lo < s2_lo && sx_hi > s2_hi && sx_hi > s1_hi,
        detail,
    )
}

/// R3 — "HDF5 using the DFuse mount gives much lower performance, both
/// for read and write" while MPI-IO over DFuse tracks DFS. HDF5-S1 trails
/// MPI-IO-S1 on both phases by >5% at the smallest scale and still by >3%
/// at every further scale up to 4 client nodes (the gap closes as the
/// servers saturate, so larger scales are not held to it); MPI-IO writes
/// stay within ±10% of DFS at every scale, for both narrow classes.
pub fn r3_hdf5_dfuse_penalty(fig1: &BenchReport) -> Verdict {
    const ID: &str = "R3";
    const DESC: &str = "HDF5-over-DFuse trails MPI-IO/DFS; MPI-IO tracks DFS";
    let (lo, _) = match scale_range(fig1) {
        Some(r) => r,
        None => return verdict(ID, DESC, false, "empty report".into()),
    };
    let mut pass = true;
    let mut detail = String::new();
    // worst MPI-IO write deviation from DFS: (fraction, series, scale)
    let mut worst = (0.0f64, String::new(), lo);
    for n in all_scales(fig1) {
        for class in ["S1", "S2"] {
            let mpiio = format!("MPIIO-{class}");
            let m_w = take!(ID, DESC, need(fig1, &mpiio, n, WRITE_GIB_S));
            let d_w = take!(
                ID,
                DESC,
                need(fig1, &format!("DFS-{class}"), n, WRITE_GIB_S)
            );
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
        let h_w = take!(ID, DESC, need(fig1, "HDF5-S1", n, WRITE_GIB_S));
        let h_r = take!(ID, DESC, need(fig1, "HDF5-S1", n, READ_GIB_S));
        let m_w = take!(ID, DESC, need(fig1, "MPIIO-S1", n, WRITE_GIB_S));
        let m_r = take!(ID, DESC, need(fig1, "MPIIO-S1", n, READ_GIB_S));
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
    verdict(ID, DESC, pass, detail)
}

/// R4 — shared-file interface parity: the DFS API leads the shared-file
/// write field at scale (within 2% of the best — the paper's margin is
/// razor-thin, "similar performance achieved across interfaces"), with
/// MPI-IO and HDF5 over DFuse within 15% for both phases.
pub fn r4_shared_interface_parity(fig2: &BenchReport) -> Verdict {
    const ID: &str = "R4";
    const DESC: &str = "shared-file: DFS within 2% of best write, all interfaces within 15%";
    let (_, top) = match scale_range(fig2) {
        Some(r) => r,
        None => return verdict(ID, DESC, false, "empty report".into()),
    };
    let d_w = take!(ID, DESC, need(fig2, "DFS-SX", top, WRITE_GIB_S));
    let m_w = take!(ID, DESC, need(fig2, "MPIIO-SX", top, WRITE_GIB_S));
    let h_w = take!(ID, DESC, need(fig2, "HDF5-SX", top, WRITE_GIB_S));
    let d_r = take!(ID, DESC, need(fig2, "DFS-SX", top, READ_GIB_S));
    let m_r = take!(ID, DESC, need(fig2, "MPIIO-SX", top, READ_GIB_S));
    let h_r = take!(ID, DESC, need(fig2, "HDF5-SX", top, READ_GIB_S));
    let detail = format!(
        "{top} nodes write: DFS {d_w:.2} MPIIO {m_w:.2} HDF5 {h_w:.2}; read: {d_r:.2}/{m_r:.2}/{h_r:.2} GiB/s"
    );
    let dfs_highest = d_w >= 0.98 * m_w.max(h_w);
    let parity = m_w > 0.85 * d_w && h_w > 0.85 * d_w && m_r > 0.85 * d_r && h_r > 0.85 * d_r;
    verdict(ID, DESC, dfs_highest && parity, detail)
}

/// R5b — why shared files want wide classes: a single shared S1 or S2
/// file bottlenecks on its one or two targets, far below the
/// fully-striped SX file, at the largest scale.
pub fn r5b_narrow_shared_file_bottleneck(fig2: &BenchReport) -> Verdict {
    const ID: &str = "R5b";
    const DESC: &str = "shared file: S1 < 0.2x and S2 < 0.35x the SX write bandwidth";
    let (_, top) = match scale_range(fig2) {
        Some(r) => r,
        None => return verdict(ID, DESC, false, "empty report".into()),
    };
    let s1 = take!(ID, DESC, need(fig2, "DFS-S1", top, WRITE_GIB_S));
    let s2 = take!(ID, DESC, need(fig2, "DFS-S2", top, WRITE_GIB_S));
    let sx = take!(ID, DESC, need(fig2, "DFS-SX", top, WRITE_GIB_S));
    let detail = format!("{top} nodes write: S1 {s1:.2} S2 {s2:.2} SX {sx:.2} GiB/s");
    verdict(ID, DESC, s1 < 0.2 * sx && s2 < 0.35 * sx, detail)
}

/// R2x — the R2 crossover relocated beyond the paper's reach. On the
/// paper's fixed 8-server testbed SX overtakes S2 for fpp writes by 16
/// client nodes (R2). On the weak-scaled testbed — servers growing with
/// clients, per-engine contention held at the calibrated level — S2's
/// smaller per-file fan-out keeps it ahead again until the aggregate
/// metadata/striping overheads of the wider class amortize: the check
/// asserts the lead changes hands from S2 to SX exactly once along the
/// 64–512-node axis, and reports where.
pub fn r2x_scale_crossover(scale: &BenchReport) -> Verdict {
    const ID: &str = "R2x";
    const DESC: &str = "fpp-write lead flips S2 -> SX exactly once along the 64-512-node axis";
    let nodes: Vec<u32> = scale
        .series
        .get("DFS-SX-fpp")
        .map(|m| m.keys().copied().collect())
        .unwrap_or_default();
    if nodes.len() < 2 {
        return verdict(ID, DESC, false, "need >= 2 scales in DFS-SX-fpp".into());
    }
    let mut leads = Vec::new();
    for &n in &nodes {
        let sx = take!(ID, DESC, need(scale, "DFS-SX-fpp", n, WRITE_GIB_S));
        let s2 = take!(ID, DESC, need(scale, "DFS-S2-fpp", n, WRITE_GIB_S));
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
    verdict(ID, DESC, s2_first && sx_last && flips.len() == 1, detail)
}

/// R5x — the shared-file asymptote beyond the paper: DAOS's shared-file
/// write parity (the R5 claim at 16 nodes) must persist at 64–512 nodes
/// and *flatten* — the shared/fpp ratio stops moving (within 10%)
/// between the two largest scales.
pub fn r5x_shared_asymptote(scale: &BenchReport) -> Verdict {
    const ID: &str = "R5x";
    const DESC: &str = "SX shared/fpp write ratio >= 0.8 at 64-512 nodes and flat at the top";
    let nodes: Vec<u32> = scale
        .series
        .get("DFS-SX-shared")
        .map(|m| m.keys().copied().collect())
        .unwrap_or_default();
    if nodes.len() < 2 {
        return verdict(ID, DESC, false, "need >= 2 scales in DFS-SX-shared".into());
    }
    let mut ratios = Vec::new();
    for &n in &nodes {
        let sh = take!(ID, DESC, need(scale, "DFS-SX-shared", n, WRITE_GIB_S));
        let fpp = take!(ID, DESC, need(scale, "DFS-SX-fpp", n, WRITE_GIB_S));
        ratios.push((n, sh / fpp));
    }
    let parity = ratios.iter().all(|&(_, r)| r >= 0.8);
    let (n_prev, r_prev) = ratios[ratios.len() - 2];
    let (n_top, r_top) = ratios[ratios.len() - 1];
    let flat = (r_top / r_prev - 1.0).abs() < 0.10;
    let detail = format!(
        "shared/fpp write ratio: {} ; flat {n_prev}->{n_top}: {r_prev:.3}->{r_top:.3}",
        ratios
            .iter()
            .map(|(n, r)| format!("{n}n {r:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    verdict(ID, DESC, parity && flat, detail)
}

/// Evaluate the beyond-paper scale checks against `BENCH_scale.json`.
pub fn evaluate_scale(scale: &BenchReport) -> Vec<Verdict> {
    vec![r2x_scale_crossover(scale), r5x_shared_asymptote(scale)]
}

/// R5 — the "stark contrast" claim: on DAOS a shared file writes at
/// ≥80% of file-per-process, while the Lustre-like PFS collapses below
/// 50%, and the DAOS ratio is at least 3× the PFS ratio.
pub fn r5_pfs_collapse(pfs_contrast: &BenchReport) -> Verdict {
    const ID: &str = "R5";
    const DESC: &str = "DAOS shared/FPP >= 0.8, PFS < 0.5, DAOS ratio >= 3x PFS";
    let (_, top) = match scale_range(pfs_contrast) {
        Some(r) => r,
        None => return verdict(ID, DESC, false, "empty report".into()),
    };
    let p_fpp = take!(ID, DESC, need(pfs_contrast, "pfs-fpp", top, WRITE_GIB_S));
    let p_sh = take!(ID, DESC, need(pfs_contrast, "pfs-shared", top, WRITE_GIB_S));
    let d_fpp = take!(ID, DESC, need(pfs_contrast, "daos-fpp", top, WRITE_GIB_S));
    let d_sh = take!(
        ID,
        DESC,
        need(pfs_contrast, "daos-shared", top, WRITE_GIB_S)
    );
    let pfs_ratio = p_sh / p_fpp;
    let daos_ratio = d_sh / d_fpp;
    let detail =
        format!("{top} nodes shared/fpp write ratio: daos {daos_ratio:.2} vs pfs {pfs_ratio:.2}");
    verdict(
        ID,
        DESC,
        daos_ratio > 0.8 && pfs_ratio < 0.5 && daos_ratio >= 3.0 * pfs_ratio,
        detail,
    )
}

/// Ascending scale (or load) axis of one series.
pub(crate) fn series_scales(report: &BenchReport, series: &str) -> Vec<u32> {
    report
        .series
        .get(series)
        .map(|by_scale| by_scale.keys().copied().collect())
        .unwrap_or_default()
}

/// Knee of one traffic series: the offered load (percent) with the
/// highest goodput. Open-loop, this is where the latency/throughput
/// curve turns — past it extra offered load can only queue or shed.
fn knee_of(report: &BenchReport, series: &str) -> Option<(u32, f64)> {
    let mut best: Option<(u32, f64)> = None;
    for load in series_scales(report, series) {
        let g = report.get(series, load, "goodput_gib_s")?;
        if best.is_none_or(|(_, bg)| g > bg) {
            best = Some((load, g));
        }
    }
    best
}

/// The [`daos_sim::PercentileSketch`]-reported quantiles carry up
/// to 6.25% relative bucket granularity; monotonicity is asserted with
/// that slack so two loads landing in the same bucket never fail R6.
const SKETCH_SLACK: f64 = 0.94;

/// R6 — open-loop latency knee: on every Poisson series, p99 completion
/// latency grows monotonically with offered load up to the knee, and the
/// knee's p99 sits clearly above the lightest load's.
///
/// The monotone region is clamped at 100% of nominal capacity: past it a
/// *protected* series sheds most arrivals, and the completion population
/// becomes shed-censored — survivors skew toward requests that found
/// short queues, so the quantiles of successes can legitimately *fall*
/// while the system degrades. Below nominal, everything that arrives
/// completes and the classic utilization/latency curve must hold.
pub fn r6_latency_monotone(traffic: &BenchReport) -> Verdict {
    const ID: &str = "R6";
    const DESC: &str = "p99 latency grows monotonically with offered load up to the knee";
    let mut detail = String::new();
    let mut pass = true;
    let series: Vec<String> = traffic
        .series
        .keys()
        .filter(|s| !s.ends_with("/burst"))
        .cloned()
        .collect();
    if series.is_empty() {
        return verdict(ID, DESC, false, "empty report".into());
    }
    for s in &series {
        let (knee, _) = match knee_of(traffic, s) {
            Some(k) => k,
            None => return verdict(ID, DESC, false, format!("missing goodput in {s}")),
        };
        let pre: Vec<(u32, f64)> = series_scales(traffic, s)
            .into_iter()
            .filter(|&l| l <= knee.min(100))
            .map(|l| (l, traffic.get(s, l, "p99_us").unwrap_or(f64::NAN)))
            .collect();
        let mut mono = true;
        for w in pre.windows(2) {
            // negated so a NaN (missing metric) also counts as non-monotone
            let step_ok = w[1].1 >= SKETCH_SLACK * w[0].1;
            if !step_ok {
                mono = false;
            }
        }
        let grows = match (pre.first(), pre.last()) {
            (Some(&(_, first)), Some(&(_, at_knee))) if pre.len() >= 2 => at_knee >= 1.1 * first,
            _ => true, // knee at the lightest load: nothing to compare
        };
        if !(mono && grows) {
            pass = false;
        }
        let curve: Vec<String> = pre.iter().map(|(l, p)| format!("{l}%:{p:.0}us")).collect();
        detail.push_str(&format!("{s} knee {knee}% [{}]; ", curve.join(" ")));
    }
    verdict(ID, DESC, pass, detail)
}

/// R7 — no goodput collapse with protection ON: past the knee, every
/// admission+damping series keeps goodput within 15% of its peak. This
/// is the property the admission queue caps and the retry budget buy:
/// overload sheds early and cheaply instead of queueing into timeouts.
pub fn r7_ac_no_collapse(traffic: &BenchReport) -> Verdict {
    const ID: &str = "R7";
    const DESC: &str = "admission ON: goodput stays within 15% of peak past the knee";
    let mut detail = String::new();
    let mut pass = true;
    let mut seen = false;
    for s in traffic.series.keys() {
        if !(s.ends_with("/ac") || s.ends_with("/burst")) {
            continue;
        }
        seen = true;
        let (knee, peak) = match knee_of(traffic, s) {
            Some(k) => k,
            None => return verdict(ID, DESC, false, format!("missing goodput in {s}")),
        };
        let mut min_past = peak;
        for load in series_scales(traffic, s) {
            if load > knee {
                let g = traffic.get(s, load, "goodput_gib_s").unwrap_or(0.0);
                min_past = min_past.min(g);
            }
        }
        if min_past < 0.85 * peak {
            pass = false;
        }
        detail.push_str(&format!(
            "{s}: peak {peak:.2} @ {knee}%, min past {min_past:.2} GiB/s; "
        ));
    }
    if !seen {
        return verdict(ID, DESC, false, "no admission-ON series".into());
    }
    verdict(ID, DESC, pass, detail)
}

/// R8 — the storm with protection OFF: at the sweep's deepest overload,
/// every unprotected series delivers less than *half* the goodput of its
/// protected twin (queueing delay blows through the RPC deadline,
/// retries multiply offered load, served-but-abandoned work evicts
/// goodput), and every unprotected series degrades measurably (>15%)
/// from its own peak past the knee.
pub fn r8_noac_collapse(traffic: &BenchReport) -> Verdict {
    const ID: &str = "R8";
    const DESC: &str = "admission OFF: less than half the protected twin's goodput at top load";
    let mut detail = String::new();
    let mut pass = true;
    let mut seen = false;
    for s in traffic.series.keys() {
        if !s.ends_with("/noac") {
            continue;
        }
        seen = true;
        let twin = format!("{}ac", s.trim_end_matches("noac"));
        let loads = series_scales(traffic, s);
        let top = match loads.last() {
            Some(&t) => t,
            None => return verdict(ID, DESC, false, format!("empty series {s}")),
        };
        let g_off = match traffic.get(s, top, "goodput_gib_s") {
            Some(g) => g,
            None => return verdict(ID, DESC, false, format!("missing goodput in {s}")),
        };
        let g_on = match traffic.get(&twin, top, "goodput_gib_s") {
            Some(g) => g,
            None => return verdict(ID, DESC, false, format!("missing twin series {twin}")),
        };
        let (knee, peak) = match knee_of(traffic, s) {
            Some(k) => k,
            None => return verdict(ID, DESC, false, format!("missing goodput in {s}")),
        };
        let min_past = loads
            .iter()
            .filter(|&&l| l > knee)
            .filter_map(|&l| traffic.get(s, l, "goodput_gib_s"))
            .fold(peak, f64::min);
        if !(g_off < 0.5 * g_on && min_past < 0.85 * peak) {
            pass = false;
        }
        detail.push_str(&format!(
            "{s}@{top}%: {g_off:.2} vs {twin} {g_on:.2} GiB/s; own peak {peak:.2} @ {knee}%, min past {min_past:.2}; "
        ));
    }
    if !seen {
        return verdict(ID, DESC, false, "no admission-OFF series".into());
    }
    verdict(ID, DESC, pass, detail)
}

/// What every traffic cell's accounting must show.
const TRAFFIC_CELLS: &[CellClaim] = &[
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

/// Evaluate the overload invariants R6–R8 against a traffic report, then
/// what every cell's accounting must show.
pub fn evaluate_traffic(traffic: &BenchReport) -> Vec<Verdict> {
    let r6_r8 = [
        r6_latency_monotone(traffic),
        r7_ac_no_collapse(traffic),
        r8_noac_collapse(traffic),
    ];
    [r6_r8.to_vec(), every_cell(traffic, TRAFFIC_CELLS)].concat()
}

/// R9 — noisy-neighbor isolation: at every *overload* point on the QoS
/// sweep's axis (offered load past 100% of nominal), shaping cuts the
/// victim tenant's p99 read latency to at most half of the unshaped
/// run's — the DRR weight + the aggressor's bandwidth cap keep the
/// victim's small reads from queueing behind MiB writes. At or below
/// nominal load there is no queue to cut, so those points are
/// informational only.
pub fn r9_victim_isolation(qos: &BenchReport) -> Verdict {
    const ID: &str = "R9";
    const DESC: &str = "shaped victim p99 <= 0.5x unshaped victim p99 at every overload point";
    let loads: Vec<u32> = series_scales(qos, "shaped")
        .into_iter()
        .filter(|&l| l > 100)
        .collect();
    if loads.is_empty() {
        return verdict(
            ID,
            DESC,
            false,
            "no overload points in shaped series".into(),
        );
    }
    let mut detail = String::new();
    let mut pass = true;
    for load in loads {
        let on = take!(ID, DESC, need(qos, "shaped", load, "victim_p99_us"));
        let off = take!(ID, DESC, need(qos, "unshaped", load, "victim_p99_us"));
        // NaN-hostile: anything but a clean `on <= bound` fails
        let holds = matches!(
            on.partial_cmp(&(0.5 * off)),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !holds {
            pass = false;
        }
        detail.push_str(&format!("{load}%: {on:.0}us vs {off:.0}us; "));
    }
    verdict(ID, DESC, pass, detail)
}

/// R10 — shaping never trades fairness away: the Jain index over the
/// two tenants' *entitlement* shares (achieved fraction of what each
/// tenant's QoS policy says it is due — see where
/// [`crate::qos::qos_point`] records `noisy_ent_share`) is at least as
/// high shaped as unshaped at every load (with the quantile-sketch slack
/// `SKETCH_SLACK` reused as a general measurement slack).
pub fn r10_fairness_non_regression(qos: &BenchReport) -> Verdict {
    const ID: &str = "R10";
    const DESC: &str = "Jain fairness with shaping >= without, at every load";
    let loads = series_scales(qos, "shaped");
    if loads.is_empty() {
        return verdict(ID, DESC, false, "empty shaped series".into());
    }
    let mut detail = String::new();
    let mut pass = true;
    for load in loads {
        let on = take!(ID, DESC, need(qos, "shaped", load, "jain"));
        let off = take!(ID, DESC, need(qos, "unshaped", load, "jain"));
        // NaN-hostile: anything but a clean `on >= bound` fails
        let holds = matches!(
            on.partial_cmp(&(SKETCH_SLACK * off)),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        );
        if !holds {
            pass = false;
        }
        detail.push_str(&format!("{load}%: {on:.3} vs {off:.3}; "));
    }
    verdict(ID, DESC, pass, detail)
}

/// R11 — the background tenant stays inside its budget: under shaping,
/// the bytes the scrub/rebuild class charged against the BG token
/// bucket never exceed the budgeted rate integrated over the cell's
/// whole virtual runtime (plus burst allowance), at every load.
pub fn r11_background_budget(qos: &BenchReport) -> Verdict {
    const ID: &str = "R11";
    const DESC: &str = "shaped background tenant bytes <= budget at every load";
    let loads = series_scales(qos, "shaped");
    if loads.is_empty() {
        return verdict(ID, DESC, false, "empty shaped series".into());
    }
    let mut detail = String::new();
    let mut pass = true;
    for load in loads {
        let used = take!(ID, DESC, need(qos, "shaped", load, "bg_bytes"));
        let budget = take!(ID, DESC, need(qos, "shaped", load, "bg_budget_bytes"));
        pass &= used <= budget;
        detail.push_str(&format!(
            "{load}%: {:.1} of {:.1} MiB; ",
            used / (1 << 20) as f64,
            budget / (1 << 20) as f64
        ));
    }
    verdict(ID, DESC, pass, detail)
}

/// What every QoS cell's accounting must show.
const QOS_CELLS: &[CellClaim] = &[
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

/// Evaluate the multi-tenant QoS invariants R9–R11 against a
/// `BENCH_qos_sweep.json` report, then what every cell's accounting must
/// show.
pub fn evaluate_qos(qos: &BenchReport) -> Vec<Verdict> {
    let r9_r11 = [
        r9_victim_isolation(qos),
        r10_fairness_non_regression(qos),
        r11_background_budget(qos),
    ];
    [r9_r11.to_vec(), every_cell(qos, QOS_CELLS)].concat()
}

/// Figure 1's invariants: R1–R3.
pub fn evaluate_fig1(fig1: &BenchReport) -> Vec<Verdict> {
    vec![
        r1_s2_reads_best(fig1),
        r2_sx_write_crossover(fig1),
        r3_hdf5_dfuse_penalty(fig1),
    ]
}

/// Figure 2's invariants: R4 and the narrow-class bottleneck.
pub fn evaluate_fig2(fig2: &BenchReport) -> Vec<Verdict> {
    vec![
        r4_shared_interface_parity(fig2),
        r5b_narrow_shared_file_bottleneck(fig2),
    ]
}

/// The PFS contrast's invariant: R5.
pub fn evaluate_pfs_contrast(pfs_contrast: &BenchReport) -> Vec<Verdict> {
    vec![r5_pfs_collapse(pfs_contrast)]
}
