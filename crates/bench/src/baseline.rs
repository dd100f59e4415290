//! Baseline comparison: a fresh [`BenchReport`] against its committed
//! `BENCH_<name>.json`, byte for byte.
//!
//! The simulator is deterministic and a report carries no wall-clock
//! field, so an unchanged tree reproduces every baseline exactly, and that
//! is the whole gate: [`drift`] is `None` when the fresh report serialises
//! to the baseline's bytes. Otherwise it renders where they differ — one
//! row per cell whose JSON token changed, went missing or is new, plus any
//! change of provenance. A PR that moves a figure updates its baseline
//! intentionally (`daos-bench regress --update`).

use std::collections::BTreeSet;

use crate::report::{fmt_f64, BenchReport};

/// One (series, scale, metric) cell whose serialised token differs.
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    pub series: String,
    pub scale: u32,
    pub metric: String,
    /// `None`: a cell the fresh run added.
    pub baseline: Option<f64>,
    /// `None`: a cell the fresh run lost.
    pub fresh: Option<f64>,
}

/// The cells of either report whose JSON tokens differ, in key order. A
/// NaN cell compares as the `-1e308` sentinel it is stored as.
pub fn compare(fresh: &BenchReport, baseline: &BenchReport) -> Vec<Drift> {
    let keys: BTreeSet<(&str, u32, &str)> = baseline
        .cells()
        .into_iter()
        .chain(fresh.cells())
        .map(|(s, n, m, _)| (s, n, m))
        .collect();
    keys.into_iter()
        .filter_map(|(series, scale, metric)| {
            let b = baseline.get(series, scale, metric);
            let f = fresh.get(series, scale, metric);
            (b.map(fmt_f64) != f.map(fmt_f64)).then(|| Drift {
                series: series.to_string(),
                scale,
                metric: metric.to_string(),
                baseline: b,
                fresh: f,
            })
        })
        .collect()
}

/// `None` when `fresh` serialises to exactly `baseline_json`; otherwise
/// the drift table that says where they differ.
pub fn drift(fresh: &BenchReport, baseline_json: &str) -> Option<String> {
    if fresh.to_json() == baseline_json {
        return None;
    }
    let name = &fresh.name;
    let base = match BenchReport::from_json(baseline_json) {
        Ok(base) => base,
        Err(e) => return Some(format!("-- {name}: baseline unreadable ({e}) --\n")),
    };
    let drifts = compare(fresh, &base);
    let mut s = format!(
        "-- {name}: differs from its baseline in {} cell(s) --\n",
        drifts.len()
    );
    if (base.seed, base.config_hash) != (fresh.seed, fresh.config_hash) {
        s.push_str(&format!(
            "provenance: seed {} -> {}, config_hash {:#x} -> {:#x}\n",
            base.seed, fresh.seed, base.config_hash, fresh.config_hash
        ));
    } else if drifts.is_empty() {
        s.push_str("the cells agree; the bytes differ outside them (schema, name or layout)\n");
    }
    if !drifts.is_empty() {
        s.push_str(&format!(
            "{:<28} {:>5} {:<20} {:>20} {:>20} {:>10}\n",
            "series", "nodes", "metric", "baseline", "fresh", "delta%"
        ));
    }
    for d in &drifts {
        let token = |v: Option<f64>| v.map_or("-".to_string(), fmt_f64);
        let delta = match (d.baseline, d.fresh) {
            (Some(_), None) => "missing".to_string(),
            (None, _) => "new".to_string(),
            (Some(b), Some(f)) => {
                let pct = (f - b) / b.abs() * 100.0;
                if pct.abs() >= 0.01 || !pct.is_finite() {
                    format!("{pct:+.2}")
                } else {
                    format!("{pct:+.1e}")
                }
            }
        };
        s.push_str(&format!(
            "{:<28} {:>5} {:<20} {:>20} {:>20} {:>10}\n",
            d.series,
            d.scale,
            d.metric,
            token(d.baseline),
            token(d.fresh),
            delta
        ));
    }
    Some(s)
}
