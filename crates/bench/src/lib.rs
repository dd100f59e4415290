//! # daos-bench — experiment harness for the paper's evaluation
//!
//! Every figure and table regenerated from *DAOS as HPC Storage: Exploring
//! Interfaces* (CLUSTER 2023) is one entry of [`FIGURES`]; the single
//! `daos-bench` binary runs an entry standalone (`daos-bench <figure>`),
//! lists the table (`daos-bench list`) or gates every baselined entry
//! (`daos-bench regress`). This library holds the table and the shared
//! machinery:
//!
//! * [`figure`] — the [`FIGURES`] table (name, seed, cells per scale,
//!   checks, gate), the runner that turns entries into reports and
//!   verdicts ([`figure::run_figures`]), the one table/chart printer and
//!   the table audit behind `daos-bench list`;
//! * [`figures`], [`timelines`], [`traffic`], [`qos`] — the figures'
//!   cells: what each seeded sim runs and records at each scale;
//! * [`invariants`] — the paper's R1–R5 qualitative results (and the
//!   R6–R11 / R2x / R5x extensions) as machine-checked predicates;
//! * [`exec`] — the deterministic parallel job runner: an ordered
//!   [`exec::Slate`] of `(label, seeded closure)` jobs fanned across host
//!   threads with results reduced **in submission order**, so every
//!   artifact is byte-identical at any thread count (`--threads`; `1` =
//!   serial);
//! * [`report`] — the schema-versioned [`report::BenchReport`] written as
//!   `BENCH_<name>.json`;
//! * [`baseline`] — the byte-for-byte comparison with committed baselines
//!   and the drift table that names each differing cell;
//! * [`run_point_with`] — one (api, object class, client-node count) IOR
//!   cell on the paper testbed, as a [`Measurement`].

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use std::future::Future;
use std::rc::Rc;

use daos_core::ClusterConfig;
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{run, Api, DaosTestbed, IorParams, IorReport};
use daos_placement::ObjectClass;
use daos_sim::Sim;

pub mod baseline;
pub mod exec;
pub mod figure;
pub mod figures;
pub mod invariants;
pub mod qos;
pub mod report;
pub mod timelines;
pub mod traffic;

pub use figure::FIGURES;

/// One measured cell of an IOR sweep.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Series label as it appears in the paper's legend, e.g. `DFS-S2`.
    pub series: String,
    pub report: IorReport,
}

fn legend(api: Api, oclass: ObjectClass) -> String {
    format!("{}-{oclass}", api.name())
}

/// The paper's testbed parameters for one sweep point.
pub fn paper_cluster(client_nodes: u32) -> ClusterConfig {
    ClusterConfig::nextgenio(client_nodes)
}

/// The paper's IOR parameters (bulk I/O: 1 MiB transfers).
pub fn paper_params(api: Api, oclass: ObjectClass, fpp: bool, ppn: u32) -> IorParams {
    let mut p = IorParams::paper_default(api, oclass, fpp, ppn);
    p.block_size = 32 << 20;
    p
}

/// Run `body` to completion in a fresh simulation seeded `seed`, against a
/// testbed of `cluster` with everything mounted on every client node
/// (default DFS and DFuse configurations, unsalted placement).
pub fn on_testbed<T: 'static, Fut: Future<Output = T> + 'static>(
    seed: u64,
    cluster: ClusterConfig,
    body: impl FnOnce(Sim, Rc<DaosTestbed>) -> Fut + 'static,
) -> T {
    on_testbed_with(seed, cluster, DfuseConfig::default(), 0, body)
}

/// [`on_testbed`] with the DFuse daemons configured by `dfuse` and the DFS
/// object-id space shifted by `salt` ([`DaosTestbed::setup_salted`]).
pub fn on_testbed_with<T: 'static, Fut: Future<Output = T> + 'static>(
    seed: u64,
    cluster: ClusterConfig,
    dfuse: DfuseConfig,
    salt: u64,
    body: impl FnOnce(Sim, Rc<DaosTestbed>) -> Fut + 'static,
) -> T {
    let mut sim = Sim::new(seed);
    sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup_salted(&sim, cluster, DfsConfig::default(), dfuse, salt)
            .await
            .expect("testbed setup");
        body(sim, env).await
    })
}

/// Execute one point — `params` on `client_nodes` nodes — in a fresh
/// simulation on the paper testbed (deterministic per point); phase times
/// are averaged over `repeats` placements (distinct seeds -> distinct
/// placements, like IOR's `-i` iterations in the paper's runs). The figure
/// cells pass [`paper_params`]; the determinism regression test keeps the
/// exact same machinery (salted testbed, per-repeat seed derivation) at a
/// smaller I/O volume.
pub fn run_point_with(
    client_nodes: u32,
    params: IorParams,
    seed: u64,
    repeats: u64,
) -> Measurement {
    run_point_in(paper_cluster(client_nodes), params, seed, repeats)
}

/// [`run_point_with`] on an explicit testbed: the paper-figure cells use
/// [`paper_cluster`]; the beyond-paper scale sweep weak-scales the
/// server side alongside the client axis.
pub fn run_point_in(
    cluster: ClusterConfig,
    params: IorParams,
    seed: u64,
    repeats: u64,
) -> Measurement {
    let mut acc: Option<IorReport> = None;
    for it in 0..repeats {
        let sim_seed = seed ^ ((cluster.client_nodes as u64) << 32) ^ (it << 56);
        let report = on_testbed_with(
            sim_seed,
            cluster,
            DfuseConfig::default(),
            it,
            move |sim, env| async move { run(&sim, &env, params).await.expect("ior run") },
        );
        acc = Some(match acc {
            None => report,
            Some(a) => IorReport {
                write_time: a.write_time + report.write_time,
                read_time: a.read_time + report.read_time,
                ..a
            },
        });
    }
    let mut report = acc.unwrap();
    report.write_time = report.write_time / repeats;
    report.read_time = report.read_time / repeats;
    Measurement {
        series: legend(params.api, params.oclass),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_labels_match_paper_legend() {
        assert_eq!(legend(Api::Dfs, ObjectClass::S2), "DFS-S2");
        assert_eq!(legend(Api::Hdf5, ObjectClass::SX), "HDF5-SX");
    }

    #[test]
    fn paper_params_are_bulk_io() {
        let p = paper_params(Api::Dfs, ObjectClass::S2, true, 16);
        assert_eq!(p.transfer_size, 1 << 20);
        assert_eq!(p.block_size % p.transfer_size, 0);
        assert!(p.file_per_process);
    }
}
