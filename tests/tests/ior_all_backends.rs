//! End-to-end IOR runs through every access API on a small cluster, with
//! full data verification — the whole stack (client → fabric → engine →
//! VOS → media, plus DFS/DFuse/MPI-IO/HDF5 on top) in one test file —
//! and the same driver over the PFS baseline.

use std::rc::Rc;

use daos_core::{ClusterConfig, DaosError};
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{
    mdtest, mdtest_ranks, pfs_files, run, run_files, Api, DaosTestbed, IorParams, IorReport,
    MdBackend, PfsClient,
};
use daos_pfs::{Pfs, PfsConfig};
use daos_placement::ObjectClass;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;

/// Client nodes of every testbed here.
const NODES: u32 = 2;

fn small_params(api: Api, fpp: bool) -> IorParams {
    IorParams {
        api,
        transfer_size: 256 * KIB,
        block_size: MIB,
        segments: 2,
        file_per_process: fpp,
        ppn: 2,
        oclass: ObjectClass::S2,
        chunk_size: MIB,
        verify: true,
        do_write: true,
        do_read: true,
        random_offsets: false,
        reorder_read: false,
        stonewall: None,
    }
}

/// A rung of the interface ladder: a DAOS API, or POSIX on the PFS.
#[derive(Clone, Copy, Debug)]
enum Rung {
    Daos(Api),
    Pfs,
}

const RUNGS: [Rung; 8] = [
    Rung::Daos(Api::DaosArray),
    Rung::Daos(Api::Dfs),
    Rung::Daos(Api::Posix { il: false }),
    Rung::Daos(Api::Posix { il: true }),
    Rung::Daos(Api::Mpiio { collective: false }),
    Rung::Daos(Api::Mpiio { collective: true }),
    Rung::Daos(Api::Hdf5),
    Rung::Pfs,
];

async fn tiny_testbed(sim: &Sim) -> Rc<DaosTestbed> {
    let cluster = ClusterConfig::tiny(NODES);
    DaosTestbed::setup(sim, cluster, DfsConfig::default(), DfuseConfig::default())
        .await
        .expect("testbed")
}

fn tiny_pfs() -> Rc<Pfs> {
    Pfs::build(PfsConfig {
        client_nodes: NODES,
        stripe_count: 2,
        ..Default::default()
    })
}

/// One IOR run on `rung` in a fresh sim (`p.api` is overwritten).
fn run_rung(rung: Rung, p: IorParams) -> Result<IorReport, DaosError> {
    let mut sim = Sim::new(0x10D);
    sim.block_on(move |sim| async move {
        match rung {
            Rung::Daos(api) => {
                let env = tiny_testbed(&sim).await;
                run(&sim, &env, IorParams { api, ..p }).await
            }
            Rung::Pfs => {
                let files = pfs_files(&sim, &tiny_pfs(), &p).await?;
                run_files(&sim, NODES, p, files).await
            }
        }
    })
}

/// Collective MPI-IO spans the ranks of one file, so with a file per
/// process the driver must refuse it, never run independent transfers
/// under the collective rung's name. Returns whether `rung` × `fpp` is
/// that case, after checking the refusal.
fn collective_fpp_refused(rung: Rung, r: &Result<IorReport, DaosError>, fpp: bool) -> bool {
    if !(matches!(rung, Rung::Daos(Api::Mpiio { collective: true })) && fpp) {
        return false;
    }
    match r {
        Err(DaosError::Other(why)) => assert!(why.contains("collective MPI-IO"), "{why}"),
        other => panic!("collective MPI-IO with a file per process must fail: {other:?}"),
    }
    true
}

fn run_one(api: Api, fpp: bool) -> IorReport {
    run_rung(Rung::Daos(api), small_params(api, fpp)).expect("ior run")
}

/// Every rung × {sequential, `-z`, `-C`} × {file per process, shared}: the
/// one driver moves exactly the planned bytes, and what it reads back is
/// what it wrote (verified on every rung that stores bytes).
#[test]
fn every_rung_moves_exactly_the_plan_in_every_order() {
    // (random_offsets, reorder_read, file_per_process)
    let orders = [
        (false, false, true),
        (false, false, false),
        (true, false, true),
        (true, false, false),
        (false, true, false),
    ];
    for rung in RUNGS {
        for (random_offsets, reorder_read, fpp) in orders {
            let p = IorParams {
                verify: matches!(rung, Rung::Daos(_)),
                random_offsets,
                reorder_read,
                ..small_params(Api::Dfs, fpp)
            };
            let what = format!("{rung:?} -z={random_offsets} -C={reorder_read} fpp={fpp}");
            let r = run_rung(rung, p);
            if collective_fpp_refused(rung, &r, fpp) {
                continue;
            }
            let r = r.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(r.ranks, 4, "{what}");
            assert_eq!(r.total_bytes, 4 * 2 * MIB, "{what}");
            assert_eq!(r.bytes_written, r.total_bytes, "{what}");
            assert_eq!(r.bytes_read, r.total_bytes, "{what}");
            assert!(r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0, "{what}");
        }
    }
}

/// A stonewalled phase runs up to its deadline and no further than the
/// transfers in flight when it fires (each rank looks at the clock before
/// every transfer), and reports the bytes it actually moved.
#[test]
fn every_rung_stops_at_the_stonewall() {
    for rung in RUNGS {
        for fpp in [true, false] {
            let mut p = small_params(Api::Dfs, fpp);
            p.verify = false; // a cut-short write phase leaves holes
            p.block_size = 4 * MIB;
            let full = run_rung(rung, p);
            if collective_fpp_refused(rung, &full, fpp) {
                continue;
            }
            let full = full.unwrap();
            let wall = full.write_time.min(full.read_time) / 4;
            p.stonewall = Some(wall);
            let what = format!("{rung:?} fpp={fpp}");
            let r = run_rung(rung, p).unwrap_or_else(|e| panic!("{what}: {e}"));
            for (moved, took, uncut) in [
                (r.bytes_written, r.write_time, full.write_time),
                (r.bytes_read, r.read_time, full.read_time),
            ] {
                assert!(0 < moved && moved < r.total_bytes, "{what}: moved {moved}");
                assert_eq!(moved % p.transfer_size, 0, "{what}");
                assert!(
                    wall <= took && took < uncut,
                    "{what}: {wall} {took} {uncut}"
                );
            }
            assert!(r.write_gib_s() > 0.0 && r.write_gib_s() < 60.0, "{what}");
        }
    }
}

/// What the driver cannot do on a rung is an error, never a silent skip.
#[test]
fn unsupported_combinations_are_typed_errors() {
    // the PFS model stores no bytes: there is nothing to verify
    let p = small_params(Api::Dfs, true);
    match run_rung(Rung::Pfs, p) {
        Err(DaosError::Other(why)) => assert!(why.contains("stores no bytes"), "{why}"),
        other => panic!("verify on the PFS must fail: {other:?}"),
    }
    // -C reads a neighbour's block through the rank's own handle: with a
    // file per process there is none
    for rung in [Rung::Daos(Api::Dfs), Rung::Pfs] {
        let mut p = small_params(Api::Dfs, true);
        p.verify = false;
        p.reorder_read = true;
        match run_rung(rung, p) {
            Err(DaosError::Other(why)) => assert!(why.contains("-C"), "{why}"),
            other => panic!("{rung:?}: -C -F must fail: {other:?}"),
        }
    }
    // a collective call spans the ranks of one file
    let rung = Rung::Daos(Api::Mpiio { collective: true });
    let r = run_rung(rung, small_params(Api::Dfs, true));
    assert!(collective_fpp_refused(rung, &r, true));
}

/// mdtest through `libdfs`, DFuse and the PFS: three storms of
/// `ranks × files` ops each, and nothing left behind.
#[test]
fn mdtest_leaves_an_empty_namespace_on_every_rung() {
    const PPN: u32 = 2;
    const FILES: u32 = 5;
    let ranks = NODES * PPN;
    let check = |what: &str, r: daos_ior::MdtestReport| {
        assert_eq!(3 * r.ranks * r.files_per_rank, 3 * ranks * FILES, "{what}");
        let rates = [r.creates_per_s(), r.stats_per_s(), r.unlinks_per_s()];
        assert!(rates.iter().all(|&x| x > 0.0), "{what}: {rates:?}");
    };
    for backend in [MdBackend::Dfs, MdBackend::Dfuse] {
        let mut sim = Sim::new(0x3D);
        let r = sim.block_on(move |sim| async move {
            let env = tiny_testbed(&sim).await;
            let r = mdtest(&sim, &env, backend, PPN, FILES).await.unwrap();
            for rank in 0..ranks {
                let dir = format!("/md.{rank}");
                let left = env.dfs[(rank / PPN) as usize].readdir(&sim, &dir).await;
                assert_eq!(left.unwrap(), Vec::<String>::new(), "{backend:?} {dir}");
            }
            r
        });
        check(&format!("{backend:?}"), r);
    }
    let mut sim = Sim::new(0x3D);
    let r = sim.block_on(|sim| async move {
        let fs = tiny_pfs();
        let r = mdtest_ranks(&sim, FILES, PfsClient::per_rank(&fs, PPN))
            .await
            .unwrap();
        for rank in 0..ranks {
            for i in 0..FILES {
                let path = format!("/md.{rank}/f.{i:06}");
                assert!(fs.stat(&sim, 0, &path).await.is_err(), "{path} survived");
            }
        }
        r
    });
    check("pfs", r);
}

#[test]
fn ior_dfs_fpp_and_shared_verify() {
    for fpp in [true, false] {
        let r = run_one(Api::Dfs, fpp);
        assert_eq!(r.ranks, 4);
        assert_eq!(r.total_bytes, 4 * 2 * MIB);
        assert!(r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0);
    }
}

#[test]
fn ior_posix_fpp_and_shared_verify() {
    for fpp in [true, false] {
        let r = run_one(Api::Posix { il: false }, fpp);
        assert!(r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0, "{r:?}");
    }
}

/// One verified file-per-process POSIX run, and the DFuse counters of
/// every client node's one mount summed after it:
/// `(fuse_requests, intercepted_ops)`.
fn posix_run_counters(il: bool) -> (IorReport, u64, u64) {
    let mut sim = Sim::new(0x10D);
    sim.block_on(move |sim| async move {
        let env = tiny_testbed(&sim).await;
        let api = Api::Posix { il };
        let r = run(&sim, &env, small_params(api, true))
            .await
            .expect("ior run");
        let stats = env.dfuse.iter().map(|m| m.stats());
        let (fuse, il_ops) = stats.fold((0, 0), |(f, i), s| {
            (f + s.fuse_requests, i + s.intercepted_ops)
        });
        (r, fuse, il_ops)
    })
}

/// Under the interception library a rank's file is opened through the
/// node's mount, one FUSE request, and every transfer after that
/// bypasses the kernel; the same run without it crosses the kernel at
/// least once per transfer.
#[test]
fn ior_posix_interception_verify() {
    let p = small_params(Api::Dfs, true);
    let ranks = u64::from(NODES * p.ppn);
    let transfers = 2 * ranks * p.segments as u64 * p.block_size / p.transfer_size;
    let (r, fuse, il_ops) = posix_run_counters(true);
    assert!(r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0, "{r:?}");
    assert_eq!((fuse, il_ops), (ranks, transfers));
    let (_, fuse, il_ops) = posix_run_counters(false);
    assert_eq!(il_ops, 0);
    assert!(
        fuse >= transfers + ranks,
        "{fuse} FUSE requests for {transfers} transfers"
    );
}

#[test]
fn ior_mpiio_independent_and_collective_verify() {
    for (collective, fpp) in [(false, true), (false, false), (true, false)] {
        let r = run_one(Api::Mpiio { collective }, fpp);
        assert!(
            r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0,
            "collective={collective} fpp={fpp}: {r:?}"
        );
    }
}

#[test]
fn ior_hdf5_fpp_and_shared_verify() {
    for fpp in [true, false] {
        let r = run_one(Api::Hdf5, fpp);
        assert!(
            r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0,
            "fpp={fpp}: {r:?}"
        );
    }
}

#[test]
fn ior_daos_array_fpp_and_shared_verify() {
    for fpp in [true, false] {
        let r = run_one(Api::DaosArray, fpp);
        assert!(r.write_gib_s() > 0.0 && r.read_gib_s() > 0.0);
    }
}

#[test]
fn ior_is_deterministic_across_runs() {
    let a = run_one(Api::Dfs, true);
    let b = run_one(Api::Dfs, true);
    assert_eq!(a.write_time, b.write_time);
    assert_eq!(a.read_time, b.read_time);
}

#[test]
fn dfuse_overhead_is_modest_for_aligned_io() {
    // MPI-IO over DFuse should be close to native DFS for aligned 1 MiB
    // transfers (paper: "very similar performance") — within 25% here.
    let dfs = run_one(Api::Dfs, true);
    let mpiio = run_one(Api::Mpiio { collective: false }, true);
    let ratio = mpiio.write_gib_s() / dfs.write_gib_s();
    assert!(
        ratio > 0.75 && ratio < 1.1,
        "MPIIO/DFS write ratio {ratio} out of range ({} vs {})",
        mpiio.write_gib_s(),
        dfs.write_gib_s()
    );
}

#[test]
fn object_class_changes_layout_but_not_contents() {
    for class in [ObjectClass::S1, ObjectClass::SX] {
        let mut p = small_params(Api::Dfs, false);
        p.oclass = class;
        p.ppn = 4;
        let r = run_rung(Rung::Daos(Api::Dfs), p).unwrap();
        assert!(r.read_gib_s() > 0.0);
    }
}
