//! Checkpoint/restart through MPI-IO: a classic shared-file HPC pattern.
//!
//! 64 MPI ranks write one checkpoint to a single shared file through the
//! ROMIO-style MPI-IO layer over the DFuse mount, then restart and read it
//! back. On DAOS the shared file costs about the same as file-per-process
//! — the paper's headline observation — because DFS maps the file onto a
//! lock-free, epoch-versioned SX object.
//!
//! ```text
//! cargo run -p daos-tests --example checkpoint_restart --release
//! ```

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_mpi::MpiWorld;
use daos_mpiio::{Hints, MpiFile, RankFile};
use daos_placement::ObjectClass;
use daos_sim::executor::join_all;
use daos_sim::units::{fmt_bytes, gib_per_sec, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

const NODES: u32 = 4;
const PPN: u32 = 16;
const PER_RANK: u64 = 32 * MIB;

pub fn main() {
    let mut sim = Sim::new(0xC4E);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::nextgenio(NODES));
        // one mount per client node, as dfuse runs per node
        let mut mounts = Vec::new();
        for i in 0..NODES {
            let client = DaosClient::new(Rc::clone(&cluster), i);
            let pool = client.connect(&sim).await.expect("connect");
            let cont = pool.open_or_create(&sim, 5).await.expect("container");
            let dfs = Dfs::mount(&sim, cont, DfsConfig::default())
                .await
                .expect("mount");
            mounts.push(DfuseMount::new(dfs, DfuseConfig::default()));
        }
        let ranks = (NODES * PPN) as usize;
        let world = MpiWorld::new(
            Rc::clone(&cluster.fabric),
            (0..ranks)
                .map(|r| cluster.client_node(r as u32 / PPN))
                .collect(),
        );

        // rank 0 creates the checkpoint file (SX: stripe over everything)
        mounts[0]
            .open(&sim, "/ckpt.0001", OpenFlags::create_with(ObjectClass::SX))
            .await
            .expect("create");

        // ---- checkpoint: collective open + independent large writes ----
        let t0 = sim.now();
        let futs: Vec<_> = (0..ranks)
            .map(|r| {
                let mount = Rc::clone(&mounts[r / PPN as usize]);
                let world = Rc::clone(&world);
                let sim = sim.clone();
                async move {
                    let f = mount
                        .open(&sim, "/ckpt.0001", OpenFlags::read())
                        .await
                        .expect("open");
                    let mf =
                        MpiFile::open(&sim, world.rank(r), RankFile::Posix(f), Hints::default())
                            .await;
                    let base = r as u64 * PER_RANK;
                    for k in 0..PER_RANK / MIB {
                        mf.write_at(&sim, base + k * MIB, Payload::pattern(r as u64, MIB))
                            .await
                            .unwrap();
                    }
                    mf.close(&sim).await;
                }
            })
            .collect();
        join_all(&sim, futs).await;
        let t_ckpt = sim.now() - t0;
        let total = ranks as u64 * PER_RANK;
        println!(
            "checkpoint: {} from {ranks} ranks in {} ({:.2} GiB/s)",
            fmt_bytes(total),
            t_ckpt,
            gib_per_sec(total, t_ckpt.as_secs_f64())
        );

        // ---- restart: every rank reads its slice back and verifies ----
        let t0 = sim.now();
        let futs: Vec<_> = (0..ranks)
            .map(|r| {
                let mount = Rc::clone(&mounts[r / PPN as usize]);
                let world = Rc::clone(&world);
                let sim = sim.clone();
                async move {
                    let f = mount
                        .open(&sim, "/ckpt.0001", OpenFlags::read())
                        .await
                        .expect("open");
                    let mf =
                        MpiFile::open(&sim, world.rank(r), RankFile::Posix(f), Hints::default())
                            .await;
                    let base = r as u64 * PER_RANK;
                    // spot-verify the first MiB, stream the rest
                    let segs = mf.read_at(&sim, base, MIB).await.unwrap();
                    let got = daos_mpiio::assemble(&segs, base, MIB).materialize();
                    assert_eq!(
                        got,
                        Payload::pattern(r as u64, MIB).materialize(),
                        "rank {r} corrupt restart data"
                    );
                    for k in 1..PER_RANK / MIB {
                        mf.read_at(&sim, base + k * MIB, MIB).await.unwrap();
                    }
                    mf.close(&sim).await;
                }
            })
            .collect();
        join_all(&sim, futs).await;
        let t_restart = sim.now() - t0;
        println!(
            "restart:    {} verified in {} ({:.2} GiB/s)",
            fmt_bytes(total),
            t_restart,
            gib_per_sec(total, t_restart.as_secs_f64())
        );
    });
}
