//! The benchmark engine: builds one I/O context per rank for the selected
//! API, then drives barrier-bracketed write and read phases.

use std::rc::Rc;

use daos_core::DaosError;
use daos_dfuse::OpenFlags;
use daos_hdf5::{Dataset, H5Config, H5File, H5Vfd, Layout};
use daos_mpiio::{Hints, MpiFile, RankFile};
use daos_placement::ObjectId;
use daos_sim::executor::join_all;
use daos_sim::Sim;
use daos_vos::Payload;

use crate::daos_env::DaosTestbed;
use crate::{data_seed, Api, IorParams, IorReport};

/// Per-rank I/O context.
enum RankIo {
    Posix(daos_dfuse::PosixFile),
    Dfs(daos_dfs::DfsFile),
    Mpiio { file: Rc<MpiFile>, collective: bool },
    Hdf5 { file: Rc<H5File>, ds: Rc<Dataset> },
    Daos(daos_core::ArrayHandle),
}

impl RankIo {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        match self {
            RankIo::Posix(f) => f.pwrite(sim, off, data).await,
            RankIo::Dfs(f) => f.write(sim, off, data).await,
            RankIo::Mpiio { file, collective } => {
                if *collective {
                    file.write_at_all(sim, off, data).await
                } else {
                    file.write_at(sim, off, data).await
                }
            }
            RankIo::Hdf5 { ds, .. } => ds.write(sim, off, data).await,
            RankIo::Daos(a) => a.write(sim, off, data).await,
        }
    }

    async fn read(
        &self,
        sim: &Sim,
        off: u64,
        len: u64,
    ) -> Result<Vec<daos_vos::tree::ReadSeg>, DaosError> {
        match self {
            RankIo::Posix(f) => f.pread(sim, off, len).await,
            RankIo::Dfs(f) => f.read(sim, off, len).await,
            RankIo::Mpiio { file, collective } => {
                if *collective {
                    file.read_at_all(sim, off, len).await
                } else {
                    file.read_at(sim, off, len).await
                }
            }
            RankIo::Hdf5 { ds, .. } => ds.read(sim, off, len).await,
            RankIo::Daos(a) => a.read(sim, off, len).await,
        }
    }

    /// End-of-write-phase metadata work (HDF5 flushes its cache).
    async fn flush(&self, sim: &Sim) -> Result<(), DaosError> {
        if let RankIo::Hdf5 { file, .. } = self {
            file.flush(sim).await?;
        }
        Ok(())
    }
}

fn file_path(params: &IorParams, rank: u32) -> String {
    if params.file_per_process {
        format!("/ior.{rank:05}")
    } else {
        "/ior.shared".to_string()
    }
}

/// Build the rank's I/O context (setup phase, untimed like IOR's
/// `open` outside `-O` timing).
async fn build_rank_io(
    sim: &Sim,
    env: &Rc<DaosTestbed>,
    world: &Rc<daos_mpi::MpiWorld>,
    params: &IorParams,
    rank: u32,
) -> Result<RankIo, DaosError> {
    let node = env.node_of_rank(rank, params.ppn) as usize;
    let path = file_path(params, rank);
    let ranks = world.size() as u64;
    match params.api {
        Api::Posix { il } => {
            let mount = if il {
                &env.dfuse_il[node]
            } else {
                &env.dfuse[node]
            };
            let f = mount
                .open(
                    sim,
                    &path,
                    OpenFlags {
                        create: true,
                        class: Some(params.oclass),
                        chunk_size: Some(params.chunk_size),
                    },
                )
                .await?;
            Ok(RankIo::Posix(f))
        }
        Api::Dfs => {
            let f = env.dfs[node]
                .create(sim, &path, params.oclass, params.chunk_size)
                .await?;
            Ok(RankIo::Dfs(f))
        }
        Api::Mpiio { collective } => {
            let f = env.dfuse[node]
                .open(
                    sim,
                    &path,
                    OpenFlags {
                        create: true,
                        class: Some(params.oclass),
                        chunk_size: Some(params.chunk_size),
                    },
                )
                .await?;
            let hints = Hints::default();
            let mf = if params.file_per_process {
                MpiFile::new_independent(world.rank(rank as usize), RankFile::Posix(f), hints)
            } else {
                MpiFile::open(sim, world.rank(rank as usize), RankFile::Posix(f), hints).await
            };
            Ok(RankIo::Mpiio {
                file: Rc::new(mf),
                collective: collective && !params.file_per_process,
            })
        }
        Api::Hdf5 => {
            let f = env.dfuse[node]
                .open(
                    sim,
                    &path,
                    OpenFlags {
                        create: true,
                        class: Some(params.oclass),
                        chunk_size: Some(params.chunk_size),
                    },
                )
                .await?;
            let h5cfg = H5Config::default();
            if params.file_per_process {
                // sec2 VFD, independent
                let h5 = H5File::create(sim, H5Vfd::Sec2(Box::new(f)), h5cfg).await?;
                let ds = h5
                    .create_dataset(
                        sim,
                        "data",
                        params.block_size * params.segments as u64,
                        Layout::Contiguous,
                    )
                    .await?;
                Ok(RankIo::Hdf5 {
                    file: h5,
                    ds: Rc::new(ds),
                })
            } else {
                // mpio VFD with independent transfers (IOR's default; pass
                // `collective` via MPI-IO hints to study two-phase I/O)
                let hints = Hints::default();
                let mf = Rc::new(
                    MpiFile::open(sim, world.rank(rank as usize), RankFile::Posix(f), hints).await,
                );
                let h5 = H5File::create(
                    sim,
                    H5Vfd::Mpio {
                        file: mf,
                        collective: false,
                    },
                    h5cfg,
                )
                .await?;
                let ds = h5
                    .create_dataset(
                        sim,
                        "data",
                        params.block_size * params.segments as u64 * ranks,
                        Layout::Contiguous,
                    )
                    .await?;
                Ok(RankIo::Hdf5 {
                    file: h5,
                    ds: Rc::new(ds),
                })
            }
        }
        Api::DaosArray => {
            let oid = if params.file_per_process {
                ObjectId::new(0xBEEF, 100 + rank as u64)
            } else {
                ObjectId::new(0xBEEF, 7)
            };
            let arr = env.containers[node]
                .object(oid, params.oclass)
                .array(params.chunk_size);
            Ok(RankIo::Daos(arr))
        }
    }
}

/// Drive one rank through a phase; returns the bytes actually moved
/// (less than the full plan only when a stonewall deadline fires).
async fn rank_io_phase(
    sim: Sim,
    io: Rc<RankIo>,
    params: IorParams,
    ranks: u64,
    rank: u64,
    is_write: bool,
    deadline: Option<daos_sim::time::SimTime>,
) -> Result<u64, DaosError> {
    // -C: read the data written by the next rank (fpp read contexts are
    // already that rank's file; here we flip the *data seed / offsets*)
    let data_rank = if !is_write && params.reorder_read {
        (rank + 1) % ranks
    } else {
        rank
    };
    // plan the (segment, transfer) visit order; -z shuffles it
    let tpb = params.transfers_per_block();
    let mut plan: Vec<(u64, u64)> = (0..params.segments as u64)
        .flat_map(|s| (0..tpb).map(move |k| (s, k)))
        .collect();
    if params.random_offsets {
        // deterministic Fisher-Yates keyed by rank
        let mut state = daos_placement::splitmix64(0x5EED ^ rank) | 1;
        for i in (1..plan.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            plan.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
    let mut moved = 0u64;
    for (s, k) in plan {
        if let Some(d) = deadline {
            if sim.now() >= d {
                break; // stonewalled
            }
        }
        let off = params.offset(ranks, data_rank, s, k);
        if is_write {
            let data = Payload::pattern(data_seed(data_rank, s, k), params.transfer_size);
            io.write(&sim, off, data).await?;
        } else {
            let segs = io.read(&sim, off, params.transfer_size).await?;
            if params.verify {
                let want = Payload::pattern(data_seed(data_rank, s, k), params.transfer_size)
                    .materialize();
                let got = daos_mpiio::assemble(&segs, off, params.transfer_size).materialize();
                if got != want {
                    return Err(DaosError::Other(format!(
                        "verification failed at rank {rank} seg {s} xfer {k}"
                    )));
                }
            }
        }
        moved += params.transfer_size;
    }
    if is_write {
        io.flush(&sim).await?;
    }
    Ok(moved)
}

/// Run one IOR configuration against a DAOS testbed.
pub async fn run(
    sim: &Sim,
    env: &Rc<DaosTestbed>,
    params: IorParams,
) -> Result<IorReport, DaosError> {
    let client_nodes = env.client_nodes();
    let ranks = client_nodes * params.ppn;
    let world = env.mpi_world(params.ppn);

    // ---- setup (untimed): create files, build contexts --------------
    // wave A: rank 0 creates the shared file's dirent so wave B opens race-free
    if !params.file_per_process {
        match params.api {
            Api::Posix { .. } | Api::Mpiio { .. } | Api::Hdf5 => {
                env.dfuse[0]
                    .open(
                        sim,
                        &file_path(&params, 0),
                        OpenFlags {
                            create: true,
                            class: Some(params.oclass),
                            chunk_size: Some(params.chunk_size),
                        },
                    )
                    .await?;
            }
            Api::Dfs => {
                env.dfs[0]
                    .create(
                        sim,
                        &file_path(&params, 0),
                        params.oclass,
                        params.chunk_size,
                    )
                    .await?;
            }
            Api::DaosArray => {}
        }
    }
    // wave B: every rank builds its context (collective opens included)
    let ios: Vec<Rc<RankIo>> = {
        let futs: Vec<_> = (0..ranks)
            .map(|r| {
                let env = Rc::clone(env);
                let world = Rc::clone(&world);
                let sim2 = sim.clone();
                async move { build_rank_io(&sim2, &env, &world, &params, r).await }
            })
            .collect();
        let mut out = Vec::with_capacity(ranks as usize);
        for r in join_all(sim, futs).await {
            out.push(Rc::new(r?));
        }
        out
    };

    // ---- write phase -------------------------------------------------
    let total_bytes = params.total_bytes(client_nodes);
    let mut write_time = daos_sim::time::SimDuration::ZERO;
    let mut bytes_written = 0u64;
    if params.do_write {
        let t0 = sim.now();
        let deadline = params.stonewall.map(|d| t0 + d);
        let futs: Vec<_> = ios
            .iter()
            .enumerate()
            .map(|(r, io)| {
                rank_io_phase(
                    sim.clone(),
                    Rc::clone(io),
                    params,
                    ranks as u64,
                    r as u64,
                    true,
                    deadline,
                )
            })
            .collect();
        for r in join_all(sim, futs).await {
            bytes_written += r?;
        }
        write_time = sim.now() - t0;
    }

    // ---- read phase ----------------------------------------------------
    let mut read_time = daos_sim::time::SimDuration::ZERO;
    let mut bytes_read = 0u64;
    if params.do_read {
        let t0 = sim.now();
        let deadline = params.stonewall.map(|d| t0 + d);
        let futs: Vec<_> = ios
            .iter()
            .enumerate()
            .map(|(r, io)| {
                rank_io_phase(
                    sim.clone(),
                    Rc::clone(io),
                    params,
                    ranks as u64,
                    r as u64,
                    false,
                    deadline,
                )
            })
            .collect();
        for r in join_all(sim, futs).await {
            bytes_read += r?;
        }
        read_time = sim.now() - t0;
    }

    Ok(IorReport {
        ranks,
        client_nodes,
        total_bytes,
        bytes_written,
        bytes_read,
        write_time,
        read_time,
    })
}
