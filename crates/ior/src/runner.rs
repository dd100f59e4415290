//! The benchmark engine: [`run`] opens one file per rank on the rung
//! `params.api` names, then hands them to [`run_files`], the one driver of
//! the barrier-bracketed write and read phases for every rung.

use std::future::Future;
use std::rc::Rc;

use daos_core::DaosError;
use daos_dfuse::{DfuseMount, OpenFlags, PosixFile};
use daos_hdf5::{H5Config, H5File, H5Vfd, Layout};
use daos_mpiio::{Hints, MpiFile, RankFile};
use daos_pfs::{Pfs, PfsFile};
use daos_sim::executor::join_all;
use daos_sim::time::{SimDuration, SimTime};
use daos_sim::Sim;
use daos_vos::Payload;

use crate::daos_env::DaosTestbed;
use crate::ladder::{ByteFile, Collective, Intercepted, PfsClient};
use crate::{data_seed, Api, IorParams, IorReport};

fn file_path(params: &IorParams, rank: u32) -> String {
    if params.file_per_process {
        format!("/ior.{rank:05}")
    } else {
        "/ior.shared".to_string()
    }
}

/// Drive one rank through a phase; returns the bytes actually moved
/// (less than the full plan only when a stonewall deadline fires).
async fn rank_io_phase<F: ByteFile>(
    sim: Sim,
    file: Rc<F>,
    params: IorParams,
    ranks: u64,
    rank: u64,
    is_write: bool,
    deadline: Option<SimTime>,
) -> Result<u64, DaosError> {
    // -C: read back the block the next rank wrote to the shared file
    let data_rank = if !is_write && params.reorder_read {
        (rank + 1) % ranks
    } else {
        rank
    };
    // plan the (segment, transfer) visit order; -z shuffles it
    let tpb = params.transfers_per_block()?;
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
            file.write(&sim, off, data).await?;
        } else {
            let segs = file.read(&sim, off, params.transfer_size).await?;
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
        file.flush(&sim).await?;
    }
    Ok(moved)
}

/// One barrier-to-barrier phase over all ranks: (bytes moved, makespan).
async fn io_phase<F: ByteFile + 'static>(
    sim: &Sim,
    files: &[Rc<F>],
    params: IorParams,
    is_write: bool,
) -> Result<(u64, SimDuration), DaosError> {
    let t0 = sim.now();
    let deadline = params.stonewall.map(|d| t0 + d);
    let ranks = files.len() as u64;
    let futs: Vec<_> = (0..ranks)
        .zip(files)
        .map(|(r, f)| {
            rank_io_phase(
                sim.clone(),
                Rc::clone(f),
                params,
                ranks,
                r,
                is_write,
                deadline,
            )
        })
        .collect();
    let mut moved = 0u64;
    for r in join_all(sim, futs).await {
        moved += r?;
    }
    Ok((moved, sim.now() - t0))
}

/// The rank driver of every rung: `files[r]` is rank `r`'s open file
/// (`params.ppn` ranks to each of `client_nodes` nodes; `params.api` is
/// read only to refuse collective MPI-IO without the shared file). Write
/// phase, then read phase, each timed barrier to barrier.
pub async fn run_files<F: ByteFile + 'static>(
    sim: &Sim,
    client_nodes: u32,
    params: IorParams,
    files: Vec<F>,
) -> Result<IorReport, DaosError> {
    if params.verify && !F::STORES_BYTES {
        return Err(DaosError::Other(
            "verify: this rung models timing only and stores no bytes".into(),
        ));
    }
    // a block that is not a whole number of transfers is refused here,
    // before any rank starts
    params.transfers_per_block()?;
    if params.reorder_read && params.file_per_process {
        // a rank's handle is bound to its own file: there is no
        // neighbour's block to read through it
        return Err(DaosError::Other("-C needs the shared file".into()));
    }
    if params.api == (Api::Mpiio { collective: true }) && params.file_per_process {
        // a collective call spans the ranks of one file: with a file per
        // process every transfer would be independent
        return Err(DaosError::Other(
            "collective MPI-IO needs the shared file".into(),
        ));
    }
    let files: Vec<Rc<F>> = files.into_iter().map(Rc::new).collect();
    let mut report = IorReport {
        ranks: files.len() as u32,
        client_nodes,
        total_bytes: params.total_bytes(client_nodes),
        bytes_written: 0,
        bytes_read: 0,
        write_time: SimDuration::ZERO,
        read_time: SimDuration::ZERO,
    };
    if params.do_write {
        (report.bytes_written, report.write_time) = io_phase(sim, &files, params, true).await?;
    }
    if params.do_read {
        (report.bytes_read, report.read_time) = io_phase(sim, &files, params, false).await?;
    }
    Ok(report)
}

/// Every rank opens its file concurrently (collective opens included).
async fn open_all<F: 'static, Fut>(
    sim: &Sim,
    ranks: u32,
    open: impl Fn(u32) -> Fut,
) -> Result<Vec<F>, DaosError>
where
    Fut: Future<Output = Result<F, DaosError>> + 'static,
{
    let opened = join_all(sim, (0..ranks).map(open).collect()).await;
    opened.into_iter().collect()
}

/// Open (creating it if absent) rank `rank`'s file through a DFuse mount.
async fn posix_open(
    sim: &Sim,
    mount: &Rc<DfuseMount>,
    params: &IorParams,
    rank: u32,
) -> Result<PosixFile, DaosError> {
    let flags = OpenFlags {
        create: true,
        class: Some(params.oclass),
        chunk_size: Some(params.chunk_size),
    };
    mount.open(sim, &file_path(params, rank), flags).await
}

/// Run one IOR configuration against a DAOS testbed. Setup (creating and
/// opening the files) is untimed, like IOR's `open` outside `-O` timing.
pub async fn run(
    sim: &Sim,
    env: &Rc<DaosTestbed>,
    params: IorParams,
) -> Result<IorReport, DaosError> {
    let nodes = env.client_nodes();
    let ranks = nodes * params.ppn;
    let world = env.mpi_world(params.ppn);
    let node_of = |r: u32| env.node_of_rank(r, params.ppn) as usize;
    let shared = !params.file_per_process;
    // rank r's DFuse file, ready to move into an open future
    let posix = |r: u32| {
        let (sim, mount) = (sim.clone(), Rc::clone(&env.dfuse[node_of(r)]));
        async move { posix_open(&sim, &mount, &params, r).await }
    };
    // rank 0 alone creates a shared file's dirent, before every rank opens
    // it concurrently, so the opens are race-free
    let create_shared_posix = async || {
        if shared {
            posix(0).await?;
        }
        Ok::<(), DaosError>(())
    };

    match params.api {
        Api::Posix { il } => {
            create_shared_posix().await?;
            let files = open_all(sim, ranks, posix).await?;
            if il {
                let files = files.into_iter().map(Intercepted).collect();
                run_files(sim, nodes, params, files).await
            } else {
                run_files(sim, nodes, params, files).await
            }
        }
        Api::Dfs => {
            let open = |r: u32| {
                let (sim, fs) = (sim.clone(), Rc::clone(&env.dfs[node_of(r)]));
                async move {
                    let path = file_path(&params, r);
                    fs.create(&sim, &path, params.oclass, params.chunk_size)
                        .await
                }
            };
            if shared {
                open(0).await?;
            }
            let files = open_all(sim, ranks, open).await?;
            run_files(sim, nodes, params, files).await
        }
        Api::Mpiio { collective } => {
            let open = |r: u32| {
                let (sim, rank, file) = (sim.clone(), world.rank(r as usize), posix(r));
                async move {
                    let (file, hints) = (RankFile::Posix(file.await?), Hints::default());
                    Ok(if shared {
                        MpiFile::open(&sim, rank, file, hints).await
                    } else {
                        MpiFile::new_independent(rank, file, hints)
                    })
                }
            };
            create_shared_posix().await?;
            let files = open_all(sim, ranks, open).await?;
            if collective {
                let files = files.into_iter().map(Collective).collect();
                run_files(sim, nodes, params, files).await
            } else {
                run_files(sim, nodes, params, files).await
            }
        }
        Api::Hdf5 => {
            let open = |r: u32| {
                let (sim, rank, file) = (sim.clone(), world.rank(r as usize), posix(r));
                async move {
                    let file = file.await?;
                    let block = params.block_size * params.segments as u64;
                    // file per process: `sec2` VFD, one dataset per file;
                    // shared: `mpio` VFD with independent transfers (IOR's
                    // default), one dataset holding every rank's blocks
                    let (vfd, size) = if shared {
                        let file = RankFile::Posix(file);
                        let file = MpiFile::open(&sim, rank, file, Hints::default()).await;
                        (H5Vfd::Mpio(Rc::new(file)), block * ranks as u64)
                    } else {
                        (H5Vfd::Sec2(Box::new(file)), block)
                    };
                    let h5 = H5File::create(&sim, vfd, H5Config::default()).await?;
                    let ds = h5
                        .create_dataset(&sim, "data", size, Layout::Contiguous)
                        .await?;
                    Ok((h5, ds))
                }
            };
            create_shared_posix().await?;
            let files = open_all(sim, ranks, open).await?;
            run_files(sim, nodes, params, files).await
        }
        Api::DaosArray => {
            // each rank's node allocates its array's ID; a shared array is
            // allocated once, on rank 0's node
            let shared_oid = shared.then(|| env.containers[node_of(0)].allocate_oid());
            let files = (0..ranks).map(|r| {
                let cont = &env.containers[node_of(r)];
                let oid = shared_oid.unwrap_or_else(|| cont.allocate_oid());
                cont.object(oid, params.oclass).array(params.chunk_size)
            });
            run_files(sim, nodes, params, files.collect()).await
        }
    }
}

/// Open one file per rank on the PFS for [`run_files`]: rank `r` on client
/// node `r / ppn`, its rank the lock-owner identity. One MDS round trip
/// each, in rank order.
pub async fn pfs_files(
    sim: &Sim,
    fs: &Rc<Pfs>,
    params: &IorParams,
) -> Result<Vec<PfsFile>, DaosError> {
    let mut files = Vec::new();
    for (r, client) in (0..).zip(PfsClient::per_rank(fs, params.ppn)) {
        files.push(client.open(sim, &file_path(params, r)).await?);
    }
    Ok(files)
}
