//! IOR against the Lustre-like PFS baseline (POSIX API only): the
//! contrast experiment for the paper's closing observation.

use std::rc::Rc;

use daos_pfs::{Pfs, PfsFile};
use daos_sim::executor::join_all;
use daos_sim::Sim;
use daos_vos::Payload;

use crate::{data_seed, IorParams, IorReport};

async fn pfs_rank_phase(
    sim: Sim,
    f: PfsFile,
    params: IorParams,
    ranks: u64,
    rank: u64,
    is_write: bool,
) -> Result<(), String> {
    for s in 0..params.segments as u64 {
        for k in 0..params.transfers_per_block() {
            let off = params.offset(ranks, rank, s, k);
            if is_write {
                f.write(
                    &sim,
                    off,
                    Payload::pattern(data_seed(rank, s, k), params.transfer_size),
                )
                .await?;
            } else {
                f.read(&sim, off, params.transfer_size).await?;
            }
        }
    }
    Ok(())
}

/// Run one IOR configuration on the PFS baseline (`params.api` ignored —
/// PFS is reached through POSIX).
pub async fn run_pfs(sim: &Sim, fs: &Rc<Pfs>, params: IorParams) -> Result<IorReport, String> {
    let client_nodes = fs.config().client_nodes;
    let ranks = client_nodes * params.ppn;

    // setup: open per-rank handles (rank identity = lock owner)
    let mut files = Vec::with_capacity(ranks as usize);
    for r in 0..ranks {
        let path = if params.file_per_process {
            format!("/ior.{r:05}")
        } else {
            "/ior.shared".to_string()
        };
        let f = fs.open(sim, r / params.ppn, r as u64, &path, true).await?;
        files.push(f);
    }

    let total_bytes = params.total_bytes(client_nodes);
    let mut write_time = daos_sim::time::SimDuration::ZERO;
    let mut bytes_written = 0;
    if params.do_write {
        bytes_written = total_bytes;
        let t0 = sim.now();
        let futs: Vec<_> = files
            .iter()
            .enumerate()
            .map(|(r, f)| {
                pfs_rank_phase(sim.clone(), f.clone(), params, ranks as u64, r as u64, true)
            })
            .collect();
        for r in join_all(sim, futs).await {
            r?;
        }
        write_time = sim.now() - t0;
    }

    let mut read_time = daos_sim::time::SimDuration::ZERO;
    let mut bytes_read = 0;
    if params.do_read {
        bytes_read = total_bytes;
        let t0 = sim.now();
        let futs: Vec<_> = files
            .iter()
            .enumerate()
            .map(|(r, f)| {
                pfs_rank_phase(
                    sim.clone(),
                    f.clone(),
                    params,
                    ranks as u64,
                    r as u64,
                    false,
                )
            })
            .collect();
        for r in join_all(sim, futs).await {
            r?;
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
