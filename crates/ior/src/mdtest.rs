//! An mdtest-style metadata benchmark: per-rank create / stat / unlink
//! storms, covering the paper's §I motivation (object stores vs POSIX
//! metadata scalability).

use std::fmt::Write as _;
use std::rc::Rc;

use daos_core::DaosError;
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::Sim;

use crate::daos_env::DaosTestbed;
use crate::ladder::MetaOps;

/// Which DAOS layer [`mdtest`] sends the metadata ops through (the PFS
/// rung has no testbed: hand [`mdtest_ranks`] its clients directly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MdBackend {
    /// The `libdfs` rung: [`MetaOps`] for `Rc<Dfs>`.
    Dfs,
    /// The POSIX-through-DFuse rung: [`MetaOps`] for `Rc<DfuseMount>`.
    Dfuse,
}

/// Rates from one mdtest run.
#[derive(Clone, Copy, Debug)]
pub struct MdtestReport {
    pub ranks: u32,
    pub files_per_rank: u32,
    pub create_time: SimDuration,
    pub stat_time: SimDuration,
    pub unlink_time: SimDuration,
}

impl MdtestReport {
    fn rate(&self, t: SimDuration) -> f64 {
        let ops = self.ranks as f64 * self.files_per_rank as f64;
        if t.as_secs_f64() == 0.0 {
            0.0
        } else {
            ops / t.as_secs_f64()
        }
    }
    /// File creates per second.
    pub fn creates_per_s(&self) -> f64 {
        self.rate(self.create_time)
    }
    /// Stats per second.
    pub fn stats_per_s(&self) -> f64 {
        self.rate(self.stat_time)
    }
    /// Unlinks per second.
    pub fn unlinks_per_s(&self) -> f64 {
        self.rate(self.unlink_time)
    }
}

/// One storm over every rank's files: `op` on each of rank `r`'s
/// `/md.{r}/f.*`, all ranks concurrently; returns the makespan.
async fn phase<M, Op>(
    sim: &Sim,
    clients: &[M],
    files: u32,
    op: Op,
) -> Result<SimDuration, DaosError>
where
    M: MetaOps + Clone + 'static,
    Op: AsyncFn(&M, &Sim, &str) -> Result<(), DaosError> + Copy + 'static,
{
    let t0 = sim.now();
    let futs: Vec<_> = (0..)
        .zip(clients)
        .map(|(r, md): (u32, _)| {
            let (sim, md) = (sim.clone(), md.clone());
            async move {
                // one buffer for every path of the rank: `/md.{r}/f.{i:06}`
                let mut path = format!("/md.{r}/f.");
                let dir = path.len();
                for i in 0..files {
                    path.truncate(dir);
                    let _ = write!(path, "{i:06}");
                    op(&md, &sim, &path).await?;
                }
                Ok::<(), DaosError>(())
            }
        })
        .collect();
    for r in join_all(sim, futs).await {
        r?;
    }
    Ok(sim.now() - t0)
}

/// The mdtest driver of every rung: `clients[r]` is rank `r`'s namespace
/// client. Each rank creates, stats, then unlinks `files_per_rank`
/// zero-byte files in its own directory.
pub async fn mdtest_ranks<M: MetaOps + Clone + 'static>(
    sim: &Sim,
    files_per_rank: u32,
    clients: Vec<M>,
) -> Result<MdtestReport, DaosError> {
    // setup: per-rank directories
    for (r, md) in clients.iter().enumerate() {
        md.mkdir(sim, &format!("/md.{r}")).await?;
    }
    let n = files_per_rank;
    Ok(MdtestReport {
        ranks: clients.len() as u32,
        files_per_rank,
        create_time: phase(sim, &clients, n, async |m: &M, s, p| m.create(s, p).await).await?,
        stat_time: phase(sim, &clients, n, async |m: &M, s, p| m.stat(s, p).await).await?,
        unlink_time: phase(sim, &clients, n, async |m: &M, s, p| m.unlink(s, p).await).await?,
    })
}

/// Run mdtest on a DAOS testbed, `ppn` ranks to a client node, every rank
/// through its node's mount of the layer `backend` names.
pub async fn mdtest(
    sim: &Sim,
    env: &Rc<DaosTestbed>,
    backend: MdBackend,
    ppn: u32,
    files_per_rank: u32,
) -> Result<MdtestReport, DaosError> {
    let per_rank = (0..env.client_nodes() * ppn).map(|r| env.node_of_rank(r, ppn) as usize);
    match backend {
        MdBackend::Dfs => {
            let clients = per_rank.map(|n| Rc::clone(&env.dfs[n])).collect();
            mdtest_ranks(sim, files_per_rank, clients).await
        }
        MdBackend::Dfuse => {
            let clients = per_rank.map(|n| Rc::clone(&env.dfuse[n])).collect();
            mdtest_ranks(sim, files_per_rank, clients).await
        }
    }
}
