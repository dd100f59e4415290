//! The DAOS-side benchmark environment: cluster, per-node clients,
//! per-node DFS mounts and DFuse daemons, and an MPI world.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, ContainerHandle, DaosClient, DaosError, PoolHandle};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount};
use daos_fabric::NodeId;
use daos_mpi::MpiWorld;
use daos_sim::executor::join_all;
use daos_sim::Sim;

/// Container id used by all benchmark runs.
pub const BENCH_CONT: u64 = 42;

/// Everything a benchmark process needs, wired to one cluster.
pub struct DaosTestbed {
    pub cluster: Rc<Cluster>,
    /// One connected client per client node.
    pub clients: Vec<DaosClient>,
    pub pools: Vec<PoolHandle>,
    /// The container handle each client node opened; `dfs[i]` is mounted
    /// on `containers[i]`.
    pub containers: Vec<ContainerHandle>,
    /// One DFS mount per client node.
    pub dfs: Vec<Rc<Dfs>>,
    /// One DFuse daemon per client node; an interception-library run
    /// opens its files here too ([`crate::Intercepted`]).
    pub dfuse: Vec<Rc<DfuseMount>>,
}

impl DaosTestbed {
    /// Build the cluster and mount everything on every client node.
    pub async fn setup(
        sim: &Sim,
        cluster_cfg: ClusterConfig,
        dfs_cfg: DfsConfig,
        dfuse_cfg: DfuseConfig,
    ) -> Result<Rc<DaosTestbed>, DaosError> {
        Self::setup_salted(sim, cluster_cfg, dfs_cfg, dfuse_cfg, 0).await
    }

    /// Like [`DaosTestbed::setup`], with an iteration salt that shifts every
    /// client's object-ID space ([`DaosClient::salted`]) — and therefore
    /// every file's and array's placement — so repeated runs average over
    /// placements like IOR `-i` iterations.
    pub async fn setup_salted(
        sim: &Sim,
        cluster_cfg: ClusterConfig,
        dfs_cfg: DfsConfig,
        dfuse_cfg: DfuseConfig,
        salt: u64,
    ) -> Result<Rc<DaosTestbed>, DaosError> {
        let cluster = Cluster::build(sim, cluster_cfg);
        // one node's bring-up: connect, open the container, mount DFS on
        // that handle and start DFuse on that mount
        let up = |i| {
            let (sim, cluster) = (sim.clone(), Rc::clone(&cluster));
            async move {
                let pool = DaosClient::new(cluster, i)
                    .salted(salt)
                    .connect(&sim)
                    .await?;
                let cont = pool.open_or_create(&sim, BENCH_CONT).await?;
                let fsm = Dfs::mount(&sim, cont, dfs_cfg).await?;
                Ok::<_, DaosError>((pool, DfuseMount::new(fsm, dfuse_cfg)))
            }
        };
        // node 0 creates the container and formats its superblock, as
        // `daos cont create --type POSIX` does before a job; then every
        // other node comes up at once, as IOR's ranks start together
        let n = cluster_cfg.client_nodes;
        let first = if n > 0 { Some(up(0).await?) } else { None };
        let rest = join_all(sim, (1..n).map(up).collect()).await;
        let nodes = first.into_iter().map(Ok).chain(rest);
        let (pools, dfuse): (Vec<_>, Vec<_>) = nodes.collect::<Result<_, _>>()?;
        let dfs: Vec<Rc<Dfs>> = dfuse.iter().map(|m| Rc::clone(m.dfs())).collect();
        let containers: Vec<_> = dfs.iter().map(|fs| fs.container().clone()).collect();
        Ok(Rc::new(DaosTestbed {
            cluster,
            clients: containers.iter().map(|c| c.client().clone()).collect(),
            pools,
            containers,
            dfs,
            dfuse,
        }))
    }

    /// Client nodes in this testbed.
    pub fn client_nodes(&self) -> u32 {
        self.cluster.cfg.client_nodes
    }

    /// Build an MPI world with `ppn` ranks per client node.
    pub fn mpi_world(&self, ppn: u32) -> Rc<MpiWorld> {
        let nodes: Vec<NodeId> = (0..self.client_nodes() * ppn)
            .map(|r| self.cluster.client_node(r / ppn))
            .collect();
        MpiWorld::new(Rc::clone(&self.cluster.fabric), nodes)
    }

    /// The client node hosting `rank` at `ppn` ranks per node.
    pub fn node_of_rank(&self, rank: u32, ppn: u32) -> u32 {
        rank / ppn
    }
}
