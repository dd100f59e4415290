//! The DAOS-side benchmark environment: cluster, per-node clients,
//! per-node DFS mounts and DFuse daemons, and an MPI world.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, ContainerHandle, DaosClient, DaosError, PoolHandle};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount};
use daos_fabric::NodeId;
use daos_mpi::MpiWorld;
use daos_sim::Sim;

/// Container id used by all benchmark runs.
pub const BENCH_CONT: u64 = 42;

/// Everything a benchmark process needs, wired to one cluster.
pub struct DaosTestbed {
    pub cluster: Rc<Cluster>,
    /// One connected client per client node.
    pub clients: Vec<DaosClient>,
    pub pools: Vec<PoolHandle>,
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
        let n = cluster_cfg.client_nodes;
        let mut clients = Vec::with_capacity(n as usize);
        let mut pools = Vec::with_capacity(n as usize);
        let mut containers = Vec::with_capacity(n as usize);
        let mut dfs = Vec::with_capacity(n as usize);
        let mut dfuse = Vec::with_capacity(n as usize);
        for i in 0..n {
            let client = DaosClient::new(Rc::clone(&cluster), i).salted(salt);
            let pool = client.connect(sim).await?;
            let cont = pool.open_or_create(sim, BENCH_CONT).await?;
            let fsm = Dfs::mount(sim, &pool, BENCH_CONT, dfs_cfg).await?;
            dfuse.push(DfuseMount::new(Rc::clone(&fsm), dfuse_cfg));
            dfs.push(fsm);
            containers.push(cont);
            pools.push(pool);
            clients.push(client);
        }
        Ok(Rc::new(DaosTestbed {
            cluster,
            clients,
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
