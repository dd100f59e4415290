//! The setup census: bringing a testbed up costs a bounded stretch of
//! simulated time and a bounded number of engine RPCs per client node,
//! whatever the width. Node 0 creates the container and formats the DFS
//! superblock; then every other node connects, opens the container,
//! mounts DFS on that handle and starts DFuse, all at once, as IOR's ranks
//! start together. A bring-up that handles one node after another pays
//! every node's control round trips in series, and every engine's
//! background traffic (heartbeats, raft ticks) for all that time: its
//! clock and its RPCs per node grow with the width.
//!
//! RPCs are counted as `Endpoint::call_count` summed over the engines:
//! the bring-up's own control and superblock calls plus whatever the
//! engines send each other meanwhile.

use std::rc::Rc;

use daos_bench::figures::scale_cluster;
use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::DfuseConfig;
use daos_ior::daos_env::BENCH_CONT;
use daos_ior::DaosTestbed;
use daos_sim::Sim;

/// Widest simulated setup allowed, in seconds.
const MAX_SETUP_S: f64 = 0.5;
/// Most engine RPCs allowed per client node.
const MAX_RPCS_PER_NODE: f64 = 32.0;

/// What a bring-up cost: simulated seconds to the last mount, and engine
/// RPCs per client node.
#[derive(Debug)]
struct Census {
    setup_s: f64,
    rpcs_per_node: f64,
}

impl Census {
    fn within_bounds(&self) -> bool {
        self.setup_s <= MAX_SETUP_S && self.rpcs_per_node <= MAX_RPCS_PER_NODE
    }
}

/// Engine RPCs issued so far on `cluster`.
fn engine_rpcs(cluster: &Cluster) -> u64 {
    let engines = cluster.engines().iter();
    engines.map(|e| e.endpoint().call_count()).sum()
}

/// The testbed's own bring-up on `scale_cluster(nodes)`.
fn testbed_census(nodes: u32) -> Census {
    let mut sim = Sim::new(0x5E7);
    sim.block_on(move |sim| async move {
        let cfg = scale_cluster(nodes);
        let env = DaosTestbed::setup(&sim, cfg, DfsConfig::default(), DfuseConfig::default())
            .await
            .unwrap();
        assert_eq!(env.dfs.len(), nodes as usize);
        Census {
            setup_s: sim.now().as_secs_f64(),
            rpcs_per_node: engine_rpcs(&env.cluster) as f64 / nodes as f64,
        }
    })
}

/// Planted negative: the same steps, one node after another.
async fn sequential(sim: &Sim, cfg: ClusterConfig) -> Result<Rc<Cluster>, DaosError> {
    let cluster = Cluster::build(sim, cfg);
    for i in 0..cfg.client_nodes {
        let pool = DaosClient::new(Rc::clone(&cluster), i).connect(sim).await?;
        let cont = pool.open_or_create(sim, BENCH_CONT).await?;
        Dfs::mount(sim, cont, DfsConfig::default()).await?;
    }
    Ok(cluster)
}

#[test]
fn setup_is_bounded_at_every_width() {
    for nodes in [16, 64, 256] {
        let census = testbed_census(nodes);
        assert!(census.within_bounds(), "{nodes} client nodes: {census:?}");
    }
}

#[test]
fn a_sequential_bring_up_fails_both_bounds() {
    let mut sim = Sim::new(0x5E7);
    let census = sim.block_on(|sim| async move {
        let cluster = sequential(&sim, scale_cluster(64)).await.unwrap();
        Census {
            setup_s: sim.now().as_secs_f64(),
            rpcs_per_node: engine_rpcs(&cluster) as f64 / 64.0,
        }
    });
    assert!(census.setup_s > MAX_SETUP_S, "{census:?}");
    assert!(census.rpcs_per_node > MAX_RPCS_PER_NODE, "{census:?}");
}

/// A cluster without client nodes sets up an empty testbed.
#[test]
fn zero_client_nodes_set_up_an_empty_testbed() {
    let mut sim = Sim::new(0x5E7);
    let env = sim.block_on(|sim| async move {
        let cfg = scale_cluster(0);
        DaosTestbed::setup(&sim, cfg, DfsConfig::default(), DfuseConfig::default())
            .await
            .unwrap()
    });
    assert_eq!(env.client_nodes(), 0);
    assert!(env.clients.is_empty() && env.dfs.is_empty() && env.dfuse.is_empty());
}
