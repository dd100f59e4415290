//! DFS metadata rides the client's retry loop like file data does: every
//! dirent `get` / `put` and every object-wide op has a deadline, retries
//! sheds and timeouts with backoff, and re-places its object once the pool
//! map moves. So a namespace op under overload, after an engine is lost,
//! or behind a partition either succeeds or returns a typed error — it
//! never fails on a first `Busy`, keeps addressing an excluded engine, or
//! hangs.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError, RetryPolicy};
use daos_dfs::{Dfs, DfsConfig, EntryKind};
use daos_placement::ObjectClass;
use daos_sim::executor::join_all;
use daos_sim::fault::{timeout, FaultAction};
use daos_sim::time::SimDuration;
use daos_sim::units::KIB;
use daos_sim::Sim;

/// Four engines of four targets; the pool service is on engine 0.
fn four_engines() -> ClusterConfig {
    ClusterConfig {
        server_nodes: 4,
        ..ClusterConfig::tiny(1)
    }
}

async fn mount(sim: &Sim, cluster: &Rc<Cluster>, retry: RetryPolicy) -> Rc<Dfs> {
    let client = DaosClient::new(Rc::clone(cluster), 0).with_retry(retry);
    let pool = client.connect(sim).await.unwrap();
    let cont = pool.open_or_create(sim, 1).await.unwrap();
    Dfs::mount(sim, cont, DfsConfig::default()).await.unwrap()
}

/// The engine holding the entries of the directory at `path`.
async fn dirent_engine(sim: &Sim, fs: &Dfs, path: &str) -> u32 {
    let dir = fs.lookup(sim, path).await.unwrap().unwrap();
    let layout = fs.container().object(dir.oid, dir.class).layout();
    layout.target_of(0) / fs.container().client().cluster().cfg.targets_per_engine
}

/// Make directories `/d0`, `/d1`, … until one keeps its entries on an
/// engine other than the pool service's and the root directory's; returns
/// its path and that engine.
async fn dir_off_the_service(sim: &Sim, fs: &Dfs) -> (String, u32) {
    let root = dirent_engine(sim, fs, "/").await;
    for i in 0.. {
        let path = format!("/d{i}");
        fs.mkdir(sim, &path).await.unwrap();
        let engine = dirent_engine(sim, fs, &path).await;
        if engine != 0 && engine != root {
            return (path, engine);
        }
    }
    unreachable!()
}

/// With every xstream queue capped at one request, 64 creates racing into
/// one directory are shed again and again — and every one still lands.
#[test]
fn concurrent_creates_ride_out_a_queue_cap_of_one() {
    let mut sim = Sim::new(0xDA1);
    sim.block_on(|sim| async move {
        let mut cfg = four_engines();
        cfg.engine.queue_cap = Some(1);
        let cluster = Cluster::build(&sim, cfg);
        let fs = mount(&sim, &cluster, RetryPolicy::default()).await;
        fs.mkdir(&sim, "/many").await.unwrap();
        let creates = (0..64).map(|i| {
            let (fs, sim) = (Rc::clone(&fs), sim.clone());
            async move {
                let path = format!("/many/f{i}");
                fs.create(&sim, &path, ObjectClass::S1, 64 * KIB).await
            }
        });
        for created in join_all(&sim, creates.collect()).await {
            created.unwrap();
        }
        assert_eq!(fs.readdir(&sim, "/many").await.unwrap().len(), 64);
        let seen = fs.container().client().damp_stats().sheds_seen;
        assert!(seen > 0, "the queue cap must have shed some dirent RPCs");
    });
}

/// Once the engine holding a directory's entries is crashed and the pool
/// service has excluded it, the directory object is re-placed on a live
/// target after the first timed-out attempt: new entries can be created,
/// stat'ed and unlinked there (the old ones are lost with their unprotected
/// shard). The client's map cache is left stale on purpose: only the retry
/// loop's own refresh can move it.
#[test]
fn a_lost_dirent_shard_is_re_placed_once_the_map_moves() {
    let mut sim = Sim::new(0xDA2);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, four_engines());
        let tight = RetryPolicy {
            rpc_timeout: SimDuration::from_ms(2),
            ..RetryPolicy::default()
        };
        let fs = mount(&sim, &cluster, tight).await;
        let (dir, engine) = dir_off_the_service(&sim, &fs).await;

        let version = cluster.pool_map().version();
        let node = engine as usize;
        cluster.apply_fault(&sim, FaultAction::Crash { node });
        while cluster.replicas()[0].state().map_version == version {
            sim.sleep_ms(1).await;
        }
        assert_eq!(cluster.pool_map().version(), version, "the cache is stale");

        let file = format!("{dir}/after");
        fs.create(&sim, &file, ObjectClass::S1, 64 * KIB)
            .await
            .unwrap();
        assert!(cluster.pool_map().version() > version, "the map moved");
        assert_ne!(dirent_engine(&sim, &fs, &dir).await, engine);
        let stat = fs.stat(&sim, &file).await.unwrap();
        assert_eq!((stat.kind, stat.size), (EntryKind::File, 0));
        fs.unlink(&sim, &file).await.unwrap();
        assert!(fs.lookup(&sim, &file).await.unwrap().is_none());
    });
}

/// Behind a partition that never heals, each namespace op — and a
/// container snapshot, which must reach every engine — spends the default
/// policy's rounds and returns the typed `Timeout`, well inside a minute.
#[test]
fn a_partition_that_never_heals_times_out_every_op() {
    let mut sim = Sim::new(0xDA3);
    sim.block_on(|sim| async move {
        let mut cfg = four_engines();
        // park the failure detector: nothing but the partition moves
        cfg.heartbeat.interval = SimDuration::from_secs(3600);
        let cluster = Cluster::build(&sim, cfg);
        let retry = RetryPolicy::default();
        let fs = mount(&sim, &cluster, retry).await;
        let (dir, engine) = dir_off_the_service(&sim, &fs).await;
        let old = format!("{dir}/old");
        fs.create(&sim, &old, ObjectClass::S1, 64 * KIB)
            .await
            .unwrap();

        let (a, b) = (cluster.client_node(0), engine as usize);
        cluster.apply_fault(&sim, FaultAction::Partition { a, b });
        let new = format!("{dir}/new");
        let minute = SimDuration::from_secs(60);
        let rounds = SimDuration::from_ns(retry.rpc_timeout.as_ns() * retry.max_attempts as u64);
        let outcomes = [
            timeout(&sim, minute, fs.mkdir(&sim, &format!("{dir}/sub"))).await,
            timeout(&sim, minute, async {
                fs.create(&sim, &new, ObjectClass::S1, KIB).await.map(drop)
            })
            .await,
            timeout(&sim, minute, async { fs.stat(&sim, &old).await.map(drop) }).await,
            timeout(&sim, minute, fs.unlink(&sim, &old)).await,
            timeout(&sim, minute, async {
                fs.container().snapshot(&sim).await.map(drop)
            })
            .await,
        ];
        for (i, outcome) in outcomes.into_iter().enumerate() {
            assert_eq!(outcome, Some(Err(DaosError::Timeout)), "op {i}");
        }
        assert!(sim.now().as_ns() >= 5 * rounds.as_ns(), "every op retried");
    });
}
