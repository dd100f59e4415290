//! Object IDs come from one allocator: each client's sequence, which every
//! container handle the client opens draws from, keyed by its client node
//! and by the testbed's repeat salt (`DaosTestbed::setup_salted`). DFS
//! files and the native IOR arrays both take their IDs there.

use std::rc::Rc;

use daos_bench::figures::FIG1_SEED;
use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{run, run_files, Api, DaosTestbed, IorParams};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;

async fn testbed(sim: &Sim, cluster: ClusterConfig, salt: u64) -> Rc<DaosTestbed> {
    let (dfs, dfuse) = (DfsConfig::default(), DfuseConfig::default());
    DaosTestbed::setup_salted(sim, cluster, dfs, dfuse, salt)
        .await
        .expect("testbed")
}

fn distinct(ids: &[ObjectId]) -> bool {
    let mut sorted = ids.to_vec();
    sorted.sort_by_key(|o| (o.hi, o.lo));
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// DFS files (through the mount's container handle) and native arrays
/// (through the testbed's own handle on the same container) opened on one
/// client node never share an ID.
#[test]
fn dfs_files_and_native_arrays_on_one_node_never_share_an_id() {
    let mut sim = Sim::new(0x01D5);
    let ids = sim.block_on(|sim| async move {
        let env = testbed(&sim, ClusterConfig::tiny(1), 0).await;
        let (fs, cont) = (&env.dfs[0], &env.containers[0]);
        let mut ids = Vec::new();
        for i in 0..4 {
            let path = format!("/f{i}");
            let file = fs.create(&sim, &path, ObjectClass::S1, MIB).await.unwrap();
            ids.push(file.oid());
            let array = cont.object(cont.allocate_oid(), ObjectClass::S1).array(MIB);
            ids.push(array.object().oid());
        }
        fs.mkdir(&sim, "/d").await.unwrap();
        ids.push(fs.lookup(&sim, "/d").await.unwrap().unwrap().oid);
        ids
    });
    assert_eq!(ids.len(), 9);
    assert!(distinct(&ids), "{ids:?}");
}

/// Planted negative: a sequence per container handle. Two handles on one
/// node, each with its own counter (two clients of node 0), hand out the
/// same IDs.
#[test]
fn per_handle_counters_would_collide() {
    let mut sim = Sim::new(0x01D6);
    let ids = sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let mut ids = Vec::new();
        for _ in 0..2 {
            let pool = DaosClient::new(Rc::clone(&cluster), 0).connect(&sim).await;
            let cont = pool.unwrap().open_or_create(&sim, 1).await.unwrap();
            ids.extend((0..3).map(|_| cont.allocate_oid()));
        }
        ids
    });
    assert!(!distinct(&ids), "{ids:?}");
}

fn native_params() -> IorParams {
    IorParams {
        transfer_size: 256 * KIB,
        block_size: MIB,
        ..IorParams::paper_default(Api::DaosArray, ObjectClass::S1, true, 2)
    }
}

/// Bytes written to each target of `env`, engine by engine.
fn footprint(env: &DaosTestbed) -> Vec<u64> {
    let engines = env.cluster.engines().iter();
    let targets = engines.flat_map(|e| (0..e.target_count()).map(|t| Rc::clone(e.target(t))));
    targets.map(|t| t.counters().bytes_written).collect()
}

/// The native path's per-target footprint at each of two salts, rank
/// `r`'s array opened at `oid(r)` (`None`: by the IOR runner itself).
fn footprints(oid: Option<fn(u32) -> ObjectId>) -> [Vec<u64>; 2] {
    [0, 1].map(|salt| {
        let mut sim = Sim::new(0x01D7);
        sim.block_on(move |sim| async move {
            let env = testbed(&sim, ClusterConfig::nextgenio(2), salt).await;
            let params = native_params();
            match oid {
                None => drop(run(&sim, &env, params).await.unwrap()),
                Some(oid) => {
                    let files = (0..2 * params.ppn).map(|r| {
                        let cont = &env.containers[env.node_of_rank(r, params.ppn) as usize];
                        cont.object(oid(r), params.oclass).array(params.chunk_size)
                    });
                    run_files(&sim, 2, params, files.collect()).await.unwrap();
                }
            }
            footprint(&env)
        })
    })
}

/// Two repeat salts give the native IOR path two layouts: its S1 arrays
/// land on other targets.
#[test]
fn two_salts_place_the_native_path_apart() {
    let [a, b] = footprints(None);
    assert!(a.iter().sum::<u64>() >= 4 * MIB);
    assert_ne!(a, b);
}

/// Planted negative: the fixed IDs the native path once opened
/// (`0xBEEF`, 100 + rank) write the same targets at every salt.
#[test]
fn fixed_native_ids_ignore_the_salt() {
    let [a, b] = footprints(Some(|r| ObjectId::new(0xBEEF, 100 + r as u64)));
    assert!(a.iter().sum::<u64>() >= 4 * MIB);
    assert_eq!(a, b);
}

/// Each client node's DFS IDs at repeat salts 0, 1 and `FIG1_SEED ^ 7`
/// (the salt `benchmark/`'s `ior_hard_hdf5` runs at `--seed 7`): a file,
/// a directory and a file in it. Every salted run's placements, the
/// committed reports' and the benchmark's, follow from these values.
#[test]
fn testbed_dfs_ids_keep_their_values() {
    // per salt, each node's high word; the low words run 0x12, 0x14, 0x16
    const WANT: [(u64, [u64; 2]); 3] = [
        (0, [0x1d0, 0x1d1]),
        (1, [0x9e37_79b9_7f4a_7de5, 0x9e37_79b9_7f4a_7de6]),
        (
            FIG1_SEED ^ 7,
            [0x43b2_20bd_d67d_372e, 0x43b2_20bd_d67d_372f],
        ),
    ];
    for (salt, his) in WANT {
        let mut sim = Sim::new(1);
        sim.block_on(move |sim| async move {
            let env = testbed(&sim, ClusterConfig::tiny(2), salt).await;
            for ((i, fs), hi) in env.dfs.iter().enumerate().zip(his) {
                let (dir, s1) = (format!("/d{i}"), ObjectClass::S1);
                let a = fs.create(&sim, &format!("/f{i}"), s1, MIB).await.unwrap();
                fs.mkdir(&sim, &dir).await.unwrap();
                let d = fs.lookup(&sim, &dir).await.unwrap().unwrap();
                let b = fs.create(&sim, &format!("{dir}/g"), s1, MIB).await.unwrap();
                let want = [0x12, 0x14, 0x16].map(|lo| ObjectId::new(hi, lo));
                assert_eq!([a.oid(), d.oid, b.oid()], want, "salt {salt:#x} node {i}");
            }
        });
    }
}
