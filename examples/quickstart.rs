//! Quickstart: stand up a simulated DAOS system, store and fetch data
//! through every layer of the stack, and print what it cost in simulated
//! time.
//!
//! ```text
//! cargo run -p daos-tests --example quickstart
//! ```

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::units::{fmt_bytes, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

pub fn main() {
    let mut sim = Sim::new(7);
    sim.block_on(|sim| async move {
        // 1. a DAOS system: 2 servers x 1 engine, 4 targets each,
        //    1 client node — all simulated, including the RAFT pool service
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.expect("pool connect");
        println!("[{}] connected to pool", sim.now());

        // 2. the raw object API: a key-value object
        let cont = pool.create_container(&sim, 7).await.expect("container");
        let kv = cont.object(ObjectId::new(1, 1), ObjectClass::S1).kv();
        kv.put(
            &sim,
            "greeting",
            Payload::bytes(&b"hello, object store"[..]),
        )
        .await
        .unwrap();
        let v = kv.get(&sim, "greeting").await.unwrap().unwrap();
        println!(
            "[{}] kv round trip: {:?}",
            sim.now(),
            std::str::from_utf8(&v.materialize()).unwrap()
        );

        // 3. the array API: a striped 8 MiB object
        let arr = cont.object(ObjectId::new(1, 2), ObjectClass::SX).array(MIB);
        let t0 = sim.now();
        arr.write(&sim, 0, Payload::pattern(42, 8 * MIB))
            .await
            .unwrap();
        println!(
            "[{}] wrote {} via daos_array (SX) in {}",
            sim.now(),
            fmt_bytes(8 * MIB),
            sim.now() - t0
        );

        // 4. a filesystem on top: DFS + a DFuse POSIX mount
        let posix = pool.create_container(&sim, 8).await.expect("container");
        let dfs = Dfs::mount(&sim, posix, DfsConfig::default())
            .await
            .expect("dfs mount");
        let mount = DfuseMount::new(Rc::clone(&dfs), DfuseConfig::default());
        mount.mkdir(&sim, "/results").await.unwrap();
        let f = mount
            .open(&sim, "/results/run-001.dat", OpenFlags::create())
            .await
            .unwrap();
        let t0 = sim.now();
        f.pwrite(&sim, 0, Payload::pattern(1, 4 * MIB))
            .await
            .unwrap();
        println!(
            "[{}] wrote {} through the DFuse mount in {}",
            sim.now(),
            fmt_bytes(4 * MIB),
            sim.now() - t0
        );
        let back = f.pread_bytes(&sim, MIB, 1024).await.unwrap();
        assert_eq!(
            back,
            Payload::pattern(1, 4 * MIB).slice(MIB, 1024).materialize()[..]
        );
        println!(
            "[{}] read-back verified; stat: {:?}",
            sim.now(),
            mount.stat(&sim, "/results/run-001.dat").await.unwrap()
        );
        println!(
            "\ntotal simulated time {}, host events {}",
            sim.now(),
            sim.spawned_total()
        );
    });
}
