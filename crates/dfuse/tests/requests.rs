//! DFuse's one request rule over a simulated cluster: every call through
//! the kernel — a metadata op, `fstat`, each `max_req`-aligned piece of a
//! `pread` / `pwrite` — is one counted FUSE request.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::Payload;

#[test]
fn every_kernel_crossing_is_one_counted_request() {
    let mut sim = Sim::new(0xF5);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let pool = DaosClient::new(Rc::clone(&cluster), 0)
            .connect(&sim)
            .await
            .unwrap();
        let cont = pool.open_or_create(&sim, 1).await.unwrap();
        let dfs = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
        let m = DfuseMount::new(dfs, DfuseConfig::default());
        let requests = || m.stats().fuse_requests;

        let f = m.open(&sim, "/f", OpenFlags::create()).await.unwrap();
        assert_eq!(requests(), 1, "open");
        // an unaligned 1 MiB write is cut at the 1 MiB boundary
        f.pwrite(&sim, 2048, Payload::pattern(7, MIB))
            .await
            .unwrap();
        assert_eq!(requests(), 3, "two pieces");
        f.pread(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(requests(), 5, "two aligned pieces");
        // fstat is a FUSE getattr: one request, crossing the kernel
        let before = sim.now();
        assert_eq!(f.size(&sim).await.unwrap(), MIB + 2048);
        assert_eq!(requests(), 6, "fstat");
        assert!(sim.now() - before >= m.config().kernel_crossing);
    });
}
