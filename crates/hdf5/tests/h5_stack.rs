//! HDF5-over-the-full-stack integration tests: the mini library writing
//! through DFuse into a simulated cluster, with byte-exact read-back of
//! contiguous datasets, metadata accounting, and the unaligned data-offset
//! property that drives the paper's Figure 1 HDF5 result.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_hdf5::{H5Config, H5File, H5Vfd, Layout, OBJ_HEADER, SUPERBLOCK};
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::Payload;

async fn mount(sim: &Sim) -> Rc<DfuseMount> {
    let cluster = Cluster::build(sim, ClusterConfig::tiny(1));
    let client = DaosClient::new(cluster, 0);
    let pool = client.connect(sim).await.unwrap();
    let cont = pool.open_or_create(sim, 1).await.unwrap();
    let dfs = Dfs::mount(sim, cont, DfsConfig::default()).await.unwrap();
    DfuseMount::new(dfs, DfuseConfig::default())
}

#[test]
fn contiguous_dataset_round_trip() {
    let mut sim = Sim::new(0x115);
    sim.block_on(|sim| async move {
        let m = mount(&sim).await;
        let f = m.open(&sim, "/a.h5", OpenFlags::create()).await.unwrap();
        let h5 = H5File::create(&sim, H5Vfd::Sec2(Box::new(f)), H5Config::default())
            .await
            .unwrap();
        let ds = h5
            .create_dataset(&sim, "data", 2 * MIB, Layout::Contiguous)
            .await
            .unwrap();
        let payload = Payload::pattern(5, 2 * MIB);
        ds.write(&sim, 0, payload.clone()).await.unwrap();
        let got = ds.read_bytes(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(got, payload.materialize().to_vec());
        // partial read at an odd offset
        let got = ds.read_bytes(&sim, 12345, 1000).await.unwrap();
        assert_eq!(got, payload.slice(12345, 1000).materialize().to_vec());
        h5.flush(&sim).await.unwrap();
    });
}

#[test]
fn dataset_data_is_unaligned_in_the_file() {
    let mut sim = Sim::new(0x116);
    sim.block_on(|sim| async move {
        let m = mount(&sim).await;
        let f = m.open(&sim, "/b.h5", OpenFlags::create()).await.unwrap();
        let h5 = H5File::create(&sim, H5Vfd::Sec2(Box::new(f)), H5Config::default())
            .await
            .unwrap();
        let ds = h5
            .create_dataset(&sim, "data", MIB, Layout::Contiguous)
            .await
            .unwrap();
        assert_eq!(ds.data_offset(), SUPERBLOCK + 2 * OBJ_HEADER);
        assert_ne!(
            ds.data_offset() % (1 << 20),
            0,
            "IOR does not set H5Pset_alignment: data must start unaligned"
        );
    });
}

#[test]
fn metadata_writes_happen_at_create_and_flush() {
    let mut sim = Sim::new(0x118);
    sim.block_on(|sim| async move {
        let m = mount(&sim).await;
        let f = m.open(&sim, "/d.h5", OpenFlags::create()).await.unwrap();
        let h5 = H5File::create(&sim, H5Vfd::Sec2(Box::new(f)), H5Config::default())
            .await
            .unwrap();
        // create: superblock + root header
        assert_eq!(h5.meta_write_count(), 2);
        let ds = h5
            .create_dataset(&sim, "data", MIB, Layout::Contiguous)
            .await
            .unwrap();
        assert_eq!(h5.meta_write_count(), 3);
        // data writes only dirty the cache...
        ds.write(&sim, 0, Payload::pattern(9, MIB)).await.unwrap();
        assert_eq!(h5.meta_write_count(), 3);
        // ...until flush pushes the dirty header + superblock
        h5.flush(&sim).await.unwrap();
        assert_eq!(h5.meta_write_count(), 5);
        // idempotent: clean cache, nothing more to write
        h5.flush(&sim).await.unwrap();
        assert_eq!(h5.meta_write_count(), 5);
    });
}

#[test]
fn two_datasets_do_not_overlap() {
    let mut sim = Sim::new(0x11A);
    sim.block_on(|sim| async move {
        let m = mount(&sim).await;
        let f = m.open(&sim, "/f.h5", OpenFlags::create()).await.unwrap();
        let h5 = H5File::create(&sim, H5Vfd::Sec2(Box::new(f)), H5Config::default())
            .await
            .unwrap();
        let a = h5
            .create_dataset(&sim, "a", MIB, Layout::Contiguous)
            .await
            .unwrap();
        let b = h5
            .create_dataset(&sim, "b", MIB, Layout::Contiguous)
            .await
            .unwrap();
        let pa = Payload::pattern(100, MIB);
        let pb = Payload::pattern(200, MIB);
        a.write(&sim, 0, pa.clone()).await.unwrap();
        b.write(&sim, 0, pb.clone()).await.unwrap();
        assert_eq!(
            a.read_bytes(&sim, 0, MIB).await.unwrap(),
            pa.materialize()[..]
        );
        assert_eq!(
            b.read_bytes(&sim, 0, MIB).await.unwrap(),
            pb.materialize()[..]
        );
        assert!(b.data_offset() >= a.data_offset() + MIB);
    });
}
