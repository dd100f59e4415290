//! Container-snapshot (epoch read) tests plus the new IOR option paths
//! (`-z` random offsets, `-C` reorder, stonewalling).

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::fault::FaultAction;
use daos_sim::time::SimDuration;
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::Payload;

#[test]
fn snapshot_isolates_from_later_overwrites() {
    let mut sim = Sim::new(0x5A9);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont.object(ObjectId::new(1, 1), ObjectClass::S2).array(MIB);

        let v1 = Payload::pattern(1, 2 * MIB);
        arr.write(&sim, 0, v1.clone()).await.unwrap();
        let snap = cont.snapshot(&sim).await.unwrap();

        let v2 = Payload::pattern(2, 2 * MIB);
        arr.write(&sim, 0, v2.clone()).await.unwrap();

        // latest sees v2
        let latest = arr.read_bytes(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(latest, v2.materialize().to_vec());

        // the snapshot still sees v1, byte for byte
        let segs = arr.read_at_epoch(&sim, 0, 2 * MIB, snap).await.unwrap();
        let got = daos_mpiio::assemble(&segs, 0, 2 * MIB).materialize();
        assert_eq!(got.to_vec(), v1.materialize().to_vec());
    });
}

/// Four engines of four targets: room for a 2+1 stripe or a replica pair
/// on distinct engines.
fn four_engines() -> ClusterConfig {
    ClusterConfig {
        server_nodes: 4,
        ..ClusterConfig::tiny(1)
    }
}

/// A snapshot read of an EC object serves every data cell from the shard
/// that holds it: a 1 MiB chunk is two 512 KiB cells on two shards, and
/// the second must not come back as a hole.
#[test]
fn snapshot_reads_every_cell_of_an_ec_chunk() {
    let mut sim = Sim::new(0x5AD);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, four_engines());
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let class = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: Some(1),
        };
        let arr = cont.object(ObjectId::new(5, 5), class).array(MIB);
        let (v1, v2) = (Payload::pattern(1, MIB), Payload::pattern(2, MIB));
        arr.write(&sim, 0, v1.clone()).await.unwrap();
        let snap = cont.snapshot(&sim).await.unwrap();
        arr.write(&sim, 0, v2.clone()).await.unwrap();

        let segs = arr.read_at_epoch(&sim, 0, MIB, snap).await.unwrap();
        let got = daos_mpiio::assemble(&segs, 0, MIB).materialize();
        assert!(got[..] == v1.materialize()[..], "the snapshot reads v1");
        let latest = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert!(
            latest[..] == v2.materialize()[..],
            "the latest read sees v2"
        );
    });
}

/// A snapshot read of a replicated object fails over like a latest read:
/// with the first replica's engine crashed and excluded, the second
/// replica serves the snapshot's bytes.
#[test]
fn snapshot_read_fails_over_to_the_second_replica() {
    let mut sim = Sim::new(0x5AE);
    sim.block_on(|sim| async move {
        let cfg = four_engines();
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let tpe = cfg.targets_per_engine;
        // an object whose first replica is not on the pool service's engine
        let (obj, first) = (6..)
            .map(|lo| cont.object(ObjectId::new(6, lo), ObjectClass::RP_2GX))
            .map(|obj| {
                let first = obj.layout().target_of(0);
                (obj, first)
            })
            .find(|&(_, first)| first / tpe != 0)
            .unwrap();
        let arr = obj.array(MIB);
        let (v1, v2) = (Payload::pattern(3, MIB), Payload::pattern(4, MIB));
        arr.write(&sim, 0, v1.clone()).await.unwrap();
        let snap = cont.snapshot(&sim).await.unwrap();
        arr.write(&sim, 0, v2).await.unwrap();

        let engine = first / tpe;
        cluster.apply_fault(
            &sim,
            FaultAction::Crash {
                node: engine as usize,
            },
        );
        for t in engine * tpe..(engine + 1) * tpe {
            cluster.exclude_target(t);
        }
        let segs = arr.read_at_epoch(&sim, 0, MIB, snap).await.unwrap();
        let got = daos_mpiio::assemble(&segs, 0, MIB).materialize();
        assert!(got[..] == v1.materialize()[..], "the second replica's v1");
    });
}

#[test]
fn snapshot_of_unwritten_region_is_empty() {
    let mut sim = Sim::new(0x5AA);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont.object(ObjectId::new(2, 2), ObjectClass::S1).array(MIB);
        // snapshot taken before any writes
        let snap = cont.snapshot(&sim).await.unwrap();
        arr.write(&sim, 0, Payload::pattern(9, MIB)).await.unwrap();
        let segs = arr.read_at_epoch(&sim, 0, MIB, snap).await.unwrap();
        assert!(
            segs.iter().all(|s| s.data.is_none()),
            "pre-snapshot reads must see holes"
        );
    });
}

#[test]
fn snapshots_are_monotone() {
    let mut sim = Sim::new(0x5AB);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont.object(ObjectId::new(3, 3), ObjectClass::SX).array(MIB);
        let mut last = 0;
        for i in 0..4u64 {
            arr.write(&sim, i * MIB, Payload::pattern(i, MIB))
                .await
                .unwrap();
            let s = cont.snapshot(&sim).await.unwrap();
            assert!(s > last, "snapshot epochs must advance: {s} after {last}");
            last = s;
        }
    });
}

mod ior_options {
    use super::*;
    use daos_dfs::DfsConfig;
    use daos_dfuse::DfuseConfig;
    use daos_ior::{run, Api, DaosTestbed, IorParams};
    use daos_sim::units::KIB;

    fn params() -> IorParams {
        IorParams {
            api: Api::Dfs,
            transfer_size: 256 * KIB,
            block_size: MIB,
            segments: 2,
            file_per_process: true,
            ppn: 2,
            oclass: ObjectClass::S2,
            chunk_size: MIB,
            verify: true,
            do_write: true,
            do_read: true,
            random_offsets: false,
            reorder_read: false,
            stonewall: None,
        }
    }

    fn run_with(p: IorParams) -> daos_ior::IorReport {
        let mut sim = Sim::new(0x0905);
        sim.block_on(move |sim| async move {
            let env = DaosTestbed::setup(
                &sim,
                ClusterConfig::tiny(2),
                DfsConfig::default(),
                DfuseConfig::default(),
            )
            .await
            .unwrap();
            run(&sim, &env, p).await.unwrap()
        })
    }

    #[test]
    fn random_offsets_verify_clean() {
        let mut p = params();
        p.random_offsets = true;
        let r = run_with(p);
        assert_eq!(r.bytes_written, r.total_bytes);
        assert_eq!(r.bytes_read, r.total_bytes);
    }

    #[test]
    fn reorder_read_verifies_neighbours_data() {
        // -C only makes sense for the shared file in our model (fpp read
        // contexts are per-rank files); shared-file reorder must verify
        let mut p = params();
        p.file_per_process = false;
        p.reorder_read = true;
        let r = run_with(p);
        assert_eq!(r.bytes_read, r.total_bytes);
    }

    #[test]
    fn stonewall_caps_the_write_phase() {
        let mut p = params();
        p.verify = false;
        p.block_size = 8 * MIB;
        p.stonewall = Some(SimDuration::from_us(500));
        let r = run_with(p);
        assert!(
            r.bytes_written < r.total_bytes,
            "stonewall must cut the phase short ({} of {})",
            r.bytes_written,
            r.total_bytes
        );
        assert!(r.bytes_written > 0, "something must be written");
        // bandwidth uses moved bytes, so it stays sane
        assert!(r.write_gib_s() > 0.0 && r.write_gib_s() < 60.0);
    }
}

#[test]
fn background_aggregation_reclaims_overwrite_history() {
    let mut sim = Sim::new(0xA66);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont.object(ObjectId::new(9, 9), ObjectClass::S1).array(MIB);
        // hammer one region with overwrites
        for i in 0..50u64 {
            arr.write(&sim, 0, Payload::pattern(i, MIB)).await.unwrap();
        }
        let latest = Payload::pattern(49, MIB);
        // let the background service pass its retention horizon
        sim.sleep(SimDuration::from_secs(12)).await;
        let reclaimed: u64 = cluster
            .engines()
            .iter()
            .map(|e| e.extents_reclaimed())
            .sum();
        assert!(
            reclaimed >= 40,
            "aggregation should reclaim shadowed extents, got {reclaimed}"
        );
        // and the visible data is untouched
        let got = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert_eq!(got, latest.materialize().to_vec());
    });
}

#[test]
fn snapshot_read_torn_in_flight_is_a_corrupt_frame() {
    let mut sim = Sim::new(0x5AC);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont.object(ObjectId::new(4, 4), ObjectClass::S1).array(MIB);
        arr.write(&sim, 0, Payload::pattern(3, MIB)).await.unwrap();
        let snap = cont.snapshot(&sim).await.unwrap();
        // every frame the serving engine sends from now on is torn
        let engine = arr.object().layout().target_of(0) / cluster.cfg.targets_per_engine;
        cluster.engine(engine).set_corrupt_inflight(1_000_000);
        // a torn frame is retryable: it surfaces once the policy's rounds
        // have all been torn too
        let got = arr.read_at_epoch(&sim, 0, MIB, snap).await;
        assert_eq!(got, Err(DaosError::CorruptFrame));
    });
}
