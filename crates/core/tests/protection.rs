//! Data-protection tests: replicated (RP_n) and erasure-coded (EC_k+p)
//! object classes — DAOS's "advanced data protection" (paper §II) — with
//! write fan-out, degraded reads over excluded targets, and XOR
//! reconstruction verified byte-for-byte.

use std::rc::Rc;

use daos_core::proto::{array_akey, chunk_dkey, wire_csum};
use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError, Request};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

fn testbed() -> (Sim, ClusterConfig) {
    (
        Sim::new(0x9107EC7),
        ClusterConfig {
            server_nodes: 4,
            engines_per_node: 1,
            targets_per_engine: 4,
            ..ClusterConfig::tiny(1)
        },
    )
}

#[test]
fn replicated_write_fans_out_and_reads_back() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont
            .object(ObjectId::new(2, 2), ObjectClass::RP_3G1)
            .array(256 * KIB);
        let data = Payload::pattern(11, MIB);
        arr.write(&sim, 0, data.clone()).await.unwrap();
        // 3-way replication: media sees 3x the application bytes
        assert_eq!(
            cluster.total_bytes_written(),
            3 * MIB,
            "RP_3 must write every replica"
        );
        let got = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert_eq!(got, data.materialize().to_vec());
    });
}

#[test]
fn replicated_read_survives_target_exclusions() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let obj = cont.object(ObjectId::new(3, 3), ObjectClass::RP_3G1);
        let arr = obj.array(256 * KIB);
        let data = Payload::pattern(12, MIB);
        arr.write(&sim, 0, data.clone()).await.unwrap();
        // kill two of the three replica targets: reads must still succeed
        let shards: Vec<_> = obj.layout().targets().collect();
        cluster.exclude_target(shards[0]);
        cluster.exclude_target(shards[1]);
        let got = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert_eq!(got, data.materialize().to_vec(), "degraded read corrupt");
        // losing the last replica is fatal
        cluster.exclude_target(shards[2]);
        assert!(
            arr.read(&sim, 0, MIB).await.is_err(),
            "read must fail once every replica is gone"
        );
        // reintegration restores service
        cluster.reintegrate_target(shards[2]);
        assert!(arr.read(&sim, 0, MIB).await.is_ok());
    });
}

#[test]
fn erasure_coded_round_trip_and_amplification() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        // EC_2P1, one group on a 16-target pool; 256 KiB chunks -> 128 KiB cells
        let class = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: Some(1),
        };
        let arr = cont.object(ObjectId::new(4, 4), class).array(256 * KIB);
        let data = Payload::pattern(13, MIB); // 4 full chunks
        arr.write(&sim, 0, data.clone()).await.unwrap();
        // 2+1 EC: 1.5x write amplification
        assert_eq!(cluster.total_bytes_written(), 3 * MIB / 2);
        let got = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert_eq!(got, data.materialize().to_vec());
    });
}

#[test]
fn erasure_coded_reconstructs_lost_data_cell() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let class = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: Some(1),
        };
        let obj = cont.object(ObjectId::new(5, 5), class);
        let arr = obj.array(256 * KIB);
        let data = Payload::pattern(14, 512 * KIB);
        arr.write(&sim, 0, data.clone()).await.unwrap();
        // lose the first data shard: XOR reconstruction must produce the
        // exact original bytes
        let shards: Vec<_> = obj.layout().targets().collect();
        cluster.exclude_target(shards[0]);
        let got = arr.read_bytes(&sim, 0, 512 * KIB).await.unwrap();
        assert_eq!(
            got,
            data.materialize().to_vec(),
            "EC reconstruction corrupt"
        );
        // also losing the parity shard exceeds p=1: reads of the lost cell fail
        cluster.exclude_target(shards[2]);
        assert!(arr.read(&sim, 0, 512 * KIB).await.is_err());
    });
}

#[test]
fn erasure_coded_rejects_unaligned_io() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let class = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: Some(1),
        };
        let arr = cont.object(ObjectId::new(6, 6), class).array(256 * KIB);
        let err = arr.write(&sim, 100, Payload::pattern(1, 1000)).await;
        assert!(err.is_err(), "cell-unaligned EC write must be rejected");
    });
}

#[test]
fn ec_partial_stripe_update_keeps_parity_consistent() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let class = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: Some(1),
        };
        let obj = cont.object(ObjectId::new(7, 7), class);
        let arr = obj.array(256 * KIB);
        let cell = 128 * KIB;
        // full-chunk write, then overwrite only the second cell (RMW parity)
        arr.write(&sim, 0, Payload::pattern(20, 256 * KIB))
            .await
            .unwrap();
        arr.write(&sim, cell, Payload::pattern(21, cell))
            .await
            .unwrap();
        // lose the FIRST cell's shard: reconstruction must reflect both writes
        let shards: Vec<_> = obj.layout().targets().collect();
        cluster.exclude_target(shards[0]);
        let got = arr.read_bytes(&sim, 0, 256 * KIB).await.unwrap();
        let mut want = Payload::pattern(20, 256 * KIB).materialize().to_vec();
        let over = Payload::pattern(21, cell).materialize();
        want[cell as usize..].copy_from_slice(&over);
        assert_eq!(got, want, "parity stale after partial-stripe update");
    });
}

#[test]
fn replication_spreads_reads_across_replicas() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont
            .object(ObjectId::new(8, 8), ObjectClass::RP_2GX)
            .array(64 * KIB);
        // many chunks: reads round-robin over the 2 replicas per group
        arr.write(&sim, 0, Payload::pattern(30, MIB)).await.unwrap();
        let before = cluster.total_bytes_read();
        arr.read(&sim, 0, MIB).await.unwrap();
        let after = cluster.total_bytes_read();
        assert_eq!(after - before, MIB, "reads must fetch one replica only");
    });
}

/// A write spanning several chunks runs every piece to completion and
/// reports the first error in chunk order, not the first to happen: the
/// last piece is refused client-side at once (its length is not
/// cell-aligned), chunk 1 is refused by its server one round trip later,
/// and chunks 0 and 2 must land whole, parity included, all the same.
#[test]
fn multi_chunk_write_finishes_every_piece_and_reports_the_first_error_in_chunk_order() {
    let (mut sim, cfg) = testbed();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let class = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: Some(1),
        };
        let (oid, chunk) = (ObjectId::new(9, 9), 256 * KIB);
        let obj = cont.object(oid, class);
        let arr = obj.array(chunk);
        // a single value where chunk 1's first cell goes: an array update
        // of that key is a protocol violation, final on the first attempt
        let t = obj.layout().target_of(0);
        let value = Payload::pattern(1, 8);
        let plant = Request::UpdateSingle {
            target: t % cfg.targets_per_engine,
            cont: cont.id(),
            oid,
            dkey: chunk_dkey(1),
            akey: array_akey(),
            csum: wire_csum(&value),
            value,
        };
        let planted = client
            .call_deadline(&sim, t / cfg.targets_per_engine, plant)
            .await;
        planted.unwrap().ok().unwrap();

        let before = cluster.total_bytes_written();
        let data = Payload::pattern(31, 3 * chunk + 1000);
        let err = arr.write(&sim, 0, data.clone()).await.unwrap_err();
        assert_eq!(err, DaosError::KeyTypeMismatch { expected: "array" });
        // chunks 0 and 2: two cells and a parity each; chunk 1: its second
        // cell only (no parity after a failed cell); chunk 3: nothing
        let cells = 3 + 1 + 3;
        assert_eq!(cluster.total_bytes_written() - before, cells * chunk / 2);
        for c in [0, 2] {
            let got = arr.read_bytes(&sim, c * chunk, chunk).await.unwrap();
            let want = data.slice(c * chunk, chunk).materialize();
            assert_eq!(got, want.to_vec(), "chunk {c}");
        }
    });
}
