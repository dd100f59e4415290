//! End-to-end tests: client → fabric → engine → VOS → media, with the
//! RAFT-backed pool service on the control path.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError};
use daos_placement::{ObjectClass, ObjectId};
use daos_raft::Role;
use daos_sim::time::SimDuration;
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::{key, Payload, Segs};

fn tiny() -> (Sim, ClusterConfig) {
    (Sim::new(0xDA05), ClusterConfig::tiny(1))
}

#[test]
fn pool_connect_and_container_lifecycle() {
    let (mut sim, cfg) = tiny();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.expect("connect");
        let _cont = pool.create_container(&sim, 1).await.expect("create");
        // duplicate create fails, open succeeds, open-or-create succeeds
        match pool.create_container(&sim, 1).await {
            Err(DaosError::ContainerExists(1)) => {}
            Ok(_) => panic!("expected ContainerExists"),
            Err(e) => panic!("expected ContainerExists, got {e:?}"),
        }
        pool.open_container(&sim, 1).await.expect("open");
        pool.open_or_create(&sim, 1).await.expect("open_or_create");
        match pool.open_container(&sim, 99).await {
            Err(DaosError::NoContainer(99)) => {}
            Ok(_) => panic!("expected NoContainer"),
            Err(e) => panic!("expected NoContainer, got {e:?}"),
        }
        pool.destroy_container(&sim, 1).await.expect("destroy");
        match pool.open_container(&sim, 1).await {
            Err(DaosError::NoContainer(1)) => {}
            Ok(_) => panic!("expected NoContainer after destroy"),
            Err(e) => panic!("expected NoContainer after destroy, got {e:?}"),
        }
    });
}

#[test]
fn pool_state_replicated_to_followers() {
    let mut sim = Sim::new(7);
    let cfg = ClusterConfig {
        svc_replicas: 3,
        ..ClusterConfig::tiny(1)
    };
    // tiny() has 2 engines; svc_replicas clamps to engine count via take()
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        for c in 1..=5u64 {
            pool.create_container(&sim, c).await.unwrap();
        }
        // let replication settle
        sim.sleep_ms(100).await;
        for r in cluster.replicas() {
            let st = r.state();
            assert_eq!(
                st.containers.len(),
                5,
                "replica should have all containers, got {:?}",
                st.containers
            );
        }
    });
}

#[test]
fn kv_put_get_round_trip() {
    let (mut sim, cfg) = tiny();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let kv = cont.object(ObjectId::new(1, 1), ObjectClass::S1).kv();
        kv.put(&sim, "alpha", Payload::bytes(vec![1, 2, 3]))
            .await
            .unwrap();
        kv.put(&sim, "beta", Payload::bytes(vec![4])).await.unwrap();
        let v = kv.get(&sim, "alpha").await.unwrap().unwrap();
        assert_eq!(&v.materialize()[..], &[1, 2, 3]);
        assert!(kv.get(&sim, "gamma").await.unwrap().is_none());
        // overwrite
        kv.put(&sim, "alpha", Payload::bytes(vec![9, 9]))
            .await
            .unwrap();
        let v = kv.get(&sim, "alpha").await.unwrap().unwrap();
        assert_eq!(&v.materialize()[..], &[9, 9]);
        let keys = kv.list(&sim).await.unwrap();
        assert_eq!(keys, vec![key("alpha"), key("beta")]);
    });
}

#[test]
fn array_write_read_integrity_across_classes() {
    for class in [ObjectClass::S1, ObjectClass::S2, ObjectClass::SX] {
        let (mut sim, cfg) = tiny();
        sim.block_on(move |sim| async move {
            let cluster = Cluster::build(&sim, cfg);
            let client = DaosClient::new(Rc::clone(&cluster), 0);
            let pool = client.connect(&sim).await.unwrap();
            let cont = pool.create_container(&sim, 1).await.unwrap();
            let arr = cont.object(ObjectId::new(2, 7), class).array(MIB);
            // 3.5 MiB spanning several chunks, unaligned offset
            let data = Payload::pattern(42, 3 * MIB + MIB / 2);
            arr.write(&sim, 12345, data.clone()).await.unwrap();
            let got = arr.read_bytes(&sim, 12345, data.len()).await.unwrap();
            assert_eq!(
                got,
                data.materialize().to_vec(),
                "round trip failed for {class}"
            );
            // holes read as zeroes
            let hole = arr.read_bytes(&sim, 0, 100).await.unwrap();
            assert!(hole.iter().all(|&b| b == 0));
        });
    }
}

/// An empty range is nobody's chunk: the write and the read answer on the
/// spot, wherever the offset falls, without an RPC, a task or a tick.
#[test]
fn zero_length_array_io_sends_nothing() {
    let (mut sim, cfg) = tiny();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont.object(ObjectId::new(2, 8), ObjectClass::SX).array(MIB);
        let cost = |sim: &Sim| {
            let engines = cluster.engines().iter();
            let rpcs: u64 = engines.map(|e| e.endpoint().call_count()).sum();
            (rpcs, sim.spawned_total(), sim.now())
        };
        let before = cost(&sim);
        for offset in [0, 12345, MIB, 3 * MIB - 1] {
            let empty = Payload::pattern(1, 0);
            assert_eq!(arr.write(&sim, offset, empty).await, Ok(()));
            assert_eq!(arr.read(&sim, offset, 0).await, Ok(Segs::default()));
        }
        assert_eq!(cost(&sim), before);
    });
}

#[test]
fn array_overwrite_latest_wins() {
    let (mut sim, cfg) = tiny();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont
            .object(ObjectId::new(3, 3), ObjectClass::S2)
            .array(64 * 1024);
        arr.write(&sim, 0, Payload::pattern(1, 256 * 1024))
            .await
            .unwrap();
        arr.write(&sim, 100_000, Payload::pattern(2, 50_000))
            .await
            .unwrap();
        let got = arr.read_bytes(&sim, 0, 256 * 1024).await.unwrap();
        let base = Payload::pattern(1, 256 * 1024).materialize();
        let over = Payload::pattern(2, 50_000).materialize();
        assert_eq!(&got[..100_000], &base[..100_000]);
        assert_eq!(&got[100_000..150_000], &over[..]);
        assert_eq!(&got[150_000..], &base[150_000..]);
    });
}

#[test]
fn punch_unlinks_object_everywhere() {
    let (mut sim, cfg) = tiny();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let obj = cont.object(ObjectId::new(5, 5), ObjectClass::SX);
        let arr = obj.array(64 * 1024);
        arr.write(&sim, 0, Payload::pattern(1, MIB)).await.unwrap();
        obj.punch(&sim).await.unwrap();
        let got = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert!(
            got.iter().all(|&b| b == 0),
            "punched object must read empty"
        );
    });
}

#[test]
fn concurrent_writers_shared_object_no_locks() {
    // 8 client processes interleave-writing one shared SX object: all
    // writes land, no serialisation hazard (epoch isolation).
    let (mut sim, cfg) = tiny();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let obj = cont.object(ObjectId::new(8, 8), ObjectClass::SX);
        let arr = obj.array(256 * 1024);
        let region = MIB;
        let futs: Vec<_> = (0..8u64)
            .map(|rank| {
                let arr = arr.clone();
                let sim = sim.clone();
                async move {
                    arr.write(&sim, rank * region, Payload::pattern(rank, region))
                        .await
                        .unwrap();
                }
            })
            .collect();
        daos_sim::executor::join_all(&sim, futs).await;
        for rank in 0..8u64 {
            let got = arr.read_bytes(&sim, rank * region, region).await.unwrap();
            assert_eq!(
                got,
                Payload::pattern(rank, region).materialize().to_vec(),
                "rank {rank} region corrupted"
            );
        }
        assert_eq!(cluster.total_bytes_written(), 8 * region);
    });
}

#[test]
fn io_takes_simulated_time_and_is_deterministic() {
    fn run() -> u64 {
        let (mut sim, cfg) = tiny();
        sim.block_on(move |sim| async move {
            let cluster = Cluster::build(&sim, cfg);
            let client = DaosClient::new(Rc::clone(&cluster), 0);
            let pool = client.connect(&sim).await.unwrap();
            let cont = pool.create_container(&sim, 1).await.unwrap();
            let arr = cont.object(ObjectId::new(2, 2), ObjectClass::S2).array(MIB);
            let t0 = sim.now();
            for i in 0..16u64 {
                arr.write(&sim, i * MIB, Payload::pattern(i, MIB))
                    .await
                    .unwrap();
            }
            (sim.now() - t0).as_ns()
        })
    }
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give identical timing");
    // 16 MiB over a ~11.6 GiB/s link ≈ 1.35ms minimum
    assert!(a > 1_000_000, "16 MiB cannot be instantaneous: {a}ns");
    assert!(a < 100_000_000, "suspiciously slow: {a}ns");
}

/// A control RPC that reaches a follower follows the follower's
/// `NotLeader` hint straight to the leader: one RPC to the follower, one
/// to the leader. The leader is not engine 1, so trying the next engine
/// instead of the hint would cost a third.
#[test]
fn control_follows_the_leader_hint() {
    let mut sim = Sim::new(0xDA05);
    let mut cfg = ClusterConfig {
        server_nodes: 5,
        svc_replicas: 5,
        ..ClusterConfig::tiny(1)
    };
    // failure detector parked: every RPC an engine counts is the client's
    cfg.heartbeat.interval = SimDuration::from_secs(3600);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        // engines 0 and 1 are cut off while the other three elect a
        // leader, then rejoin as its followers
        let nodes: Vec<_> = cluster.engines().iter().map(|e| e.node()).collect();
        for &a in &nodes[..2] {
            for &b in &nodes[2..] {
                cluster.fabric.partition_between(a, b);
            }
        }
        sim.sleep_ms(200).await;
        cluster.fabric.heal_all();
        sim.sleep_ms(200).await;
        let replicas = cluster.replicas();
        let leader = replicas.iter().position(|r| r.role() == Role::Leader);
        let leader = leader.expect("a leader") as u64;
        assert!(leader >= 2, "leader on engine {leader}");
        assert_eq!(
            replicas[0].leader_hint(),
            Some(leader + 1),
            "raft id = engine + 1"
        );

        let calls = || -> u64 {
            let engines = cluster.engines().iter();
            engines.map(|e| e.endpoint().call_count()).sum()
        };
        let before = calls();
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        client.connect(&sim).await.expect("connect");
        assert_eq!(calls() - before, 2, "follower, then the hinted leader");
    });
}
