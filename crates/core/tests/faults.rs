//! Chaos tests: an engine dies mid-run and the stack recovers end to end —
//! heartbeat detection, raft-committed exclusion, client retry/re-route,
//! background rebuild, and reintegration — with data verified
//! byte-for-byte. Every scenario is run twice to prove the fault pipeline
//! is deterministic under a fixed seed.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, RetryPolicy};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::fault::{FaultAction, FaultPlan};
use daos_sim::time::{SimDuration, SimTime};
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

fn testbed() -> ClusterConfig {
    ClusterConfig {
        server_nodes: 4,
        engines_per_node: 1,
        targets_per_engine: 4,
        ..ClusterConfig::tiny(1)
    }
}

/// Retry policy tight enough that a test doesn't spend seconds of virtual
/// time per timeout, generous enough to ride out detection + commit.
fn tight_retry() -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: SimDuration::from_ms(2),
        base_backoff: SimDuration::from_us(200),
        max_backoff: SimDuration::from_ms(4),
        max_attempts: 60,
        ..RetryPolicy::default()
    }
}

/// Outcome snapshot used to compare two runs of the same scenario.
#[derive(PartialEq, Debug)]
struct Outcome {
    final_time_ns: u64,
    map_version: u32,
    chunks_repaired: u64,
    data: Vec<u8>,
}

/// The core chaos scenario: write under a protected class while an engine
/// crashes mid-stream, wait for detection + exclusion + rebuild, verify
/// the data, then restart + reintegrate and verify again.
/// `server_nodes` must exceed the class's group width so redundancy groups
/// stay engine-disjoint and a single crash costs each group one shard.
fn crash_exclude_rebuild_reintegrate(seed: u64, class: ObjectClass, server_nodes: u32) -> Outcome {
    let mut sim = Sim::new(seed);
    let cfg = ClusterConfig {
        server_nodes,
        targets_per_engine: 2,
        ..testbed()
    };
    let tpe = cfg.targets_per_engine;
    let dead: Vec<u32> = (2 * tpe..3 * tpe).collect();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_retry(tight_retry());
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let obj = cont.object(ObjectId::new(7, 7), class);
        let arr = obj.array(64 * KIB);
        let data = Payload::pattern(42, 2 * MIB);

        // phase A: first half lands on a healthy cluster
        arr.write(&sim, 0, data.slice(0, MIB)).await.unwrap();

        // engine 2 (not the pool service, which is engine 0) dies shortly
        // after the second write burst starts
        let crash_at = SimTime::from_ns(sim.now().as_ns() + 200_000);
        let injector = cluster.install_fault_plan(
            &sim,
            FaultPlan::new().at(crash_at, FaultAction::Crash { node: 2 }),
        );

        // phase B: in-flight writes hit the dead engine, time out, and must
        // retry until the heartbeat detector commits the exclusion and the
        // refreshed layout routes around it
        arr.write(&sim, MIB, data.slice(MIB, MIB)).await.unwrap();
        assert_eq!(injector.fired().len(), 1, "crash must have fired");

        // the exclusion is the only way those writes could have finished
        let version_after_exclude = cluster.pool_map().version();
        assert!(
            version_after_exclude > 1,
            "heartbeat detection must bump the map version"
        );
        let excluded = cluster.pool_map().excluded_targets();
        assert_eq!(excluded, dead, "every target of engine 2 must be excluded");

        // degraded read while the rebuild may still be running
        let got = arr.read_bytes(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(got, data.materialize().to_vec(), "degraded read corrupt");

        // let the background rebuild finish re-protecting the object
        cluster.quiesce_rebuild(&sim).await;
        let stats = cluster.rebuild_stats();
        assert!(
            stats.chunks_repaired > 0,
            "rebuild must have repaired chunks: {stats:?}"
        );
        assert_eq!(stats.chunks_skipped, 0, "no chunk may be left behind");

        // restart the engine and reintegrate its targets
        cluster.apply_fault(&sim, FaultAction::Restart { node: 2 });
        client
            .control(
                &sim,
                daos_core::Request::PoolReintegrate {
                    targets: dead.clone(),
                },
            )
            .await
            .unwrap();
        client.refresh_pool_map(&sim).await;
        let version_after_reint = cluster.pool_map().version();
        assert!(
            version_after_reint > version_after_exclude,
            "reintegration must bump the map version again"
        );
        assert!(cluster.pool_map().excluded_targets().is_empty());
        cluster.quiesce_rebuild(&sim).await;

        // the reverted layout reads clean, including shards refilled onto
        // the returned engine
        let got = arr.read_bytes(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(
            got,
            data.materialize().to_vec(),
            "post-reintegration read corrupt"
        );

        Outcome {
            final_time_ns: sim.now().as_ns(),
            map_version: version_after_reint,
            chunks_repaired: cluster.rebuild_stats().chunks_repaired,
            data: got,
        }
    })
}

#[test]
fn engine_crash_heals_end_to_end_rp2() {
    let a = crash_exclude_rebuild_reintegrate(0xC2A54, ObjectClass::RP_2GX, 4);
    let b = crash_exclude_rebuild_reintegrate(0xC2A54, ObjectClass::RP_2GX, 4);
    assert_eq!(a, b, "same seed + same fault plan must replay identically");
}

#[test]
fn engine_crash_heals_end_to_end_ec() {
    let class = ObjectClass::ErasureCoded {
        data: 4,
        parity: 1,
        groups: None,
    };
    let a = crash_exclude_rebuild_reintegrate(0xEC41, class, 8);
    let b = crash_exclude_rebuild_reintegrate(0xEC41, class, 8);
    assert_eq!(a, b, "same seed + same fault plan must replay identically");
}

/// A range punched while an engine is out stays punched once it returns:
/// the reintegration rebuild makes each returning shard read as its
/// donors' image, holes included, so the stale bytes the engine kept
/// never resurface. Returns the non-zero bytes a handle opened after the
/// reintegration reads — the handle opened before the crash still routes
/// to the replacement targets and would read zeros either way.
fn punched_while_out(class: ObjectClass) -> usize {
    let mut sim = Sim::new(0xC2A54);
    let cfg = ClusterConfig {
        targets_per_engine: 2,
        ..testbed()
    };
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_retry(tight_retry());
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let (oid, chunk) = (ObjectId::new(7, 7), 64 * KIB);
        let arr = cont.object(oid, class).array(chunk);
        arr.write(&sim, 0, Payload::pattern(42, MIB)).await.unwrap();

        cluster.apply_fault(&sim, FaultAction::Crash { node: 2 });
        let healthy = cluster.pool_map().version();
        while cluster.pool_map().version() == healthy {
            sim.sleep_ms(5).await;
            client.refresh_pool_map(&sim).await;
        }
        cluster.quiesce_rebuild(&sim).await;
        arr.punch(&sim, 0, MIB).await.unwrap();
        let degraded = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert!(degraded.iter().all(|&b| b == 0), "{class}: degraded read");

        cluster.apply_fault(&sim, FaultAction::Restart { node: 2 });
        let back = daos_core::Request::PoolReintegrate {
            targets: vec![4, 5],
        };
        client.control(&sim, back).await.unwrap();
        client.refresh_pool_map(&sim).await;
        cluster.quiesce_rebuild(&sim).await;
        let fresh = cont.object(oid, class).array(chunk);
        let got = fresh.read_bytes(&sim, 0, MIB).await.unwrap();
        got.iter().filter(|&&b| b != 0).count()
    })
}

#[test]
fn a_range_punched_while_an_engine_is_out_stays_punched() {
    for class in [ObjectClass::RP_2GX, ObjectClass::EC_2P1GX] {
        let back = punched_while_out(class);
        assert_eq!(back, 0, "{class}: punched bytes back after reintegration");
    }
}

/// Outcome snapshot for the rot-mixed chaos scenario.
#[derive(PartialEq, Debug)]
struct RotOutcome {
    final_time_ns: u64,
    rot_injected: u64,
    reported: u64,
    repairs_ok: u64,
    data: Vec<u8>,
}

/// BitRot mixed into the crash/restart chaos: an engine dies and is
/// excluded, rebuild re-protects the data, and only then does silent
/// corruption rot every extent on a surviving target — media faults land
/// on a full-redundancy system. Client reads must detect the rot through
/// checksums, heal through the other replica and report the bad copies;
/// the background scrubber must find the copies no client read touches.
/// After restart + reintegration every byte reads back identical.
fn crash_then_bitrot(seed: u64) -> RotOutcome {
    let mut sim = Sim::new(seed);
    let mut cfg = ClusterConfig {
        server_nodes: 4,
        targets_per_engine: 2,
        ..testbed()
    };
    // fast scrubber so the copies client reads never touch are found
    // (and repaired) well before reintegration pulls from them
    cfg.engine.scrub_interval = Some(SimDuration::from_ms(20));
    cfg.engine.scrub_chunks = 16;
    let tpe = cfg.targets_per_engine;
    let dead: Vec<u32> = (2 * tpe..3 * tpe).collect();
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_retry(tight_retry());
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont
            .object(ObjectId::new(8, 8), ObjectClass::RP_2GX)
            .array(64 * KIB);
        let data = Payload::pattern(13, 2 * MIB);

        arr.write(&sim, 0, data.slice(0, MIB)).await.unwrap();
        let t0 = sim.now().as_ns();
        let injector = cluster.install_fault_plan(
            &sim,
            FaultPlan::new()
                .at(
                    SimTime::from_ns(t0 + 200_000),
                    FaultAction::Crash { node: 2 },
                )
                .at(
                    SimTime::from_ns(t0 + 60_000_000),
                    FaultAction::BitRot {
                        target: 6, // engine 3, a surviving replica holder
                        fraction_ppm: 1_000_000,
                    },
                )
                .at(
                    SimTime::from_ns(t0 + 200_000_000),
                    FaultAction::Restart { node: 2 },
                ),
        );
        // rides through the crash exactly like the plain chaos scenario
        arr.write(&sim, MIB, data.slice(MIB, MIB)).await.unwrap();
        cluster.quiesce_rebuild(&sim).await;
        assert!(
            sim.now().as_ns() < t0 + 60_000_000,
            "rebuild must finish before the rot fires"
        );

        sim.sleep_until(SimTime::from_ns(t0 + 61_000_000)).await;
        assert_eq!(injector.fired().len(), 2, "crash + rot must have fired");
        let rot_injected = cluster.corruption_stats().rot_injected;
        assert!(rot_injected > 0, "the rot event must have hit extents");

        // read-heal: any read landing on the rotten replica fails over;
        // every byte still comes back correct. Reads whose first-choice
        // replica is clean never touch the rot — those copies are the
        // scrubber's to find.
        let got = arr.read_bytes(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(got, data.materialize().to_vec(), "read through rot corrupt");

        // give the scrubber a few passes to find the copies no client
        // read chose, then let the targeted repairs drain
        sim.sleep_until(SimTime::from_ns(t0 + 190_000_000)).await;
        cluster.quiesce_repairs(&sim).await;
        let st = cluster.corruption_stats();
        assert!(st.reported > 0, "rot must get reported: {st:?}");
        assert!(st.repairs_ok > 0, "targeted repairs must land: {st:?}");

        // restart fired at 200 ms; reintegrate and re-verify everything,
        // including shards refilled from the repaired copies
        sim.sleep_until(SimTime::from_ns(t0 + 201_000_000)).await;
        client
            .control(
                &sim,
                daos_core::Request::PoolReintegrate {
                    targets: dead.clone(),
                },
            )
            .await
            .unwrap();
        client.refresh_pool_map(&sim).await;
        cluster.quiesce_rebuild(&sim).await;
        let got = arr.read_bytes(&sim, 0, 2 * MIB).await.unwrap();
        assert_eq!(
            got,
            data.materialize().to_vec(),
            "post-reintegration read corrupt"
        );
        cluster.quiesce_repairs(&sim).await;
        let st = cluster.corruption_stats();
        RotOutcome {
            final_time_ns: sim.now().as_ns(),
            rot_injected,
            reported: st.reported,
            repairs_ok: st.repairs_ok,
            data: got,
        }
    })
}

#[test]
fn bitrot_mixed_chaos_heals_and_replays_identically() {
    let a = crash_then_bitrot(0xB17D);
    let b = crash_then_bitrot(0xB17D);
    assert_eq!(a, b, "same seed + same fault plan must replay identically");
}

/// A crashed engine that comes back *without* being excluded (it returns
/// before the detector's suspect count trips) keeps serving: transient
/// blips are retried through, not escalated.
#[test]
fn transient_blip_is_retried_through() {
    let mut sim = Sim::new(0xB11F);
    let cfg = ClusterConfig {
        heartbeat: daos_core::HeartbeatConfig {
            interval: SimDuration::from_ms(2),
            timeout: SimDuration::from_ms(1),
            suspect: 50, // patient detector: the blip must not trip it
        },
        ..testbed()
    };
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_retry(tight_retry());
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();
        let arr = cont
            .object(ObjectId::new(9, 9), ObjectClass::RP_2GX)
            .array(64 * KIB);
        let data = Payload::pattern(7, MIB);

        let t0 = sim.now().as_ns();
        cluster.install_fault_plan(
            &sim,
            FaultPlan::new()
                .at(
                    SimTime::from_ns(t0 + 100_000),
                    FaultAction::Crash { node: 1 },
                )
                .at(
                    SimTime::from_ns(t0 + 3_100_000),
                    FaultAction::Restart { node: 1 },
                ),
        );
        arr.write(&sim, 0, data.clone()).await.unwrap();
        let got = arr.read_bytes(&sim, 0, MIB).await.unwrap();
        assert_eq!(got, data.materialize().to_vec());
        assert_eq!(
            cluster.pool_map().version(),
            1,
            "a 3 ms blip must not cause an exclusion"
        );
    });
}
