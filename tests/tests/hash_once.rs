//! The hash-once gate: with checksums on, every pattern payload handed to
//! the stack is folded exactly once, however many sites verify it (client
//! wire checksum, server verify, extent insert, fetch verify, reply
//! checksum, client verify). `daos_vos::csum_stats` is the deterministic
//! host-cost proxy; a clone taken before the first hash, or a digest
//! dropped along the path, shows up here as `cold_bytes` above the bytes
//! written. The planted negatives show the other side: payloads changed by
//! fault injection never reuse a digest, so the corruption is still found.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError};
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_hdf5::{OBJ_HEADER, SUPERBLOCK};
use daos_ior::{run, Api, DaosTestbed, IorParams};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::fault::FaultAction;
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::{csum_stats, reset_csum_stats, CsumStats, Payload};

/// 2 nodes × 4 ppn IOR write + read of 4 MiB per rank in 1 MiB transfers;
/// returns the bytes IOR moved and the checksum counters of the run.
fn ior_stats(api: Api, oclass: ObjectClass, fpp: bool) -> (u64, CsumStats) {
    let mut sim = Sim::new(0x10D);
    sim.block_on(move |sim| async move {
        let cfg = ClusterConfig::tiny(2);
        assert!(cfg.engine.vos.csum_enabled);
        let env = DaosTestbed::setup(&sim, cfg, DfsConfig::default(), DfuseConfig::default())
            .await
            .expect("testbed");
        let mut p = IorParams::paper_default(api, oclass, fpp, 4);
        p.block_size = 4 * MIB;
        reset_csum_stats();
        let r = run(&sim, &env, p).await.expect("ior run");
        (r.total_bytes, csum_stats())
    })
}

/// Bytes folded from pattern payloads; `Payload::Bytes` metadata values
/// (DFS dirents) carry no digest and are accounted separately.
fn pattern_cold(s: &CsumStats) -> u64 {
    s.cold_bytes - s.literal_bytes
}

#[test]
fn dfs_fpp_folds_each_written_byte_once() {
    let (total, s) = ior_stats(Api::Dfs, ObjectClass::S2, true);
    assert_eq!(total, 8 * 4 * MIB);
    assert_eq!(pattern_cold(&s), total, "{s:?}");
    // one cold call per transfer, the rest of the path rides the digest:
    // server verify + extent insert on write, fetch verify + reply
    // checksum + client verify on read
    let transfers = total / MIB;
    assert_eq!(s.digest_hits, 5 * transfers, "{s:?}");
}

#[test]
fn hdf5_shared_folds_each_written_byte_once() {
    let (total, s) = ior_stats(Api::Hdf5, ObjectClass::SX, false);
    // HDF5 metadata is pattern-typed too: superblock and root header at
    // create, the dataset header, then header and superblock again at close
    let meta = 2 * SUPERBLOCK + 3 * OBJ_HEADER;
    assert_eq!(pattern_cold(&s), total + meta, "{s:?}");
}

/// One S1 array on a small cluster, so a payload is one piece on one target.
fn with_array<T: 'static>(
    f: impl AsyncFnOnce(Sim, Rc<Cluster>, daos_core::ArrayHandle) -> T + 'static,
) -> T {
    let mut sim = Sim::new(0xC5);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.expect("connect");
        let cont = pool.create_container(&sim, 1).await.expect("container");
        let arr = cont
            .object(ObjectId::new(0xC5, 1), ObjectClass::S1)
            .array(MIB);
        f(sim, cluster, arr).await
    })
}

#[test]
fn torn_frames_are_rehashed_and_rejected() {
    with_array(async |sim, cluster, arr| {
        cluster.apply_fault(&sim, FaultAction::CorruptInFlight { ppm: 1_000_000 });
        reset_csum_stats();
        let err = arr.write(&sim, 0, Payload::pattern(7, MIB)).await;
        assert_eq!(err, Err(DaosError::CorruptFrame));
        // the client's fold plus one per torn copy the engine received: a
        // corrupted payload never answers from the original's digest
        let s = csum_stats();
        assert!(s.cold_bytes >= 2 * MIB, "{s:?}");
        assert_eq!(s.cold_bytes, s.cold_calls * MIB, "{s:?}");
        assert_eq!(s.digest_hits, 0, "{s:?}");
    });
}

#[test]
fn rotted_extents_are_rehashed_and_reported() {
    with_array(async |sim, cluster, arr| {
        reset_csum_stats();
        arr.write(&sim, 0, Payload::pattern(7, MIB))
            .await
            .expect("write");
        assert_eq!(csum_stats().cold_bytes, MIB);
        for target in 0..cluster.cfg.engine_count() * cluster.cfg.targets_per_engine {
            cluster.apply_fault(
                &sim,
                FaultAction::BitRot {
                    target: target as usize,
                    fraction_ppm: 1_000_000,
                },
            );
        }
        assert_eq!(cluster.corruption_stats().rot_injected, 1);
        let err = arr.read(&sim, 0, MIB).await;
        assert_eq!(err, Err(DaosError::CsumMismatch));
        // the rotted copy is new bytes: folded afresh, and found bad
        assert_eq!(csum_stats().cold_bytes, 2 * MIB);
    });
}
