//! The hash-nothing gate: with checksums on, every check site (client wire
//! checksum, server verify, extent insert, fetch verify, reply checksum,
//! client verify) still runs `csum64`, and no pattern byte is walked to
//! answer it — every pattern the stack hands those sites starts on a word
//! boundary and is summed in closed form. `daos_vos::csum_stats` is the
//! deterministic host-cost proxy; a layer that started slicing payloads
//! mid-word would show up here as `walked_bytes` above `literal_bytes`.
//! The planted negatives show the other side: payloads changed by fault
//! injection are summed like any other, so the corruption is still found.

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
use daos_vos::tree::flatten;
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

/// Pattern bytes that were generated and folded word by word;
/// `Payload::Bytes` metadata values (DFS dirents) are always walked and
/// are accounted separately.
fn pattern_walked(s: &CsumStats) -> u64 {
    s.walked_bytes - s.literal_bytes
}

#[test]
fn dfs_fpp_walks_no_pattern_byte() {
    let (total, s) = ior_stats(Api::Dfs, ObjectClass::S2, true);
    assert_eq!(total, 8 * 4 * MIB);
    assert_eq!(pattern_walked(&s), 0, "{s:?}");
    // every site still checks every transfer: client wire checksum, server
    // verify + extent insert on write, fetch verify + reply checksum +
    // client verify on read
    let transfers = total / MIB;
    assert_eq!(s.closed_form_calls, 6 * transfers, "{s:?}");
}

#[test]
fn hdf5_shared_walks_no_pattern_byte() {
    let (total, s) = ior_stats(Api::Hdf5, ObjectClass::SX, false);
    assert_eq!(pattern_walked(&s), 0, "{s:?}");
    // the dataset starts behind the superblock and two object headers, so
    // each 1 MiB transfer straddles two chunks and is checked as two pieces
    assert_ne!((SUPERBLOCK + 2 * OBJ_HEADER) % MIB, 0);
    let pieces = 2 * (total / MIB);
    // HDF5 metadata is pattern-typed too and written, never read back:
    // superblock and root header at create, the dataset header, then
    // header and superblock again at close — three write-path checks each
    assert_eq!(s.closed_form_calls, 6 * pieces + 3 * 5, "{s:?}");
}

/// The walk is chosen by the payload, not by the caller: a slice that
/// starts mid-word goes through the same sites, is generated and folded
/// byte for byte, and verifies.
#[test]
fn an_unaligned_slice_is_walked_and_still_verifies() {
    with_array(async |sim, _cluster, arr| {
        let data = Payload::pattern(7, MIB + 3).slice(3, MIB);
        reset_csum_stats();
        arr.write(&sim, 0, data.clone()).await.expect("write");
        let segs = arr.read(&sim, 0, MIB).await.expect("read");
        let s = csum_stats();
        assert_eq!(pattern_walked(&s), s.walked_calls * MIB, "{s:?}");
        assert_eq!(s.walked_calls, 6, "{s:?}");
        assert_eq!(s.closed_form_calls, 0, "{s:?}");
        assert_eq!(flatten(&segs, 0, MIB), data.materialize().to_vec());
    });
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
        // the client's sum plus one per torn copy the engine received:
        // each is summed from its own description, none is walked
        let s = csum_stats();
        assert!(s.closed_form_calls >= 2, "{s:?}");
        assert_eq!(s.walked_bytes, 0, "{s:?}");
    });
}

#[test]
fn rotted_extents_are_rehashed_and_reported() {
    with_array(async |sim, cluster, arr| {
        reset_csum_stats();
        arr.write(&sim, 0, Payload::pattern(7, MIB))
            .await
            .expect("write");
        // client wire checksum, server verify, extent insert
        assert_eq!(csum_stats().closed_form_calls, 3);
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
        // the rotted copy is new bytes: summed once more, and found bad
        let s = csum_stats();
        assert_eq!((s.closed_form_calls, s.walked_bytes), (4, 0), "{s:?}");
    });
}
