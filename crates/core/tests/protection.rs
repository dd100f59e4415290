//! Data-protection tests: replicated (RP_n) and erasure-coded (EC_k+p)
//! object classes — DAOS's "advanced data protection" (paper §II) — with
//! write fan-out, degraded reads over excluded targets, and XOR
//! reconstruction verified byte-for-byte.

use std::collections::BTreeSet;
use std::rc::Rc;

use daos_core::proto::{array_akey, chunk_dkey, wire_csum};
use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError, Request};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;
use proptest::prelude::*;

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

/// The punch, size and class-equivalence testbed: four engines of two
/// targets, so an `EC_2P1GX` array has two groups of three cells.
fn two_target_testbed(seed: u64) -> (Sim, ClusterConfig) {
    let cfg = ClusterConfig {
        server_nodes: 4,
        engines_per_node: 1,
        targets_per_engine: 2,
        ..ClusterConfig::tiny(1)
    };
    (Sim::new(seed), cfg)
}

/// `S1` and the two protection schemes, which must read back alike.
const ALIKE: [ObjectClass; 3] = [ObjectClass::S1, ObjectClass::RP_2GX, ObjectClass::EC_2P1GX];

/// 64 KiB chunks: 32 KiB cells under `EC_2P1GX`.
const CHUNK: u64 = 64 * KIB;

/// One punch into one written chunk, for each class and each of four
/// ranges: either whole EC cell, and a piece inside each. The range reads
/// zero and nothing outside it changes; on EC, losing any one target of
/// the layout reads the same bytes as the healthy stripe.
#[test]
fn punch_clears_exactly_its_range_on_every_class() {
    let ranges = [
        (0, 32 * KIB),
        (32 * KIB, 32 * KIB),
        (16 * KIB, 8 * KIB),
        (40 * KIB, 8 * KIB),
    ];
    for class in ALIKE {
        for (off, len) in ranges {
            let (mut sim, cfg) = two_target_testbed(7);
            sim.block_on(move |sim| async move {
                let cluster = Cluster::build(&sim, cfg);
                let client = DaosClient::new(Rc::clone(&cluster), 0);
                let pool = client.connect(&sim).await.unwrap();
                let cont = pool.create_container(&sim, 1).await.unwrap();
                let obj = cont.object(ObjectId::new(9, 9), class);
                let arr = obj.array(CHUNK);
                arr.write(&sim, 0, Payload::pattern(3, CHUNK))
                    .await
                    .unwrap();
                arr.punch(&sim, off, len).await.unwrap();
                let mut want = Payload::pattern(3, CHUNK).materialize().to_vec();
                want[off as usize..(off + len) as usize].fill(0);
                let wrong = |got: Vec<u8>| got.iter().zip(&want).filter(|(a, b)| a != b).count();
                let at = format!("{class} punch [{off}, {})", off + len);
                let healthy = arr.read_bytes(&sim, 0, CHUNK).await.unwrap();
                assert_eq!(wrong(healthy), 0, "{at}: bytes that differ");
                if class != ObjectClass::EC_2P1GX {
                    return;
                }
                let targets: BTreeSet<_> = obj.layout().targets().collect();
                for t in targets {
                    cluster.exclude_target(t);
                    let degraded = arr.read_bytes(&sim, 0, CHUNK).await.unwrap();
                    cluster.reintegrate_target(t);
                    assert_eq!(
                        wrong(degraded),
                        0,
                        "{at}, target {t} lost: bytes that differ"
                    );
                }
            });
        }
    }
}

/// `size` counts array bytes, not shard bytes: one whole chunk is 64 KiB
/// on every class, and punching the tail shrinks it to where the data
/// ends, mid-cell and down to nothing.
#[test]
fn size_counts_array_bytes_on_every_class() {
    for class in ALIKE {
        let (mut sim, cfg) = two_target_testbed(7);
        sim.block_on(move |sim| async move {
            let cluster = Cluster::build(&sim, cfg);
            let client = DaosClient::new(Rc::clone(&cluster), 0);
            let pool = client.connect(&sim).await.unwrap();
            let cont = pool.create_container(&sim, 1).await.unwrap();
            let arr = cont.object(ObjectId::new(9, 9), class).array(CHUNK);
            arr.write(&sim, 0, Payload::pattern(3, CHUNK))
                .await
                .unwrap();
            assert_eq!(arr.size(&sim).await.unwrap(), CHUNK, "{class}");
            for end in [40 * KIB, 20 * KIB, 0] {
                arr.punch(&sim, end, CHUNK - end).await.unwrap();
                assert_eq!(arr.size(&sim).await.unwrap(), end, "{class} cut at {end}");
            }
        });
    }
}

/// One step of the class-equivalence check, over an 8-cell span.
#[derive(Clone, Debug)]
enum Op {
    /// Write `cells` whole cells from cell `first`.
    Write {
        first: u64,
        cells: u64,
        seed: u64,
    },
    /// Punch `len` bytes at `offset`.
    Punch {
        offset: u64,
        len: u64,
    },
    Size,
}

/// Four chunks of two cells.
const SPAN: u64 = 4 * CHUNK;

fn op() -> impl Strategy<Value = Op> {
    let cell = CHUNK / 2;
    prop_oneof![
        (0..SPAN / cell, 1..=SPAN / cell, any::<u64>()).prop_map(move |(first, cells, seed)| {
            let cells = cells.min(SPAN / cell - first);
            Op::Write { first, cells, seed }
        }),
        (0..SPAN, 1..=SPAN).prop_map(|(offset, len)| Op::Punch {
            offset,
            len: len.min(SPAN - offset),
        }),
        Just(Op::Size),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Protected classes read back like `S1`: one random sequence of
    /// cell-aligned writes, punches at any offset and size queries runs on
    /// an `S1`, an `RP_2GX` and an `EC_2P1GX` array, and after every op the
    /// whole span reads the same bytes and `size` agrees on every class.
    #[test]
    fn protected_classes_read_back_like_s1(ops in prop::collection::vec(op(), 1..10)) {
        let (mut sim, cfg) = two_target_testbed(0x0AC1E);
        sim.block_on(move |sim| async move {
            let cluster = Cluster::build(&sim, cfg);
            let client = DaosClient::new(Rc::clone(&cluster), 0);
            let pool = client.connect(&sim).await.unwrap();
            let cont = pool.create_container(&sim, 1).await.unwrap();
            let arrays: Vec<_> = (0..)
                .zip(ALIKE)
                .map(|(i, class)| cont.object(ObjectId::new(10, i), class).array(CHUNK))
                .collect();
            for (step, op) in ops.iter().enumerate() {
                for arr in &arrays {
                    match *op {
                        Op::Write { first, cells, seed } => {
                            let (at, len) = (first * CHUNK / 2, cells * CHUNK / 2);
                            arr.write(&sim, at, Payload::pattern(seed, len)).await.unwrap();
                        }
                        Op::Punch { offset, len } => arr.punch(&sim, offset, len).await.unwrap(),
                        Op::Size => {}
                    }
                }
                let mut seen = Vec::new();
                for arr in &arrays {
                    let bytes = arr.read_bytes(&sim, 0, SPAN).await.unwrap();
                    seen.push((arr.size(&sim).await.unwrap(), bytes));
                }
                for (class, got) in ALIKE.iter().zip(&seen).skip(1) {
                    assert_eq!(got.0, seen[0].0, "{class} size after step {step}: {op:?}");
                    assert!(got.1 == seen[0].1, "{class} bytes after step {step}: {op:?}");
                }
            }
        });
    }
}
