//! A characterization of MPI-IO's collectives over the full stack: one
//! collective write + read cycle with an interleaving access pattern (the
//! two-phase path) and one without (every rank does its own I/O), each
//! pinned to its exact per-mount DFuse counters and final simulated time.
//!
//! No figure or benchmark workload runs `write_at_all` / `read_at_all`, so
//! this test is what holds their request stream still: the same driver
//! requests, in the same order, at the same simulated instants.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, DfuseStats, OpenFlags};
use daos_mpi::MpiWorld;
use daos_mpiio::{assemble, Hints, MpiFile, RankFile};
use daos_placement::ObjectClass;
use daos_sim::executor::join_all;
use daos_sim::units::KIB;
use daos_sim::Sim;
use daos_vos::Payload;

const RANKS: usize = 8;
const PER_NODE: usize = 4;
const ROUNDS: u64 = 2;
/// Not a multiple of the staging buffer, so aggregator runs are cut inside
/// pieces.
const PIECE: u64 = 300 * KIB;
/// Slots come in adjacent pairs with a gap after each pair, so an
/// aggregator sees several runs of two pieces.
const GAP: u64 = 20 * KIB;
const ROUND_SPAN: u64 = RANKS as u64 * PIECE + (RANKS / 2) as u64 * GAP;

fn slot_offset(k: u64, slot: usize) -> u64 {
    k * ROUND_SPAN + slot as u64 * PIECE + (slot / 2) as u64 * GAP
}

#[allow(
    clippy::needless_update,
    reason = "the literal stays valid whatever else `Hints` holds"
)]
fn hints() -> Hints {
    Hints {
        cb_buffer: 256 * KIB,
        ..Hints::default()
    }
}

/// Run one write + read cycle. With `interleave`, rank `r` writes slot
/// `RANKS - 1 - r` and reads a peer's slot (both interleave in rank
/// order); without, rank `r` writes and reads slot `r`. Returns the
/// per-node mount counters and the final simulated time in ns.
fn cycle(interleave: bool) -> (Vec<DfuseStats>, u64) {
    let mut sim = Sim::new(0xC0_11 ^ interleave as u64);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(2));
        let mut mounts = Vec::new();
        for i in 0..2 {
            let client = DaosClient::new(Rc::clone(&cluster), i);
            let pool = client.connect(&sim).await.unwrap();
            let cont = pool.open_or_create(&sim, 1).await.unwrap();
            let dfs = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
            mounts.push(DfuseMount::new(dfs, DfuseConfig::default()));
        }
        mounts[0]
            .open(&sim, "/pinned.dat", OpenFlags::create_with(ObjectClass::SX))
            .await
            .unwrap();
        let world = MpiWorld::new(
            Rc::clone(&cluster.fabric),
            (0..RANKS)
                .map(|r| cluster.client_node((r / PER_NODE) as u32))
                .collect(),
        );
        let write_slot = move |r: usize| if interleave { RANKS - 1 - r } else { r };
        let read_slot = move |r: usize| match interleave {
            true => write_slot((r + 3) % RANKS),
            false => r,
        };
        let futs: Vec<_> = (0..RANKS)
            .map(|r| {
                let mount = Rc::clone(&mounts[r / PER_NODE]);
                let world = Rc::clone(&world);
                let sim = sim.clone();
                async move {
                    let f = mount
                        .open(&sim, "/pinned.dat", OpenFlags::read())
                        .await
                        .unwrap();
                    let mf = MpiFile::open(&sim, world.rank(r), RankFile::Posix(f), hints()).await;
                    for k in 0..ROUNDS {
                        let slot = write_slot(r);
                        let data = Payload::pattern(slot as u64 * 10 + k, PIECE);
                        mf.write_at_all(&sim, slot_offset(k, slot), data)
                            .await
                            .unwrap();
                    }
                    for k in 0..ROUNDS {
                        let (slot, off) = (read_slot(r), slot_offset(k, read_slot(r)));
                        let segs = mf.read_at_all(&sim, off, PIECE).await.unwrap();
                        let got = assemble(&segs, off, PIECE).materialize();
                        let want = Payload::pattern(slot as u64 * 10 + k, PIECE).materialize();
                        assert_eq!(got, want, "rank {r} round {k}: wrong bytes read back");
                    }
                    mf.close(&sim).await;
                }
            })
            .collect();
        join_all(&sim, futs).await;
        let stats = mounts.iter().map(|m| m.stats()).collect();
        (stats, sim.now().as_ns())
    })
}

/// `(fuse_requests, intercepted_ops, bytes_written, bytes_read)`.
fn counters(s: &DfuseStats) -> (u64, u64, u64, u64) {
    (
        s.fuse_requests,
        s.intercepted_ops,
        s.bytes_written,
        s.bytes_read,
    )
}

#[test]
fn collective_cycles_keep_their_request_stream() {
    // the interleaving cycle goes through the aggregators: rank 0 and
    // rank 4, one per node, issue every driver request
    let (stats, now) = cycle(true);
    let got: Vec<_> = stats.iter().map(counters).collect();
    assert_eq!(
        got,
        [(41, 0, 2_539_520, 2_539_520), (36, 0, 2_375_680, 2_375_680)]
    );
    assert_eq!(now, 22_681_060);
    // without interleaving every rank writes and reads its own slot
    let (stats, now) = cycle(false);
    let got: Vec<_> = stats.iter().map(counters).collect();
    assert_eq!(
        got,
        [(25, 0, 2_457_600, 2_457_600), (24, 0, 2_457_600, 2_457_600)]
    );
    assert_eq!(now, 22_634_541);
}
