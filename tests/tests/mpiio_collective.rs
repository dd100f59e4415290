//! Two-phase (collective-buffering) MPI-IO over the full stack. ROMIO's
//! automatic rule is the only rule: a collective call aggregates exactly
//! when its ranges interleave in rank order. Each rank here has a DFuse
//! mount of its own, so a mount's request counter is one rank's driver
//! I/O: a call aggregated when no rank but the two aggregators (one per
//! node) issued a request. Every byte is verified either way.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_mpi::MpiWorld;
use daos_mpiio::{assemble, Hints, MpiFile, RankFile};
use daos_placement::ObjectClass;
use daos_sim::executor::join_all;
use daos_sim::units::KIB;
use daos_sim::Sim;
use daos_vos::Payload;

const RANKS: usize = 8;
const PER_NODE: usize = 4;
/// The lowest rank on each node.
const AGGREGATORS: [usize; 2] = [0, 4];
const ROUNDS: u64 = 3;
/// Not a multiple of `cb_buffer`: pieces straddle file domains and the
/// aggregators' `cb_buffer` cuts.
const PIECE: u64 = 96 * KIB;
const CB_BUFFER: u64 = 256 * KIB;
const SPAN: u64 = ROUNDS * RANKS as u64 * PIECE;

/// Who touches which slot of a round.
#[derive(Clone, Copy)]
enum Pattern {
    /// Rank `r` writes slot `RANKS - 1 - r` and reads the slot rank
    /// `r + 3` wrote: both interleave in rank order.
    Reverse,
    /// Rank `r` writes and reads slot `r`: ascending, never interleaved.
    Forward,
}

impl Pattern {
    fn write_slot(self, r: usize) -> usize {
        match self {
            Pattern::Reverse => RANKS - 1 - r,
            Pattern::Forward => r,
        }
    }
    fn read_slot(self, r: usize) -> usize {
        match self {
            Pattern::Reverse => self.write_slot((r + 3) % RANKS),
            Pattern::Forward => r,
        }
    }
}

/// How the ranks move their data.
#[derive(Clone, Copy)]
enum Io {
    /// `write_at_all` / `read_at_all`.
    Collective,
    /// `write_at` / `read_at`: a plan that never aggregates.
    Independent,
}

fn offset(k: u64, slot: usize) -> u64 {
    (k * RANKS as u64 + slot as u64) * PIECE
}

fn data(k: u64, slot: usize) -> Payload {
    Payload::pattern(slot as u64 * 100 + k, PIECE)
}

/// One write + read cycle: `requests[call][rank]` is the FUSE requests
/// rank `rank` issued during call `call` (writes, then reads), and `file`
/// the bytes of the whole file afterwards.
struct Cycle {
    requests: Vec<Vec<u64>>,
    file: Vec<u8>,
}

/// Run `ROUNDS` writes then `ROUNDS` reads, verifying every byte read.
fn cycle(pattern: Pattern, io: Io) -> Cycle {
    let mut sim = Sim::new(0xCB0);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(2));
        let mut dfs = Vec::new();
        for i in 0..2 {
            let client = DaosClient::new(Rc::clone(&cluster), i);
            let pool = client.connect(&sim).await.unwrap();
            let cont = pool.open_or_create(&sim, 1).await.unwrap();
            let fs = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
            dfs.push(fs);
        }
        let mounts: Vec<_> = (0..RANKS)
            .map(|r| DfuseMount::new(Rc::clone(&dfs[r / PER_NODE]), DfuseConfig::default()))
            .collect();
        mounts[0]
            .open(&sim, "/coll.dat", OpenFlags::create_with(ObjectClass::SX))
            .await
            .unwrap();
        let world = MpiWorld::new(
            Rc::clone(&cluster.fabric),
            (0..RANKS)
                .map(|r| cluster.client_node((r / PER_NODE) as u32))
                .collect(),
        );
        let hints = Hints {
            cb_buffer: CB_BUFFER,
        };
        let futs: Vec<_> = (0..RANKS)
            .map(|r| {
                let mount = Rc::clone(&mounts[r]);
                let world = Rc::clone(&world);
                let sim = sim.clone();
                async move {
                    let f = mount
                        .open(&sim, "/coll.dat", OpenFlags::read())
                        .await
                        .unwrap();
                    let mf = MpiFile::open(&sim, world.rank(r), RankFile::Posix(f), hints).await;
                    let mut requests = Vec::new();
                    let issued = || mount.stats().fuse_requests;
                    for k in 0..ROUNDS {
                        let slot = pattern.write_slot(r);
                        let (off, before) = (offset(k, slot), issued());
                        match io {
                            Io::Collective => mf.write_at_all(&sim, off, data(k, slot)).await,
                            Io::Independent => mf.write_at(&sim, off, data(k, slot)).await,
                        }
                        .unwrap();
                        requests.push(issued() - before);
                    }
                    for k in 0..ROUNDS {
                        let slot = pattern.read_slot(r);
                        let (off, before) = (offset(k, slot), issued());
                        let segs = match io {
                            Io::Collective => mf.read_at_all(&sim, off, PIECE).await,
                            Io::Independent => mf.read_at(&sim, off, PIECE).await,
                        }
                        .unwrap();
                        requests.push(issued() - before);
                        let got = assemble(&segs, off, PIECE).materialize();
                        let want = data(k, slot).materialize();
                        assert_eq!(got, want, "rank {r} round {k}: corrupt data");
                    }
                    mf.close(&sim).await;
                    requests
                }
            })
            .collect();
        let by_rank = join_all(&sim, futs).await;
        let requests = (0..2 * ROUNDS as usize)
            .map(|call| by_rank.iter().map(|calls| calls[call]).collect())
            .collect();
        let f = mounts[0]
            .open(&sim, "/coll.dat", OpenFlags::read())
            .await
            .unwrap();
        let file = f.pread_bytes(&sim, 0, SPAN).await.unwrap();
        Cycle { requests, file }
    })
}

/// Every call aggregated (`expected`) or none did; the file holds every
/// slot's bytes.
fn check(c: &Cycle, pattern: Pattern, expected: bool) {
    for (call, reqs) in c.requests.iter().enumerate() {
        let aggregated = (0..RANKS).all(|r| AGGREGATORS.contains(&r) || reqs[r] == 0);
        assert_eq!(
            aggregated, expected,
            "call {call}: aggregated {aggregated}, FUSE requests per rank {reqs:?}"
        );
        assert!(reqs.iter().any(|&n| n > 0), "call {call} did no I/O");
    }
    for k in 0..ROUNDS {
        for r in 0..RANKS {
            let slot = pattern.write_slot(r);
            let at = offset(k, slot) as usize;
            let want = data(k, slot).materialize();
            assert_eq!(
                &c.file[at..at + PIECE as usize],
                &want[..],
                "round {k} slot {slot}"
            );
        }
    }
}

#[test]
fn collective_buffering_auto_engages_on_interleave_and_is_correct() {
    let c = cycle(Pattern::Reverse, Io::Collective);
    check(&c, Pattern::Reverse, true);
}

#[test]
fn collective_io_without_interleave_is_independent_and_correct() {
    let c = cycle(Pattern::Forward, Io::Collective);
    check(&c, Pattern::Forward, false);
}

#[test]
fn collective_and_independent_results_agree() {
    for pattern in [Pattern::Reverse, Pattern::Forward] {
        let coll = cycle(pattern, Io::Collective);
        let ind = cycle(pattern, Io::Independent);
        assert!(coll.file == ind.file, "the two files differ");
    }
}

/// The planted negative: the same interleaving cycle through a plan that
/// never aggregates must fail the check.
#[test]
#[should_panic(expected = "aggregated false")]
fn a_plan_that_never_aggregates_fails_the_check() {
    let c = cycle(Pattern::Reverse, Io::Independent);
    check(&c, Pattern::Reverse, true);
}
