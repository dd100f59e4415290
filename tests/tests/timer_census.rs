//! The timer census, exact: what `Sim::pending_timers()` reads at a quiet
//! instant does not depend on how many RPCs the cluster has answered.
//! Every data-path RPC runs under a 1 s deadline that is beaten in
//! microseconds; the deadline's `Sleep` is dropped there and then, and a
//! dropped `Sleep` cancels its timer. While a cancelled timer's entry
//! stayed queued until its deadline, the store grew by one entry per RPC
//! ever issued (`ior_rand4k_dfs` ended on 393 216 of them); now its length
//! follows the RPCs in flight.
//!
//! Two numbers are read. `held` is `pending_timers()` as found: the live
//! entries plus the cancelled ones the store has not swept yet. The store
//! (a radix heap of buckets) is swept whenever its cancelled entries
//! outnumber its live ones, so `held` is bounded — at most twice `live` — but where between
//! the two it stands depends on how long ago the last sweep was. `live` is
//! the same reading once a sweep has been forced, and is exact: the
//! cluster's own periodic timers (raft ticks, the parked failure detector,
//! aggregation, scrub), one each, and nothing else.

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use daos_bench::paper_cluster;
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{mdtest, DaosTestbed, MdBackend};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::{timeout, Sim};
use daos_vos::Payload;

/// Ranks issuing RPCs at once.
const RANKS: u64 = 8;
/// Beyond anything these runs simulate: a timer that is never reached.
const NEVER: SimDuration = SimDuration::from_secs(3600);

/// The timer store at a quiet instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Census {
    /// `Sim::pending_timers()` as found.
    held: usize,
    /// The same with the cancelled entries swept out.
    live: usize,
}

/// Let the clock run 5 ms, so that the last op's work is over and the
/// cancelled entries due by then have been popped (an engine's visits to
/// its targets sleep to one instant side by side: the first wake finishes
/// them all). Read the store, then cancel far timers one at a time until
/// one of the cancels must have tipped the store into a sweep (one more
/// than it holds is enough): the lowest reading on the way is the live
/// entries.
async fn census(sim: &Sim) -> Census {
    sim.sleep_ms(5).await;
    let held = sim.pending_timers();
    let mut live = held;
    for _ in 0..=held {
        timeout(sim, NEVER, sim.yield_now()).await;
        live = live.min(sim.pending_timers());
    }
    Census { held, live }
}

/// Every reading must find the same live entries as the first, and never
/// more cancelled ones than live ones.
fn check(readings: &[Census]) -> Result<(), String> {
    for (i, c) in readings.iter().enumerate() {
        if c.live != readings[0].live {
            return Err(format!("reading {i}: {c:?} after {:?}", readings[0]));
        }
        if c.held > 2 * c.live {
            return Err(format!("reading {i}: {c:?} holds more dead than live"));
        }
    }
    Ok(())
}

/// The paper's cluster with the failure detector parked, so that every
/// RPC counted is an op's own.
async fn testbed(sim: &Sim) -> Rc<DaosTestbed> {
    let mut cfg = paper_cluster(2);
    cfg.heartbeat.interval = NEVER;
    let (dfs, dfuse) = (DfsConfig::default(), DfuseConfig::default());
    DaosTestbed::setup(sim, cfg, dfs, dfuse)
        .await
        .expect("testbed")
}

/// Register a timer nobody will ever cancel: a `Sleep` polled once, then
/// forgotten instead of dropped. What every beaten deadline used to be.
async fn forget_a_sleep(sim: &Sim) {
    let mut nap = sim.sleep(NEVER);
    poll_fn(|cx| {
        assert!(Pin::new(&mut nap).poll(cx).is_pending());
        Poll::Ready(())
    })
    .await;
    std::mem::forget(nap);
}

/// 4 KiB writes into one `SX` array from [`RANKS`] ranks, each one RPC
/// under the client's deadline: a census once `marks[0]` of them have
/// been answered and again at `marks[1]`, plus the most entries rank 0
/// ever saw queued. `leak` forgets one sleep between the two.
fn rpc_census(marks: [u64; 2], leak: bool) -> (Vec<Census>, usize) {
    let mut sim = Sim::new(0xCE5);
    sim.block_on(move |sim| async move {
        let env = testbed(&sim).await;
        let arr = env.containers[0]
            .object(ObjectId::new(0xA, 0xCE5), ObjectClass::SX)
            .array(MIB);
        let rpcs = || -> u64 {
            let engines = env.cluster.engines().iter();
            engines.map(|e| e.endpoint().call_count()).sum()
        };
        let (mut done, mut busiest) = (0, 0);
        let mut readings = Vec::new();
        for mark in marks {
            let before = rpcs();
            let ranks = (0..RANKS).map(|r| {
                let (arr, sim) = (arr.clone(), sim.clone());
                async move {
                    let mut busiest = 0;
                    for i in (done + r..mark).step_by(RANKS as usize) {
                        let data = Payload::pattern(i, 4 * KIB);
                        arr.write(&sim, i * 4 * KIB, data).await.expect("write");
                        busiest = busiest.max(sim.pending_timers());
                    }
                    busiest
                }
            });
            let seen = join_all(&sim, ranks.collect()).await;
            busiest = busiest.max(seen[0]);
            assert_eq!(rpcs() - before, mark - done, "one RPC per write");
            done = mark;
            readings.push(census(&sim).await);
            if leak {
                forget_a_sleep(&sim).await;
            }
        }
        (readings, busiest)
    })
}

#[test]
fn answered_rpcs_leave_no_timer_behind() {
    let (readings, busiest) = rpc_census([1_000, 100_000], false);
    check(&readings).unwrap_or_else(|e| panic!("{e}"));
    // in flight, each rank holds its deadline and the one sleep its RPC
    // is in (a wire leg, or its handler's CPU or media time)
    let live = readings[0].live + 2 * RANKS as usize;
    assert!(busiest <= 2 * live, "{busiest} queued beside {live} live");
}

#[test]
fn a_metadata_storm_leaves_no_timer_behind() {
    let mut sim = Sim::new(0xCE5);
    let readings = sim.block_on(|sim| async move {
        let env = testbed(&sim).await;
        let before = census(&sim).await;
        mdtest(&sim, &env, MdBackend::Dfuse, 4, 16)
            .await
            .expect("create / stat / unlink storm");
        [before, census(&sim).await]
    });
    check(&readings).unwrap_or_else(|e| panic!("{e}"));
}

/// Planted negative: one registered `Sleep` that is never dropped — the
/// parent commit's every beaten deadline — must not pass the check.
#[test]
fn a_forgotten_sleep_fails_the_census() {
    let (readings, _) = rpc_census([1_000, 2_000], true);
    let verdict = check(&readings);
    assert!(
        verdict.as_ref().is_err_and(|e| e.starts_with("reading 1")),
        "{verdict:?} for {readings:?}"
    );
}
