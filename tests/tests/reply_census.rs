//! The reply-slot census, exact: an RPC endpoint holds one reply slot per
//! call awaiting its response, taken from a slab the endpoint owns, and
//! gives it back however the call ends — answered, dropped at its
//! deadline, or orphaned by a server that dropped the request. What
//! `Endpoint::replies_held()` reads is therefore the calls in flight and
//! nothing else: zero at a quiet instant after 1 000 RPCs and after
//! 100 000, the calls queued at an engine at the moment it crashes, and
//! zero again once their callers have given up. A reply that arrives after
//! its caller gave up is dropped, even when the slot already has a new
//! tenant, who still gets its own reply.

use std::future::{poll_fn, Future};
use std::rc::Rc;
use std::task::Poll;

use daos_bench::paper_cluster;
use daos_core::{DaosClient, Request};
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_fabric::{CallError, Endpoint, Fabric, FabricConfig};
use daos_ior::DaosTestbed;
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

/// Ranks issuing RPCs at once.
const RANKS: u64 = 8;

/// The paper's cluster with the failure detector parked, so that every
/// RPC an engine receives is an op's own.
async fn testbed(sim: &Sim) -> Rc<DaosTestbed> {
    let mut cfg = paper_cluster(2);
    cfg.heartbeat.interval = SimDuration::from_secs(3600);
    let (dfs, dfuse) = (DfsConfig::default(), DfuseConfig::default());
    DaosTestbed::setup(sim, cfg, dfs, dfuse)
        .await
        .expect("testbed")
}

/// Reply slots every engine endpoint of `env` holds.
fn held(env: &DaosTestbed) -> usize {
    let engines = env.cluster.engines().iter();
    engines.map(|e| e.endpoint().replies_held()).sum()
}

/// Start a call and forget it instead of dropping it: a receiver that is
/// never dropped holds its slot for ever.
async fn forget_a_call(sim: &Sim, env: &DaosTestbed) {
    let client = DaosClient::new(Rc::clone(&env.cluster), 0);
    let mut call = Box::pin(client.call_deadline(
        sim,
        0,
        Request::QueryEpoch {
            targets: vec![0].into(),
        },
    ));
    // the request's wire leg first: the slot is taken when it arrives
    for _ in 0..1_000 {
        let pending = poll_fn(|cx| Poll::Ready(call.as_mut().poll(cx).is_pending())).await;
        assert!(pending, "the forgotten call must not complete");
        if held(env) > 0 {
            break;
        }
        sim.sleep_ns(100).await;
    }
    std::mem::forget(call);
}

/// 4 KiB writes into one `SX` array from [`RANKS`] ranks, each one RPC:
/// the slots held at a quiet instant once `marks[0]` of them have been
/// answered and again at `marks[1]`, plus the most held that any rank saw.
/// `leak` forgets one call between the two.
fn census(marks: [u64; 2], leak: bool) -> (Vec<usize>, usize) {
    let mut sim = Sim::new(0x5107);
    sim.block_on(move |sim| async move {
        let env = testbed(&sim).await;
        let arr = env.containers[0]
            .object(ObjectId::new(0xB, 0x5107), ObjectClass::SX)
            .array(MIB);
        let (mut done, mut busiest) = (0, 0);
        let mut readings = Vec::new();
        for mark in marks {
            let ranks = (0..RANKS).map(|r| {
                let (arr, sim, env) = (arr.clone(), sim.clone(), Rc::clone(&env));
                async move {
                    let mut busiest = 0;
                    for i in (done + r..mark).step_by(RANKS as usize) {
                        let data = Payload::pattern(i, 4 * KIB);
                        arr.write(&sim, i * 4 * KIB, data).await.expect("write");
                        busiest = busiest.max(held(&env));
                    }
                    busiest
                }
            });
            let seen = join_all(&sim, ranks.collect()).await;
            busiest = seen.into_iter().fold(busiest, usize::max);
            done = mark;
            sim.sleep_ms(5).await;
            readings.push(held(&env));
            if leak {
                forget_a_call(&sim, &env).await;
            }
        }
        (readings, busiest)
    })
}

#[test]
fn answered_rpcs_hold_no_reply_slot() {
    let (readings, busiest) = census([1_000, 100_000], false);
    assert_eq!(readings, [0, 0], "nothing is in flight at a quiet instant");
    // a rank samples right after its own write returned: at most the
    // other ranks' calls are in flight
    assert!(
        busiest < RANKS as usize,
        "{busiest} held beside {RANKS} ranks"
    );
}

/// Planted negative: one call whose receiver is never dropped — what an
/// `Rc` block left behind by a forgotten future would be — must show.
#[test]
fn a_forgotten_call_fails_the_census() {
    let (readings, _) = census([1_000, 2_000], true);
    assert_eq!(readings, [0, 1]);
}

/// An engine that crashes with requests queued drops their responders:
/// until then each holds a slot, and every one is back once the callers
/// have seen their calls fail.
#[test]
fn a_crash_leaves_no_reply_slot_behind() {
    // header-only, so all arrive at once and queue at one xstream
    const CALLS: usize = 12;
    let mut sim = Sim::new(0x5108);
    sim.block_on(move |sim| async move {
        let env = testbed(&sim).await;
        let engine = Rc::clone(env.cluster.engine(1));
        let before = engine.endpoint().call_count();
        let calls: Vec<_> = (0..CALLS)
            .map(|_| {
                let client = DaosClient::new(Rc::clone(&env.cluster), 0);
                let s = sim.clone();
                let req = Request::QueryEpoch {
                    targets: vec![0].into(),
                };
                sim.spawn(async move { client.call_deadline(&s, 1, req).await })
            })
            .collect();
        while engine.endpoint().replies_held() < CALLS {
            sim.sleep_ns(100).await;
        }
        let calls_in = engine.endpoint().call_count() - before;
        assert_eq!(
            calls_in, CALLS as u64,
            "every slot held is one of these calls"
        );
        engine.crash();
        let failed = join_all(&sim, calls).await;
        assert!(failed.iter().all(Result::is_err), "{failed:?}");
        assert_eq!(engine.endpoint().replies_held(), 0);
        engine.restart();
    });
}

/// A call dropped at its deadline gives its slot back at once; the reply
/// the server sends it later is dropped, though the slot has been let to
/// the next call by then, which gets its own reply.
#[test]
fn a_late_reply_does_not_reach_the_next_tenant() {
    let mut sim = Sim::new(0x5109);
    sim.block_on(|sim| async move {
        let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Fabric::new(2, FabricConfig::default()), 1);
        // hold the first request until the second is in, then answer both
        let (server, s) = (Rc::clone(&ep), sim.clone());
        sim.spawn_detached(async move {
            let first = server.serve().await.expect("first");
            let second = server.serve().await.expect("second");
            let (a, b) = (first.req * 10, second.req * 10);
            first.respond(a, 0);
            // the late reply alone, for as long as its wire leg takes
            s.sleep_us(10).await;
            second.respond(b, 0);
        });
        let deadline = SimDuration::from_us(50);
        let early = ep.call_deadline(&sim, 0, 1, 0, deadline).await;
        assert_eq!(early, Err(CallError::Timeout));
        assert_eq!(ep.replies_held(), 0, "the call gave its slot back");
        let next = ep.call_deadline(&sim, 0, 2, 0, deadline).await;
        assert_eq!(next, Ok(20), "its own reply, not the late 10");
        assert_eq!(ep.replies_held(), 0);
    });
}

/// The same for a server that drops a request without answering: its
/// caller sees the connection reset and holds nothing.
#[test]
fn a_dropped_request_leaves_no_reply_slot() {
    let mut sim = Sim::new(0x510A);
    sim.block_on(|sim| async move {
        let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Fabric::new(2, FabricConfig::default()), 1);
        let server = Rc::clone(&ep);
        sim.spawn_detached(async move { drop(server.serve().await) });
        let deadline = SimDuration::from_secs(1);
        let reset = ep.call_deadline(&sim, 0, 1, 0, deadline).await;
        assert_eq!(reset, Err(CallError::Closed));
        assert_eq!(ep.replies_held(), 0);
    });
}
