//! A collective round's buffers: a warm client routes an object-wide op
//! in buffers earlier rounds left, and never rewrites a target list a
//! request still holds.

use std::cell::RefCell;
use std::rc::Rc;

use daos_placement::{place, ObjectClass, ObjectId};
use daos_sim::time::SimDuration;
use daos_sim::units::KIB;
use daos_sim::{join_inline, Sim};
use daos_vos::Payload;

use super::spares::SpareList;
use super::{ContainerHandle, DaosClient, RetryPolicy};
use crate::proto::{array_akey, Request, Response, TargetRun};
use crate::{Cluster, ClusterConfig};

const CHUNK: u64 = 4 * KIB;

/// A tiny cluster whose failure detector is parked, so a crashed engine is
/// never excluded and the pool map never moves.
fn quiet() -> ClusterConfig {
    let mut cfg = ClusterConfig::tiny(1);
    cfg.heartbeat.interval = SimDuration::from_secs(3600);
    cfg
}

async fn container(sim: &Sim, client: &DaosClient) -> ContainerHandle {
    let pool = client.connect(sim).await.expect("connect");
    pool.open_or_create(sim, 1).await.expect("container")
}

/// The addresses of the entries in `list`, which is left as it was.
fn addresses<T>(list: &SpareList<T>, addr: impl Fn(&T) -> usize) -> Vec<usize> {
    let mut taken = Vec::new();
    while let Some(spare) = list.take() {
        taken.push(spare);
    }
    let mut addrs: Vec<usize> = taken.iter().map(addr).collect();
    for spare in taken.into_iter().rev() {
        list.keep(spare);
    }
    addrs.sort_unstable();
    addrs
}

/// The client's spare placements, routing buffers and target lists.
fn spares(client: &DaosClient) -> [Vec<usize>; 3] {
    let spares = &client.spares;
    [
        addresses(&spares.placed, |p| Rc::as_ptr(p) as usize),
        addresses(&spares.routed, |r| r.as_ptr() as usize),
        addresses(&spares.targets, |t| Rc::as_ptr(t) as *const u32 as usize),
    ]
}

const RANKS: u32 = 4;

/// Files `files` by [`RANKS`] concurrent ranks, each rank its share one
/// after another, in the three mdtest phases: create (one chunk written),
/// stat (its size, a collective) and unlink (punch, a collective). Every
/// op opens its handle anew, as DFS does.
async fn storm(sim: &Sim, cont: &ContainerHandle, files: std::ops::Range<u64>) {
    let open = |i| cont.object(ObjectId::new(0x57, i), ObjectClass::SX);
    let (open, files) = (&open, &files);
    let phase = |step: u8| {
        join_inline((0..RANKS).map(move |rank| {
            let mine = files
                .clone()
                .filter(move |i| i % RANKS as u64 == rank as u64);
            async move {
                for i in mine {
                    let file = open(i).array(CHUNK);
                    match step {
                        0 => file.write(sim, 0, Payload::pattern(i, CHUNK)).await,
                        1 => file.size(sim).await.map(|size| assert_eq!(size, CHUNK)),
                        _ => open(i).punch(sim).await,
                    }
                    .expect("mdtest op");
                }
            }
        }))
    };
    for step in 0..3 {
        phase(step).await.for_each(drop);
    }
}

/// A warm client stats and unlinks `SX` files with no new placement,
/// routing buffer or target list: every one it uses it took from the
/// spares the warm-up left, and gave back.
#[test]
fn a_warm_client_runs_a_metadata_storm_in_its_spares() {
    let mut sim = Sim::new(0x5A3);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, quiet());
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let cont = container(&sim, &client).await;
        storm(&sim, &cont, 0..4 * RANKS as u64).await;
        let warm = spares(&client);
        for (kind, spare) in ["placements", "routing buffers", "target lists"]
            .iter()
            .zip(&warm)
        {
            assert!(!spare.is_empty(), "no spare {kind} after the warm-up");
        }
        storm(&sim, &cont, 100..100 + 25 * RANKS as u64).await;
        assert_eq!(spares(&client), warm, "the storm allocated its own");
    });
}

/// An object on both engines whose local targets, in shard order, differ
/// between the engines, so a round that routes only one engine's shards
/// writes other targets into a list than a round that routed both.
fn skewed_oid(cfg: &ClusterConfig, cluster: &Cluster) -> ObjectId {
    let tpe = cfg.targets_per_engine;
    let map = cluster.pool_map();
    let locals = |oid, engine| -> Vec<u32> {
        let layout = place(oid, ObjectClass::SX, &map);
        let on_engine = (0..layout.width()).map(|s| layout.target_of(s));
        on_engine
            .filter(|t| t / tpe == engine)
            .map(|t| t % tpe)
            .collect()
    };
    let skewed = |&oid: &ObjectId| locals(oid, 0) != locals(oid, 1);
    let mut oids = (0..).map(|lo| ObjectId::new(0x1157, lo));
    oids.find(skewed).expect("some rotation is skewed")
}

/// A crashed engine keeps serving a `size` call that timed out, so the
/// round's target list comes back to the spares still held by that
/// request, and the retry rounds that follow must route in new lists. The
/// engine copies a request's targets when its visit starts; what a rewrite
/// would corrupt is the list as the request carries it, so the test keeps
/// every request's run as the request does and checks that each still
/// reads what was sent. And the op's answer, and every byte, are right.
#[test]
fn a_target_list_a_request_still_holds_is_never_rewritten() {
    let mut sim = Sim::new(0x5A4);
    sim.block_on(|sim| async move {
        let mut cfg = quiet();
        cfg.engine.rpc_cpu = SimDuration::from_ms(1);
        let cluster = Cluster::build(&sim, cfg);
        let quick = RetryPolicy {
            rpc_timeout: SimDuration::from_ms(3),
            ..RetryPolicy::default()
        };
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_retry(quick);
        let cont = container(&sim, &client).await;
        let oid = skewed_oid(&cfg, &cluster);
        let obj = cont.object(oid, ObjectClass::SX);
        let (width, arr) = (obj.width() as u64, obj.array(CHUNK));
        let data = Payload::pattern(0x5A4, width * CHUNK);
        arr.write(&sim, 0, data.clone()).await.expect("write");

        // every xstream of engine 1 busy for 6 ms, then the crash: the
        // first round's call there is admitted, served and swallowed
        let other = DaosClient::new(Rc::clone(&cluster), 0);
        let engine = Rc::clone(cluster.engine(1));
        let blockers: Vec<_> = (0..6 * cfg.targets_per_engine)
            .map(|i| {
                let (other, sim) = (other.clone(), sim.clone());
                let busy = Request::ArrayMaxChunk {
                    targets: vec![i % cfg.targets_per_engine].into(),
                    cont: 1,
                    oid,
                    akey: array_akey(),
                };
                sim.clone()
                    .spawn(async move { other.call_deadline(&sim, 1, busy).await })
            })
            .collect();
        let sent = RefCell::new(Vec::new());
        let build = |targets: TargetRun| {
            sent.borrow_mut().push((targets.to_vec(), targets.clone()));
            Request::ArrayMaxChunk {
                targets,
                cont: 1,
                oid,
                akey: array_akey(),
            }
        };
        let busy = engine.admission_stats().admitted + 7 * cfg.targets_per_engine as u64;
        let crash = {
            let (engine, sim) = (Rc::clone(&engine), sim.clone());
            sim.clone().spawn(async move {
                while engine.admission_stats().admitted < busy {
                    sim.sleep_us(10).await;
                }
                engine.crash();
                sim.sleep(SimDuration::from_ms(4)).await;
                engine.restart();
            })
        };
        let none = Response::MaxChunk(None);
        let highest = obj.per_engine(&sim, 0..obj.width(), build, none).await;
        assert!(
            matches!(highest, Ok(Response::MaxChunk(Some(_)))),
            "{highest:?}"
        );
        crash.await;
        for h in blockers {
            h.await.ok();
        }

        let sent = sent.into_inner();
        assert!(sent.len() > 2, "the crash forced no retry round: {sent:?}");
        for (targets, run) in &sent {
            assert_eq!(targets[..], run[..], "a held list was rewritten");
        }
        drop(sent);
        assert_eq!(arr.size(&sim).await.expect("size"), width * CHUNK);
        let back = arr.read_bytes(&sim, 0, width * CHUNK).await.expect("read");
        assert!(
            back[..] == data.materialize()[..],
            "a byte did not read back"
        );
    });
}
