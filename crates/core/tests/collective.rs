//! Object-wide ops (`punch`, `size`, `list_dkeys`, array `punch`,
//! `snapshot`) are addressed to engines, not targets: one RPC per engine
//! holding a shard, whose handler visits every listed target inside its
//! own task. What must not change is everything *per target*: each visit
//! is refused, admitted, billed, queued and served exactly as a request of
//! its own would be.

use std::future::Future;
use std::rc::Rc;

use daos_core::proto::{array_akey, chunk_of_dkey};
use daos_core::{
    Cluster, ClusterConfig, ContainerHandle, DaosClient, DaosError, QosClass, QosParams, Request,
    Response,
};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::units::KIB;
use daos_sim::Sim;
use daos_vos::Payload;

const CHUNK: u64 = 4 * KIB;
const OID: ObjectId = ObjectId { hi: 0xC0, lo: 0x11 };

/// `cfg` with the failure detector parked, so every RPC an endpoint
/// counts is the test's own and a crashed engine is never excluded.
fn quiet(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.heartbeat.interval = SimDuration::from_secs(3600);
    cfg
}

async fn container(sim: &Sim, cluster: &Rc<Cluster>, tenant: u8) -> ContainerHandle {
    let client = DaosClient::new(Rc::clone(cluster), 0).with_tenant(tenant);
    let pool = client.connect(sim).await.unwrap();
    pool.open_or_create(sim, 1).await.unwrap()
}

fn admitted(cluster: &Cluster) -> u64 {
    let engines = cluster.engines().iter();
    engines.map(|e| e.admission_stats().admitted).sum()
}

/// Run `op`; returns its output, the RPCs each engine received for it and
/// the data-plane requests the cluster admitted for it.
async fn cost<T>(cluster: &Cluster, op: impl Future<Output = T>) -> (T, Vec<u64>, u64) {
    let calls = |c: &Cluster| -> Vec<u64> {
        let engines = c.engines().iter();
        engines.map(|e| e.endpoint().call_count()).collect()
    };
    let (rpcs, adm) = (calls(cluster), admitted(cluster));
    let out = op.await;
    let rpcs = calls(cluster).into_iter().zip(rpcs).map(|(a, b)| a - b);
    (out, rpcs.collect(), admitted(cluster) - adm)
}

/// All of one engine's targets, as an object-wide op lists them.
fn all_targets(cfg: &ClusterConfig) -> Vec<u32> {
    (0..cfg.targets_per_engine).collect()
}

fn punch_all(cfg: &ClusterConfig, oid: ObjectId) -> Request {
    Request::PunchObject {
        targets: all_targets(cfg).into(),
        cont: 1,
        oid,
    }
}

#[test]
fn one_rpc_per_engine_and_one_admission_per_shard() {
    for cfg in [ClusterConfig::tiny(1), ClusterConfig::nextgenio(1)] {
        let mut sim = Sim::new(0xC01);
        sim.block_on(move |sim| async move {
            let cluster = Cluster::build(&sim, quiet(cfg));
            let cont = container(&sim, &cluster, 0).await;
            let engines = cfg.engine_count() as usize;
            let width = cfg.engine_count() as u64 * cfg.targets_per_engine as u64;

            let wide = cont.object(OID, ObjectClass::SX);
            assert_eq!(wide.layout().width() as u64, width);
            let arr = wide.array(CHUNK);
            let len = 3 * width * CHUNK;
            arr.write(&sim, 0, Payload::pattern(1, len)).await.unwrap();

            let once_each = vec![1u64; engines];
            let (size, rpcs, adm) = cost(&cluster, arr.size(&sim)).await;
            assert_eq!(size.unwrap(), len);
            assert_eq!((rpcs, adm), (once_each.clone(), width), "size");

            let (keys, rpcs, adm) = cost(&cluster, wide.list_dkeys(&sim)).await;
            assert_eq!(keys.unwrap().len() as u64, 3 * width);
            assert_eq!((rpcs, adm), (once_each.clone(), width), "list_dkeys");

            let (epoch, rpcs, adm) = cost(&cluster, cont.snapshot(&sim)).await;
            assert!(epoch.unwrap() > 0);
            assert_eq!((rpcs, adm), (once_each.clone(), width), "snapshot");

            let (punched, rpcs, adm) = cost(&cluster, wide.punch(&sim)).await;
            punched.unwrap();
            assert_eq!((rpcs, adm), (once_each, width), "punch");
            assert_eq!(arr.size(&sim).await.unwrap(), 0);

            // the same calls on a one-shard object: the path is chosen by
            // the layout, and here it is one engine, one target
            let narrow = cont.object(ObjectId::new(0xC0, 0x12), ObjectClass::S1);
            let arr = narrow.array(CHUNK);
            arr.write(&sim, 0, Payload::pattern(2, CHUNK))
                .await
                .unwrap();
            let (size, rpcs, adm) = cost(&cluster, arr.size(&sim)).await;
            assert_eq!(size.unwrap(), CHUNK);
            assert_eq!((rpcs.iter().sum::<u64>(), adm), (1, 1), "S1 size");
            let (punched, rpcs, adm) = cost(&cluster, narrow.punch(&sim)).await;
            punched.unwrap();
            assert_eq!((rpcs.iter().sum::<u64>(), adm), (1, 1), "S1 punch");
        });
    }
}

/// An engine answers `size` with the highest chunk among the targets it
/// visited and the client takes the highest across engines, so the answer
/// must not depend on where the last chunk lives: walk it across the
/// shards and check every stop, then truncate back down.
#[test]
fn size_finds_the_last_chunk_wherever_it_lives() {
    let mut sim = Sim::new(0xC02);
    sim.block_on(|sim| async move {
        let cfg = ClusterConfig::tiny(1);
        let cluster = Cluster::build(&sim, quiet(cfg));
        let cont = container(&sim, &cluster, 0).await;
        let arr = cont.object(OID, ObjectClass::SX).array(CHUNK);

        // where a chunk landed, asked of each target on its own
        let home_of = |chunk: u64| {
            let (cluster, sim) = (Rc::clone(&cluster), sim.clone());
            async move {
                let client = DaosClient::new(Rc::clone(&cluster), 0);
                for engine in 0..cfg.engine_count() {
                    for target in 0..cfg.targets_per_engine {
                        let probe = Request::ArrayMaxChunk {
                            targets: vec![target].into(),
                            cont: 1,
                            oid: OID,
                            akey: array_akey(),
                        };
                        match client.call_deadline(&sim, engine, probe).await {
                            Ok(Response::MaxChunk(Some((dkey, _))))
                                if chunk_of_dkey(&dkey) == Some(chunk) =>
                            {
                                return (engine, target);
                            }
                            Ok(Response::MaxChunk(_)) => {}
                            other => panic!("probe of {engine}.{target}: {other:?}"),
                        }
                    }
                }
                panic!("chunk {chunk} is on no target");
            }
        };

        let mut homes = std::collections::BTreeSet::new();
        for chunk in 0..24u64 {
            // one byte short of the chunk's end: the size within the
            // chunk matters, not only which chunk it is
            let end = (chunk + 1) * CHUNK - 1;
            arr.write(&sim, end - 1, Payload::pattern(chunk, 1))
                .await
                .unwrap();
            assert_eq!(arr.size(&sim).await.unwrap(), end, "chunk {chunk}");
            homes.insert(home_of(chunk).await);
        }
        // an engine has one lead target per object, so three homes on the
        // second engine include at least two non-lead ones
        let on_second = homes.iter().filter(|&&(engine, _)| engine == 1).count();
        assert!(on_second >= 3, "the walk must cover engine 1: {homes:?}");

        // truncate into the middle of chunk 5: every later chunk reads
        // empty on whatever target holds it
        let cut = 5 * CHUNK + 100;
        arr.punch(&sim, cut, 24 * CHUNK - cut).await.unwrap();
        assert_eq!(arr.size(&sim).await.unwrap(), 5 * CHUNK - 1);
        arr.write(&sim, cut - 1, Payload::pattern(3, 1))
            .await
            .unwrap();
        assert_eq!(arr.size(&sim).await.unwrap(), cut);
    });
}

/// A visit is refused exactly like a request of its own — and one refusal
/// is the whole op's answer, the first in target order.
#[test]
fn one_refusing_target_answers_for_the_whole_op() {
    let mut sim = Sim::new(0xC03);
    sim.block_on(|sim| async move {
        // an excluded target: StaleMap, while its neighbours are served
        let cfg = quiet(ClusterConfig::tiny(1));
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        client.connect(&sim).await.unwrap();
        let gossip = Request::Ping {
            version: 2,
            excluded: vec![2],
        };
        client.call_deadline(&sim, 1, gossip).await.unwrap();
        let (rsp, _, adm) = cost(
            &cluster,
            client.call_deadline(&sim, 1, punch_all(&cfg, OID)),
        )
        .await;
        assert!(
            matches!(rsp, Ok(Response::Err(DaosError::StaleMap { version: 2 }))),
            "{rsp:?}"
        );
        assert_eq!(adm, 3, "targets 0, 1 and 3 were admitted and punched");

        // queue_cap = 0: every visit is shed, nothing is admitted
        let mut shut = cfg;
        shut.engine.queue_cap = Some(0);
        let cluster = Cluster::build(&sim, shut);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        client.connect(&sim).await.unwrap();
        let (rsp, _, adm) = cost(
            &cluster,
            client.call_deadline(&sim, 1, punch_all(&cfg, OID)),
        )
        .await;
        assert!(
            matches!(rsp, Ok(Response::Err(DaosError::Busy { queued: 0 }))),
            "{rsp:?}"
        );
        let stats = cluster.engine(1).admission_stats();
        assert_eq!((adm, stats.shed_queue), (0, 4));

        // queue_cap = 1 with one xstream busy: that visit alone is shed
        let mut tight = cfg;
        tight.engine.queue_cap = Some(1);
        tight.engine.rpc_cpu = SimDuration::from_ms(1);
        let cluster = Cluster::build(&sim, tight);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        client.connect(&sim).await.unwrap();
        let busy = {
            let (client, sim) = (client.clone(), sim.clone());
            let hold = Request::QueryEpoch {
                targets: vec![2].into(),
            };
            sim.clone()
                .spawn(async move { client.call_deadline(&sim, 1, hold).await })
        };
        while admitted(&cluster) == 0 {
            sim.sleep_us(1).await;
        }
        let (rsp, _, adm) = cost(
            &cluster,
            client.call_deadline(&sim, 1, punch_all(&cfg, OID)),
        )
        .await;
        assert!(
            matches!(rsp, Ok(Response::Err(DaosError::Busy { queued: 1 }))),
            "{rsp:?}"
        );
        let stats = cluster.engine(1).admission_stats();
        assert_eq!((adm, stats.shed_queue), (3, 1), "only target 2 refused");
        assert!(matches!(busy.await, Ok(Response::Epoch(_))));
    });
}

/// Run `op` while engine 1's target 2 is held busy, so that under a
/// `queue_cap` of one the op's visit there is shed once: it must take one
/// RPC to engine 0 and two to engine 1.
async fn with_one_shed<T>(sim: &Sim, cluster: &Rc<Cluster>, op: impl Future<Output = T>) -> T {
    let client = DaosClient::new(Rc::clone(cluster), 0);
    let before = admitted(cluster);
    let held = sim.spawn({
        let (client, sim) = (client.clone(), sim.clone());
        let hold = Request::QueryEpoch {
            targets: vec![2].into(),
        };
        async move { client.call_deadline(&sim, 1, hold).await }
    });
    while admitted(cluster) == before {
        sim.sleep_us(1).await;
    }
    let shed = cluster.engine(1).admission_stats().shed_queue;
    let (out, rpcs, _) = cost(cluster, op).await;
    assert_eq!(cluster.engine(1).admission_stats().shed_queue, shed + 1);
    assert!(matches!(held.await, Ok(Response::Epoch(_))));
    assert_eq!(rpcs, [1, 2], "the retry round asks engine 1 alone");
    out
}

/// Object-wide ops ride the client's retry loop: with one engine shedding
/// a visit, the op still completes, and its second round goes to that
/// engine alone — the other engine's answer is kept, not asked for again.
#[test]
fn a_retry_round_asks_only_the_engine_that_shed() {
    let mut sim = Sim::new(0xC07);
    sim.block_on(|sim| async move {
        let mut cfg = quiet(ClusterConfig::tiny(1));
        cfg.engine.queue_cap = Some(1);
        cfg.engine.rpc_cpu = SimDuration::from_ms(1);
        let cluster = Cluster::build(&sim, cfg);
        let cont = container(&sim, &cluster, 0).await;
        let wide = cont.object(OID, ObjectClass::SX);
        let arr = wide.array(CHUNK);
        let len = 2 * wide.layout().width() as u64 * CHUNK;
        arr.write(&sim, 0, Payload::pattern(1, len)).await.unwrap();

        let size = with_one_shed(&sim, &cluster, arr.size(&sim)).await;
        assert_eq!(size.unwrap(), len);
        let keys = with_one_shed(&sim, &cluster, wide.list_dkeys(&sim)).await;
        assert_eq!(keys.unwrap().len() as u64, len / CHUNK);
        let epoch = with_one_shed(&sim, &cluster, cont.snapshot(&sim)).await;
        assert!(epoch.unwrap() > 0);
        let punched = with_one_shed(&sim, &cluster, wide.punch(&sim)).await;
        punched.unwrap();
        assert_eq!(arr.size(&sim).await.unwrap(), 0);
    });
}

#[test]
fn every_visit_is_billed_to_the_callers_tenant() {
    let mut sim = Sim::new(0xC04);
    sim.block_on(|sim| async move {
        let cfg = ClusterConfig::tiny(1);
        let cluster = Cluster::build(&sim, quiet(cfg));
        cluster.apply_qos(QosParams::default().with_class(7, QosClass::weighted(4)));
        let cont = container(&sim, &cluster, 7).await;
        let billed = || -> u64 {
            let engines = cluster.engines().iter();
            engines.map(|e| e.tenant_stats(7).ops).sum()
        };
        let wide = cont.object(OID, ObjectClass::SX);
        let width = wide.layout().width() as u64;
        let before = billed();
        wide.punch(&sim).await.unwrap();
        assert_eq!(billed() - before, width, "punch");
        wide.list_dkeys(&sim).await.unwrap();
        assert_eq!(billed() - before, 2 * width, "list_dkeys");
        cont.snapshot(&sim).await.unwrap();
        assert_eq!(billed() - before, 3 * width, "snapshot");
    });
}

/// The RPC's own CPU cost is charged once, on a lead target picked by
/// object id. With that cost made the only one that matters, 64 punches
/// at once take as long as the busiest xstream's share of leads: evenly
/// spread that is 64 / 4 ms; all on one xstream, or charged on every
/// visit, it would be 64 ms.
#[test]
fn the_lead_is_spread_over_the_xstreams() {
    let mut sim = Sim::new(0xC05);
    sim.block_on(|sim| async move {
        const OBJECTS: u64 = 64;
        let mut cfg = quiet(ClusterConfig::tiny(1));
        cfg.engine.rpc_cpu = SimDuration::from_ms(1);
        let cluster = Cluster::build(&sim, cfg);
        let cont = container(&sim, &cluster, 0).await;
        let punches = (0..OBJECTS).map(|i| {
            let obj = cont.object(ObjectId::new(0xC5, i), ObjectClass::SX);
            let sim = sim.clone();
            async move { obj.punch(&sim).await }
        });
        let t0 = sim.now();
        for r in join_all(&sim, punches.collect()).await {
            r.unwrap();
        }
        let share = OBJECTS / cfg.targets_per_engine as u64;
        let took = (sim.now() - t0).as_ns() / 1_000_000;
        assert!(
            (share..2 * share).contains(&took),
            "{took} ms for {OBJECTS} punches; an even spread is {share} ms"
        );
    });
}

/// The twin of `crash_mid_service_releases_budget_grant_and_xstream` for
/// a collective: the engine dies with one op's visits in service on every
/// xstream and a second op's queued behind them. Both drain, both replies
/// are swallowed, and after a restart nothing is held: a fresh op finds
/// every xstream as idle as before.
#[test]
fn crash_mid_collective_leaves_every_xstream_idle() {
    let mut sim = Sim::new(0xC06);
    sim.block_on(|sim| async move {
        let mut cfg = quiet(ClusterConfig::tiny(1));
        cfg.engine.rpc_cpu = SimDuration::from_ms(1);
        let cluster = Cluster::build(&sim, cfg);
        cluster.apply_qos(QosParams::default().with_class(7, QosClass::weighted(4)));
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(7);
        client.connect(&sim).await.unwrap();
        let engine = Rc::clone(cluster.engine(1));
        let width = cfg.targets_per_engine as u64;

        let timed_punch = || {
            let (client, sim) = (client.clone(), sim.clone());
            async move {
                let t0 = sim.now();
                let rsp = client.call_deadline(&sim, 1, punch_all(&cfg, OID)).await;
                (rsp, sim.now() - t0)
            }
        };
        let (rsp, idle) = timed_punch().await;
        assert!(matches!(rsp, Ok(Response::Ok)), "{rsp:?}");

        let inflight: Vec<_> = (0..2).map(|_| sim.spawn(timed_punch())).collect();
        while engine.admission_stats().admitted < 3 * width {
            sim.sleep_us(1).await;
        }
        assert!(
            engine.tenant_stats(7).ops < 3 * width,
            "the second op's visits must still be waiting for their grants"
        );
        engine.crash();
        for h in inflight {
            let (rsp, _) = h.await;
            assert!(rsp.is_err(), "a reply after the crash is swallowed");
        }
        engine.restart();

        assert_eq!(engine.tenant_stats(7).ops, 3 * width, "every visit ran");
        let (rsp, after) = timed_punch().await;
        assert!(matches!(rsp, Ok(Response::Ok)), "{rsp:?}");
        assert_eq!(after, idle, "an xstream or a gate grant is still held");
        let stats = engine.admission_stats();
        assert_eq!((stats.admitted, stats.inflight_bytes), (4 * width, 0));
    });
}
