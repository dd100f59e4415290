//! Admission-control edge cases: the engine-side gates ([`EngineConfig::
//! queue_cap`] and [`EngineConfig::inflight_cap`]) at their boundary
//! settings — cap 0 (shed everything), exact-capacity byte budgets,
//! precedence against exclusion, and counter conservation under a
//! concurrent burst. All raw RPCs go through [`DaosClient::call`] so no
//! client-side retry or damping obscures what the engine replied.

use std::rc::Rc;

use daos_core::proto::wire_csum;
use daos_core::{Cluster, ClusterConfig, DaosClient, DaosError, Request, Response, RetryPolicy};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::units::KIB;
use daos_sim::Sim;
use daos_vos::{key, Payload};

fn testbed(queue_cap: Option<u32>, inflight_cap: Option<u64>) -> ClusterConfig {
    let mut cfg = ClusterConfig::tiny(1);
    cfg.engine.queue_cap = queue_cap;
    cfg.engine.inflight_cap = inflight_cap;
    cfg
}

/// A raw array write of `len` pattern bytes to `target` (engine-local
/// index; the engine reduces modulo its target count).
fn raw_update(target: u32, len: u64) -> Request {
    let data = Payload::pattern(9, len);
    let csum = wire_csum(&data);
    Request::UpdateArray {
        target,
        cont: 1,
        oid: ObjectId::new(3, 3),
        dkey: key(0u64.to_be_bytes()),
        akey: key([0]),
        offset: 0,
        data,
        csum,
    }
}

fn is_busy(r: &Result<Response, DaosError>) -> bool {
    matches!(r, Ok(Response::Err(DaosError::Busy { .. })))
}

/// `queue_cap = 0` sheds every data-plane request — even header-only
/// ones — while the control plane (pool service, heartbeats) keeps
/// working, so an overloaded-by-policy engine never looks dead.
#[test]
fn queue_cap_zero_sheds_all_data_plane_but_control_plane_survives() {
    let mut sim = Sim::new(11);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, testbed(Some(0), None));
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_retry(RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        });
        // control plane: connect + container create bypass admission
        // (retried through leader election at t=0)
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.create_container(&sim, 1).await.unwrap();

        // data plane: header-only and bulk requests are both shed, and
        // the Busy reply itself carries no bulk payload
        let q = client
            .call_deadline(
                &sim,
                1,
                Request::QueryEpoch {
                    targets: vec![0].into(),
                },
            )
            .await;
        assert!(is_busy(&q), "header-only data op must be shed: {q:?}");
        let w = client.call_deadline(&sim, 1, raw_update(0, 64 * KIB)).await;
        assert!(is_busy(&w), "bulk data op must be shed: {w:?}");
        if let Ok(rsp) = &w {
            assert_eq!(rsp.bulk_out(), 0, "Busy reply must be header-only");
        }
        let stats = cluster.engine(1).admission_stats();
        assert_eq!(stats.admitted, 0, "nothing may be admitted at cap 0");
        assert_eq!(stats.shed_queue, 2, "both data ops counted as sheds");
        assert_eq!(stats.inflight_bytes, 0);

        // the damped client path surfaces the shed after its attempts
        let arr = cont.object(ObjectId::new(7, 7), ObjectClass::S1).array(KIB);
        let err = arr
            .write(&sim, 0, Payload::pattern(1, KIB))
            .await
            .unwrap_err();
        assert!(
            matches!(err, DaosError::Busy { .. }),
            "retries against a cap-0 engine must surface Busy, got {err:?}"
        );

        // heartbeats ride the control lane: several detection windows pass
        // with every data op shed, yet nothing gets excluded
        sim.sleep_ms(20).await;
        assert!(
            cluster.pool_map().excluded_targets().is_empty(),
            "shedding must not look like death to the heartbeat detector"
        );
    });
}

/// The in-flight byte budget is exact: a write at precisely the cap is
/// admitted, one byte over is shed, and header-only / fetch requests
/// (which consume no write-buffer bytes) pass even at cap 0.
#[test]
fn inflight_cap_boundary_is_exact_and_ignores_headers() {
    let mut sim = Sim::new(12);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, testbed(None, Some(64 * KIB)));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        pool.create_container(&sim, 1).await.unwrap();

        // exactly at the cap: admitted (sequential, so in-flight is 0)
        let at = client.call_deadline(&sim, 1, raw_update(0, 64 * KIB)).await;
        assert!(!is_busy(&at), "write at exactly the cap must pass: {at:?}");
        // one byte over: shed
        let over = client
            .call_deadline(&sim, 1, raw_update(1, 64 * KIB + 1))
            .await;
        assert!(is_busy(&over), "cap+1 bytes must be shed: {over:?}");
        let stats = cluster.engine(1).admission_stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.shed_bytes, 1);
        assert_eq!(
            stats.shed_queue, 0,
            "the byte gate, not the queue gate, fired"
        );
        assert_eq!(
            stats.inflight_bytes, 0,
            "budget must be returned after service"
        );

        // a zero-budget engine still serves header-only ops and fetches:
        // the byte gate meters write buffers, not requests
        let zero = Cluster::build(&sim, testbed(None, Some(0)));
        let zc = DaosClient::new(Rc::clone(&zero), 0);
        zc.connect(&sim).await.unwrap();
        let q = zc
            .call_deadline(
                &sim,
                1,
                Request::QueryEpoch {
                    targets: vec![0].into(),
                },
            )
            .await;
        assert!(
            !is_busy(&q),
            "header-only op must pass at byte-cap 0: {q:?}"
        );
        let f = zc
            .call_deadline(
                &sim,
                1,
                Request::FetchArray {
                    target: 0,
                    cont: 1,
                    oid: ObjectId::new(3, 3),
                    dkey: key(0u64.to_be_bytes()),
                    akey: key([0]),
                    offset: 0,
                    len: 64 * KIB,
                    epoch: u64::MAX,
                },
            )
            .await;
        assert!(!is_busy(&f), "fetch must pass at byte-cap 0: {f:?}");
        assert_eq!(zero.engine(1).admission_stats().shed_bytes, 0);
    });
}

/// Exclusion outranks admission: a request routed to an excluded target
/// must come back `StaleMap` (forcing a map refresh) rather than `Busy`
/// (inviting a pointless retry at the same engine).
#[test]
fn stale_map_outranks_busy_on_excluded_targets() {
    let mut sim = Sim::new(13);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, testbed(Some(0), None));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        client.connect(&sim).await.unwrap();

        // fake a newer map that excludes engine 1's local target 0
        let p = client
            .call_deadline(
                &sim,
                1,
                Request::Ping {
                    version: 2,
                    excluded: vec![0],
                },
            )
            .await;
        assert!(
            matches!(p, Ok(Response::Pong)),
            "ping must be answered: {p:?}"
        );

        let ex = client.call_deadline(&sim, 1, raw_update(0, KIB)).await;
        assert!(
            matches!(ex, Ok(Response::Err(DaosError::StaleMap { version: 2 }))),
            "excluded target must answer StaleMap even at queue cap 0: {ex:?}"
        );
        let other = client.call_deadline(&sim, 1, raw_update(1, KIB)).await;
        assert!(
            is_busy(&other),
            "non-excluded target still sheds: {other:?}"
        );
        let stats = cluster.engine(1).admission_stats();
        assert_eq!(stats.shed_queue, 1, "the StaleMap reply is not a shed");
    });
}

/// The QoS shaper sits *behind* the admission gates: installing one on a
/// cap-0 engine changes neither the shed counters nor the replies, and a
/// request shed at the gate is never billed to its tenant — the shaper
/// only ever sees admitted work.
#[test]
fn shaper_sits_behind_admission_gates_and_sheds_are_unbilled() {
    use daos_core::{QosClass, QosParams};
    let mut sim = Sim::new(15);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, testbed(Some(0), None));
        cluster.apply_qos(QosParams::default().with_class(7, QosClass::weighted(4)));
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(7);
        client.connect(&sim).await.unwrap();

        let q = client
            .call_deadline(
                &sim,
                1,
                Request::QueryEpoch {
                    targets: vec![0].into(),
                },
            )
            .await;
        assert!(is_busy(&q), "header-only data op must be shed: {q:?}");
        let w = client.call_deadline(&sim, 1, raw_update(0, 64 * KIB)).await;
        assert!(is_busy(&w), "bulk data op must be shed: {w:?}");

        let stats = cluster.engine(1).admission_stats();
        assert_eq!(stats.admitted, 0, "shaper must not bypass the gate");
        assert_eq!(stats.shed_queue, 2, "same sheds as the unshaped engine");
        assert_eq!(
            cluster.engine(1).tenant_stats(7),
            Default::default(),
            "a shed request must never reach the tenant's ledger"
        );
    });
}

/// `queue_cap = 1` admits strictly serial traffic without ever shedding,
/// and under a concurrent burst the counters conserve: every arrival is
/// exactly one of admitted / shed, and the byte budget drains to zero.
#[test]
fn queue_cap_one_serial_traffic_never_sheds_and_burst_counters_conserve() {
    let mut sim = Sim::new(14);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, testbed(Some(1), None));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.unwrap();
        pool.create_container(&sim, 1).await.unwrap();

        // sequential awaited requests: depth is always 0 at arrival
        for i in 0..4 {
            let r = client
                .call_deadline(&sim, 1, raw_update(0, (i + 1) * KIB))
                .await;
            assert!(!is_busy(&r), "serial op {i} must be admitted: {r:?}");
        }
        let stats = cluster.engine(1).admission_stats();
        assert_eq!((stats.admitted, stats.shed_queue), (4, 0));

        // concurrent burst at one target: at most one in service + the
        // depth probe sheds the pile-up; nothing is lost or double-counted
        const BURST: u64 = 8;
        let futs: Vec<_> = (0..BURST)
            .map(|_| {
                let c = DaosClient::new(Rc::clone(&cluster), 0);
                let s = sim.clone();
                async move { is_busy(&c.call_deadline(&s, 1, raw_update(0, 64 * KIB)).await) }
            })
            .collect();
        let shed_replies = join_all(&sim, futs).await.iter().filter(|&&b| b).count() as u64;
        let stats = cluster.engine(1).admission_stats();
        assert_eq!(
            stats.admitted + stats.shed_queue,
            4 + BURST,
            "every arrival is exactly one of admitted/shed: {stats:?}"
        );
        assert_eq!(
            stats.shed_queue, shed_replies,
            "each shed produced one Busy reply"
        );
        assert!(stats.shed_queue > 0, "a cap-1 burst of {BURST} must shed");
        assert_eq!(stats.inflight_bytes, 0, "byte budget must drain to zero");
    });
}

/// Every exit from service releases what admission handed out — the
/// in-flight byte budget, the shaper's gate grant and the xstream permit
/// — even when the engine crashes with writes queued and in service and
/// their replies are swallowed. After the drain and a restart nothing is
/// leaked: the budget reads zero and the next request to the same
/// xstream is admitted, granted and served.
#[test]
fn crash_mid_service_releases_budget_grant_and_xstream() {
    use daos_core::{QosClass, QosParams};
    let mut sim = Sim::new(16);
    sim.block_on(move |sim| async move {
        const BURST: u64 = 6;
        const LEN: u64 = 64 * KIB;
        let cluster = Cluster::build(&sim, testbed(None, Some(BURST * LEN)));
        cluster.apply_qos(QosParams::default().with_class(7, QosClass::weighted(4)));
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(7);
        let pool = client.connect(&sim).await.unwrap();
        pool.create_container(&sim, 1).await.unwrap();
        let engine = Rc::clone(cluster.engine(1));

        // a burst at one xstream: the single-grant gate lets one write
        // into service and parks the rest behind it
        let burst: Vec<_> = (0..BURST)
            .map(|_| {
                let c = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(7);
                let s = sim.clone();
                sim.spawn(async move { c.call_deadline(&s, 1, raw_update(0, LEN)).await })
            })
            .collect();
        while engine.admission_stats().admitted < BURST {
            sim.sleep_us(1).await;
        }
        let before = engine.admission_stats();
        assert!(
            before.inflight_bytes >= 2 * LEN,
            "the crash must catch one write in service and at least one queued: {before:?}"
        );
        assert!(
            engine.tenant_stats(7).ops < BURST,
            "some writes must still be waiting for their grant"
        );
        engine.crash();

        let mut swallowed = 0;
        for h in burst {
            if h.await.is_err() {
                swallowed += 1;
            }
        }
        assert!(swallowed >= 2, "replies after the crash are swallowed");
        engine.restart();

        let drained = engine.admission_stats();
        assert_eq!(drained.inflight_bytes, 0, "budget leaked: {drained:?}");
        assert_eq!(
            engine.tenant_stats(7).ops,
            BURST,
            "every parked write was granted in turn, crash or not"
        );

        // a full-budget write to the same xstream: it passes the bytes
        // gate only if the budget drained, is granted only if the last
        // gate grant was released, and is served only if the permit was
        let next = client
            .call_deadline(&sim, 1, raw_update(0, BURST * LEN))
            .await;
        assert!(
            matches!(next, Ok(Response::Written { .. })),
            "the restarted engine must serve the next write: {next:?}"
        );
        let after = engine.admission_stats();
        assert_eq!((after.admitted, after.shed_bytes), (BURST + 1, 0));
        assert_eq!(engine.tenant_stats(7).ops, BURST + 1);
        assert_eq!(after.inflight_bytes, 0);
    });
}
