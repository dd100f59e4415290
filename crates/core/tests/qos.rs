//! Shaper integration tests against a live engine: DRR starvation
//! freedom under contention, exact token accounting (charge + refund
//! balance to the byte), token-bucket pacing of aggregate throughput,
//! and the control plane's exemption from shaping. All raw RPCs go
//! through [`DaosClient::call`] so no client-side retry or damping
//! obscures what the shaper did.

use std::rc::Rc;

use daos_core::proto::wire_csum;
use daos_core::{
    Cluster, ClusterConfig, DaosClient, QosClass, QosParams, Request, Response, BG_TENANT,
};
use daos_placement::ObjectId;
use daos_sim::executor::join_all;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::{key, Payload};

/// A raw array write of `len` pattern bytes to engine-local `target`.
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

/// A raw array fetch of `len` bytes from offset 0 at `target`.
fn raw_fetch(target: u32, len: u64) -> Request {
    Request::FetchArray {
        target,
        cont: 1,
        oid: ObjectId::new(3, 3),
        dkey: key(0u64.to_be_bytes()),
        akey: key([0]),
        offset: 0,
        len,
        epoch: u64::MAX,
    }
}

/// Deficit round robin under live contention: a tenant outweighed 64:1
/// still gets every one of its requests served — weights skew the
/// schedule, never the liveness — and the schedule skew shows up as the
/// light tenant waiting at least as long at the gate as the heavy one.
#[test]
fn drr_never_starves_an_outweighed_tenant() {
    let mut sim = Sim::new(21);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        cluster.apply_qos(
            QosParams::default()
                .with_class(1, QosClass::weighted(64))
                .with_class(2, QosClass::weighted(1)),
        );
        let heavy = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(1);
        let light = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(2);
        heavy.connect(&sim).await.unwrap();
        let pool = light.connect(&sim).await.unwrap();
        pool.create_container(&sim, 1).await.unwrap();

        const EACH: usize = 12;
        let mut futs = Vec::new();
        for tenant in [1u8, 2] {
            for _ in 0..EACH {
                let c = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(tenant);
                let s = sim.clone();
                futs.push(async move {
                    let r = c.call_deadline(&s, 1, raw_update(0, 64 * KIB)).await;
                    matches!(r, Ok(Response::Written { .. }))
                });
            }
        }
        let ok = join_all(&sim, futs).await;
        assert!(ok.iter().all(|&b| b), "every request must be served");

        let h = cluster.engine(1).tenant_stats(1);
        let l = cluster.engine(1).tenant_stats(2);
        assert_eq!(h.ops, EACH as u64, "heavy tenant served exactly its ops");
        assert_eq!(l.ops, EACH as u64, "light tenant served exactly its ops");
        assert!(
            l.throttle_ns >= h.throttle_ns,
            "the 64x weight must not make the light tenant wait less: \
             light {} ns vs heavy {} ns",
            l.throttle_ns,
            h.throttle_ns
        );
    });
}

/// Token accounting balances to the byte across charge and refund: a
/// dense fetch refunds nothing, a sparse fetch refunds exactly the
/// unserved tail, and the per-op header overhead (derived from a
/// zero-payload probe, not hard-coded) makes the ledger close.
#[test]
fn sparse_fetch_refund_balances_byte_accounting() {
    let mut sim = Sim::new(22);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        cluster.apply_qos(QosParams::default().with_class(
            1,
            QosClass {
                bw_cap: Some(MIB << 10),
                ..QosClass::weighted(4)
            },
        ));
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(1);
        let pool = client.connect(&sim).await.unwrap();
        pool.create_container(&sim, 1).await.unwrap();

        // zero-payload probe: the shaper's per-op header overhead
        let q = client
            .call_deadline(
                &sim,
                1,
                Request::QueryEpoch {
                    targets: vec![0].into(),
                },
            )
            .await;
        assert!(matches!(q, Ok(Response::Epoch { .. })), "probe: {q:?}");
        let overhead = cluster.engine(1).tenant_stats(1).bytes;
        assert!(overhead > 0, "header-only ops must still be accounted");

        // write 64 KiB; charge is payload + overhead, nothing refunded
        client
            .call_deadline(&sim, 1, raw_update(0, 64 * KIB))
            .await
            .unwrap();
        let after_write = cluster.engine(1).tenant_stats(1);
        assert_eq!(after_write.bytes, overhead + 64 * KIB + overhead);
        assert_eq!(after_write.refunded, 0);

        // dense fetch (fully resident): charge sticks, still no refund
        let dense = client
            .call_deadline(&sim, 1, raw_fetch(0, 64 * KIB))
            .await
            .unwrap();
        assert_eq!(dense.bulk_out(), 64 * KIB);
        let after_dense = cluster.engine(1).tenant_stats(1);
        assert_eq!(after_dense.bytes, after_write.bytes + 64 * KIB + overhead);
        assert_eq!(after_dense.refunded, 0);

        // sparse fetch of 256 KiB with 64 KiB resident: the 192 KiB
        // reserved-but-unserved tail comes back as a refund, so the net
        // charge equals the dense fetch's
        let sparse = client
            .call_deadline(&sim, 1, raw_fetch(0, 256 * KIB))
            .await
            .unwrap();
        assert_eq!(sparse.bulk_out(), 64 * KIB);
        let after_sparse = cluster.engine(1).tenant_stats(1);
        assert_eq!(after_sparse.refunded, 192 * KIB);
        assert_eq!(
            after_sparse.bytes,
            after_dense.bytes + 64 * KIB + overhead,
            "net charge of a sparse fetch equals a dense fetch of the \
             resident bytes"
        );
        assert_eq!(after_sparse.ops, 4);
    });
}

/// A bandwidth cap paces aggregate throughput: pushing `total` bytes
/// through a `rate`-capped tenant takes at least
/// `(total - burst) / rate` of simulated time, and the wait is visible
/// in the tenant's `throttle_ns` counter.
#[test]
fn token_bucket_paces_aggregate_throughput() {
    let mut sim = Sim::new(23);
    sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
        let rate = 100 * MIB; // bytes per second
        let burst = 256 * KIB;
        cluster.apply_qos(QosParams::default().with_class(
            1,
            QosClass {
                bw_cap: Some(rate),
                burst,
                ..QosClass::weighted(1)
            },
        ));
        let client = DaosClient::new(Rc::clone(&cluster), 0).with_tenant(1);
        let pool = client.connect(&sim).await.unwrap();
        pool.create_container(&sim, 1).await.unwrap();

        const OPS: u64 = 16;
        let chunk = 256 * KIB;
        let t0 = sim.now();
        for _ in 0..OPS {
            let r = client.call_deadline(&sim, 1, raw_update(0, chunk)).await;
            assert!(matches!(r, Ok(Response::Written { .. })), "{r:?}");
        }
        let elapsed = (sim.now() - t0).as_ns();
        let total = OPS * chunk;
        // the bucket starts full, so one burst of depth rides for free
        let floor_ns = (total - burst) * 1_000_000_000 / rate;
        assert!(
            elapsed >= floor_ns,
            "{total} bytes through a {rate} B/s cap must take >= {floor_ns} ns, took {elapsed} ns"
        );
        let stats = cluster.engine(1).tenant_stats(1);
        assert!(stats.throttle_ns > 0, "pacing must be visible: {stats:?}");
        assert_eq!(stats.ops, OPS);
        assert_eq!(stats.refunded, 0);
    });
}

/// The control plane is accounted against the background class but never
/// delayed: even a zero-rate background budget leaves pool connect /
/// container create at *exactly* the unshaped timing (same seed, same
/// virtual nanosecond), because throttling recovery traffic would
/// throttle recovery itself.
#[test]
fn control_plane_is_accounted_but_never_shaped() {
    fn control_run(shaped: bool) -> (u64, u64) {
        let mut sim = Sim::new(24);
        sim.block_on(move |sim| async move {
            let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
            if shaped {
                cluster.apply_qos(QosParams::default().with_class(
                    BG_TENANT,
                    QosClass {
                        bw_cap: Some(0), // pure-budget bucket: never refills
                        burst: KIB,
                        ..QosClass::weighted(1)
                    },
                ));
            }
            let client = DaosClient::new(Rc::clone(&cluster), 0);
            let t0 = sim.now();
            let pool = client.connect(&sim).await.unwrap();
            pool.create_container(&sim, 1).await.unwrap();
            let elapsed = (sim.now() - t0).as_ns();

            // data plane for an unconfigured tenant still flows (default
            // class: weight 1, uncapped)
            let w = client.call_deadline(&sim, 1, raw_update(0, KIB)).await;
            assert!(matches!(w, Ok(Response::Written { .. })), "{w:?}");
            (elapsed, cluster.tenant_stats(BG_TENANT).ops)
        })
    }
    let (shaped_ns, bg_ops) = control_run(true);
    let (unshaped_ns, no_qos_ops) = control_run(false);
    assert_eq!(
        shaped_ns, unshaped_ns,
        "an empty background budget must not move control-plane timing \
         by a single nanosecond"
    );
    assert!(bg_ops > 0, "control ops must be billed to the background");
    assert_eq!(no_qos_ops, 0, "no shaper, no accounting");
}

mod primitives {
    //! Property tests for the shaper primitives themselves: the DRR
    //! scheduler and the scaled-integer token bucket, driven with
    //! arbitrary inputs rather than the engine's traffic shapes.

    use daos_core::qos::{Drr, TokenBucket};
    use proptest::prelude::*;

    proptest! {
        /// DRR drains every backlog completely: whatever the weights
        /// (including maximally skewed ones), a tenant with pending
        /// requests is selected until its queue is empty — weights
        /// reorder service, they never deny it.
        #[test]
        fn drr_select_serves_every_backlogged_tenant(
            quantum in 1u64..=1 << 20,
            specs in prop::collection::vec(
                (1u32..=1 << 16, 1u64..=1 << 22, 1usize..=8), 1..=6),
        ) {
            let mut drr = Drr::new(quantum);
            let mut pending = vec![0u64; specs.len()];
            for (i, &(weight, cost, n)) in specs.iter().enumerate() {
                drr.set_weight(i as u8, weight);
                for _ in 0..n {
                    drr.enqueue(i as u8, cost);
                    pending[i] += 1;
                }
            }
            // every select() must make progress; bound the loop by the
            // total item count so a starvation bug fails instead of
            // spinning forever
            let total: u64 = pending.iter().sum();
            for _ in 0..total {
                let (tenant, cost) = drr.select().expect("backlog left, select must yield");
                let i = tenant as usize;
                prop_assert!(pending[i] > 0, "tenant {tenant} over-served");
                prop_assert_eq!(cost, specs[i].1);
                pending[i] -= 1;
            }
            prop_assert!(drr.select().is_none(), "drained scheduler must yield nothing");
            prop_assert!(pending.iter().all(|&p| p == 0));
        }

        /// The token bucket conserves tokens under arbitrary
        /// take/refund interleavings at a frozen clock: a successful
        /// take removes exactly `cost`, a refund restores exactly what
        /// it returns (clamped at the burst depth), and availability
        /// never exceeds the depth — no drift, no minting.
        #[test]
        fn bucket_conserves_under_take_refund_sequences(
            rate in 1u64..=1 << 32,
            burst in 1u64..=1 << 24,
            ops in prop::collection::vec((any::<bool>(), 1u64..=1 << 24), 1..=64),
        ) {
            let mut b = TokenBucket::new(rate, burst);
            let now = 0;
            let mut model = b.available();
            prop_assert_eq!(model, burst, "a fresh bucket starts full");
            for (is_take, amount) in ops {
                if is_take {
                    // documented clamp: a cost beyond the depth drains
                    // the whole bucket instead of waiting forever
                    let eff = amount.min(burst);
                    if b.try_take(now, amount) {
                        prop_assert!(eff <= model, "take minted tokens");
                        model -= eff;
                    } else {
                        prop_assert!(eff > model, "take refused with funds");
                    }
                } else {
                    b.refund(amount);
                    model = (model + amount).min(burst);
                }
                prop_assert_eq!(b.available(), model);
                prop_assert!(b.available() <= burst);
            }
        }

        /// `ns_until` and `refill` agree: after sleeping exactly the
        /// quoted wait, the bucket covers the cost (and a rate-0 bucket
        /// quotes `u64::MAX` for anything beyond its balance).
        #[test]
        fn ns_until_quote_is_sufficient(
            rate in 1u64..=1 << 30,
            burst in 1u64..=1 << 22,
            cost in 1u64..=1 << 22,
            drain in 1u64..=1 << 22,
        ) {
            let cost = cost.min(burst); // beyond-depth costs are the caller's job
            let mut b = TokenBucket::new(rate, burst);
            b.try_take(0, drain.min(burst));
            let wait = b.ns_until(cost);
            prop_assert!(wait < u64::MAX, "a rated bucket always has a finite quote");
            b.refill(wait);
            prop_assert!(
                b.available() >= cost,
                "after the quoted {wait} ns the bucket must cover {cost}"
            );

            let mut dry = TokenBucket::new(0, burst);
            dry.try_take(0, burst);
            prop_assert_eq!(dry.ns_until(1), u64::MAX, "rate-0 bucket never refills");
        }
    }
}
