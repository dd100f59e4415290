//! Recycled placements: a handle opened on a spare `Placed` is a fresh
//! handle, and a placement some handle still holds is never recycled.

use std::rc::Rc;

use daos_placement::{place, ObjectClass, ObjectId};
use daos_sim::time::SimDuration;
use daos_sim::Sim;

use super::{ContainerHandle, ObjectHandle};
use crate::client::DaosClient;
use crate::{Cluster, ClusterConfig};

/// A container on a tiny cluster whose failure detector is parked, so the
/// pool map moves only when a test excludes a target.
async fn container(sim: &Sim) -> (Rc<Cluster>, ContainerHandle) {
    let mut cfg = ClusterConfig::tiny(1);
    cfg.heartbeat.interval = SimDuration::from_secs(3600);
    let cluster = Cluster::build(sim, cfg);
    let client = DaosClient::new(Rc::clone(&cluster), 0);
    let pool = client.connect(sim).await.expect("connect");
    let cont = pool.open_or_create(sim, 1).await.expect("container");
    (cluster, cont)
}

/// `obj` is placed exactly as an open against the current map places it.
fn is_fresh(cluster: &Cluster, obj: &ObjectHandle) {
    let map = cluster.pool_map();
    assert!(obj.layout() == place(obj.oid, obj.class, &map), "layout");
    assert_eq!(obj.placed.version.get(), map.version(), "version");
    assert!(obj.placed.moved.borrow().is_empty(), "moved");
}

#[test]
fn a_dropped_placement_is_reused_as_a_fresh_one() {
    let mut sim = Sim::new(0x5A1);
    sim.block_on(|sim| async move {
        let (cluster, cont) = container(&sim).await;
        let a = cont.object(ObjectId::new(0x5A, 1), ObjectClass::SX);
        let placed_at = a.placed.version.get();
        cluster.exclude_target(3);
        a.refresh(&sim).await;
        assert!(a.placed.version.get() > placed_at, "the refresh re-placed");
        assert!(!a.placed.moved.borrow().is_empty(), "and moved shards");
        let recycled = Rc::as_ptr(&a.placed);
        drop(a);

        let b = cont.object(ObjectId::new(0x5A, 2), ObjectClass::SX);
        assert!(std::ptr::eq(Rc::as_ptr(&b.placed), recycled), "not reused");
        is_fresh(&cluster, &b);
    });
}

#[test]
fn a_placement_a_clone_holds_is_never_recycled() {
    let mut sim = Sim::new(0x5A2);
    sim.block_on(|sim| async move {
        let (cluster, cont) = container(&sim).await;
        let a = cont.object(ObjectId::new(0x5A, 1), ObjectClass::SX);
        let kept = a.clone();
        drop(a);
        let b = cont.object(ObjectId::new(0x5A, 2), ObjectClass::SX);
        assert!(
            !Rc::ptr_eq(&b.placed, &kept.placed),
            "a held placement reused"
        );

        // a refresh through one clone is seen through the other, and a
        // clone dropped while another lives recycles nothing
        cluster.exclude_target(3);
        let other = kept.clone();
        other.refresh(&sim).await;
        drop(other);
        {
            let map = cluster.pool_map();
            assert!(kept.layout() == place(kept.oid, kept.class, &map));
            assert_eq!(kept.placed.version.get(), map.version());
        }
        assert!(
            !kept.placed.moved.borrow().is_empty(),
            "the refresh moved shards"
        );
        let c = cont.object(ObjectId::new(0x5A, 3), ObjectClass::SX);
        assert!(
            !Rc::ptr_eq(&c.placed, &kept.placed),
            "a held placement reused"
        );
        assert!(b.placed.version.get() < kept.placed.version.get());

        // once the last clone drops, the next open gets it
        let recycled = Rc::as_ptr(&kept.placed);
        drop(kept);
        let d = cont.object(ObjectId::new(0x5A, 4), ObjectClass::SX);
        assert!(std::ptr::eq(Rc::as_ptr(&d.placed), recycled), "not reused");
        is_fresh(&cluster, &d);
    });
}
