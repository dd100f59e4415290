//! Object handles: client-side placement, the per-engine fan-out, and the
//! `daos_kv` view.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

use daos_placement::{place, splitmix64, Layout, ObjectClass, ObjectId};
use daos_sim::Sim;
use daos_vos::{key, Key, Payload};

use super::{ArrayHandle, ContainerHandle, EPOCH_LATEST};
use crate::proto::{wire_csum, DaosError, Request, Response};

/// An open object: the unit of placement.
///
/// The layout is shared across clones of the handle and re-placed when a
/// fault forces a pool-map refresh — but only then: a handle opened before
/// an exclusion keeps its stale layout while the engines still answer,
/// reading degraded through its protection class like a real client whose
/// map update hasn't arrived.
#[derive(Clone)]
pub struct ObjectHandle {
    pub(super) cont: ContainerHandle,
    pub(super) oid: ObjectId,
    pub(super) class: ObjectClass,
    pub(super) layout: Rc<RefCell<Layout>>,
    placed_version: Rc<Cell<u32>>,
    /// Shards whose target changed in the last re-place: their new homes
    /// are empty until the rebuild pass refills them, so reads avoid them
    /// while a rebuild is active (writes go to the new home regardless).
    pub(super) moved: Rc<RefCell<BTreeSet<u32>>>,
}

impl ObjectHandle {
    /// Place `oid` against the current pool map and register it for
    /// rebuild.
    pub(super) fn open(cont: &ContainerHandle, oid: ObjectId, class: ObjectClass) -> Self {
        let map = cont.client.cluster.pool_map();
        let layout = place(oid, class, &map);
        let version = map.version();
        drop(map);
        cont.client.cluster.register_object(cont.cont, oid, class);
        ObjectHandle {
            cont: cont.clone(),
            oid,
            class,
            layout: Rc::new(RefCell::new(layout)),
            placed_version: Rc::new(Cell::new(version)),
            moved: Rc::new(RefCell::new(BTreeSet::new())),
        }
    }

    /// The object id.
    pub fn oid(&self) -> ObjectId {
        self.oid
    }
    /// The object's class.
    pub fn class(&self) -> ObjectClass {
        self.class
    }
    /// The object's current layout (a snapshot; refreshes may replace it).
    pub fn layout(&self) -> Layout {
        self.layout.borrow().clone()
    }

    pub(super) fn width(&self) -> u32 {
        self.layout.borrow().width()
    }

    /// `(engine, local target)` currently behind `shard`.
    pub(super) fn route(&self, shard: u32) -> (u32, u32) {
        let t = self.layout.borrow().target_of(shard);
        let tpe = self.cont.client.cluster.cfg.targets_per_engine;
        (t / tpe, t % tpe)
    }

    /// Pool-map refresh + re-place, driven only by fault-path errors
    /// (timeout / stale-map): queries the service, adopts a newer map, and
    /// recomputes the shared layout if the version moved.
    pub(super) async fn refresh(&self, sim: &Sim) {
        let client = &self.cont.client;
        client.refresh_pool_map(sim).await;
        let map = client.cluster.pool_map();
        if map.version() != self.placed_version.get() {
            let new_layout = place(self.oid, self.class, &map);
            {
                let old = self.layout.borrow();
                *self.moved.borrow_mut() = (0..new_layout.width())
                    .filter(|&s| old.target_of(s) != new_layout.target_of(s))
                    .collect();
            }
            *self.layout.borrow_mut() = new_layout;
            self.placed_version.set(map.version());
        }
    }

    fn shard_of_dkey(&self, dkey: &[u8]) -> u32 {
        let mut h = 0xcbf29ce484222325u64;
        for &b in dkey {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        (splitmix64(h) % self.width() as u64) as u32
    }

    /// One plain RPC per engine behind `shards`, concurrently; `build`
    /// gets that engine's local targets in shard order, and replies come
    /// back in engine order. An object on one target is the one-engine,
    /// one-target case.
    pub(super) async fn per_engine(
        &self,
        sim: &Sim,
        shards: Range<u32>,
        build: impl Fn(Vec<u32>) -> Request,
    ) -> Vec<Result<Response, DaosError>> {
        let mut routed: Vec<(u32, u32)> = shards.map(|s| self.route(s)).collect();
        routed.sort_by_key(|&(engine, _)| engine);
        let same_engine = |a: &(u32, u32), b: &(u32, u32)| a.0 == b.0;
        // counted first, so the fan-out is sized exactly
        let engines = routed.chunk_by(same_engine).count();
        let mut groups = routed.chunk_by(same_engine);
        let reqs = (0..engines).map(|_| {
            // INVARIANT: `engines` counted exactly these groups.
            let on_engine = groups.next().expect("one group per engine");
            let targets = on_engine.iter().map(|&(_, target)| target).collect();
            (on_engine[0].0, build(targets))
        });
        self.cont.client.call_each(sim, reqs).await
    }

    /// Punch the object on every shard (unlink): one RPC per engine
    /// holding any of them.
    pub async fn punch(&self, sim: &Sim) -> Result<(), DaosError> {
        let (cont, oid) = (self.cont.cont, self.oid);
        let punch = |targets| Request::PunchObject { targets, cont, oid };
        let replies = self.per_engine(sim, 0..self.width(), punch).await;
        replies.into_iter().try_for_each(|r| r?.ok())
    }

    /// Enumerate dkeys across all shards, merged and sorted.
    pub async fn list_dkeys(&self, sim: &Sim) -> Result<Vec<Key>, DaosError> {
        let (cont, oid) = (self.cont.cont, self.oid);
        let list = |targets| Request::ListDkeys { targets, cont, oid };
        let mut keys = Vec::new();
        for r in self.per_engine(sim, 0..self.width(), list).await {
            match r? {
                Response::Dkeys(mut ks) => keys.append(&mut ks),
                other => return Err(other.into_err()),
            }
        }
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    /// Key-value view of this object (`daos_kv`).
    pub fn kv(&self) -> KvHandle {
        KvHandle { obj: self.clone() }
    }

    /// Byte-array view with the given chunk size (`daos_array`).
    pub fn array(&self, chunk_size: u64) -> ArrayHandle {
        assert!(chunk_size > 0);
        self.cont
            .client
            .cluster
            .register_array(self.cont.cont, self.oid, self.class, chunk_size);
        ArrayHandle {
            obj: self.clone(),
            chunk_size,
        }
    }
}

/// `daos_kv`-style flat key/value API.
#[derive(Clone)]
pub struct KvHandle {
    obj: ObjectHandle,
}

impl KvHandle {
    /// Upsert `value` under `k`.
    pub async fn put(
        &self,
        sim: &Sim,
        k: impl AsRef<[u8]>,
        value: Payload,
    ) -> Result<(), DaosError> {
        let dkey = key(k);
        let shard = self.obj.shard_of_dkey(&dkey);
        let (engine, target) = self.obj.route(shard);
        let csum = wire_csum(&value);
        self.obj
            .cont
            .client
            .call(
                sim,
                engine,
                Request::UpdateSingle {
                    target,
                    cont: self.obj.cont.cont,
                    oid: self.obj.oid,
                    dkey,
                    akey: key("v"),
                    value,
                    csum,
                },
            )
            .await?
            .ok()
    }

    /// Fetch the value under `k` (latest).
    pub async fn get(&self, sim: &Sim, k: impl AsRef<[u8]>) -> Result<Option<Payload>, DaosError> {
        let dkey = key(k);
        let shard = self.obj.shard_of_dkey(&dkey);
        let (engine, target) = self.obj.route(shard);
        let rsp = self
            .obj
            .cont
            .client
            .call(
                sim,
                engine,
                Request::FetchSingle {
                    target,
                    cont: self.obj.cont.cont,
                    oid: self.obj.oid,
                    dkey,
                    akey: key("v"),
                    epoch: EPOCH_LATEST,
                },
            )
            .await?;
        match rsp {
            Response::Single(v) => Ok(v),
            other => Err(other.into_err()),
        }
    }

    /// List keys.
    pub async fn list(&self, sim: &Sim) -> Result<Vec<Key>, DaosError> {
        self.obj.list_dkeys(sim).await
    }
}
