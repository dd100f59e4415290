//! Object handles: client-side placement, the per-engine fan-out, and the
//! `daos_kv` view.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;

use daos_placement::{place, splitmix64, Layout, ObjectClass, ObjectId, Stripe};
use daos_sim::Sim;
use daos_vos::{key, Key, Payload};

use super::damp::Attempt;
use super::{ArrayHandle, ContainerHandle, EPOCH_LATEST};
use crate::proto::{wire_csum, DaosError, Request, Response, TargetRun};

/// An open object: the unit of placement.
///
/// The layout is shared across clones of the handle and re-placed when a
/// fault forces a pool-map refresh — but only then: a handle opened before
/// an exclusion keeps its stale layout while the engines still answer,
/// reading degraded through its protection class like a real client whose
/// map update hasn't arrived. When the last handle holding a placement
/// drops, the placement goes to the client's spares for the next open.
#[derive(Clone)]
pub struct ObjectHandle {
    pub(super) cont: ContainerHandle,
    pub(super) oid: ObjectId,
    pub(super) class: ObjectClass,
    placed: Rc<Placed>,
}

/// Where an object's shards are, as its handles share it.
pub(super) struct Placed {
    layout: RefCell<Layout>,
    /// The pool-map version `layout` was computed against.
    version: Cell<u32>,
    /// Shards whose target changed in the last re-place: their new homes
    /// are empty until the rebuild pass refills them, so reads avoid them
    /// while a rebuild is active (writes go to the new home regardless).
    moved: RefCell<BTreeSet<u32>>,
}

impl ObjectHandle {
    /// Place `oid` against the current pool map. A spare placement from
    /// the client is overwritten as a new one would be built, so a
    /// recycled handle is a fresh one.
    pub(super) fn open(cont: &ContainerHandle, oid: ObjectId, class: ObjectClass) -> Self {
        let map = cont.client.cluster.pool_map();
        let layout = place(oid, class, &map);
        let version = map.version();
        drop(map);
        let placed = match cont.client.spares.placed.take() {
            Some(placed) => {
                *placed.layout.borrow_mut() = layout;
                placed.version.set(version);
                placed.moved.borrow_mut().clear();
                placed
            }
            None => Rc::new(Placed {
                layout: RefCell::new(layout),
                version: Cell::new(version),
                moved: RefCell::new(BTreeSet::new()),
            }),
        };
        ObjectHandle {
            cont: cont.clone(),
            oid,
            class,
            placed,
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
        self.placed.layout.borrow().clone()
    }

    pub(super) fn width(&self) -> u32 {
        self.placed.layout.borrow().width()
    }

    /// The target currently behind `shard`.
    pub(super) fn target_of(&self, shard: u32) -> u32 {
        self.placed.layout.borrow().target_of(shard)
    }

    /// Whether `shard`'s target changed in the last re-place.
    pub(super) fn moved(&self, shard: u32) -> bool {
        self.placed.moved.borrow().contains(&shard)
    }

    /// `(engine, local target)` currently behind `shard`.
    pub(super) fn route(&self, shard: u32) -> (u32, u32) {
        let t = self.target_of(shard);
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
        let placed = &self.placed;
        if map.version() != placed.version.get() {
            let new_layout = place(self.oid, self.class, &map);
            {
                let old = placed.layout.borrow();
                *placed.moved.borrow_mut() = (0..new_layout.width())
                    .filter(|&s| old.target_of(s) != new_layout.target_of(s))
                    .collect();
            }
            *placed.layout.borrow_mut() = new_layout;
            placed.version.set(map.version());
        }
    }

    fn shard_of_dkey(&self, dkey: &[u8]) -> u32 {
        let mut h = 0xcbf29ce484222325u64;
        for &b in dkey {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        (splitmix64(h) % self.width() as u64) as u32
    }

    /// Drive `attempt(round)` through the client's one retry loop; between
    /// rounds the loop refreshes the pool map and re-places this object,
    /// so a retry lands on a moved shard's new home.
    pub(super) fn retry<'a, T, A>(
        &'a self,
        sim: &'a Sim,
        exhausted: DaosError,
        attempt: impl FnMut(u32) -> A + 'a,
    ) -> impl Future<Output = Result<T, DaosError>> + 'a
    where
        A: Future<Output = Attempt<T>> + 'a,
        T: 'a,
    {
        let refresh = move || self.refresh(sim);
        let damp = &self.cont.client.damp;
        damp.retry_rounds(sim, exhausted, attempt, refresh)
    }

    /// A single-shard op through the retry loop: each round re-routes
    /// `shard` (the shard index is stable, the target behind it moves
    /// with the layout) and sends the request `build` makes for that
    /// target, gated; `decode` turns the reply into the op's result.
    pub(super) async fn shard_op<T>(
        &self,
        sim: &Sim,
        shard: u32,
        build: impl Fn(u32) -> Request,
        decode: impl Fn(Response) -> Result<T, DaosError>,
    ) -> Result<T, DaosError> {
        let (client, build, decode) = (&self.cont.client, &build, &decode);
        let attempt = move |_round| async move {
            let (engine, target) = self.route(shard);
            let rsp = client.call_gated(sim, engine, build(target)).await;
            rsp.and_then(decode).into()
        };
        self.retry(sim, DaosError::Timeout, attempt).await
    }

    /// One gated RPC per engine behind `shards`, concurrently, through
    /// the retry loop ([`DaosClient::collective`]); `build` gets that
    /// engine's local targets in shard order, and the replies come back
    /// merged. An object on one target is the one-engine, one-target case.
    ///
    /// [`DaosClient::collective`]: super::DaosClient::collective
    pub(super) async fn per_engine(
        &self,
        sim: &Sim,
        shards: Range<u32>,
        build: impl Fn(TargetRun) -> Request,
        empty: Response,
    ) -> Result<Response, DaosError> {
        let (route, refresh) = (|shard| Some(self.route(shard)), || self.refresh(sim));
        let client = &self.cont.client;
        let op = client.collective(sim, shards, route, build, refresh, empty);
        op.await
    }

    /// Punch the object on every shard (unlink): one RPC per engine
    /// holding any of them.
    pub async fn punch(&self, sim: &Sim) -> Result<(), DaosError> {
        let (cont, oid) = (self.cont.cont, self.oid);
        let punch = |targets| Request::PunchObject { targets, cont, oid };
        let all = 0..self.width();
        self.per_engine(sim, all, punch, Response::Ok).await?.ok()
    }

    /// Enumerate dkeys across all shards, merged and sorted.
    pub async fn list_dkeys(&self, sim: &Sim) -> Result<Vec<Key>, DaosError> {
        let (cont, oid) = (self.cont.cont, self.oid);
        let list = |targets| Request::ListDkeys { targets, cont, oid };
        let none = Response::Dkeys(Vec::new());
        match self.per_engine(sim, 0..self.width(), list, none).await? {
            Response::Dkeys(mut keys) => {
                keys.sort();
                keys.dedup();
                Ok(keys)
            }
            other => Err(other.into_err()),
        }
    }

    /// Key-value view of this object (`daos_kv`).
    pub fn kv(&self) -> KvHandle {
        KvHandle { obj: self.clone() }
    }

    /// Byte-array view with the given chunk size (`daos_array`).
    pub fn array(&self, chunk_size: u64) -> ArrayHandle {
        assert!(chunk_size > 0);
        let (cont, stripe) = (&self.cont, Stripe::new(self.oid, self.class, chunk_size));
        cont.client.cluster.register_array(cont.cont, stripe);
        let obj = self.clone();
        ArrayHandle { obj, stripe }
    }
}

impl Drop for ObjectHandle {
    fn drop(&mut self) {
        if Rc::strong_count(&self.placed) == 1 {
            let spares = &self.cont.client.spares;
            spares.placed.keep(Rc::clone(&self.placed));
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
        let (obj, dkey) = (&self.obj, key(k));
        let csum = wire_csum(&value);
        let update = |target| Request::UpdateSingle {
            target,
            cont: obj.cont.cont,
            oid: obj.oid,
            dkey: dkey.clone(),
            akey: key("v"),
            value: value.clone(),
            csum,
        };
        let shard = obj.shard_of_dkey(&dkey);
        obj.shard_op(sim, shard, update, Response::ok).await
    }

    /// Fetch the value under `k` (latest).
    pub async fn get(&self, sim: &Sim, k: impl AsRef<[u8]>) -> Result<Option<Payload>, DaosError> {
        let (obj, dkey) = (&self.obj, key(k));
        let fetch = |target| Request::FetchSingle {
            target,
            cont: obj.cont.cont,
            oid: obj.oid,
            dkey: dkey.clone(),
            akey: key("v"),
            epoch: EPOCH_LATEST,
        };
        let single = |rsp: Response| match rsp {
            Response::Single(v) => Ok(v),
            other => Err(other.into_err()),
        };
        let shard = obj.shard_of_dkey(&dkey);
        obj.shard_op(sim, shard, fetch, single).await
    }

    /// List keys.
    pub async fn list(&self, sim: &Sim) -> Result<Vec<Key>, DaosError> {
        self.obj.list_dkeys(sim).await
    }
}

#[cfg(test)]
mod tests;
