//! `libdaos` for applications: pool/container handles and the object APIs.
//!
//! Clients compute shard placement locally from the pool map (DAOS's
//! algorithmic placement) and talk directly to the engine holding each
//! shard. Two object APIs are provided, mirroring `daos_kv`/`daos_array`:
//!
//! * [`KvHandle`] — flat key → value;
//! * [`ArrayHandle`] — a byte array chunked over the object's shards
//!   (`chunk_size` bytes per dkey, dkeys round-robined across shards),
//!   which is what DFS files are built on.

mod array;
mod damp;
mod object;
mod spares;

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use daos_fabric::NodeId;
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::{join_inline, Sim};
use daos_vos::Epoch;

use crate::cluster::Cluster;
use crate::proto::{DaosError, Request, Response, Rpc, TargetRun};
use crate::ContId;

pub(crate) use array::xor_into;
pub use array::ArrayHandle;
use damp::{Admit, Attempt, DampState};
pub use damp::{DampStats, RetryPolicy};
pub use object::{KvHandle, ObjectHandle};
use spares::Spares;

/// Read "latest" epoch sentinel.
pub const EPOCH_LATEST: Epoch = Epoch::MAX;

/// A client process bound to a client node's fabric port.
#[derive(Clone)]
pub struct DaosClient {
    cluster: Rc<Cluster>,
    node: NodeId,
    damp: Rc<DampState>,
    /// Placements and collective-round buffers kept for reuse, shared by
    /// every clone and handle of this client.
    spares: Rc<Spares>,
    /// QoS tenant every RPC from this client is billed to (0 = the
    /// default class; see [`DaosClient::with_tenant`]).
    tenant: u8,
    /// The object IDs this client gives out, shared by every clone and
    /// every container handle it opens.
    oids: Rc<OidSeq>,
}

/// One client's object-ID sequence. The high word names the client node,
/// shifted by the repeat salt; the low word counts up in steps of two.
/// Real DFS reserves an ID range per client from its container; here each
/// client node owns the range its high word names. Both starting values
/// are fixed: every committed report's placements follow from them.
struct OidSeq {
    hi: u64,
    next_lo: Cell<u64>,
}

impl OidSeq {
    fn new(client_node_idx: u32, salt: u64) -> OidSeq {
        OidSeq {
            hi: (0x1D0 + client_node_idx as u64)
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_lo: Cell::new(0x12),
        }
    }

    fn allocate(&self) -> ObjectId {
        let lo = self.next_lo.get();
        self.next_lo.set(lo + 2);
        ObjectId::new(self.hi, lo)
    }
}

impl DaosClient {
    /// A client on client node `client_node_idx` (0-based).
    pub fn new(cluster: Rc<Cluster>, client_node_idx: u32) -> Self {
        let node = cluster.client_node(client_node_idx);
        DaosClient {
            cluster,
            node,
            damp: Rc::new(DampState::new(RetryPolicy::default())),
            spares: Rc::new(Spares::new()),
            tenant: 0,
            oids: Rc::new(OidSeq::new(client_node_idx, 0)),
        }
    }

    /// Same client node drawing its object IDs for repeat `salt` of a run:
    /// a fresh sequence whose IDs, and so whose placements, the salt
    /// shifts, as IOR's `-i` iterations each create their files anew.
    pub fn salted(mut self, salt: u64) -> Self {
        let idx = self.node as u32 - self.cluster.cfg.engine_count();
        self.oids = Rc::new(OidSeq::new(idx, salt));
        self
    }

    /// Same client billing its RPCs to `tenant`'s QoS class (handles
    /// opened from it inherit the tenant): every RPC carries the tenant in
    /// its header ([`Rpc`]).
    pub fn with_tenant(mut self, tenant: u8) -> Self {
        self.tenant = tenant;
        self
    }

    /// The QoS tenant this client bills to.
    pub fn tenant(&self) -> u8 {
        self.tenant
    }

    /// Same client with a different retry policy (handles opened from it
    /// inherit the policy). Resets the damping state: the token bucket is
    /// refilled to the new policy's budget and all breakers close.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.damp = Rc::new(DampState::new(retry));
        self
    }

    /// The client's retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.damp.policy
    }

    /// Storm-damping counters, cumulative across every clone and handle
    /// sharing this client's damping state.
    pub fn damp_stats(&self) -> DampStats {
        self.damp.stats()
    }

    /// The cluster this client talks to.
    pub fn cluster(&self) -> &Rc<Cluster> {
        &self.cluster
    }
    /// The fabric node this client injects from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Issue one RPC with the policy's per-attempt deadline; faults come
    /// back as typed retryable errors. The one raw single attempt: every
    /// other way out of the client wraps it (the data plane's gated call,
    /// [`DaosClient::control`]). A deadline the reply beats costs nothing:
    /// its timer is cancelled with its `Sleep`.
    pub async fn call_deadline(
        &self,
        sim: &Sim,
        engine_idx: u32,
        req: Request,
    ) -> Result<Response, DaosError> {
        let bulk = req.bulk_in();
        let rpc = Rpc {
            tenant: self.tenant,
            req,
        };
        self.cluster
            .engine(engine_idx)
            .endpoint()
            .call_deadline(sim, self.node, rpc, bulk, self.damp.policy.rpc_timeout)
            .await
            .map_err(DaosError::from)
    }

    /// Data-plane RPC through the storm-damping layer: an open circuit
    /// breaker fast-fails client-side with `Busy { queued: 0 }` (no wire
    /// traffic), sheds and timeouts feed the breaker, and responsive
    /// outcomes refund retry-budget tokens. Control-plane paths bypass
    /// this on purpose — pool-map refreshes must stay reachable while the
    /// data plane is damped, or recovery itself would be throttled.
    async fn call_gated(
        &self,
        sim: &Sim,
        engine_idx: u32,
        req: Request,
    ) -> Result<Response, DaosError> {
        let probe = match self.damp.breaker_gate(sim, engine_idx) {
            Admit::FastFail => return Err(DaosError::Busy { queued: 0 }),
            Admit::Yes { probe } => probe,
        };
        let r = self.call_deadline(sim, engine_idx, req).await;
        self.damp.settle(sim, engine_idx, probe, &r);
        r
    }

    /// An object-wide op through the data-plane retry loop. Each round
    /// routes the units still unanswered (`route` gives a unit's `(engine,
    /// local target)`, or `None` to drop it), sends each engine one gated
    /// RPC listing its targets in unit order — its run of one list the
    /// round shares, all in flight at once inside the caller's task — and
    /// folds every answer into one reply
    /// ([`Response::merge`]). The units of an engine that gave a retryable
    /// error wait for the next round, regrouped by whatever `refresh`
    /// moved; answers already in are kept, and any other error fails the
    /// op. The answers fold into `empty`, which is also the reply of an op
    /// left with no unit. A round's routing buffer and target list come
    /// from the client's spares and go back when the round ends; a list a
    /// timed-out request still holds is never rewritten
    /// ([`spares::SpareList::fill`]).
    async fn collective<R: Future>(
        &self,
        sim: &Sim,
        units: impl ExactSizeIterator<Item = u32> + Clone,
        route: impl Fn(u32) -> Option<(u32, u32)>,
        build: impl Fn(TargetRun) -> Request,
        refresh: impl Fn() -> R,
        empty: Response,
    ) -> Result<Response, DaosError> {
        let (unanswered, merged) = (&Cell::new(Vec::new()), &Cell::new(empty));
        let (units, route, build, spares) = (&units, &route, &build, &*self.spares);
        let round = move |round| async move {
            let placed = |unit| route(unit).map(|(engine, target)| (engine, target, unit));
            let mut routed = spares.routed.take().unwrap_or_default();
            // sized up front: a `filter_map` extend would grow it step by step
            routed.reserve(units.len());
            match round {
                0 => routed.extend(units.clone().filter_map(placed)),
                _ => routed.extend(unanswered.take().into_iter().filter_map(placed)),
            }
            routed.sort_by_key(|&(engine, ..)| engine);
            let same_engine = |a: &(u32, u32, u32), b: &(u32, u32, u32)| a.0 == b.0;
            let targets = spares.targets.fill(routed.iter().map(|&(_, t, _)| t));
            // counted first, so the fan-out is sized exactly
            let engines = routed.chunk_by(same_engine).count();
            let (mut groups, mut at) = (routed.chunk_by(same_engine), 0);
            let calls = (0..engines).map(|_| {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: `engines` counted exactly these groups"
                )]
                let on_engine = groups.next().expect("one group per engine");
                let run = TargetRun::new(&targets, at..at + on_engine.len());
                at += on_engine.len();
                self.call_gated(sim, on_engine[0].0, build(run))
            });
            let replies = join_inline(calls).await;
            let (mut left, mut verdict) = (Vec::new(), Attempt::Done(()));
            for (on_engine, reply) in routed.chunk_by(same_engine).zip(replies) {
                match reply {
                    Ok(Response::Err(e)) | Err(e) if e.is_retryable() => {
                        left.extend(on_engine.iter().map(|&(.., unit)| unit));
                        verdict = Attempt::Retry(e);
                    }
                    Ok(Response::Err(e)) | Err(e) => {
                        verdict = Attempt::Fail(e);
                        break;
                    }
                    Ok(answer) => merged.set(merged.replace(Response::Ok).merge(answer)),
                }
            }
            unanswered.set(left);
            routed.clear();
            spares.routed.keep(routed);
            spares.targets.keep(targets);
            verdict
        };
        let damp = &self.damp;
        let rounds = damp.retry_rounds(sim, DaosError::Timeout, round, refresh);
        rounds.await.map(|()| merged.replace(Response::Ok))
    }

    /// Control-plane RPC: retries across pool-service replicas following
    /// `NotLeader` hints, in the data plane's retry loop (budget and
    /// backoff; no breaker, and nothing to refresh). The service may still
    /// return a semantic error such as `ContainerExists`; a dead or
    /// partitioned service surfaces as a typed `Timeout`/`Transport` after
    /// the attempt budget.
    pub async fn control(&self, sim: &Sim, req: Request) -> Result<Response, DaosError> {
        let svc = self.cluster.replicas().len().max(1) as u32;
        let (engine, req) = (&Cell::new(0u32), &req);
        let attempt = move |_| async move {
            let at = engine.get();
            match self.call_deadline(sim, at, req.clone()).await {
                Ok(Response::Err(DaosError::NotLeader { hint })) => {
                    engine.set(match hint {
                        // raft ids are engine index + 1
                        Some(id) if id >= 1 && id <= svc as u64 => (id - 1) as u32,
                        _ => (at + 1) % svc,
                    });
                    Attempt::Retry(DaosError::NotLeader { hint })
                }
                Ok(answer) => Attempt::Done(answer),
                Err(e) if e.is_retryable() => {
                    engine.set((at + 1) % svc);
                    Attempt::Retry(e)
                }
                Err(e) => Attempt::Fail(e),
            }
        };
        let ready = || std::future::ready(());
        self.damp
            .retry_rounds(sim, DaosError::Timeout, attempt, ready)
            .await
    }

    /// Refresh the shared pool-map cache from the pool service; returns
    /// whether the cache changed. Best-effort: an unreachable service
    /// leaves the cache as is.
    pub async fn refresh_pool_map(&self, sim: &Sim) -> bool {
        match self.control(sim, Request::PoolQuery).await {
            Ok(Response::PoolMapInfo { version, excluded }) => {
                self.cluster.sync_pool_map(version, &excluded)
            }
            _ => false,
        }
    }

    /// Declare a tenant pool with shard reservations on `reserved`
    /// targets (replicated through the pool service; idempotent). The
    /// reservations feed the engine shapers once the cluster applies
    /// its QoS policy — see `Cluster::apply_qos`.
    pub async fn create_tenant_pool(
        &self,
        sim: &Sim,
        pool: u64,
        tenant: u8,
        reserved: Vec<daos_placement::TargetId>,
    ) -> Result<(), DaosError> {
        self.control(
            sim,
            Request::PoolCreate {
                pool,
                tenant,
                reserved,
            },
        )
        .await?
        .ok()
    }

    /// Connect to the pool (waits for the pool service to be up).
    pub async fn connect(&self, sim: &Sim) -> Result<PoolHandle, DaosError> {
        match self.control(sim, Request::PoolConnect).await? {
            Response::Connected { .. } => Ok(PoolHandle {
                client: self.clone(),
            }),
            other => Err(other.into_err()),
        }
    }
}

/// An open pool connection.
#[derive(Clone)]
pub struct PoolHandle {
    client: DaosClient,
}

impl PoolHandle {
    /// Create a container (error if it exists).
    pub async fn create_container(
        &self,
        sim: &Sim,
        cont: ContId,
    ) -> Result<ContainerHandle, DaosError> {
        self.client
            .control(sim, Request::ContCreate { cont })
            .await?
            .ok()?;
        Ok(self.handle(cont))
    }

    /// Open an existing container.
    pub async fn open_container(
        &self,
        sim: &Sim,
        cont: ContId,
    ) -> Result<ContainerHandle, DaosError> {
        self.client
            .control(sim, Request::ContOpen { cont })
            .await?
            .ok()?;
        Ok(self.handle(cont))
    }

    /// Open the container, creating it first if it does not exist (what
    /// `dfs_connect` with `O_CREAT` does before it mounts).
    pub async fn open_or_create(
        &self,
        sim: &Sim,
        cont: ContId,
    ) -> Result<ContainerHandle, DaosError> {
        match self.create_container(sim, cont).await {
            Ok(h) => Ok(h),
            Err(DaosError::ContainerExists(_)) => self.open_container(sim, cont).await,
            Err(e) => Err(e),
        }
    }

    /// Destroy a container.
    pub async fn destroy_container(&self, sim: &Sim, cont: ContId) -> Result<(), DaosError> {
        self.client
            .control(sim, Request::ContDestroy { cont })
            .await?
            .ok()
    }

    fn handle(&self, cont: ContId) -> ContainerHandle {
        ContainerHandle {
            client: self.client.clone(),
            cont,
        }
    }
}

/// An open container.
#[derive(Clone)]
pub struct ContainerHandle {
    client: DaosClient,
    cont: ContId,
}

impl ContainerHandle {
    /// The container id.
    pub fn id(&self) -> ContId {
        self.cont
    }
    /// The client this handle rides on.
    pub fn client(&self) -> &DaosClient {
        &self.client
    }

    /// Capture a container snapshot: an epoch at or above every update
    /// completed so far (queried from every live target, one RPC per
    /// engine, like `daos_cont_create_snap`). Reads at this epoch see
    /// exactly the data present now, regardless of later overwrites.
    pub async fn snapshot(&self, sim: &Sim) -> Result<Epoch, DaosError> {
        let client = &self.client;
        let tpe = client.cluster.cfg.targets_per_engine;
        let live = |t| (!client.cluster.pool_map().is_excluded(t)).then_some((t / tpe, t % tpe));
        let query = |targets| Request::QueryEpoch { targets };
        let refresh = || client.refresh_pool_map(sim);
        let (all, zero) = (
            0..client.cluster.cfg.engine_count() * tpe,
            Response::Epoch(0),
        );
        let epochs = client.collective(sim, all, live, query, refresh, zero);
        match epochs.await? {
            Response::Epoch(e) => Ok(e),
            other => Err(other.into_err()),
        }
    }

    /// A fresh object ID (`daos_cont_alloc_oids`), drawn from the one
    /// sequence of this handle's client: no two objects any handle of one
    /// client creates share an ID.
    pub fn allocate_oid(&self) -> ObjectId {
        self.client.oids.allocate()
    }

    /// Open an object with a class; computes the layout client-side.
    pub fn object(&self, oid: ObjectId, class: ObjectClass) -> ObjectHandle {
        ObjectHandle::open(self, oid, class)
    }
}

#[cfg(test)]
mod tests;
