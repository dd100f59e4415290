//! The pool service: pool/container metadata replicated with RAFT.
//!
//! A replica set of engines (3 by default) each runs a [`daos_raft::Raft`]
//! instance driven by a periodic tick task. Control-plane requests arriving
//! at an engine are forwarded to its replica; the leader proposes the
//! operation and replies only once the entry commits and applies, giving
//! the transactional semantics DAOS's service layer provides. Followers
//! answer `NotLeader` with a hint so clients can re-target.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use daos_fabric::{Endpoint, Fabric, NodeId};
use daos_placement::TargetId;
use daos_raft::{Apply, Config as RaftConfig, Message, Raft, Role};
use daos_sim::executor::join_all;
use daos_sim::sync::OneshotSender;
use daos_sim::time::SimDuration;
use daos_sim::{ReplySlots, Sim};

use crate::engine::ControlQueue;
use crate::proto::{DaosError, Request, Response, Rpc};
use crate::rebuild::{CorruptionHook, CorruptionReport};
use crate::ContId;

/// Replicated pool-service commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolOp {
    Connect,
    ContCreate(ContId),
    ContOpen(ContId),
    ContDestroy(ContId),
    /// Exclude targets from the pool map (failure detector or admin).
    Exclude(Vec<TargetId>),
    /// Re-admit previously excluded targets.
    Reintegrate(Vec<TargetId>),
    /// Declare a tenant pool with optional shard reservations (see
    /// [`PoolMeta`]). Re-declaring an existing pool replaces its
    /// metadata — idempotent for retried control RPCs.
    CreatePool {
        pool: u64,
        tenant: u8,
        reserved: Vec<TargetId>,
    },
}

/// One tenant pool's metadata: the QoS tenant it bills to and the
/// targets it holds shard reservations on. Reservations feed the engine
/// shapers — a reserving tenant gets a boosted DRR weight on those
/// targets' xstreams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolMeta {
    pub tenant: u8,
    pub reserved: BTreeSet<TargetId>,
}

/// The replicated state machine: the pool's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolState {
    pub containers: BTreeSet<ContId>,
    pub connections: u64,
    /// Targets excluded from placement; the authoritative pool map.
    pub excluded: BTreeSet<TargetId>,
    /// Pool-map version, bumped once per exclusion/reintegration batch.
    pub map_version: u32,
    /// Tenant pools sharing this cluster's targets, keyed by pool id.
    pub pools: BTreeMap<u64, PoolMeta>,
}

impl Default for PoolState {
    fn default() -> Self {
        PoolState {
            containers: BTreeSet::new(),
            connections: 0,
            excluded: BTreeSet::new(),
            // matches PoolMap::new so client caches and the service agree
            // on the healthy-map version
            map_version: 1,
            pools: BTreeMap::new(),
        }
    }
}

impl PoolState {
    /// Apply one committed op; the result is what the leader replies.
    /// Must be deterministic — every replica runs it.
    pub fn apply(&mut self, op: &PoolOp, engines: u32, targets_per_engine: u32) -> Response {
        match op {
            PoolOp::Connect => {
                self.connections += 1;
                Response::Connected {
                    engines,
                    targets_per_engine,
                }
            }
            PoolOp::ContCreate(c) => {
                if self.containers.insert(*c) {
                    Response::Ok
                } else {
                    Response::Err(DaosError::ContainerExists(*c))
                }
            }
            PoolOp::ContOpen(c) => {
                if self.containers.contains(c) {
                    Response::Connected {
                        engines,
                        targets_per_engine,
                    }
                } else {
                    Response::Err(DaosError::NoContainer(*c))
                }
            }
            PoolOp::ContDestroy(c) => {
                if self.containers.remove(c) {
                    Response::Ok
                } else {
                    Response::Err(DaosError::NoContainer(*c))
                }
            }
            PoolOp::Exclude(ts) => {
                let mut changed = false;
                for &t in ts {
                    changed |= self.excluded.insert(t);
                }
                if changed {
                    self.map_version += 1;
                }
                self.map_info()
            }
            PoolOp::Reintegrate(ts) => {
                let mut changed = false;
                for t in ts {
                    changed |= self.excluded.remove(t);
                }
                if changed {
                    self.map_version += 1;
                }
                self.map_info()
            }
            PoolOp::CreatePool {
                pool,
                tenant,
                reserved,
            } => {
                self.pools.insert(
                    *pool,
                    PoolMeta {
                        tenant: *tenant,
                        reserved: reserved.iter().copied().collect(),
                    },
                );
                Response::Ok
            }
        }
    }

    /// The current map as a wire response.
    pub fn map_info(&self) -> Response {
        Response::PoolMapInfo {
            version: self.map_version,
            excluded: self.excluded.iter().copied().collect(),
        }
    }

    /// Serialise for RAFT snapshots.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32 + self.containers.len() * 8 + self.excluded.len() * 8);
        v.extend_from_slice(&self.connections.to_le_bytes());
        v.extend_from_slice(&(self.map_version as u64).to_le_bytes());
        v.extend_from_slice(&(self.containers.len() as u64).to_le_bytes());
        for c in &self.containers {
            v.extend_from_slice(&c.to_le_bytes());
        }
        v.extend_from_slice(&(self.excluded.len() as u64).to_le_bytes());
        for t in &self.excluded {
            v.extend_from_slice(&(*t as u64).to_le_bytes());
        }
        // tenant-pool section
        v.extend_from_slice(&(self.pools.len() as u64).to_le_bytes());
        for (id, meta) in &self.pools {
            v.extend_from_slice(&id.to_le_bytes());
            v.extend_from_slice(&u64::from(meta.tenant).to_le_bytes());
            v.extend_from_slice(&(meta.reserved.len() as u64).to_le_bytes());
            for t in &meta.reserved {
                v.extend_from_slice(&(*t as u64).to_le_bytes());
            }
        }
        v
    }

    /// Restore from a snapshot produced by [`PoolState::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> PoolState {
        if data.len() < 32 {
            return PoolState::default();
        }
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: slices are exactly 8 bytes by construction, so try_into \
                      to [u8; 8] cannot fail; a non-empty snapshot is one whole \
                      `to_bytes` output (none outlives the process that wrote it)"
        )]
        let rd = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
        let connections = rd(0);
        let map_version = rd(8) as u32;
        let n = rd(16) as usize;
        let containers = (0..n).map(|i| rd(24 + i * 8)).collect();
        let e_base = 24 + n * 8;
        let n_excl = rd(e_base) as usize;
        let excluded = (0..n_excl)
            .map(|i| rd(e_base + 8 + i * 8) as TargetId)
            .collect();
        let mut pools = BTreeMap::new();
        let mut at = e_base + 8 + n_excl * 8;
        let n_pools = rd(at) as usize;
        at += 8;
        for _ in 0..n_pools {
            let id = rd(at);
            let tenant = rd(at + 8) as u8;
            let n_res = rd(at + 16) as usize;
            at += 24;
            let reserved = (0..n_res).map(|i| rd(at + i * 8) as TargetId).collect();
            at += n_res * 8;
            pools.insert(id, PoolMeta { tenant, reserved });
        }
        PoolState {
            containers,
            connections,
            excluded,
            map_version,
            pools,
        }
    }
}

/// RAFT message on the wire (sender id + payload).
pub type RaftWire = (u64, Message<PoolOp>);

/// One pool-service replica co-located with an engine.
pub struct PoolReplica {
    raft_id: u64,
    raft: RefCell<Raft<PoolOp>>,
    state: RefCell<PoolState>,
    pending: RefCell<BTreeMap<u64, OneshotSender<Response>>>,
    /// Reply slots for the ops the replica proposes on its own (the
    /// failure detector's exclusions), whose answers nobody awaits.
    own_replies: ReplySlots<Response>,
    raft_ep: Rc<Endpoint<RaftWire, ()>>,
    /// raft id -> endpoint of that replica (filled once all are built).
    peers: RefCell<BTreeMap<u64, Rc<Endpoint<RaftWire, ()>>>>,
    node: NodeId,
    engines: u32,
    targets_per_engine: u32,
    /// Invoked (with the post-apply state) when an exclusion or
    /// reintegration commits on the current leader — the hook the testbed
    /// uses to kick off rebuild.
    #[allow(
        clippy::type_complexity,
        reason = "a one-off hook slot; an alias would be used once"
    )]
    on_map_change: RefCell<Option<Box<dyn Fn(&Sim, &PoolOp, &PoolState)>>>,
    /// Invoked when a client reports a checksum-failed chunk copy — the
    /// hook the testbed uses to kick off a targeted repair.
    on_corruption: RefCell<Option<CorruptionHook>>,
}

impl PoolReplica {
    /// Current role (tests / introspection).
    pub fn role(&self) -> Role {
        self.raft.borrow().role()
    }
    /// Leader hint as an engine-replica raft id.
    pub fn leader_hint(&self) -> Option<u64> {
        self.raft.borrow().leader_hint()
    }
    /// The replicated state (for assertions).
    pub fn state(&self) -> PoolState {
        self.state.borrow().clone()
    }
    /// Install the map-change hook, invoked on every applied pool op.
    pub fn set_on_map_change(&self, f: impl Fn(&Sim, &PoolOp, &PoolState) + 'static) {
        *self.on_map_change.borrow_mut() = Some(Box::new(f));
    }
    /// Install the corruption-report hook, invoked when an engine reports
    /// checksum corruption.
    pub fn set_on_corruption(&self, f: impl Fn(&Sim, CorruptionReport) + 'static) {
        *self.on_corruption.borrow_mut() = Some(Box::new(f));
    }

    fn dispatch(self: &Rc<Self>, sim: &Sim, envs: Vec<daos_raft::Envelope<PoolOp>>) {
        for env in envs {
            let peers = self.peers.borrow();
            let Some(ep) = peers.get(&env.to) else {
                continue;
            };
            let ep = Rc::clone(ep);
            let from_node = self.node;
            let me = self.raft_id;
            let s = sim.clone();
            sim.spawn_detached(async move {
                // fire-and-forget; the receiver acks immediately
                let _ = ep.call(&s, from_node, (me, env.msg), 0).await;
            });
        }
    }

    fn harvest(self: &Rc<Self>, sim: &Sim, applies: Vec<Apply<PoolOp>>) {
        for ev in applies {
            match ev {
                Apply::Committed(entry) => {
                    let rsp = self.state.borrow_mut().apply(
                        &entry.cmd,
                        self.engines,
                        self.targets_per_engine,
                    );
                    if let Some(tx) = self.pending.borrow_mut().remove(&entry.index) {
                        tx.send(rsp);
                    }
                    // fire the rebuild hook exactly once across the replica
                    // set: on whichever replica is currently leading
                    if matches!(entry.cmd, PoolOp::Exclude(_) | PoolOp::Reintegrate(_))
                        && self.raft.borrow().role() == Role::Leader
                    {
                        if let Some(f) = self.on_map_change.borrow().as_ref() {
                            f(sim, &entry.cmd, &self.state.borrow());
                        }
                    }
                }
                Apply::Restore(snap) => {
                    *self.state.borrow_mut() = PoolState::from_bytes(&snap.data);
                }
            }
        }
    }

    fn handle_control(self: &Rc<Self>, sim: &Sim, req: Request, reply: OneshotSender<Response>) {
        let op = match req {
            Request::PoolConnect => PoolOp::Connect,
            Request::ContCreate { cont } => PoolOp::ContCreate(cont),
            Request::ContOpen { cont } => PoolOp::ContOpen(cont),
            Request::ContDestroy { cont } => PoolOp::ContDestroy(cont),
            // read-only: the leader answers straight from applied state
            Request::PoolQuery => {
                let rsp = if self.raft.borrow().role() == Role::Leader {
                    self.state.borrow().map_info()
                } else {
                    Response::Err(DaosError::NotLeader {
                        hint: self.raft.borrow().leader_hint(),
                    })
                };
                reply.send(rsp);
                return;
            }
            Request::PoolExclude { targets } => PoolOp::Exclude(targets),
            Request::PoolReintegrate { targets } => PoolOp::Reintegrate(targets),
            Request::PoolCreate {
                pool,
                tenant,
                reserved,
            } => PoolOp::CreatePool {
                pool,
                tenant,
                reserved,
            },
            // Advisory, not replicated state: whichever replica gets the
            // report acknowledges and kicks the repair hook directly. A
            // report lost to a crash is harmless — the next verified read
            // or scrub pass of the bad copy re-reports it.
            Request::ReportCorrupt {
                cont,
                oid,
                chunk,
                target,
            } => {
                reply.send(Response::Ok);
                if let Some(f) = self.on_corruption.borrow().as_ref() {
                    f(
                        sim,
                        CorruptionReport {
                            cont,
                            oid,
                            chunk,
                            target,
                        },
                    );
                }
                return;
            }
            other => {
                reply.send(Response::Err(DaosError::Other(format!(
                    "not a control op: {other:?}"
                ))));
                return;
            }
        };
        let mut raft = self.raft.borrow_mut();
        match raft.propose(op) {
            Ok((index, outs)) => {
                drop(raft);
                self.pending.borrow_mut().insert(index, reply);
                self.dispatch(sim, outs);
                let applies = self.raft.borrow_mut().take_applies();
                drop_if_empty(applies, |a| self.harvest(sim, a));
            }
            Err(nl) => {
                reply.send(Response::Err(DaosError::NotLeader { hint: nl.hint }));
            }
        }
    }
}

fn drop_if_empty<T>(v: Vec<T>, f: impl FnOnce(Vec<T>)) {
    if !v.is_empty() {
        f(v)
    }
}

/// Engine `engine`'s excluded targets as local target indices, in order:
/// what a `Ping` tells it to reject.
pub(crate) fn local_excluded(excluded: &BTreeSet<TargetId>, engine: u32, tpe: u32) -> Vec<u32> {
    let first = engine * tpe;
    let local = excluded.range(first..first + tpe);
    local.map(|&t| t - first).collect()
}

/// Failure-detector tuning.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// How often the leader pings every engine.
    pub interval: SimDuration,
    /// Per-ping deadline; no answer within it counts as a miss.
    pub timeout: SimDuration,
    /// Consecutive misses before the engine's targets are excluded.
    pub suspect: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: SimDuration::from_ms(10),
            timeout: SimDuration::from_ms(2),
            suspect: 3,
        }
    }
}

/// Build and start the pool service across `members`:
/// `(raft_id, fabric node, control queue)` per replica.
///
/// `engine_eps` lists every engine's RPC endpoint `(engine index,
/// endpoint)`; the current leader heartbeats them all, gossiping the map
/// version and proposing exclusion after `hb.suspect` consecutive misses.
///
/// Returns the replicas (index-aligned with `members`).
#[allow(
    clippy::too_many_arguments,
    reason = "the testbed builder's one call site passes the service's wiring as-is"
)]
pub fn spawn_pool_service(
    sim: &Sim,
    fabric: &Rc<Fabric>,
    members: Vec<(u64, NodeId, ControlQueue)>,
    engine_eps: Vec<(u32, Rc<Endpoint<Rpc, Response>>)>,
    engines: u32,
    targets_per_engine: u32,
    tick: SimDuration,
    hb: HeartbeatConfig,
) -> Vec<Rc<PoolReplica>> {
    let ids: Vec<u64> = members.iter().map(|(id, _, _)| *id).collect();
    let replicas: Vec<Rc<PoolReplica>> = members
        .iter()
        .map(|(id, node, _)| {
            Rc::new(PoolReplica {
                raft_id: *id,
                raft: RefCell::new(Raft::new(RaftConfig::new(*id, ids.clone()), 0xDA05)),
                state: RefCell::new(PoolState::default()),
                pending: RefCell::new(BTreeMap::new()),
                own_replies: ReplySlots::new(),
                raft_ep: Endpoint::bind(Rc::clone(fabric), *node),
                peers: RefCell::new(BTreeMap::new()),
                node: *node,
                engines,
                targets_per_engine,
                on_map_change: RefCell::new(None),
                on_corruption: RefCell::new(None),
            })
        })
        .collect();

    // cross-wire peer endpoints
    for r in &replicas {
        let mut peers = r.peers.borrow_mut();
        for other in &replicas {
            peers.insert(other.raft_id, Rc::clone(&other.raft_ep));
        }
    }

    // driver task per replica
    for (i, r) in replicas.iter().enumerate() {
        let r = Rc::clone(r);
        let control = members[i].2.clone();
        let s = sim.clone();
        sim.spawn_detached(async move {
            loop {
                // 1. control requests from the engine front-end
                while let Some((req, reply)) = control.try_recv() {
                    r.handle_control(&s, req, reply);
                }
                // 2. incoming raft traffic
                while let Some(inc) = r.raft_ep.try_serve() {
                    let (from, msg) = inc.req.clone();
                    inc.respond((), 0);
                    let outs = r.raft.borrow_mut().step(from, msg);
                    r.dispatch(&s, outs);
                    let applies = r.raft.borrow_mut().take_applies();
                    r.harvest(&s, applies);
                }
                // 3. logical clock tick
                let outs = r.raft.borrow_mut().tick();
                r.dispatch(&s, outs);
                let applies = r.raft.borrow_mut().take_applies();
                r.harvest(&s, applies);
                // 4. compaction
                {
                    let mut raft = r.raft.borrow_mut();
                    if raft.wants_snapshot() {
                        let data = r.state.borrow().to_bytes();
                        raft.compact(data);
                    }
                }
                s.sleep(tick).await;
            }
        });
    }

    // Failure detector: every replica runs the loop, but only the current
    // leader actually pings. Pings double as gossip — they carry the map
    // version and each engine's excluded local targets, which is how a
    // restarted engine relearns what it must reject.
    for r in &replicas {
        let r = Rc::clone(r);
        let eps = engine_eps.clone();
        let s = sim.clone();
        sim.spawn_detached(async move {
            let mut misses: BTreeMap<u32, u32> = BTreeMap::new();
            let mut proposed: BTreeSet<u32> = BTreeSet::new();
            loop {
                s.sleep(hb.interval).await;
                if r.role() != Role::Leader {
                    misses.clear();
                    proposed.clear();
                    continue;
                }
                let (version, excluded) = {
                    let st = r.state.borrow();
                    (st.map_version, st.excluded.clone())
                };
                let futs: Vec<_> = eps
                    .iter()
                    .map(|(idx, ep)| {
                        let idx = *idx;
                        let ep = Rc::clone(ep);
                        let from = r.node;
                        let s = s.clone();
                        let local = local_excluded(&excluded, idx, targets_per_engine);
                        async move {
                            let req = Request::Ping {
                                version,
                                excluded: local,
                            };
                            let ping = Rpc { tenant: 0, req };
                            let ok = ep
                                .call_deadline(&s, from, ping, 0, hb.timeout)
                                .await
                                .is_ok();
                            (idx, ok)
                        }
                    })
                    .collect();
                for (idx, ok) in join_all(&s, futs).await {
                    if ok {
                        misses.insert(idx, 0);
                        proposed.remove(&idx);
                        continue;
                    }
                    let m = misses.entry(idx).or_insert(0);
                    *m += 1;
                    let dark: Vec<TargetId> = (idx * targets_per_engine
                        ..(idx + 1) * targets_per_engine)
                        .filter(|t| !excluded.contains(t))
                        .collect();
                    if *m >= hb.suspect && !dark.is_empty() && proposed.insert(idx) {
                        let (tx, _rx) = r.own_replies.channel();
                        r.handle_control(&s, Request::PoolExclude { targets: dark }, tx);
                    }
                }
            }
        });
    }
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_state_apply_semantics() {
        let mut st = PoolState::default();
        assert!(matches!(
            st.apply(&PoolOp::Connect, 4, 8),
            Response::Connected {
                engines: 4,
                targets_per_engine: 8
            }
        ));
        assert!(st.apply(&PoolOp::ContCreate(1), 4, 8).ok().is_ok());
        assert_eq!(
            st.apply(&PoolOp::ContCreate(1), 4, 8).ok(),
            Err(DaosError::ContainerExists(1))
        );
        assert!(st.apply(&PoolOp::ContOpen(1), 4, 8).ok().is_ok());
        assert_eq!(
            st.apply(&PoolOp::ContOpen(9), 4, 8).ok(),
            Err(DaosError::NoContainer(9))
        );
        assert!(st.apply(&PoolOp::ContDestroy(1), 4, 8).ok().is_ok());
        assert_eq!(
            st.apply(&PoolOp::ContDestroy(1), 4, 8).ok(),
            Err(DaosError::NoContainer(1))
        );
    }

    #[test]
    fn pool_state_snapshot_round_trip() {
        let mut st = PoolState::default();
        st.apply(&PoolOp::Connect, 1, 1);
        for c in [3u64, 7, 9] {
            st.apply(&PoolOp::ContCreate(c), 1, 1);
        }
        st.apply(
            &PoolOp::CreatePool {
                pool: 11,
                tenant: 2,
                reserved: vec![0, 3],
            },
            1,
            1,
        );
        st.apply(
            &PoolOp::CreatePool {
                pool: 12,
                tenant: 255,
                reserved: vec![],
            },
            1,
            1,
        );
        let bytes = st.to_bytes();
        let back = PoolState::from_bytes(&bytes);
        assert_eq!(st, back);
        assert_eq!(PoolState::from_bytes(&[]), PoolState::default());
    }

    #[test]
    fn tenant_pools_are_idempotent() {
        let mut st = PoolState::default();
        let create = |res: Vec<TargetId>| PoolOp::CreatePool {
            pool: 5,
            tenant: 1,
            reserved: res,
        };
        assert!(st.apply(&create(vec![2]), 4, 8).ok().is_ok());
        // re-declaring replaces the metadata, never duplicates the pool
        assert!(st.apply(&create(vec![2, 6]), 4, 8).ok().is_ok());
        assert_eq!(st.pools.len(), 1);
        assert_eq!(
            st.pools[&5].reserved.iter().copied().collect::<Vec<_>>(),
            vec![2, 6]
        );
        // pool declarations do not bump the data-placement map version
        assert_eq!(st.map_version, 1);
    }
}
