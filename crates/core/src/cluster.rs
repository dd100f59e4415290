//! Testbed builder: fabric + engines + media + pool service.
//!
//! The default configuration models the paper's NEXTGenIO deployment:
//! 8 server nodes × 2 DAOS engines, each engine owning one socket's
//! 6-DIMM Optane DCPMM interleave set and its own fabric rail (NEXTGenIO
//! nodes have dual Omni-Path), 8 VOS targets per engine, and a 3-replica
//! RAFT pool service.

use std::cell::{Cell, Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use daos_fabric::{Fabric, FabricConfig, NodeId};
use daos_media::{Dcpmm, DcpmmConfig, MediaSet};
use daos_placement::{ObjectId, PoolMap, Stripe, TargetId};
use daos_sim::time::SimDuration;
use daos_sim::{FaultAction, FaultInjector, FaultPlan, Sim};

use crate::engine::{Engine, EngineConfig};
use crate::pool::{spawn_pool_service, HeartbeatConfig, PoolOp, PoolReplica, PoolState};
use crate::rebuild::{self, CorruptionReport, RebuildStats};
use crate::ContId;

/// `(cont, oid) →` the array geometry, for every array of a protected
/// class opened through a cluster: the only objects rebuild and repair
/// can heal.
type ObjectRegistry = BTreeMap<(ContId, ObjectId), Stripe>;

/// Full testbed description.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// DAOS server nodes.
    pub server_nodes: u32,
    /// Engines per server (one per socket).
    pub engines_per_node: u32,
    /// VOS targets per engine.
    pub targets_per_engine: u32,
    /// Client nodes attached to the fabric.
    pub client_nodes: u32,
    /// Media behind each engine (one interleave set per socket).
    pub scm: DcpmmConfig,
    /// Interconnect parameters.
    pub fabric: FabricConfig,
    /// Engine service parameters.
    pub engine: EngineConfig,
    /// Pool-service replica count.
    pub svc_replicas: u32,
    /// Pool-service tick interval.
    pub svc_tick: SimDuration,
    /// Failure-detector (heartbeat) tuning.
    pub heartbeat: HeartbeatConfig,
}

impl ClusterConfig {
    /// The paper's testbed: 8 servers × 2 engines, with `client_nodes`
    /// clients.
    pub fn nextgenio(client_nodes: u32) -> Self {
        ClusterConfig {
            server_nodes: 8,
            engines_per_node: 2,
            targets_per_engine: 8,
            client_nodes,
            scm: DcpmmConfig::default(),
            fabric: FabricConfig::default(),
            engine: EngineConfig::default(),
            svc_replicas: 3,
            svc_tick: SimDuration::from_ms(5),
            heartbeat: HeartbeatConfig::default(),
        }
    }

    /// A small testbed for unit/integration tests (fast to simulate).
    pub fn tiny(client_nodes: u32) -> Self {
        ClusterConfig {
            server_nodes: 2,
            engines_per_node: 1,
            targets_per_engine: 4,
            client_nodes,
            scm: DcpmmConfig::default(),
            fabric: FabricConfig::default(),
            engine: EngineConfig::default(),
            svc_replicas: 1,
            svc_tick: SimDuration::from_ms(1),
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_ms(2),
                timeout: SimDuration::from_ms(1),
                suspect: 3,
            },
        }
    }

    /// Total engine count.
    pub fn engine_count(&self) -> u32 {
        self.server_nodes * self.engines_per_node
    }
}

/// What the end-to-end integrity pipeline has seen and done: corruption
/// reports arriving at the pool service (from client reads and background
/// scrubbers) and the targeted repairs they triggered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorruptionStats {
    /// Reports accepted (one per distinct bad copy at a time).
    pub reported: u64,
    /// Duplicate reports dropped while a repair for the same copy ran.
    pub duplicates: u64,
    /// Targeted repairs that landed.
    pub repairs_ok: u64,
    /// Targeted repairs that failed (no live donor, RPC failure).
    pub repairs_failed: u64,
    /// Extents rotted by injected [`FaultAction::BitRot`] events.
    pub rot_injected: u64,
    /// Virtual instant (ns) the first report was accepted, if any —
    /// detection latency relative to the injection instant.
    pub first_report_ns: Option<u64>,
}

/// A running simulated DAOS system.
pub struct Cluster {
    pub cfg: ClusterConfig,
    pub fabric: Rc<Fabric>,
    engines: Vec<Rc<Engine>>,
    replicas: Vec<Rc<PoolReplica>>,
    pool_map: RefCell<PoolMap>,
    /// Protected arrays opened through this cluster — what a rebuild pass
    /// walks. Real DAOS enumerates object IDs from the VOS trees; the
    /// registry stands in for that scan.
    objects: RefCell<ObjectRegistry>,
    rebuilds_running: Cell<u32>,
    rebuild_stats: RefCell<RebuildStats>,
    repairs_running: Cell<u32>,
    /// Bad copies whose targeted repair is still in flight — the dedupe
    /// set that keeps a hot chunk from spawning a repair per read.
    repairs_inflight: RefCell<BTreeSet<CorruptionReport>>,
    corruption_stats: RefCell<CorruptionStats>,
}

impl Cluster {
    /// Build the testbed and start all server tasks.
    ///
    /// Fabric node layout: engines occupy nodes `0..E` (each engine has its
    /// own rail); client node `i` is fabric node `E + i`.
    pub fn build(sim: &Sim, cfg: ClusterConfig) -> Rc<Cluster> {
        let n_engines = cfg.engine_count();
        let fabric = Fabric::new((n_engines + cfg.client_nodes) as usize, cfg.fabric);
        let engines: Vec<Rc<Engine>> = (0..n_engines)
            .map(|i| {
                let scm = Dcpmm::new(&format!("engine{i}.pmem"), cfg.scm);
                let media = MediaSet::scm_only(scm);
                Engine::spawn(
                    sim,
                    Rc::clone(&fabric),
                    i as NodeId,
                    i,
                    media,
                    cfg.targets_per_engine,
                    cfg.engine,
                )
            })
            .collect();

        // pool service on the first `svc_replicas` engines; raft ids are
        // engine index + 1 (raft ids are nonzero by convention)
        let members: Vec<(u64, NodeId, crate::engine::ControlQueue)> = engines
            .iter()
            .take(cfg.svc_replicas.max(1) as usize)
            .map(|e| (e.index() as u64 + 1, e.node(), e.attach_replica()))
            .collect();
        let engine_eps = engines
            .iter()
            .map(|e| (e.index(), Rc::clone(e.endpoint())))
            .collect();
        let replicas = spawn_pool_service(
            sim,
            &fabric,
            members,
            engine_eps,
            n_engines,
            cfg.targets_per_engine,
            cfg.svc_tick,
            cfg.heartbeat,
        );

        let pool_map = RefCell::new(PoolMap::new(n_engines, cfg.targets_per_engine));
        let cluster = Rc::new(Cluster {
            cfg,
            fabric,
            engines,
            replicas,
            pool_map,
            objects: RefCell::new(BTreeMap::new()),
            rebuilds_running: Cell::new(0),
            rebuild_stats: RefCell::new(RebuildStats::default()),
            repairs_running: Cell::new(0),
            repairs_inflight: RefCell::new(BTreeSet::new()),
            corruption_stats: RefCell::new(CorruptionStats::default()),
        });
        // committed exclusions/reintegrations kick off rebuild on whichever
        // replica leads; the Weak breaks the Rc cycle replica → cluster
        for r in &cluster.replicas {
            let weak = Rc::downgrade(&cluster);
            r.set_on_map_change(move |sim, op, state| {
                if let Some(c) = weak.upgrade() {
                    c.on_map_change(sim, op, state);
                }
            });
        }
        // corruption reports converge on the same targeted-repair pipeline
        // whether a client read tripped on them (via the pool service) or
        // an engine's background scrubber found them locally
        for r in &cluster.replicas {
            let weak = Rc::downgrade(&cluster);
            r.set_on_corruption(move |sim, report| {
                if let Some(c) = weak.upgrade() {
                    c.handle_corruption(sim, report);
                }
            });
        }
        for e in &cluster.engines {
            let weak = Rc::downgrade(&cluster);
            e.set_on_corruption(move |sim, report| {
                if let Some(c) = weak.upgrade() {
                    c.handle_corruption(sim, report);
                }
            });
        }
        cluster
    }

    /// The pool map (placement input).
    pub fn pool_map(&self) -> Ref<'_, PoolMap> {
        self.pool_map.borrow()
    }

    /// Install per-tenant QoS shaping on every engine, honouring pool
    /// shard reservations: a tenant whose pool reserved a target gets its
    /// DRR weight boosted on that target's xstream, so reserved shards
    /// keep serving it preferentially even when a noisy neighbour
    /// saturates the engine.
    ///
    /// Reservations are read from the pool service's replicated metadata
    /// (see [`crate::pool::PoolMeta`]); call again after declaring pools
    /// to refresh the boosts.
    pub fn apply_qos(&self, params: crate::qos::QosParams) {
        // A reservation quadruples the tenant's round-robin share on the
        // reserved shard's service stream (relative to its base class).
        const RESERVATION_BOOST: u32 = 4;
        for e in &self.engines {
            e.set_qos(params.clone());
        }
        let Some(replica) = self.replicas.first() else {
            return;
        };
        let state = replica.state();
        for meta in state.pools.values() {
            let weight = params
                .class(meta.tenant)
                .weight
                .saturating_mul(RESERVATION_BOOST);
            for &t in &meta.reserved {
                if t < self.cfg.engine_count() * self.cfg.targets_per_engine {
                    let (e, local) = self.resolve_target(t);
                    e.boost_tenant(local, meta.tenant, weight);
                }
            }
        }
    }

    /// Sum a tenant's shaper statistics across all engines.
    pub fn tenant_stats(&self, tenant: u8) -> crate::engine::TenantStats {
        let mut total = crate::engine::TenantStats::default();
        for e in &self.engines {
            total.merge(&e.tenant_stats(tenant));
        }
        total
    }

    /// Administratively exclude a target (simulated failure / drain);
    /// bumps the map version. Object handles opened afterwards avoid it;
    /// handles opened before read degraded through their protection class.
    pub fn exclude_target(&self, t: TargetId) {
        self.pool_map.borrow_mut().exclude(t);
    }

    /// Reintegrate a previously excluded target.
    pub fn reintegrate_target(&self, t: TargetId) {
        self.pool_map.borrow_mut().reintegrate(t);
    }

    /// Adopt an authoritative `(version, excluded)` snapshot from the pool
    /// service into the client-side map cache; returns whether it changed.
    pub fn sync_pool_map(&self, version: u32, excluded: &[TargetId]) -> bool {
        self.pool_map.borrow_mut().sync(version, excluded)
    }

    /// Record an array's geometry for rebuild passes if its class is
    /// protected: an unprotected array has no redundancy to rebuild from.
    pub(crate) fn register_array(&self, cont: ContId, stripe: Stripe) {
        if stripe.class.is_protected() {
            self.objects.borrow_mut().insert((cont, stripe.oid), stripe);
        }
    }

    /// The protected geometry `oid` was last opened as an array with.
    pub(crate) fn registered_array(&self, cont: ContId, oid: ObjectId) -> Option<Stripe> {
        self.objects.borrow().get(&(cont, oid)).copied()
    }

    /// Snapshot of the registry, in key order (rebuild input).
    pub(crate) fn registered_arrays(&self) -> Vec<(ContId, Stripe)> {
        let objects = self.objects.borrow();
        objects.iter().map(|(&(c, _), &s)| (c, s)).collect()
    }

    /// Map-change hook fired by the leading pool-service replica when an
    /// exclusion/reintegration commits: spawns a background rebuild pass
    /// moving protected shards onto their new homes.
    fn on_map_change(self: &Rc<Self>, sim: &Sim, op: &PoolOp, state: &PoolState) {
        let new_excluded: BTreeSet<TargetId> = state.excluded.clone();
        let mut old_excluded = new_excluded.clone();
        match op {
            PoolOp::Exclude(ts) => {
                for t in ts {
                    old_excluded.remove(t);
                }
            }
            PoolOp::Reintegrate(ts) => {
                old_excluded.extend(ts.iter().copied());
            }
            _ => return,
        }
        if old_excluded == new_excluded {
            return; // idempotent commit: nothing actually changed
        }
        self.rebuilds_running.set(self.rebuilds_running.get() + 1);
        let version = state.map_version;
        let c = Rc::clone(self);
        let s = sim.clone();
        sim.spawn_detached(async move {
            let stats = rebuild::run(&s, &c, version, &old_excluded, &new_excluded).await;
            c.rebuild_stats.borrow_mut().merge(&stats);
            c.rebuilds_running.set(c.rebuilds_running.get() - 1);
        });
    }

    /// One bad-copy report entering the self-healing pipeline: dedupe
    /// against repairs already in flight, then spawn a targeted repair of
    /// that single chunk copy in the background.
    pub(crate) fn handle_corruption(self: &Rc<Self>, sim: &Sim, report: CorruptionReport) {
        if !self.repairs_inflight.borrow_mut().insert(report) {
            self.corruption_stats.borrow_mut().duplicates += 1;
            return;
        }
        {
            let mut st = self.corruption_stats.borrow_mut();
            st.reported += 1;
            st.first_report_ns.get_or_insert(sim.now().as_ns());
        }
        self.repairs_running.set(self.repairs_running.get() + 1);
        let c = Rc::clone(self);
        let s = sim.clone();
        sim.spawn_detached(async move {
            let ok = rebuild::repair_corruption(&s, &c, report).await;
            {
                let mut st = c.corruption_stats.borrow_mut();
                if ok {
                    st.repairs_ok += 1;
                } else {
                    st.repairs_failed += 1;
                }
            }
            // off the in-flight set either way: a failed repair may be
            // re-reported (and succeed) once donors come back
            c.repairs_inflight.borrow_mut().remove(&report);
            c.repairs_running.set(c.repairs_running.get() - 1);
        });
    }

    /// Cumulative corruption-report / targeted-repair statistics.
    pub fn corruption_stats(&self) -> CorruptionStats {
        self.corruption_stats.borrow().clone()
    }

    /// Number of targeted corruption repairs currently in flight.
    pub fn repairs_running(&self) -> u32 {
        self.repairs_running.get()
    }

    /// Wait until no targeted corruption repair is in flight.
    pub async fn quiesce_repairs(&self, sim: &Sim) {
        while self.repairs_running.get() > 0 {
            sim.sleep_ms(1).await;
        }
    }

    /// Number of rebuild passes currently running.
    pub fn rebuilds_running(&self) -> u32 {
        self.rebuilds_running.get()
    }

    /// Cumulative rebuild statistics.
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.rebuild_stats.borrow().clone()
    }

    /// Wait until no rebuild pass is running. Callers that just triggered
    /// an exclusion should first wait for the map version to move (the
    /// pass starts when the exclusion *commits*).
    pub async fn quiesce_rebuild(&self, sim: &Sim) {
        while self.rebuilds_running.get() > 0 {
            sim.sleep_ms(1).await;
        }
    }

    /// Arm a [`FaultPlan`] against this cluster: node indices in the plan
    /// map to engine indices (crash/restart both the engine process and
    /// its fabric port); fabric-wide actions apply to the whole fabric.
    pub fn install_fault_plan(self: &Rc<Self>, sim: &Sim, plan: FaultPlan) -> FaultInjector {
        let weak = Rc::downgrade(self);
        FaultInjector::install(sim, plan, move |s, action| {
            if let Some(c) = weak.upgrade() {
                c.apply_fault(s, action);
            }
        })
    }

    /// Apply one fault action immediately (the fault-plan handler).
    pub fn apply_fault(&self, sim: &Sim, action: FaultAction) {
        match action {
            FaultAction::Crash { node } => {
                if let Some(e) = self.engines.get(node) {
                    e.crash();
                    self.fabric.set_node_down(node as NodeId);
                }
            }
            FaultAction::Restart { node } => {
                if let Some(e) = self.engines.get(node) {
                    e.restart();
                    self.fabric.set_node_up(node as NodeId);
                }
            }
            FaultAction::Partition { a, b } => {
                self.fabric.partition_between(a as NodeId, b as NodeId);
            }
            FaultAction::HealAll => {
                self.fabric.heal_all();
                for e in &self.engines {
                    e.set_corrupt_inflight(0);
                }
            }
            FaultAction::DropRate { ppm } => {
                self.fabric.set_drop_rate(ppm, 0xD20B ^ ppm as u64);
            }
            FaultAction::LatencySpike { extra_ns } => {
                self.fabric
                    .set_extra_latency(SimDuration::from_ns(extra_ns));
            }
            FaultAction::LatencyClear => {
                self.fabric.set_extra_latency(SimDuration::ZERO);
            }
            FaultAction::BitRot {
                target,
                fraction_ppm,
            } => {
                let t = target as TargetId;
                if t < self.cfg.engine_count() * self.cfg.targets_per_engine {
                    let (e, local) = self.resolve_target(t);
                    // seeded from the virtual instant + target so repeated
                    // BitRot events rot different (but reproducible) extents
                    let seed = 0xB17_2077u64 ^ sim.now().as_ns() ^ ((t as u64) << 40);
                    let rotted = e.target(local).inject_bit_rot(fraction_ppm, seed);
                    self.corruption_stats.borrow_mut().rot_injected += rotted;
                }
            }
            FaultAction::CorruptInFlight { ppm } => {
                for e in &self.engines {
                    e.set_corrupt_inflight(ppm);
                }
            }
        }
    }
    /// All engines.
    pub fn engines(&self) -> &[Rc<Engine>] {
        &self.engines
    }
    /// Engine by index.
    pub fn engine(&self, idx: u32) -> &Rc<Engine> {
        &self.engines[idx as usize]
    }
    /// Pool-service replicas (tests).
    pub fn replicas(&self) -> &[Rc<PoolReplica>] {
        &self.replicas
    }
    /// Engine indices hosting pool-service replicas.
    pub fn svc_engines(&self) -> Vec<u32> {
        (0..self.replicas.len() as u32).collect()
    }

    /// Fabric node of client node `i`.
    pub fn client_node(&self, i: u32) -> NodeId {
        assert!(i < self.cfg.client_nodes, "client node {i} out of range");
        (self.cfg.engine_count() + i) as NodeId
    }

    /// Resolve a global target id to `(engine, local target index)`.
    pub fn resolve_target(&self, t: TargetId) -> (&Rc<Engine>, u32) {
        let e = t / self.cfg.targets_per_engine;
        (&self.engines[e as usize], t % self.cfg.targets_per_engine)
    }

    /// Aggregate bytes written across all VOS targets.
    pub fn total_bytes_written(&self) -> u64 {
        self.engines
            .iter()
            .flat_map(|e| (0..e.target_count()).map(move |t| e.target(t).counters().bytes_written))
            .sum()
    }

    /// Aggregate bytes read across all VOS targets.
    pub fn total_bytes_read(&self) -> u64 {
        self.engines
            .iter()
            .flat_map(|e| (0..e.target_count()).map(move |t| e.target(t).counters().bytes_read))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use daos_placement::ObjectClass;

    use super::*;
    use crate::DaosClient;

    /// An open registers for rebuild only what rebuild reads: an array of
    /// a protected class, once however often it is opened.
    #[test]
    fn only_protected_arrays_are_registered_for_rebuild() {
        let mut sim = Sim::new(0x5A3);
        sim.block_on(|sim| async move {
            let cluster = Cluster::build(&sim, ClusterConfig::tiny(1));
            let pool = DaosClient::new(Rc::clone(&cluster), 0).connect(&sim).await;
            let cont = pool.unwrap().open_or_create(&sim, 1).await.unwrap();
            let registered = || cluster.objects.borrow().len();
            let open = |lo, class| cont.object(ObjectId::new(0x5B, lo), class);
            open(0, ObjectClass::S1).array(4096);
            open(1, ObjectClass::SX).array(4096);
            open(2, ObjectClass::S1).kv();
            open(3, ObjectClass::SX).kv();
            open(4, ObjectClass::RP_2GX).kv();
            assert_eq!(registered(), 0);

            open(5, ObjectClass::RP_2GX).array(4096);
            assert_eq!(registered(), 1);
            open(5, ObjectClass::RP_2GX).array(4096);
            assert_eq!(registered(), 1, "a reopen registered twice");
            let oid = ObjectId::new(0x5B, 5);
            assert_eq!(cluster.registered_array(1, oid).map(|s| s.oid), Some(oid));
        });
    }
}
