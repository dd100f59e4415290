//! The DAOS engine: an RPC server with one service stream (xstream) per
//! VOS target.
//!
//! Each data-plane request is dispatched to the xstream owning its target
//! (an object-wide one to the xstream of every target it lists, all inside
//! its one handler task): the xstream charges a fixed per-RPC CPU cost,
//! executes the VOS operation against the target's media, and replies. One
//! xstream serves one request at a time (Argobots ULTs yield on I/O in
//! real DAOS, but the paper's bulk-I/O workloads behave like FIFO service
//! per target), so per-target queueing — the contention behaviour behind
//! the object-class results — emerges naturally.
//!
//! The request pipeline is the body of `Engine::handle` and
//! `Engine::serve_data`, read top to bottom; each stage keeps its state
//! and counters in its own file:
//!
//! * `admission` — the admission gates and the xstream FIFOs;
//! * `shaper` — the per-tenant QoS shaper (DRR + token buckets);
//! * `exec` — the CPU/copy/checksum charge, the stream window and the
//!   VOS operation, one step per route (`exec_target`, `exec_visit`);
//! * `background` — epoch aggregation and the checksum scrubber.

mod admission;
mod background;
mod exec;
mod shaper;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::rc::Rc;

use daos_fabric::{Endpoint, Fabric, Incoming, NodeId};
use daos_media::MediaSet;
use daos_placement::ObjectId;
use daos_sim::sync::OneshotSender;
use daos_sim::time::SimDuration;
use daos_sim::units::Bandwidth;
use daos_sim::{join_inline, Pipe, ReplySlots, SharedPipe, Sim};
use daos_vos::target::VosConfig;
use daos_vos::VosTarget;

pub use admission::AdmissionStats;
pub use shaper::TenantStats;

use admission::Admission;
use background::Background;
use exec::StreamWindow;
use shaper::{QosShaper, RPC_OVERHEAD_BYTES};

use crate::proto::{DaosError, Request, Response, Rpc};
use crate::qos::QosParams;
use crate::rebuild::CorruptionReport;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Fixed CPU cost to parse/dispatch/complete one RPC on an xstream.
    /// Per RPC, not per target: an object-wide op that visits several
    /// local targets pays it once, on the xstream of one lead target.
    pub rpc_cpu: SimDuration,
    /// Per-byte CPU on the serving xstream for data ops (copy into/out of
    /// media buffers, checksumming). This makes the *target* a serial
    /// resource for bulk I/O: a target holding several hot files serialises
    /// their readers — the straggler mechanism that penalises `S1` at
    /// scale.
    pub xstream_copy_bw: Bandwidth,
    /// Effective engine-wide bulk *write* bandwidth: service-core copies,
    /// checksums and PMDK transaction overheads on the update path. Gen-1
    /// DAOS engines on Optane were bound here (~3 GiB/s per engine), well
    /// below the raw interleave-set bandwidth.
    pub bulk_write_bw: Bandwidth,
    /// Effective engine-wide bulk *read* bandwidth (~4x the write path:
    /// no transaction/flush costs).
    pub bulk_read_bw: Bandwidth,
    /// How many distinct objects an engine's combined stream window (DCPMM
    /// write-combining + DRAM VOS-tree cache) tracks before it thrashes.
    /// Sized between S2's and SX's per-engine working sets: at 16 client
    /// nodes (128 files in flight) S1 leaves ~8 objects per engine and S2
    /// ~16 (both fit), while SX leaves ~128 (every access misses).
    pub stream_lru: usize,
    /// Stall for a write landing outside the stream window: the DCPMM
    /// write-combining queue (WPQ) flushes a partial buffer before
    /// admitting the new stream, and the PMDK transaction path re-walks a
    /// cold tree. The stall adds *latency without consuming pipe
    /// capacity*: blocked clients still offer more than the engines'
    /// aggregate bandwidth at high node counts, so a saturated system
    /// delivers full throughput regardless. This asymmetry is the paper's
    /// crossover mechanism: wide classes (`SX`) run slower while the
    /// system is latency-bound ("lower performance for fewer writers")
    /// and win on placement balance once it is bandwidth-bound ("best
    /// write performance for high contention").
    pub write_miss_stall: SimDuration,
    /// Added latency for a read of an object outside the window (cold
    /// VOS-tree descent from SCM).
    pub read_miss_latency: SimDuration,
    /// Bulk-bandwidth amplification for cold reads: uncached descents drag
    /// index pages and scatter-gather state through the service cores.
    pub read_miss_amp: f64,
    /// VOS index cost model shared by this engine's targets.
    pub vos: VosConfig,
    /// Throughput of the xstream checksum engine (ISA-L-style CRC on the
    /// service cores). Charged per payload byte on verify-on-write and
    /// verify-on-fetch when `vos.csum_enabled` — the "measured overhead"
    /// half of the integrity story.
    pub csum_bw: Bandwidth,
    /// Background scrubber pass interval per engine (None disables; also
    /// idle when `vos.csum_enabled` is off). Each tick verifies up to
    /// `scrub_chunks` chunks per target, charging media read time — the
    /// scrub-rate vs foreground-bandwidth tradeoff knob.
    pub scrub_interval: Option<SimDuration>,
    /// Chunk budget per target per scrub tick.
    pub scrub_chunks: usize,
    /// Bounded per-xstream admission queue: a data-plane request arriving
    /// when its target xstream already has `queue_cap` requests queued or
    /// in service is shed with a header-only [`DaosError::Busy`] fast-fail
    /// instead of joining an unbounded FIFO. `queue_cap = 0` sheds every
    /// data-plane request (drain mode); `None` disables admission control
    /// entirely — the pre-overload, closed-loop model, and the default so
    /// existing figures are bit-for-bit unchanged.
    pub queue_cap: Option<u32>,
    /// Engine-wide budget of bulk payload bytes admitted but not yet
    /// served. A write whose payload would push the engine past the budget
    /// is shed with `Busy` before it touches an xstream, bounding the
    /// buffer memory a saturated engine pins. Header-only ops never count
    /// against it. `None` disables (the default).
    pub inflight_cap: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            rpc_cpu: SimDuration::from_us(6),
            xstream_copy_bw: Bandwidth::gib_per_sec(8.5),
            bulk_write_bw: Bandwidth::gib_per_sec(3.0),
            bulk_read_bw: Bandwidth::gib_per_sec(11.0),
            stream_lru: 36,
            write_miss_stall: SimDuration::from_us(1500),
            read_miss_latency: SimDuration::from_us(40),
            read_miss_amp: 1.6,
            vos: VosConfig::default(),
            // hardware-accelerated hash class (crc32c / xxh3 on one core)
            csum_bw: Bandwidth::gib_per_sec(40.0),
            scrub_interval: Some(SimDuration::from_ms(500)),
            scrub_chunks: 8,
            queue_cap: None,
            inflight_cap: None,
        }
    }
}

/// Control-plane requests the engine forwards to a co-located pool-service
/// replica (if any): `(request, reply)` pairs.
pub type ControlQueue = daos_sim::Mailbox<(Request, OneshotSender<Response>)>;

/// A DAOS engine bound to one fabric node.
pub struct Engine {
    index: u32,
    node: NodeId,
    cfg: EngineConfig,
    targets: Vec<Rc<VosTarget>>,
    endpoint: Rc<Endpoint<Rpc, Response>>,
    control: ControlQueue,
    /// One slot per control request awaiting the replica's answer.
    control_replies: ReplySlots<Response>,
    has_replica: Cell<bool>,
    /// Whether the engine process is up. A crashed engine stops answering
    /// (its endpoint goes offline and in-flight requests are dropped
    /// without a reply); VOS state lives in SCM and survives.
    alive: Cell<bool>,
    /// Latest pool-map version gossiped to this engine by heartbeats.
    map_version: Cell<u32>,
    /// Local target indices the pool map excludes on this engine; data ops
    /// addressed to them are rejected with `StaleMap`.
    local_excluded: RefCell<BTreeSet<u32>>,
    admission: Admission,
    /// Per-tenant QoS shaper, installed post-spawn by [`Engine::set_qos`]
    /// (`None` = unshaped: the exact pre-QoS service order).
    qos: RefCell<Option<Rc<QosShaper>>>,
    bulk_write: SharedPipe,
    bulk_read: SharedPipe,
    window: StreamWindow,
    /// In-flight frame-corruption rate (ppm); fault injection via
    /// `FaultAction::CorruptInFlight`.
    corrupt_ppm: Cell<u32>,
    background: Background,
}

impl Engine {
    /// Build an engine with `targets_per_engine` VOS targets over `media`
    /// and start its service loop.
    pub fn spawn(
        sim: &Sim,
        fabric: Rc<Fabric>,
        node: NodeId,
        index: u32,
        media: Rc<MediaSet>,
        targets_per_engine: u32,
        cfg: EngineConfig,
    ) -> Rc<Engine> {
        let pipe = |dir, bw| Pipe::new(format!("engine{index}.bulk.{dir}"), bw, SimDuration::ZERO);
        let eng = Rc::new(Engine {
            index,
            node,
            cfg,
            targets: (0..targets_per_engine)
                .map(|_| VosTarget::new(Rc::clone(&media), cfg.vos))
                .collect(),
            endpoint: Endpoint::bind(fabric, node),
            control: daos_sim::Mailbox::new(),
            control_replies: ReplySlots::new(),
            has_replica: Cell::new(false),
            alive: Cell::new(true),
            map_version: Cell::new(0),
            local_excluded: RefCell::new(BTreeSet::new()),
            admission: Admission::new(targets_per_engine, cfg.queue_cap, cfg.inflight_cap),
            qos: RefCell::new(None),
            bulk_write: pipe("wr", cfg.bulk_write_bw),
            bulk_read: pipe("rd", cfg.bulk_read_bw),
            window: StreamWindow::new(cfg.stream_lru),
            corrupt_ppm: Cell::new(0),
            background: Background::default(),
        });
        sim.spawn_detached(background::aggregation(Rc::clone(&eng), sim.clone()));
        // the scrubber is idle without checksums to verify against
        if let (true, Some(interval)) = (cfg.vos.csum_enabled, cfg.scrub_interval) {
            sim.spawn_detached(background::scrubber(Rc::clone(&eng), sim.clone(), interval));
        }
        let e = Rc::clone(&eng);
        let s = sim.clone();
        sim.spawn_detached(async move {
            while let Some(inc) = e.endpoint.serve().await {
                let e = Rc::clone(&e);
                let s2 = s.clone();
                s.spawn_detached(async move { e.handle(&s2, inc).await });
            }
        });
        eng
    }

    /// This engine's index within the cluster.
    pub fn index(&self) -> u32 {
        self.index
    }
    /// The fabric node the engine is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }
    /// The engine's RPC endpoint (clients resolve targets to this).
    pub fn endpoint(&self) -> &Rc<Endpoint<Rpc, Response>> {
        &self.endpoint
    }
    /// Access a local VOS target (stats, tests).
    pub fn target(&self, local: u32) -> &Rc<VosTarget> {
        &self.targets[local as usize]
    }
    /// Number of local targets.
    pub fn target_count(&self) -> u32 {
        self.targets.len() as u32
    }
    /// The control queue a pool-service replica drains. Marks the engine as
    /// hosting a replica.
    pub fn attach_replica(&self) -> ControlQueue {
        self.has_replica.set(true);
        self.control.clone()
    }

    /// Whether the engine process is up.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Crash the engine: the endpoint goes offline (new RPCs see a dead
    /// link), replies to requests already being served are dropped, and
    /// volatile state (the stream window) is lost. VOS data is in SCM and
    /// survives.
    pub fn crash(&self) {
        self.alive.set(false);
        self.endpoint.set_online(false);
        self.window.clear();
    }

    /// Restart a crashed engine: it comes back with cold caches but intact
    /// persistent state, and starts answering RPCs again. It rejoins with
    /// whatever pool-map knowledge it crashed with; heartbeats re-gossip
    /// the current version.
    pub fn restart(&self) {
        self.alive.set(true);
        self.endpoint.set_online(true);
    }

    /// The latest pool-map version heartbeats have gossiped here.
    pub fn map_version(&self) -> u32 {
        self.map_version.get()
    }

    /// Local target indices this engine believes are excluded.
    pub fn local_excluded(&self) -> Vec<u32> {
        self.local_excluded.borrow().iter().copied().collect()
    }

    fn excludes(&self, local: u32) -> bool {
        self.local_excluded.borrow().contains(&local)
    }

    /// Stream-window (miss, hit) counters.
    pub fn stream_stats(&self) -> (u64, u64) {
        self.window.stats()
    }

    /// Extent-tree records reclaimed by background aggregation.
    pub fn extents_reclaimed(&self) -> u64 {
        self.background.extents_reclaimed.get()
    }

    /// Set the in-flight frame-corruption rate (ppm; 0 clears).
    pub fn set_corrupt_inflight(&self, ppm: u32) {
        self.corrupt_ppm.set(ppm);
    }

    /// Wire the scrubber's corruption findings to a handler (the cluster's
    /// targeted-repair path).
    pub fn set_on_corruption(&self, f: impl Fn(&Sim, CorruptionReport) + 'static) {
        *self.background.on_corruption.borrow_mut() = Some(Box::new(f));
    }

    /// Corrupt chunks found by this engine's background scrubber so far.
    pub fn scrub_found(&self) -> u64 {
        self.background.scrub_found.get()
    }

    /// Admission-control counters: shed totals per gate (zero while that
    /// gate is disabled), plus the admit total and current in-flight bulk
    /// bytes, which count whether or not a gate is configured.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Install (or replace) the per-tenant QoS shaper. Engines spawn
    /// unshaped — installing post-spawn keeps [`EngineConfig`] and every
    /// committed baseline's config hash untouched — and with no shaper
    /// the request path is bit-for-bit the pre-QoS engine.
    pub fn set_qos(&self, params: QosParams) {
        self.qos
            .replace(Some(QosShaper::new(params, self.targets.len())));
    }

    /// The installed shaper, if any: the one way the data path, the
    /// control path and the scrubber reach it.
    fn shaper(&self) -> Option<Rc<QosShaper>> {
        self.qos.borrow().clone()
    }

    /// Boost `tenant`'s DRR weight on local xstream `local` (pool shard
    /// reservations). No-op while unshaped.
    pub fn boost_tenant(&self, local: u32, tenant: u8, weight: u32) {
        if let Some(sh) = self.shaper() {
            sh.boost(local as usize, tenant, weight);
        }
    }

    /// Per-tenant shaper counters (empty while unshaped).
    pub fn qos_stats(&self) -> BTreeMap<u8, TenantStats> {
        self.shaper().map(|sh| sh.stats()).unwrap_or_default()
    }

    /// One tenant's shaper counters (zero while unshaped).
    pub fn tenant_stats(&self, tenant: u8) -> TenantStats {
        self.qos_stats().get(&tenant).copied().unwrap_or_default()
    }

    /// The request pipeline. Whatever is decided between accept and
    /// reply, a crash in that interval swallows the response: the
    /// caller's RPC hangs until its deadline, exactly like a real process
    /// death mid-service.
    async fn handle(&self, sim: &Sim, inc: Incoming<Rpc, Response>) {
        // split so the request can be *moved* into execution (no clone of
        // bulk-carrying bodies) while the reply slot stays usable; the
        // header's tenant routes the op through its service class
        let (Rpc { tenant, req }, responder) = inc.split();
        let rsp = if let Some(t) = req.target() {
            self.serve_data(sim, t, tenant, &req, true, Self::exec_target)
                .await
        } else if let Some((targets, oid)) = req.targets() {
            self.visit(sim, targets, oid, tenant, &req).await
        } else {
            match req {
                // Heartbeats are answered here, on the networking core,
                // not an xstream: they must stay cheap and unqueued or a
                // busy engine looks dead.
                Request::Ping { version, excluded } => self.heartbeat(version, excluded),
                req => self.forward_control(sim, req).await,
            }
        };
        if self.alive.get() {
            let bulk = rsp.bulk_out();
            responder.respond(rsp, bulk);
        }
    }

    /// Adopt the pool map a heartbeat gossips, if it is newer.
    fn heartbeat(&self, version: u32, excluded: Vec<u32>) -> Response {
        if self.alive.get() && version > self.map_version.get() {
            self.map_version.set(version);
            *self.local_excluded.borrow_mut() = excluded.into_iter().collect();
        }
        Response::Pong
    }

    /// Control plane: forward to the co-located pool-service replica.
    /// Accounted against the background class but never delayed.
    async fn forward_control(&self, sim: &Sim, req: Request) -> Response {
        if let Some(sh) = self.shaper() {
            sh.account_control(sim);
        }
        if !self.has_replica.get() {
            return Response::Err(DaosError::NotLeader { hint: None });
        }
        let (tx, rx) = self.control_replies.channel();
        self.control.send((req, tx));
        match rx.await {
            Ok(r) => r,
            Err(_) => Response::Err(DaosError::Transport),
        }
    }

    /// Why the networking core turns a data-plane request away before it
    /// queues, in precedence order: the client routed to a target this
    /// engine knows is excluded (`StaleMap` — it must not serve or accept
    /// data, and a `Busy` would invite a pointless retry here), then the
    /// two admission gates.
    fn refusal(&self, t: usize, bulk_in: u64) -> Option<DaosError> {
        if self.excludes(t as u32) {
            return Some(DaosError::StaleMap {
                version: self.map_version.get(),
            });
        }
        self.admission.refuse(t, bulk_in)
    }

    /// An object-wide op: every listed target is served concurrently
    /// inside this handler's own task — one ULT per local target, not a
    /// task each — and the replies merge into one in target order
    /// ([`Response::merge`]). Each visit is a full [`Engine::serve_data`],
    /// so exclusion, the admission gates, the shaper and the xstream FIFO
    /// see it exactly as they would a request of its own. The RPC itself
    /// was parsed once, so one visit carries its CPU cost: a lead picked
    /// by object id, so that no xstream is every object's lead.
    async fn visit(
        &self,
        sim: &Sim,
        targets: &[u32],
        oid: Option<ObjectId>,
        tenant: u8,
        req: &Request,
    ) -> Response {
        let lead = oid.map_or(0, |o| o.mix() % targets.len().max(1) as u64);
        let visits = targets.iter().enumerate().map(|(i, &t)| {
            self.serve_data(sim, t, tenant, req, i as u64 == lead, Self::exec_visit)
        });
        let replies = join_inline(visits).await;
        replies.reduce(Response::merge).unwrap_or(Response::Ok)
    }

    /// The data plane, for local target `t` of a request: the one it is
    /// addressed to, or one of those it visits. A refusal is never
    /// billed: the shaper only ever sees admitted work. The in-flight
    /// budget, the gate grant and the xstream permit are all released on
    /// every exit, including service that outlives a crash — the buffer
    /// is freed either way. `rpc` is whether this target's xstream also
    /// pays for the RPC itself ([`Engine::charge`]) or only for its VOS
    /// op. `exec` is that op, [`Engine::exec_target`] or
    /// [`Engine::exec_visit`] by the request's route: the caller picks
    /// it, so the future is only as large as the step it can run.
    async fn serve_data<'a, Fut>(
        &'a self,
        sim: &'a Sim,
        t: u32,
        tenant: u8,
        req: &'a Request,
        rpc: bool,
        exec: impl FnOnce(&'a Self, &'a Sim, &'a VosTarget, &'a Request) -> Fut,
    ) -> Response
    where
        Fut: Future<Output = Result<Response, DaosError>>,
    {
        let t = t as usize % self.targets.len();
        let bulk_in = req.bulk_in();
        if let Some(e) = self.refusal(t, bulk_in) {
            return Response::Err(e);
        }
        self.admission.admit(bulk_in);
        // payload cost the shaper charges: write bulk or the requested
        // fetch length (reconciled by the refund below)
        let copy_bytes = req.payload_bytes();
        let shaper = self.shaper();
        let _grant = match &shaper {
            Some(sh) => Some(
                sh.grant(sim, t, tenant, copy_bytes + RPC_OVERHEAD_BYTES)
                    .await,
            ),
            None => None,
        };
        let _xs = self.admission.xstream(t).acquire().await;
        if rpc {
            self.charge(sim, copy_bytes).await;
        }
        let rsp = exec(self, sim, &self.targets[t], req)
            .await
            .unwrap_or_else(Response::Err);
        self.admission.release(bulk_in);
        if let (Some(sh), Response::Fetched { .. }) = (&shaper, &rsp) {
            sh.refund(sim, tenant, copy_bytes.saturating_sub(rsp.bulk_out()));
        }
        rsp
    }
}
