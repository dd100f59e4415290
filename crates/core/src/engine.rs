//! The DAOS engine: an RPC server with one service stream (xstream) per
//! VOS target.
//!
//! Each data-plane request is dispatched to the xstream owning its target:
//! the xstream charges a fixed per-RPC CPU cost, executes the VOS operation
//! against the target's media, and replies. One xstream serves one request
//! at a time (Argobots ULTs yield on I/O in real DAOS, but the paper's
//! bulk-I/O workloads behave like FIFO service per target), so per-target
//! queueing — the contention behaviour behind the object-class results —
//! emerges naturally.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use daos_fabric::{Endpoint, Fabric, NodeId};
use daos_media::MediaSet;
use daos_placement::ObjectId;
use daos_sim::time::SimDuration;
use daos_sim::units::Bandwidth;
use daos_sim::{Pipe, Semaphore, SharedPipe, Sim};
use daos_vos::target::VosConfig;
use daos_vos::VosTarget;

use crate::proto::{chunk_of_dkey, wire_csum, wire_csum_segs, DaosError, Request, Response};
use crate::qos::{Drr, QosParams, TokenBucket, BG_TENANT};
use crate::rebuild::{CorruptionHook, CorruptionReport};

/// Header/metadata overhead charged per shaped RPC on top of its bulk
/// payload, so header-only ops still cost the shaper something.
const RPC_OVERHEAD_BYTES: u64 = 512;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Fixed CPU cost to parse/dispatch/complete one RPC on an xstream.
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
    /// Background epoch-aggregation interval (None disables). Aggregation
    /// flattens overwrite history older than `aggregation_retention`,
    /// reclaiming extent-tree records — DAOS's background VOS aggregation
    /// service.
    pub aggregation_interval: Option<SimDuration>,
    /// History younger than this is kept for snapshot readers.
    pub aggregation_retention: SimDuration,
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
            aggregation_interval: Some(SimDuration::from_secs(5)),
            aggregation_retention: SimDuration::from_secs(2),
            // hardware-accelerated hash class (crc32c / xxh3 on one core)
            csum_bw: Bandwidth::gib_per_sec(40.0),
            scrub_interval: Some(SimDuration::from_ms(500)),
            scrub_chunks: 8,
            queue_cap: None,
            inflight_cap: None,
        }
    }
}

/// Admission-control observability counters (see
/// [`Engine::admission_stats`]). All zero while admission control is
/// disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests shed at the per-xstream queue-depth gate.
    pub shed_queue: u64,
    /// Requests shed at the engine-wide in-flight-bytes gate.
    pub shed_bytes: u64,
    /// Data-plane requests admitted to an xstream.
    pub admitted: u64,
    /// Bulk payload bytes currently admitted but not yet served.
    pub inflight_bytes: u64,
}

/// Per-tenant shaper observability counters (see
/// [`Engine::tenant_stats`]). All zero while shaping is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Shaped requests granted service (plus accounted control ops).
    pub ops: u64,
    /// Net cost bytes charged against the tenant (refunds subtracted).
    pub bytes: u64,
    /// Cost bytes refunded after service (sparse fetches that charged
    /// their full requested length up front).
    pub refunded: u64,
    /// Total nanoseconds requests of this tenant spent waiting at the
    /// shaper gate (DRR queueing plus token-bucket throttling).
    pub throttle_ns: u64,
}

/// One xstream's shaper gate: a DRR scheduler over waiting requests plus
/// a single-grant latch. At most one grant is outstanding per xstream,
/// so the DRR order — not FIFO arrival order — decides who runs next
/// even when no rate cap is active.
struct XsGate {
    drr: RefCell<Drr>,
    /// Per-tenant FIFO of wakers, parallel to the DRR queues (enqueue
    /// pushes both in the same order, so fronts stay aligned).
    waiters: RefCell<BTreeMap<u8, VecDeque<daos_sim::sync::OneshotSender<()>>>>,
    /// The DRR's current selection, parked while its tenant's token
    /// buckets are short.
    head: Cell<Option<(u8, u64)>>,
    /// A grant is outstanding (its request is being served).
    busy: Cell<bool>,
    /// A token-refill sleeper task is already armed for `head`.
    sleeping: Cell<bool>,
}

/// The engine's QoS shaper: per-tenant token buckets (engine-wide) and
/// one `XsGate` per xstream. Installed after spawn via
/// [`Engine::set_qos`] so [`EngineConfig`] — and with it every committed
/// baseline's config hash — is untouched; absent a shaper the engine
/// behaves bit-for-bit as before.
pub struct QosShaper {
    params: QosParams,
    /// Per-tenant token buckets, lazily created from the tenant's class.
    buckets: RefCell<BTreeMap<u8, TenantBuckets>>,
    gates: Vec<Rc<XsGate>>,
    stats: RefCell<BTreeMap<u8, TenantStats>>,
}

/// A tenant's `(bandwidth bucket, iops bucket)`; `None` = uncapped.
type TenantBuckets = (Option<TokenBucket>, Option<TokenBucket>);

/// RAII release of an [`XsGate`] grant: fires on every exit from
/// service — including an engine crash mid-request — so the gate can
/// hand the xstream to the next DRR selection.
struct GateGuard {
    shaper: Rc<QosShaper>,
    sim: Sim,
    xs: usize,
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.shaper.gates[self.xs].busy.set(false);
        self.shaper.pump(&self.sim, self.xs);
    }
}

impl QosShaper {
    fn new(params: QosParams, xstreams: usize) -> Rc<QosShaper> {
        let gates = (0..xstreams)
            .map(|_| {
                let mut drr = Drr::new(params.quantum);
                for (&tenant, class) in &params.classes {
                    drr.set_weight(tenant, class.weight);
                }
                Rc::new(XsGate {
                    drr: RefCell::new(drr),
                    waiters: RefCell::new(BTreeMap::new()),
                    head: Cell::new(None),
                    busy: Cell::new(false),
                    sleeping: Cell::new(false),
                })
            })
            .collect();
        Rc::new(QosShaper {
            params,
            buckets: RefCell::new(BTreeMap::new()),
            gates,
            stats: RefCell::new(BTreeMap::new()),
        })
    }

    /// Boost `tenant`'s DRR weight on one xstream (pool shard
    /// reservations: a tenant holding a reservation on a target
    /// outweighs interlopers there).
    fn boost(&self, xs: usize, tenant: u8, weight: u32) {
        if let Some(gate) = self.gates.get(xs) {
            gate.drr.borrow_mut().set_weight(tenant, weight);
        }
    }

    fn with_buckets<R>(&self, tenant: u8, f: impl FnOnce(&mut TenantBuckets) -> R) -> R {
        let mut map = self.buckets.borrow_mut();
        let entry = map.entry(tenant).or_insert_with(|| {
            let class = self.params.class(tenant);
            let ops_burst = class.burst / MIB_COST + 1;
            (
                class.bw_cap.map(|r| TokenBucket::new(r, class.burst)),
                class.iops_cap.map(|r| TokenBucket::new(r, ops_burst)),
            )
        });
        f(entry)
    }

    fn note(&self, tenant: u8, f: impl FnOnce(&mut TenantStats)) {
        let mut stats = self.stats.borrow_mut();
        f(stats.entry(tenant).or_default());
    }

    /// Nanoseconds until `tenant`'s buckets cover `cost` (0 = now).
    fn token_wait(&self, now_ns: u64, tenant: u8, cost: u64) -> u64 {
        self.with_buckets(tenant, |(bw, iops)| {
            let mut wait = 0u64;
            if let Some(b) = bw {
                b.refill(now_ns);
                wait = wait.max(b.ns_until(cost));
            }
            if let Some(b) = iops {
                b.refill(now_ns);
                wait = wait.max(b.ns_until(1));
            }
            wait
        })
    }

    fn take_tokens(&self, now_ns: u64, tenant: u8, cost: u64) {
        self.with_buckets(tenant, |(bw, iops)| {
            if let Some(b) = bw {
                b.try_take(now_ns, cost);
            }
            if let Some(b) = iops {
                b.try_take(now_ns, 1);
            }
        });
    }

    /// Drive one gate forward: park the DRR head while its tenant's
    /// buckets are short (arming a single refill sleeper), grant it when
    /// they cover. Synchronous, so it is safe from [`GateGuard::drop`].
    fn pump(self: &Rc<Self>, sim: &Sim, xs: usize) {
        let gate = &self.gates[xs];
        if gate.busy.get() {
            return;
        }
        let head = match gate.head.take() {
            Some(h) => Some(h),
            None => gate.drr.borrow_mut().select(),
        };
        let Some((tenant, cost)) = head else {
            return;
        };
        let now = sim.now().as_ns();
        let wait = self.token_wait(now, tenant, cost);
        if wait > 0 {
            gate.head.set(Some((tenant, cost)));
            // A pure-budget bucket (rate 0) quotes u64::MAX: tokens can
            // only arrive via a refund, and refunds re-pump every gate.
            if wait < u64::MAX && !gate.sleeping.get() {
                gate.sleeping.set(true);
                let sh = Rc::clone(self);
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep_ns(wait).await;
                    sh.gates[xs].sleeping.set(false);
                    sh.pump(&s, xs);
                });
            }
            return;
        }
        self.take_tokens(now, tenant, cost);
        self.note(tenant, |t| {
            t.ops += 1;
            t.bytes += cost;
        });
        gate.busy.set(true);
        let tx = gate
            .waiters
            .borrow_mut()
            .get_mut(&tenant)
            .and_then(|q| q.pop_front());
        // INVARIANT: every DRR item was enqueued together with a waiter
        // for the same tenant, in the same order.
        if let Some(tx) = tx {
            tx.send(());
        } else {
            gate.busy.set(false);
        }
    }

    /// Queue a request of `cost` behind xstream `xs` under `tenant`'s
    /// class; resolves when the gate grants service. The returned guard
    /// must live for the duration of service.
    async fn admit(self: &Rc<Self>, sim: &Sim, xs: usize, tenant: u8, cost: u64) -> GateGuard {
        let start = sim.now().as_ns();
        let (tx, rx) = daos_sim::oneshot();
        {
            let gate = &self.gates[xs];
            gate.drr.borrow_mut().enqueue(tenant, cost);
            gate.waiters
                .borrow_mut()
                .entry(tenant)
                .or_default()
                .push_back(tx);
        }
        self.pump(sim, xs);
        let _ = rx.await;
        let waited = sim.now().as_ns().saturating_sub(start);
        self.note(tenant, |t| t.throttle_ns += waited);
        GateGuard {
            shaper: Rc::clone(self),
            sim: sim.clone(),
            xs,
        }
    }

    /// Return over-charged cost (a sparse fetch served fewer payload
    /// bytes than it reserved) and re-pump: a parked head may now pass.
    fn refund(self: &Rc<Self>, sim: &Sim, tenant: u8, amount: u64) {
        if amount == 0 {
            return;
        }
        self.with_buckets(tenant, |(bw, _)| {
            if let Some(b) = bw {
                b.refund(amount);
            }
        });
        self.note(tenant, |t| {
            t.bytes = t.bytes.saturating_sub(amount);
            t.refunded += amount;
        });
        for xs in 0..self.gates.len() {
            self.pump(sim, xs);
        }
    }

    /// Charge background work (scrub scans) against [`BG_TENANT`]'s
    /// budget, sleeping until the bucket covers it. Uncapped budgets
    /// return immediately; a pure-budget bucket that has run dry stops
    /// throttling rather than deadlocking the scrubber.
    pub async fn throttle_background(&self, sim: &Sim, cost: u64) {
        self.note(BG_TENANT, |t| t.ops += 1);
        // Pay for the *whole* cost in burst-sized installments, noting
        // bytes only as tokens are actually taken: a scan step bigger
        // than the bucket depth must not outrun the budget by hiding
        // behind the burst clamp, and the stats must never show bytes
        // the bucket has not yet covered.
        let mut remaining = cost;
        while remaining > 0 {
            let now = sim.now().as_ns();
            let wait = self.token_wait(now, BG_TENANT, remaining);
            if wait == u64::MAX {
                // uncapped budget class: nothing to pace against —
                // charge the rest and move on
                self.note(BG_TENANT, |t| t.bytes += remaining);
                return;
            }
            if wait > 0 {
                sim.sleep_ns(wait).await;
                continue;
            }
            let step = self.with_buckets(BG_TENANT, |(bw, _)| match bw {
                Some(b) => remaining.min(b.burst().max(1)),
                None => remaining,
            });
            self.take_tokens(now, BG_TENANT, step);
            self.note(BG_TENANT, |t| t.bytes += step);
            remaining -= step;
        }
    }

    /// Account a control-plane op against the background class without
    /// ever delaying it: the control plane must stay reachable while
    /// the data plane is shaped, or recovery itself would be throttled.
    fn account_control(&self, sim: &Sim) {
        self.note(BG_TENANT, |t| {
            t.ops += 1;
            t.bytes += RPC_OVERHEAD_BYTES;
        });
        let now = sim.now().as_ns();
        self.with_buckets(BG_TENANT, |(bw, iops)| {
            if let Some(b) = bw {
                b.take_saturating(now, RPC_OVERHEAD_BYTES);
            }
            if let Some(b) = iops {
                b.take_saturating(now, 1);
            }
        });
    }

    /// Snapshot the per-tenant counters.
    pub fn stats(&self) -> BTreeMap<u8, TenantStats> {
        self.stats.borrow().clone()
    }
}

/// Cost granularity for the IOPS bucket's burst depth: one op-token of
/// headroom per MiB of byte burst.
const MIB_COST: u64 = 1 << 20;

/// Control-plane requests the engine forwards to a co-located pool-service
/// replica (if any): `(request, reply)` pairs.
pub type ControlQueue = daos_sim::Mailbox<(Request, daos_sim::sync::OneshotSender<Response>)>;

/// A DAOS engine bound to one fabric node.
pub struct Engine {
    index: u32,
    node: NodeId,
    targets: Vec<Rc<VosTarget>>,
    endpoint: Rc<Endpoint<Request, Response>>,
    control: ControlQueue,
    has_replica: std::cell::Cell<bool>,
    /// Whether the engine process is up. A crashed engine stops answering
    /// (its endpoint goes offline and in-flight requests are dropped
    /// without a reply); VOS state lives in SCM and survives.
    alive: Cell<bool>,
    /// Latest pool-map version gossiped to this engine by heartbeats.
    map_version: Cell<u32>,
    /// Local target indices the pool map excludes on this engine; data ops
    /// addressed to them are rejected with `StaleMap`.
    local_excluded: RefCell<BTreeSet<u32>>,
    extents_reclaimed: std::cell::Cell<u64>,
    bulk_write: SharedPipe,
    bulk_read: SharedPipe,
    /// Recently-written/read objects (engine-wide stream window).
    streams: RefCell<VecDeque<(u64, u128)>>,
    stream_lru: usize,
    misses: std::cell::Cell<u64>,
    hits: std::cell::Cell<u64>,
    /// In-flight frame-corruption rate (ppm); fault injection via
    /// `FaultAction::CorruptInFlight`.
    corrupt_ppm: Cell<u32>,
    /// Fired for every corrupt chunk the background scrubber finds; the
    /// cluster wires this to the targeted-repair path.
    on_corruption: RefCell<Option<CorruptionHook>>,
    scrub_found: Cell<u64>,
    /// Bulk payload bytes admitted but not yet served (admission control).
    inflight_bytes: Cell<u64>,
    shed_queue: Cell<u64>,
    shed_bytes: Cell<u64>,
    admitted: Cell<u64>,
    /// Per-tenant QoS shaper, installed post-spawn by [`Engine::set_qos`]
    /// (`None` = unshaped: the exact pre-QoS service order).
    qos: RefCell<Option<Rc<QosShaper>>>,
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
        let targets: Vec<Rc<VosTarget>> = (0..targets_per_engine)
            .map(|_| VosTarget::new(Rc::clone(&media), cfg.vos))
            .collect();
        let endpoint = Endpoint::bind(fabric, node);
        let eng = Rc::new(Engine {
            index,
            node,
            targets,
            endpoint,
            control: daos_sim::Mailbox::new(),
            has_replica: std::cell::Cell::new(false),
            alive: Cell::new(true),
            map_version: Cell::new(0),
            local_excluded: RefCell::new(BTreeSet::new()),
            extents_reclaimed: std::cell::Cell::new(0),
            bulk_write: Pipe::new(
                format!("engine{index}.bulk.wr"),
                cfg.bulk_write_bw,
                SimDuration::ZERO,
            ),
            bulk_read: Pipe::new(
                format!("engine{index}.bulk.rd"),
                cfg.bulk_read_bw,
                SimDuration::ZERO,
            ),
            streams: RefCell::new(VecDeque::new()),
            stream_lru: cfg.stream_lru,
            misses: std::cell::Cell::new(0),
            hits: std::cell::Cell::new(0),
            corrupt_ppm: Cell::new(0),
            on_corruption: RefCell::new(None),
            scrub_found: Cell::new(0),
            inflight_bytes: Cell::new(0),
            shed_queue: Cell::new(0),
            shed_bytes: Cell::new(0),
            admitted: Cell::new(0),
            qos: RefCell::new(None),
        });
        // one xstream (FIFO service) per target
        let xstreams: Vec<Semaphore> = (0..targets_per_engine).map(|_| Semaphore::new(1)).collect();
        // background VOS aggregation service
        if let Some(interval) = cfg.aggregation_interval {
            let e = Rc::clone(&eng);
            let s = sim.clone();
            sim.spawn(async move {
                loop {
                    s.sleep(interval).await;
                    let horizon = s
                        .now()
                        .as_ns()
                        .saturating_sub(cfg.aggregation_retention.as_ns());
                    for t in 0..e.target_count() {
                        let target = Rc::clone(e.target(t));
                        for cid in target.container_ids() {
                            let got = target.aggregate(cid, horizon) as u64;
                            e.extents_reclaimed.set(e.extents_reclaimed.get() + got);
                        }
                        // yield so aggregation interleaves with service
                        s.yield_now().await;
                    }
                }
            });
        }
        // background checksum scrubber: walks every target's namespace a
        // budgeted batch at a time, finding latent rot before clients do
        if cfg.vos.csum_enabled {
            if let Some(interval) = cfg.scrub_interval {
                let e = Rc::clone(&eng);
                let s = sim.clone();
                sim.spawn(async move {
                    loop {
                        s.sleep(interval).await;
                        if !e.alive.get() {
                            continue;
                        }
                        for t in 0..e.target_count() {
                            if e.local_excluded.borrow().contains(&t) {
                                continue;
                            }
                            let target = Rc::clone(e.target(t));
                            let rep = target.scrub_step(&s, cfg.scrub_chunks).await;
                            // scrub scans are background-tenant work: charge
                            // the scanned bytes against the BG budget so the
                            // scrubber paces itself under an active shaper
                            let shaper = e.qos.borrow().as_ref().map(Rc::clone);
                            if let Some(sh) = shaper {
                                sh.throttle_background(&s, rep.bytes).await;
                            }
                            for f in rep.findings {
                                e.scrub_found.set(e.scrub_found.get() + 1);
                                // only array dkeys map to a chunk index
                                // the repair path understands
                                let Some(chunk) = chunk_of_dkey(&f.dkey) else {
                                    continue;
                                };
                                let report = CorruptionReport {
                                    cont: f.cid,
                                    oid: ObjectId::new((f.oid >> 64) as u64, f.oid as u64),
                                    chunk,
                                    target: e.index * e.target_count() + t,
                                };
                                if let Some(hook) = e.on_corruption.borrow().as_ref() {
                                    hook(&s, report);
                                }
                            }
                        }
                    }
                });
            }
        }
        let e2 = Rc::clone(&eng);
        let sim2 = sim.clone();
        sim.spawn(async move {
            while let Some(inc) = e2.endpoint.serve().await {
                let e3 = Rc::clone(&e2);
                let xs = xstreams.clone();
                let s = sim2.clone();
                sim2.spawn(async move {
                    e3.handle(&s, inc, &xs, cfg).await;
                });
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
    pub fn endpoint(&self) -> &Rc<Endpoint<Request, Response>> {
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
        self.streams.borrow_mut().clear();
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

    fn oid_key(oid: ObjectId) -> u128 {
        ((oid.hi as u128) << 64) | oid.lo as u128
    }

    /// Touch the engine's stream window; returns true on a locality miss.
    fn stream_miss(&self, cont: u64, oid: ObjectId) -> bool {
        let key = (cont, Self::oid_key(oid));
        let mut lru = self.streams.borrow_mut();
        if let Some(pos) = lru.iter().position(|&k| k == key) {
            lru.remove(pos);
            lru.push_back(key);
            self.hits.set(self.hits.get() + 1);
            return false;
        }
        lru.push_back(key);
        if lru.len() > self.stream_lru {
            lru.pop_front();
        }
        self.misses.set(self.misses.get() + 1);
        true
    }

    /// Stream-window (miss, hit) counters.
    pub fn stream_stats(&self) -> (u64, u64) {
        (self.misses.get(), self.hits.get())
    }

    /// Extent-tree records reclaimed by background aggregation.
    pub fn extents_reclaimed(&self) -> u64 {
        self.extents_reclaimed.get()
    }

    /// Set the in-flight frame-corruption rate (ppm; 0 clears).
    pub fn set_corrupt_inflight(&self, ppm: u32) {
        self.corrupt_ppm.set(ppm);
    }

    /// Wire the scrubber's corruption findings to a handler (the cluster's
    /// targeted-repair path).
    pub fn set_on_corruption(&self, f: impl Fn(&Sim, CorruptionReport) + 'static) {
        *self.on_corruption.borrow_mut() = Some(Box::new(f));
    }

    /// Corrupt chunks found by this engine's background scrubber so far.
    pub fn scrub_found(&self) -> u64 {
        self.scrub_found.get()
    }

    /// Admission-control counters (shed/admit totals, current in-flight
    /// bulk bytes). All zero while both admission gates are disabled.
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            shed_queue: self.shed_queue.get(),
            shed_bytes: self.shed_bytes.get(),
            admitted: self.admitted.get(),
            inflight_bytes: self.inflight_bytes.get(),
        }
    }

    /// Install (or replace) the per-tenant QoS shaper. Engines spawn
    /// unshaped — installing post-spawn keeps [`EngineConfig`] and every
    /// committed baseline's config hash untouched — and with no shaper
    /// the request path is bit-for-bit the pre-QoS engine.
    pub fn set_qos(&self, params: QosParams) {
        *self.qos.borrow_mut() = Some(QosShaper::new(params, self.targets.len()));
    }

    /// Remove the shaper (back to unshaped service).
    pub fn clear_qos(&self) {
        *self.qos.borrow_mut() = None;
    }

    /// The installed shaper, if any (background services charge their
    /// budget through this).
    pub fn qos_shaper(&self) -> Option<Rc<QosShaper>> {
        self.qos.borrow().as_ref().map(Rc::clone)
    }

    /// Boost `tenant`'s DRR weight on local xstream `local` (pool shard
    /// reservations). No-op while unshaped.
    pub fn boost_tenant(&self, local: u32, tenant: u8, weight: u32) {
        if let Some(sh) = self.qos.borrow().as_ref() {
            sh.boost(local as usize, tenant, weight);
        }
    }

    /// Per-tenant shaper counters (empty while unshaped).
    pub fn qos_stats(&self) -> BTreeMap<u8, TenantStats> {
        self.qos
            .borrow()
            .as_ref()
            .map(|sh| sh.stats())
            .unwrap_or_default()
    }

    /// One tenant's shaper counters (zero while unshaped).
    pub fn tenant_stats(&self, tenant: u8) -> TenantStats {
        self.qos_stats().get(&tenant).copied().unwrap_or_default()
    }

    /// Roll the in-flight corruption dice for one frame.
    fn frame_torn(&self, sim: &Sim) -> bool {
        let ppm = self.corrupt_ppm.get();
        ppm > 0 && sim.rand_below(1_000_000) < ppm as u64
    }

    /// Why the networking core turns a data-plane request away before it
    /// queues, in precedence order: the client routed to a target this
    /// engine knows is excluded (`StaleMap` — it must not serve or accept
    /// data), then the two admission gates (`Busy`; both default-off).
    /// Every refusal is header-only (`Response::Err` has `bulk_out() ==
    /// 0`), so a shed costs the engine a queue-depth probe and one eager
    /// frame: the same cheap lane heartbeats ride on. Note the fabric
    /// charges write bulk on the client's TX path, so a shed saves the
    /// engine's queue slots, service time, and buffer memory — not the
    /// sender's wire time.
    fn refusal(
        &self,
        t: usize,
        bulk_in: u64,
        xstream: &Semaphore,
        cfg: &EngineConfig,
    ) -> Option<DaosError> {
        if self.local_excluded.borrow().contains(&(t as u32)) {
            return Some(DaosError::StaleMap {
                version: self.map_version.get(),
            });
        }
        // waiters plus the request currently in service
        let queued = (xstream.queue_len() + (1 - xstream.available())) as u32;
        if cfg.queue_cap.is_some_and(|cap| queued >= cap) {
            self.shed_queue.set(self.shed_queue.get() + 1);
            return Some(DaosError::Busy { queued });
        }
        let inflight = self.inflight_bytes.get().saturating_add(bulk_in);
        if bulk_in > 0 && cfg.inflight_cap.is_some_and(|cap| inflight > cap) {
            self.shed_bytes.set(self.shed_bytes.get() + 1);
            return Some(DaosError::Busy { queued });
        }
        None
    }

    async fn handle(
        &self,
        sim: &Sim,
        inc: daos_fabric::Incoming<Request, Response>,
        xstreams: &[Semaphore],
        cfg: EngineConfig,
    ) {
        // split so the request can be *moved* into execution (no clone of
        // bulk-carrying bodies) while the reply slot stays usable
        let (req, responder) = inc.split();
        // Strip the QoS envelope first: every path below — including the
        // heartbeat fast path — sees the inner request, and the tenant
        // routes the op through its service class (untagged ≡ tenant 0).
        let (tenant, req) = req.untag();
        // Heartbeats are answered on the networking core, not an xstream:
        // they must stay cheap and unqueued or a busy engine looks dead.
        if let Request::Ping { version, excluded } = &req {
            if !self.alive.get() {
                return;
            }
            if *version > self.map_version.get() {
                self.map_version.set(*version);
                *self.local_excluded.borrow_mut() = excluded.iter().copied().collect();
            }
            responder.respond(Response::Pong, 0);
            return;
        }

        let rsp = match req.target() {
            Some(t) => 'served: {
                let t = t as usize % self.targets.len();
                let bulk_in = req.bulk_in();
                if let Some(e) = self.refusal(t, bulk_in, &xstreams[t], &cfg) {
                    break 'served Response::Err(e);
                }
                self.admitted.set(self.admitted.get() + 1);
                self.inflight_bytes.set(self.inflight_bytes.get() + bulk_in);
                // payload cost the shaper charges: write bulk or the
                // requested fetch length (reconciled by refund below)
                let copy_bytes = req.payload_bytes();
                // -------- QoS shaper (default-off) ------------------------
                // Sits *behind* the admission gates and *before* the
                // xstream FIFO: DRR picks whose request runs next, token
                // buckets decide when. The guard releases the gate on
                // every exit — including a crash mid-service.
                let shaper = self.qos.borrow().as_ref().map(Rc::clone);
                let mut gate_guard = None;
                if let Some(sh) = &shaper {
                    gate_guard = Some(
                        sh.admit(sim, t, tenant, copy_bytes + RPC_OVERHEAD_BYTES)
                            .await,
                    );
                }
                let _gate_guard = gate_guard;
                let _xs = xstreams[t].acquire().await;
                sim.sleep(cfg.rpc_cpu).await;
                // data ops burn xstream CPU proportional to payload
                if copy_bytes > 0 {
                    sim.sleep(daos_sim::time::SimDuration::from_ns(
                        cfg.xstream_copy_bw.ns_for(copy_bytes),
                    ))
                    .await;
                    // checksum engine: hash every payload byte once on the
                    // serving xstream (verify-on-write / csum-on-fetch)
                    if cfg.vos.csum_enabled {
                        sim.sleep(daos_sim::time::SimDuration::from_ns(
                            cfg.csum_bw.ns_for(copy_bytes),
                        ))
                        .await;
                    }
                }
                let rsp = self.exec_data(sim, &self.targets[t], cfg, req).await;
                // release the in-flight budget even when the engine crashed
                // mid-service: the buffer is freed either way
                self.inflight_bytes
                    .set(self.inflight_bytes.get().saturating_sub(bulk_in));
                // A sparse fetch reserved its full requested length at the
                // shaper but served fewer payload bytes: refund the
                // difference so token accounting balances exactly.
                if let Some(sh) = &shaper {
                    if let Response::Fetched { .. } = &rsp {
                        sh.refund(sim, tenant, copy_bytes.saturating_sub(rsp.bulk_out()));
                    }
                }
                rsp
            }
            None => {
                // Control plane: forward to the co-located replica.
                // Accounted against the background class but *never*
                // delayed — the control plane must stay reachable while
                // the data plane is shaped, or recovery itself (map
                // refreshes, exclusions) would be throttled.
                if let Some(sh) = self.qos.borrow().as_ref() {
                    sh.account_control(sim);
                }
                if !self.has_replica.get() {
                    Response::Err(DaosError::NotLeader { hint: None })
                } else {
                    let (tx, rx) = daos_sim::oneshot();
                    self.control.send((req, tx));
                    match rx.await {
                        Ok(r) => r,
                        Err(_) => Response::Err(DaosError::Transport),
                    }
                }
            }
        };
        // A crash between accept and reply swallows the response: the
        // caller's RPC hangs until its deadline, exactly like a real
        // process death mid-service.
        if !self.alive.get() {
            return;
        }
        let bulk = rsp.bulk_out();
        responder.respond(rsp, bulk);
    }

    async fn exec_data(
        &self,
        sim: &Sim,
        target: &Rc<VosTarget>,
        cfg: EngineConfig,
        req: Request,
    ) -> Response {
        match req {
            Request::UpdateArray {
                cont,
                oid,
                dkey,
                akey,
                offset,
                data,
                csum,
                ..
            } => {
                if self.stream_miss(cont, oid) {
                    // WPQ flush + cold-tree stall
                    sim.sleep(cfg.write_miss_stall).await;
                }
                self.bulk_write.transfer(sim, data.len()).await;
                // fault injection: the bulk may tear in flight...
                let data = if self.frame_torn(sim) {
                    data.corrupted()
                } else {
                    data
                };
                // ...and verify-on-write is what keeps torn frames off
                // media: reject before anything is committed.
                if cfg.vos.csum_enabled && wire_csum(&data) != csum {
                    return Response::Err(DaosError::CorruptFrame);
                }
                let epoch = target.next_epoch_at(sim.now().as_ns());
                match target
                    .update_array(
                        sim,
                        cont,
                        Self::oid_key(oid),
                        &dkey,
                        &akey,
                        offset,
                        epoch,
                        data,
                    )
                    .await
                {
                    Ok(_ops) => Response::Written { epoch },
                    Err(e) => Response::Err(e.into()),
                }
            }
            Request::FetchArray {
                cont,
                oid,
                dkey,
                akey,
                offset,
                len,
                epoch,
                ..
            } => {
                let miss = self.stream_miss(cont, oid);
                if miss {
                    sim.sleep(cfg.read_miss_latency).await;
                }
                let segs = match target
                    .fetch_array(
                        sim,
                        cont,
                        Self::oid_key(oid),
                        &dkey,
                        &akey,
                        offset,
                        len,
                        epoch,
                    )
                    .await
                {
                    Ok(segs) => segs,
                    // csum violations and akey-shape mismatches both map to
                    // typed errors (CsumMismatch / KeyTypeMismatch)
                    Err(e) => return Response::Err(e.into()),
                };
                let data: u64 = segs
                    .iter()
                    .filter(|s| s.data.is_some())
                    .map(|s| s.len)
                    .sum();
                let amp = if miss { cfg.read_miss_amp } else { 1.0 };
                self.bulk_read
                    .transfer(sim, (data as f64 * amp) as u64)
                    .await;
                // checksum the response before it leaves, then maybe tear
                // it in flight — the client's verify catches the tear
                let csum = cfg.vos.csum_enabled.then(|| wire_csum_segs(&segs));
                let segs = if self.frame_torn(sim) {
                    segs.into_iter()
                        .map(|mut s| {
                            s.data = s.data.map(|d| d.corrupted());
                            s
                        })
                        .collect()
                } else {
                    segs
                };
                Response::Fetched { segs, csum }
            }
            Request::UpdateSingle {
                cont,
                oid,
                dkey,
                akey,
                value,
                csum,
                ..
            } => {
                let value = if self.frame_torn(sim) {
                    value.corrupted()
                } else {
                    value
                };
                if cfg.vos.csum_enabled && wire_csum(&value) != csum {
                    return Response::Err(DaosError::CorruptFrame);
                }
                let epoch = target.next_epoch_at(sim.now().as_ns());
                match target
                    .update_single(sim, cont, Self::oid_key(oid), &dkey, &akey, epoch, value)
                    .await
                {
                    Ok(()) => Response::Written { epoch },
                    Err(e) => Response::Err(e.into()),
                }
            }
            Request::FetchSingle {
                cont,
                oid,
                dkey,
                akey,
                epoch,
                ..
            } => {
                match target
                    .fetch_single(sim, cont, Self::oid_key(oid), &dkey, &akey, epoch)
                    .await
                {
                    Ok(v) => Response::Single(v),
                    Err(e) => Response::Err(e.into()),
                }
            }
            Request::PunchArray {
                cont,
                oid,
                dkey,
                akey,
                offset,
                len,
                ..
            } => {
                let epoch = target.next_epoch_at(sim.now().as_ns());
                match target
                    .punch_array(
                        sim,
                        cont,
                        Self::oid_key(oid),
                        &dkey,
                        &akey,
                        offset,
                        len,
                        epoch,
                    )
                    .await
                {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Err(e.into()),
                }
            }
            Request::PunchObject { cont, oid, .. } => {
                let epoch = target.next_epoch_at(sim.now().as_ns());
                target
                    .punch_object(sim, cont, Self::oid_key(oid), epoch)
                    .await;
                Response::Ok
            }
            Request::ListDkeys { cont, oid, .. } => {
                let keys = target
                    .list_dkeys(sim, cont, Self::oid_key(oid), u64::MAX)
                    .await;
                Response::Dkeys(keys)
            }
            Request::ArrayMaxChunk {
                cont, oid, akey, ..
            } => {
                let mc = target
                    .array_max_chunk(sim, cont, Self::oid_key(oid), &akey, u64::MAX)
                    .await;
                Response::MaxChunk(mc)
            }
            Request::QueryEpoch { .. } => Response::Epoch(target.current_epoch()),
            _ => Response::Err(DaosError::Other("control op on data path".into())),
        }
    }
}
