//! The shaper stage of the request pipeline: per-tenant QoS.
//!
//! Sits *behind* the admission gates and *before* the xstream FIFO: a
//! DRR per xstream picks whose request runs next, an engine-wide token
//! bucket per capped tenant decides when. Default-off — engines spawn
//! unshaped and [`super::Engine::set_qos`] installs a shaper afterwards,
//! so [`super::EngineConfig`] (and every committed baseline's config
//! hash) never learns about it.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use daos_sim::sync::OneshotSender;
use daos_sim::{ReplySlots, Sim};

use crate::qos::{Drr, QosParams, TokenBucket, BG_TENANT};

/// Header/metadata overhead charged per shaped RPC on top of its bulk
/// payload, so header-only ops still cost the shaper something.
pub(super) const RPC_OVERHEAD_BYTES: u64 = 512;

/// DRR quantum in cost units (bytes) added to a backlogged tenant's
/// deficit per round, scaled by its weight.
const DRR_QUANTUM: u64 = 64 * daos_sim::units::KIB;

/// Per-tenant shaper observability counters (see
/// [`super::Engine::tenant_stats`]). All zero while shaping is disabled.
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

impl TenantStats {
    /// Fold another engine's counters for the same tenant into this one.
    pub(crate) fn merge(&mut self, other: &TenantStats) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.refunded += other.refunded;
        self.throttle_ns += other.throttle_ns;
    }
}

/// One xstream's shaper gate: a DRR scheduler over waiting requests plus
/// a single-grant latch. At most one grant is outstanding per xstream,
/// so the DRR order — not FIFO arrival order — decides who runs next
/// even when no rate cap is active.
struct XsGate {
    drr: RefCell<Drr>,
    /// Per-tenant FIFO of wakers, parallel to the DRR queues (enqueue
    /// pushes both in the same order, so fronts stay aligned).
    waiters: RefCell<BTreeMap<u8, VecDeque<OneshotSender<()>>>>,
    /// The DRR's current selection, parked while its tenant's token
    /// bucket is short.
    head: Cell<Option<(u8, u64)>>,
    /// A grant is outstanding (its request is being served).
    busy: Cell<bool>,
    /// A token-refill sleeper task is already armed for `head`.
    sleeping: Cell<bool>,
}

/// The engine's QoS shaper: per-tenant token buckets (engine-wide) and
/// one `XsGate` per xstream. Absent a shaper the engine behaves
/// bit-for-bit as before.
pub(crate) struct QosShaper {
    params: QosParams,
    /// Per-tenant bandwidth buckets, lazily created from the tenant's
    /// class; `None` = uncapped.
    buckets: RefCell<BTreeMap<u8, Option<TokenBucket>>>,
    gates: Vec<Rc<XsGate>>,
    /// One slot per request waiting at a gate for its grant.
    grants: ReplySlots<()>,
    stats: RefCell<BTreeMap<u8, TenantStats>>,
}

/// RAII release of an [`XsGate`] grant: fires on every exit from
/// service — including an engine crash mid-request — so the gate can
/// hand the xstream to the next DRR selection.
pub(super) struct GateGuard {
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
    pub(super) fn new(params: QosParams, xstreams: usize) -> Rc<QosShaper> {
        let gates = (0..xstreams)
            .map(|_| {
                let mut drr = Drr::new(DRR_QUANTUM);
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
            grants: ReplySlots::new(),
            stats: RefCell::new(BTreeMap::new()),
        })
    }

    /// Boost `tenant`'s DRR weight on one xstream (pool shard
    /// reservations: a tenant holding a reservation on a target
    /// outweighs interlopers there).
    pub(super) fn boost(&self, xs: usize, tenant: u8, weight: u32) {
        if let Some(gate) = self.gates.get(xs) {
            gate.drr.borrow_mut().set_weight(tenant, weight);
        }
    }

    fn with_bucket<R>(&self, tenant: u8, f: impl FnOnce(&mut Option<TokenBucket>) -> R) -> R {
        let mut map = self.buckets.borrow_mut();
        let entry = map.entry(tenant).or_insert_with(|| {
            let class = self.params.class(tenant);
            class.bw_cap.map(|r| TokenBucket::new(r, class.burst))
        });
        f(entry)
    }

    fn note(&self, tenant: u8, f: impl FnOnce(&mut TenantStats)) {
        let mut stats = self.stats.borrow_mut();
        f(stats.entry(tenant).or_default());
    }

    /// Nanoseconds until `tenant`'s bucket covers `cost` (0 = now).
    fn token_wait(&self, now_ns: u64, tenant: u8, cost: u64) -> u64 {
        self.with_bucket(tenant, |bw| {
            bw.as_mut().map_or(0, |b| {
                b.refill(now_ns);
                b.ns_until(cost)
            })
        })
    }

    fn take_tokens(&self, now_ns: u64, tenant: u8, cost: u64) {
        self.with_bucket(tenant, |bw| {
            if let Some(b) = bw {
                b.try_take(now_ns, cost);
            }
        });
    }

    /// Drive one gate forward: park the DRR head while its tenant's
    /// bucket is short (arming a single refill sleeper), grant it when
    /// it covers. Synchronous, so it is safe from [`GateGuard::drop`].
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
                sim.spawn_detached(async move {
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
        // every DRR item was enqueued together with a waiter
        // for the same tenant, in the same order.
        if let Some(tx) = tx {
            tx.send(());
        } else {
            gate.busy.set(false);
        }
    }

    /// Queue a request of `cost` behind xstream `xs` under `tenant`'s
    /// class; resolves when the gate grants service. The returned guard
    /// must live for the duration of service: it releases the gate on
    /// every exit, including a crash mid-service.
    pub(super) async fn grant(
        self: &Rc<Self>,
        sim: &Sim,
        xs: usize,
        tenant: u8,
        cost: u64,
    ) -> GateGuard {
        let start = sim.now().as_ns();
        let (tx, rx) = self.grants.channel();
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

    /// Return over-charged cost (a sparse fetch reserved its full
    /// requested length but served fewer payload bytes) so token
    /// accounting balances exactly, and re-pump: a parked head may now
    /// pass.
    pub(super) fn refund(self: &Rc<Self>, sim: &Sim, tenant: u8, amount: u64) {
        if amount == 0 {
            return;
        }
        self.with_bucket(tenant, |bw| {
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
    pub(super) async fn throttle_background(&self, sim: &Sim, cost: u64) {
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
                // pure-budget bucket (rate 0) run dry: no refill will
                // ever come, so there is nothing to pace against —
                // charge the rest and move on
                self.note(BG_TENANT, |t| t.bytes += remaining);
                return;
            }
            if wait > 0 {
                sim.sleep_ns(wait).await;
                continue;
            }
            let step = self.with_bucket(BG_TENANT, |bw| match bw {
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
    /// the data plane is shaped, or recovery itself (map refreshes,
    /// exclusions) would be throttled.
    pub(super) fn account_control(&self, sim: &Sim) {
        self.note(BG_TENANT, |t| {
            t.ops += 1;
            t.bytes += RPC_OVERHEAD_BYTES;
        });
        let now = sim.now().as_ns();
        self.with_bucket(BG_TENANT, |bw| {
            if let Some(b) = bw {
                b.take_saturating(now, RPC_OVERHEAD_BYTES);
            }
        });
    }

    /// Snapshot the per-tenant counters.
    pub(super) fn stats(&self) -> BTreeMap<u8, TenantStats> {
        self.stats.borrow().clone()
    }
}
