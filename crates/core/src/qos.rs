//! Per-tenant QoS primitives: token buckets and deficit round robin.
//!
//! These are *pure* deterministic schedulers — no clocks, no randomness,
//! no I/O. The engine ([`crate::engine`]) composes them into a shaper
//! that sits behind the admission gates: a [`Drr`] per xstream decides
//! *whose* request runs next, and per-tenant [`TokenBucket`]s decide
//! *when* it may run (a bandwidth cap with bounded burst).
//!
//! All arithmetic is scaled-integer (`u128` token units of
//! `token × ns`), so refill and depletion are exact: two runs with the
//! same request trace produce bit-identical schedules, and refunds
//! (e.g. a sparse fetch that charged its full requested length up
//! front) conserve tokens precisely.

use std::collections::{BTreeMap, VecDeque};

use daos_sim::units::MIB;

/// Well-known background tenant: rebuild, scrub and control-plane
/// traffic are charged here so repair bandwidth is a budgeted class
/// instead of an ad-hoc media charge.
pub const BG_TENANT: u8 = 255;

/// Nanoseconds per second — the token scale factor.
const NS_PER_SEC: u128 = 1_000_000_000;

/// One tenant's service class: a DRR weight plus an optional hard cap.
///
/// `weight` sets the tenant's share of an xstream when everyone is
/// backlogged (deficit round robin is work-conserving: idle tenants
/// donate their share). `bw_cap` is an absolute ceiling in bytes/sec
/// enforced by a token bucket `burst` bytes deep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosClass {
    /// Relative DRR weight (clamped to ≥ 1).
    pub weight: u32,
    /// Absolute bandwidth ceiling in bytes per second (`None` = uncapped).
    pub bw_cap: Option<u64>,
    /// Token-bucket depth in bytes: how far a tenant may burst above
    /// its sustained rate after idling.
    pub burst: u64,
}

impl Default for QosClass {
    fn default() -> Self {
        QosClass {
            weight: 1,
            bw_cap: None,
            burst: 8 * MIB,
        }
    }
}

impl QosClass {
    /// A weighted class with no rate caps.
    pub fn weighted(weight: u32) -> Self {
        QosClass {
            weight,
            ..QosClass::default()
        }
    }
}

/// The cluster-wide shaping policy: per-tenant classes. Tenants not
/// present get [`QosClass::default`] (weight 1, uncapped) — unknown
/// traffic is never starved, only outweighed.
#[derive(Clone, Debug, Default)]
pub struct QosParams {
    /// Per-tenant service classes.
    pub classes: BTreeMap<u8, QosClass>,
}

impl QosParams {
    /// Builder: set `tenant`'s class.
    pub fn with_class(mut self, tenant: u8, class: QosClass) -> Self {
        self.classes.insert(tenant, class);
        self
    }

    /// The effective class for `tenant` (default when unset).
    pub fn class(&self, tenant: u8) -> QosClass {
        self.classes.get(&tenant).copied().unwrap_or_default()
    }
}

/// A deterministic token bucket over scaled-integer arithmetic.
///
/// Tokens are stored ×10⁹ (`token × ns` units) so a refill over `dt`
/// nanoseconds at `rate` tokens/sec is exactly `dt × rate` units — no
/// float drift, no rounding loss across refill/take/refund cycles.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Sustained rate in tokens per second.
    rate: u64,
    /// Bucket depth in tokens.
    burst: u64,
    /// Current fill in `token × ns` units (≤ `burst × NS_PER_SEC`).
    fill: u128,
    /// Sim timestamp of the last refill.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket that starts full. `rate = 0` never refills (a pure
    /// budget); `burst` is clamped to ≥ 1 so oversized costs can
    /// always eventually pass (they drain the whole bucket).
    pub fn new(rate: u64, burst: u64) -> Self {
        let burst = burst.max(1);
        TokenBucket {
            rate,
            burst,
            fill: u128::from(burst) * NS_PER_SEC,
            last_ns: 0,
        }
    }

    /// Advance the bucket to `now_ns`, accruing tokens up to `burst`.
    pub fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        if dt == 0 || self.rate == 0 {
            return;
        }
        let cap = u128::from(self.burst) * NS_PER_SEC;
        self.fill = (self.fill + u128::from(dt) * u128::from(self.rate)).min(cap);
    }

    /// Cost clamped to the bucket depth: a request bigger than the
    /// burst drains the whole bucket rather than waiting forever.
    fn effective(&self, cost: u64) -> u128 {
        u128::from(cost.min(self.burst)) * NS_PER_SEC
    }

    /// Take `cost` tokens if available at `now_ns`. Exact: either the
    /// full (clamped) cost is debited or nothing is.
    pub fn try_take(&mut self, now_ns: u64, cost: u64) -> bool {
        self.refill(now_ns);
        let need = self.effective(cost);
        if self.fill >= need {
            self.fill -= need;
            true
        } else {
            false
        }
    }

    /// Nanoseconds until `cost` tokens will be available (0 if they
    /// already are; `u64::MAX` if the rate is zero and the fill short).
    pub fn ns_until(&self, cost: u64) -> u64 {
        let need = self.effective(cost);
        if self.fill >= need {
            return 0;
        }
        if self.rate == 0 {
            return u64::MAX;
        }
        let short = need - self.fill;
        let rate = u128::from(self.rate);
        // rate ≥ 1 here, so the division is defined; the
        // ceiling keeps the wake time never early.
        let ns = short.div_ceil(rate);
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    /// Return `cost` tokens (refund an over-charge), clamped to the
    /// bucket depth so refunds can never mint burst beyond `burst`.
    pub fn refund(&mut self, cost: u64) {
        let cap = u128::from(self.burst) * NS_PER_SEC;
        self.fill = (self.fill + u128::from(cost) * NS_PER_SEC).min(cap);
    }

    /// Best-effort debit for traffic that is accounted but never
    /// delayed (the control plane): takes what is there, floors at
    /// empty, never fails.
    pub fn take_saturating(&mut self, now_ns: u64, cost: u64) {
        self.refill(now_ns);
        let need = self.effective(cost);
        self.fill = self.fill.saturating_sub(need);
    }

    /// Whole tokens currently in the bucket (no refill — call
    /// [`TokenBucket::refill`] first for a fresh view).
    pub fn available(&self) -> u64 {
        u64::try_from(self.fill / NS_PER_SEC).unwrap_or(u64::MAX)
    }

    /// The configured sustained rate (tokens/sec).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// The configured depth (tokens).
    pub fn burst(&self) -> u64 {
        self.burst
    }
}

/// One tenant's DRR queue.
#[derive(Debug)]
struct TenantQ {
    weight: u64,
    deficit: u64,
    items: VecDeque<u64>,
}

/// Deficit round robin over opaque `(tenant, cost)` items.
///
/// Classic DRR (Shreedhar & Varghese): each backlogged tenant holds a
/// deficit counter topped up by `quantum × weight` per round; the head
/// item is served once the deficit covers its cost. Any tenant with
/// weight ≥ 1 (enforced) is served within a bounded number of rounds —
/// the starvation-freedom property the QoS suite pins.
#[derive(Debug)]
pub struct Drr {
    quantum: u64,
    queues: BTreeMap<u8, TenantQ>,
    /// Active (backlogged) tenants in round order.
    order: VecDeque<u8>,
    queued: u64,
}

impl Drr {
    /// An empty scheduler with the given quantum (clamped to ≥ 1).
    pub fn new(quantum: u64) -> Self {
        Drr {
            quantum: quantum.max(1),
            queues: BTreeMap::new(),
            order: VecDeque::new(),
            queued: 0,
        }
    }

    /// Set `tenant`'s weight (clamped to ≥ 1) ahead of any traffic.
    pub fn set_weight(&mut self, tenant: u8, weight: u32) {
        let w = u64::from(weight.max(1));
        self.queues
            .entry(tenant)
            .and_modify(|q| q.weight = w)
            .or_insert(TenantQ {
                weight: w,
                deficit: 0,
                items: VecDeque::new(),
            });
    }

    /// Append an item of `cost` to `tenant`'s queue.
    pub fn enqueue(&mut self, tenant: u8, cost: u64) {
        let q = self.queues.entry(tenant).or_insert(TenantQ {
            weight: 1,
            deficit: 0,
            items: VecDeque::new(),
        });
        if q.items.is_empty() {
            self.order.push_back(tenant);
        }
        q.items.push_back(cost);
        self.queued += 1;
    }

    /// Pop the next item to serve, or `None` when idle. Deterministic:
    /// depends only on the enqueue history.
    pub fn select(&mut self) -> Option<(u8, u64)> {
        loop {
            let tenant = *self.order.front()?;
            // `order` only ever holds tenants inserted into
            // `queues` by enqueue/set_weight, and queues are never removed.
            let q = self.queues.get_mut(&tenant)?;
            let head = match q.items.front() {
                Some(&h) => h,
                None => {
                    // drained by a previous select in this round
                    self.order.pop_front();
                    q.deficit = 0;
                    continue;
                }
            };
            if q.deficit >= head {
                q.deficit -= head;
                q.items.pop_front();
                self.queued -= 1;
                if q.items.is_empty() {
                    self.order.pop_front();
                    // an idle tenant banks nothing across its backlog
                    q.deficit = 0;
                }
                return Some((tenant, head));
            }
            // top up and move to the back of the round. Terminates:
            // quantum × weight ≥ 1, so each full rotation strictly
            // raises every backlogged tenant's deficit toward its head.
            q.deficit += self.quantum.saturating_mul(q.weight);
            self.order.rotate_left(1);
        }
    }

    /// Total queued items across tenants.
    pub fn len(&self) -> u64 {
        self.queued
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Queued items for one tenant.
    pub fn pending(&self, tenant: u8) -> u64 {
        self.queues.get(&tenant).map_or(0, |q| q.items.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- token bucket ---------------------------------------------------

    #[test]
    fn bucket_starts_full_and_refills_exactly() {
        let mut b = TokenBucket::new(1000, 500);
        assert_eq!(b.available(), 500);
        assert!(b.try_take(0, 500));
        assert_eq!(b.available(), 0);
        // 1000 tokens/sec → 1 token per ms, exactly
        b.refill(1_000_000);
        assert_eq!(b.available(), 1);
        b.refill(500_000_000);
        assert_eq!(b.available(), 500, "refill caps at burst");
    }

    #[test]
    fn bucket_ns_until_is_a_ceiling_and_never_early() {
        let mut b = TokenBucket::new(3, 10);
        assert!(b.try_take(0, 10));
        // needs 1 token at 3/sec → ceil(1e9 / 3) = 333_333_334 ns
        let wait = b.ns_until(1);
        assert_eq!(wait, 333_333_334);
        b.refill(wait - 1);
        assert!(!b.try_take(wait - 1, 1), "one ns early must still fail");
        assert!(b.try_take(wait, 1), "at the quoted wait it must pass");
    }

    #[test]
    fn bucket_zero_rate_is_a_pure_budget() {
        let mut b = TokenBucket::new(0, 4);
        assert!(b.try_take(0, 4));
        assert!(!b.try_take(1_000_000_000, 1), "never refills");
        assert_eq!(b.ns_until(1), u64::MAX);
        b.refund(2);
        assert_eq!(b.ns_until(1), 0);
    }

    #[test]
    fn bucket_oversized_cost_drains_whole_bucket() {
        let mut b = TokenBucket::new(100, 10);
        // cost 25 > burst 10: clamped, passes on a full bucket
        assert!(b.try_take(0, 25));
        assert_eq!(b.available(), 0);
        assert!(b.ns_until(25) > 0, "empty bucket must quote a wait");
    }

    #[test]
    fn bucket_conserves_tokens_under_refund() {
        let mut b = TokenBucket::new(0, 100); // no refill: pure ledger
        let mut held = 0u64;
        for (take, back) in [(30u64, 10u64), (50, 50), (40, 0)] {
            if b.try_take(0, take) {
                held += take;
            }
            b.refund(back);
            held -= back;
            assert_eq!(
                b.available() + held,
                100,
                "held + bucket must equal the initial budget"
            );
        }
    }

    #[test]
    fn bucket_refund_cannot_mint_beyond_burst() {
        let mut b = TokenBucket::new(10, 50);
        b.refund(1000);
        assert_eq!(b.available(), 50);
    }

    #[test]
    fn bucket_saturating_take_floors_at_empty() {
        let mut b = TokenBucket::new(0, 10);
        b.take_saturating(0, 7);
        assert_eq!(b.available(), 3);
        b.take_saturating(0, 100);
        assert_eq!(b.available(), 0);
    }

    // -- deficit round robin --------------------------------------------

    #[test]
    fn drr_single_tenant_is_fifo() {
        let mut d = Drr::new(10);
        for c in [5u64, 7, 3] {
            d.enqueue(1, c);
        }
        assert_eq!(d.select(), Some((1, 5)));
        assert_eq!(d.select(), Some((1, 7)));
        assert_eq!(d.select(), Some((1, 3)));
        assert_eq!(d.select(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn drr_weights_shape_service_proportions() {
        let mut d = Drr::new(10);
        d.set_weight(1, 3);
        d.set_weight(2, 1);
        for _ in 0..300 {
            d.enqueue(1, 10);
            d.enqueue(2, 10);
        }
        let mut served = [0u64; 3];
        for _ in 0..200 {
            match d.select() {
                Some((t, _)) => served[t as usize] += 1,
                None => break,
            }
        }
        // weight 3 vs 1 → ~3:1 service while both stay backlogged
        assert!(
            served[1] >= served[2] * 2 && served[2] > 0,
            "weighted shares off: {served:?}"
        );
    }

    #[test]
    fn drr_never_starves_a_nonzero_weight_tenant() {
        let mut d = Drr::new(4);
        d.set_weight(1, 100); // aggressive tenant, huge items
        d.set_weight(2, 1); // meek tenant, small items
        for _ in 0..64 {
            d.enqueue(1, 1000);
            d.enqueue(2, 1);
        }
        let mut since_meek = 0u32;
        let mut meek_served = 0u32;
        for _ in 0..100 {
            match d.select() {
                Some((2, _)) => {
                    meek_served += 1;
                    since_meek = 0;
                }
                Some(_) => {
                    since_meek += 1;
                    assert!(
                        since_meek < 64,
                        "weight-1 tenant starved for {since_meek} selects"
                    );
                }
                None => break,
            }
        }
        assert!(meek_served > 0);
    }

    #[test]
    fn drr_idle_tenant_banks_no_deficit() {
        let mut d = Drr::new(100);
        d.enqueue(1, 50);
        assert_eq!(d.select(), Some((1, 50)));
        assert_eq!(d.select(), None);
        // after idling, tenant 1 starts from deficit 0 again: a burst
        // from tenant 2 is interleaved, not pre-empted by banked credit
        d.enqueue(2, 60);
        d.enqueue(1, 60);
        assert_eq!(d.select(), Some((2, 60)), "arrival order wins round one");
        assert_eq!(d.select(), Some((1, 60)));
    }

    #[test]
    fn drr_accounting_matches_enqueue_history() {
        let mut d = Drr::new(8);
        d.enqueue(1, 3);
        d.enqueue(2, 4);
        d.enqueue(1, 5);
        assert_eq!((d.len(), d.pending(1), d.pending(2)), (3, 2, 1));
        let mut total = 0u64;
        while let Some((_, c)) = d.select() {
            total += c;
        }
        assert_eq!(total, 12, "served cost must equal enqueued cost");
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn qos_params_default_class_is_uncapped_weight_one() {
        let p = QosParams::default().with_class(3, QosClass::weighted(8));
        assert_eq!(p.class(3).weight, 8);
        let d = p.class(200);
        assert_eq!(d.weight, 1);
        assert!(d.bw_cap.is_none());
    }
}
