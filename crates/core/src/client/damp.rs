//! Storm damping: the retry policy, the retry-token budget and per-engine
//! circuit breakers every clone of a client shares, and the one data-plane
//! retry loop built on them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;

use daos_sim::time::SimDuration;
use daos_sim::Sim;

use crate::proto::{DaosError, Response};

/// Client-side fault-handling policy: an RPC sent under it gets a deadline
/// and failed attempts retry with exponential backoff + jitter, refreshing
/// the pool map between tries. Every data-plane RPC (array, KV and
/// object-wide ops alike) runs under it through the retry loop in this
/// file, and the control plane (`DaosClient::control`) under its own.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Per-attempt RPC deadline. Closed-loop benchmarks rarely trip it,
    /// but it is *not* "far above any legitimate queueing delay": once an
    /// open-loop workload can offer more than the engines serve, queueing
    /// delay at the knee grows without bound and any finite deadline is
    /// reachable on a healthy system. It is a policy knob — how long the
    /// client waits before treating an engine as unresponsive — not a
    /// safety margin. Note the shed distinction: an engine refusing work
    /// replies [`DaosError::Busy`] in microseconds and never waits out
    /// this deadline; only dark/partitioned/saturated-without-admission
    /// engines burn it.
    pub rpc_timeout: SimDuration,
    /// First backoff after a timeout-class failure; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Attempts before the typed error surfaces to the caller.
    pub max_attempts: u32,
    /// Backoff floor after a [`DaosError::Busy`] shed. The two failure
    /// modes earn different curves: a timeout already *waited out*
    /// `rpc_timeout` before retrying, so its extra backoff can start
    /// small; a shed fast-fails in microseconds — retrying it on the
    /// timeout curve's early steps would hammer the engine precisely when
    /// it asked for relief. Sheds back off from this floor (doubling,
    /// jittered, capped at `max_backoff` like the timeout curve).
    pub shed_backoff: SimDuration,
    /// Token-bucket retry budget shared by every clone of the client.
    /// Each retry spends one token; each successful RPC refunds 1/16 of a
    /// token (capped at the budget), so under sustained overload retry
    /// traffic is throttled toward a small fraction of goodput instead of
    /// multiplying offered load — the anti-storm invariant. `0` disables
    /// budgeting (unbounded retries, the pre-overload model and default).
    pub retry_budget: u32,
    /// Consecutive `Busy`/`Timeout` failures against one engine that trip
    /// its circuit breaker. While open, data-plane calls to that engine
    /// fast-fail client-side with `Busy { queued: 0 }` — no wire traffic —
    /// for `breaker_open`; the first call after the window half-opens the
    /// breaker as a single probe whose outcome deterministically closes
    /// (success) or re-opens (failure) it. `0` disables (the default).
    pub breaker_failures: u32,
    /// How long a tripped breaker stays open before half-opening.
    pub breaker_open: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            rpc_timeout: SimDuration::from_secs(1),
            base_backoff: SimDuration::from_ms(1),
            max_backoff: SimDuration::from_ms(32),
            max_attempts: 30,
            shed_backoff: SimDuration::from_ms(4),
            retry_budget: 0,
            breaker_failures: 0,
            breaker_open: SimDuration::from_ms(20),
        }
    }
}

/// Saturating exponential backoff step: `base · 2^attempt` clamped to
/// `max`, immune to shift overflow at any attempt count (a `u64` shift by
/// ≥ 64 is UB-adjacent in release and panics in debug; this never shifts
/// past 63 and saturates the multiply).
fn capped_exp_backoff(base: u64, attempt: u32, max: u64) -> u64 {
    let exp = if attempt >= 63 {
        u64::MAX
    } else {
        base.saturating_mul(1u64 << attempt)
    };
    exp.min(max)
}

/// Retry-budget refund per successful RPC, in 1/16ths of a token.
const RETRY_REFILL_X16: u64 = 1;

/// Per-engine circuit-breaker state. `open_until_ns == 0` means closed.
#[derive(Default)]
struct Breaker {
    /// Consecutive `Busy`/`Timeout` failures while closed.
    consecutive: u32,
    /// Virtual instant the open window ends (0 = closed).
    open_until_ns: u64,
    /// A half-open probe is in flight; siblings keep fast-failing.
    probe_inflight: bool,
}

/// Fold one gated call's outcome into a breaker (the deterministic state
/// machine behind [`DampStats::breaker_fastfail`]):
/// failures while closed count toward `threshold`; reaching it — or any
/// failed half-open probe — opens the breaker until `now_ns + open_ns`;
/// success closes it outright.
fn breaker_transition(
    b: &mut Breaker,
    threshold: u32,
    open_ns: u64,
    now_ns: u64,
    probe: bool,
    failed: bool,
) {
    if probe {
        b.probe_inflight = false;
    }
    if failed {
        b.consecutive += 1;
        if probe || b.consecutive >= threshold {
            b.open_until_ns = now_ns + open_ns;
        }
    } else {
        b.consecutive = 0;
        b.open_until_ns = 0;
    }
}

/// Storm-damping state shared by every clone of a [`DaosClient`] and every
/// handle opened from it: the policy, the retry token bucket and the
/// per-engine breakers.
///
/// [`DaosClient`]: super::DaosClient
pub(super) struct DampState {
    pub(super) policy: RetryPolicy,
    /// Retry tokens in 1/16ths (budgeting disabled when the policy's
    /// `retry_budget` is 0 — the field is then unused).
    tokens_x16: Cell<u64>,
    breakers: RefCell<BTreeMap<u32, Breaker>>,
    stats: Cell<DampStats>,
}

/// Storm-damping observability counters (see [`DaosClient::damp_stats`]).
///
/// [`DaosClient::damp_stats`]: super::DaosClient::damp_stats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DampStats {
    /// Retry-budget tokens spent on retries.
    pub retries_spent: u64,
    /// Retries denied because the budget was dry (errors surfaced early).
    pub retries_denied: u64,
    /// Calls fast-failed client-side by an open circuit breaker.
    pub breaker_fastfail: u64,
    /// `Busy` shed replies received from engines.
    pub sheds_seen: u64,
}

/// Breaker admission decision for one data-plane call.
pub(super) enum Admit {
    /// Proceed; `probe` marks the single half-open probe.
    Yes { probe: bool },
    /// Breaker open: fail fast without touching the wire.
    FastFail,
}

/// What one round of an operation tells [`DampState::retry_rounds`].
pub(super) enum Attempt<T> {
    Done(T),
    /// Failed for good: the error surfaces now.
    Fail(DaosError),
    /// Failed in a way another round may cure. The error picks the backoff
    /// curve and surfaces if the rounds or the retry budget run out.
    Retry(DaosError),
}

impl<T> From<Result<T, DaosError>> for Attempt<T> {
    fn from(r: Result<T, DaosError>) -> Self {
        match r {
            Ok(v) => Attempt::Done(v),
            Err(e) if e.is_retryable() => Attempt::Retry(e),
            Err(e) => Attempt::Fail(e),
        }
    }
}

impl DampState {
    pub(super) fn new(policy: RetryPolicy) -> Self {
        DampState {
            policy,
            tokens_x16: Cell::new(policy.retry_budget as u64 * 16),
            breakers: RefCell::new(BTreeMap::new()),
            stats: Cell::new(DampStats::default()),
        }
    }

    pub(super) fn stats(&self) -> DampStats {
        self.stats.get()
    }

    fn count(&self, bump: impl FnOnce(&mut DampStats)) {
        let mut s = self.stats.get();
        bump(&mut s);
        self.stats.set(s);
    }

    /// Spend one retry token; `false` means the budget is dry and the
    /// caller must surface its error instead of retrying.
    fn try_spend_retry(&self) -> bool {
        if self.policy.retry_budget == 0 {
            return true;
        }
        let t = self.tokens_x16.get();
        if t >= 16 {
            self.tokens_x16.set(t - 16);
            self.count(|s| s.retries_spent += 1);
            true
        } else {
            self.count(|s| s.retries_denied += 1);
            false
        }
    }

    /// Refund part of a retry token for a successful RPC.
    fn credit_success(&self) {
        if self.policy.retry_budget == 0 {
            return;
        }
        let cap = self.policy.retry_budget as u64 * 16;
        let t = self.tokens_x16.get();
        self.tokens_x16.set((t + RETRY_REFILL_X16).min(cap));
    }

    /// Breaker admission check for a data-plane call to `engine_idx`.
    pub(super) fn breaker_gate(&self, sim: &Sim, engine_idx: u32) -> Admit {
        if self.policy.breaker_failures == 0 {
            return Admit::Yes { probe: false };
        }
        let mut breakers = self.breakers.borrow_mut();
        let b = breakers.entry(engine_idx).or_default();
        if b.open_until_ns == 0 {
            return Admit::Yes { probe: false };
        }
        if sim.now().as_ns() < b.open_until_ns || b.probe_inflight {
            self.count(|s| s.breaker_fastfail += 1);
            Admit::FastFail
        } else {
            // half-open: exactly one probe crosses the wire
            b.probe_inflight = true;
            Admit::Yes { probe: true }
        }
    }

    /// Fold an admitted call's outcome back in: sheds and timeouts feed
    /// the engine's breaker, responsive outcomes refund retry tokens.
    pub(super) fn settle(
        &self,
        sim: &Sim,
        engine_idx: u32,
        probe: bool,
        outcome: &Result<Response, DaosError>,
    ) {
        let shed = matches!(outcome, Ok(Response::Err(DaosError::Busy { .. })));
        if shed {
            self.count(|s| s.sheds_seen += 1);
        }
        let failed = shed || matches!(outcome, Err(DaosError::Timeout));
        if self.policy.breaker_failures != 0 {
            let mut breakers = self.breakers.borrow_mut();
            breaker_transition(
                breakers.entry(engine_idx).or_default(),
                self.policy.breaker_failures,
                self.policy.breaker_open.as_ns(),
                sim.now().as_ns(),
                probe,
                failed,
            );
        }
        if !failed && outcome.is_ok() {
            self.credit_success();
        }
    }

    /// Exponential backoff with jitter before retry `attempt` (0-based),
    /// on the curve the failure mode earns: sheds start at `shed_backoff`
    /// (the engine fast-failed — don't pile on), timeouts at
    /// `base_backoff` (the deadline itself was the wait).
    async fn backoff_for(&self, sim: &Sim, attempt: u32, err: &DaosError) {
        let base = match err {
            DaosError::Busy { .. } => self.policy.shed_backoff.as_ns().max(1),
            _ => self.policy.base_backoff.as_ns().max(1),
        };
        let capped = capped_exp_backoff(base, attempt, self.policy.max_backoff.as_ns().max(base));
        // jitter in [0.5, 1.0) × capped, drawn from the sim's seeded RNG
        let jittered = capped / 2 + sim.rand_below(capped / 2 + 1);
        sim.sleep(SimDuration::from_ns(jittered)).await;
    }

    /// The client's one retry loop (data plane and control plane): run
    /// `attempt(round)` until it is done, fails for good, or the policy's
    /// rounds or the retry budget run out — then the last retryable error
    /// surfaces (`exhausted` if no round ever ran). Between rounds, in
    /// this order: one budget token, the backoff the error earned, then
    /// `refresh` (pool map + re-place) — unless the error was a shed,
    /// which is a load signal, not a placement signal: skipping the
    /// control-plane refresh keeps damped retries from stampeding the
    /// pool service.
    pub(super) async fn retry_rounds<T, A, R>(
        &self,
        sim: &Sim,
        exhausted: DaosError,
        mut attempt: impl FnMut(u32) -> A,
        refresh: impl Fn() -> R,
    ) -> Result<T, DaosError>
    where
        A: Future<Output = Attempt<T>>,
        R: Future,
    {
        let mut last = exhausted;
        for round in 0..self.policy.max_attempts {
            match attempt(round).await {
                Attempt::Done(v) => return Ok(v),
                Attempt::Fail(e) => return Err(e),
                Attempt::Retry(e) => last = e,
            }
            // a dry budget surfaces the error and adds no retry traffic
            if !self.try_spend_retry() {
                return Err(last);
            }
            self.backoff_for(sim, round, &last).await;
            if !matches!(last, DaosError::Busy { .. }) {
                refresh().await;
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_shift_never_overflows() {
        let max = SimDuration::from_ms(32).as_ns();
        let base = SimDuration::from_ms(1).as_ns();
        // the satellite bug: `base << attempt` overflows u64 at high
        // attempt counts; the capped form must clamp, not wrap or panic
        for attempt in [0, 1, 20, 62, 63, 64, 65, 100, 1000, u32::MAX] {
            let v = capped_exp_backoff(base, attempt, max);
            assert!(v <= max, "attempt {attempt} escaped the cap: {v}");
            assert!(v >= base.min(max), "attempt {attempt} under the base");
        }
        // sane growth before the cap bites
        assert_eq!(capped_exp_backoff(1, 0, u64::MAX), 1);
        assert_eq!(capped_exp_backoff(1, 10, u64::MAX), 1024);
        // at/past 63 shifts the curve saturates instead of wrapping
        assert_eq!(capped_exp_backoff(2, 63, u64::MAX), u64::MAX);
        assert_eq!(capped_exp_backoff(1, 64, u64::MAX), u64::MAX);
        assert_eq!(capped_exp_backoff(0, 64, 100), 100);
    }

    const SEED: u64 = 0xDA3F;

    /// What one scripted run of the retry loop did.
    struct Run {
        result: Result<u8, DaosError>,
        rounds: u32,
        refreshes: u32,
        slept_ns: u64,
        next_rand: u64,
        stats: DampStats,
    }

    /// Drive `retry_rounds` with round `r` answering `script(r)`.
    fn drive(policy: RetryPolicy, script: fn(u32) -> Result<u8, DaosError>) -> Run {
        Sim::new(SEED).block_on(move |sim| async move {
            let damp = DampState::new(policy);
            let (rounds, refreshes) = (&Cell::new(0), &Cell::new(0));
            let attempt = move |round| {
                rounds.set(rounds.get() + 1);
                async move { Attempt::from(script(round)) }
            };
            let refresh = move || async move { refreshes.set(refreshes.get() + 1) };
            let result = damp
                .retry_rounds(&sim, DaosError::NoSurvivingReplicas, attempt, refresh)
                .await;
            Run {
                result,
                rounds: rounds.get(),
                refreshes: refreshes.get(),
                slept_ns: sim.now().as_ns(),
                next_rand: sim.rand_u64(),
                stats: damp.stats(),
            }
        })
    }

    /// `(ns slept, next RNG word)` of a fresh sim that does nothing but
    /// back off once per entry of `bases`, one `rand_below` draw each.
    fn backoffs(bases: &[SimDuration]) -> (u64, u64) {
        let (sim, max) = (Sim::new(SEED), RetryPolicy::default().max_backoff.as_ns());
        let mut slept = 0;
        for (attempt, base) in bases.iter().enumerate() {
            let capped = capped_exp_backoff(base.as_ns(), attempt as u32, max);
            slept += capped / 2 + sim.rand_below(capped / 2 + 1);
        }
        (slept, sim.rand_u64())
    }

    #[test]
    fn fatal_error_returns_without_sleeping_or_drawing() {
        let run = drive(RetryPolicy::default(), |_| Err(DaosError::CsumMismatch));
        assert_eq!(run.result, Err(DaosError::CsumMismatch));
        assert_eq!((run.rounds, run.refreshes), (1, 0));
        assert_eq!((run.slept_ns, run.next_rand), backoffs(&[]));
    }

    #[test]
    fn sheds_skip_the_refresh_and_every_retry_draws_once() {
        let p = RetryPolicy::default();
        let run = drive(p, |round| match round {
            0 | 2 => Err(DaosError::Busy { queued: 9 }),
            1 => Err(DaosError::Timeout),
            _ => Ok(7),
        });
        assert_eq!(run.result, Ok(7));
        // only the timeout is a placement signal
        assert_eq!((run.rounds, run.refreshes), (4, 1));
        // each retry slept its own curve's jittered step off one draw
        let curves = [p.shed_backoff, p.base_backoff, p.shed_backoff];
        assert_eq!((run.slept_ns, run.next_rand), backoffs(&curves));
    }

    #[test]
    fn dry_budget_surfaces_the_last_error() {
        let policy = RetryPolicy {
            retry_budget: 1,
            ..RetryPolicy::default()
        };
        let run = drive(policy, |round| match round {
            0 => Err(DaosError::Timeout),
            _ => Err(DaosError::Transport),
        });
        // the one token buys round 1; its error surfaces when round 2 is denied
        assert_eq!(run.result, Err(DaosError::Transport));
        assert_eq!((run.rounds, run.refreshes), (2, 1));
        assert_eq!((run.stats.retries_spent, run.stats.retries_denied), (1, 1));
    }

    #[test]
    fn rounds_run_out_with_the_last_error_or_the_callers() {
        let policy = |max_attempts| RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        };
        let stale = |_| Err(DaosError::StaleMap { version: 3 });
        let run = drive(policy(3), stale);
        assert_eq!(run.result, Err(DaosError::StaleMap { version: 3 }));
        assert_eq!((run.rounds, run.refreshes), (3, 3));
        let run = drive(policy(0), stale);
        assert_eq!(run.result, Err(DaosError::NoSurvivingReplicas));
        assert_eq!((run.rounds, run.slept_ns), (0, 0));
    }

    #[test]
    fn breaker_state_machine_is_deterministic() {
        let (threshold, open_ns) = (3, 1_000);
        let mut b = Breaker::default();
        // two failures stay closed, the third opens
        breaker_transition(&mut b, threshold, open_ns, 10, false, true);
        breaker_transition(&mut b, threshold, open_ns, 20, false, true);
        assert_eq!(b.open_until_ns, 0);
        breaker_transition(&mut b, threshold, open_ns, 30, false, true);
        assert_eq!(b.open_until_ns, 1_030);
        // failed half-open probe re-opens for a fresh window
        b.probe_inflight = true;
        breaker_transition(&mut b, threshold, open_ns, 2_000, true, true);
        assert!(!b.probe_inflight);
        assert_eq!(b.open_until_ns, 3_000);
        // successful probe closes outright and resets the failure count
        b.probe_inflight = true;
        breaker_transition(&mut b, threshold, open_ns, 4_000, true, false);
        assert_eq!(
            (b.consecutive, b.open_until_ns, b.probe_inflight),
            (0, 0, false)
        );
    }
}
