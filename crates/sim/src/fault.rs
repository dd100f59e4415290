//! Deterministic fault injection in virtual time.
//!
//! A [`FaultPlan`] is a schedule of [`FaultAction`]s at absolute virtual
//! instants — engine crashes/restarts, fabric partitions, message loss,
//! latency spikes. The plan is plain data: it can be written by hand for a
//! directed chaos test or generated from a seed for randomised sweeps, and
//! the same plan against the same simulation seed reproduces the run
//! bit-for-bit.
//!
//! [`FaultInjector::install`] arms a plan: a driver task sleeps to each
//! event's instant and hands the action to a handler closure supplied by the
//! harness (the sim kernel knows nothing about engines or fabrics — the
//! handler maps abstract node indices onto whatever the harness simulates).
//! Every delivered action is appended to a fired log for determinism
//! assertions.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};

/// One injectable fault. `node` indices are abstract — the harness's handler
/// decides what they map to (an engine, a client node, a switch port).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultAction {
    /// Take a node down: its services stop answering and in-flight work on
    /// it is lost.
    Crash { node: usize },
    /// Bring a previously crashed node back up (state it persisted
    /// survives; volatile state is gone).
    Restart { node: usize },
    /// Sever connectivity between two nodes (both directions).
    Partition { a: usize, b: usize },
    /// Remove all partitions, message loss, and in-flight corruption.
    HealAll,
    /// Drop messages uniformly at the given rate, in parts per million.
    DropRate { ppm: u32 },
    /// Add a fixed latency to every message on the wire.
    LatencySpike { extra_ns: u64 },
    /// Remove the latency spike.
    LatencyClear,
    /// Silently corrupt stored extents on one storage target: each extent
    /// rots independently with probability `fraction_ppm` parts per million.
    /// Stored checksums go stale — nothing notices until a verified read or
    /// a scrub pass hashes the bytes.
    BitRot { target: usize, fraction_ppm: u32 },
    /// Corrupt data frames in flight at the given rate (parts per million):
    /// torn bulk transfers that arrive on time and parse fine. Caught only
    /// by end-to-end checksums. `ppm: 0` (or `HealAll`) clears it.
    CorruptInFlight { ppm: u32 },
}

/// A time-ordered schedule of fault events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an event; keeps the plan usable regardless of insertion order.
    pub fn at(mut self, when: SimTime, action: FaultAction) -> Self {
        self.events.push((when, action));
        self.events.sort_by_key(|&(t, a)| (t, a));
        self
    }

    /// The scheduled events in firing order.
    pub fn events(&self) -> &[(SimTime, FaultAction)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generate a random but reproducible plan: `events` faults spread over
    /// `horizon`, drawn from crash/restart (paired — only crashed nodes
    /// restart), partitions, loss bursts and latency spikes across `nodes`
    /// abstract nodes. The same `(seed, nodes, events, horizon)` always
    /// yields the same plan.
    pub fn random(seed: u64, nodes: usize, events: usize, horizon: SimDuration) -> Self {
        assert!(nodes > 0, "fault plan needs at least one node");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut plan = FaultPlan::new();
        let mut down: Vec<usize> = Vec::new();
        let mut lossy = false;
        let mut spiked = false;
        // Draw the instants first and sort them so the crash/restart pairing
        // below holds in *time* order, not generation order.
        let mut times: Vec<u64> = (0..events)
            .map(|_| rng.gen_range(0..horizon.as_ns().max(1)))
            .collect();
        times.sort_unstable();
        for at in times {
            let at = SimTime::from_ns(at);
            let action = match rng.gen_range(0..6u32) {
                0 => {
                    let node = rng.gen_range(0..nodes as u64) as usize;
                    if !down.contains(&node) {
                        down.push(node);
                    }
                    FaultAction::Crash { node }
                }
                1 if !down.is_empty() => {
                    let node = down.remove(rng.gen_range(0..down.len() as u64) as usize);
                    FaultAction::Restart { node }
                }
                2 if nodes > 1 => {
                    let a = rng.gen_range(0..nodes as u64) as usize;
                    let b = (a + 1 + rng.gen_range(0..(nodes - 1) as u64) as usize) % nodes;
                    FaultAction::Partition { a, b }
                }
                3 => {
                    lossy = true;
                    FaultAction::DropRate {
                        ppm: rng.gen_range(1_000..100_000u32),
                    }
                }
                4 if !spiked => {
                    spiked = true;
                    FaultAction::LatencySpike {
                        extra_ns: rng.gen_range(10_000..5_000_000u64),
                    }
                }
                _ if spiked || lossy => {
                    spiked = false;
                    lossy = false;
                    FaultAction::HealAll
                }
                _ => FaultAction::LatencyClear,
            };
            plan = plan.at(at, action);
        }
        // Leave the system healable: restart what is still down and clear
        // partitions/loss at the horizon so recovery is always reachable.
        down.sort_unstable();
        for node in down {
            plan = plan.at(
                SimTime::from_ns(horizon.as_ns()),
                FaultAction::Restart { node },
            );
        }
        plan.at(SimTime::from_ns(horizon.as_ns()), FaultAction::HealAll)
    }
}

/// Drives a [`FaultPlan`] against a handler; records what actually fired.
pub struct FaultInjector {
    fired: Rc<RefCell<Vec<(SimTime, FaultAction)>>>,
}

impl FaultInjector {
    /// Arm `plan`: spawn a driver task that delivers each action to
    /// `handler` at its scheduled virtual instant. Actions scheduled at the
    /// same instant fire in plan order.
    pub fn install(
        sim: &Sim,
        plan: FaultPlan,
        handler: impl Fn(&Sim, FaultAction) + 'static,
    ) -> FaultInjector {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&fired);
        let s = sim.clone();
        sim.spawn_detached(async move {
            for (when, action) in plan.events {
                s.sleep_until(when).await;
                handler(&s, action);
                log.borrow_mut().push((s.now(), action));
            }
        });
        FaultInjector { fired }
    }

    /// The log of `(fire time, action)` pairs delivered so far.
    pub fn fired(&self) -> Vec<(SimTime, FaultAction)> {
        self.fired.borrow().clone()
    }
}

/// Outcome of [`select2`]: which future finished first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future won.
    Left(A),
    /// The second future won.
    Right(B),
}

/// Race two futures; the loser is dropped (cancelled). Polls left first, so
/// simultaneous completion resolves to `Left` — deterministic tie-breaking.
///
/// Both futures must be [`Unpin`]: pin an `async` block to the stack with
/// [`std::pin::pin!`] first (as [`timeout`] does, at zero cost) or to the
/// heap with [`Box::pin`]. Requiring `Unpin` keeps the combinator free of
/// `unsafe` pin projection — `Pin<&mut F>` and `Pin<Box<F>>` are always
/// `Unpin`, so the caller chooses where the pinning happens and `poll`
/// re-pins with the safe [`Pin::new`].
pub fn select2<FA, FB>(a: FA, b: FB) -> Select2<FA, FB>
where
    FA: Future + Unpin,
    FB: Future + Unpin,
{
    Select2 { a, b }
}

/// Future returned by [`select2`].
pub struct Select2<FA, FB> {
    a: FA,
    b: FB,
}

impl<FA: Future + Unpin, FB: Future + Unpin> Future for Select2<FA, FB> {
    type Output = Either<FA::Output, FB::Output>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut(); // safe: Self: Unpin (both fields are)
        if let Poll::Ready(v) = Pin::new(&mut this.a).poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = Pin::new(&mut this.b).poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Run `fut` with a virtual-time deadline: `Some(out)` if it completes
/// within `dur`, `None` if the timer wins (the future is then dropped).
///
/// `fut` is pinned to this frame's stack, so the per-RPC hot path (every
/// fabric attempt runs under a `timeout`) stays allocation-free.
pub async fn timeout<T>(sim: &Sim, dur: SimDuration, fut: impl Future<Output = T>) -> Option<T> {
    let fut = std::pin::pin!(fut);
    match select2(fut, sim.sleep(dur)).await {
        Either::Left(v) => Some(v),
        Either::Right(()) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_in_order_at_scheduled_times() {
        let mut sim = Sim::new(7);
        let plan = FaultPlan::new()
            .at(SimTime::from_us(30), FaultAction::HealAll)
            .at(SimTime::from_us(10), FaultAction::Crash { node: 2 })
            .at(SimTime::from_us(20), FaultAction::Restart { node: 2 });
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = Rc::clone(&seen);
        let log = sim.block_on(move |sim| async move {
            let inj = FaultInjector::install(&sim, plan, move |s, a| {
                s2.borrow_mut().push((s.now().as_ns() / 1_000, a));
            });
            sim.sleep_us(100).await;
            inj.fired()
        });
        assert_eq!(
            *seen.borrow(),
            vec![
                (10, FaultAction::Crash { node: 2 }),
                (20, FaultAction::Restart { node: 2 }),
                (30, FaultAction::HealAll),
            ]
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, SimTime::from_us(10));
    }

    #[test]
    fn random_plans_are_reproducible_and_restart_only_crashed() {
        let a = FaultPlan::random(0xBEEF, 8, 40, SimDuration::from_ms(50));
        let b = FaultPlan::random(0xBEEF, 8, 40, SimDuration::from_ms(50));
        assert_eq!(a, b);
        let c = FaultPlan::random(0xBEF0, 8, 40, SimDuration::from_ms(50));
        assert_ne!(a, c);
        // every Restart is preceded (in time order) by a Crash of that node
        let mut down = std::collections::BTreeSet::new();
        for &(_, action) in a.events() {
            match action {
                FaultAction::Crash { node } => {
                    down.insert(node);
                }
                FaultAction::Restart { node } => {
                    assert!(down.remove(&node), "restart of a live node {node}");
                }
                _ => {}
            }
        }
        assert!(down.is_empty(), "plan left nodes down: {down:?}");
    }

    #[test]
    fn timeout_returns_some_before_deadline_none_after() {
        let mut sim = Sim::new(1);
        let (fast, slow) = sim.block_on(|sim| async move {
            let fast = timeout(&sim, SimDuration::from_us(10), async {
                sim.sleep_us(3).await;
                42u32
            })
            .await;
            let slow = timeout(&sim, SimDuration::from_us(10), async {
                sim.sleep_us(30).await;
                43u32
            })
            .await;
            (fast, slow)
        });
        assert_eq!(fast, Some(42));
        assert_eq!(slow, None);
    }

    #[test]
    fn select2_accepts_stack_pinned_async_blocks() {
        let mut sim = Sim::new(1);
        let out = sim.block_on(|sim| async move {
            let a = std::pin::pin!(async {
                sim.sleep_us(1).await;
                1u32
            });
            let b = std::pin::pin!(async {
                sim.sleep_us(2).await;
                2u32
            });
            select2(a, b).await
        });
        assert_eq!(out, Either::Left(1));
    }

    #[test]
    fn select2_breaks_ties_left() {
        let mut sim = Sim::new(1);
        let won = sim.block_on(|sim| async move {
            match select2(sim.sleep_us(5), sim.sleep_us(5)).await {
                Either::Left(()) => "left",
                Either::Right(()) => "right",
            }
        });
        assert_eq!(won, "left");
    }
}
