//! Concurrency without tasks: [`join_inline`] runs a set of futures
//! inside the caller's own task.
//!
//! [`crate::executor::join_all`] spawns one task per future — a slab slot,
//! a boxed future, a `JoinState` and a ready-queue round trip each.
//! That is the right tool when the children must outlive or outpace their
//! parent. A handler that fans one request out to a handful of local
//! resources and waits for all of them needs none of it: its children
//! share its lifetime and its task.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::Sim;

/// Future returned by [`join_inline`].
pub struct JoinInline<F: Future> {
    /// One slot per child, pinned in one allocation for the join's
    /// lifetime: the child until it completes, then its output.
    slots: Pin<Box<[Slot<F>]>>,
    wakes: Wakes,
}

/// A child of a join, then what it returned, and when it is next due.
struct Slot<F: Future> {
    state: State<F>,
    /// The earliest deadline of the `Sleep`s the child was waiting on
    /// after its last poll (`u64::MAX`: none).
    due: u64,
}

enum State<F: Future> {
    Running(F),
    Done(F::Output),
    /// The output went to the join's caller.
    Taken,
}

/// How a join learns which children may have progressed.
enum Wakes {
    /// Not polled yet.
    Fresh,
    /// The join holds its task's wake mask under `claim`: child `i` runs
    /// under a waker that sets bit `min(i, 63)`.
    Tracked { sim: Sim, task: u32, claim: u32 },
    /// Every child runs under the caller's waker and is polled on every
    /// poll of the join.
    Every,
}

/// Await every future `futs` yields concurrently *inside the calling
/// task*; the outputs come back as an iterator in submission order.
///
/// Nothing is spawned: the children live in the caller's task and are
/// polled in index order, so same-tick ties between them never depend on
/// which one was woken. The first poll runs every child up to its first
/// await point, in order — exactly what spawning them back to back would
/// do — and a join whose children all complete on that first poll (an
/// empty one, or one child that never waits) completes without yielding.
/// Dropping the join drops the unfinished children, releasing whatever
/// they hold.
///
/// A later poll visits only the children that can have moved: those whose
/// own waker fired since their last poll, and those waiting on a `Sleep`
/// that is due — what a sibling's timer at the same instant leaves
/// unfired. That is exactly the set a poll of every child would find
/// progressing (DESIGN.md §8 has the rule). The join polls every child on
/// every poll instead where it cannot tell its children's wakes apart: it
/// is polled outside a [`Sim`] task, nested inside another join's child,
/// or beside another join of the same task that already tracks the wakes.
///
/// A join allocates once, at its exact size: the slots, built straight
/// from `futs`. The outputs are read back out of them.
pub fn join_inline<I>(futs: I) -> JoinInline<I::Item>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Future,
{
    let futs = futs.into_iter();
    let mut slots = Vec::with_capacity(futs.len());
    slots.extend(futs.map(|fut| Slot {
        state: State::Running(fut),
        due: u64::MAX,
    }));
    JoinInline {
        slots: Box::into_pin(slots.into_boxed_slice()),
        wakes: Wakes::Fresh,
    }
}

// The children are pinned by their box, not by the join: moving the join
// moves none of them.
impl<F: Future> Unpin for JoinInline<F> {}

impl<F: Future> JoinInline<F> {
    /// Decide, on the first poll, whether this join tracks its children's
    /// wakes; on a later poll, keep tracking only under the same task.
    /// Returns whether this is the first poll.
    fn settle_wakes(&mut self, cx: &Context<'_>) -> bool {
        match &self.wakes {
            Wakes::Fresh => {
                let tracked = Sim::task_of(cx.waker())
                    .and_then(|(sim, task)| Some((sim.claim_wakes(task)?, sim, task)));
                self.wakes = match tracked {
                    Some((claim, sim, task)) => Wakes::Tracked { sim, task, claim },
                    None => Wakes::Every,
                };
                true
            }
            Wakes::Tracked { sim, task, claim } if !sim.is_task_waker(cx.waker(), *task) => {
                // moved to another task: its children's wakers point at
                // the old one, so from here on every poll polls them all
                sim.release_wakes(*task, *claim);
                self.wakes = Wakes::Every;
                false
            }
            _ => false,
        }
    }
}

impl<F: Future> Future for JoinInline<F> {
    type Output = JoinOutputs<F>;

    #[allow(unsafe_code, reason = "the slot projection below")]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let first = this.settle_wakes(cx);
        let tracked = match &this.wakes {
            Wakes::Tracked { sim, task, .. } => Some((sim, *task, sim.now().as_ns())),
            _ => None,
        };
        // SAFETY: these `&mut Slot<F>` never move a running child: one is
        // re-pinned where it stands (below), and a state is only ever
        // overwritten in place, as `Pin::set` does — the child dropped
        // where it stands.
        let slots = unsafe { this.slots.as_mut().get_unchecked_mut() };
        let mut pending = false;
        // the children from 63 on share one bit: taken once, when the
        // first of them comes up
        let mut tail = false;
        for (i, slot) in slots.iter_mut().enumerate() {
            if let (Some((sim, task, _)), 63) = (tracked, i) {
                tail = sim.take_woken(task, 1 << 63);
            }
            let State::Running(fut) = &mut slot.state else {
                continue;
            };
            // SAFETY: `fut` is inside the pinned box, which never moves it
            // (see above).
            let fut = unsafe { Pin::new_unchecked(fut) };
            let polled = match tracked {
                None => fut.poll(cx),
                Some((sim, task, now)) => {
                    let woken = match i {
                        ..63 => sim.take_woken(task, 1 << i),
                        _ => tail || sim.is_woken(task, 1 << 63),
                    };
                    if !(first || woken || slot.due <= now) {
                        pending = true;
                        continue;
                    }
                    let waker = sim.child_waker(task, i);
                    sim.take_sleep_due();
                    let polled = fut.poll(&mut Context::from_waker(&waker));
                    slot.due = sim.take_sleep_due();
                    polled
                }
            };
            match polled {
                Poll::Ready(v) => slot.state = State::Done(v),
                Poll::Pending => pending = true,
            }
        }
        if pending {
            return Poll::Pending;
        }
        if let Wakes::Tracked { sim, task, claim } =
            std::mem::replace(&mut this.wakes, Wakes::Every)
        {
            sim.release_wakes(task, claim);
        }
        let done = std::mem::replace(&mut this.slots, Box::into_pin(Box::new([])));
        // SAFETY: nothing is pending, so every state is `Done` (or there is
        // no slot: a join polled again after completion holds an empty
        // box): no slot holds a pinned child any more, and none will again.
        let slots = unsafe { Pin::into_inner_unchecked(done) };
        Poll::Ready(JoinOutputs { slots, next: 0 })
    }
}

impl<F: Future> Drop for JoinInline<F> {
    fn drop(&mut self) {
        if let Wakes::Tracked { sim, task, claim } = &self.wakes {
            sim.release_wakes(*task, *claim);
        }
    }
}

/// The outputs of a finished [`join_inline`], in submission order.
pub struct JoinOutputs<F: Future> {
    slots: Box<[Slot<F>]>,
    next: usize,
}

impl<F: Future> Iterator for JoinOutputs<F> {
    type Item = F::Output;

    #[expect(
        clippy::panic,
        reason = "INVARIANT: the join hands its slots over only once every child is \
                  done, and each slot is read once"
    )]
    fn next(&mut self) -> Option<F::Output> {
        let slot = self.slots.get_mut(self.next)?;
        self.next += 1;
        match std::mem::replace(&mut slot.state, State::Taken) {
            State::Done(v) => Some(v),
            _ => panic!("join output read before it was done"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.slots.len() - self.next;
        (left, Some(left))
    }
}

impl<F: Future> ExactSizeIterator for JoinOutputs<F> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{ReplySlots, Semaphore};
    use crate::time::{SimDuration, SimTime};
    use crate::{select2, timeout, Either};
    use proptest::prelude::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::task::Waker;

    /// Poll `f` once outside any task.
    fn poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
        Pin::new(f).poll(&mut Context::from_waker(Waker::noop()))
    }

    #[test]
    fn outputs_come_back_in_submission_order() {
        let mut sim = Sim::new(7);
        let vals = sim.block_on(|sim| async move {
            // later indices sleep *less*, finishing first
            let futs = (0..10u32).map(|i| {
                let s = sim.clone();
                async move {
                    s.sleep_us(10 - u64::from(i)).await;
                    i
                }
            });
            let outs = join_inline(futs).await;
            assert_eq!(outs.len(), 10);
            outs.collect::<Vec<_>>()
        });
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn children_overlap_in_time_and_nothing_is_spawned() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let spawned = sim.spawned_total();
            let futs = (0..3).map(|_| sim.sleep_us(10));
            join_inline(futs).await;
            assert_eq!(sim.now(), SimTime::from_us(10), "three sleeps, not 30 us");
            assert_eq!(sim.spawned_total(), spawned, "no task was spawned");
        });
    }

    /// A join with nothing to wait for adds no scheduling point: a
    /// one-target collective RPC must behave exactly like the plain call
    /// it replaces.
    #[test]
    fn empty_and_ready_joins_complete_on_the_first_poll() {
        fn outs<F: Future>(p: Poll<JoinOutputs<F>>) -> Poll<Vec<F::Output>> {
            p.map(Vec::from_iter)
        }
        let mut empty = join_inline(Vec::<std::future::Ready<u8>>::new());
        assert_eq!(outs(poll_once(&mut empty)), Poll::Ready(vec![]));
        let mut one = join_inline(vec![std::future::ready(5u8)]);
        assert_eq!(outs(poll_once(&mut one)), Poll::Ready(vec![5]));

        // a single waiting child: the join is pending exactly while it is
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let mut one = join_inline(vec![sim.sleep_us(1)]);
            assert!(poll_once(&mut one).is_pending());
            sim.sleep_us(1).await;
            assert_eq!(outs(poll_once(&mut one)), Poll::Ready(vec![()]));
        });
    }

    #[test]
    fn dropping_the_join_mid_flight_releases_what_children_hold() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let sem = Semaphore::new(2);
            let futs = (0..3).map(|_| {
                let (sem, s) = (sem.clone(), sim.clone());
                async move {
                    let _permit = sem.acquire().await;
                    s.sleep_us(10).await;
                }
            });
            let mut join = join_inline(futs);
            assert!(poll_once(&mut join).is_pending());
            assert_eq!((sem.available(), sem.queue_len()), (0, 1));
            drop(join);
            assert_eq!(
                (sem.available(), sem.queue_len()),
                (2, 0),
                "both permits and the queued waiter are gone"
            );
        });
    }

    /// Children woken at the same instant run in index order, whatever
    /// order their wake-ups were registered or delivered in.
    #[test]
    fn same_tick_ties_are_polled_in_index_order() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        sim.block_on(|sim| async move {
            // child i first sleeps (3 - i) us, so the timers for the common
            // second deadline are registered in *reverse* index order
            let futs = (0..4u32).map(|i| {
                let (s, l) = (sim.clone(), Rc::clone(&l));
                async move {
                    s.sleep_us(3 - u64::from(i)).await;
                    s.sleep_until(SimTime::from_us(5)).await;
                    l.borrow_mut().push(i);
                }
            });
            join_inline(futs).await;
        });
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    /// Counts the polls of the future it wraps.
    struct Counted<F> {
        fut: Pin<Box<F>>,
        polls: Rc<Cell<u32>>,
    }

    impl<F: Future> Future for Counted<F> {
        type Output = F::Output;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.polls.set(self.polls.get() + 1);
            self.fut.as_mut().poll(cx)
        }
    }

    /// The census: a child that is neither woken nor due is never polled.
    /// Each child here is polled once to start and once per wake of its
    /// own, however many siblings finish around it.
    #[test]
    fn a_child_neither_woken_nor_due_is_never_polled() {
        let mut sim = Sim::new(1);
        let polls: Vec<_> = (0..40).map(|_| Rc::new(Cell::new(0))).collect();
        let p = polls.clone();
        sim.block_on(|sim| async move {
            let slots = ReplySlots::<u32>::new();
            let (tx, rx) = slots.channel();
            let mut rx = Some(rx);
            let futs = p.iter().enumerate().map(|(i, polls)| {
                let s = sim.clone();
                let fut: Pin<Box<dyn Future<Output = ()>>> = match i {
                    // one child waits on a reply sent after everyone else
                    0 => {
                        let rx = rx.take();
                        Box::pin(async move {
                            if let Some(rx) = rx {
                                let _ = rx.await;
                            }
                        })
                    }
                    // the others sleep one, two or three times
                    _ => Box::pin(async move {
                        for _ in 0..i % 3 + 1 {
                            s.sleep_us(i as u64).await;
                        }
                    }),
                };
                let polls = Rc::clone(polls);
                Counted {
                    fut: Box::pin(fut),
                    polls,
                }
            });
            let s = sim.clone();
            sim.spawn_detached(async move {
                s.sleep_us(1_000).await;
                tx.send(1);
            });
            join_inline(futs).await;
        });
        for (i, polls) in polls.iter().enumerate() {
            let own_wakes = if i == 0 { 1 } else { i as u32 % 3 + 1 };
            assert_eq!(polls.get(), 1 + own_wakes, "child {i}");
        }
    }

    /// Two joins raced in one task: the first claims the task's wakes,
    /// the second polls every child, and neither loses a wake — the
    /// loser still finishes on time once awaited on its own.
    #[test]
    fn select2_of_two_joins_loses_no_wake() {
        for left_first in [true, false] {
            let mut sim = Sim::new(1);
            let (fin_a, fin_b) = sim.block_on(move |sim| async move {
                let slots = ReplySlots::<()>::new();
                let (tx, rx) = slots.channel();
                let s = sim.clone();
                sim.spawn_detached(async move {
                    s.sleep_us(20).await;
                    tx.send(());
                });
                let rx = RefCell::new(Some(rx));
                let kid = |i: u64| {
                    let (s, rx) = (sim.clone(), rx.borrow_mut().take());
                    async move {
                        s.sleep_us(i).await;
                        if let Some(rx) = rx {
                            let _ = rx.await;
                        }
                        s.now()
                    }
                };
                // a: done at 30 us; b: one child waits on the 20 us reply
                let mut b = join_inline([kid(5), kid(8)]);
                let mut a = join_inline([kid(10), kid(30)]);
                let won = match left_first {
                    true => select2(&mut a, &mut b).await,
                    false => match select2(&mut b, &mut a).await {
                        Either::Left(v) => Either::Right(v),
                        Either::Right(v) => Either::Left(v),
                    },
                };
                let Either::Right(b) = won else {
                    panic!("a cannot finish first")
                };
                assert_eq!(sim.now(), SimTime::from_us(20));
                let a = a.await;
                assert_eq!(sim.now(), SimTime::from_us(30));
                (a.collect::<Vec<_>>(), b.collect::<Vec<_>>())
            });
            let us = SimTime::from_us;
            assert_eq!(fin_a, vec![us(10), us(30)]);
            assert_eq!(fin_b, vec![us(20), us(8)]);
        }
    }

    /// The reference: a join that polls every unfinished child on every
    /// poll, under the caller's waker.
    struct EveryChild {
        kids: Vec<Option<Pin<Box<dyn Future<Output = ()>>>>>,
    }

    impl Future for EveryChild {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let mut pending = false;
            for kid in self.kids.iter_mut() {
                if let Some(fut) = kid {
                    match fut.as_mut().poll(cx) {
                        Poll::Ready(()) => *kid = None,
                        Poll::Pending => pending = true,
                    }
                }
            }
            if pending {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        }
    }

    /// One step of a child's program.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Sleep this many ns (small: ties are common).
        Sleep(u64),
        /// Sleep until this absolute instant, in ns.
        Until(u64),
        /// Hold a permit of the shared FIFO semaphore for this many ns.
        Permit(u64),
        /// Send on oneshot `k % channels`, if its sender is still here.
        Send(usize),
        /// Await oneshot `k % channels`, if its receiver is still here.
        Recv(usize),
        /// A permit wait under a deadline of this many ns.
        Timeout(u64),
        /// `select2` of a sleep and a permit wait.
        Race(u64, u64),
        /// A nested join of two sleeps.
        Nested(u64, u64),
        Yield,
    }

    fn step() -> impl Strategy<Value = Step> {
        let ns = || prop_oneof![0u64..4, 0u64..3_000];
        prop_oneof![
            ns().prop_map(Step::Sleep),
            ns().prop_map(Step::Sleep),
            (1u64..4).prop_map(|k| Step::Until(k * 1_000)),
            ns().prop_map(Step::Permit),
            (0usize..8).prop_map(Step::Send),
            (0usize..8).prop_map(Step::Recv),
            ns().prop_map(Step::Timeout),
            (ns(), ns()).prop_map(|(a, b)| Step::Race(a, b)),
            (ns(), ns()).prop_map(|(a, b)| Step::Nested(a, b)),
            Just(Step::Yield),
        ]
    }

    /// A child set: each child's steps, how many children (past 64 at
    /// times, which share a wake bit), whether every child starts with a
    /// stagger that registers a common deadline in reverse index order,
    /// the semaphore's permits and the number of oneshots.
    fn program() -> impl Strategy<Value = (Vec<Vec<Step>>, usize, bool, usize, usize)> {
        (
            prop::collection::vec(prop::collection::vec(step(), 0..6), 1..12),
            prop_oneof![1usize..12, 60usize..72],
            any::<bool>(),
            1usize..4,
            1usize..8,
        )
    }

    type Log = Rc<RefCell<Vec<(u64, usize, u32)>>>;
    type Channels = Rc<
        RefCell<
            Vec<(
                Option<crate::sync::OneshotSender<u32>>,
                Option<crate::sync::OneshotReceiver<u32>>,
            )>,
        >,
    >;

    /// Run child `i`'s steps, logging `(time, child, event)` after each.
    async fn child(
        sim: Sim,
        i: usize,
        steps: Vec<Step>,
        sem: Semaphore,
        chans: Channels,
        log: Log,
        reference: bool,
    ) {
        let note = |ev: u32| log.borrow_mut().push((sim.now().as_ns(), i, ev));
        for (n, st) in steps.into_iter().enumerate() {
            let ev = 16 * n as u32;
            match st {
                Step::Sleep(ns) => sim.sleep_ns(ns).await,
                Step::Until(at) => sim.sleep_until(SimTime::from_ns(at)).await,
                Step::Permit(ns) => {
                    let _permit = sem.acquire().await;
                    note(ev + 1);
                    sim.sleep_ns(ns).await;
                }
                Step::Send(k) => {
                    let tx = {
                        let mut ch = chans.borrow_mut();
                        let len = ch.len();
                        ch[k % len].0.take()
                    };
                    if let Some(tx) = tx {
                        tx.send(i as u32);
                    }
                }
                Step::Recv(k) => {
                    let rx = {
                        let mut ch = chans.borrow_mut();
                        let len = ch.len();
                        ch[k % len].1.take()
                    };
                    if let Some(rx) = rx {
                        let got = rx.await.map_or(99, |v| v);
                        note(ev + 2 + 16 * 1000 * got);
                    }
                }
                Step::Timeout(ns) => {
                    let won = timeout(&sim, SimDuration::from_ns(ns), sem.acquire()).await;
                    note(ev + 3 + u32::from(won.is_some()));
                }
                Step::Race(a, b) => {
                    let nap = sim.sleep_ns(a);
                    let wait = std::pin::pin!(async {
                        let _permit = sem.acquire().await;
                        sim.sleep_ns(b).await;
                    });
                    let left = matches!(select2(nap, wait).await, Either::Left(()));
                    note(ev + 5 + u32::from(left));
                }
                Step::Nested(a, b) => {
                    let naps = [sim.sleep_ns(a), sim.sleep_ns(b)];
                    match reference {
                        true => {
                            let kids = naps
                                .map(|s| Some(Box::pin(s) as Pin<Box<dyn Future<Output = ()>>>));
                            EveryChild { kids: kids.into() }.await;
                        }
                        false => drop(join_inline(naps).await),
                    }
                }
                Step::Yield => sim.yield_now().await,
            }
            note(ev);
        }
    }

    /// Run a child set under `join_inline`, or under the reference join;
    /// returns the log and the instant the join finished.
    fn run(
        prog: &(Vec<Vec<Step>>, usize, bool, usize, usize),
        reference: bool,
    ) -> (Vec<(u64, usize, u32)>, u64) {
        let (programs, kids, stagger, permits, channels) = prog.clone();
        let mut sim = Sim::new(1);
        let log: Log = Rc::default();
        let l = Rc::clone(&log);
        let end = sim.block_on(move |sim| async move {
            let sem = Semaphore::new(permits);
            let slots = ReplySlots::new();
            let chans: Channels = Rc::new(RefCell::new(
                (0..channels)
                    .map(|_| {
                        let (tx, rx) = slots.channel();
                        (Some(tx), Some(rx))
                    })
                    .collect(),
            ));
            // wakes from outside the join: a task that takes permits for a
            // while, and one that closes every unsent oneshot late
            let (s, sm) = (sim.clone(), sem.clone());
            sim.spawn_detached(async move {
                for _ in 0..3 {
                    let _permit = sm.acquire().await;
                    s.sleep_ns(700).await;
                }
            });
            let (s, ch) = (sim.clone(), Rc::clone(&chans));
            sim.spawn_detached(async move {
                s.sleep_us(50).await;
                let senders: Vec<_> = ch.borrow_mut().iter_mut().map(|c| c.0.take()).collect();
                drop(senders);
            });
            let kids = (0..kids).map(|i| {
                let mut steps = programs[i % programs.len()].clone();
                if stagger {
                    let back = (kids - i) as u64;
                    steps.splice(0..0, [Step::Sleep(back), Step::Until(4_000)]);
                }
                let fut = child(
                    sim.clone(),
                    i,
                    steps,
                    sem.clone(),
                    Rc::clone(&chans),
                    Rc::clone(&l),
                    reference,
                );
                Box::pin(fut) as Pin<Box<dyn Future<Output = ()>>>
            });
            if reference {
                EveryChild {
                    kids: kids.map(Some).collect(),
                }
                .await;
            } else {
                join_inline(kids).await;
            }
            sim.now().as_ns()
        });
        let log = log.borrow().clone();
        (log, end)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The progress rule is exact: a join that polls only woken and due
        /// children logs the same `(time, child, event)` sequence as one
        /// that polls every child on every wake.
        #[test]
        fn tracked_wakes_match_polling_every_child(prog in program()) {
            let (got, got_end) = run(&prog, false);
            let (want, want_end) = run(&prog, true);
            prop_assert_eq!(got_end, want_end);
            prop_assert_eq!(got, want, "{:?}", prog);
        }
    }
}
