//! Concurrency without tasks: [`join_inline`] runs a set of futures
//! inside the caller's own task.
//!
//! [`crate::executor::join_all`] spawns one task per future — a slab slot,
//! a boxed future, a `JoinState` and a ready-queue round trip each.
//! That is the right tool when the children must outlive or outpace their
//! parent. A handler that fans one request out to a handful of local
//! resources and waits for all of them needs none of it: its children
//! share its lifetime and its waker.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Future returned by [`join_inline`].
pub struct JoinInline<F: Future> {
    /// One slot per child, pinned in one allocation for the join's
    /// lifetime: the child until it completes, then its output.
    slots: Pin<Box<[Slot<F>]>>,
}

/// A child of a join, then what it returned.
enum Slot<F: Future> {
    Running(F),
    Done(F::Output),
    /// The output went to the join's caller.
    Taken,
}

/// Await every future `futs` yields concurrently *inside the calling
/// task*, collecting outputs in submission order.
///
/// Nothing is spawned: the children share the caller's waker, and every
/// wake of the caller polls the unfinished children in index order, so
/// same-tick ties between them never depend on which one was woken. The
/// first poll runs every child up to its first await point, in order —
/// exactly what spawning them back to back would do — and a join whose
/// children all complete on that first poll (an empty one, or one child
/// that never waits) completes without yielding. Dropping the join drops
/// the unfinished children, releasing whatever they hold.
///
/// A join allocates twice, each at its exact size: the slots, built
/// straight from `futs`, and the output vector.
pub fn join_inline<I>(futs: I) -> JoinInline<I::Item>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Future,
{
    let futs = futs.into_iter();
    let mut slots = Vec::with_capacity(futs.len());
    slots.extend(futs.map(Slot::Running));
    JoinInline {
        slots: Box::into_pin(slots.into_boxed_slice()),
    }
}

// The children are pinned by their box, not by the join: moving the join
// moves none of them.
impl<F: Future> Unpin for JoinInline<F> {}

impl<F: Future> Future for JoinInline<F> {
    type Output = Vec<F::Output>;

    #[allow(unsafe_code, reason = "the slot projection below")]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: these `&mut Slot<F>` never move a running child: one is
        // re-pinned where it stands (below), and a slot is only ever
        // overwritten in place, as `Pin::set` does — the child dropped
        // where it stands — or has a finished child's unpinned output moved
        // out of it.
        let slots = unsafe { self.get_mut().slots.as_mut().get_unchecked_mut() };
        let mut pending = false;
        for slot in slots.iter_mut() {
            let Slot::Running(fut) = slot else { continue };
            // SAFETY: `fut` is inside the pinned box, which never moves it
            // (see above).
            match unsafe { Pin::new_unchecked(fut) }.poll(cx) {
                Poll::Ready(v) => *slot = Slot::Done(v),
                Poll::Pending => pending = true,
            }
        }
        if pending {
            return Poll::Pending;
        }
        #[expect(
            clippy::panic,
            reason = "INVARIANT: nothing is pending, so every slot is done, and a join \
                      is not polled again once it has returned its outputs"
        )]
        let take = |slot: &mut Slot<F>| match std::mem::replace(slot, Slot::Taken) {
            Slot::Done(v) => v,
            _ => panic!("join polled after completion"),
        };
        Poll::Ready(slots.iter_mut().map(take).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Semaphore;
    use crate::time::SimTime;
    use crate::Sim;
    use std::cell::RefCell;
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
            join_inline(futs).await
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
        let mut empty = join_inline(Vec::<std::future::Ready<u8>>::new());
        assert_eq!(poll_once(&mut empty), Poll::Ready(vec![]));
        let mut one = join_inline(vec![std::future::ready(5u8)]);
        assert_eq!(poll_once(&mut one), Poll::Ready(vec![5]));

        // a single waiting child: the join is pending exactly while it is
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let mut one = join_inline(vec![sim.sleep_us(1)]);
            assert!(poll_once(&mut one).is_pending());
            sim.sleep_us(1).await;
            assert_eq!(poll_once(&mut one), Poll::Ready(vec![()]));
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
}
