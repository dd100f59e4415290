//! Concurrency without tasks: [`join_inline`] runs a set of futures
//! inside the caller's own task.
//!
//! [`crate::executor::join_all`] spawns one task per future — a slab slot,
//! a boxed future, a `JoinState` and a ready-queue round trip each.
//! That is the right tool when the children must outlive or outpace their
//! parent. A handler that fans one request out to a handful of local
//! resources and waits for all of them needs none of it: its children
//! share its lifetime and its task.
//!
//! Nor does it need an allocation per fan-out. A join's slots live in one
//! block of raw memory, and a finished join files its block in its
//! simulation's store (`JoinBlocks`) for the next join of the same
//! layout, as a finished task's box carries the next task of its type.

use std::alloc::{self, Layout};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::ptr::{self, NonNull};
use std::task::{Context, Poll};

use crate::Sim;

/// Future returned by [`join_inline`].
pub struct JoinInline<I: Iterator<Item: Future>> {
    /// The children, until the first poll moves them into `slots`.
    futs: Option<I>,
    /// One slot per child, in one block for the join's lifetime: the
    /// child until it completes, and its output from then on.
    slots: Slots<I::Item>,
    /// Bit `i`: child `i` (below [`TAIL`]) is still running.
    running: u64,
    wakes: Wakes,
    #[cfg(test)]
    census: tests::Census,
}

/// The first child that shares a wake bit with the ones after it.
const TAIL: usize = 63;

/// A child of a join, then what it returned, and when it is next due.
struct Slot<F: Future> {
    /// The child until it completes, pinned where it stands.
    fut: Option<F>,
    /// What the child returned, until the join's caller reads it.
    out: Option<F::Output>,
    /// The earliest deadline of the `Sleep`s the child was waiting on
    /// after its last poll (`u64::MAX`: none).
    due: u64,
}

impl<F: Future> Slot<F> {
    /// Poll the child, if it still runs: whether it has completed. A
    /// child that completes is dropped where it stands, as `Pin::set`
    /// drops it, and its output kept beside it.
    #[allow(unsafe_code, reason = "the child re-pin below")]
    fn poll(&mut self, cx: &mut Context<'_>) -> bool {
        let Some(fut) = &mut self.fut else {
            return true;
        };
        // SAFETY: `fut` stands in the join's block, which neither moves
        // nor frees it until it is dropped in place: the block only moves
        // while `Slots::fill` builds it, before any child is polled, and
        // the child is only ever dropped where it stands (below, or by
        // `Slots`' drop).
        let fut = unsafe { Pin::new_unchecked(fut) };
        match fut.poll(cx) {
            Poll::Ready(v) => {
                self.fut = None;
                self.out = Some(v);
                true
            }
            Poll::Pending => false,
        }
    }
}

/// How a join learns which children may have progressed.
enum Wakes {
    /// The join holds its task's wake mask under `claim`: child `i` runs
    /// under a waker that sets bit `min(i, 63)`.
    Tracked {
        sim: Sim,
        task: u32,
        claim: u32,
        /// Wakes taken from the mask and not yet spent on a poll: those
        /// of children below one polled after them, for the next pass.
        woken: u64,
        /// No running child below [`TAIL`] is due before this instant,
        /// in ns (a lower bound: it may be stale low, never high).
        soon: u64,
    },
    /// Every child runs under the caller's waker and is polled on every
    /// poll of the join (and, before the first poll, nothing is decided).
    Every,
}

/// Await every future `futs` yields concurrently *inside the calling
/// task*; the outputs come back as an iterator in submission order.
///
/// Nothing is spawned: the children live in the caller's task and are
/// polled in index order, so same-tick ties between them never depend on
/// which one was woken. The first poll takes every child from `futs` and
/// runs each up to its first await point, in order — exactly what
/// spawning them back to back would do — and a join whose children all
/// complete on that first poll (an empty one, or one child that never
/// waits) completes without yielding. Dropping the join drops the
/// unfinished children, releasing whatever they hold.
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
/// The children are moved, on that first poll, into one block sized by
/// the iterator's stated length: a spare block of that layout from the
/// polling simulation's store, or a new one if there is none. The outputs
/// are read back out of it, and the block goes back to the store once
/// they have been dropped. A join first polled outside any simulation
/// allocates its block and frees it.
pub fn join_inline<I>(futs: I) -> JoinInline<I::IntoIter>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Future,
{
    JoinInline {
        futs: Some(futs.into_iter()),
        slots: Slots::empty(),
        running: 0,
        wakes: Wakes::Every,
        #[cfg(test)]
        census: tests::Census::default(),
    }
}

// The children are pinned by their block, not by the join: moving the
// join moves none of them (and the iterator is never pinned).
impl<I: Iterator<Item: Future>> Unpin for JoinInline<I> {}

impl<I: ExactSizeIterator<Item: Future>> JoinInline<I> {
    /// On the first poll: decide whether this join tracks its children's
    /// wakes, and move them into a block from the polling simulation's
    /// store. On a later poll, keep tracking only under the same task.
    /// Returns whether this is the first poll.
    fn settle_wakes(&mut self, cx: &Context<'_>) -> bool {
        if let Some(futs) = self.futs.take() {
            let home = Sim::of_waker(cx.waker());
            if let Some((sim, Some(task))) = &home {
                if let Some(claim) = sim.claim_wakes(*task) {
                    self.wakes = Wakes::Tracked {
                        sim: sim.clone(),
                        task: *task,
                        claim,
                        woken: 0,
                        soon: 0,
                    };
                }
            }
            self.slots.fill(futs, home.map(|(sim, _)| sim));
            self.running = (1 << self.slots.len.min(TAIL)) - 1;
            return true;
        }
        if let Wakes::Tracked {
            sim, task, claim, ..
        } = &self.wakes
        {
            if !sim.is_task_waker(cx.waker(), *task) {
                // moved to another task: its children's wakers point at
                // the old one, so from here on every poll polls them all
                sim.release_wakes(*task, *claim);
                self.wakes = Wakes::Every;
            }
        }
        false
    }
}

impl<I: ExactSizeIterator<Item: Future>> Future for JoinInline<I> {
    type Output = JoinOutputs<I::Item>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let first = this.settle_wakes(cx);
        let slots = this.slots.as_mut_slice();
        let (low, tail) = slots.split_at_mut(slots.len().min(TAIL));
        let mut tail_pending = false;
        match &mut this.wakes {
            Wakes::Every => {
                let mut left = this.running;
                while left != 0 {
                    let i = left.trailing_zeros() as usize;
                    left &= left - 1;
                    if low[i].poll(cx) {
                        this.running &= !(1 << i);
                    }
                }
                for slot in tail.iter_mut().filter(|slot| slot.fut.is_some()) {
                    tail_pending |= !slot.poll(cx);
                }
            }
            Wakes::Tracked {
                sim,
                task,
                woken,
                soon,
                ..
            } => {
                let (sim, task, now) = (&*sim, *task, sim.now().as_ns());
                #[cfg(test)]
                let census = &mut this.census;
                #[cfg(test)]
                use tests::Count;
                #[cfg(test)]
                census.count(Count::Pass);
                // the mask is read once here and once after each child
                // polled: a wake in between comes from that child
                *woken |= sim.take_woken(task);
                let poll = |slot: &mut Slot<I::Item>, i: usize, woken: &mut u64| {
                    let waker = sim.child_waker(task, i);
                    sim.take_sleep_due();
                    let done = slot.poll(&mut Context::from_waker(&waker));
                    slot.due = sim.take_sleep_due();
                    *woken |= sim.take_woken(task);
                    done
                };
                // a child can be due only from `soon` on; before that,
                // only the woken ones are looked at
                let scan = first || now >= *soon;
                #[cfg(test)]
                let scan = scan || census.waste;
                if scan {
                    *soon = u64::MAX;
                }
                // the running children above the last one looked at
                let mut left = this.running;
                loop {
                    let next = if scan { left } else { left & *woken };
                    if next == 0 {
                        break;
                    }
                    let i = next.trailing_zeros() as usize;
                    let bit = 1 << i;
                    left &= !((bit << 1) - 1);
                    let slot = &mut low[i];
                    #[cfg(test)]
                    census.count(Count::Examined);
                    if !(first || *woken & bit != 0 || slot.due <= now) {
                        *soon = (*soon).min(slot.due);
                        continue;
                    }
                    *woken &= !bit;
                    #[cfg(test)]
                    census.count(Count::Polled);
                    if poll(slot, i, woken) {
                        this.running &= !bit;
                    } else {
                        *soon = (*soon).min(slot.due);
                    }
                }
                // the children from 63 on share one bit: taken once, when
                // the first of them comes up, and any of them is polled
                // while it is set again
                let shared = 1 << TAIL;
                let tail_woken = *woken & shared != 0;
                if !tail.is_empty() {
                    *woken &= !shared;
                }
                for (i, slot) in (TAIL..).zip(tail.iter_mut()) {
                    if slot.fut.is_none() {
                        continue;
                    }
                    #[cfg(test)]
                    census.count(Count::Examined);
                    if !(first || tail_woken || *woken & shared != 0 || slot.due <= now) {
                        tail_pending = true;
                        continue;
                    }
                    #[cfg(test)]
                    census.count(Count::Polled);
                    tail_pending |= !poll(slot, i, woken);
                }
            }
        }
        if this.running != 0 || tail_pending {
            return Poll::Pending;
        }
        if let Wakes::Tracked {
            sim, task, claim, ..
        } = std::mem::replace(&mut this.wakes, Wakes::Every)
        {
            sim.release_wakes(task, claim);
        }
        // nothing is pending, so every child is done and no slot holds a
        // pinned child any more (a join polled again after completion
        // hands over no slot at all)
        let slots = std::mem::replace(&mut this.slots, Slots::empty());
        Poll::Ready(JoinOutputs { slots, next: 0 })
    }
}

impl<I: Iterator<Item: Future>> Drop for JoinInline<I> {
    fn drop(&mut self) {
        if let Wakes::Tracked {
            sim, task, claim, ..
        } = &self.wakes
        {
            sim.release_wakes(*task, *claim);
        }
    }
}

/// The outputs of a finished [`join_inline`], in submission order.
/// Dropping it drops the outputs not read and files the join's block for
/// the next join of its layout.
pub struct JoinOutputs<F: Future> {
    slots: Slots<F>,
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
        let slot = self.slots.as_mut_slice().get_mut(self.next)?;
        self.next += 1;
        match slot.out.take() {
            Some(v) => Some(v),
            None => panic!("join output read before it was done"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.slots.len - self.next;
        (left, Some(left))
    }
}

impl<F: Future> ExactSizeIterator for JoinOutputs<F> {}

// ------------------------------------------------------------ slot blocks

/// A join's slots: the first `len` of a block with room for `cap`, and
/// the simulation whose store the block goes back to (`None`: the
/// allocator's).
struct Slots<F: Future> {
    ptr: NonNull<Slot<F>>,
    len: usize,
    cap: usize,
    home: Option<Sim>,
}

impl<F: Future> Slots<F> {
    /// No slot, and no block.
    fn empty() -> Self {
        Slots {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
            home: None,
        }
    }

    /// The layout of a block of `cap` slots.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: `cap` is the length an iterator of futures states, or \
                  twice the children it has yielded; the `Vec::with_capacity` this \
                  replaces panicked on the same overflow"
    )]
    fn layout(cap: usize) -> Layout {
        Layout::array::<Slot<F>>(cap).expect("join slot capacity overflow")
    }

    /// Move every child `futs` yields into a slot, in order, in a block
    /// from `home`'s store sized by the length `futs` states; should it
    /// yield more, the slots move to a block twice the size. Called once,
    /// on an empty `Slots`, before any child is polled.
    #[allow(unsafe_code, reason = "the slot write below")]
    fn fill(&mut self, futs: impl ExactSizeIterator<Item = F>, home: Option<Sim>) {
        debug_assert!(self.cap == 0, "a join's slots are filled once");
        self.home = home;
        self.move_to(futs.len());
        // `for_each`, as `Vec::extend` does: a child is built straight
        // into its slot, not built and then copied there
        futs.for_each(|fut| {
            if self.len == self.cap {
                self.move_to((2 * self.cap).max(4));
            }
            let slot = Slot {
                fut: Some(fut),
                out: None,
                due: u64::MAX,
            };
            // SAFETY: `len < cap`, so slot `len` lies inside the block,
            // and it holds nothing yet: only the first `len` are
            // initialised, and `len` counts this one only once it is.
            unsafe { self.ptr.add(self.len).write(slot) };
            self.len += 1;
        });
    }

    /// Move the slots to a block of `cap` (at least `len`) slots, and the
    /// old block back to the store.
    #[allow(unsafe_code, reason = "the slot copy below")]
    // kept out of `fill`'s loop, which it would otherwise bloat
    #[inline(never)]
    fn move_to(&mut self, cap: usize) {
        debug_assert!(cap >= self.len);
        let block = match Self::layout(cap) {
            layout if layout.size() == 0 => NonNull::dangling(),
            layout => take_block(layout, self.home.as_ref()).cast(),
        };
        // SAFETY: the first `len` slots of the old block are initialised,
        // the new block has room for at least `len`, and the two are
        // distinct allocations (or `len` is 0). No child has been polled
        // yet (`fill` is the only caller), so moving them breaks no pin;
        // the old block's copies are never read or dropped again.
        unsafe { ptr::copy_nonoverlapping(self.ptr.as_ptr(), block.as_ptr(), self.len) };
        let old = std::mem::replace(&mut self.ptr, block);
        let old_cap = std::mem::replace(&mut self.cap, cap);
        put_block(Self::layout(old_cap), old.cast(), self.home.as_ref());
    }

    /// The slots that hold something.
    #[allow(unsafe_code, reason = "the slice below")]
    fn as_mut_slice(&mut self) -> &mut [Slot<F>] {
        // SAFETY: the first `len` slots of the block are initialised, and
        // `&mut self` borrows them exclusively (`ptr` is dangling and
        // aligned when `len` is 0).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<F: Future> Drop for Slots<F> {
    #[allow(unsafe_code, reason = "the in-place drop below")]
    fn drop(&mut self) {
        let slots = ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
        // SAFETY: the first `len` slots are initialised and this is the
        // one place they are dropped, each once: a running child where it
        // stands, as its pin requires, and an output not read.
        unsafe { ptr::drop_in_place(slots) };
        put_block(Self::layout(self.cap), self.ptr.cast(), self.home.as_ref());
    }
}

/// A block for `layout`, which is not zero-sized: a spare one from
/// `home`'s store, or a new one.
fn take_block(layout: Layout, home: Option<&Sim>) -> NonNull<u8> {
    match home {
        Some(sim) => sim.join_store().borrow_mut().take(layout),
        None => alloc_block(layout),
    }
}

/// Give back a block taken for `layout`, its contents already dropped or
/// moved out: to `home`'s store, or to the allocator (a zero-sized
/// layout has no block: its pointer dangles).
fn put_block(layout: Layout, block: NonNull<u8>, home: Option<&Sim>) {
    match home {
        _ if layout.size() == 0 => {}
        Some(sim) => sim.join_store().borrow_mut().put(layout, block),
        None => free_block(layout, block),
    }
}

/// A new block for `layout`, which is not zero-sized.
#[allow(unsafe_code, reason = "the allocation below")]
fn alloc_block(layout: Layout) -> NonNull<u8> {
    debug_assert!(layout.size() > 0);
    // SAFETY: `layout` is not zero-sized (every caller checks).
    let block = unsafe { alloc::alloc(layout) };
    NonNull::new(block).unwrap_or_else(|| alloc::handle_alloc_error(layout))
}

/// Free a block [`alloc_block`] made for `layout`.
#[allow(unsafe_code, reason = "the deallocation below")]
fn free_block(layout: Layout, block: NonNull<u8>) {
    // SAFETY: `block` came from `alloc_block(layout)` with this very
    // layout and is freed once: whoever hands it here gives it up.
    unsafe { alloc::dealloc(block.as_ptr(), layout) }
}

/// The spare blocks of one layout.
struct Spare {
    layout: Layout,
    blocks: Vec<NonNull<u8>>,
}

/// One simulation's spare join blocks, by layout, uncapped: a layout
/// never holds more than the most joins of it that were ever live at
/// once. [`Sim::block_on`]'s teardown frees them, as it drops the idle
/// task boxes, and so does the simulation's end; a later simulation on
/// the same thread starts with none.
#[derive(Default)]
pub(crate) struct JoinBlocks {
    /// Spare blocks under `(size, align)` of their layout.
    spare: BTreeMap<(usize, usize), Spare>,
    /// Blocks allocated over the store's lifetime.
    allocated: u64,
}

impl JoinBlocks {
    /// A spare block of exactly `layout`, or a new one.
    fn take(&mut self, layout: Layout) -> NonNull<u8> {
        let spare = self.spare.get_mut(&(layout.size(), layout.align()));
        match spare.and_then(|spare| spare.blocks.pop()) {
            Some(block) => block,
            None => {
                self.allocated += 1;
                alloc_block(layout)
            }
        }
    }

    /// File `block`, empty, for the next join of `layout`.
    fn put(&mut self, layout: Layout, block: NonNull<u8>) {
        let key = (layout.size(), layout.align());
        let spare = self.spare.entry(key).or_insert_with(|| Spare {
            layout,
            blocks: Vec::new(),
        });
        spare.blocks.push(block);
    }

    /// Blocks allocated over the store's lifetime.
    pub(crate) fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Free every spare block.
    pub(crate) fn clear(&mut self) {
        for Spare { layout, blocks } in std::mem::take(&mut self.spare).into_values() {
            for block in blocks {
                free_block(layout, block);
            }
        }
    }
}

impl Drop for JoinBlocks {
    fn drop(&mut self) {
        self.clear();
    }
}

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

    /// What a tracked join's passes cost, counted in test builds only.
    #[derive(Clone, Copy, Debug, Default)]
    pub(super) struct Census {
        /// Passes: polls of the join while it tracks its children's wakes.
        pub(super) passes: u64,
        /// Slots looked at: each one polled, or checked for a deadline.
        pub(super) examined: u64,
        /// Children polled.
        pub(super) polled: u64,
        /// The planted fault: every pass looks at every running child.
        pub(super) waste: bool,
    }

    /// One unit of a join's work.
    pub(super) enum Count {
        Pass,
        Examined,
        Polled,
    }

    impl Census {
        pub(super) fn count(&mut self, what: Count) {
            match what {
                Count::Pass => self.passes += 1,
                Count::Examined => self.examined += 1,
                Count::Polled => self.polled += 1,
            }
        }
    }

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

    /// Run a 48-child join whose children each wait on a oneshot that a
    /// driver task sends one or two at a time, 1 us apart, in scrambled
    /// order; `waste` plants the fault of looking at every running child
    /// on every pass. Returns the join's census.
    fn census_of_a_trickle(waste: bool) -> Census {
        let mut sim = Sim::new(1);
        sim.block_on(move |sim| async move {
            let slots = ReplySlots::<usize>::new();
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..48).map(|_| slots.channel()).unzip();
            let s = sim.clone();
            sim.spawn_detached(async move {
                let mut txs: Vec<_> = txs.into_iter().map(Some).collect();
                // 7 is prime to 48: every child, each once
                for (n, i) in (0..48).map(|k| k * 7 % 48).enumerate() {
                    if let Some(tx) = txs[i].take() {
                        tx.send(i);
                    }
                    if n % 3 != 1 {
                        s.sleep_us(1).await;
                    }
                }
            });
            let mut join = join_inline(rxs.into_iter().map(|rx| async move { rx.await.ok() }));
            join.census.waste = waste;
            let outs = std::future::poll_fn(|cx| Pin::new(&mut join).poll(cx)).await;
            let want: Vec<_> = (0..48).map(Some).collect();
            assert_eq!(outs.collect::<Vec<_>>(), want);
            join.census
        })
    }

    /// The work census: a pass looks only at the children it polls, so
    /// over a join's life the slots examined are at most the children
    /// polled plus one per pass, beyond the first poll's 48.
    #[test]
    fn a_pass_examines_only_the_children_it_polls() {
        let c = census_of_a_trickle(false);
        assert_eq!(
            c.polled,
            48 + 48,
            "each child: the first poll and its one wake"
        );
        assert!(c.passes > 30, "the wakes trickle in: {c:?}");
        assert!(c.examined <= c.polled + c.passes + 48, "{c:?}");
    }

    /// The census's planted negative: a join that looks at every running
    /// child on every pass polls the same children but fails the bound.
    #[test]
    fn examining_every_running_child_fails_the_census_bound() {
        let (lean, waste) = (census_of_a_trickle(false), census_of_a_trickle(true));
        assert_eq!((waste.polled, waste.passes), (lean.polled, lean.passes));
        assert!(
            waste.examined > waste.polled + waste.passes + 48,
            "{waste:?}"
        );
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

    // ------------------------------------------------------- the block store

    /// Spare blocks in `sim`'s store, all layouts together.
    fn spare(sim: &Sim) -> usize {
        let store = sim.join_store().borrow();
        store.spare.values().map(|spare| spare.blocks.len()).sum()
    }

    /// Poll `f` once under the calling task's waker.
    async fn poll_in_task<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
        std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut *f).poll(cx))).await
    }

    /// Counts the drops of whatever holds it.
    #[derive(Clone, Default)]
    struct Drops(Rc<Cell<u32>>);

    impl Drop for Drops {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// A child that holds `drops`, sleeps `us` (not at all for 0) and
    /// returns its own drop counter as its output.
    fn counted(
        sim: &Sim,
        us: u32,
        drops: &Drops,
        polls: &Rc<Cell<u32>>,
    ) -> impl Future<Output = Drops> {
        let (sim, out, polls) = (sim.clone(), drops.clone(), Rc::clone(polls));
        let guard = Drops(Rc::new(Cell::new(0)));
        async move {
            let _guard = guard;
            polls.set(polls.get() + 1);
            if us > 0 {
                sim.sleep_us(u64::from(us)).await;
            }
            out
        }
    }

    #[test]
    fn consecutive_joins_of_one_layout_reuse_one_block() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let blocks = sim.join_blocks();
            for round in 0..10u64 {
                let futs = (0..5u32).map(|i| sim.sleep_us(round + u64::from(i)));
                join_inline(futs).await;
                assert_eq!(sim.join_blocks() - blocks, 1, "round {round}");
                assert_eq!(spare(&sim), 1);
            }
            // nested: an inner join of another layout in every child, live
            // three at a time
            let kids = (0..3u32).map(|i| {
                let s = sim.clone();
                async move {
                    let naps = [s.sleep_us(u64::from(i)), s.sleep_us(2)];
                    join_inline(naps).await.count()
                }
            });
            assert_eq!(join_inline(kids).await.sum::<usize>(), 6);
            assert_eq!(sim.join_blocks() - blocks, 1 + 1 + 3, "outer + three inner");
        });
    }

    #[test]
    fn a_join_dropped_mid_flight_drops_each_child_once_and_files_its_block() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let (outs, polls) = (Drops::default(), Rc::new(Cell::new(0)));
            // children 0, 2 and 4 finish on the first poll, 1 and 3 sleep
            let futs = (0..5u32).map(|i| counted(&sim, i % 2 * 10, &outs, &polls));
            let mut join = join_inline(futs);
            let blocks = sim.join_blocks();
            assert!(poll_in_task(&mut join).await.is_pending());
            assert_eq!(sim.join_blocks() - blocks, 1);
            assert_eq!(spare(&sim), 0);
            drop(join);
            assert_eq!(polls.get(), 5, "each child polled once");
            assert_eq!(outs.0.get(), 3 + 2, "three outputs, two running children");
            assert_eq!(spare(&sim), 1, "the block is filed");
            // and carries the next join of its layout
            let futs = (0..5u32).map(|i| counted(&sim, i, &outs, &polls));
            assert_eq!(join_inline(futs).await.count(), 5);
            assert_eq!(sim.join_blocks() - blocks, 1);
        });
    }

    /// A child that counts its own drop apart from its output's: the
    /// count moves only when the join drops the child itself.
    struct Held<F> {
        fut: Pin<Box<F>>,
        _drop: Drops,
    }

    impl<F: Future> Future for Held<F> {
        type Output = F::Output;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
            self.fut.as_mut().poll(cx)
        }
    }

    /// Each child is dropped once, in the pass it completes in, before
    /// any output is read; each output is dropped once, whether it is
    /// read, half the outputs are or none is.
    #[test]
    fn outputs_dropped_half_read_drop_each_unread_output_once() {
        for read in [0, 2, 6] {
            let mut sim = Sim::new(1);
            sim.block_on(move |sim| async move {
                let (outs, kids, polls) = (Drops::default(), Drops::default(), Rc::default());
                // child `i` sleeps `i` us: child 0 completes on the first poll
                let futs = (0..6u32).map(|i| Held {
                    fut: Box::pin(counted(&sim, i, &outs, &polls)),
                    _drop: kids.clone(),
                });
                let mut join = join_inline(futs);
                assert!(poll_in_task(&mut join).await.is_pending());
                assert_eq!(kids.0.get(), 1, "child 0, at its completion");
                sim.sleep_us(3).await;
                assert_eq!(kids.0.get(), 1, "no pass yet");
                assert!(poll_in_task(&mut join).await.is_pending());
                assert_eq!(
                    kids.0.get(),
                    4,
                    "children 1 to 3, in the pass they finish in"
                );
                let mut done = join.await;
                assert_eq!(kids.0.get(), 6, "every child, before any output is read");
                assert_eq!(outs.0.get(), 0, "no output dropped yet");
                let got: Vec<Drops> = done.by_ref().take(read).collect();
                assert_eq!(done.len(), 6 - read);
                drop(done);
                assert_eq!(outs.0.get(), 6 - read as u32, "each unread output, once");
                drop(got);
                assert_eq!((kids.0.get(), outs.0.get()), (6, 6), "read {read}");
                assert_eq!(spare(&sim), 1);
            });
        }
    }

    /// Nothing to hold, nothing allocated; and a join of zero-sized
    /// children still holds each one's state and deadline, so it takes
    /// one block like any other and reuses it.
    #[test]
    fn empty_and_zero_sized_joins() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let blocks = sim.join_blocks();
            for _ in 0..3 {
                let none = std::iter::empty::<std::future::Ready<()>>();
                assert_eq!(join_inline(none).await.len(), 0);
            }
            assert_eq!((sim.join_blocks() - blocks, spare(&sim)), (0, 0), "empty");
            let zst = || std::future::poll_fn(|_| Poll::Ready(()));
            assert_eq!(std::mem::size_of_val(&zst()), 0);
            for _ in 0..3 {
                assert_eq!(join_inline((0..4).map(|_| zst())).await.len(), 4);
            }
            assert_eq!(
                (sim.join_blocks() - blocks, spare(&sim)),
                (1, 1),
                "zero-sized"
            );
        });
    }

    /// An iterator of `inner` that states `claim` as its length.
    struct Misstated<I> {
        inner: I,
        claim: usize,
    }

    impl<I: Iterator> Iterator for Misstated<I> {
        type Item = I::Item;
        fn next(&mut self) -> Option<I::Item> {
            self.inner.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.claim, Some(self.claim))
        }
    }

    impl<I: Iterator> ExactSizeIterator for Misstated<I> {}

    /// A misstated length sizes the first block wrongly and nothing else:
    /// every child the iterator yields is polled, returned and dropped
    /// exactly once, under a simulation and outside one.
    #[test]
    fn a_misstated_length_loses_no_child() {
        for claim in [0, 1, 4, 9, 10, 11, 64] {
            let mut sim = Sim::new(1);
            sim.block_on(move |sim| async move {
                let (outs, polls) = (Drops::default(), Rc::new(Cell::new(0)));
                let futs = (0..10u32).map(|i| counted(&sim, i % 3, &outs, &polls));
                let got = join_inline(Misstated { inner: futs, claim }).await;
                assert_eq!(got.len(), 10, "claim {claim}");
                drop(got);
                assert_eq!((polls.get(), outs.0.get()), (10, 10), "claim {claim}");
                // mid-flight
                let futs = (0..10u32).map(|i| counted(&sim, i % 3, &outs, &polls));
                let mut join = join_inline(Misstated { inner: futs, claim });
                assert!(poll_in_task(&mut join).await.is_pending());
                drop(join);
                assert_eq!((polls.get(), outs.0.get()), (20, 20), "claim {claim}");
            });
            // outside any simulation
            let (outs, polls) = (Drops::default(), Rc::new(Cell::new(0)));
            let futs = (0..10).map(|_| counted(&sim, 0, &outs, &polls));
            let Poll::Ready(got) = poll_once(&mut join_inline(Misstated { inner: futs, claim }))
            else {
                panic!("no child waits");
            };
            drop(got);
            assert_eq!((polls.get(), outs.0.get()), (10, 10), "claim {claim}");
        }
    }

    /// The store belongs to its simulation: teardown frees every spare
    /// block, those of joins torn down with their tasks included.
    #[test]
    fn a_sims_blocks_are_freed_at_its_teardown() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            // a task blocked forever inside a join, torn down below
            let s = sim.clone();
            sim.spawn_detached(async move {
                join_inline([s.sleep_us(1), s.sleep_ms(1_000_000)]).await;
            });
            for n in 1..4u32 {
                join_inline((0..n).map(|i| sim.sleep_us(u64::from(i)))).await;
            }
            assert_eq!(spare(&sim), 3, "one block per layout");
        });
        assert_eq!(sim.join_blocks(), 4);
        assert_eq!(spare(&sim), 0, "freed at teardown");
        // a second run starts from an empty store and fills it again
        sim.block_on(|sim| async move { join_inline([sim.sleep_us(1)]).await.count() });
        assert_eq!((sim.join_blocks(), spare(&sim)), (5, 0));
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

    /// The rule that the mask is read again after each polled child,
    /// pinned: at one instant child 5 wakes child 7 (after it: polled in
    /// the same pass), child 2 (before it: the next pass) and itself (a
    /// yield: the next pass), as a join that polls every child does.
    #[test]
    fn a_wake_from_a_sibling_is_seen_in_the_pass_it_belongs_to() {
        use Step::*;
        let mut programs = vec![vec![Sleep(1_000)]; 8];
        programs[2] = vec![Recv(0)];
        programs[7] = vec![Recv(1)];
        programs[5] = vec![Sleep(1_000), Send(0), Send(1), Yield];
        let prog = (programs, 8, false, 1, 2);
        let (got, got_end) = run(&prog, false);
        let (want, want_end) = run(&prog, true);
        assert_eq!((got_end, &got), (want_end, &want));
        // at 1 us: child 7's receive comes before child 2's, and child
        // 5's yield returns after both
        let at_1us: Vec<_> = got
            .iter()
            .filter(|&&(t, _, ev)| t == 1_000 && ev % 16 == 2)
            .map(|&(_, i, _)| i)
            .collect();
        assert_eq!(at_1us, [7, 2]);
        let order = |i: usize, ev: u32| got.iter().position(|&e| e == (1_000, i, ev));
        assert!(order(2, 0) < order(5, 48), "{got:?}");
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
