//! The executor's timer store: one binary min-heap of queued entries,
//! ordered by `(deadline, registration sequence)`, beside a slab of the
//! wakers they will fire.
//!
//! A queued entry is a `Copy` `(at, seq, slot)`; the [`Waker`] it will fire
//! sits in the slab at `slot`, stamped with the entry's `seq`. Cancelling
//! is O(1): the canceller keeps the `(seq, slot)` key its registration
//! returned, and [`Timers::cancel`] takes the waker out of the slab and
//! frees the slot if the stamp still matches — so a timer that already
//! fired, or a slot that has since been let to a later timer, is left
//! alone. The queued entry stays in the heap and is *dead*: its slot is
//! empty or carries another stamp. [`Timers::pop_min`] discards dead
//! entries as it meets them and returns only a live one, so a dead
//! deadline never becomes an event. Dead entries are counted, and the heap
//! is swept as soon as they outnumber the live ones, so its length follows
//! the timers *in flight* (at most twice them), not the timers ever
//! registered.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::task::Waker;

/// A queued timer, ordered by `(at, seq)` so ties break by registration
/// order and the run is deterministic (`seq` is unique, so the derived
/// order never reaches `slot`). The waker is in `Timers::wakers[slot]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEnt {
    at: u64,
    seq: u64,
    slot: u32,
}

/// What [`Timers::push`] returns and [`Timers::cancel`] takes: the waker's
/// slab slot, and the `seq` that proves the slot is still let to this
/// timer.
#[derive(Clone, Copy)]
pub(crate) struct TimerKey {
    seq: u64,
    slot: u32,
}

/// One slab slot: the waker of the timer registered as `seq`, until it
/// fires or is cancelled (`None` after either, and the slot is free).
struct WakerSlot {
    seq: u64,
    waker: Option<Waker>,
}

impl WakerSlot {
    /// Whether the timer registered as `seq` is still waiting here.
    fn holds(&self, seq: u64) -> bool {
        self.seq == seq && self.waker.is_some()
    }
}

/// The timer store.
///
/// Invariants:
/// * an entry is live iff `wakers[slot]` holds a waker stamped with its
///   `seq`. A live entry owns its slot; a dead one owns nothing, and is
///   dropped by whichever of pop or sweep meets it first;
/// * `dead` counts the dead entries in `heap`, exactly, and never exceeds
///   the live ones once a cancel or a pop has returned.
#[derive(Default)]
pub(crate) struct Timers {
    /// Every queued entry, dead ones included.
    heap: BinaryHeap<Reverse<TimerEnt>>,
    /// Dead entries in `heap`.
    dead: usize,
    /// Waker slab: one slot per live timer, reused through `free`.
    wakers: Vec<WakerSlot>,
    free: Vec<u32>,
    /// The next registration sequence number. Never reset, so a key from
    /// before a [`Timers::clear`] cannot match a later tenant of its slot.
    next_seq: u64,
}

impl Timers {
    /// Queued entries, dead ones included.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Queue `waker` to fire at `at`, after every timer already queued for
    /// the same instant.
    pub(crate) fn push(&mut self, at: u64, waker: Waker) -> TimerKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tenant = WakerSlot {
            seq,
            waker: Some(waker),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.wakers[slot as usize].waker.is_none());
                self.wakers[slot as usize] = tenant;
                slot
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: more than u32::MAX timers pending at once exceeds \
                              any simulated cluster by orders of magnitude; treat as OOM"
                )]
                let slot = u32::try_from(self.wakers.len()).expect("timer slab overflow");
                self.wakers.push(tenant);
                slot
            }
        };
        self.heap.push(Reverse(TimerEnt { at, seq, slot }));
        TimerKey { seq, slot }
    }

    /// Take the waker of the timer `(seq, slot)` and free its slot; `None`
    /// if that timer has fired or been cancelled already (the slot is
    /// empty, let to a later `seq`, or gone with a [`Timers::clear`]).
    fn take_waker(&mut self, seq: u64, slot: u32) -> Option<Waker> {
        let tenant = self.wakers.get_mut(slot as usize)?;
        if !tenant.holds(seq) {
            return None;
        }
        self.free.push(slot);
        tenant.waker.take()
    }

    /// Cancel a registered timer: its waker is dropped and its slot freed
    /// now, and its queued entry is dead from here on. A no-op for a key
    /// whose timer already fired.
    pub(crate) fn cancel(&mut self, key: TimerKey) {
        if self.take_waker(key.seq, key.slot).is_some() {
            self.dead += 1;
            self.sweep_if_mostly_dead();
        }
    }

    /// Remove the earliest `(at, seq)` *live* timer and return its deadline
    /// and waker. Dead entries ordered before it are dropped on the way and
    /// returned to nobody, so the caller only ever moves its clock to a
    /// timer somebody is still waiting for.
    pub(crate) fn pop_min(&mut self) -> Option<(u64, Waker)> {
        while let Some(Reverse(ent)) = self.heap.pop() {
            if let Some(waker) = self.take_waker(ent.seq, ent.slot) {
                self.sweep_if_mostly_dead();
                return Some((ent.at, waker));
            }
            self.dead -= 1;
        }
        None
    }

    /// Drop every dead entry once they outnumber the live ones: each sweep
    /// is O(n) and paid for by the n/2 cancels since the last one, and the
    /// heap never holds more than twice the timers in flight.
    fn sweep_if_mostly_dead(&mut self) {
        if self.dead * 2 > self.heap.len() {
            let wakers = &self.wakers;
            self.heap
                .retain(|Reverse(e)| wakers[e.slot as usize].holds(e.seq));
            self.dead = 0;
        }
    }

    /// Drop every timer, live or dead, and its waker.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
        self.dead = 0;
        self.wakers.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A bare store with the clock `Sim` keeps beside it: registers no-op
    /// wakers and moves `now` to what it pops.
    struct Rig {
        timers: Timers,
        now: u64,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                timers: Timers::default(),
                now: 0,
            }
        }

        fn push(&mut self, at: u64) -> TimerKey {
            self.timers.push(at, Waker::noop().clone())
        }

        /// Pop the next live timer and return its deadline.
        fn pop(&mut self) -> Option<u64> {
            let (at, _waker) = self.timers.pop_min()?;
            assert!(self.now <= at, "time went backwards");
            self.now = at;
            Some(at)
        }

        /// Slab slots let to a waiting timer.
        fn slots_let(&self) -> usize {
            self.timers.wakers.len() - self.timers.free.len()
        }
    }

    #[test]
    fn a_cancel_is_counted_and_skipped() {
        let mut rig = Rig::new();
        let a = rig.push(2_000_000);
        rig.push(3_000_000);
        rig.push(4_000_000);
        rig.push(5_000_000);
        rig.timers.cancel(a);
        assert_eq!(rig.slots_let(), 3, "the slot is free at once");
        assert_eq!((rig.timers.len(), rig.timers.dead), (4, 1));
        assert_eq!(rig.pop(), Some(3_000_000), "the clock skips the dead one");
        assert_eq!((rig.timers.len(), rig.timers.dead), (2, 0));
        assert_eq!(rig.pop(), Some(4_000_000));
        assert_eq!(rig.pop(), Some(5_000_000));
        assert_eq!(rig.pop(), None);
        assert_eq!(rig.slots_let(), 0);
    }

    #[test]
    fn cancel_after_the_timer_fired_is_a_noop() {
        let mut rig = Rig::new();
        let near = rig.push(1_000);
        let far = rig.push(8_000_000);
        assert_eq!(rig.pop(), Some(1_000));
        assert_eq!(rig.pop(), Some(8_000_000));
        for key in [near, far, near] {
            rig.timers.cancel(key);
        }
        assert_eq!(rig.timers.free.len(), 2, "no slot is freed twice");
        assert_eq!(rig.timers.dead, 0);
    }

    #[test]
    fn stale_key_does_not_cancel_the_slots_next_tenant() {
        let mut rig = Rig::new();
        let old = rig.push(1_000);
        assert_eq!(rig.pop(), Some(1_000));
        let new = rig.push(2_000);
        assert_eq!(old.slot, new.slot, "the slot was reused");
        rig.timers.cancel(old);
        assert_eq!(rig.slots_let(), 1);
        assert_eq!(rig.pop(), Some(2_000), "the new tenant still fires");

        // the same through a cancel: the dead entry of the slot's first
        // tenant must neither fire nor take the second tenant's waker
        let first = rig.push(10_000);
        rig.timers.cancel(first);
        let second = rig.push(20_000);
        assert_eq!(first.slot, second.slot);
        rig.timers.cancel(first);
        assert_eq!(rig.pop(), Some(20_000));
        assert_eq!(rig.pop(), None);
    }

    /// One step against the store.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push a timer this many ns from now.
        Push(u64),
        /// Cancel the key handed out by push number `n % pushes`: live,
        /// fired and already cancelled keys alike.
        Cancel(usize),
        Pop,
    }

    /// Ties, near and far deadlines.
    fn after() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, 0u64..5_000, 4_000_000u64..20_000_000]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            after().prop_map(Op::Push),
            after().prop_map(Op::Push),
            (0usize..64).prop_map(Op::Cancel),
            Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any push / cancel / pop sequence pops exactly what an ordered
        /// set of the live `(at, seq)` pairs pops, and the store never
        /// holds more than twice its live timers (plus one).
        #[test]
        fn pops_match_an_ordered_set_of_live_timers(
            ops in prop::collection::vec(op(), 0..200),
        ) {
            let mut rig = Rig::new();
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            // every key handed out, in push order, so at index `seq`
            let mut keys: Vec<(u64, TimerKey)> = Vec::new();
            for op in ops.into_iter().chain(std::iter::repeat_n(Op::Pop, 201)) {
                match op {
                    Op::Push(after) => {
                        let at = rig.now + after;
                        let key = rig.push(at);
                        model.insert((at, key.seq));
                        keys.push((at, key));
                    }
                    Op::Cancel(n) if !keys.is_empty() => {
                        let (at, key) = keys[n % keys.len()];
                        rig.timers.cancel(key);
                        model.remove(&(at, key.seq));
                    }
                    Op::Cancel(_) | Op::Pop => {
                        let want = model.pop_first().map(|(at, _)| at);
                        prop_assert_eq!(rig.pop(), want);
                    }
                }
                // the model's timers, and only they, still hold their slots
                let live = model.len();
                prop_assert_eq!(rig.slots_let(), live);
                for &(_, seq) in &model {
                    let (_, key) = keys[seq as usize];
                    prop_assert!(rig.timers.wakers[key.slot as usize].holds(seq));
                }
                let held = rig.timers.len();
                prop_assert!(held <= 2 * live + 1, "{held} held, {live} live");
            }
            prop_assert_eq!(rig.timers.len(), 0);
        }
    }
}
