//! The executor's timer store: a monotone radix heap of queued entries
//! (Ahuja, Mehlhorn, Orlin and Tarjan, 1990), popped in `(deadline,
//! registration sequence)` order, beside a slab of the wakers they will
//! fire.
//!
//! The store keeps `last`, the deadline of the last timer it fired, and
//! files each entry by the highest bit in which its deadline differs from
//! `last`: bucket 0 holds the entries due at `last` itself, bucket `b ≥ 1`
//! those whose highest differing bit is `b − 1`. Every entry of a lower
//! bucket is due before every entry of a higher one, so the earliest
//! entries are in the first non-empty bucket, which one `trailing_zeros`
//! of an occupancy word finds. Bucket 0 is served first, FIFO from a head
//! index. When it runs dry, the first non-empty bucket is opened: `last`
//! moves to its earliest deadline and its entries are filed again, in
//! their stored order, into lower buckets. An entry only ever moves down,
//! so each pays at most one re-filing per bit of its distance from the
//! clock.
//!
//! This is sound because the store is monotone: no timer is registered
//! before `last`. The executor registers a timer only for a deadline later
//! than its clock, and moves its clock only to a deadline popped here.
//! The order is exactly `(at, seq)`: entries due at the same instant are
//! always filed in the same bucket, move together and in order, and a
//! later push, with a later `seq`, lands behind them.
//!
//! A queued entry is a `Copy` `(at, seq, slot)`; the [`Waker`] it will fire
//! sits in the slab at `slot`, stamped with the entry's `seq`. Cancelling
//! is O(1): the canceller keeps the `(seq, slot)` key its registration
//! returned, and [`Timers::cancel`] takes the waker out of the slab and
//! frees the slot if the stamp still matches — so a timer that already
//! fired, or a slot that has since been let to a later timer, is left
//! alone. The queued entry stays where it was filed and is *dead*: its
//! slot is empty or carries another stamp. [`Timers::pop_min`] discards
//! dead entries as it meets them and returns only a live one, so a dead
//! deadline never becomes an event. Dead entries are counted, and the
//! store is swept as soon as they outnumber the live ones, so its length
//! follows the timers *in flight* (at most twice them), not the timers
//! ever registered.

use std::task::Waker;

/// Bucket 0 for the deadline `last` itself, one bucket per bit for the
/// rest.
const BUCKETS: usize = u64::BITS as usize + 1;

/// Buckets made with room up front: those of deadlines less than 2^33 ns
/// (8.6 s) after `last`. One run (seed 1) of each of the seven `benchmark/`
/// workloads files entries in buckets 0–31 and 33 and never in 32 or
/// 34–64; a bucket past these allocates on its first entry.
const PRESIZED: usize = 34;

/// Room each presized bucket is made with, so a bucket first used mid-run
/// (the clock crossed into a new bit) allocates nothing unless it holds
/// more entries than this at once; its capacity is kept from then on. In
/// the same runs each of buckets 6–31 peaks at 48 to 2 017 entries on its
/// busiest workload and outgrows any such room while the cluster sets up;
/// the quiet ones (1–5 and 33) peak at 1 to 48, and at 16 or fewer on five
/// of the seven workloads. Without it, a bucket first used among
/// `tests/tests/update_census.rs`'s measured updates allocates there (10
/// allocations against 9).
const BUCKET_ROOM: usize = 16;

/// A queued timer. The waker is in `Timers::wakers[slot]`.
#[derive(Clone, Copy)]
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

/// The bucket of a deadline `at ≥ last`: 0 if it is `last`, else one more
/// than the highest bit in which the two differ.
fn bucket(at: u64, last: u64) -> usize {
    (u64::BITS - (at ^ last).leading_zeros()) as usize
}

/// The timer store.
///
/// Invariants:
/// * every queued deadline is at or after `last`, and an entry in
///   `buckets[b]` is due at `last` if `b` is 0, else differs from `last`
///   highest at bit `b − 1`;
/// * entries due at the same instant sit in one bucket in `seq` order;
/// * bit `b − 1` of `occupied` is set iff `buckets[b]` (`b ≥ 1`) is
///   non-empty. Bucket 0 has no bit: it is non-empty iff `head` is short
///   of its length, so no stale bit can send a pop to an empty bucket;
/// * an entry is live iff `wakers[slot]` holds a waker stamped with its
///   `seq`. A live entry owns its slot; a dead one owns nothing, and is
///   dropped by whichever of pop or sweep meets it first;
/// * `dead` counts the dead entries queued, exactly, and never exceeds
///   the live ones once a cancel or a pop has returned.
pub(crate) struct Timers {
    /// Queued entries by bucket; `buckets[0][..head]` are popped already.
    buckets: [Vec<TimerEnt>; BUCKETS],
    head: usize,
    occupied: u64,
    /// The deadline of the last timer fired; 0 before the first.
    last: u64,
    /// Queued entries, dead ones included.
    len: usize,
    /// Dead entries queued.
    dead: usize,
    /// Waker slab: one slot per live timer, reused through `free`.
    wakers: Vec<WakerSlot>,
    free: Vec<u32>,
    /// The next registration sequence number. Never reset, so a key from
    /// before a [`Timers::clear`] cannot match a later tenant of its slot.
    next_seq: u64,
    /// Buckets opened, entries filed again when their bucket was opened,
    /// and timers fired: the store's work per event, which the tests bound.
    #[cfg(test)]
    opened: u64,
    #[cfg(test)]
    refiled: u64,
    #[cfg(test)]
    fired: u64,
    /// A planted fault the tests' negatives switch on; `None` otherwise.
    #[cfg(test)]
    waste: Option<tests::Waste>,
}

impl Default for Timers {
    fn default() -> Self {
        Timers {
            buckets: std::array::from_fn(|b| {
                Vec::with_capacity(if b < PRESIZED { BUCKET_ROOM } else { 0 })
            }),
            head: 0,
            occupied: 0,
            last: 0,
            len: 0,
            dead: 0,
            wakers: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            #[cfg(test)]
            opened: 0,
            #[cfg(test)]
            refiled: 0,
            #[cfg(test)]
            fired: 0,
            #[cfg(test)]
            waste: None,
        }
    }
}

impl Timers {
    /// Queued entries, dead ones included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queue `waker` to fire at `at`, after every timer already queued for
    /// the same instant. `at` must not be before the last timer fired.
    pub(crate) fn push(&mut self, at: u64, waker: Waker) -> TimerKey {
        debug_assert!(
            at >= self.last,
            "timer at {at} registered before the last one fired, at {}",
            self.last
        );
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
        self.file(TimerEnt { at, seq, slot });
        self.len += 1;
        TimerKey { seq, slot }
    }

    /// Append `ent` to its bucket relative to `last`.
    fn file(&mut self, ent: TimerEnt) {
        let b = bucket(ent.at, self.last);
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
        self.buckets[b].push(ent);
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
        let fired_last = self.last;
        loop {
            while let Some(&ent) = self.buckets[0].get(self.head) {
                self.head += 1;
                self.len -= 1;
                if let Some(waker) = self.take_waker(ent.seq, ent.slot) {
                    #[cfg(test)]
                    {
                        self.fired += 1;
                    }
                    self.sweep_if_mostly_dead();
                    return Some((ent.at, waker));
                }
                self.dead -= 1;
            }
            self.buckets[0].clear();
            self.head = 0;
            if self.occupied == 0 {
                // nothing is queued, so no floor is needed: keep the last
                // fired deadline rather than one a dead entry left
                self.last = fired_last;
                return None;
            }
            #[cfg(test)]
            self.plant_waste();
            self.open_first_bucket();
        }
    }

    /// Move `last` to the earliest deadline of the first non-empty bucket
    /// and file that bucket's entries again, in their stored order: each
    /// lands in a lower bucket, those due at the new `last` in bucket 0.
    /// Bucket 0 is empty, so it receives them in `(at, seq)` order. The
    /// drained `Vec` goes back to its bucket, keeping its capacity.
    fn open_first_bucket(&mut self) {
        let b = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= !(1 << (b - 1));
        let mut opened = std::mem::take(&mut self.buckets[b]);
        debug_assert!(!opened.is_empty(), "bucket {b} marked but empty");
        if let Some(min) = opened.iter().map(|e| e.at).min() {
            self.last = min;
        }
        #[cfg(test)]
        {
            self.opened += 1;
            self.refiled += opened.len() as u64;
        }
        for ent in opened.drain(..) {
            self.file(ent);
        }
        self.buckets[b] = opened;
    }

    /// Drop every dead entry once they outnumber the live ones: each sweep
    /// is O(n) and paid for by the n/2 cancels since the last one, and the
    /// store never holds more than twice the timers in flight.
    fn sweep_if_mostly_dead(&mut self) {
        if self.dead * 2 > self.len {
            self.buckets[0].drain(..self.head);
            self.head = 0;
            let wakers = &self.wakers;
            for (b, ents) in self.buckets.iter_mut().enumerate() {
                ents.retain(|e| wakers[e.slot as usize].holds(e.seq));
                if b > 0 && ents.is_empty() {
                    self.occupied &= !(1 << (b - 1));
                }
            }
            self.len -= self.dead;
            self.dead = 0;
        }
    }

    /// Drop every timer, live or dead, and its waker.
    pub(crate) fn clear(&mut self) {
        for ents in &mut self.buckets {
            ents.clear();
        }
        self.head = 0;
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
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
            self.pop_seq().map(|(at, _)| at)
        }

        /// Pop the next live timer and return its deadline and `seq`: the
        /// stamp left in the slot it just freed.
        fn pop_seq(&mut self) -> Option<(u64, u64)> {
            let (at, _waker) = self.timers.pop_min()?;
            assert!(self.now <= at, "time went backwards");
            self.now = at;
            let slot = *self.timers.free.last().expect("the fired slot is free");
            Some((at, self.timers.wakers[slot as usize].seq))
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

    #[test]
    fn equal_deadlines_either_side_of_a_redistribution_fire_in_seq_order() {
        let mut rig = Rig::new();
        let due = (1 << 20) + 7;
        // one tie queued before each step the clock takes towards `due`:
        // each near pop opens a bucket and files the earlier ties again
        let mut ties = vec![rig.push(due).seq];
        for near in [600, 1 << 19, (1 << 20) - 1, 1 << 20, (1 << 20) + 6] {
            rig.push(near);
            ties.push(rig.push(due).seq);
            assert_eq!(rig.pop(), Some(near));
        }
        assert!(rig.timers.refiled > 0, "the ties moved");
        rig.push(due + 1);
        for seq in ties {
            assert_eq!(rig.pop_seq(), Some((due, seq)));
        }
        assert_eq!(rig.pop(), Some(due + 1));
        assert_eq!(rig.pop(), None);
    }

    #[test]
    fn deadlines_in_the_top_bucket_pop_in_order() {
        let mut rig = Rig::new();
        let top = 1u64 << 63;
        let a = rig.push(u64::MAX).seq;
        let b = rig.push(top + 5).seq;
        let c = rig.push(top).seq;
        let d = rig.push(u64::MAX).seq;
        rig.push(3);
        assert_eq!(rig.timers.occupied, 1 << 63 | 1 << 1, "buckets 64 and 2");
        assert_eq!(rig.pop(), Some(3));
        assert_eq!(rig.pop_seq(), Some((top, c)));
        let e = rig.push(top + 5).seq;
        assert_eq!(rig.pop_seq(), Some((top + 5, b)));
        assert_eq!(rig.pop_seq(), Some((top + 5, e)));
        assert_eq!(rig.pop_seq(), Some((u64::MAX, a)));
        assert_eq!(rig.pop_seq(), Some((u64::MAX, d)));
        assert_eq!(rig.pop(), None);
    }

    #[test]
    fn a_sweep_of_a_partly_popped_bucket_0_keeps_its_order() {
        let mut rig = Rig::new();
        let ties: Vec<TimerKey> = (0..4).map(|_| rig.push(1_000)).collect();
        let far: Vec<TimerKey> = (0..3).map(|_| rig.push(5_000)).collect();
        assert_eq!(rig.pop_seq(), Some((1_000, ties[0].seq)));
        assert_eq!(rig.timers.head, 1, "bucket 0 is partly popped");
        for key in far {
            rig.timers.cancel(key);
        }
        assert_eq!((rig.timers.len(), rig.timers.dead), (6, 3));
        rig.timers.cancel(ties[2]);
        assert_eq!((rig.timers.len(), rig.timers.dead), (2, 0), "swept");
        assert_eq!((rig.timers.head, rig.timers.occupied), (0, 0));
        assert_eq!(rig.pop_seq(), Some((1_000, ties[1].seq)));
        let late = rig.push(1_000);
        assert_eq!(rig.pop_seq(), Some((1_000, ties[3].seq)));
        assert_eq!(rig.pop_seq(), Some((1_000, late.seq)));
        assert_eq!(rig.pop(), None);
    }

    /// A fault planted in the store, to show that the gate below fails a
    /// store that does more work per pop than the radix heap.
    #[derive(Clone, Copy)]
    pub(super) enum Waste {
        /// A bucket-0 occupancy bit left set after its last entry popped:
        /// each time bucket 0 runs dry, the empty bucket 0 is opened (and
        /// nothing filed) before the real one.
        StaleBucket0,
        /// A full re-sort: each time bucket 0 runs dry, every queued entry
        /// of buckets 1 to 64 is filed again before the opening.
        Rebuild,
    }

    impl Timers {
        /// Do the planted fault's extra work ahead of an opening. Neither
        /// changes where any entry sits or the order of pops, only the
        /// store's work.
        pub(super) fn plant_waste(&mut self) {
            match self.waste {
                None => {}
                Some(Waste::StaleBucket0) => {
                    let empty = std::mem::take(&mut self.buckets[0]);
                    debug_assert!(empty.is_empty());
                    self.opened += 1;
                    self.buckets[0] = empty;
                }
                Some(Waste::Rebuild) => {
                    let mut marked = self.occupied;
                    while marked != 0 {
                        let b = marked.trailing_zeros() as usize + 1;
                        marked &= marked - 1;
                        self.occupied &= !(1 << (b - 1));
                        let ents = std::mem::take(&mut self.buckets[b]);
                        self.refiled += ents.len() as u64;
                        for ent in ents {
                            self.file(ent);
                        }
                    }
                }
            }
        }
    }

    /// The store's work per fired timer on the shape of a random 4 KiB
    /// workload: `SLEEPERS` ranks, each op a 1 s deadline pushed, a chain
    /// of eight 64 ns – 16 µs sleeps, and the deadline cancelled. Returns
    /// the buckets opened and the entries filed again, per fired timer.
    fn work_per_fire(waste: Option<Waste>) -> (f64, f64) {
        const SLEEPERS: usize = 256;
        const OPS: usize = 20_000;
        const CHAIN: u32 = 8;
        let mut rig = Rig::new();
        rig.timers.waste = waste;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut nap = |now: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            now + 64 + rng % (16_000 - 64)
        };
        // per sleeper: its deadline, and the sleeps left in its chain
        let mut state: Vec<(TimerKey, u32)> = Vec::new();
        // the sleeper each `seq` belongs to; deadlines never fire
        let mut owner: Vec<usize> = Vec::new();
        for s in 0..SLEEPERS {
            state.push((rig.push(1_000_000_000), CHAIN));
            rig.push(nap(0));
            owner.extend([usize::MAX, s]);
        }
        let mut ops = 0;
        while ops < OPS {
            let (_, seq) = rig.pop_seq().expect("a sleeper is waiting");
            let s = owner[seq as usize];
            let (deadline, left) = &mut state[s];
            *left -= 1;
            if *left == 0 {
                rig.timers.cancel(*deadline);
                ops += 1;
                *deadline = rig.push(rig.now + 1_000_000_000);
                owner.push(usize::MAX);
                *left = CHAIN;
            }
            rig.push(nap(rig.now));
            owner.push(s);
        }
        let fired = rig.timers.fired as f64;
        (
            rig.timers.opened as f64 / fired,
            rig.timers.refiled as f64 / fired,
        )
    }

    /// Measured: 0.984 buckets opened per fired timer (nearly every pop
    /// finds bucket 0 dry and opens one; a stale bucket-0 bit makes it
    /// 1.97).
    const OPENED_PER_FIRE_BOUND: f64 = 1.2;

    /// Measured: 4.90 entries filed again per fired timer (a binary heap
    /// moves about log2 of its ~540 entries, 9, per pop). The bound leaves
    /// room for a change of pattern, not for a store that files its whole
    /// queue again on each opening (757).
    const REFILED_PER_FIRE_BOUND: f64 = 6.0;

    #[test]
    fn a_random_4k_pattern_does_little_work_per_fired_timer() {
        let (opened, refiled) = work_per_fire(None);
        assert!(
            opened <= OPENED_PER_FIRE_BOUND,
            "{opened:.3} buckets opened per fired timer"
        );
        assert!(
            refiled <= REFILED_PER_FIRE_BOUND,
            "{refiled:.3} entries filed again per fired timer"
        );
    }

    /// Planted negative: a stale bucket-0 bit, one empty opening per dry
    /// bucket 0, must fail the openings bound (it files nothing, so the
    /// re-filing bound cannot see it).
    #[test]
    fn a_stale_bucket_0_bit_fails_the_openings_bound() {
        let (opened, refiled) = work_per_fire(Some(Waste::StaleBucket0));
        assert!(opened > OPENED_PER_FIRE_BOUND, "{opened:.3}");
        assert!(refiled <= REFILED_PER_FIRE_BOUND, "{refiled:.3}");
    }

    /// Planted negative: filing the whole queue again on each opening must
    /// fail the re-filing bound.
    #[test]
    fn a_full_rebuild_per_opening_fails_the_refiling_bound() {
        let (_, refiled) = work_per_fire(Some(Waste::Rebuild));
        assert!(refiled > REFILED_PER_FIRE_BOUND, "{refiled:.3}");
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

    /// Ties, near and far deadlines, and deadlines far enough out to
    /// reach the top buckets (and, summed, to saturate at `u64::MAX`).
    fn after() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            0u64..5_000,
            4_000_000u64..20_000_000,
            (1u64 << 40)..(1u64 << 62),
        ]
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
                        let at = rig.now.saturating_add(after);
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
