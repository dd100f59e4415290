//! The virtual-time async executor.
//!
//! Tasks are plain `Future<Output = ()>` boxes polled on a single host
//! thread. Time only advances when every runnable task has been polled to
//! quiescence: the executor then pops the earliest timer, jumps the clock to
//! it, and wakes the sleeper. Scheduling is strictly ordered by
//! `(deadline, registration sequence)` and the ready queue is FIFO, so runs
//! are deterministic.
//!
//! The timer store is a calendar queue (`TimerWheel`, private): a ring of
//! fixed-width slots covering the near future, with a binary-heap overflow
//! for deadlines beyond the ring's span. Most simulated waits (RPC legs,
//! media transfers, per-message CPU) land within a few microseconds of
//! `now`, so pushes and pops are O(1) bitmap operations plus a heap
//! operation on the few timers sharing one slot, instead of an `O(log n)`
//! rebalance over every pending timer; selection is still strictly by
//! `(deadline, seq)` — the wheel orders *identically* to one global heap.
//!
//! Task storage is a slab arena with dense `u32` ids and a free list.
//! Wakers do not allocate: each is a [`RawWaker`] whose data word encodes
//! `(executor registry slot, task id)` and is never dereferenced — waking
//! looks the executor up in a thread-local registry and pushes the id onto
//! a plain `RefCell<VecDeque>` ready queue (the executor is single-threaded
//! by construction, so no mutex is involved).

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::time::{SimDuration, SimTime};

type TaskFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

// ------------------------------------------------------------------ wakers

thread_local! {
    /// Live executors on this thread, indexed by the registry slot encoded
    /// into every waker. `Weak`: a waker outliving its simulation (a leaked
    /// timer, a fragment of a torn-down task) must not keep it alive.
    static EXECUTORS: RefCell<Vec<Option<Weak<Inner>>>> = const { RefCell::new(Vec::new()) };
}

/// Vtable for the executor's allocation-free wakers. The data word is a
/// plain integer — `(registry slot << 32) | task id` — so clone copies it,
/// drop is a no-op, and wake decodes it and pushes onto the owning
/// executor's ready queue (a no-op if that simulation is gone).
static SIM_WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

// The four vtable entries must be `unsafe fn` by signature; none of them
// ever treats `data` as a pointer.

#[allow(unsafe_code)]
// SAFETY: `data` is an integer in disguise; copying it into a new RawWaker
// with the same vtable is trivially sound.
unsafe fn waker_clone(data: *const ()) -> RawWaker {
    RawWaker::new(data, &SIM_WAKER_VTABLE)
}

#[allow(unsafe_code)]
// SAFETY: decodes the integer data word; never dereferences it.
unsafe fn waker_wake(data: *const ()) {
    wake_encoded(data);
}

#[allow(unsafe_code)]
// SAFETY: decodes the integer data word; never dereferences it.
unsafe fn waker_wake_by_ref(data: *const ()) {
    wake_encoded(data);
}

#[allow(unsafe_code)]
// SAFETY: the data word owns nothing, so dropping a waker is a no-op.
unsafe fn waker_drop(_data: *const ()) {}

/// Build the waker for task `id` of the executor registered at `reg`.
fn sim_waker(reg: u32, id: u32) -> Waker {
    let data = (((reg as usize) << 32) | id as usize) as *const ();
    #[allow(unsafe_code)]
    // SAFETY: the vtable above upholds the RawWaker contract for integer
    // data words — no function dereferences, frees or retains `data`.
    unsafe {
        Waker::from_raw(RawWaker::new(data, &SIM_WAKER_VTABLE))
    }
}

/// Deliver a wake encoded in a waker data word: look the executor up in
/// the thread-local registry and enqueue the task id. Stale wakes — the
/// simulation is gone, or the task slot is empty — are dropped here or at
/// poll time, exactly as the previous Arc-based wakers dropped them.
fn wake_encoded(data: *const ()) {
    let word = data as usize;
    let (reg, id) = ((word >> 32) as u32, word as u32);
    let inner = EXECUTORS.with(|ex| {
        ex.borrow()
            .get(reg as usize)
            .and_then(|slot| slot.as_ref())
            .and_then(Weak::upgrade)
    });
    if let Some(inner) = inner {
        inner.ready.borrow_mut().push_back(id);
    }
}

/// Claim a registry slot for a new executor.
fn register_executor(inner: &Rc<Inner>) -> u32 {
    EXECUTORS.with(|ex| {
        let mut ex = ex.borrow_mut();
        let weak = Rc::downgrade(inner);
        if let Some(slot) = ex.iter().position(Option::is_none) {
            ex[slot] = Some(weak);
            slot as u32
        } else {
            ex.push(Some(weak));
            (ex.len() - 1) as u32
        }
    })
}

// -------------------------------------------------------------- timer wheel

/// A registered timer, ordered by `(at, seq)` so ties break by
/// registration order and the run is deterministic.
struct TimerEnt {
    at: u64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEnt {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for TimerEnt {}
impl PartialOrd for TimerEnt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEnt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Ring size. With [`SLOT_NS`]-wide slots the ring spans ~4.2 ms of
/// virtual time — far beyond the microsecond-scale waits that dominate a
/// DES run, so heap (overflow) traffic is rare.
const WHEEL_SLOTS: usize = 4096;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// Slot width in virtual ns (a power of two, so slot math is shift/mask).
const SLOT_NS: u64 = 1024;
/// Virtual time covered by the ring from its anchor.
const WHEEL_SPAN: u64 = WHEEL_SLOTS as u64 * SLOT_NS;

/// Calendar-queue timer store: a ring of [`WHEEL_SLOTS`] slots of
/// [`SLOT_NS`] ns each covering `[start, start + WHEEL_SPAN)`, plus a
/// binary-heap overflow for deadlines beyond the span.
///
/// Invariants:
/// * every ring entry's `at` lies in `[start, start + WHEEL_SPAN)`, in the
///   slot at circular distance `(at - start) / SLOT_NS` from `cursor`;
/// * `start <= now` whenever the ring is non-empty (`start` only advances
///   to the window of a slot being popped, and pushes re-anchor an empty
///   ring at `now`);
/// * overflow entries had `at >= start + WHEEL_SPAN` when pushed. The
///   window may advance past that later, so [`TimerWheel::pop_min`]
///   compares the ring minimum against the overflow minimum by
///   `(at, seq)` — selection is therefore *identical* to a single global
///   heap regardless of which store an entry sits in.
struct TimerWheel {
    /// One min-heap per ring slot: a burst of same-instant registrations
    /// (a barrier, a 128-wide fan-out) shares a slot, and each of its pops
    /// must stay O(log n) however pushes interleave with them.
    slots: Vec<BinaryHeap<Reverse<TimerEnt>>>,
    /// One occupancy bit per slot; pop scans words, not slots.
    occupied: [u64; WHEEL_WORDS],
    /// Slot whose window starts at `start`.
    cursor: usize,
    /// Virtual time of the cursor slot's window start (multiple of
    /// [`SLOT_NS`]).
    start: u64,
    /// Entries in the ring (excluding overflow).
    ring_len: usize,
    /// Far-future entries.
    overflow: BinaryHeap<Reverse<TimerEnt>>,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| BinaryHeap::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            cursor: 0,
            start: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Insert a timer. `now` re-anchors an empty ring so near-future
    /// deadlines keep landing in the ring after long jumps through
    /// heap-only stretches.
    fn push(&mut self, now: u64, ent: TimerEnt) {
        if self.ring_len == 0 {
            self.cursor = 0;
            self.start = now & !(SLOT_NS - 1);
        }
        if ent.at >= self.start + WHEEL_SPAN {
            self.overflow.push(Reverse(ent));
        } else {
            self.ring_insert(ent);
        }
    }

    fn ring_insert(&mut self, ent: TimerEnt) {
        debug_assert!((self.start..self.start + WHEEL_SPAN).contains(&ent.at));
        let d = ((ent.at - self.start) / SLOT_NS) as usize;
        let idx = (self.cursor + d) & (WHEEL_SLOTS - 1);
        self.slots[idx].push(Reverse(ent));
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.ring_len += 1;
    }

    /// The occupied slot nearest the cursor (circularly), as
    /// `(slot index, circular distance)`. Ring slots at increasing
    /// circular distance cover disjoint, increasing time windows, so the
    /// first occupied slot holds the ring's minimum.
    fn first_occupied(&self) -> Option<(usize, usize)> {
        if self.ring_len == 0 {
            return None;
        }
        let (cw, cb) = (self.cursor / 64, self.cursor % 64);
        let head = self.occupied[cw] & (!0u64 << cb);
        if head != 0 {
            let idx = cw * 64 + head.trailing_zeros() as usize;
            return Some((idx, idx - self.cursor));
        }
        for k in 1..=WHEEL_WORDS {
            let wi = (cw + k) % WHEEL_WORDS;
            let mut w = self.occupied[wi];
            if wi == cw {
                // wrapped all the way around: only bits before the cursor
                w &= !(!0u64 << cb);
            }
            if w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                let d = (idx + WHEEL_SLOTS - self.cursor) & (WHEEL_SLOTS - 1);
                return Some((idx, d));
            }
        }
        // INVARIANT: ring_len > 0 implies at least one occupancy bit is set;
        // insert/remove update the bitmap and counter together.
        unreachable!("ring_len > 0 but no occupancy bit set")
    }

    /// Remove and return the globally earliest `(at, seq)` timer.
    fn pop_min(&mut self) -> Option<TimerEnt> {
        let ring = self.first_occupied();
        let use_ring = match (&ring, self.overflow.peek()) {
            (&Some((idx, _)), Some(Reverse(h))) => {
                // INVARIANT: first_occupied only returns slots whose occupancy
                // bit is set, and the bit is cleared when the slot drains.
                let Reverse(m) = self.slots[idx].peek().expect("occupied slot is non-empty");
                m < h
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if use_ring {
            // INVARIANT: use_ring is only true in match arms where `ring` is Some.
            let (idx, d) = ring.expect("ring path requires an occupied slot");
            // advance the window to the popped slot
            self.start += d as u64 * SLOT_NS;
            self.cursor = idx;
            let slot = &mut self.slots[idx];
            // INVARIANT: same occupancy-bit claim as above — the popped slot
            // index came from a set bit in `occupied`.
            let Reverse(ent) = slot.pop().expect("occupied slot is non-empty");
            if slot.is_empty() {
                self.occupied[idx / 64] &= !(1 << (idx % 64));
            }
            self.ring_len -= 1;
            Some(ent)
        } else {
            // INVARIANT: the !use_ring arms all peeked Some from `overflow`,
            // and nothing pops it between the peek and here.
            let Reverse(ent) = self.overflow.pop().expect("overflow path peeked an entry");
            if self.ring_len == 0 {
                // the ring is drained and time jumped to a far deadline:
                // re-anchor there and pull newly-near overflow entries in,
                // restoring O(1) pops for the next stretch
                self.cursor = 0;
                self.start = ent.at & !(SLOT_NS - 1);
                while let Some(Reverse(h)) = self.overflow.peek() {
                    if h.at >= self.start + WHEEL_SPAN {
                        break;
                    }
                    // INVARIANT: the loop condition just peeked Some.
                    let Reverse(h) = self.overflow.pop().expect("peeked entry pops");
                    self.ring_insert(h);
                }
            }
            Some(ent)
        }
    }

    fn clear(&mut self) {
        if self.ring_len > 0 {
            for slot in &mut self.slots {
                slot.clear();
            }
            self.occupied = [0; WHEEL_WORDS];
            self.ring_len = 0;
        }
        self.overflow.clear();
    }
}

// --------------------------------------------------------------- task arena

/// Slab-backed task storage: dense `u32` ids, free-list reuse. A slot's
/// future is `None` while the task is being polled or after it finished;
/// ids only return to `free` on completion, so a slot is never reused
/// while its future is out being polled.
#[derive(Default)]
struct TaskArena {
    slots: Vec<Option<TaskFuture>>,
    free: Vec<u32>,
}

impl TaskArena {
    fn insert(&mut self, fut: TaskFuture) -> u32 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(fut);
                id
            }
            None => {
                // INVARIANT: more than u32::MAX concurrently-live tasks exceeds
                // any simulated cluster by orders of magnitude; treat as OOM.
                let id = u32::try_from(self.slots.len()).expect("task arena overflow");
                self.slots.push(Some(fut));
                id
            }
        }
    }

    fn take(&mut self, id: u32) -> Option<TaskFuture> {
        self.slots.get_mut(id as usize).and_then(Option::take)
    }

    fn restore(&mut self, id: u32, fut: TaskFuture) {
        self.slots[id as usize] = Some(fut);
    }

    fn release(&mut self, id: u32) {
        self.free.push(id);
    }
}

// ---------------------------------------------------------------- executor

struct Inner {
    now: Cell<u64>,
    timer_seq: Cell<u64>,
    timers: RefCell<TimerWheel>,
    ready: RefCell<VecDeque<u32>>,
    tasks: RefCell<TaskArena>,
    live_tasks: Cell<usize>,
    spawned_total: Cell<u64>,
    rng: RefCell<ChaCha8Rng>,
    seed: u64,
    /// This executor's slot in the thread-local waker registry.
    registry_slot: Cell<u32>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // release the registry slot; wakers still in flight for this
        // executor fail the Weak upgrade and become no-ops
        let slot = self.registry_slot.get() as usize;
        let _ = EXECUTORS.try_with(|ex| {
            let mut ex = ex.borrow_mut();
            if let Some(s) = ex.get_mut(slot) {
                *s = None;
            }
        });
    }
}

/// A handle to the simulation: clock, scheduler and RNG.
///
/// `Sim` is a cheap reference-counted handle; clone it freely into tasks.
/// It is *not* `Send` — a simulation lives on one thread (parallelism comes
/// from running many independent `Sim`s, one per parameter point).
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

/// Result slot shared between a spawned task and its [`JoinHandle`].
struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Awaitable completion of a spawned task. Dropping it detaches the task
/// (a task nobody means to join is spawned with [`Sim::spawn_detached`]).
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(v) = st.result.take() {
            return Poll::Ready(v);
        }
        assert!(!st.finished, "JoinHandle polled after completion");
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl Sim {
    /// Create a fresh simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        let inner = Rc::new(Inner {
            now: Cell::new(0),
            timer_seq: Cell::new(0),
            timers: RefCell::new(TimerWheel::new()),
            ready: RefCell::new(VecDeque::new()),
            tasks: RefCell::new(TaskArena::default()),
            live_tasks: Cell::new(0),
            spawned_total: Cell::new(0),
            rng: RefCell::new(ChaCha8Rng::seed_from_u64(seed)),
            seed,
            registry_slot: Cell::new(0),
        });
        inner.registry_slot.set(register_executor(&inner));
        Sim { inner }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.inner.now.get())
    }

    /// The seed this simulation was created with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Number of tasks that have been spawned over the sim's lifetime.
    pub fn spawned_total(&self) -> u64 {
        self.inner.spawned_total.get()
    }

    /// Number of tasks currently alive (not yet completed).
    pub fn live_tasks(&self) -> usize {
        self.inner.live_tasks.get()
    }

    /// Spawn a task whose completion the caller awaits through the
    /// returned handle; it runs concurrently (in virtual time) with its
    /// parent.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
            finished: false,
        }));
        let st2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut st = st2.borrow_mut();
            st.result = Some(out);
            st.finished = true;
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        };
        self.spawn_detached(wrapped);
        JoinHandle { state }
    }

    /// Spawn a task nobody will join: no [`JoinHandle`], no result slot,
    /// just the boxed future on the ready queue. It counts in
    /// [`Sim::spawned_total`] and [`Sim::live_tasks`] like any task and is
    /// torn down by [`Sim::block_on`] if it is still blocked when the root
    /// finishes. Use [`Sim::spawn`] when the completion is awaited.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        let id = self.inner.tasks.borrow_mut().insert(Box::pin(fut));
        self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
        self.inner
            .spawned_total
            .set(self.inner.spawned_total.get() + 1);
        self.inner.ready.borrow_mut().push_back(id);
    }

    /// Register `waker` to fire at absolute time `at`.
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) {
        let seq = self.inner.timer_seq.get();
        self.inner.timer_seq.set(seq + 1);
        self.inner.timers.borrow_mut().push(
            self.inner.now.get(),
            TimerEnt {
                at: at.0,
                seq,
                waker,
            },
        );
    }

    /// Sleep for `dur` of simulated time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Sleep until the absolute instant `at` (no-op if already past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline: at,
            registered: false,
        }
    }

    /// Convenience: sleep a number of nanoseconds.
    pub fn sleep_ns(&self, ns: u64) -> Sleep {
        self.sleep(SimDuration::from_ns(ns))
    }
    /// Convenience: sleep a number of microseconds.
    pub fn sleep_us(&self, us: u64) -> Sleep {
        self.sleep(SimDuration::from_us(us))
    }
    /// Convenience: sleep a number of milliseconds.
    pub fn sleep_ms(&self, ms: u64) -> Sleep {
        self.sleep(SimDuration::from_ms(ms))
    }

    /// Yield to other runnable tasks at the current instant.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { polled: false }
    }

    /// Uniform random `u64`.
    pub fn rand_u64(&self) -> u64 {
        self.inner.rng.borrow_mut().next_u64()
    }
    /// Uniform random integer in `[0, n)`.
    pub fn rand_below(&self, n: u64) -> u64 {
        assert!(n > 0);
        self.inner.rng.borrow_mut().gen_range(0..n)
    }
    /// Exponentially distributed duration with the given mean (for jitter).
    pub fn rand_exp(&self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.inner.rng.borrow_mut().gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }
    /// Derive an independent, deterministic RNG stream for a component.
    pub fn derive_rng(&self, tag: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.inner.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
    }

    fn poll_task(&self, id: u32) {
        let fut = self.inner.tasks.borrow_mut().take(id);
        let Some(mut fut) = fut else {
            return; // stale wake of a finished task
        };
        let waker = sim_waker(self.inner.registry_slot.get(), id);
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.inner.tasks.borrow_mut().release(id);
                self.inner.live_tasks.set(self.inner.live_tasks.get() - 1);
            }
            Poll::Pending => {
                self.inner.tasks.borrow_mut().restore(id, fut);
            }
        }
    }

    fn drain_ready(&self) {
        loop {
            let id = self.inner.ready.borrow_mut().pop_front();
            match id {
                Some(id) => self.poll_task(id),
                None => break,
            }
        }
    }

    /// Run until no runnable tasks and no pending timers remain.
    ///
    /// Returns the number of tasks still alive (blocked forever — usually
    /// server loops waiting on mailboxes, or a deadlock if unexpected).
    pub fn run_until_quiescent(&self) -> usize {
        loop {
            self.drain_ready();
            let ent = self.inner.timers.borrow_mut().pop_min();
            match ent {
                Some(ent) => {
                    debug_assert!(ent.at >= self.inner.now.get(), "time went backwards");
                    self.inner.now.set(ent.at);
                    ent.waker.wake();
                }
                None => break,
            }
        }
        self.inner.live_tasks.get()
    }

    /// Spawn `f(sim)` as the root task and run until it completes.
    ///
    /// Background tasks that are still blocked when the root finishes are
    /// dropped (this is how server loops are torn down), breaking any
    /// `Sim`-handle reference cycles they hold.
    ///
    /// Panics if the simulation goes quiescent before the root completes —
    /// that is a deadlock in the simulated system.
    pub fn block_on<T: 'static, F, Fut>(&mut self, f: F) -> T
    where
        F: FnOnce(Sim) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let handle = self.spawn(f(self.clone()));
        loop {
            self.drain_ready();
            if handle.state.borrow().finished {
                break;
            }
            let ent = self.inner.timers.borrow_mut().pop_min();
            match ent {
                Some(ent) => {
                    debug_assert!(ent.at >= self.inner.now.get(), "time went backwards");
                    self.inner.now.set(ent.at);
                    ent.waker.wake();
                }
                // INVARIANT: quiescence with the root unfinished is a deadlock
                // in the simulated system; aborting loudly is the contract
                // block_on documents.
                None => panic!(
                    "simulation deadlock: root task blocked with no pending events \
                     ({} tasks alive at {})",
                    self.inner.live_tasks.get(),
                    self.now()
                ),
            }
        }
        // Tear down survivors so Rc cycles through captured Sim handles break.
        // A survivor's destructor may itself call `spawn` (RAII guards that
        // re-pump a scheduler do exactly that), so move the slots out of the
        // arena before dropping them — dropping under the borrow would panic
        // on re-entry. Late spawns land in the emptied arena and are swept up
        // by the next pass; they never run, the simulation is over.
        loop {
            let mut arena = self.inner.tasks.borrow_mut();
            let slots = std::mem::take(&mut arena.slots);
            arena.free.clear();
            drop(arena);
            if slots.is_empty() {
                break;
            }
            drop(slots);
        }
        self.inner.timers.borrow_mut().clear();
        self.inner.ready.borrow_mut().clear();
        self.inner.live_tasks.set(0);
        let out = handle.state.borrow_mut().result.take();
        // INVARIANT: the loop above only exits when `finished` is set, and the
        // task stores its result before setting `finished`.
        out.expect("root task finished without storing a result")
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            let deadline = self.deadline;
            self.sim.register_timer(deadline, cx.waker().clone());
        }
        Poll::Pending
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Await every future in `futs`, concurrently, collecting outputs in order.
///
/// This is the kernel's `join_all`: each future is spawned as its own task so
/// they genuinely interleave in virtual time.
pub async fn join_all<T: 'static, F>(sim: &Sim, futs: Vec<F>) -> Vec<T>
where
    F: Future<Output = T> + 'static,
{
    let handles: Vec<JoinHandle<T>> = futs.into_iter().map(|f| sim.spawn(f)).collect();
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn time_starts_at_zero_and_advances() {
        let mut sim = Sim::new(1);
        let t = sim.block_on(|sim| async move {
            assert_eq!(sim.now(), SimTime::ZERO);
            sim.sleep_us(10).await;
            sim.sleep_us(5).await;
            sim.now()
        });
        assert_eq!(t, SimTime::from_us(15));
    }

    #[test]
    fn spawned_tasks_interleave() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let l = Rc::clone(&l2);
            let s = sim.clone();
            let h1 = sim.spawn({
                let l = Rc::clone(&l);
                let s = s.clone();
                async move {
                    s.sleep_us(2).await;
                    l.borrow_mut().push("b");
                }
            });
            let h2 = sim.spawn({
                let l = Rc::clone(&l);
                let s = s.clone();
                async move {
                    s.sleep_us(1).await;
                    l.borrow_mut().push("a");
                }
            });
            h1.await;
            h2.await;
            l2.borrow_mut().push("done");
        });
        assert_eq!(*log.borrow(), vec!["a", "b", "done"]);
    }

    #[test]
    fn join_all_orders_results() {
        let mut sim = Sim::new(7);
        let vals = sim.block_on(|sim| async move {
            let futs: Vec<_> = (0..10u64)
                .map(|i| {
                    let s = sim.clone();
                    async move {
                        // later indices sleep *less*, finishing first
                        s.sleep_us(10 - i).await;
                        i
                    }
                })
                .collect();
            join_all(&sim, futs).await
        });
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_deadline_fifo_order() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let mut handles = Vec::new();
            for i in 0..5 {
                let s = sim.clone();
                let l = Rc::clone(&l2);
                handles.push(sim.spawn(async move {
                    s.sleep_us(3).await;
                    l.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await;
            }
        });
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Sim::new(seed);
            sim.block_on(|sim| async move {
                let futs: Vec<_> = (0..20u64)
                    .map(|i| {
                        let s = sim.clone();
                        async move {
                            let jitter = s.rand_below(1000);
                            s.sleep_ns(jitter).await;
                            s.now().as_ns() ^ i
                        }
                    })
                    .collect();
                join_all(&sim, futs).await
            })
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_detected() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            // await a handle of a task that never finishes and nothing scheduled
            let h = sim.spawn(std::future::pending::<()>());
            h.await;
        });
    }

    #[test]
    fn background_tasks_dropped_after_root() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let _detached = sim.spawn(std::future::pending::<()>());
            sim.sleep_us(1).await;
        });
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn detached_task_runs_and_is_counted() {
        let mut sim = Sim::new(1);
        let ran = Rc::new(Cell::new(false));
        let r = Rc::clone(&ran);
        sim.block_on(move |sim| async move {
            let (spawned, live) = (sim.spawned_total(), sim.live_tasks());
            let s = sim.clone();
            sim.spawn_detached(async move {
                s.sleep_us(1).await;
                r.set(true);
            });
            assert_eq!(sim.spawned_total(), spawned + 1);
            assert_eq!(sim.live_tasks(), live + 1);
            sim.sleep_us(2).await;
            assert_eq!(sim.live_tasks(), live, "finished and released its slot");
        });
        assert!(ran.get());
    }

    #[test]
    fn blocked_detached_task_is_dropped_after_root() {
        /// Sets its flag when dropped.
        struct OnDrop(Rc<Cell<bool>>);
        impl Drop for OnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let mut sim = Sim::new(1);
        let dropped = Rc::new(Cell::new(false));
        let guard = OnDrop(Rc::clone(&dropped));
        sim.block_on(|sim| async move {
            sim.spawn_detached(async move {
                let _guard = guard;
                std::future::pending::<()>().await;
            });
            sim.sleep_us(1).await;
            assert_eq!(sim.live_tasks(), 2, "the root and the blocked task");
        });
        assert!(dropped.get(), "block_on tore the survivor down");
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn run_until_quiescent_reports_blocked() {
        let sim = Sim::new(1);
        let _h = sim.spawn(std::future::pending::<()>());
        let s = sim.clone();
        let _h2 = sim.spawn(async move {
            s.sleep_us(5).await;
        });
        let blocked = sim.run_until_quiescent();
        assert_eq!(blocked, 1);
        assert_eq!(sim.now(), SimTime::from_us(5));
    }

    #[test]
    fn rand_exp_is_positive_with_sane_mean() {
        let sim = Sim::new(3);
        let mean = SimDuration::from_us(100);
        let mut acc = 0u64;
        for _ in 0..1000 {
            let d = sim.rand_exp(mean);
            acc += d.as_ns();
        }
        let avg = acc as f64 / 1000.0;
        assert!((50_000.0..200_000.0).contains(&avg), "{avg}");
    }

    #[test]
    fn yield_now_runs_peers_first() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let l = Rc::clone(&l2);
            let peer = sim.spawn({
                let l = Rc::clone(&l);
                async move {
                    l.borrow_mut().push("peer");
                }
            });
            sim.yield_now().await;
            l2.borrow_mut().push("root");
            peer.await;
        });
        assert_eq!(*log.borrow(), vec!["peer", "root"]);
    }

    // ---- adversarial coverage for the wheel and the arena ------------

    /// Many sleepers on the same tick interleaved with sleepers in other
    /// slots: same-instant wakes must preserve registration order however
    /// out of order the slot's pushes arrive.
    #[test]
    fn same_tick_order_survives_interleaved_pushes() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let mut handles = Vec::new();
            // deadlines alternate between one shared instant and nearby
            // instants in the same / adjacent slots
            for i in 0..40u64 {
                let s = sim.clone();
                let l = Rc::clone(&l2);
                let ns = match i % 4 {
                    0 => 5_000,           // the shared instant
                    1 => 5_000,           // same instant, later seq
                    2 => 4_999,           // same slot, earlier instant
                    _ => 5_000 + i * 700, // nearby slots
                };
                handles.push(sim.spawn(async move {
                    s.sleep_ns(ns).await;
                    l.borrow_mut().push((ns, i));
                }));
            }
            for h in handles {
                h.await;
            }
        });
        let got = log.borrow().clone();
        let mut want = got.clone();
        // expected order: by (deadline, registration sequence)
        want.sort_by_key(|&(ns, i)| (ns, i));
        assert_eq!(got, want);
    }

    /// Deadlines far beyond the ring's span overflow into the fallback
    /// heap, and still fire in global `(deadline, seq)` order against
    /// ring-resident timers — including entries that migrate back into
    /// the ring when the window re-anchors.
    #[test]
    fn far_future_overflow_orders_with_ring() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let mut handles = Vec::new();
            // span is ~4.2 ms; mix near timers with multi-span jumps
            let ns_list = [
                1_000u64,
                WHEEL_SPAN + 7,
                3 * WHEEL_SPAN + 13,
                2_000,
                2 * WHEEL_SPAN,
                10 * WHEEL_SPAN + 1,
                WHEEL_SPAN - 1,
                WHEEL_SPAN, // first slot beyond the initial window
            ];
            for (i, &ns) in ns_list.iter().enumerate() {
                let s = sim.clone();
                let l = Rc::clone(&l2);
                handles.push(sim.spawn(async move {
                    s.sleep_ns(ns).await;
                    l.borrow_mut().push((ns, i));
                }));
            }
            for h in handles {
                h.await;
            }
        });
        let got = log.borrow().clone();
        let mut want = got.clone();
        want.sort_by_key(|&(ns, i)| (ns, i));
        assert_eq!(got, want);
    }

    /// Sleepers staged exactly at slot-width and span boundaries: the
    /// window re-anchors between bursts and boundary arithmetic must not
    /// misfile an entry (firing order is the ground truth).
    #[test]
    fn wheel_boundary_cascade() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let f2 = Rc::clone(&fired);
        sim.block_on(move |sim| async move {
            // sequential sleeps force repeated re-anchoring at deadlines
            // that sit exactly on slot / span edges
            for &ns in &[
                SLOT_NS - 1,
                1,       // lands exactly on a slot edge
                SLOT_NS, // a full slot
                WHEEL_SPAN - SLOT_NS,
                WHEEL_SPAN, // a full span in one jump
                7 * WHEEL_SPAN + 3,
            ] {
                sim.sleep_ns(ns).await;
                f2.borrow_mut().push(sim.now().as_ns());
            }
        });
        let got = fired.borrow().clone();
        let mut acc = 0u64;
        let want: Vec<u64> = [
            SLOT_NS - 1,
            1,
            SLOT_NS,
            WHEEL_SPAN - SLOT_NS,
            WHEEL_SPAN,
            7 * WHEEL_SPAN + 3,
        ]
        .iter()
        .map(|ns| {
            acc += ns;
            acc
        })
        .collect();
        assert_eq!(got, want);
    }

    /// Task ids are reused from the free list, and stale wakes aimed at a
    /// freed id are dropped instead of waking the slot's new occupant out
    /// of turn.
    #[test]
    fn slab_id_reuse_and_stale_wakes() {
        let mut sim = Sim::new(1);
        let spawned = sim.block_on(|sim| async move {
            // run several generations of short-lived tasks; ids recycle
            for _ in 0..8 {
                let futs: Vec<_> = (0..16u64)
                    .map(|i| {
                        let s = sim.clone();
                        async move {
                            s.sleep_ns(i).await;
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
            }
            sim.spawned_total()
        });
        // 8 generations * 16 tasks (+ the root and the per-join spawns)
        assert!(spawned >= 128);
        // the arena recycled ids instead of growing one slot per task
        assert!(sim.inner.tasks.borrow().slots.len() < 64);
        assert_eq!(sim.live_tasks(), 0);
    }

    /// A waker can outlive its simulation; waking it afterwards must be a
    /// no-op (the registry entry is gone), not a crash or a cross-sim wake.
    #[test]
    fn waker_outliving_sim_is_noop() {
        let captured: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        {
            let mut sim = Sim::new(1);
            let c2 = Rc::clone(&captured);
            sim.block_on(move |sim| async move {
                let c = Rc::clone(&c2);
                let h = sim.spawn(async move {
                    std::future::poll_fn(move |cx| {
                        if c.borrow().is_none() {
                            *c.borrow_mut() = Some(cx.waker().clone());
                            Poll::Pending
                        } else {
                            Poll::Ready(())
                        }
                    })
                    .await;
                });
                sim.sleep_ns(1).await;
                captured_wake(&c2);
                h.await;
            });
        }
        // the sim is dropped; firing the captured waker again must not panic
        captured_wake(&captured);

        fn captured_wake(c: &Rc<RefCell<Option<Waker>>>) {
            let w = c.borrow().clone();
            if let Some(w) = w {
                w.wake_by_ref();
            }
        }
    }

    /// Two live sims on one thread: wakes route to the right executor via
    /// the registry, never across simulations.
    #[test]
    fn concurrent_sims_do_not_cross_wake() {
        let mut a = Sim::new(1);
        let mut b = Sim::new(2);
        let ta = a.block_on(|sim| async move {
            sim.sleep_us(3).await;
            sim.now().as_ns()
        });
        let tb = b.block_on(|sim| async move {
            sim.sleep_us(5).await;
            sim.now().as_ns()
        });
        assert_eq!(ta, 3_000);
        assert_eq!(tb, 5_000);
        // interleave again on fresh handles to exercise registry reuse
        let ta2 = a.block_on(|sim| async move {
            sim.sleep_us(1).await;
            sim.now().as_ns()
        });
        assert_eq!(ta2, 4_000);
    }
}
