//! The virtual-time async executor.
//!
//! Tasks are plain `Future<Output = ()>` boxes polled on a single host
//! thread. Time only advances when every runnable task has been polled to
//! quiescence: the executor then pops the earliest timer, jumps the clock to
//! it, and wakes the sleeper. Scheduling is strictly ordered by
//! `(deadline, registration sequence)` and the ready queue is FIFO, so runs
//! are deterministic.
//!
//! Timers live in one binary min-heap on `(deadline, seq)` beside a slab
//! of their wakers (`crate::timers`). [`Sleep`] registers its timer once,
//! on its first `Pending` poll, and cancels it on drop; a cancelled entry
//! is skipped at pop without touching the clock, so `now` only ever moves
//! to a timer somebody is still waiting for.
//!
//! Task storage is a slab arena with dense `u32` ids and a free list.
//! Each task's future sits in a box of its own type, `Option<F>`, and the
//! box outlives the task: completion drops the future in place (`None`)
//! and files the empty box under `TypeId::of::<F>()`, up to
//! `IDLE_PER_TYPE` (32) of each type, so spawning a task of a type already
//! seen refills a finished box instead of allocating one. An engine
//! serving RPCs therefore reuses its handlers' storage, as a DAOS target
//! reuses its pool of service threads. A [`crate::join_inline`]'s slot
//! block is recycled the same way, by layout (`crate::join`).
//!
//! Wakers do not allocate: each is a [`RawWaker`] whose data word encodes
//! `(child tag, executor registry slot, task id)` and is never
//! dereferenced — waking looks the executor up in a thread-local registry
//! and pushes the id onto a plain `RefCell<VecDeque>` ready queue (the
//! executor is single-threaded by construction, so no mutex is involved).
//! A task's own waker has child tag 0; the waker a [`crate::join_inline`]
//! hands its child `i` also sets bit `min(i, 63)` of the task's wake mask,
//! which is how the join knows which children a wake was for.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::join::JoinBlocks;
use crate::time::{SimDuration, SimTime};
use crate::timers::{TimerKey, Timers};

/// A task's storage: its future behind [`TaskCell`], in a box that is
/// refilled with the next task of the same type once this one finishes.
type TaskBox = Pin<Box<dyn TaskCell>>;

/// Idle boxes kept per task type. Enough for a burst of handlers in
/// flight at once on an engine; a one-shot burst of hundreds of large
/// futures (a rank-open phase) keeps no more than this many pinned.
const IDLE_PER_TYPE: usize = 32;

/// What the arena needs of a task's box. `Option<F>` is the one
/// implementation: `None` once the task finished, so the box can carry
/// the next task of type `F`.
trait TaskCell {
    /// Poll the future; `Ready` if the box is empty.
    fn poll_task(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()>;
    /// Drop the future in place, leaving the box empty.
    fn clear(self: Pin<&mut Self>);
    /// Move the future out of `fut`, a `Some` of this box's own type.
    fn refill(self: Pin<&mut Self>, fut: &mut dyn Any);
}

impl<F: Future<Output = ()> + 'static> TaskCell for Option<F> {
    fn poll_task(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.as_pin_mut()
            .map_or(Poll::Ready(()), |fut| fut.poll(cx))
    }

    fn clear(mut self: Pin<&mut Self>) {
        self.set(None);
    }

    fn refill(mut self: Pin<&mut Self>, fut: &mut dyn Any) {
        debug_assert!(self.is_none(), "refilled a box that holds a task");
        self.set(fut.downcast_mut::<Self>().and_then(Option::take));
    }
}

/// A live task: its box and the type the box is filed under once the
/// task finishes.
struct Task {
    kind: TypeId,
    cell: TaskBox,
}

// ------------------------------------------------------------------ wakers

thread_local! {
    /// Live executors on this thread, indexed by the registry slot encoded
    /// into every waker. `Weak`: a waker outliving its simulation (a leaked
    /// timer, a fragment of a torn-down task) must not keep it alive.
    static EXECUTORS: RefCell<Vec<Option<Weak<Inner>>>> = const { RefCell::new(Vec::new()) };
}

/// Vtable for the executor's allocation-free wakers. The data word is a
/// plain integer — `(child tag << 56) | (registry slot << 32) | task id` —
/// so clone copies it, drop is a no-op, and wake decodes it and pushes
/// onto the owning executor's ready queue (a no-op if that simulation is
/// gone).
static SIM_WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

// The four vtable entries must be `unsafe fn` by signature; none of them
// ever treats `data` as a pointer.

#[allow(
    unsafe_code,
    reason = "SAFETY: `data` is an integer in disguise; copying it into a new \
              RawWaker with the same vtable is trivially sound"
)]
unsafe fn waker_clone(data: *const ()) -> RawWaker {
    RawWaker::new(data, &SIM_WAKER_VTABLE)
}

#[allow(
    unsafe_code,
    reason = "SAFETY: decodes the integer data word; never dereferences it"
)]
unsafe fn waker_wake(data: *const ()) {
    wake_encoded(data);
}

#[allow(
    unsafe_code,
    reason = "SAFETY: decodes the integer data word; never dereferences it"
)]
unsafe fn waker_wake_by_ref(data: *const ()) {
    wake_encoded(data);
}

#[allow(
    unsafe_code,
    reason = "SAFETY: the data word owns nothing, so dropping a waker is a no-op"
)]
unsafe fn waker_drop(_data: *const ()) {}

/// Bits of the data word that hold the registry slot, above the task id.
const REG_BITS: u32 = 24;
/// Shift of the child tag: 0 for a task's own waker, `bit + 1` for a
/// join child's.
const TAG_SHIFT: u32 = 32 + REG_BITS;

/// The data word of task `id` of the executor registered at `reg`, as
/// seen by child tag `tag`.
fn waker_word(reg: u32, id: u32, tag: u32) -> usize {
    debug_assert!(reg < 1 << REG_BITS && tag <= 64);
    ((tag as usize) << TAG_SHIFT) | ((reg as usize) << 32) | id as usize
}

/// `(child tag, registry slot, task id)` of a waker data word.
fn decode(word: usize) -> (u32, u32, u32) {
    let reg = (word >> 32) & ((1 << REG_BITS) - 1);
    ((word >> TAG_SHIFT) as u32, reg as u32, word as u32)
}

/// Build the waker whose data word is `word`.
fn sim_waker(word: usize) -> Waker {
    let data = word as *const ();
    #[allow(unsafe_code, reason = "the one audited block below")]
    // SAFETY: the vtable above upholds the RawWaker contract for integer
    // data words — no function dereferences, frees or retains `data`.
    unsafe {
        Waker::from_raw(RawWaker::new(data, &SIM_WAKER_VTABLE))
    }
}

/// The live executor registered at `reg`, if any.
fn executor_at(reg: u32) -> Option<Rc<Inner>> {
    EXECUTORS.with(|ex| {
        ex.borrow()
            .get(reg as usize)
            .and_then(|slot| slot.as_ref())
            .and_then(Weak::upgrade)
    })
}

/// Deliver a wake encoded in a waker data word: look the executor up in
/// the thread-local registry, mark the child bit if the waker is a join
/// child's, and enqueue the task id. Stale wakes — the simulation is gone,
/// or the task slot is empty — are dropped here or at poll time, exactly
/// as the previous Arc-based wakers dropped them; a stale child bit only
/// makes a join poll a child that returns `Pending`.
fn wake_encoded(data: *const ()) {
    let (tag, reg, id) = decode(data as usize);
    if let Some(inner) = executor_at(reg) {
        if tag != 0 {
            if let Some(mark) = inner.tasks.borrow_mut().mark(id) {
                mark.woken |= 1 << (tag - 1);
            }
        }
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

// --------------------------------------------------------------- task arena

/// Slab-backed task storage: dense `u32` ids, free-list reuse. A slot's
/// task is `None` while the task is being polled or after it finished;
/// ids only return to `free` on completion, so a slot is never reused
/// while its task is out being polled. Each slot also holds its task's
/// join wake mask, reset when the slot gets a new task. Finished tasks'
/// emptied boxes wait in `idle`, by type, for the next spawn of that type.
#[derive(Default)]
struct TaskArena {
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    idle: BTreeMap<TypeId, Vec<TaskBox>>,
    /// Boxes allocated over the arena's lifetime.
    boxes: u64,
}

struct TaskSlot {
    task: Option<Task>,
    mark: WakeMark,
}

impl TaskArena {
    /// Store `fut` in an idle box of its type, or a new one if there is
    /// none, under a free id.
    fn insert<F: Future<Output = ()> + 'static>(&mut self, fut: F) -> u32 {
        let kind = TypeId::of::<F>();
        let cell = match self.idle.get_mut(&kind).and_then(Vec::pop) {
            Some(mut cell) => {
                cell.as_mut().refill(&mut Some(fut));
                cell
            }
            None => {
                self.boxes += 1;
                Box::pin(Some(fut))
            }
        };
        let slot = TaskSlot {
            task: Some(Task { kind, cell }),
            mark: WakeMark::default(),
        };
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].task.is_none());
                self.slots[id as usize] = slot;
                id
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: more than u32::MAX concurrently-live tasks exceeds \
                              any simulated cluster by orders of magnitude; treat as OOM"
                )]
                let id = u32::try_from(self.slots.len()).expect("task arena overflow");
                self.slots.push(slot);
                id
            }
        }
    }

    fn take(&mut self, id: u32) -> Option<Task> {
        self.slots.get_mut(id as usize).and_then(|s| s.task.take())
    }

    fn restore(&mut self, id: u32, task: Task) {
        self.slots[id as usize].task = Some(task);
    }

    fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    /// Keep a finished task's emptied box for the next task of its type,
    /// unless [`IDLE_PER_TYPE`] of them are already waiting.
    fn file(&mut self, task: Task) {
        let idle = self.idle.entry(task.kind).or_default();
        if idle.len() < IDLE_PER_TYPE {
            idle.push(task.cell);
        }
    }

    /// Task `id`'s wake mask (`None`: no such slot).
    fn mark(&mut self, id: u32) -> Option<&mut WakeMark> {
        self.slots.get_mut(id as usize).map(|s| &mut s.mark)
    }
}

// ---------------------------------------------------------------- executor

struct Inner {
    now: Cell<u64>,
    timers: RefCell<Timers>,
    ready: RefCell<VecDeque<u32>>,
    tasks: RefCell<TaskArena>,
    /// Finished joins' slot blocks, for the next join of each layout.
    join_blocks: RefCell<JoinBlocks>,
    live_tasks: Cell<usize>,
    spawned_total: Cell<u64>,
    rng: RefCell<ChaCha8Rng>,
    seed: u64,
    /// This executor's slot in the thread-local waker registry.
    registry_slot: Cell<u32>,
    /// The last claim handed to a join ([`Sim::claim_wakes`]).
    claims: Cell<u32>,
    /// The earliest deadline of the `Sleep`s that returned `Pending` since
    /// a join last reset it (see [`Sim::take_sleep_due`]).
    sleep_due: Cell<u64>,
}

/// A task's join bookkeeping: which children were woken since its join
/// last looked (children 63 and up share bit 63), and the claim of the
/// join that holds the mask (0: none).
#[derive(Default)]
struct WakeMark {
    woken: u64,
    claim: u32,
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

/// The task [`Sim::spawn`] runs: `fut`, then its output into the result
/// slot and a wake for whoever awaits the handle. A struct, not an `async`
/// block: a block that captures `fut` and then awaits it reserves room for
/// it twice, doubling every joined task's box.
struct Joined<F: Future> {
    fut: F,
    state: Rc<RefCell<JoinState<F::Output>>>,
}

impl<F: Future> Future for Joined<F> {
    type Output = ();

    #[allow(unsafe_code, reason = "the pin projection below")]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: `fut` is structurally pinned — it is only ever reached
        // through this re-pin, never moved out of or replaced in `self`,
        // and `Joined` has no `Drop` or `Unpin` impl that could move it;
        // `state` is an `Rc`, which nothing pins.
        let (fut, state) = unsafe {
            let this = self.get_unchecked_mut();
            (Pin::new_unchecked(&mut this.fut), &this.state)
        };
        let Poll::Ready(out) = fut.poll(cx) else {
            return Poll::Pending;
        };
        let mut st = state.borrow_mut();
        st.result = Some(out);
        st.finished = true;
        if let Some(w) = st.waker.take() {
            w.wake();
        }
        Poll::Ready(())
    }
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
            timers: RefCell::new(Timers::default()),
            ready: RefCell::new(VecDeque::new()),
            tasks: RefCell::new(TaskArena::default()),
            join_blocks: RefCell::default(),
            live_tasks: Cell::new(0),
            spawned_total: Cell::new(0),
            rng: RefCell::new(ChaCha8Rng::seed_from_u64(seed)),
            seed,
            registry_slot: Cell::new(0),
            claims: Cell::new(0),
            sleep_due: Cell::new(u64::MAX),
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

    /// Number of task boxes allocated over the sim's lifetime: a spawn
    /// that refills a finished task's box does not count.
    pub fn task_boxes(&self) -> u64 {
        self.inner.tasks.borrow().boxes
    }

    /// Number of join slot blocks allocated over the sim's lifetime: a
    /// join that reuses a finished join's block does not count.
    pub fn join_blocks(&self) -> u64 {
        self.inner.join_blocks.borrow().allocated()
    }

    /// The store of finished joins' slot blocks.
    pub(crate) fn join_store(&self) -> &RefCell<JoinBlocks> {
        &self.inner.join_blocks
    }

    /// Number of tasks currently alive (not yet completed).
    pub fn live_tasks(&self) -> usize {
        self.inner.live_tasks.get()
    }

    /// Number of timer entries currently queued, cancelled ones that have
    /// not been discarded yet included: what the timer store holds, not
    /// how many sleepers are waiting.
    pub fn pending_timers(&self) -> usize {
        self.inner.timers.borrow().len()
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
        self.spawn_detached(Joined {
            fut,
            state: Rc::clone(&state),
        });
        JoinHandle { state }
    }

    /// Spawn a task nobody will join: no [`JoinHandle`], no result slot,
    /// just the future, in a finished task's box of its type if one is
    /// idle, on the ready queue. It counts in
    /// [`Sim::spawned_total`] and [`Sim::live_tasks`] like any task and is
    /// torn down by [`Sim::block_on`] if it is still blocked when the root
    /// finishes. Use [`Sim::spawn`] when the completion is awaited.
    pub fn spawn_detached(&self, fut: impl Future<Output = ()> + 'static) {
        let id = self.inner.tasks.borrow_mut().insert(fut);
        self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
        self.inner
            .spawned_total
            .set(self.inner.spawned_total.get() + 1);
        self.inner.ready.borrow_mut().push_back(id);
    }

    /// Register `waker` to fire at absolute time `at`; the key cancels it.
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) -> TimerKey {
        self.inner.timers.borrow_mut().push(at.0, waker)
    }

    /// Cancel a registered timer; a no-op once it has fired.
    pub(crate) fn cancel_timer(&self, key: TimerKey) {
        self.inner.timers.borrow_mut().cancel(key);
    }

    /// Pops the next live timer, moves the clock to it and wakes its
    /// sleeper; `false` if no timer is pending.
    fn fire_next_timer(&self) -> bool {
        let next = self.inner.timers.borrow_mut().pop_min();
        let Some((at, waker)) = next else {
            return false;
        };
        debug_assert!(at >= self.inner.now.get(), "time went backwards");
        self.inner.now.set(at);
        waker.wake();
        true
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
            timer: None,
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
        let task = self.inner.tasks.borrow_mut().take(id);
        let Some(mut task) = task else {
            return; // stale wake of a finished task
        };
        let waker = sim_waker(waker_word(self.inner.registry_slot.get(), id, 0));
        let mut cx = Context::from_waker(&waker);
        match task.cell.as_mut().poll_task(&mut cx) {
            Poll::Ready(()) => {
                self.inner.tasks.borrow_mut().release(id);
                self.inner.live_tasks.set(self.inner.live_tasks.get() - 1);
                // outside the arena borrow: the future's destructor may spawn
                task.cell.as_mut().clear();
                self.inner.tasks.borrow_mut().file(task);
            }
            Poll::Pending => {
                self.inner.tasks.borrow_mut().restore(id, task);
            }
        }
    }

    /// The live simulation behind `waker`, if it is one of its wakers,
    /// and the task id if it is that task's own waker (not a join
    /// child's).
    pub(crate) fn of_waker(waker: &Waker) -> Option<(Sim, Option<u32>)> {
        if !std::ptr::eq(waker.vtable(), &SIM_WAKER_VTABLE) {
            return None;
        }
        let (tag, reg, id) = decode(waker.data() as usize);
        let inner = executor_at(reg)?;
        Some((Sim { inner }, (tag == 0).then_some(id)))
    }

    /// Whether `waker` is task `task`'s own waker in this simulation.
    pub(crate) fn is_task_waker(&self, waker: &Waker, task: u32) -> bool {
        std::ptr::eq(waker.vtable(), &SIM_WAKER_VTABLE)
            && waker.data() as usize == waker_word(self.inner.registry_slot.get(), task, 0)
    }

    /// The waker of child `child` of a join in task `task`: it wakes the
    /// task and sets bit `min(child, 63)` of its wake mask.
    pub(crate) fn child_waker(&self, task: u32, child: usize) -> Waker {
        let tag = child.min(63) as u32 + 1;
        sim_waker(waker_word(self.inner.registry_slot.get(), task, tag))
    }

    /// Let a join track task `task`'s wake mask, cleared: the claim to
    /// give back, or `None` if another join already holds the mask.
    pub(crate) fn claim_wakes(&self, task: u32) -> Option<u32> {
        let mut tasks = self.inner.tasks.borrow_mut();
        let mark = tasks.mark(task).filter(|m| m.claim == 0)?;
        let claim = self.inner.claims.get().wrapping_add(1).max(1);
        self.inner.claims.set(claim);
        *mark = WakeMark { woken: 0, claim };
        Some(claim)
    }

    /// Give task `task`'s wake mask back, if `claim` still holds it (the
    /// task may have finished and its id gone to another task since).
    pub(crate) fn release_wakes(&self, task: u32, claim: u32) {
        let mut tasks = self.inner.tasks.borrow_mut();
        if let Some(mark) = tasks.mark(task).filter(|m| m.claim == claim) {
            *mark = WakeMark::default();
        }
    }

    /// Whether any of `bits` is set in task `task`'s wake mask, clearing
    /// them.
    pub(crate) fn take_woken(&self, task: u32, bits: u64) -> bool {
        let mut tasks = self.inner.tasks.borrow_mut();
        let Some(mark) = tasks.mark(task) else {
            return false;
        };
        let hit = mark.woken & bits != 0;
        mark.woken &= !bits;
        hit
    }

    /// Whether any of `bits` is set in task `task`'s wake mask.
    pub(crate) fn is_woken(&self, task: u32, bits: u64) -> bool {
        let tasks = self.inner.tasks.borrow();
        let slot = tasks.slots.get(task as usize);
        slot.is_some_and(|s| s.mark.woken & bits != 0)
    }

    /// The earliest deadline, in ns, of every [`Sleep`] that returned
    /// `Pending` since the last call (`u64::MAX`: none), resetting it.
    pub(crate) fn take_sleep_due(&self) -> u64 {
        self.inner.sleep_due.replace(u64::MAX)
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
            if !self.fire_next_timer() {
                break;
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
    #[expect(
        clippy::panic,
        reason = "INVARIANT: quiescence with the root unfinished is a deadlock in the \
                  simulated system; aborting loudly is the contract block_on documents"
    )]
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: the loop above only exits when `finished` is set, and the \
                  task stores its result before setting `finished`"
    )]
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
            if !self.fire_next_timer() {
                panic!(
                    "simulation deadlock: root task blocked with no pending events \
                     ({} tasks alive at {})",
                    self.inner.live_tasks.get(),
                    self.now()
                );
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
        // idle boxes and spare join blocks are empty: dropping them runs no
        // task code
        self.inner.tasks.borrow_mut().idle.clear();
        self.inner.join_blocks.borrow_mut().clear();
        self.inner.timers.borrow_mut().clear();
        self.inner.ready.borrow_mut().clear();
        self.inner.live_tasks.set(0);
        let out = handle.state.borrow_mut().result.take();
        out.expect("root task finished without storing a result")
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`]. It registers
/// its timer once, on its first `Pending` poll, and cancels it when
/// dropped: a sleep that lost a [`crate::timeout`] / [`crate::select2`]
/// race, or that a sibling's wake at the same instant found `Ready`,
/// leaves nothing that could fire.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    /// The registered timer, once there is one.
    timer: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if self.timer.is_none() {
            let key = self.sim.register_timer(self.deadline, cx.waker().clone());
            self.timer = Some(key);
        }
        // what lets a join skip this sleep's child until it is due
        let due = &self.sim.inner.sleep_due;
        due.set(due.get().min(self.deadline.0));
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(key) = self.timer {
            self.sim.cancel_timer(key);
        }
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

    // ---- adversarial coverage for the timers and the arena ------------

    /// Many sleepers on the same tick interleaved with sleepers at other
    /// instants: same-instant wakes must preserve registration order
    /// however the pushes interleave.
    #[test]
    fn same_tick_order_survives_interleaved_pushes() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let mut handles = Vec::new();
            // deadlines alternate between one shared instant and nearby
            // instants
            for i in 0..40u64 {
                let s = sim.clone();
                let l = Rc::clone(&l2);
                let ns = match i % 4 {
                    0 => 5_000,           // the shared instant
                    1 => 5_000,           // same instant, later seq
                    2 => 4_999,           // one ns earlier
                    _ => 5_000 + i * 700, // nearby instants
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

    /// Near deadlines and deadlines milliseconds out, pushed out of order,
    /// fire in global `(deadline, seq)` order.
    #[test]
    fn far_future_overflow_orders_with_ring() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let mut handles = Vec::new();
            let ns_list = [
                1_000u64, 4_194_311, 12_582_925, 2_000, 8_388_608, 41_943_041, 4_194_303, 4_194_304,
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

    /// Sequential sleeps from 1 ns to tens of milliseconds each end exactly
    /// at their deadline.
    #[test]
    fn wheel_boundary_cascade() {
        let mut sim = Sim::new(1);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let f2 = Rc::clone(&fired);
        let naps = [1_023u64, 1, 1_024, 4_193_280, 4_194_304, 29_360_131];
        sim.block_on(move |sim| async move {
            for ns in naps {
                sim.sleep_ns(ns).await;
                f2.borrow_mut().push(sim.now().as_ns());
            }
        });
        let got = fired.borrow().clone();
        let want: Vec<u64> = naps
            .iter()
            .scan(0, |acc, ns| {
                *acc += ns;
                Some(*acc)
            })
            .collect();
        assert_eq!(got, want);
    }

    /// Far deadlines with ties, two in three of them dropped early: the
    /// store is swept on the way and what is left still fires in
    /// `(deadline, registration)` order.
    #[test]
    fn overflow_sweep_preserves_order() {
        const FAR: u64 = 8_388_608;
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            let far = SimDuration::from_ns(FAR);
            let mut handles = Vec::new();
            for i in 0..12u64 {
                let (s, l) = (sim.clone(), Rc::clone(&l2));
                handles.push(sim.spawn(async move {
                    if i % 3 == 0 {
                        let ns = FAR + [0, 7, 0, 3][i as usize / 3];
                        s.sleep_ns(ns).await;
                        l.borrow_mut().push((ns, i));
                    } else {
                        crate::timeout(&s, far, s.sleep_us(1 + i)).await;
                    }
                }));
            }
            sim.sleep_us(100).await;
            // 4 far sleepers are live; the 8 beaten deadlines are swept
            // once they outnumber the live entries
            assert!(sim.pending_timers() <= 2 * 4, "{}", sim.pending_timers());
            for h in handles {
                h.await;
            }
        });
        let got = log.borrow().clone();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got.len(), 4);
    }

    /// Two sleeps of one task end at the same instant: the first timer
    /// wakes the task, the poll finds both `Ready`, and the second timer
    /// must not fire into whatever the task does next.
    #[test]
    fn sleep_completed_by_a_siblings_wake_leaves_no_entry() {
        let sim = Sim::new(1);
        let polls = Rc::new(Cell::new(0));
        let (s, p) = (sim.clone(), Rc::clone(&polls));
        sim.spawn_detached(async move {
            let at = SimTime::from_us(5);
            crate::join_inline(vec![s.sleep_until(at), s.sleep_until(at)]).await;
            std::future::poll_fn(|_| {
                p.set(p.get() + 1);
                Poll::<()>::Pending
            })
            .await;
        });
        assert_eq!(sim.run_until_quiescent(), 1);
        assert_eq!(polls.get(), 1, "nothing woke the task again");
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(sim.now(), SimTime::from_us(5));
    }

    /// Regression: the deadline of a `timeout` that was beaten is not an
    /// event. Quiescence is when the last thing happened, not a second
    /// later when the dead deadline would have fired.
    #[test]
    fn dead_deadline_does_not_move_the_clock() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            crate::timeout(&s, SimDuration::from_secs(1), s.sleep_us(20)).await
        });
        assert_eq!(sim.run_until_quiescent(), 0);
        assert_eq!(sim.now(), SimTime::from_us(20));
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(h.state.borrow_mut().result.take(), Some(Some(())));

        // and the same under block_on, with time running past the deadline
        let mut sim = Sim::new(1);
        let woken = sim.block_on(|sim| async move {
            crate::timeout(&sim, SimDuration::from_ms(1), sim.sleep_us(20)).await;
            let polls = Rc::new(Cell::new(0));
            let p = Rc::clone(&polls);
            let mut nap = sim.sleep_ms(2);
            std::future::poll_fn(move |cx| {
                p.set(p.get() + 1);
                Pin::new(&mut nap).poll(cx)
            })
            .await;
            polls.get()
        });
        assert_eq!(woken, 2, "polled to register and to finish, not at 1 ms");
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

    /// A join's claim on a task's wake mask is exclusive, and only that
    /// claim gives it back: a join that outlived its task cannot release
    /// the mask of the task that reuses the id.
    #[test]
    fn a_wake_mask_is_released_only_by_its_claim() {
        let sim = Sim::new(1);
        sim.spawn_detached(std::future::pending());
        let first = sim.claim_wakes(0).expect("a fresh task's mask is free");
        assert_eq!(sim.claim_wakes(0), None, "one join holds a mask");
        sim.release_wakes(0, first.wrapping_add(1));
        assert_eq!(sim.claim_wakes(0), None, "a stale claim releases nothing");
        sim.release_wakes(0, first);
        let second = sim.claim_wakes(0).expect("released");
        assert_ne!(first, second);
        assert_eq!(sim.claim_wakes(7), None, "no such task");
    }

    // ---- task boxes ---------------------------------------------------

    /// A detached task that records the address of a local it holds
    /// across an await: one type for every call.
    fn addr_of_local(sim: &Sim, log: &Rc<RefCell<Vec<usize>>>) -> impl Future<Output = ()> {
        let (s, log) = (sim.clone(), Rc::clone(log));
        async move {
            let local = [0u8; 64];
            s.sleep_us(1).await;
            log.borrow_mut().push(std::ptr::addr_of!(local) as usize);
        }
    }

    /// A finished task's box carries the next task of its type, and tasks
    /// of two types spawned alternately each run their own body.
    #[test]
    fn a_finished_box_carries_the_next_task_of_its_type() {
        let mut sim = Sim::new(1);
        let (addrs, order) = (
            Rc::new(RefCell::new(Vec::new())),
            Rc::new(RefCell::new(Vec::new())),
        );
        let (a, o) = (Rc::clone(&addrs), Rc::clone(&order));
        sim.block_on(move |sim| async move {
            let boxes = sim.task_boxes();
            for round in 0..4 {
                if round % 2 == 0 {
                    sim.spawn_detached(addr_of_local(&sim, &a));
                } else {
                    let (nap, o) = (sim.sleep_us(1), Rc::clone(&o));
                    sim.spawn_detached(async move {
                        nap.await;
                        o.borrow_mut().push(round);
                    });
                }
                sim.sleep_us(2).await;
            }
            assert_eq!(sim.task_boxes() - boxes, 2, "one box per type");
        });
        let addrs = addrs.borrow();
        assert_eq!(addrs.len(), 2);
        assert_eq!(
            addrs[0], addrs[1],
            "the second task ran in the first one's box"
        );
        assert_eq!(*order.borrow(), vec![1, 3]);
    }

    /// A finished task's future is dropped when it finishes, not when the
    /// next task of its type takes its box.
    #[test]
    fn a_finished_task_drops_its_future_at_once() {
        /// Logs the instant it is dropped.
        struct Guard(Sim, Rc<RefCell<Vec<SimTime>>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.1.borrow_mut().push(self.0.now());
            }
        }
        /// Sleeps, holding a guard until the future itself is dropped.
        struct Guarded {
            nap: Sleep,
            _guard: Guard,
        }
        impl Future for Guarded {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                Pin::new(&mut self.nap).poll(cx)
            }
        }
        let mut sim = Sim::new(1);
        let drops = Rc::new(RefCell::new(Vec::new()));
        let d = Rc::clone(&drops);
        sim.block_on(move |sim| async move {
            let guarded = |sim: &Sim| Guarded {
                nap: sim.sleep_us(5),
                _guard: Guard(sim.clone(), Rc::clone(&d)),
            };
            sim.spawn_detached(guarded(&sim));
            sim.sleep_us(15).await;
            let boxes = sim.task_boxes();
            sim.spawn_detached(guarded(&sim));
            assert_eq!(sim.task_boxes(), boxes, "the first task's box");
            sim.sleep_us(10).await;
        });
        let want = [SimTime::from_us(5), SimTime::from_us(20)];
        assert_eq!(*drops.borrow(), want);
    }

    /// A burst of tasks of one type leaves at most [`IDLE_PER_TYPE`] of
    /// their boxes behind.
    #[test]
    fn a_burst_keeps_at_most_the_idle_limit() {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        sim.block_on(move |sim| async move {
            for _ in 0..1_000 {
                sim.spawn_detached(addr_of_local(&sim, &l));
            }
            assert_eq!(sim.live_tasks(), 1_001);
            sim.sleep_us(2).await;
            let idle = &sim.inner.tasks.borrow().idle;
            let kept: Vec<usize> = idle.values().map(Vec::len).collect();
            assert_eq!(kept, vec![IDLE_PER_TYPE]);
        });
        assert_eq!(log.borrow().len(), 1_000);
        assert!(
            sim.inner.tasks.borrow().idle.is_empty(),
            "torn down with the arena"
        );
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
