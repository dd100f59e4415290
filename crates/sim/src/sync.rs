//! Intra-simulation synchronisation: oneshot channels, mailboxes and a FIFO
//! semaphore.
//!
//! All of these are single-threaded (`Rc`-based) — they synchronise *virtual*
//! concurrency between tasks of one `Sim`, not host threads.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned when the other half of a channel was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}
impl std::error::Error for Closed {}

// ---------------------------------------------------------------- oneshot

/// A slab of oneshot reply slots, owned by whatever issues the replies
/// (an RPC endpoint, a shaper's grant gate). Each [`ReplySlots::channel`]
/// lets one slot until its receiver is dropped, so the slab holds as many
/// slots as there are replies awaited — not one heap block per channel.
///
/// A slot is stamped with a generation that moves on every time it is
/// freed, and a sender carries the stamp it was issued with: a reply sent
/// after its receiver gave up (a call dropped at its deadline) finds a
/// newer stamp, or none, and is discarded, never delivered to the slot's
/// next tenant.
pub struct ReplySlots<T> {
    slab: Rc<RefCell<Slab<T>>>,
}

struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Slots no receiver holds, reused last-freed first.
    free: Vec<u32>,
}

struct Slot<T> {
    /// Bumped each time the slot is freed.
    gen: u32,
    value: Option<T>,
    waker: Option<Waker>,
    sender_alive: bool,
}

/// Sending half of a oneshot channel (RPC reply slot).
pub struct OneshotSender<T> {
    slab: Rc<RefCell<Slab<T>>>,
    slot: u32,
    gen: u32,
}

/// Receiving half of a oneshot channel; a `Future` yielding the value.
/// Holds its slot until dropped.
pub struct OneshotReceiver<T> {
    slab: Rc<RefCell<Slab<T>>>,
    slot: u32,
}

impl<T> ReplySlots<T> {
    /// An empty slab.
    pub fn new() -> Self {
        ReplySlots {
            slab: Rc::new(RefCell::new(Slab {
                slots: Vec::new(),
                free: Vec::new(),
            })),
        }
    }

    /// Create a oneshot channel in a free slot. The receiver future
    /// resolves when the sender sends, or to `Err(Closed)` if the sender
    /// is dropped first.
    pub fn channel(&self) -> (OneshotSender<T>, OneshotReceiver<T>) {
        let mut slab = self.slab.borrow_mut();
        let slot = match slab.free.pop() {
            Some(slot) => {
                slab.slots[slot as usize].sender_alive = true;
                slot
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: more than u32::MAX replies awaited at once \
                              exceeds any simulated cluster by orders of magnitude"
                )]
                let slot = u32::try_from(slab.slots.len()).expect("reply slab overflow");
                slab.slots.push(Slot {
                    gen: 0,
                    value: None,
                    waker: None,
                    sender_alive: true,
                });
                slot
            }
        };
        let gen = slab.slots[slot as usize].gen;
        drop(slab);
        (
            OneshotSender {
                slab: Rc::clone(&self.slab),
                slot,
                gen,
            },
            OneshotReceiver {
                slab: Rc::clone(&self.slab),
                slot,
            },
        )
    }

    /// Slots let to a receiver that has not been dropped: the replies
    /// awaited right now.
    pub fn held(&self) -> usize {
        let slab = self.slab.borrow();
        slab.slots.len() - slab.free.len()
    }
}

impl<T> Default for ReplySlots<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OneshotSender<T> {
    /// Deliver the value, waking the receiver — or drop it, if the
    /// receiver is gone. Consumes the sender.
    pub fn send(self, value: T) {
        let mut slab = self.slab.borrow_mut();
        let slot = &mut slab.slots[self.slot as usize];
        if slot.gen != self.gen {
            // the receiver gave up and the slot was freed: the value is
            // dropped once the slab is released, in case it holds a
            // sender of its own
            drop(slab);
            drop(value);
            return;
        }
        slot.value = Some(value);
        if let Some(w) = slot.waker.take() {
            w.wake();
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let mut slab = self.slab.borrow_mut();
        let slot = &mut slab.slots[self.slot as usize];
        if slot.gen == self.gen {
            slot.sender_alive = false;
            if let Some(w) = slot.waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Result<T, Closed>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slab = self.slab.borrow_mut();
        let slot = &mut slab.slots[self.slot as usize];
        if let Some(v) = slot.value.take() {
            return Poll::Ready(Ok(v));
        }
        if !slot.sender_alive {
            return Poll::Ready(Err(Closed));
        }
        slot.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> Drop for OneshotReceiver<T> {
    fn drop(&mut self) {
        let mut slab = self.slab.borrow_mut();
        let slot = &mut slab.slots[self.slot as usize];
        slot.gen = slot.gen.wrapping_add(1);
        let left = (slot.value.take(), slot.waker.take());
        slab.free.push(self.slot);
        // an undelivered value or a waker is dropped with the slab released
        drop(slab);
        drop(left);
    }
}

// ---------------------------------------------------------------- mailbox

struct MailboxShared<T> {
    queue: VecDeque<T>,
    // every waiting consumer; all are woken on send and race to pop
    wakers: Vec<Waker>,
    senders: usize,
    closed: bool,
}

/// Unbounded multi-producer multi-consumer queue.
///
/// The standard way to model a server: producers `send` requests, a pool of
/// worker tasks loops on `recv`. `recv` resolves to `None` once the mailbox
/// is closed (explicitly or because every sender handle was dropped) *and*
/// drained.
pub struct Mailbox<T> {
    shared: Rc<RefCell<MailboxShared<T>>>,
    is_sender: bool,
}

impl<T> Mailbox<T> {
    /// Create an empty mailbox. The returned handle counts as one sender.
    pub fn new() -> Self {
        Mailbox {
            shared: Rc::new(RefCell::new(MailboxShared {
                queue: VecDeque::new(),
                wakers: Vec::new(),
                senders: 1,
                closed: false,
            })),
            is_sender: true,
        }
    }

    /// Enqueue an item and wake waiting consumers.
    pub fn send(&self, item: T) {
        let mut sh = self.shared.borrow_mut();
        assert!(!sh.closed, "send on closed mailbox");
        sh.queue.push_back(item);
        for w in sh.wakers.drain(..) {
            w.wake();
        }
    }

    /// Receive the next item; `None` after close-and-drain.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { mailbox: self }
    }

    /// Pop without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.borrow_mut().queue.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.shared.borrow().queue.len()
    }
    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the mailbox: consumers drain the backlog then see `None`.
    pub fn close(&self) {
        let mut sh = self.shared.borrow_mut();
        sh.closed = true;
        for w in sh.wakers.drain(..) {
            w.wake();
        }
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        self.shared.borrow_mut().senders += 1;
        Mailbox {
            shared: Rc::clone(&self.shared),
            is_sender: true,
        }
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        if self.is_sender {
            let mut sh = self.shared.borrow_mut();
            sh.senders -= 1;
            if sh.senders == 0 {
                sh.closed = true;
                for w in sh.wakers.drain(..) {
                    w.wake();
                }
            }
        }
    }
}

/// Future returned by [`Mailbox::recv`].
pub struct Recv<'a, T> {
    mailbox: &'a Mailbox<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut sh = self.mailbox.shared.borrow_mut();
        if let Some(v) = sh.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if sh.closed {
            return Poll::Ready(None);
        }
        sh.wakers.push(cx.waker().clone());
        Poll::Pending
    }
}

// -------------------------------------------------------------- semaphore

struct SemInner {
    permits: Cell<usize>,
    // FIFO queue of (ticket, want); strict ordering, no barging
    waiters: RefCell<VecDeque<WaitEnt>>,
    next_ticket: Cell<u64>,
}

struct WaitEnt {
    ticket: u64,
    want: usize,
    waker: Option<Waker>,
}

/// A strict-FIFO counting semaphore.
///
/// Models bounded service concurrency (FUSE daemon threads, engine
/// xstreams, a device queue depth). Waiters are served in arrival order even
/// when a later, smaller request could be satisfied first — matching a FIFO
/// request queue rather than a work-conserving allocator.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<SemInner>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initially available slots.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(SemInner {
                permits: Cell::new(permits),
                waiters: RefCell::new(VecDeque::new()),
                next_ticket: Cell::new(0),
            }),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.permits.get()
    }

    /// Number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.inner.waiters.borrow().len()
    }

    /// Acquire one permit.
    pub fn acquire(&self) -> Acquire {
        self.acquire_n(1)
    }

    /// Acquire `n` permits atomically (FIFO, head-of-line blocking).
    pub fn acquire_n(&self, n: usize) -> Acquire {
        let ticket = self.inner.next_ticket.get();
        self.inner.next_ticket.set(ticket + 1);
        Acquire {
            sem: self.clone(),
            want: n,
            ticket,
            queued: false,
            done: false,
        }
    }

    fn release(&self, n: usize) {
        self.inner.permits.set(self.inner.permits.get() + n);
        self.wake_head();
    }

    fn wake_head(&self) {
        let mut ws = self.inner.waiters.borrow_mut();
        if let Some(head) = ws.front_mut() {
            if self.inner.permits.get() >= head.want {
                if let Some(w) = head.waker.take() {
                    w.wake();
                }
            }
        }
    }
}

/// Future returned by [`Semaphore::acquire`]; resolves to a guard that
/// releases the permits when dropped.
pub struct Acquire {
    sem: Semaphore,
    want: usize,
    ticket: u64,
    queued: bool,
    done: bool,
}

impl Future for Acquire {
    type Output = SemaphorePermit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = Rc::clone(&self.sem.inner);
        let mut ws = inner.waiters.borrow_mut();
        let at_head = ws.front().map(|w| w.ticket) == Some(self.ticket);
        let eligible = if self.queued { at_head } else { ws.is_empty() };
        if eligible && inner.permits.get() >= self.want {
            inner.permits.set(inner.permits.get() - self.want);
            if self.queued {
                ws.pop_front();
            }
            drop(ws);
            self.done = true;
            // next waiter may also be satisfiable
            self.sem.wake_head();
            return Poll::Ready(SemaphorePermit {
                sem: self.sem.clone(),
                n: self.want,
            });
        }
        if self.queued {
            if let Some(ent) = ws.iter_mut().find(|w| w.ticket == self.ticket) {
                ent.waker = Some(cx.waker().clone());
            }
        } else {
            self.queued = true;
            ws.push_back(WaitEnt {
                ticket: self.ticket,
                want: self.want,
                waker: Some(cx.waker().clone()),
            });
        }
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.done || !self.queued {
            return;
        }
        // cancelled while queued: dequeue and let the next waiter through
        let mut ws = self.sem.inner.waiters.borrow_mut();
        if let Some(pos) = ws.iter().position(|w| w.ticket == self.ticket) {
            ws.remove(pos);
        }
        drop(ws);
        self.sem.wake_head();
    }
}

/// Guard holding semaphore permits; released on drop.
pub struct SemaphorePermit {
    sem: Semaphore,
    n: usize,
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        self.sem.release(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{join_all, Sim};
    use crate::time::SimTime;

    #[test]
    fn oneshot_delivers() {
        let mut sim = Sim::new(1);
        let v = sim.block_on(|sim| async move {
            let slots = ReplySlots::new();
            let (tx, rx) = slots.channel();
            sim.spawn_detached({
                let s = sim.clone();
                async move {
                    s.sleep_us(3).await;
                    tx.send(42);
                }
            });
            assert_eq!(slots.held(), 1);
            rx.await.unwrap()
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn oneshot_sender_drop_closes() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(|_sim| async move {
            let (tx, rx) = ReplySlots::<u32>::new().channel();
            drop(tx);
            rx.await
        });
        assert_eq!(r, Err(Closed));
    }

    /// A slot is held exactly while its receiver lives, whichever half
    /// goes first and whether or not a value was sent.
    #[test]
    fn a_slot_is_held_while_its_receiver_lives() {
        let slots = ReplySlots::<String>::new();
        let (tx, rx) = slots.channel();
        tx.send("unread".into());
        assert_eq!(slots.held(), 1, "a delivered value waits in its slot");
        drop(rx);
        assert_eq!(slots.held(), 0);
        let (tx, rx) = slots.channel();
        drop(rx);
        assert_eq!(slots.held(), 0, "the sender does not hold the slot");
        tx.send("late".into());
        let pairs: Vec<_> = (0..3).map(|_| slots.channel()).collect();
        assert_eq!(slots.held(), 3);
        drop(pairs);
        assert_eq!(slots.held(), 0);
        assert_eq!(
            slots.slab.borrow().slots.len(),
            3,
            "slots are reused, not added"
        );
    }

    /// A sender whose receiver gave up cannot reach the slot's next
    /// tenant: its value is dropped, and so is its close.
    #[test]
    fn a_late_reply_to_a_recycled_slot_is_discarded() {
        let slots = ReplySlots::<u32>::new();
        let (late, abandoned) = slots.channel();
        drop(abandoned);
        let (silent, abandoned) = slots.channel();
        drop(abandoned);
        let (tx, mut rx) = slots.channel();
        assert_eq!(
            (late.slot, silent.slot),
            (tx.slot, tx.slot),
            "one slot, thrice let"
        );
        let mut poll = || Pin::new(&mut rx).poll(&mut Context::from_waker(Waker::noop()));
        late.send(7);
        drop(silent);
        assert_eq!(
            poll(),
            Poll::Pending,
            "neither the value nor the close arrived"
        );
        tx.send(8);
        assert_eq!(poll(), Poll::Ready(Ok(8)));
    }

    #[test]
    fn mailbox_fifo_single_consumer() {
        let mut sim = Sim::new(1);
        let got = sim.block_on(|sim| async move {
            let mb: Mailbox<u32> = Mailbox::new();
            let tx = mb.clone();
            sim.spawn_detached({
                let s = sim.clone();
                async move {
                    for i in 0..5 {
                        s.sleep_us(1).await;
                        tx.send(i);
                    }
                }
            });
            let mut got = Vec::new();
            for _ in 0..5 {
                got.push(mb.recv().await.unwrap());
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mailbox_close_drains_then_none() {
        let mut sim = Sim::new(1);
        let got = sim.block_on(|_sim| async move {
            let mb: Mailbox<u32> = Mailbox::new();
            mb.send(1);
            mb.send(2);
            mb.close();
            let mut got = Vec::new();
            while let Some(v) = mb.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn mailbox_worker_pool_consumes_all() {
        let mut sim = Sim::new(1);
        let n = sim.block_on(|sim| async move {
            let mb: Mailbox<u32> = Mailbox::new();
            let counter = Rc::new(Cell::new(0u32));
            let mut workers = Vec::new();
            for _ in 0..4 {
                let rx = mb.clone();
                let c = Rc::clone(&counter);
                let s = sim.clone();
                workers.push(sim.spawn(async move {
                    // worker clones are also senders; rely on explicit close
                    loop {
                        let Some(_v) = rx.try_recv() else {
                            if rx.shared.borrow().closed {
                                break;
                            }
                            s.sleep_us(1).await;
                            continue;
                        };
                        s.sleep_us(2).await;
                        c.set(c.get() + 1);
                    }
                }));
            }
            for i in 0..20 {
                mb.send(i);
            }
            mb.close();
            for w in workers {
                w.await;
            }
            counter.get()
        });
        assert_eq!(n, 20);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let mut sim = Sim::new(1);
        let end = sim.block_on(|sim| async move {
            let sem = Semaphore::new(2);
            // 6 jobs of 10us with 2 slots -> 30us total
            let futs: Vec<_> = (0..6)
                .map(|_| {
                    let sem = sem.clone();
                    let s = sim.clone();
                    async move {
                        let _g = sem.acquire().await;
                        s.sleep_us(10).await;
                    }
                })
                .collect();
            join_all(&sim, futs).await;
            sim.now()
        });
        assert_eq!(end, SimTime::from_us(30));
    }

    #[test]
    fn semaphore_fifo_no_barging() {
        let mut sim = Sim::new(1);
        let order = sim.block_on(|sim| async move {
            let sem = Semaphore::new(2);
            let order = Rc::new(RefCell::new(Vec::new()));
            let hold = sem.acquire_n(2).await;
            let mut hs = Vec::new();
            // big request arrives first, then small ones; small must wait
            for (i, want) in [(0u32, 2usize), (1, 1), (2, 1)] {
                let sem = sem.clone();
                let ord = Rc::clone(&order);
                let s = sim.clone();
                hs.push(sim.spawn(async move {
                    // stagger arrival order deterministically
                    s.sleep_ns(i as u64 + 1).await;
                    let _g = sem.acquire_n(want).await;
                    ord.borrow_mut().push(i);
                    s.sleep_us(1).await;
                }));
            }
            sim.sleep_us(1).await;
            drop(hold);
            for h in hs {
                h.await;
            }
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn semaphore_cancel_unblocks_queue() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let sem = Semaphore::new(1);
            let g = sem.acquire().await;
            // queue a waiter then cancel it
            let mut fut = Box::pin(sem.acquire_n(1));
            // poll once to enqueue
            let s2 = sim.clone();
            let h = sim.spawn(async move {
                s2.sleep_us(1).await;
            });
            futures_poll_once(&mut fut);
            drop(fut); // cancelled
            drop(g);
            // a fresh acquire must succeed immediately
            let _g2 = sem.acquire().await;
            h.await;
        });
    }

    /// Poll a future exactly once with a no-op waker (test helper).
    fn futures_poll_once<F: Future + Unpin>(f: &mut F) {
        use std::sync::Arc;
        use std::task::Wake;
        struct Nop;
        impl Wake for Nop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = std::task::Waker::from(Arc::new(Nop));
        let mut cx = Context::from_waker(&waker);
        let _ = Pin::new(f).poll(&mut cx);
    }
}
