//! Flow-level bandwidth resources.
//!
//! A [`Pipe`] models a serial resource with finite bandwidth — a NIC port, a
//! link, a memory channel, an SSD — as a FIFO: each transfer occupies the
//! pipe for `bytes / bandwidth` and completes after an additional fixed
//! latency. Because upper layers chunk large transfers (RPC segments, FUSE
//! requests), FIFO granularity approximates fair sharing well while staying
//! O(1) per transfer.

use std::cell::Cell;
use std::rc::Rc;

use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;

/// A FIFO bandwidth resource with fixed per-transfer latency.
pub struct Pipe {
    name: String,
    bw: Bandwidth,
    latency: SimDuration,
    next_free: Cell<u64>,
    busy_ns: Cell<u64>,
    bytes_total: Cell<u64>,
    ops_total: Cell<u64>,
}

/// Shared handle to a [`Pipe`].
pub type SharedPipe = Rc<Pipe>;

impl Pipe {
    /// Create a pipe with the given bandwidth and fixed latency.
    pub fn new(name: impl Into<String>, bw: Bandwidth, latency: SimDuration) -> SharedPipe {
        Rc::new(Pipe {
            name: name.into(),
            bw,
            latency,
            next_free: Cell::new(0),
            busy_ns: Cell::new(0),
            bytes_total: Cell::new(0),
            ops_total: Cell::new(0),
        })
    }

    /// The pipe's configured bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bw
    }
    /// The pipe's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Move `bytes` through the pipe, waiting for queueing, serialisation
    /// and latency. Returns the time the transfer completed.
    pub async fn transfer(&self, sim: &Sim, bytes: u64) -> SimTime {
        let now = sim.now().as_ns();
        let start = now.max(self.next_free.get());
        let busy = self.bw.ns_for(bytes);
        self.next_free.set(start + busy);
        self.busy_ns.set(self.busy_ns.get() + busy);
        self.bytes_total.set(self.bytes_total.get() + bytes);
        self.ops_total.set(self.ops_total.get() + 1);
        let done = SimTime::from_ns(start + busy) + self.latency;
        sim.sleep_until(done).await;
        done
    }

    /// Occupy the pipe for a fixed duration (control-plane work with no
    /// byte payload, e.g. a metadata op on a device).
    pub async fn occupy(&self, sim: &Sim, dur: SimDuration) -> SimTime {
        let now = sim.now().as_ns();
        let start = now.max(self.next_free.get());
        self.next_free.set(start + dur.as_ns());
        self.busy_ns.set(self.busy_ns.get() + dur.as_ns());
        self.ops_total.set(self.ops_total.get() + 1);
        let done = SimTime::from_ns(start + dur.as_ns()) + self.latency;
        sim.sleep_until(done).await;
        done
    }

    /// Reserve capacity for `bytes` without waiting, constrained to start no
    /// earlier than `earliest` (ns). Returns `(start, end)` of the busy
    /// interval. Used by multi-hop paths (NIC→wire→NIC) that compute a
    /// pipelined completion time across several pipes and sleep once.
    pub fn reserve_after(&self, earliest: u64, bytes: u64) -> (u64, u64) {
        let start = earliest.max(self.next_free.get());
        let busy = self.bw.ns_for(bytes);
        self.next_free.set(start + busy);
        self.busy_ns.set(self.busy_ns.get() + busy);
        self.bytes_total.set(self.bytes_total.get() + bytes);
        self.ops_total.set(self.ops_total.get() + 1);
        (start, start + busy)
    }

    /// Start a batch of reservations: the pipe's flow state is read once
    /// into locals, arbitrarily many [`PipeBatch::reserve_after`] calls run
    /// against them (identical arithmetic, per-call rounding included), and
    /// one commit writes the state back when the batch drops. This is the
    /// fast path for frame-pipelined multi-hop transfers, which otherwise
    /// touch the counters once per frame.
    pub fn batch(&self) -> PipeBatch<'_> {
        PipeBatch {
            pipe: self,
            next_free: self.next_free.get(),
            busy_ns: 0,
            bytes: 0,
            ops: 0,
        }
    }

    /// This pipe's fixed per-transfer latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// How long a transfer arriving `now` would wait before starting
    /// (current backlog depth in time units).
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        SimDuration(self.next_free.get().saturating_sub(now.as_ns()))
    }

    /// Total bytes moved so far.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total.get()
    }
    /// Total transfers so far.
    pub fn ops_total(&self) -> u64 {
        self.ops_total.get()
    }
    /// Fraction of `[0, now]` during which the pipe was busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_ns() == 0 {
            return 0.0;
        }
        self.busy_ns.get() as f64 / now.as_ns() as f64
    }
}

/// In-progress batched reservation on a [`Pipe`]; see [`Pipe::batch`].
///
/// Per-call math is exactly [`Pipe::reserve_after`]'s — same `ns_for`
/// rounding per call — only the counter updates are deferred to drop.
pub struct PipeBatch<'a> {
    pipe: &'a Pipe,
    next_free: u64,
    busy_ns: u64,
    bytes: u64,
    ops: u64,
}

impl PipeBatch<'_> {
    /// Batched [`Pipe::reserve_after`].
    pub fn reserve_after(&mut self, earliest: u64, bytes: u64) -> (u64, u64) {
        let start = earliest.max(self.next_free);
        let busy = self.pipe.bw.ns_for(bytes);
        self.next_free = start + busy;
        self.busy_ns += busy;
        self.bytes += bytes;
        self.ops += 1;
        (start, start + busy)
    }
}

impl Drop for PipeBatch<'_> {
    fn drop(&mut self) {
        let p = self.pipe;
        p.next_free.set(self.next_free);
        p.busy_ns.set(p.busy_ns.get() + self.busy_ns);
        p.bytes_total.set(p.bytes_total.get() + self.bytes);
        p.ops_total.set(p.ops_total.get() + self.ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::join_all;
    use crate::units::MIB;

    fn mk(bw_gib: f64, lat_us: u64) -> (Sim, SharedPipe) {
        let sim = Sim::new(1);
        let pipe = Pipe::new(
            "test",
            Bandwidth::gib_per_sec(bw_gib),
            SimDuration::from_us(lat_us),
        );
        (sim, pipe)
    }

    #[test]
    fn single_transfer_time_is_size_over_bw_plus_latency() {
        let (mut sim, pipe) = mk(1.0, 10);
        let t = sim.block_on(|sim| {
            let pipe = Rc::clone(&pipe);
            async move {
                pipe.transfer(&sim, MIB).await;
                sim.now()
            }
        });
        // 1 MiB at 1 GiB/s = 2^20/2^30 s = ~976.6us, plus 10us latency
        let expect_ns = Bandwidth::gib_per_sec(1.0).ns_for(MIB) + 10_000;
        assert_eq!(t.as_ns(), expect_ns);
    }

    #[test]
    fn back_to_back_transfers_serialise() {
        let (mut sim, pipe) = mk(1.0, 0);
        let t = sim.block_on(|sim| {
            let pipe = Rc::clone(&pipe);
            async move {
                let futs: Vec<_> = (0..4)
                    .map(|_| {
                        let p = Rc::clone(&pipe);
                        let s = sim.clone();
                        async move {
                            p.transfer(&s, MIB).await;
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
                sim.now()
            }
        });
        let one = Bandwidth::gib_per_sec(1.0).ns_for(MIB);
        assert_eq!(t.as_ns(), 4 * one);
        assert_eq!(pipe.bytes_total(), 4 * MIB);
        assert_eq!(pipe.ops_total(), 4);
    }

    #[test]
    fn latency_overlaps_between_transfers() {
        // With latency L, two transfers finish at b+L and 2b+L (pipelined),
        // not 2(b+L): latency is propagation, not occupancy.
        let (mut sim, pipe) = mk(1.0, 100);
        let ends = sim.block_on(|sim| {
            let pipe = Rc::clone(&pipe);
            async move {
                let futs: Vec<_> = (0..2)
                    .map(|_| {
                        let p = Rc::clone(&pipe);
                        let s = sim.clone();
                        async move { p.transfer(&s, MIB).await.as_ns() }
                    })
                    .collect();
                join_all(&sim, futs).await
            }
        });
        let b = Bandwidth::gib_per_sec(1.0).ns_for(MIB);
        assert_eq!(ends[0], b + 100_000);
        assert_eq!(ends[1], 2 * b + 100_000);
    }

    #[test]
    fn occupy_blocks_like_transfer() {
        let (mut sim, pipe) = mk(1.0, 0);
        let t = sim.block_on(|sim| {
            let pipe = Rc::clone(&pipe);
            async move {
                pipe.occupy(&sim, SimDuration::from_us(7)).await;
                pipe.occupy(&sim, SimDuration::from_us(7)).await;
                sim.now()
            }
        });
        assert_eq!(t, SimTime::from_us(14));
    }

    #[test]
    fn batched_reservations_match_direct_calls() {
        let (_, direct) = mk(1.5, 3);
        let (_, batched) = mk(1.5, 3);
        let frames = [128 * 1024u64, 128 * 1024, 77_777, 1, 0];
        let mut direct_ends = Vec::new();
        for (i, &f) in frames.iter().enumerate() {
            direct_ends.push(direct.reserve_after(i as u64 * 10, f));
        }
        let mut batch_ends = Vec::new();
        {
            let mut b = batched.batch();
            for (i, &f) in frames.iter().enumerate() {
                batch_ends.push(b.reserve_after(i as u64 * 10, f));
            }
        }
        assert_eq!(direct_ends, batch_ends);
        assert_eq!(direct.bytes_total(), batched.bytes_total());
        assert_eq!(direct.ops_total(), batched.ops_total());
        assert_eq!(
            direct.queue_delay(SimTime::ZERO),
            batched.queue_delay(SimTime::ZERO)
        );
        assert_eq!(
            direct.utilization(SimTime::from_us(1)),
            batched.utilization(SimTime::from_us(1))
        );
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let (mut sim, pipe) = mk(1.0, 0);
        sim.block_on(|sim| {
            let pipe = Rc::clone(&pipe);
            async move {
                pipe.transfer(&sim, MIB).await;
                let b = Bandwidth::gib_per_sec(1.0).ns_for(MIB);
                sim.sleep(SimDuration::from_ns(b)).await;
            }
        });
        let b = Bandwidth::gib_per_sec(1.0).ns_for(MIB);
        let u = pipe.utilization(SimTime::from_ns(2 * b));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
    }
}
