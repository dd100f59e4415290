//! # daos-fabric — OFI-like network fabric model
//!
//! DAOS uses libfabric/OFI over a low-latency interconnect (Omni-Path on the
//! paper's NEXTGenIO testbed). We model the fabric at flow level:
//!
//! * each node owns a full-duplex NIC — independent `tx` and `rx`
//!   [`Pipe`]s at link rate;
//! * the switch is non-blocking (true for the 8–40 node scales here), so a
//!   message's cost is injection (tx), wire latency, and ejection (rx);
//! * large messages are *pipelined* in frames: the transmit of frame `i+1`
//!   overlaps the receive of frame `i`, so one flow reaches line rate while
//!   still contending frame-by-frame with other flows at both endpoints —
//!   this is what produces realistic incast behaviour at the servers.
//!
//! [`Endpoint`] adds an addressable RPC surface on top: register a handler
//! mailbox per node, `call` from anywhere, get a reply future.
//!
//! ## Fault injection
//!
//! The fabric carries mutable fault state — down nodes, pairwise
//! partitions, a uniform message-loss rate and a latency spike — driven by
//! a harness (see `daos_sim::fault`). [`Endpoint::call_deadline`] observes
//! it: an undeliverable request or a lost reply surfaces as
//! [`CallError::Timeout`] after the caller's deadline, exactly as a real
//! Mercury/OFI RPC would. The plain [`Endpoint::call`] fast-fails with
//! `Closed` instead (fire-and-forget callers like the raft wire treat that
//! as message loss).

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]
// P01: nothing on a simulated path panics. A site that cannot fail says
// why in `#[expect(clippy::…, reason = "INVARIANT: …")]`; tests may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use daos_sim::sync::OneshotSender;
use daos_sim::time::{SimDuration, SimTime};
use daos_sim::units::Bandwidth;
use daos_sim::{Pipe, ReplySlots, SharedPipe, Sim};

/// Index of a node on the fabric.
pub type NodeId = usize;

/// Fabric-wide parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Per-direction link bandwidth at every NIC.
    pub link_bw: Bandwidth,
    /// One-way wire + switch latency.
    pub wire_latency: SimDuration,
    /// Pipelining frame: unit of overlap between tx and rx.
    pub frame: u64,
    /// Sender-side CPU cost to inject one message (doorbell, descriptor).
    pub per_msg_cpu: SimDuration,
    /// Bandwidth of the intra-node loopback path (shared-memory copy).
    pub loopback_bw: Bandwidth,
}

impl Default for FabricConfig {
    /// 100 Gb/s Omni-Path-class fabric.
    fn default() -> Self {
        FabricConfig {
            link_bw: Bandwidth::gbit_per_sec(100.0),
            wire_latency: SimDuration::from_ns(1_100),
            frame: 128 * 1024,
            per_msg_cpu: SimDuration::from_ns(300),
            loopback_bw: Bandwidth::gib_per_sec(20.0),
        }
    }
}

struct NodeNet {
    tx: SharedPipe,
    rx: SharedPipe,
    loopback: SharedPipe,
}

/// Injected fault state carried by the fabric (all healthy by default).
struct FaultState {
    /// Nodes whose NICs are dark: nothing to or from them is delivered.
    down: RefCell<BTreeSet<NodeId>>,
    /// Severed pairs, stored normalised as `(min, max)`.
    partitions: RefCell<BTreeSet<(NodeId, NodeId)>>,
    /// Uniform message loss, parts per million (0 = lossless).
    drop_ppm: Cell<u32>,
    /// xorshift64 state for loss rolls; seeded with the loss rate.
    drop_rng: Cell<u64>,
    /// Added one-way latency on every inter-node message.
    extra_latency: Cell<u64>,
}

/// The interconnect: a set of NICs plus a non-blocking switch.
pub struct Fabric {
    cfg: FabricConfig,
    nodes: Vec<NodeNet>,
    fault: FaultState,
}

impl Fabric {
    /// Build a fabric with `n` nodes.
    pub fn new(n: usize, cfg: FabricConfig) -> Rc<Self> {
        let nodes = (0..n)
            .map(|i| NodeNet {
                tx: Pipe::new(format!("nic{i}.tx"), cfg.link_bw, SimDuration::ZERO),
                rx: Pipe::new(format!("nic{i}.rx"), cfg.link_bw, SimDuration::ZERO),
                loopback: Pipe::new(format!("nic{i}.lo"), cfg.loopback_bw, SimDuration::ZERO),
            })
            .collect();
        Rc::new(Fabric {
            cfg,
            nodes,
            fault: FaultState {
                down: RefCell::new(BTreeSet::new()),
                partitions: RefCell::new(BTreeSet::new()),
                drop_ppm: Cell::new(0),
                drop_rng: Cell::new(1),
                extra_latency: Cell::new(0),
            },
        })
    }

    // ------------------------------------------------------- fault hooks

    /// Take `node`'s NIC dark: nothing to or from it is delivered until
    /// [`Fabric::set_node_up`].
    pub fn set_node_down(&self, node: NodeId) {
        self.fault.down.borrow_mut().insert(node);
    }
    /// Restore a dark node's NIC.
    pub fn set_node_up(&self, node: NodeId) {
        self.fault.down.borrow_mut().remove(&node);
    }
    /// Sever connectivity between `a` and `b` (both directions).
    pub fn partition_between(&self, a: NodeId, b: NodeId) {
        self.fault
            .partitions
            .borrow_mut()
            .insert((a.min(b), a.max(b)));
    }
    /// Remove all partitions and message loss (dark nodes stay dark: they
    /// model crashed hosts, not links).
    pub fn heal_all(&self) {
        self.fault.partitions.borrow_mut().clear();
        self.fault.drop_ppm.set(0);
    }
    /// Drop messages uniformly at `ppm` parts per million, rolled from a
    /// deterministic stream seeded with `seed`.
    pub fn set_drop_rate(&self, ppm: u32, seed: u64) {
        assert!(ppm <= 1_000_000);
        self.fault.drop_ppm.set(ppm);
        self.fault.drop_rng.set(seed | 1);
    }
    /// Add `extra` one-way latency to every inter-node message.
    pub fn set_extra_latency(&self, extra: SimDuration) {
        self.fault.extra_latency.set(extra.as_ns());
    }

    /// Whether a message from `from` could currently reach `to`: both NICs
    /// lit and no partition between them. Does not roll message loss.
    pub fn deliverable(&self, from: NodeId, to: NodeId) -> bool {
        let down = self.fault.down.borrow();
        if down.contains(&from) || down.contains(&to) {
            return false;
        }
        self.fault
            .partitions
            .borrow()
            .get(&(from.min(to), from.max(to)))
            .is_none()
    }

    /// One message-loss roll against the configured drop rate.
    fn dropped(&self) -> bool {
        let ppm = self.fault.drop_ppm.get();
        if ppm == 0 {
            return false;
        }
        let mut s = self.fault.drop_rng.get();
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.fault.drop_rng.set(s);
        s % 1_000_000 < ppm as u64
    }

    /// Combined admission check for one message attempt: connectivity plus
    /// a loss roll. Mutates the loss stream, so call once per attempt.
    fn admit(&self, from: NodeId, to: NodeId) -> bool {
        self.deliverable(from, to) && !self.dropped()
    }

    /// Number of nodes on the fabric.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
    /// True if the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Move `bytes` from `from` to `to`, returning the completion instant.
    ///
    /// Pipelined across tx/rx in `frame`-sized units; contends FIFO with
    /// concurrent flows at both NICs. Zero-byte messages still pay wire
    /// latency and injection cost (control traffic).
    pub async fn message(&self, sim: &Sim, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        let done = self.reserve_message(sim, from, to, bytes);
        sim.sleep_until(done).await;
        done
    }

    /// Reservation-only variant of [`Fabric::message`]: books the NIC time
    /// and returns the completion instant without awaiting it.
    pub fn reserve_message(&self, sim: &Sim, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        let now = sim.now().as_ns();
        let cpu = self.cfg.per_msg_cpu.as_ns();
        if from == to {
            let lo = &self.nodes[from].loopback;
            let (_, end) = lo.reserve_after(now + cpu, bytes);
            return SimTime::from_ns(end + 200); // shared-memory handoff
        }
        // batched: one read/commit of each NIC's flow state for the whole
        // frame train instead of per-frame counter traffic (the per-frame
        // arithmetic, rounding included, is unchanged)
        let mut tx = self.nodes[from].tx.batch();
        let mut rx = self.nodes[to].rx.batch();
        let wire = self.cfg.wire_latency.as_ns() + self.fault.extra_latency.get();
        let mut remaining = bytes;
        let mut done = now + cpu + wire; // covers the zero-byte case
        let mut first = true;
        while remaining > 0 || first {
            let frame = remaining.min(self.cfg.frame);
            let earliest = if first { now + cpu } else { now };
            let (_, tx_end) = tx.reserve_after(earliest, frame);
            let (_, rx_end) = rx.reserve_after(tx_end + wire, frame);
            done = rx_end;
            remaining -= frame;
            first = false;
        }
        SimTime::from_ns(done)
    }

    /// Deliver a header-only *control* message (RPC without bulk data) on
    /// the eager lane: it pays injection, serialization and wire latency
    /// but does not queue behind bulk frames. Packet interleaving and
    /// virtual-lane arbitration give small control messages bounded delay
    /// on a loaded real fabric — without this, a heartbeat stuck behind
    /// megabytes of bulk data looks exactly like a dead engine and the
    /// failure detector melts down under saturating I/O.
    pub async fn message_control(
        &self,
        sim: &Sim,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> SimTime {
        let now = sim.now().as_ns();
        let cpu = self.cfg.per_msg_cpu.as_ns();
        let done = if from == to {
            now + cpu + self.cfg.loopback_bw.ns_for(bytes) + 200
        } else {
            let wire = self.cfg.wire_latency.as_ns() + self.fault.extra_latency.get();
            now + cpu + self.cfg.link_bw.ns_for(bytes) + wire
        };
        let done = SimTime::from_ns(done);
        sim.sleep_until(done).await;
        done
    }

    /// Total bytes ejected at `node` (received).
    pub fn rx_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node].rx.bytes_total()
    }
    /// Total bytes injected at `node` (sent).
    pub fn tx_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node].tx.bytes_total()
    }
}

// ----------------------------------------------------------------- RPC

/// Why an RPC issued with [`Endpoint::call_deadline`] failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallError {
    /// No response within the caller's deadline: the request or reply was
    /// undeliverable (dark NIC, partition, loss) or the server stalled.
    Timeout,
    /// The endpoint dropped the request without replying (server teardown
    /// or a crash racing the in-flight RPC) — a connection reset.
    Closed,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Timeout => write!(f, "rpc deadline exceeded"),
            CallError::Closed => write!(f, "rpc endpoint closed"),
        }
    }
}

impl std::error::Error for CallError {}

impl From<daos_sim::sync::Closed> for CallError {
    fn from(_: daos_sim::sync::Closed) -> Self {
        CallError::Closed
    }
}

/// An in-flight RPC delivered to a handler, with a reply slot.
pub struct Incoming<Req, Rsp> {
    /// Originating node.
    pub from: NodeId,
    /// The request body.
    pub req: Req,
    /// Payload size the caller attached (already charged on the wire).
    pub bulk_in: u64,
    reply: OneshotSender<(Rsp, u64)>,
}

impl<Req, Rsp> Incoming<Req, Rsp> {
    /// Complete the RPC. `bulk_out` is the size of any bulk payload carried
    /// by the response (e.g. read data); it is charged on the reply path.
    pub fn respond(self, rsp: Rsp, bulk_out: u64) {
        self.reply.send((rsp, bulk_out));
    }

    /// Split into the request body and a detached [`Responder`], so a
    /// handler can consume the request by value (no clone) while keeping
    /// the reply slot to complete later.
    pub fn split(self) -> (Req, Responder<Rsp>) {
        (
            self.req,
            Responder {
                from: self.from,
                bulk_in: self.bulk_in,
                reply: self.reply,
            },
        )
    }
}

/// The reply half of a split [`Incoming`]; see [`Incoming::split`].
pub struct Responder<Rsp> {
    /// Originating node.
    pub from: NodeId,
    /// Payload size the caller attached (already charged on the wire).
    pub bulk_in: u64,
    reply: OneshotSender<(Rsp, u64)>,
}

impl<Rsp> Responder<Rsp> {
    /// Complete the RPC; same contract as [`Incoming::respond`].
    pub fn respond(self, rsp: Rsp, bulk_out: u64) {
        self.reply.send((rsp, bulk_out));
    }
}

/// A mailbox-backed RPC endpoint bound to one fabric node.
///
/// Servers `serve()` requests; clients `call()` them. Request and response
/// wire costs are charged on the fabric, including bulk payloads, which is
/// how RDMA transfers appear at flow level.
pub struct Endpoint<Req, Rsp> {
    fabric: Rc<Fabric>,
    node: NodeId,
    inbox: daos_sim::Mailbox<Incoming<Req, Rsp>>,
    /// One reply slot per call awaiting its response: a call frees its
    /// slot when it returns or is dropped, whatever the server does.
    replies: ReplySlots<(Rsp, u64)>,
    /// Fixed request header size on the wire.
    header: u64,
    calls: RefCell<u64>,
    /// False while the owning service is crashed: requests are not
    /// admitted, distinct from `close()` which tears the inbox down.
    online: Cell<bool>,
}

impl<Req: 'static, Rsp: 'static> Endpoint<Req, Rsp> {
    /// Bind an endpoint to `node`.
    pub fn bind(fabric: Rc<Fabric>, node: NodeId) -> Rc<Self> {
        Rc::new(Endpoint {
            fabric,
            node,
            inbox: daos_sim::Mailbox::new(),
            replies: ReplySlots::new(),
            header: 256,
            calls: RefCell::new(0),
            online: Cell::new(true),
        })
    }

    /// The node this endpoint is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mark the endpoint (un)reachable — a crashed or restarted service.
    pub fn set_online(&self, online: bool) {
        self.online.set(online);
    }

    /// Number of calls issued to this endpoint so far, by [`Endpoint::call`]
    /// and [`Endpoint::call_deadline`] alike: the ones that fast-failed as
    /// undeliverable or offline count too, served or not.
    pub fn call_count(&self) -> u64 {
        *self.calls.borrow()
    }

    /// Reply slots held right now: the calls awaiting a response.
    pub fn replies_held(&self) -> usize {
        self.replies.held()
    }

    /// Receive the next incoming RPC (server side). `None` once closed.
    pub async fn serve(&self) -> Option<Incoming<Req, Rsp>> {
        self.inbox.recv().await
    }

    /// Non-blocking receive: the next queued RPC, if any (poll-driven
    /// servers such as the pool-service replica tick loop).
    pub fn try_serve(&self) -> Option<Incoming<Req, Rsp>> {
        self.inbox.try_recv()
    }

    /// Stop accepting new requests.
    pub fn close(&self) {
        self.inbox.close();
    }

    /// One wire leg of an RPC: header-only messages (no bulk attached)
    /// ride the fabric's eager control lane; anything carrying data takes
    /// the bulk path and contends with other flows.
    async fn wire(&self, sim: &Sim, from: NodeId, to: NodeId, bulk: u64) {
        if bulk == 0 {
            self.fabric
                .message_control(sim, from, to, self.header)
                .await;
        } else {
            self.fabric.message(sim, from, to, self.header + bulk).await;
        }
    }

    /// Issue an RPC from `from_node` to this endpoint.
    ///
    /// `bulk_in` bytes ride the request (write payloads); the response
    /// carries whatever the handler attaches (read payloads).
    pub async fn call(
        &self,
        sim: &Sim,
        from_node: NodeId,
        req: Req,
        bulk_in: u64,
    ) -> Result<Rsp, daos_sim::sync::Closed> {
        *self.calls.borrow_mut() += 1;
        if !self.fabric.admit(from_node, self.node) || !self.online.get() {
            // fast-fail for fire-and-forget callers: the message is gone
            return Err(daos_sim::sync::Closed);
        }
        self.wire(sim, from_node, self.node, bulk_in).await;
        let (tx, rx) = self.replies.channel();
        self.inbox.send(Incoming {
            from: from_node,
            req,
            bulk_in,
            reply: tx,
        });
        let (rsp, bulk_out) = rx.await?;
        if !self.fabric.admit(self.node, from_node) {
            return Err(daos_sim::sync::Closed);
        }
        self.wire(sim, self.node, from_node, bulk_out).await;
        Ok(rsp)
    }

    /// Issue an RPC with a deadline: like [`Endpoint::call`], but injected
    /// faults surface as [`CallError::Timeout`] after `deadline` elapses
    /// instead of failing fast — the behaviour a resilient client retries
    /// against. A reply lost on the return path also burns the full
    /// deadline, like a real RPC whose ack vanished.
    pub async fn call_deadline(
        &self,
        sim: &Sim,
        from_node: NodeId,
        req: Req,
        bulk_in: u64,
        deadline: SimDuration,
    ) -> Result<Rsp, CallError> {
        *self.calls.borrow_mut() += 1;
        if !self.fabric.admit(from_node, self.node) || !self.online.get() {
            sim.sleep(deadline).await;
            return Err(CallError::Timeout);
        }
        let attempt = async {
            self.wire(sim, from_node, self.node, bulk_in).await;
            let (tx, rx) = self.replies.channel();
            self.inbox.send(Incoming {
                from: from_node,
                req,
                bulk_in,
                reply: tx,
            });
            let (rsp, bulk_out) = rx.await?;
            if !self.fabric.admit(self.node, from_node) {
                // reply lost in flight: stall until the deadline fires
                std::future::pending::<()>().await;
            }
            self.wire(sim, self.node, from_node, bulk_out).await;
            Ok::<Rsp, CallError>(rsp)
        };
        match daos_sim::timeout(sim, deadline, attempt).await {
            Some(done) => done,
            None => Err(CallError::Timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_sim::executor::join_all;
    use daos_sim::units::{gib_per_sec, MIB};

    fn fab(n: usize) -> Rc<Fabric> {
        Fabric::new(n, FabricConfig::default())
    }

    #[test]
    fn single_flow_reaches_line_rate() {
        let mut sim = Sim::new(1);
        let f = fab(2);
        let secs = sim.block_on(|sim| {
            let f = Rc::clone(&f);
            async move {
                let t0 = sim.now();
                f.message(&sim, 0, 1, 256 * MIB).await;
                (sim.now() - t0).as_secs_f64()
            }
        });
        let gib_s = gib_per_sec(256 * MIB, secs);
        let line = FabricConfig::default().link_bw.as_gib_per_sec();
        assert!(gib_s > 0.95 * line, "got {gib_s} GiB/s, line {line}");
        assert!(gib_s <= line * 1.01, "faster than line rate: {gib_s}");
    }

    #[test]
    fn incast_shares_receiver_bandwidth() {
        let mut sim = Sim::new(1);
        let f = fab(3);
        let secs = sim.block_on(|sim| {
            let f = Rc::clone(&f);
            async move {
                let t0 = sim.now();
                let futs: Vec<_> = (0..2)
                    .map(|src| {
                        let f = Rc::clone(&f);
                        let s = sim.clone();
                        async move {
                            f.message(&s, src, 2, 64 * MIB).await;
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
                (sim.now() - t0).as_secs_f64()
            }
        });
        // 128 MiB through one rx at ~11.6 GiB/s: senders see ~half line rate each
        let agg = gib_per_sec(128 * MIB, secs);
        let line = FabricConfig::default().link_bw.as_gib_per_sec();
        assert!(
            agg > 0.9 * line && agg <= line * 1.01,
            "agg {agg}, line {line}"
        );
    }

    #[test]
    fn disjoint_pairs_scale() {
        let mut sim = Sim::new(1);
        let f = fab(4);
        let secs = sim.block_on(|sim| {
            let f = Rc::clone(&f);
            async move {
                let t0 = sim.now();
                let futs: Vec<_> = [(0usize, 1usize), (2, 3)]
                    .into_iter()
                    .map(|(a, b)| {
                        let f = Rc::clone(&f);
                        let s = sim.clone();
                        async move {
                            f.message(&s, a, b, 64 * MIB).await;
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
                (sim.now() - t0).as_secs_f64()
            }
        });
        let agg = gib_per_sec(128 * MIB, secs);
        let line = FabricConfig::default().link_bw.as_gib_per_sec();
        assert!(agg > 1.9 * line, "disjoint pairs should double: {agg}");
    }

    #[test]
    fn zero_byte_message_costs_latency() {
        let mut sim = Sim::new(1);
        let f = fab(2);
        let t = sim.block_on(|sim| {
            let f = Rc::clone(&f);
            async move {
                f.message(&sim, 0, 1, 0).await;
                sim.now()
            }
        });
        let cfg = FabricConfig::default();
        assert!(t.as_ns() >= cfg.wire_latency.as_ns());
        assert!(t.as_ns() < 10_000, "{t}");
    }

    #[test]
    fn loopback_faster_than_wire() {
        let mut sim = Sim::new(1);
        let f = fab(2);
        let (lo, wire) = sim.block_on(|sim| {
            let f = Rc::clone(&f);
            async move {
                let t0 = sim.now();
                f.message(&sim, 0, 0, 16 * MIB).await;
                let t1 = sim.now();
                f.message(&sim, 0, 1, 16 * MIB).await;
                let t2 = sim.now();
                ((t1 - t0).as_ns(), (t2 - t1).as_ns())
            }
        });
        assert!(lo < wire, "loopback {lo} should beat wire {wire}");
    }

    #[test]
    fn rpc_round_trip_with_bulk() {
        let mut sim = Sim::new(1);
        let got = sim.block_on(|sim| async move {
            let f = fab(2);
            let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Rc::clone(&f), 1);
            let server = {
                let ep = Rc::clone(&ep);
                sim.spawn(async move {
                    while let Some(inc) = ep.serve().await {
                        let v = inc.req * 2;
                        inc.respond(v, 1024);
                    }
                })
            };
            let r = ep.call(&sim, 0, 21, 4096).await.unwrap();
            ep.close();
            server.await;
            r
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn partition_times_out_deadline_calls_and_heals() {
        let mut sim = Sim::new(1);
        let (before, healed, elapsed_us) = sim.block_on(|sim| async move {
            let f = fab(2);
            let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Rc::clone(&f), 1);
            let server = {
                let ep = Rc::clone(&ep);
                sim.spawn(async move {
                    while let Some(inc) = ep.serve().await {
                        let v = inc.req + 1;
                        inc.respond(v, 0);
                    }
                })
            };
            f.partition_between(0, 1);
            let t0 = sim.now();
            let before = ep
                .call_deadline(&sim, 0, 7, 0, SimDuration::from_us(50))
                .await;
            let waited = (sim.now() - t0).as_ns() / 1_000;
            f.heal_all();
            let healed = ep
                .call_deadline(&sim, 0, 7, 0, SimDuration::from_us(50))
                .await;
            ep.close();
            server.await;
            (before, healed, waited)
        });
        assert_eq!(before, Err(CallError::Timeout));
        assert_eq!(elapsed_us, 50, "timeout must burn the full deadline");
        assert_eq!(healed, Ok(8));
    }

    /// The deadline of a call that was answered is not an event: the run
    /// is over when the reply lands, not when the deadline would have hit.
    #[test]
    fn answered_deadline_call_leaves_the_clock_at_the_answer() {
        let mut sim = Sim::new(1);
        let f = fab(2);
        let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Rc::clone(&f), 1);
        let server = Rc::clone(&ep);
        sim.spawn_detached(async move {
            while let Some(inc) = server.serve().await {
                let v = inc.req + 1;
                inc.respond(v, 0);
            }
        });
        let s = sim.clone();
        let answered = sim.spawn(async move {
            let rsp = ep
                .call_deadline(&s, 0, 7, 0, SimDuration::from_secs(1))
                .await;
            ep.close();
            (rsp, s.now())
        });
        assert_eq!(sim.run_until_quiescent(), 0);
        let (rsp, at) = sim.block_on(|_| answered);
        assert_eq!(rsp, Ok(8));
        assert!(at < SimTime::from_us(100), "answered at {at}");
        assert_eq!(sim.now(), at, "nothing happened after the answer");
    }

    #[test]
    fn dark_node_rejects_and_restores() {
        let mut sim = Sim::new(1);
        let (dark, lit) = sim.block_on(|sim| async move {
            let f = fab(2);
            let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Rc::clone(&f), 1);
            let server = {
                let ep = Rc::clone(&ep);
                sim.spawn(async move {
                    while let Some(inc) = ep.serve().await {
                        let v = inc.req;
                        inc.respond(v, 0);
                    }
                })
            };
            f.set_node_down(1);
            assert!(!f.deliverable(0, 1));
            let dark = ep.call(&sim, 0, 9, 0).await;
            f.set_node_up(1);
            assert!(f.deliverable(0, 1));
            let lit = ep.call(&sim, 0, 9, 0).await;
            ep.close();
            server.await;
            (dark, lit)
        });
        assert!(dark.is_err(), "call into a dark node must fast-fail");
        assert_eq!(lit, Ok(9));
    }

    #[test]
    fn full_loss_rate_times_out_and_offline_endpoint_rejects() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let f = fab(2);
            let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Rc::clone(&f), 1);
            let server = {
                let ep = Rc::clone(&ep);
                sim.spawn(async move {
                    while let Some(inc) = ep.serve().await {
                        let v = inc.req;
                        inc.respond(v, 0);
                    }
                })
            };
            f.set_drop_rate(1_000_000, 0xD20);
            let lossy = ep
                .call_deadline(&sim, 0, 1, 0, SimDuration::from_us(20))
                .await;
            assert_eq!(lossy, Err(CallError::Timeout));
            f.heal_all();
            ep.set_online(false);
            let offline = ep
                .call_deadline(&sim, 0, 1, 0, SimDuration::from_us(20))
                .await;
            assert_eq!(offline, Err(CallError::Timeout));
            ep.set_online(true);
            let back = ep
                .call_deadline(&sim, 0, 1, 0, SimDuration::from_us(200))
                .await;
            assert_eq!(back, Ok(1));
            ep.close();
            server.await;
        });
    }

    #[test]
    fn latency_spike_slows_messages() {
        let mut sim = Sim::new(1);
        let (base, spiked) = sim.block_on(|sim| async move {
            let f = fab(2);
            let t0 = sim.now();
            f.message(&sim, 0, 1, 0).await;
            let base = (sim.now() - t0).as_ns();
            f.set_extra_latency(SimDuration::from_us(500));
            let t1 = sim.now();
            f.message(&sim, 0, 1, 0).await;
            let spiked = (sim.now() - t1).as_ns();
            f.set_extra_latency(SimDuration::ZERO);
            (base, spiked)
        });
        assert!(
            spiked >= base + 500_000,
            "spike not applied: {base} vs {spiked}"
        );
    }

    #[test]
    fn rpc_server_drop_yields_closed() {
        let mut sim = Sim::new(1);
        let r = sim.block_on(|sim| async move {
            let f = fab(2);
            let ep: Rc<Endpoint<u32, u32>> = Endpoint::bind(Rc::clone(&f), 1);
            // server takes the request then drops it without responding
            let ep2 = Rc::clone(&ep);
            sim.spawn_detached(async move {
                let inc = ep2.serve().await.unwrap();
                drop(inc);
            });
            ep.call(&sim, 0, 1, 0).await
        });
        assert!(r.is_err());
    }
}
