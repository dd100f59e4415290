//! # daos-mpi — a simulated MPI layer over the fabric
//!
//! Enough of MPI for IOR and a ROMIO-style MPI-IO implementation: ranks
//! pinned to fabric nodes, matched point-to-point messaging (eager
//! protocol), and tree-based collectives (barrier, bcast, gather,
//! allgather) whose cost is real fabric traffic.
//!
//! Collectives are SPMD: every rank of the communicator must call the same
//! collective in the same order (tags are derived from a per-rank
//! collective sequence number, so mismatched calls deadlock loudly in the
//! simulator rather than corrupting state — just like real MPI).

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use daos_fabric::{Fabric, NodeId};
use daos_sim::{Mailbox, Sim};
use daos_vos::Payload;

/// Rank index within the world.
pub type Rank = usize;

/// One matched message.
#[derive(Clone, Debug)]
pub struct MpiMsg {
    pub from: Rank,
    pub tag: u64,
    /// Small out-of-band metadata (e.g. a file offset/length pair) that
    /// rides the header — what real MPI would pack into the datatype.
    pub meta: (u64, u64),
    pub data: Payload,
}

struct RankState {
    inbox: Mailbox<MpiMsg>,
    /// Arrived but not yet matched by a recv.
    unexpected: RefCell<VecDeque<MpiMsg>>,
    coll_seq: Cell<u64>,
}

/// The MPI world: ranks pinned to fabric nodes.
pub struct MpiWorld {
    fabric: Rc<Fabric>,
    rank_nodes: Vec<NodeId>,
    ranks: Vec<RankState>,
    /// Header bytes per message on the wire.
    header: u64,
}

impl MpiWorld {
    /// Create a world with rank `r` on fabric node `rank_nodes[r]`.
    pub fn new(fabric: Rc<Fabric>, rank_nodes: Vec<NodeId>) -> Rc<MpiWorld> {
        let ranks = rank_nodes
            .iter()
            .map(|_| RankState {
                inbox: Mailbox::new(),
                unexpected: RefCell::new(VecDeque::new()),
                coll_seq: Cell::new(0),
            })
            .collect();
        Rc::new(MpiWorld {
            fabric,
            rank_nodes,
            ranks,
            header: 64,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.rank_nodes.len()
    }

    /// Handle for rank `r`.
    pub fn rank(self: &Rc<Self>, r: Rank) -> MpiRank {
        assert!(r < self.size());
        MpiRank {
            world: Rc::clone(self),
            rank: r,
        }
    }

    /// The fabric node hosting rank `r`.
    pub fn node_of(&self, r: Rank) -> NodeId {
        self.rank_nodes[r]
    }
}

/// A process in the world (hold one per simulated rank task).
#[derive(Clone)]
pub struct MpiRank {
    world: Rc<MpiWorld>,
    rank: Rank,
}

impl MpiRank {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }
    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }
    /// The world.
    pub fn world(&self) -> &Rc<MpiWorld> {
        &self.world
    }

    /// Blocking send (eager): completes when the message is on the remote
    /// node.
    pub async fn send(&self, sim: &Sim, to: Rank, tag: u64, data: Payload) {
        self.send_meta(sim, to, tag, (0, 0), data).await
    }

    /// Send with out-of-band metadata (offset/length pairs and the like).
    pub async fn send_meta(&self, sim: &Sim, to: Rank, tag: u64, meta: (u64, u64), data: Payload) {
        let w = &self.world;
        w.fabric
            .message(
                sim,
                w.rank_nodes[self.rank],
                w.rank_nodes[to],
                w.header + data.len(),
            )
            .await;
        w.ranks[to].inbox.send(MpiMsg {
            from: self.rank,
            tag,
            meta,
            data,
        });
    }

    /// Blocking receive matching `(from, tag)`.
    pub async fn recv(&self, sim: &Sim, from: Rank, tag: u64) -> Payload {
        self.recv_msg(sim, from, tag).await.data
    }

    /// Receive the full message (metadata included).
    pub async fn recv_msg(&self, _sim: &Sim, from: Rank, tag: u64) -> MpiMsg {
        let st = &self.world.ranks[self.rank];
        // check earlier arrivals first
        {
            let mut uq = st.unexpected.borrow_mut();
            if let Some(pos) = uq.iter().position(|m| m.from == from && m.tag == tag) {
                return uq.remove(pos).unwrap();
            }
        }
        loop {
            let msg = st
                .inbox
                .recv()
                .await
                .expect("MPI world torn down while receiving");
            if msg.from == from && msg.tag == tag {
                return msg;
            }
            st.unexpected.borrow_mut().push_back(msg);
        }
    }

    fn next_coll_tag(&self) -> u64 {
        let st = &self.world.ranks[self.rank];
        let seq = st.coll_seq.get();
        st.coll_seq.set(seq + 1);
        // high bit namespace for collectives
        (1 << 63) | seq
    }

    fn tree_parent(&self, vrank: usize) -> Option<usize> {
        if vrank == 0 {
            None
        } else {
            Some((vrank - 1) / 2)
        }
    }
    fn tree_children(&self, vrank: usize) -> Vec<usize> {
        let n = self.size();
        [2 * vrank + 1, 2 * vrank + 2]
            .into_iter()
            .filter(|&c| c < n)
            .collect()
    }

    /// Barrier over the whole world (binary tree up + down).
    pub async fn barrier(&self, sim: &Sim) {
        let tag = self.next_coll_tag();
        let me = self.rank;
        for c in self.tree_children(me) {
            self.recv(sim, c, tag).await;
        }
        if let Some(p) = self.tree_parent(me) {
            self.send(sim, p, tag, Payload::bytes(Vec::new())).await;
            self.recv(sim, p, tag + (1 << 62)).await;
        }
        for c in self.tree_children(me) {
            self.send(sim, c, tag + (1 << 62), Payload::bytes(Vec::new()))
                .await;
        }
    }

    /// Broadcast from rank 0: rank 0 passes `Some(data)`, everyone gets it.
    pub async fn bcast(&self, sim: &Sim, data: Option<Payload>) -> Payload {
        let tag = self.next_coll_tag();
        let me = self.rank;
        let payload = if me == 0 {
            data.expect("root must supply bcast data")
        } else {
            let p = self.tree_parent(me).unwrap();
            self.recv(sim, p, tag).await
        };
        for c in self.tree_children(me) {
            self.send(sim, c, tag, payload.clone()).await;
        }
        payload
    }

    /// Gather fixed-size byte blobs to rank 0 (tree combine); rank 0 gets
    /// all contributions ordered by rank, others get an empty vec.
    pub async fn gather(&self, sim: &Sim, mine: Vec<u8>) -> Vec<Vec<u8>> {
        let tag = self.next_coll_tag();
        let me = self.rank;
        let n = self.size();
        // each node combines its subtree into (rank, blob) pairs
        let mut acc: Vec<(usize, Vec<u8>)> = vec![(me, mine)];
        for c in self.tree_children(me) {
            let blob = self.recv(sim, c, tag).await.materialize();
            acc.extend(decode_pairs(&blob));
        }
        if let Some(p) = self.tree_parent(me) {
            self.send(sim, p, tag, Payload::bytes(encode_pairs(&acc)))
                .await;
            return Vec::new();
        }
        let mut out = vec![Vec::new(); n];
        for (r, b) in acc {
            out[r] = b;
        }
        out
    }

    /// Allgather fixed-size blobs: gather to 0 then bcast.
    pub async fn allgather(&self, sim: &Sim, mine: Vec<u8>) -> Vec<Vec<u8>> {
        let gathered = self.gather(sim, mine).await;
        let packed = if self.rank == 0 {
            let pairs: Vec<(usize, Vec<u8>)> = gathered.iter().cloned().enumerate().collect();
            Some(Payload::bytes(encode_pairs(&pairs)))
        } else {
            None
        };
        let all = self.bcast(sim, packed).await.materialize();
        let mut out = vec![Vec::new(); self.size()];
        for (r, b) in decode_pairs(&all) {
            out[r] = b;
        }
        out
    }
}

fn encode_pairs(pairs: &[(usize, Vec<u8>)]) -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (r, b) in pairs {
        v.extend_from_slice(&(*r as u64).to_le_bytes());
        v.extend_from_slice(&(b.len() as u64).to_le_bytes());
        v.extend_from_slice(b);
    }
    v
}

fn decode_pairs(b: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let rd = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
    let n = rd(0) as usize;
    let mut out = Vec::with_capacity(n);
    let mut i = 8;
    for _ in 0..n {
        let r = rd(i) as usize;
        let len = rd(i + 8) as usize;
        out.push((r, b[i + 16..i + 16 + len].to_vec()));
        i += 16 + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_fabric::FabricConfig;
    use daos_sim::executor::join_all;
    use daos_sim::SimTime;

    fn world(sim: &Sim, n: usize) -> Rc<MpiWorld> {
        let fabric = Fabric::new(n, FabricConfig::default());
        let _ = sim;
        MpiWorld::new(fabric, (0..n).collect())
    }

    /// Run the same SPMD closure on every rank concurrently.
    fn spmd<T: 'static, F, Fut>(n: usize, f: F) -> Vec<T>
    where
        F: Fn(Sim, MpiRank) -> Fut + 'static,
        Fut: std::future::Future<Output = T> + 'static,
    {
        let mut sim = Sim::new(42);
        sim.block_on(move |sim| async move {
            let w = world(&sim, n);
            let futs: Vec<_> = (0..n).map(|r| f(sim.clone(), w.rank(r))).collect();
            join_all(&sim, futs).await
        })
    }

    #[test]
    fn send_recv_matches_by_tag() {
        let out = spmd(2, |sim, rank| async move {
            if rank.rank() == 0 {
                // send tags out of order; receiver matches correctly
                rank.send(&sim, 1, 7, Payload::bytes(vec![7])).await;
                rank.send(&sim, 1, 5, Payload::bytes(vec![5])).await;
                0
            } else {
                let five = rank.recv(&sim, 0, 5).await;
                let seven = rank.recv(&sim, 0, 7).await;
                (five.materialize()[0] as u64) * 10 + seven.materialize()[0] as u64
            }
        });
        assert_eq!(out[1], 57);
    }

    #[test]
    fn barrier_synchronises() {
        let times = spmd(8, |sim, rank| async move {
            // stagger arrival
            sim.sleep_us(rank.rank() as u64 * 50).await;
            rank.barrier(&sim).await;
            sim.now()
        });
        let latest_arrival = SimTime::from_us(7 * 50);
        for t in &times {
            assert!(*t >= latest_arrival, "barrier exited early: {t}");
        }
    }

    #[test]
    fn bcast_delivers_everywhere() {
        let out = spmd(7, |sim, rank| async move {
            let data = (rank.rank() == 0).then(|| Payload::bytes(vec![9, 8, 7]));
            rank.bcast(&sim, data).await.materialize().to_vec()
        });
        for o in out {
            assert_eq!(o, vec![9, 8, 7]);
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let out = spmd(6, |sim, rank| async move {
            let mine = vec![rank.rank() as u8; 3];
            rank.allgather(&sim, mine).await
        });
        for per_rank in out {
            assert_eq!(per_rank.len(), 6);
            for (r, blob) in per_rank.iter().enumerate() {
                assert_eq!(blob, &vec![r as u8; 3]);
            }
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        let out = spmd(4, |sim, rank| async move {
            let sum = |all: Vec<Vec<u8>>| all.iter().map(|b| b[0]).sum::<u8>();
            rank.barrier(&sim).await;
            let v = sum(rank.allgather(&sim, vec![rank.rank() as u8 + 1]).await);
            rank.barrier(&sim).await;
            let w = sum(rank.allgather(&sim, vec![v]).await);
            (v, w)
        });
        for (v, w) in out {
            assert_eq!(v, 10);
            assert_eq!(w, 40);
        }
    }

    #[test]
    fn pair_codec_round_trips() {
        let pairs = vec![(0usize, vec![1, 2]), (3, vec![]), (7, vec![9; 100])];
        assert_eq!(decode_pairs(&encode_pairs(&pairs)), pairs);
    }
}
