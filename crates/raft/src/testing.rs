//! A deterministic in-memory cluster harness for exercising RAFT under
//! message loss, delay and partitions. Used by this crate's tests and
//! reusable from integration tests.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::node::{Apply, Config, Envelope, Message, Raft, Role};
use crate::{Entry, Index, NodeId, Term};

struct InFlight<C> {
    deliver_at: u64,
    from: NodeId,
    to: NodeId,
    msg: Message<C>,
}

/// A simulated cluster of RAFT replicas with a lossy, reordering network.
pub struct Cluster<C: Clone> {
    pub nodes: BTreeMap<NodeId, Raft<C>>,
    net: VecDeque<InFlight<C>>,
    rng: ChaCha8Rng,
    round: u64,
    /// Probability in 0..=1 that any message is dropped.
    pub drop_rate: f64,
    /// Maximum extra delivery delay in rounds.
    pub max_delay: u64,
    blocked: BTreeSet<(NodeId, NodeId)>,
    /// Everything each node has applied, in order.
    pub applied: BTreeMap<NodeId, Vec<Entry<C>>>,
    /// All (term, leader) observations, for the election-safety invariant.
    leaders_by_term: BTreeMap<Term, BTreeSet<NodeId>>,
}

impl<C: Clone> Cluster<C> {
    /// Build an `n`-replica cluster (ids `1..=n`).
    pub fn new(n: u64, seed: u64) -> Self {
        let peers: Vec<NodeId> = (1..=n).collect();
        let nodes = peers
            .iter()
            .map(|&id| (id, Raft::new(Config::new(id, peers.clone()), seed)))
            .collect();
        Cluster {
            nodes,
            net: VecDeque::new(),
            rng: ChaCha8Rng::seed_from_u64(seed.wrapping_add(0xC1u64)),
            round: 0,
            drop_rate: 0.0,
            max_delay: 2,
            blocked: BTreeSet::new(),
            applied: peers.iter().map(|&id| (id, Vec::new())).collect(),
            leaders_by_term: BTreeMap::new(),
        }
    }

    fn enqueue(&mut self, from: NodeId, envs: Vec<Envelope<C>>) {
        for env in envs {
            if self.rng.gen_bool(self.drop_rate) {
                continue;
            }
            if self.blocked.contains(&(from, env.to)) || self.blocked.contains(&(env.to, from)) {
                continue;
            }
            let delay = self.rng.gen_range(0..=self.max_delay);
            self.net.push_back(InFlight {
                deliver_at: self.round + delay,
                from,
                to: env.to,
                msg: env.msg,
            });
        }
    }

    fn harvest(&mut self, id: NodeId) {
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: both callers in `step` harvest a node they have just \
                      ticked or stepped, so `id` is a key of `self.nodes`"
        )]
        let node = self.nodes.get_mut(&id).unwrap();
        if node.role() == Role::Leader {
            self.leaders_by_term
                .entry(node.term())
                .or_default()
                .insert(id);
        }
        for ev in node.take_applies() {
            match ev {
                Apply::Committed(e) => self.applied.entry(id).or_default().push(e),
                Apply::Restore(snap) => {
                    // restored nodes logically have everything to snap index;
                    // truncate-and-mark so prefix checks still work
                    let v = self.applied.entry(id).or_default();
                    v.retain(|e| e.index <= snap.last_index);
                }
            }
        }
    }

    /// Run one round: tick every node, deliver due messages.
    pub fn step(&mut self) {
        self.round += 1;
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for id in &ids {
            #[expect(
                clippy::unwrap_used,
                reason = "INVARIANT: `ids` was read from `self.nodes` just above and \
                          nothing in this loop removes a node"
            )]
            let out = self.nodes.get_mut(id).unwrap().tick();
            self.enqueue(*id, out);
            self.harvest(*id);
        }
        // deliver everything due this round
        let mut pending = VecDeque::new();
        std::mem::swap(&mut pending, &mut self.net);
        while let Some(m) = pending.pop_front() {
            if m.deliver_at > self.round {
                self.net.push_back(m);
                continue;
            }
            // a message addressed outside the cluster is lost, as on a
            // real network
            let Some(node) = self.nodes.get_mut(&m.to) else {
                continue;
            };
            let out = node.step(m.from, m.msg);
            self.enqueue(m.to, out);
            self.harvest(m.to);
        }
    }

    /// Run `n` rounds.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The unique current leader, if exactly one node is leading.
    pub fn leader(&self) -> Option<NodeId> {
        let leaders: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|(_, r)| r.role() == Role::Leader)
            .map(|(&id, _)| id)
            .collect();
        // several leaders can coexist transiently *in different terms*;
        // report the one with the highest term
        leaders.into_iter().max_by_key(|id| self.nodes[id].term())
    }

    /// Run until some node is leader (panics after `max` rounds).
    #[expect(
        clippy::panic,
        reason = "documented harness assertion: callers want the run to fail here, \
                  not an Option to unwrap"
    )]
    pub fn run_until_leader(&mut self, max: u64) -> NodeId {
        for _ in 0..max {
            self.step();
            if let Some(l) = self.leader() {
                return l;
            }
        }
        panic!("no leader elected after {max} rounds");
    }

    /// Propose on the current leader; returns the index, or None if no leader.
    pub fn propose(&mut self, cmd: C) -> Option<Index> {
        let l = self.leader()?;
        let node = self.nodes.get_mut(&l)?;
        match node.propose(cmd) {
            Ok((idx, out)) => {
                self.enqueue(l, out);
                Some(idx)
            }
            Err(_) => None,
        }
    }

    /// Cut all links between `group` and the rest.
    pub fn partition(&mut self, group: &[NodeId]) {
        let g: BTreeSet<NodeId> = group.iter().copied().collect();
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for &a in &ids {
            for &b in &ids {
                if g.contains(&a) != g.contains(&b) {
                    self.blocked.insert((a, b));
                }
            }
        }
    }

    /// Restore full connectivity.
    pub fn heal(&mut self) {
        self.blocked.clear();
    }

    /// Election safety: at most one leader was ever observed per term.
    pub fn assert_election_safety(&self) {
        for (term, set) in &self.leaders_by_term {
            assert!(set.len() <= 1, "term {term} had multiple leaders: {set:?}");
        }
    }

    /// State-machine safety: every pair of nodes applied identical prefixes.
    pub fn assert_applied_prefix_consistency(&self)
    where
        C: PartialEq + std::fmt::Debug,
    {
        let logs: Vec<&Vec<Entry<C>>> = self.applied.values().collect();
        for w in logs.windows(2) {
            for (i, (a, b)) in w[0].iter().zip(w[1].iter()).enumerate() {
                assert_eq!(a, b, "applied logs diverge at position {i}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elects_a_leader_quickly() {
        let mut c: Cluster<u32> = Cluster::new(3, 7);
        let l = c.run_until_leader(200);
        assert!((1..=3).contains(&l));
        c.assert_election_safety();
    }

    #[test]
    fn replicates_and_commits() {
        let mut c: Cluster<u32> = Cluster::new(3, 11);
        c.run_until_leader(200);
        for i in 0..10 {
            c.propose(i).unwrap();
            c.run(5);
        }
        c.run(30);
        for (id, log) in &c.applied {
            assert_eq!(log.len(), 10, "node {id} applied {} entries", log.len());
            let cmds: Vec<u32> = log.iter().map(|e| e.cmd).collect();
            assert_eq!(cmds, (0..10).collect::<Vec<_>>());
        }
        c.assert_election_safety();
        c.assert_applied_prefix_consistency();
    }

    #[test]
    fn survives_leader_partition() {
        let mut c: Cluster<u32> = Cluster::new(5, 13);
        let l1 = c.run_until_leader(300);
        c.propose(1).unwrap();
        c.run(20);
        // isolate the leader; the remaining quorum elects a new one
        c.partition(&[l1]);
        c.run(100);
        let l2 = c.leader().expect("majority side should elect");
        assert_ne!(l1, l2);
        c.propose(2).unwrap();
        c.run(30);
        // heal: old leader catches up, nothing committed is lost
        c.heal();
        c.run(100);
        c.assert_election_safety();
        c.assert_applied_prefix_consistency();
        let log = &c.applied[&l1];
        let cmds: Vec<u32> = log.iter().map(|e| e.cmd).collect();
        assert_eq!(cmds, vec![1, 2]);
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut c: Cluster<u32> = Cluster::new(5, 17);
        let l1 = c.run_until_leader(300);
        // cut the leader plus one follower off (minority of 2)
        let follower = (1..=5).find(|&id| id != l1).unwrap();
        c.partition(&[l1, follower]);
        // the stale leader may still accept proposals but can never commit
        let node = c.nodes.get_mut(&l1).unwrap();
        if let Ok((_, out)) = node.propose(99) {
            c.enqueue(l1, out);
        }
        c.run(100);
        for log in c.applied.values() {
            assert!(
                !log.iter().any(|e| e.cmd == 99),
                "minority-partition entry must never commit"
            );
        }
        c.assert_election_safety();
    }

    #[test]
    fn lossy_network_still_converges() {
        let mut c: Cluster<u32> = Cluster::new(3, 23);
        c.drop_rate = 0.2;
        c.max_delay = 4;
        c.run_until_leader(2000);
        let mut proposed = 0;
        for i in 0..20 {
            if c.propose(i).is_some() {
                proposed += 1;
            }
            c.run(10);
        }
        c.drop_rate = 0.0;
        c.run(300);
        assert!(proposed > 0);
        c.assert_election_safety();
        c.assert_applied_prefix_consistency();
        // all nodes converge to the same count
        let lens: BTreeSet<usize> = c.applied.values().map(|v| v.len()).collect();
        assert_eq!(lens.len(), 1, "lens {lens:?}");
    }

    #[test]
    fn snapshot_compaction_and_install() {
        let mut c: Cluster<u32> = Cluster::new(3, 29);
        let l = c.run_until_leader(300);
        // partition one follower so it falls behind
        let lagger = (1..=3).find(|&id| id != l).unwrap();
        c.partition(&[lagger]);
        for i in 0..50 {
            c.propose(i).unwrap();
            c.run(3);
        }
        c.run(30);
        // force-compact the leader's log
        let leader = c.nodes.get_mut(&l).unwrap();
        leader.compact(vec![0xAB]);
        assert!(leader.log().len_in_memory() < 50);
        // heal: lagger must be brought up via InstallSnapshot + tail
        c.heal();
        c.run(300);
        let lag_node = &c.nodes[&lagger];
        assert_eq!(lag_node.log().last_index(), c.nodes[&l].log().last_index());
        c.assert_election_safety();
    }

    #[test]
    fn single_node_cluster_self_elects_and_commits() {
        let mut c: Cluster<u32> = Cluster::new(1, 31);
        let l = c.run_until_leader(100);
        assert_eq!(l, 1);
        c.propose(7).unwrap();
        c.run(5);
        assert_eq!(c.applied[&1].len(), 1);
    }
}
