//! The RAFT replica state machine (tick/step style).

use std::collections::BTreeMap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::log::{Entry, Log, Snapshot};
use crate::{Index, NodeId, Term};

/// Replica role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Static configuration of one replica.
#[derive(Clone, Debug)]
pub struct Config {
    /// This replica's id. Must appear in `peers`.
    pub id: NodeId,
    /// The full replica set (including `id`).
    pub peers: Vec<NodeId>,
}

impl Config {
    /// The configuration of replica `id` in the set `peers`.
    pub fn new(id: NodeId, peers: Vec<NodeId>) -> Self {
        assert!(peers.contains(&id), "id must be a member of peers");
        Config { id, peers }
    }
}

/// Election timeout range in ticks (randomised per election).
const ELECTION_TICKS: std::ops::RangeInclusive<u64> = 10..=20;
/// Leader heartbeat interval in ticks.
const HEARTBEAT_TICKS: u64 = 3;
/// Max entries per AppendEntries message.
const MAX_BATCH: usize = 64;
/// Compact the log once it exceeds this many in-memory entries.
const SNAPSHOT_THRESHOLD: usize = 1024;

/// What actually sits in the replicated log: application commands plus the
/// no-op barrier a fresh leader appends to commit prior-term entries
/// (RAFT §5.4.2 / figure 8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogCmd<C> {
    /// Leader-change barrier; applied silently.
    Noop,
    /// An application command.
    Cmd(C),
}

/// RAFT wire messages.
#[derive(Clone, Debug)]
pub enum Message<C> {
    RequestVote {
        term: Term,
        last_log_index: Index,
        last_log_term: Term,
    },
    RequestVoteResp {
        term: Term,
        granted: bool,
    },
    AppendEntries {
        term: Term,
        prev_index: Index,
        prev_term: Term,
        entries: Vec<Entry<LogCmd<C>>>,
        leader_commit: Index,
    },
    AppendResp {
        term: Term,
        success: bool,
        /// On success: last index now matched. On failure: a hint for the
        /// leader's next probe (first index of the conflicting region).
        match_hint: Index,
    },
    InstallSnapshot {
        term: Term,
        snapshot: Snapshot,
    },
    SnapshotResp {
        term: Term,
        last_index: Index,
    },
}

/// A message addressed to a peer.
#[derive(Clone, Debug)]
pub struct Envelope<C> {
    pub to: NodeId,
    pub msg: Message<C>,
}

/// Events the application must apply, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Apply<C> {
    /// A committed log entry.
    Committed(Entry<C>),
    /// The state machine must be reset from this snapshot.
    Restore(Snapshot),
}

/// Error returned by [`Raft::propose`] on a non-leader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotLeader {
    /// Best guess at the current leader, if any.
    pub hint: Option<NodeId>,
}

/// One RAFT replica.
pub struct Raft<C> {
    cfg: Config,
    rng: ChaCha8Rng,

    // persistent state (the embedder persists term/voted_for/log)
    term: Term,
    voted_for: Option<NodeId>,
    log: Log<LogCmd<C>>,

    // volatile
    role: Role,
    leader_hint: Option<NodeId>,
    commit_index: Index,
    applied_index: Index,
    elapsed: u64,
    election_deadline: u64,
    votes: BTreeMap<NodeId, bool>,

    // leader state
    next_index: BTreeMap<NodeId, Index>,
    match_index: BTreeMap<NodeId, Index>,

    // outbox of apply events for the embedder
    applies: Vec<Apply<C>>,
}

impl<C: Clone> Raft<C> {
    /// Create a follower with an empty log.
    pub fn new(cfg: Config, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ cfg.id);
        let deadline = rng.gen_range(ELECTION_TICKS);
        Raft {
            cfg,
            rng,
            term: 0,
            voted_for: None,
            log: Log::new(),
            role: Role::Follower,
            leader_hint: None,
            commit_index: 0,
            applied_index: 0,
            elapsed: 0,
            election_deadline: deadline,
            votes: BTreeMap::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            applies: Vec::new(),
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }
    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }
    /// Who this node believes is leader (itself when leading).
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.role == Role::Leader {
            Some(self.cfg.id)
        } else {
            self.leader_hint
        }
    }
    /// Highest committed index.
    pub fn commit_index(&self) -> Index {
        self.commit_index
    }
    /// This replica's id.
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }
    /// Read access to the log (tests, snapshots).
    pub fn log(&self) -> &Log<LogCmd<C>> {
        &self.log
    }

    fn quorum(&self) -> usize {
        self.cfg.peers.len() / 2 + 1
    }

    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.cfg.id;
        self.cfg.peers.iter().copied().filter(move |&p| p != me)
    }

    /// Advance logical time by one tick; returns messages to send.
    pub fn tick(&mut self) -> Vec<Envelope<C>> {
        self.elapsed += 1;
        match self.role {
            Role::Leader => {
                if self.elapsed >= HEARTBEAT_TICKS {
                    self.elapsed = 0;
                    return self.broadcast_append();
                }
                Vec::new()
            }
            Role::Follower | Role::Candidate => {
                if self.elapsed >= self.election_deadline {
                    return self.start_election();
                }
                Vec::new()
            }
        }
    }

    fn reset_election_timer(&mut self) {
        self.elapsed = 0;
        self.election_deadline = self.rng.gen_range(ELECTION_TICKS);
    }

    fn start_election(&mut self) -> Vec<Envelope<C>> {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.cfg.id);
        self.votes.clear();
        self.votes.insert(self.cfg.id, true);
        self.reset_election_timer();
        if self.votes.len() >= self.quorum() {
            // single-node cluster
            return self.become_leader();
        }
        let msg = Message::RequestVote {
            term: self.term,
            last_log_index: self.log.last_index(),
            last_log_term: self.log.last_term(),
        };
        self.others()
            .map(|to| Envelope {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    fn become_follower(&mut self, term: Term, leader: Option<NodeId>) {
        self.role = Role::Follower;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        if leader.is_some() {
            self.leader_hint = leader;
        }
        self.reset_election_timer();
    }

    fn become_leader(&mut self) -> Vec<Envelope<C>> {
        self.role = Role::Leader;
        self.elapsed = 0;
        self.next_index.clear();
        self.match_index.clear();
        let next = self.log.last_index() + 1;
        for p in self.cfg.peers.clone() {
            self.next_index.insert(p, next);
            self.match_index.insert(p, 0);
        }
        // The no-op barrier (RAFT §5.4.2 / figure 8): commit-index rules
        // forbid committing prior-term entries by counting; appending an
        // entry in the new term lets the whole prefix commit as soon as it
        // replicates, even if the application never proposes again.
        let idx = self.log.append(self.term, LogCmd::Noop);
        self.match_index.insert(self.cfg.id, idx);
        if self.cfg.peers.len() == 1 {
            self.maybe_advance_commit();
        }
        self.broadcast_append()
    }

    fn append_for(&mut self, to: NodeId) -> Envelope<C> {
        let next = *self.next_index.get(&to).unwrap_or(&1);
        if next < self.log.first_index() {
            // peer is behind the compaction base: ship the snapshot
            return Envelope {
                to,
                msg: Message::InstallSnapshot {
                    term: self.term,
                    snapshot: self.log.snapshot().clone(),
                },
            };
        }
        let prev_index = next - 1;
        let prev_term = self.log.term_at(prev_index).unwrap_or(0);
        let entries = self.log.entries_from(prev_index, MAX_BATCH);
        Envelope {
            to,
            msg: Message::AppendEntries {
                term: self.term,
                prev_index,
                prev_term,
                entries,
                leader_commit: self.commit_index,
            },
        }
    }

    fn broadcast_append(&mut self) -> Vec<Envelope<C>> {
        let peers: Vec<NodeId> = self.others().collect();
        peers.into_iter().map(|p| self.append_for(p)).collect()
    }

    /// Propose a command (leader only). Returns its log index.
    pub fn propose(&mut self, cmd: C) -> Result<(Index, Vec<Envelope<C>>), NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                hint: self.leader_hint(),
            });
        }
        let idx = self.log.append(self.term, LogCmd::Cmd(cmd));
        self.match_index.insert(self.cfg.id, idx);
        if self.cfg.peers.len() == 1 {
            self.maybe_advance_commit();
        }
        Ok((idx, self.broadcast_append()))
    }

    /// Process one incoming message; returns messages to send.
    pub fn step(&mut self, from: NodeId, msg: Message<C>) -> Vec<Envelope<C>> {
        // term bookkeeping common to all messages
        let msg_term = match &msg {
            Message::RequestVote { term, .. }
            | Message::RequestVoteResp { term, .. }
            | Message::AppendEntries { term, .. }
            | Message::AppendResp { term, .. }
            | Message::InstallSnapshot { term, .. }
            | Message::SnapshotResp { term, .. } => *term,
        };
        if msg_term > self.term {
            let leader = match &msg {
                Message::AppendEntries { .. } | Message::InstallSnapshot { .. } => Some(from),
                _ => None,
            };
            self.become_follower(msg_term, leader);
        }

        match msg {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.log.last_term(), self.log.last_index());
                let grant = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if grant {
                    self.voted_for = Some(from);
                    self.reset_election_timer();
                }
                vec![Envelope {
                    to: from,
                    msg: Message::RequestVoteResp {
                        term: self.term,
                        granted: grant,
                    },
                }]
            }
            Message::RequestVoteResp { term, granted } => {
                if self.role == Role::Candidate && term == self.term {
                    self.votes.insert(from, granted);
                    let yes = self.votes.values().filter(|&&g| g).count();
                    if yes >= self.quorum() {
                        return self.become_leader();
                    }
                }
                Vec::new()
            }
            Message::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    return vec![Envelope {
                        to: from,
                        msg: Message::AppendResp {
                            term: self.term,
                            success: false,
                            match_hint: 0,
                        },
                    }];
                }
                // valid leader for this term
                self.become_follower(term, Some(from));
                match self.log.term_at(prev_index) {
                    Some(t) if t == prev_term => {
                        let last_new = entries.last().map(|e| e.index).unwrap_or(prev_index);
                        self.log.splice(entries);
                        if leader_commit > self.commit_index {
                            self.commit_index = leader_commit.min(last_new);
                            self.drain_commits();
                        }
                        vec![Envelope {
                            to: from,
                            msg: Message::AppendResp {
                                term: self.term,
                                success: true,
                                match_hint: last_new,
                            },
                        }]
                    }
                    _ => {
                        // conflict: hint the leader to back off to our tail
                        // (or the compaction base if prev fell inside it)
                        let hint = self
                            .log
                            .last_index()
                            .min(prev_index.saturating_sub(1))
                            .max(self.log.snapshot().last_index);
                        vec![Envelope {
                            to: from,
                            msg: Message::AppendResp {
                                term: self.term,
                                success: false,
                                match_hint: hint,
                            },
                        }]
                    }
                }
            }
            Message::AppendResp {
                term,
                success,
                match_hint,
            } => {
                if self.role != Role::Leader || term != self.term {
                    return Vec::new();
                }
                if success {
                    self.match_index.insert(from, match_hint);
                    self.next_index.insert(from, match_hint + 1);
                    self.maybe_advance_commit();
                    // keep streaming if the peer is still behind
                    if match_hint < self.log.last_index() {
                        return vec![self.append_for(from)];
                    }
                    Vec::new()
                } else {
                    let next = self.next_index.entry(from).or_insert(1);
                    *next = (*next - 1).max(1).min(match_hint + 1);
                    vec![self.append_for(from)]
                }
            }
            Message::InstallSnapshot { term, snapshot } => {
                if term < self.term {
                    return Vec::new();
                }
                self.become_follower(term, Some(from));
                let last = snapshot.last_index;
                if last > self.log.last_index() {
                    self.log.restore(snapshot.clone());
                    self.commit_index = self.commit_index.max(last);
                    self.applied_index = last;
                    self.applies.push(Apply::Restore(snapshot));
                }
                vec![Envelope {
                    to: from,
                    msg: Message::SnapshotResp {
                        term: self.term,
                        last_index: self.log.last_index(),
                    },
                }]
            }
            Message::SnapshotResp { term, last_index } => {
                if self.role == Role::Leader && term == self.term {
                    self.match_index.insert(from, last_index);
                    self.next_index.insert(from, last_index + 1);
                    if last_index < self.log.last_index() {
                        return vec![self.append_for(from)];
                    }
                }
                Vec::new()
            }
        }
    }

    fn maybe_advance_commit(&mut self) {
        // highest N replicated on a quorum with term == current
        let mut candidates: Vec<Index> = self.match_index.values().copied().collect();
        candidates.sort_unstable();
        let quorum_idx = candidates[candidates.len() - self.quorum()];
        if quorum_idx > self.commit_index && self.log.term_at(quorum_idx) == Some(self.term) {
            self.commit_index = quorum_idx;
            self.drain_commits();
        }
    }

    fn drain_commits(&mut self) {
        while self.applied_index < self.commit_index {
            let idx = self.applied_index + 1;
            match self.log.get(idx) {
                Some(e) => {
                    if let LogCmd::Cmd(c) = &e.cmd {
                        self.applies.push(Apply::Committed(Entry {
                            term: e.term,
                            index: e.index,
                            cmd: c.clone(),
                        }));
                    }
                    // no-ops advance applied_index silently
                }
                None => break, // compacted; a Restore covered it
            }
            self.applied_index = idx;
        }
    }

    /// Take the pending apply events (committed entries / restores), in order.
    pub fn take_applies(&mut self) -> Vec<Apply<C>> {
        std::mem::take(&mut self.applies)
    }

    /// True once the in-memory log is large enough to warrant compaction.
    pub fn wants_snapshot(&self) -> bool {
        self.log.len_in_memory() > SNAPSHOT_THRESHOLD
            && self.applied_index > self.log.snapshot().last_index
    }

    /// Compact the log with an application-provided snapshot of the state
    /// machine at `applied_index`.
    pub fn compact(&mut self, data: Vec<u8>) {
        let idx = self.applied_index;
        if idx == 0 {
            return;
        }
        let term = self.log.term_at(idx).unwrap_or(self.log.last_term());
        self.log.compact(Snapshot {
            last_index: idx,
            last_term: term,
            data,
        });
    }
}
